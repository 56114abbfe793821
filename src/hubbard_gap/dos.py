"""Density of states of the square-lattice nearest-neighbour band.

The band dispersion -2(cos k1 + cos k2) pushes the normalised Lebesgue
measure on the Brillouin zone [-pi, pi]^2 forward to a measure
N0(eps) d(eps) supported on [-4, 4] (energies in units of the hopping).
N0 is even, strictly positive inside the band, steps down to zero at the
band edges, and has a logarithmic van Hove singularity at eps = 0:

    N0(eps) = ln(16/eps)/(2 pi^2)
              + eps^2 (ln(16/eps) - 1)/(128 pi^2) + O(eps^4 ln(1/eps)).

Three mutually independent evaluations are provided and cross-checked by
the test suite:

* ``dos_pushforward_oracle`` -- the defining two-dimensional integral,
  evaluated by nested adaptive quadrature and guarded by an independent
  Monte Carlo estimate.  This is the ground truth the pointwise formulas
  are validated against.
* ``dos_value`` -- adaptive quadrature of the one-dimensional level-set
  reduction.  Resolving the delta constraint in the k2 integration and
  substituting cos k1 = -eps/4 + (1 - eps/4) cos t gives

      N0(eps) = (1/pi^2) int_0^{pi/2}
                [ (1 + eps/4)^2 - (1 - eps/4)^2 cos^2 t ]^(-1/2) dt
              = (1/pi^2) int_0^{pi/2}
                [ (1 + eps/4)^2 sin^2 t + eps cos^2 t ]^(-1/2) dt,

  whose integrand is smooth for 0 < eps < 4.  The second form uses
  (1 + eps/4)^2 - (1 - eps/4)^2 = eps exactly, so nothing cancels as
  eps -> 0, where the integrand peaks at t = 0 with width sqrt(eps).
* ``dos_value_elliptic`` -- the same reduction in closed form,
  N0(eps) = K(m) / (pi^2 (1 + eps/4)) with elliptic parameter
  m = ((4 - eps)/(4 + eps))^2, evaluated through ``ellipkm1`` so that the
  m -> 1 regime (eps -> 0) keeps full precision.  Once validated against
  the oracle it serves as the fast path inside moment and gap integrands.

Moments of eps^(s-1) against N0 on [0, 4] come both numerically
(``dos_moment``, with the singular neighbourhood of eps = 0 integrated in
closed form from the expansion above) and exactly (``dos_moment_exact``,
a squared Gamma ratio).

All functions are pure; Monte Carlo uses an explicit seed, so results are
deterministic for a fixed configuration.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipkm1

from .errors import ConvergenceError, DomainError
from .quadrature import adaptive_quad
from .specfun import PI_SQUARED, TWO_PI_SQUARED, gamma_ratio

BAND_EDGE = 4.0

#: below this energy the two-term singular expansion replaces direct
#: subtraction of the log divergence (remainder O(eps^4 ln) < 1e-15 there)
DELTA_SPLIT = 1e-3

#: fixed default seed of the Monte Carlo guard, for reproducible runs
DEFAULT_MC_SEED = 1729


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits governing every integral in the package."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_depth: int = 200
    mc_samples: int = 200_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be at least 1")
        if self.mc_samples < 10_000:
            raise DomainError("mc_samples must be at least 10000")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class DosPoint:
    """A single (energy, density) sample of the band density of states."""

    epsilon: float
    value: float

    def __post_init__(self):
        if self.value < 0.0:
            raise DomainError("density of states is non-negative")
        if abs(self.epsilon) > BAND_EDGE and self.value != 0.0:
            raise DomainError("density of states vanishes outside the band")


def dos_value(epsilon, cfg=DEFAULT_CONFIG):
    """Density of states at ``epsilon`` via the 1D level-set reduction.

    Exactly zero outside the open band |eps| < 4; raises at the eps = 0
    singularity.  Accuracy follows the tolerances in ``cfg``; below
    eps ~ 1e-120 the integrand's peak is too narrow for the quadrature,
    which then raises ConvergenceError.
    """
    e = abs(float(epsilon))
    if e == 0.0:
        raise DomainError("density of states diverges logarithmically at eps = 0")
    if e >= BAND_EDGE:
        return 0.0
    a = 1.0 + 0.25 * e
    root_e = math.sqrt(e)

    def integrand(t):
        return 1.0 / math.hypot(a * math.sin(t), root_e * math.cos(t))

    val = adaptive_quad(integrand, 0.0, 0.5 * math.pi,
                        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                        limit=cfg.max_depth, name="level-set DOS reduction")
    return val / PI_SQUARED


def dos_value_elliptic(epsilon):
    """Closed elliptic form of the level-set reduction (fast path).

    ``ellipkm1`` takes the complement 1 - m = 16 eps / (4 + eps)^2, which is
    exact arithmetic, so no precision is lost as eps -> 0.
    """
    e = abs(float(epsilon))
    if e == 0.0:
        raise DomainError("density of states diverges logarithmically at eps = 0")
    if e >= BAND_EDGE:
        return 0.0
    return float(ellipkm1(16.0 * e / (4.0 + e) ** 2)) / (PI_SQUARED * (1.0 + 0.25 * e))


def dos_asymptotic(epsilon):
    """Two-term singular expansion of N0 about the van Hove point."""
    if not 0.0 < epsilon < BAND_EDGE:
        raise DomainError(f"asymptotic form defined on 0 < eps < 4, got {epsilon}")
    log_term = math.log(16.0 / epsilon)
    return (log_term / TWO_PI_SQUARED
            + epsilon * epsilon * (log_term - 1.0) / (128.0 * PI_SQUARED))


def dos_log_subtracted(epsilon):
    """N0(eps) - ln(16/eps)/(2 pi^2), stable all the way down to eps = 0.

    Below DELTA_SPLIT direct subtraction would cancel every significant
    digit, so the expansion term eps^2 (ln(16/eps) - 1)/(128 pi^2) is used
    instead; its own error is O(eps^4 ln) < 1e-15 there.
    """
    e = abs(float(epsilon))
    if e == 0.0:
        return 0.0
    if e >= BAND_EDGE:
        raise DomainError(f"subtracted DOS defined on |eps| < 4, got {epsilon}")
    if e < DELTA_SPLIT:
        return e * e * (math.log(16.0 / e) - 1.0) / (128.0 * PI_SQUARED)
    return dos_value_elliptic(e) - math.log(16.0 / e) / TWO_PI_SQUARED


def _mc_values(g, eps):
    """Apply a scalar-or-vectorised test function to sampled energies."""
    try:
        arr = np.asarray(g(eps), dtype=float)
        if arr.shape == eps.shape:
            return arr
        if arr.shape == ():
            return np.full(eps.shape, float(arr))
    except Exception:
        pass
    return np.fromiter((g(float(e)) for e in eps), dtype=float, count=eps.size)


def dos_pushforward_oracle(g, cfg=DEFAULT_CONFIG, seed=DEFAULT_MC_SEED):
    """Ground-truth functional int g(eps) N0(eps) d(eps).

    Evaluates the defining Brillouin-zone double integral

        (2 pi)^-2 int int g(-2 (cos k1 + cos k2)) dk1 dk2

    by nested adaptive quadrature (restricted to [0, pi]^2 by the k -> -k
    symmetry) and cross-checks it against a plain Monte Carlo estimate on
    the full zone.  Raises ConvergenceError when the two estimates
    disagree beyond their combined error bars; otherwise returns the
    quadrature value.  Deterministic for fixed cfg and seed.
    """

    def inner(k1):
        c1 = math.cos(k1)
        return adaptive_quad(lambda k2: g(-2.0 * (c1 + math.cos(k2))),
                             0.0, math.pi,
                             rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                             limit=cfg.max_depth, name="pushforward oracle (inner)")

    quad_val = adaptive_quad(inner, 0.0, math.pi,
                             rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                             limit=cfg.max_depth,
                             name="pushforward oracle (outer)") / PI_SQUARED

    rng = np.random.default_rng(seed)
    k = rng.uniform(-math.pi, math.pi, size=(cfg.mc_samples, 2))
    vals = _mc_values(g, -2.0 * (np.cos(k[:, 0]) + np.cos(k[:, 1])))
    mc_mean = float(vals.mean())
    mc_err = float(vals.std(ddof=1) / math.sqrt(vals.size))
    guard = 6.0 * mc_err + 1e-6 * (1.0 + abs(quad_val))
    if abs(quad_val - mc_mean) > guard:
        raise ConvergenceError(
            "pushforward oracle: quadrature and Monte Carlo disagree "
            f"({quad_val:.9g} vs {mc_mean:.9g} +- {mc_err:.2g})")
    return quad_val


def _moment_split_head(s, include_log_part):
    """Closed-form integral of the singular expansion over [0, DELTA_SPLIT].

    int_0^d eps^(s-1) ln(16/eps) d(eps) = d^s (ln(16/d)/s + 1/s^2) and the
    analogous formula at order s+2 cover both expansion terms exactly.
    """
    d = DELTA_SPLIT
    log_d = math.log(16.0 / d)
    head = 0.0
    if include_log_part:
        head += d ** s * (log_d / s + 1.0 / (s * s)) / TWO_PI_SQUARED
    s2 = s + 2.0
    head += (d ** s2 * (log_d / s2 + 1.0 / (s2 * s2) - 1.0 / s2)
             / (128.0 * PI_SQUARED))
    return head


def dos_moment(s, cfg=DEFAULT_CONFIG):
    """Numeric moment int_0^4 eps^(s-1) N0(eps) d(eps), s > 0.

    The integrand behaves like eps^(s-1) ln(16/eps) near zero; on
    [0, DELTA_SPLIT] the expansion is integrated in closed form, the rest
    by adaptive quadrature against the validated elliptic fast path.
    """
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    tail = adaptive_quad(lambda e: e ** (s - 1.0) * dos_value_elliptic(e),
                         DELTA_SPLIT, BAND_EDGE,
                         rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                         limit=cfg.max_depth, name="DOS moment")
    return _moment_split_head(s, include_log_part=True) + tail


def dos_moment_exact(s):
    """Closed form of the moment: 4^s/(8 pi) * (Gamma(s/2)/Gamma(1/2+s/2))^2."""
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    return 4.0 ** s / (8.0 * math.pi) * gamma_ratio(s) ** 2
