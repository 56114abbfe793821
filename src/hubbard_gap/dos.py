"""Density of states of the square-lattice nearest-neighbour band.

The band dispersion -2(cos k1 + cos k2) pushes the normalised Lebesgue
measure on the Brillouin zone [-pi, pi]^2 forward to a measure
N0(eps) d(eps) supported on [-4, 4] (energies in units of the hopping).
N0 is even, strictly positive inside the band, steps down to zero at the
band edges, and has a logarithmic van Hove singularity at eps = 0:

    N0(eps) = ln(16/eps)/(2 pi^2)
              + eps^2 (ln(16/eps) - 1)/(128 pi^2) + O(eps^4 ln(1/eps)).

The production route (``dos_value``; integrands call
``dos_value_elliptic``) is the level-set reduction of the Brillouin-zone
integral in closed form, N0(eps) = K(m) / (pi^2 (1 + eps/4)) with
elliptic parameter m = ((4 - eps)/(4 + eps))^2, evaluated through
``ellipkm1`` so that the m -> 1 regime (eps -> 0) keeps full precision.
Two independent reference routes live in ``hubbard_gap.oracles``: the
level-set reduction by adaptive quadrature (``dos_value_quadrature``)
and the defining two-dimensional integral with a Monte Carlo guard
(``dos_pushforward_oracle``); the test suite holds all three together.

Moments of eps^(s-1) against N0 on [0, 4] come both numerically
(``dos_moment``, with the singular neighbourhood of eps = 0 integrated in
closed form from the expansion above) and exactly (``dos_moment_exact``,
a squared Gamma ratio).

All functions are pure.
"""

import math
from dataclasses import dataclass

from scipy.special import ellipkm1

from .errors import DomainError
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


def dos_value_elliptic(epsilon):
    """Density of states at ``epsilon`` from the closed elliptic form.

    Exactly zero outside the open band |eps| < 4; raises at the eps = 0
    singularity.  ``ellipkm1`` takes the complement
    1 - m = 16 eps / (4 + eps)^2, which is exact arithmetic, so no
    precision is lost as eps -> 0.
    """
    e = abs(float(epsilon))
    if e == 0.0:
        raise DomainError("density of states diverges logarithmically at eps = 0")
    if e >= BAND_EDGE:
        return 0.0
    return float(ellipkm1(16.0 * e / (4.0 + e) ** 2)) / (PI_SQUARED * (1.0 + 0.25 * e))


# kept apart from dos_value_elliptic: benchmarks/tracer.py times this name
# as the per-point DOS layer and dos_value_elliptic as the integrand leaf
def dos_value(epsilon):
    """Density of states N0 at ``epsilon``, by the elliptic closed form."""
    return dos_value_elliptic(epsilon)


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
