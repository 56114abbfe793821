"""Exact constants of the weak-coupling asymptotics and the moment
regularization that produces them.

The central quantity is

    a0 = int_0^4 (N0(eps) - ln(16/eps)/(2 pi^2)) / eps  d(eps),

the finite remainder of the density of states once its logarithmic
singularity is subtracted.  It evaluates exactly to (ln 2)^2/pi^2 - 1/24,
which makes the gap-shift constant b1 = 4 pi^2 ((ln 2)^2/pi^2 - 1/24 - a0)
vanish identically.  The limit is exhibited numerically by a moment
regularization: inserting a factor eps^s splits the integral into

    J1(s) = int_0^4 eps^(s-1) N0(eps) d(eps)          (squared Gamma ratio)
    J2(s) = int_0^4 eps^(s-1) ln(16/eps)/(2 pi^2) d(eps)
          = 4^s (1 + 2 s ln 2) / (2 pi^2 s^2),

whose double and simple poles at s = 0 cancel in the difference, leaving
a0 as the s -> 0 limit.  ``regularized_limit`` extracts the Laurent
coefficients by least squares on a descending grid and extrapolates the
difference to s = 0 with a Neville (Richardson-style) tableau.

On top of a0 sit the Neel-scale shift constant a1, the sech^2 log^2
integral entering it, and the two-term small-coupling expansion of the
gap-to-transition-temperature ratio, whose leading constant is
pi e^(-gamma).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dos import (BAND_EDGE, DELTA_SPLIT, _moment_split_head, _split_moment,
                  dos_log_subtracted, dos_moment)
from .errors import ConvergenceError, DomainError, FitDegeneracyError
from .quadrature import DEFAULT_CONFIG, adaptive_quad
from .specfun import PI_SQUARED, TWO_PI_SQUARED

EULER_GAMMA = 0.57721566490153286061
_BCS_RATIO = math.pi * math.exp(-EULER_GAMMA)
_A1_CROSS = EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi)

#: four-digit reference value of the Neel shift constant, used only for
#: reporting deviations
A1_REFERENCE = 0.3260

#: truncation point of the sech^2 log^2 integral; the tail beyond it is
#: bounded by 4 (ln x)^2 e^(-2x) and totals < 1e-15
SECH_CUTOFF = 20.0


def a0_exact():
    """(ln 2)^2 / pi^2 - 1/24 = 0.00701340138805..."""
    return math.log(2.0) ** 2 / PI_SQUARED - 1.0 / 24.0


def a0_numeric(cfg=DEFAULT_CONFIG):
    """The subtracted-DOS integral defining a0, evaluated numerically.

    The integrand is eps (ln(16/eps) - 1)/(128 pi^2) + O(eps^3 ln) near
    zero; on [0, DELTA_SPLIT] that leading part is integrated in closed
    form (the s = 0 head of ``mellin_difference``), the remainder by
    adaptive quadrature.
    """
    tail = adaptive_quad(lambda e: dos_log_subtracted(e) / e,
                         DELTA_SPLIT, BAND_EDGE, cfg, "subtracted DOS integral")
    return _moment_split_head(0.0, include_log_part=False) + tail


def b1_constant(a0):
    """Gap-shift constant 4 pi^2 ((ln 2)^2/pi^2 - 1/24 - a0); zero at the exact a0."""
    return 4.0 * PI_SQUARED * (a0_exact() - a0)


def j2_closed(s):
    """Elementary log-moment 4^s (1 + 2 s ln 2) / (2 pi^2 s^2)."""
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    return 4.0 ** s * (1.0 + 2.0 * s * math.log(2.0)) / (TWO_PI_SQUARED * s * s)


def mellin_difference(s, cfg=DEFAULT_CONFIG):
    """J1(s) - J2(s) through the subtracted integrand.

    Computing the difference as a single integral of
    eps^(s-1) (N0 - ln(16/eps)/(2 pi^2)) sidesteps the catastrophic
    cancellation of the two 1/(2 pi^2 s^2) poles at small s.
    """
    return _split_moment(s, dos_log_subtracted, False, cfg, "subtracted moment")


@dataclass(frozen=True)
class LaurentFit:
    """Coefficients of a least-squares fit against {s^-2, s^-1, 1, s}."""

    c_m2: float
    c_m1: float
    c_0: float
    fit_residual: float


@dataclass(frozen=True)
class RegularizedLimit:
    """Laurent fits of J1 and of J1 - J2, with the extrapolated limit.

    ``difference_extrapolated`` is the Neville extrapolation of
    J1(s) - J2(s) to s = 0, i.e. the numerically regularized a0.
    ``j1_values`` and ``difference_values`` are the samples of J1 and of
    J1 - J2 on the grid the fits were made on, in grid order.
    """

    j1_fit: LaurentFit
    difference_fit: LaurentFit
    difference_extrapolated: float
    j1_values: tuple
    difference_values: tuple


def _validated_grid(s_grid):
    s = np.asarray([float(v) for v in s_grid], dtype=float)
    if s.size < 4:
        raise FitDegeneracyError("need at least 4 grid points for the fit")
    if not np.all(s > 0):
        raise DomainError("grid values must be positive")
    if not np.all(np.diff(s) < 0):
        raise DomainError("grid must be strictly decreasing")
    return s


def fit_laurent(s_grid, values):
    """Least-squares fit of sampled values against {s^-2, s^-1, 1, s}.

    Solved in the s^2-rescaled space (fit s^2 v against {1, s, s^2, s^3}),
    which keeps the design matrix well conditioned on small grids.  The
    reported residual is the rms misfit in that rescaled space.
    """
    s = _validated_grid(s_grid)
    v = np.asarray([float(x) for x in values], dtype=float)
    if v.size != s.size:
        raise DomainError("grid and values must have equal length")
    design = np.vander(s, 4, increasing=True)
    try:
        with np.errstate(over="raise", invalid="raise"):
            target = s * s * v
            coef, _, rank, singular = np.linalg.lstsq(design, target, rcond=None)
            fit_residual = float(np.sqrt(np.mean((target - design @ coef) ** 2)))
    except FloatingPointError as exc:
        raise ConvergenceError(f"Laurent fit on grid s = {s.tolist()}: {exc}") from exc
    if rank < 4 or singular[-1] < 1e-13 * singular[0]:
        raise FitDegeneracyError("grid too clustered for a stable Laurent fit")
    return LaurentFit(c_m2=float(coef[0]), c_m1=float(coef[1]),
                      c_0=float(coef[2]), fit_residual=fit_residual)


def richardson_extrapolate(s_grid, values):
    """Neville extrapolation of samples on a descending grid to s = 0."""
    s = _validated_grid(s_grid)
    p = [float(v) for v in values]
    if len(p) != s.size:
        raise DomainError("grid and values must have equal length")
    n = len(p)
    for level in range(1, n):
        for i in range(n - level):
            num = s[i] * p[i + 1] - s[i + level] * p[i]
            p[i] = num / (s[i] - s[i + level])
    return p[0]


def regularized_limit(s_grid, cfg=DEFAULT_CONFIG):
    """Laurent structure of J1 and of the pole-free difference J1 - J2.

    Fits both against {s^-2, s^-1, 1, s} on the supplied descending grid.
    For J1 the fitted c_m2 and c_m1 converge to 1/(2 pi^2) and
    2 ln 2 / pi^2; for the difference both divergent coefficients vanish
    and the constant term converges to a0, which the Neville extrapolation
    pins down more sharply than the fit.
    """
    s = _validated_grid(s_grid)
    grid = s.tolist()
    j1_vals = tuple(dos_moment(v, cfg) for v in grid)
    diff_vals = tuple(mellin_difference(v, cfg) for v in grid)
    return RegularizedLimit(
        j1_fit=fit_laurent(s, j1_vals),
        difference_fit=fit_laurent(s, diff_vals),
        difference_extrapolated=richardson_extrapolate(s, diff_vals),
        j1_values=j1_vals,
        difference_values=diff_vals,
    )


def sech_log2_integral(cfg=DEFAULT_CONFIG):
    """int_0^inf (ln x)^2 / cosh^2(x) dx = 1.98934975753569...

    Maps (0, 1] through x = e^(-v), turning the integrable (ln x)^2
    endpoint singularity into a smooth decaying integrand, and truncates
    the exponentially small tail (below 1e-15 past SECH_CUTOFF).  The
    reference route without the substitution is
    ``hubbard_gap.oracles.sech_log2_integral_direct``.
    """
    head = adaptive_quad(
        lambda v: v * v * math.exp(-v) / math.cosh(math.exp(-v)) ** 2,
        0.0, 50.0, cfg, "sech^2 log^2 integral (substituted head)")
    tail = adaptive_quad(
        lambda x: math.log(x) ** 2 / math.cosh(x) ** 2,
        1.0, SECH_CUTOFF, cfg, "sech^2 log^2 integral (tail)")
    return head + tail


def a1_constant(a0, sech_int):
    """Neel-scale shift constant.

    a1 = -4 pi^2 a0 - int_0^inf (ln x)^2 sech^2 x dx + (2 ln 2)^2
         + (gamma + 2 ln 2 - ln pi)^2  ~ 0.3260.
    """
    return (-4.0 * PI_SQUARED * a0 - sech_int
            + (2.0 * math.log(2.0)) ** 2 + _A1_CROSS * _A1_CROSS)


def a1_minus_b1(sech_int):
    """The difference a1 - b1 computed without reference to a0.

    Equals (gamma + 2 ln 2 - ln pi)^2 + pi^2/6 - sech_int; the a0 terms of
    a1 and b1 cancel exactly, so this provides a second, independent route
    to the combination controlling the gap ratio slope.
    """
    return _A1_CROSS * _A1_CROSS + PI_SQUARED / 6.0 - sech_int


def _asymptotic_exponent(u, shift):
    """sqrt(4 pi^2 / u + shift), the exponent of the weak-coupling scales."""
    if not u > 0:
        raise DomainError("coupling must be positive")
    radicand = 4.0 * PI_SQUARED / u + shift
    if radicand < 0:
        raise DomainError(f"negative radicand {radicand} in asymptotic exponent")
    return math.sqrt(radicand)


def neel_asymptotic(u, a1):
    """Leading small-coupling transition-temperature scale.

    (32 / (pi e^-gamma)) exp(-sqrt(4 pi^2 / u + a1)); the exponentially
    small relative correction is not modelled.  Raises ConvergenceError
    where the scale underflows to 0 (u below about 7.1e-5 at a1 ~ 0.33).
    """
    scale = 32.0 / _BCS_RATIO * math.exp(-_asymptotic_exponent(u, a1))
    if scale == 0.0:
        raise ConvergenceError(f"Neel scale underflows to 0 at u = {u}")
    return scale


def gap_ratio_expansion(u, a1, b1):
    """Two-term expansion of the gap-to-transition-temperature ratio.

    pi e^-gamma + (e^-gamma / 4)(a1 - b1) sqrt(u), with remainder O(u).
    """
    if not u > 0:
        raise DomainError("coupling must be positive")
    return _BCS_RATIO + 0.25 * math.exp(-EULER_GAMMA) * (a1 - b1) * math.sqrt(u)


@dataclass(frozen=True)
class ConstantsReport:
    """Every derived constant with its deviation diagnostics."""

    a0_numeric: float
    a0_exact: float
    b1: float
    a1: float
    gap_ratio_leading: float
    gap_ratio_slope: float
    sech_integral: float
    deviations: dict = field(default_factory=dict)


def constants_report(cfg=DEFAULT_CONFIG):
    """Evaluate all constants once and collect deviation diagnostics."""
    a0n = a0_numeric(cfg)
    a0e = a0_exact()
    b1 = b1_constant(a0n)
    sech = sech_log2_integral(cfg)
    a1 = a1_constant(a0n, sech)
    route_direct = a1 - b1
    route_cancelled = a1_minus_b1(sech)
    deviations = {
        "a0_numeric_vs_exact": abs(a0n - a0e),
        "b1_magnitude": abs(b1),
        "a1_vs_reference": abs(a1 - A1_REFERENCE),
        "a1_minus_b1_route_gap": abs(route_direct - route_cancelled),
    }
    return ConstantsReport(
        a0_numeric=a0n,
        a0_exact=a0e,
        b1=b1,
        a1=a1,
        gap_ratio_leading=_BCS_RATIO,
        gap_ratio_slope=0.25 * math.exp(-EULER_GAMMA) * a1,
        sech_integral=sech,
        deviations=deviations,
    )
