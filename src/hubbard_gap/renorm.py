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

On top of a0 sit the Neel-scale shift constant a1 (from the numeric
constants, and in closed form through the first Stieltjes constant), the
sech^2 log^2 integral entering it, and the two-term small-coupling
expansion of the gap-to-transition-temperature ratio, whose leading
constant is pi e^(-gamma).
"""

import math
import operator

from .dos import (LOG_BAND_EDGE, LOG_SPLIT, _moment_split_head,
                  _split_moment, dos_log_subtracted, dos_moment)
from .errors import ConvergenceError, DomainError, FitDegeneracyError
from .quadrature import DEFAULT_CONFIG, adaptive_quad
from .record import FrozenRecord, set_field
from .specfun import PI_SQUARED, TWO_PI_SQUARED

EULER_GAMMA = 0.57721566490153286061
#: pi e^(-gamma), the weak-coupling limit of the gap-to-Neel-scale ratio
BCS_RATIO = math.pi * math.exp(-EULER_GAMMA)
_A1_CROSS = EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi)

#: four-digit reference value of the Neel shift constant, used only for
#: reporting deviations
A1_REFERENCE = 0.3260

#: unit roundoff of a double, the orthogonality goal of ``_jacobi_svd``
EPS = 2.220446049250313e-16

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
    adaptive quadrature of dos_log_subtracted(e^v) over v = ln eps.
    """
    tail = adaptive_quad(lambda v: dos_log_subtracted(math.exp(v)),
                         LOG_SPLIT, LOG_BAND_EDGE, cfg, "subtracted DOS integral")
    return _moment_split_head(0.0, include_log_part=False) + tail


def b1_constant(a0):
    """Gap-shift constant 4 pi^2 ((ln 2)^2/pi^2 - 1/24 - a0); zero at the exact a0."""
    return 4.0 * PI_SQUARED * (a0_exact() - a0)


def j2_closed(s):
    """Elementary log-moment 4^s (1 + 2 s ln 2) / (2 pi^2 s^2).

    The product 4^s (1 + 2 s ln 2) overflows from s = 507.27, while J2
    stays finite up to s of about 518.4; from there on the power is split
    into two halves, one multiplied in before and one after the division.
    A moment beyond double range (also below s of about 1.68e-155, where
    1/s^2 overflows) raises ConvergenceError.
    """
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    log_part = 1.0 + 2.0 * s * math.log(2.0)
    pole = TWO_PI_SQUARED * s * s  # 0 where s * s underflows
    value = 4.0 ** s * log_part / pole if pole and s < 512.0 else math.inf
    if value == math.inf and 1.0 < s < 1024.0:  # where the half power is finite
        half = 4.0 ** (0.5 * s)
        value = half * (half * log_part / pole)
    if not value < math.inf:
        raise ConvergenceError(
            f"log moment J2 (closed form) leaves double range at s = {s}")
    return value


def mellin_difference(s, cfg=DEFAULT_CONFIG):
    """J1(s) - J2(s) through the subtracted integrand.

    Computing the difference as a single integral of
    eps^(s-1) (N0 - ln(16/eps)/(2 pi^2)) sidesteps the catastrophic
    cancellation of the two 1/(2 pi^2 s^2) poles at small s.
    """
    return _split_moment(s, dos_log_subtracted, False, cfg, "subtracted moment")


class LaurentFit(FrozenRecord):
    """Coefficients of a least-squares fit against {s^-2, s^-1, 1, s}."""

    __slots__ = ("c_m2", "c_m1", "c_0", "fit_residual")


class RegularizedLimit(FrozenRecord):
    """Laurent fits of J1 and of J1 - J2, with the extrapolated limit.

    ``difference_extrapolated`` is the Neville extrapolation of
    J1(s) - J2(s) to s = 0, i.e. the numerically regularized a0.
    ``j1_values`` and ``difference_values`` are the samples of J1 and of
    J1 - J2 on the grid the fits were made on, in grid order.
    """

    __slots__ = ("j1_fit", "difference_fit", "difference_extrapolated",
                 "j1_values", "difference_values")


def _validated_grid(s_grid):
    s = [float(v) for v in s_grid]
    if len(s) < 4:
        raise FitDegeneracyError("need at least 4 grid points for the fit")
    if not all(v > 0 for v in s):
        raise DomainError("grid values must be positive")
    if not all(b < a for a, b in zip(s, s[1:])):
        raise DomainError("grid must be strictly decreasing")
    return s


def _dot(x, y):
    return sum(map(operator.mul, x, y))


def _jacobi_svd(columns):
    """Thin SVD A = U diag(sigma) V^T of the m x n matrix with these columns.

    One-sided (Hestenes) Jacobi: plane rotations of column pairs until
    every pair is orthogonal to working precision.  Each column of A
    carries the matching column of V (starting as the identity) below its
    m entries, so one rotation updates both.  The squared column norms are
    cached and updated with each rotation, and recomputed where the update
    cancels more than three bits; they only decide the angles, and sigma
    is recomputed from the final columns.  The small singular values
    are as accurate as those of the best column scaling of A (Demmel and
    Veselic, SIAM J. Matrix Anal. Appl. 13 (1992) 1204).  Returns the
    columns of U (zero where sigma is 0), sigma and the columns of V.
    """
    m, n = len(columns[0]), len(columns)
    a = [[*col, *(float(i == j) for i in range(n))] for j, col in enumerate(columns)]
    norms = [_dot(col, col) for col in columns]
    for _ in range(30):  # 3-5 sweeps on the grids of ``regularize``
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                xp, xq = a[p], a[q]
                gamma = _dot(xp[:m], xq[:m])
                alpha, beta = norms[p], norms[q]
                if not abs(gamma) > EPS * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sn = c * t
                a[p] = [c * x - sn * y for x, y in zip(xp, xq)]
                a[q] = [sn * x + c * y for x, y in zip(xp, xq)]
                norms[p] = alpha - t * gamma
                norms[q] = beta + t * gamma
                for k, old in ((p, alpha), (q, beta)):
                    if not norms[k] > 0.125 * old:  # cancelled: recompute
                        norms[k] = _dot(a[k][:m], a[k][:m])
        if not rotated:
            break
    sigma = [math.sqrt(_dot(col[:m], col[:m])) for col in a]
    u = [[x / sj for x in col[:m]] if sj else [0.0] * m for col, sj in zip(a, sigma)]
    return u, sigma, [col[m:] for col in a]


def fit_laurent(s_grid, values):
    """Least-squares fit of sampled values against {s^-2, s^-1, 1, s}.

    Solved in the s^2-rescaled space (fit s^2 v against {1, s, s^2, s^3}),
    which keeps the design matrix well conditioned on small grids, through
    the SVD of ``_jacobi_svd``.  The reported residual is the rms misfit in
    that rescaled space.  A rescaled value, coefficient or squared misfit
    that leaves double range raises ConvergenceError.
    """
    s = _validated_grid(s_grid)
    v = [float(x) for x in values]
    if len(v) != len(s):
        raise DomainError("grid and values must have equal length")

    def overflow(what):
        return ConvergenceError(f"Laurent fit on grid s = {s}: overflow in {what}")

    target = [x * x * y for x, y in zip(s, v)]
    if not all(map(math.isfinite, target)):
        raise overflow("the rescaled values s^2 v")
    squares = [x * x for x in s]
    design = [[1.0] * len(s), s, squares, [x2 * x for x2, x in zip(squares, s)]]
    u, sigma, vt = _jacobi_svd(design)
    if not all(map(math.isfinite, sigma)):
        raise overflow("the powers of s")
    if min(sigma) < 1e-13 * max(sigma):
        raise FitDegeneracyError("grid too clustered for a stable Laurent fit")
    coef = [0.0] * 4
    for u_j, sigma_j, v_j in zip(u, sigma, vt):
        weight = _dot(u_j, target) / sigma_j
        coef = [c + weight * x for c, x in zip(coef, v_j)]
    misfit = [y - _dot(row, coef) for y, row in zip(target, zip(*design))]
    fit_residual = math.sqrt(_dot(misfit, misfit) / len(s))
    if not all(map(math.isfinite, (*coef, fit_residual))):
        raise overflow("the fit")
    return LaurentFit(c_m2=coef[0], c_m1=coef[1], c_0=coef[2],
                      fit_residual=fit_residual)


def richardson_extrapolate(s_grid, values):
    """Neville extrapolation of samples on a descending grid to s = 0."""
    s = _validated_grid(s_grid)
    p = [float(v) for v in values]
    if len(p) != len(s):
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
    j1_vals = tuple(dos_moment(v, cfg) for v in s)
    diff_vals = tuple(mellin_difference(v, cfg) for v in s)
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


def a1_exact():
    """Closed form of the Neel shift constant,

        a1 = gamma^2 + 2 gamma_1 + 2 ln^2 2 - pi^2/12
           = 0.32598522725265485569520...,

    where gamma_1 = -0.07281584548367672486... is the first Stieltjes
    constant (DLMF 25.2.4).  Expanding sech^2 x = 4 sum_n (-1)^(n+1) n e^(-2nx)
    gives the Mellin transform

        int_0^inf x^(s-1) sech^2 x dx = 2^(2-s) (1 - 2^(2-s)) Gamma(s) zeta(s-1),

    whose second derivative at s = 1 is the sech^2 log^2 integral S.  With
    zeta(0) = -1/2, zeta'(0) = -ln(2 pi)/2 and
    zeta''(0) = gamma_1 + gamma^2/2 - pi^2/24 - ln^2(2 pi)/2 (T. M. Apostol,
    Math. Comp. 44 (1985) 223-232) it reads

        S = (pi^2 - 8 gamma_1 + 8 ln^2 2 + 4 ln^2 pi + 16 gamma ln 2
             - 8 gamma ln pi - 16 ln 2 ln pi)/4.

    Inserted into ``a1_constant`` with the exact a0, every ln pi term
    cancels, leaving the form above.  The value is the correctly rounded
    double of the 40-digit constant; evaluating the formula in floating
    point lands 1.5 ulp off.
    """
    return 0.32598522725265483


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
    scale = 32.0 / BCS_RATIO * math.exp(-_asymptotic_exponent(u, a1))
    if scale == 0.0:
        raise ConvergenceError(f"Neel scale underflows to 0 at u = {u}")
    return scale


def ratio_from_asymptotics(u, a1):
    """Quotient of the weak-coupling gap and Neel scales at b1 = 0.

    delta_asymptotic(u) / neel_asymptotic(u, a1)
      = pi e^-gamma exp(sqrt(4 pi^2 / u + a1) - sqrt(4 pi^2 / u)),
    with the exponent difference written as
    a1 / (sqrt(4 pi^2 / u + a1) + sqrt(4 pi^2 / u)): dividing the two
    exponentials would carry the rounding of exponents up to 2 pi / sqrt(u)
    into the ratio.  Raises ConvergenceError where the Neel scale
    underflows to 0, as the quotient would.
    """
    neel_asymptotic(u, a1)  # raises where the quotient's denominator is 0
    return BCS_RATIO * math.exp(
        a1 / (_asymptotic_exponent(u, a1) + _asymptotic_exponent(u, 0.0)))


def gap_ratio_expansion(u, a1, b1):
    """Two-term expansion of the gap-to-transition-temperature ratio.

    pi e^-gamma + (e^-gamma / 4)(a1 - b1) sqrt(u), with remainder O(u).
    """
    if not u > 0:
        raise DomainError("coupling must be positive")
    return BCS_RATIO + 0.25 * math.exp(-EULER_GAMMA) * (a1 - b1) * math.sqrt(u)


class ConstantsReport(FrozenRecord):
    """Every derived constant with its deviation diagnostics (a new empty
    dict when ``deviations`` is not given)."""

    __slots__ = ("a0_numeric", "a0_exact", "b1", "a1", "sech_integral",
                 "gap_ratio_leading", "gap_ratio_slope", "deviations")

    _defaults = {"deviations": None}

    def _check(self):
        if self.deviations is None:
            set_field(self, "deviations", {})


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
        sech_integral=sech,
        gap_ratio_leading=BCS_RATIO,
        gap_ratio_slope=0.25 * math.exp(-EULER_GAMMA) * a1,
        deviations=deviations,
    )
