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
``_ellipkm1``, a port of the Cephes routine ``ellpk`` behind scipy's
``ellipkm1``, so that the m -> 1 regime (eps -> 0) keeps full precision
and no DOS point needs more than ``math``.
Two independent reference routes live in ``hubbard_gap.oracles``: the
level-set reduction by adaptive quadrature (``dos_value_quadrature``)
and the defining two-dimensional integral with a trapezoid-rule guard
(``dos_pushforward_oracle``); the test suite holds all three together.

Moments of eps^(s-1) against N0 on [0, 4] come both numerically
(``dos_moment``, with the singular neighbourhood of eps = 0 integrated in
closed form from the expansion above and the rest in v = ln eps, where
the integrand is smooth) and exactly (``dos_moment_exact``, a squared
Gamma ratio).  Tolerances come from ``hubbard_gap.quadrature``.

All functions are pure.
"""

import math

from .errors import ConvergenceError, DomainError
from .quadrature import DEFAULT_CONFIG, adaptive_quad
from .specfun import PI_SQUARED, TWO_PI_SQUARED, gamma_ratio

BAND_EDGE = 4.0

#: below this energy the two-term singular expansion replaces direct
#: subtraction of the log divergence (remainder O(eps^4 ln) < 1e-15 there)
DELTA_SPLIT = 1e-3


# _ellipkm1 is a port of ellpk.c of the Cephes Math Library (Copyright
# 1984, 1987 by Stephen L. Moshier), the routine behind scipy.special.ellipkm1,
# which scipy distributes under the BSD 3-Clause license with the author's
# permission (SPDX-License-Identifier: BSD-3-Clause).
def _ellipkm1(p):
    """K(1 - p) for 0 < p < 1, bit for bit as scipy's ``ellipkm1``.

    Cephes' minimax form P(p) - ln(p) Q(p), two degree-10 polynomials in
    Horner form, and ln(4) - ln(p)/2 below the unit roundoff (DLMF 19.12.1
    to leading order); the p >= 1 and p <= 0 branches of ``ellpk`` are not
    reached from the band interior.
    """
    if p <= 1.11022302462515654042e-16:
        return 1.3862943611198906188 - 0.5 * math.log(p)
    return ((((((((((1.37982864606273237150e-4 * p
                     + 2.28025724005875567385e-3) * p
                    + 7.97404013220415179367e-3) * p
                   + 9.85821379021226008714e-3) * p
                  + 6.87489687449949877925e-3) * p
                 + 6.18901033637687613229e-3) * p
                + 8.79078273952743772254e-3) * p
               + 1.49380448916805252718e-2) * p
              + 3.08851465246711995998e-2) * p
             + 9.65735902811690126535e-2) * p
            + 1.38629436111989062502) - math.log(p) * (
        (((((((((2.94078955048598507511e-5 * p
                 + 9.14184723865917226571e-4) * p
                + 5.94058303753167793257e-3) * p
               + 1.54850516649762399335e-2) * p
              + 2.39089602715924892727e-2) * p
             + 3.01204715227604046988e-2) * p
            + 3.73774314173823228969e-2) * p
           + 4.88280347570998239232e-2) * p
          + 7.03124996963957469739e-2) * p
         + 1.24999999999870820058e-1) * p
        + 4.99999999999999999821e-1)


def dos_value_elliptic(epsilon):
    """Density of states at ``epsilon`` from the closed elliptic form.

    Exactly zero outside the open band |eps| < 4; raises at the eps = 0
    singularity.  ``_ellipkm1`` takes the complement
    1 - m = 16 eps / (4 + eps)^2, which is exact arithmetic, so no
    precision is lost as eps -> 0.
    """
    e = abs(float(epsilon))
    if e == 0.0:
        raise DomainError("density of states diverges logarithmically at eps = 0")
    if e >= BAND_EDGE:
        return 0.0
    return _ellipkm1(16.0 * e / (4.0 + e) ** 2) / (PI_SQUARED * (1.0 + 0.25 * e))


# kept apart from dos_value_elliptic: benchmarks/tracer.py times this name
# as the per-point DOS layer and dos_value_elliptic as the integrand leaf
def dos_value(epsilon):
    """Density of states N0 at ``epsilon``, by the elliptic closed form."""
    return dos_value_elliptic(epsilon)


def _log_16_over(e):
    """ln(16/e), also for e below 16/DBL_MAX ~ 8.9e-308, where 16/e overflows."""
    ratio = 16.0 / e
    return math.log(ratio) if ratio < math.inf else math.log(16.0) - math.log(e)


def dos_asymptotic(epsilon):
    """Two-term singular expansion of N0 about the van Hove point."""
    if not 0.0 < epsilon < BAND_EDGE:
        raise DomainError(f"asymptotic form defined on 0 < eps < 4, got {epsilon}")
    log_term = _log_16_over(epsilon)
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
        return e * e * (_log_16_over(e) - 1.0) / (128.0 * PI_SQUARED)
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


#: the quadrature range [DELTA_SPLIT, BAND_EDGE] of the moments in v = ln eps
LOG_SPLIT, LOG_BAND_EDGE = math.log(DELTA_SPLIT), math.log(BAND_EDGE)


def _split_moment(s, density, include_log_part, cfg, name):
    """int_0^4 eps^(s-1) density(eps), s > 0: closed-form head on [0, DELTA_SPLIT]
    plus the quadrature of e^(s v) density(e^v) over v = ln eps, where the
    integrand is smooth; ConvergenceError naming ``name`` and ``s`` where
    the moment leaves double range (s above about 512 or below about 1e-154)."""
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    try:
        tail = adaptive_quad(lambda v: math.exp(s * v) * density(math.exp(v)),
                             LOG_SPLIT, LOG_BAND_EDGE, cfg, name)
        value = _moment_split_head(s, include_log_part) + tail
    except ArithmeticError:  # exp(s v) overflows or s * s underflows to 0
        value = math.inf
    if not math.isfinite(value):  # or 1/(s * s) overflows to inf
        raise ConvergenceError(f"{name} leaves double range at s = {s}")
    return value


def dos_moment(s, cfg=DEFAULT_CONFIG):
    """Numeric moment int_0^4 eps^(s-1) N0(eps) d(eps), s > 0.

    The integrand behaves like eps^(s-1) ln(16/eps) near zero; on
    [0, DELTA_SPLIT] the expansion is integrated in closed form, the rest
    by adaptive quadrature in ln eps against the elliptic closed form.
    """
    return _split_moment(s, dos_value_elliptic, True, cfg, "DOS moment")


def dos_moment_exact(s):
    """Closed form of the moment: 4^s/(8 pi) * (Gamma(s/2)/Gamma(1/2+s/2))^2.

    4^s alone overflows from s = 512, while the moment stays finite up to
    s of about 518.3; from 512 on the power is split into two halves, one
    multiplied in before and one after the small Gamma-ratio factor.  At
    small s the moment is 1/(2 pi^2 s^2) to double precision, finite down
    to s of about 1.68e-155; below s of about 8.4e-155, where the squared
    ratio alone overflows, the ratio is multiplied in twice.  A moment
    beyond double range raises ConvergenceError.
    """
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    if 1e-155 < s < 512.0:
        scale = 4.0 ** s / (8.0 * math.pi)
        ratio = gamma_ratio(s)
        try:
            return scale * ratio ** 2
        except OverflowError:  # the square alone, below s of about 8.4e-155
            value = scale * ratio * ratio
        if value < math.inf:
            return value
    elif 512.0 <= s < 1024.0:  # where the half power is finite
        half = 4.0 ** (0.5 * s)
        value = half * (half * gamma_ratio(s) ** 2 / (8.0 * math.pi))
        if value < math.inf:
            return value
    raise ConvergenceError(f"DOS moment (closed form) leaves double range at s = {s}")
