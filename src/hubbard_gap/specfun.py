"""Real special functions used by the gap-equation closed forms.

Only what the closed forms actually touch is implemented: the real
dilogarithm Li2 on (-inf, 1], the Gamma ratio Gamma(s/2)/Gamma(1/2 + s/2),
and the cosine-power integral over a quarter period (a Beta-function value
in disguise; its quadrature companion is
``hubbard_gap.oracles.cosine_power_quadrature``).  Everything is a pure
function of its scalar arguments, written with ``math`` alone.
"""

import math

from .errors import ConvergenceError, DomainError

PI_SQUARED = math.pi ** 2
TWO_PI_SQUARED = 2.0 * PI_SQUARED

_SERIES_MAX_TERMS = 200


def _dilog_series(x):
    # |x| <= 0.55 keeps the geometric tail below double rounding within
    # ~65 terms; callers reduce every argument into this range first.
    total = 0.0
    power = x
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = power / (k * k)
        total += term
        if abs(term) <= 1e-18 * max(1.0, abs(total)):
            break
        power *= x
    return total


def dilog(x):
    """Real dilogarithm Li2(x) = sum_{k>=1} x^k / k^2, continued to x <= 1.

    Evaluation: power series on [-1/2, 1/2], Landen's transformation on
    [-1, -1/2), the reflection identity on (1/2, 1], and the inversion
    identity Li2(-1/z) = -Li2(-z) - (ln z)^2/2 - pi^2/6 for x < -1.
    Each route lands back in the series range, so the recursion depth is
    at most two.  Relative accuracy ~1e-14 (absolute near the root x = 0).
    """
    if math.isnan(x):
        raise DomainError("dilog argument is NaN")
    if x > 1.0:
        raise DomainError(f"dilog is real only for x <= 1, got {x}")
    if x == 1.0:
        return PI_SQUARED / 6.0
    if x < -1.0:
        return -dilog(1.0 / x) - 0.5 * math.log(-x) ** 2 - PI_SQUARED / 6.0
    if x < -0.5:
        # Landen: Li2(x) = -Li2(x/(x-1)) - ln(1-x)^2 / 2, argument in (1/3, 1/2]
        return -_dilog_series(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    if x <= 0.5:
        return _dilog_series(x)
    # reflection: Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x)
    return (PI_SQUARED / 6.0 - math.log(x) * math.log1p(-x)
            - _dilog_series(1.0 - x))


def dilog_inversion_residual(x):
    """Li2(-1/x) + Li2(-x) + (ln x)^2/2 + pi^2/6, identically zero for x > 0."""
    if not x > 0:
        raise DomainError(f"inversion residual needs x > 0, got {x}")
    return (dilog(-1.0 / x) + dilog(-x)
            + 0.5 * math.log(x) ** 2 + PI_SQUARED / 6.0)


def gamma_ratio(s):
    """Gamma(s/2) / Gamma(1/2 + s/2), via log-Gamma differences.

    The log route avoids overflow for large s; both arguments are positive,
    so no reflection is needed.  ConvergenceError where the ratio (about
    2/(sqrt(pi) s), s < 6.3e-309) or lgamma(s/2) (s > 5.1e305) overflows.
    """
    if not s > 0:
        raise DomainError(f"gamma_ratio needs s > 0, got {s}")
    try:
        return math.exp(math.lgamma(0.5 * s) - math.lgamma(0.5 + 0.5 * s))
    except (ValueError, OverflowError):  # ValueError: lgamma(0.0) at s = 5e-324
        what = "lgamma(s/2)" if s > 1.0 else "Gamma ratio"
        raise ConvergenceError(f"{what} leaves double range at s = {s}") from None


def cosine_power_integral(s):
    """Closed form of int_0^{pi/2} cos(k)^(s-1) dk = (sqrt(pi)/2) Gamma(s/2)/Gamma(1/2+s/2)."""
    if not s > 0:
        raise DomainError(f"cosine power integral needs s > 0, got {s}")
    try:
        return 0.5 * math.sqrt(math.pi) * gamma_ratio(s)
    except ConvergenceError:
        if s > 1.0 or 1.0 / s == math.inf:
            raise
        return 1.0 / s  # 1/s + ln 2 + O(s) rounds to 1/s where only the ratio overflows
