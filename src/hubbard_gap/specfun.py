"""Real special functions used by the gap-equation closed forms.

Only what the closed forms actually touch is implemented: the real
dilogarithm Li2 on (-inf, 1], the Gamma ratio Gamma(s/2)/Gamma(1/2 + s/2)
(a recurrence and an asymptotic series, not a log-Gamma difference), and
the cosine-power integral over a quarter period (a Beta-function value in
disguise; its quadrature companion is
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


#: -E_2k / (2k 2^(4k+1)) for k = 8, 7, ..., 1 (E_2k the Euler numbers), the
#: coefficients of ln(Gamma(x+1)/Gamma(x+1/2)) - ln(w)/2 in powers of 1/w^2,
#: w = x + 1/4; from the Bernoulli-polynomial expansion of a log-Gamma
#: difference, B_2k+1(3/4) - B_2k+1(1/4) = -2 B_2k+1(1/4)
_RATIO_SERIES = (-19391512145 / 137438953472, 199360981 / 7516192768,
                 -2702765 / 402653184, 50521 / 20971520, -1385 / 1048576,
                 61 / 49152, -5 / 2048, 1 / 64)

#: the series is summed at x >= 8, where its truncation error is below
#: 3e-17 relative; smaller x is shifted up by the recurrence first
_RATIO_SERIES_MIN_X = 8.0


def gamma_ratio(s):
    """Gamma(s/2) / Gamma(1/2 + s/2), accurate to about 1e-15 relative.

    With x = s/2 the ratio is 2 q(x) / s, q(x) = Gamma(x+1)/Gamma(x+1/2).
    Below x = 8, q is carried up by q(x) = q(x+1) (x+1/2)/(x+1); from
    there the asymptotic series sqrt(w) exp(sum_k c_k / w^2k), w = x + 1/4,
    gives it to double precision.  No log-Gamma difference is formed, so
    nothing cancels at large s.  ConvergenceError where the ratio (about
    2/(sqrt(pi) s)) overflows, for s < 6.3e-309.
    """
    if not 0 < s < math.inf:
        raise DomainError(f"gamma_ratio needs finite s > 0, got {s}")
    x = 0.5 * s
    factor = 1.0
    n = 0
    while x + n < _RATIO_SERIES_MIN_X:
        factor *= (x + (n + 0.5)) / (x + (n + 1))
        n += 1
    w = x + (n + 0.25)
    y = 1.0 / (w * w)
    total = 0.0
    for c in _RATIO_SERIES:
        total = total * y + c
    q = math.sqrt(w) * math.exp(total * y) * factor
    ratio = (q + q) / s
    if ratio == math.inf:
        raise ConvergenceError(f"Gamma ratio leaves double range at s = {s}")
    return ratio


def cosine_power_integral(s):
    """Closed form of int_0^{pi/2} cos(k)^(s-1) dk = (sqrt(pi)/2) Gamma(s/2)/Gamma(1/2+s/2)."""
    if not 0 < s < math.inf:
        raise DomainError(f"cosine power integral needs finite s > 0, got {s}")
    try:
        return 0.5 * math.sqrt(math.pi) * gamma_ratio(s)
    except ConvergenceError:
        if 1.0 / s == math.inf:
            raise
        return 1.0 / s  # 1/s + ln 2 + O(s) rounds to 1/s where only the ratio overflows
