"""The quadrature policy: the tolerance config every numeric integral runs
under, and ``adaptive_quad``, the one engine that applies it.

``adaptive_quad`` is QUADPACK's global adaptive QAG with the 21-point
Gauss-Kronrod rule ``dqk21`` (R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK*, Springer, 1983; public
domain), written in plain Python: the same nodes, weights and error
estimate, the same bisection order and the same stopping test, so on an
integrand that converges it makes the calls ``scipy.integrate.quad``
makes.  Production integrals and the reference routes of
``hubbard_gap.oracles`` share it; scipy's QUADPACK is a test-only
reference.
"""

import heapq
import math
import sys

from .errors import ConvergenceError, DomainError
from .record import FrozenRecord

#: QUADPACK takes the subdivision limit as a C int; ``adaptive_quad`` keeps
#: that ceiling and holds one heap entry per subinterval, so a depth near
#: it may exhaust memory before an integral that cannot converge stops
_MAX_DEPTH_CEILING = 2 ** 31 - 1


class QuadratureConfig(FrozenRecord):
    """Tolerances and subdivision limit governing every integral in the package."""

    __slots__ = ("rel_tol", "abs_tol", "max_depth")

    _defaults = {"rel_tol": 1e-10, "abs_tol": 1e-13, "max_depth": 200}

    def _check(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("quadrature tolerances must be positive and finite")
        if not (isinstance(self.max_depth, int)
                and 1 <= self.max_depth <= _MAX_DEPTH_CEILING):
            raise DomainError(
                f"max_depth must be an integer in [1, {_MAX_DEPTH_CEILING}]")


DEFAULT_CONFIG = QuadratureConfig()

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# dqk21's abscissae of the 21-point Kronrod rule on [-1, 1] (the odd
# entries, counting from 1, are the 10-point Gauss nodes; the last is the
# centre), its weights, and the weights of the Gauss rule
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTRE = 0.149445554002916905664936468389821
_NODE_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)  # dqk21 takes the Gauss pairs first
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _kronrod21(f, a, b):
    """dqk21 on [a, b]: the Kronrod value, its error estimate, and the
    resabs and resasc sums the stopping and roundoff tests read."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f_centre = f(centre)
    res_g = 0.0
    res_k = _WGK_CENTRE * f_centre
    res_abs = abs(res_k)
    left, right = [0.0] * 10, [0.0] * 10
    for j in _NODE_ORDER:
        x = half * _XGK[j]
        f1 = left[j] = f(centre - x)
        f2 = right[j] = f(centre + x)
        if j % 2:
            res_g += _WG[j // 2] * (f1 + f2)
        res_k += _WGK[j] * (f1 + f2)
        res_abs += _WGK[j] * (abs(f1) + abs(f2))
    mean = 0.5 * res_k
    res_asc = _WGK_CENTRE * abs(f_centre - mean)
    for w, f1, f2 in zip(_WGK, left, right):
        res_asc += w * (abs(f1 - mean) + abs(f2 - mean))
    width = abs(half)
    res_abs *= width
    res_asc *= width
    err = abs((res_k - res_g) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, 200.0 * err / res_asc) ** 1.5
    if res_abs > _UFLOW / (50.0 * _EPMACH):
        err = max(50.0 * _EPMACH * res_abs, err)
    return res_k * half, err, res_abs, res_asc


def _bisect(f, a, b, area, err, cfg):
    """QAG's subdivision loop from the single panel ``(area, err)`` on
    [a, b]; returns the sum of the subinterval areas and of their errors."""
    areas = [area]  # QUADPACK's rlist, summed in this order at the end
    # (-error, -age, slot in areas, lo, hi): the largest error on top, and
    # of equal errors the newest, as QUADPACK's dqpsrt orders them
    heap = [(-err, 0, 0, a, b)]
    total, err_sum = area, err
    stalled = grown = 0  # QUADPACK's roundoff counters iroff1 and iroff2
    while True:
        neg_err, _, slot, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        area1, err1, _, asc1 = _kronrod21(f, lo, mid)
        area2, err2, _, asc2 = _kronrod21(f, mid, hi)
        area12, err12 = area1 + area2, err1 + err2
        err_sum += err12 + neg_err
        total += area12 - areas[slot]
        if asc1 != err1 and asc2 != err2:
            if (abs(areas[slot] - area12) <= 1e-5 * abs(area12)
                    and err12 >= -0.99 * neg_err):
                stalled += 1
            if len(areas) >= 10 and err12 > -neg_err:
                grown += 1
        # the half with the larger error keeps the parent's slot
        kept, added = (((area2, err2, mid, hi), (area1, err1, lo, mid))
                       if err2 > err1 else
                       ((area1, err1, lo, mid), (area2, err2, mid, hi)))
        age = 2 * len(areas)
        areas[slot] = kept[0]
        heapq.heappush(heap, (-kept[1], -age - 1, slot, *kept[2:]))
        heapq.heappush(heap, (-added[1], -age, len(areas), *added[2:]))
        areas.append(added[0])
        if (err_sum <= max(cfg.abs_tol, cfg.rel_tol * abs(total))
                or len(areas) >= cfg.max_depth or stalled >= 6 or grown >= 20
                or not math.isfinite(err_sum)
                or max(abs(lo), abs(hi))
                <= (1.0 + 100.0 * _EPMACH) * (abs(mid) + 1000.0 * _UFLOW)):
            return sum(areas), err_sum


def adaptive_quad(f, a, b, cfg, name):
    """Adaptive Gauss-Kronrod integral of ``f`` over ``[a, b]`` under ``cfg``.

    Bisects the subinterval with the largest error estimate until the
    summed estimate is at most ``max(cfg.abs_tol, cfg.rel_tol |I|)``, or
    until ``cfg.max_depth`` subintervals exist, QUADPACK's roundoff test
    fires or a subinterval shrinks to a point.  Raises ConvergenceError,
    naming the integral, when the result is not finite or it stopped
    short with an error estimate far above the requested tolerance.
    """
    value, err, res_abs, res_asc = _kronrod21(f, a, b)
    bound = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    # QUADPACK keeps one panel when its estimate meets the tolerance, unless
    # the estimate is resasc itself (no sign of convergence), or when it
    # sits at the roundoff floor, where bisecting cannot lower it
    if not (cfg.max_depth == 1 or err == 0.0 or err <= bound and err != res_asc
            or bound < err <= 50.0 * _EPMACH * res_abs):
        value, err = _bisect(f, a, b, value, err, cfg)
    if not math.isfinite(value) or err > 1e3 * max(cfg.abs_tol,
                                                   cfg.rel_tol * abs(value)):
        raise ConvergenceError(
            f"{name}: quadrature did not converge "
            f"(value {value:.6e}, error estimate {err:.2e})")
    return value
