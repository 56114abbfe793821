"""Reference routes, the independent evaluations production code is checked against.

Each function computes a quantity that a production module already
computes on its one route, by a different parameterization or from the
defining integral, so that agreement between the two is evidence for
both.  Its docstring names the production counterpart.  No production
module calls into this one; the test suite does.  A route takes no
tolerance: it integrates under the fixed policy of
``hubbard_gap.quadrature``, as production does.
"""

import math

from .dos import (BAND_EDGE, DELTA_SPLIT, dos_log_subtracted,
                  dos_value_elliptic)
from .errors import ConvergenceError, DomainError
from .quadrature import adaptive_quad
from .renorm import SECH_CUTOFF
from .specfun import PI_SQUARED, TWO_PI_SQUARED

#: panels per half axis of the pushforward oracle's trapezoid guard
_GRID_PANELS = 128


def dos_value_quadrature(epsilon):
    """Density of states at ``epsilon`` by quadrature of the level-set reduction.

    The companion of ``dos.dos_value``.  Resolving the delta
    constraint in the k2 integration and substituting
    cos k1 = -eps/4 + (1 - eps/4) cos t gives

        N0(eps) = (1/pi^2) int_0^{pi/2}
                  [ (1 + eps/4)^2 sin^2 t + eps cos^2 t ]^(-1/2) dt,

    using (1 + eps/4)^2 - (1 - eps/4)^2 = eps exactly, so nothing cancels
    as eps -> 0, where the integrand peaks at t = 0 with width sqrt(eps).
    Exactly zero outside the open band |eps| < 4; raises at the eps = 0
    singularity.  Accuracy follows the policy in ``hubbard_gap.quadrature``;
    below eps ~ 1e-120 the peak is too narrow for the quadrature, which
    then raises ConvergenceError.
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

    val = adaptive_quad(integrand, 0.0, 0.5 * math.pi, "level-set DOS reduction")
    return val / PI_SQUARED


def _trapezoid_guard(g, quad_val):
    """T_m, the trapezoid rule on the nodes (i, j) pi/m of [0, pi]^2 with ends at
    half weight, and the bound 4 |T_m - T_m/2| + 1e-9 (1 + |quad_val|), T_m/2
    taking every other node.  By k -> -k, T_m is the periodic rule on the zone,
    geometric for analytic g (Trefethen and Weideman, SIAM Rev. 56 (2014) 385)."""
    m = _GRID_PANELS
    cos_k = [math.cos(j * math.pi / m) for j in range(m + 1)]
    rows = [[g(-2.0 * (c1 + c2)) for c2 in cos_k] for c1 in cos_k]

    def trapezoid(values):
        return sum(values) - 0.5 * (values[0] + values[-1])

    fine = trapezoid([trapezoid(row) for row in rows]) / m ** 2
    coarse = trapezoid([trapezoid(row[::2]) for row in rows[::2]]) / (m // 2) ** 2
    return fine, 4.0 * abs(fine - coarse) + 1e-9 * (1.0 + abs(quad_val))


def dos_pushforward_oracle(g):
    """Ground-truth functional int g(eps) N0(eps) d(eps).

    Evaluates the defining Brillouin-zone double integral

        (2 pi)^-2 int int g(-2 (cos k1 + cos k2)) dk1 dk2

    by nested adaptive quadrature (restricted to [0, pi]^2 by the k -> -k
    symmetry), checked against ``_trapezoid_guard``: ConvergenceError where
    the two disagree beyond its bound, else the quadrature value.  ``g`` is
    called on Python floats only.
    """
    def inner(k1):
        c1 = math.cos(k1)
        return adaptive_quad(lambda k2: g(-2.0 * (c1 + math.cos(k2))),
                             0.0, math.pi, "pushforward oracle (inner)")

    quad_val = adaptive_quad(inner, 0.0, math.pi,
                             "pushforward oracle (outer)") / PI_SQUARED
    trapezoid, bound = _trapezoid_guard(g, quad_val)
    if abs(quad_val - trapezoid) > bound:
        raise ConvergenceError(
            "pushforward oracle: quadrature and trapezoid rule disagree "
            f"({quad_val:.9g} vs {trapezoid:.9g}, bound {bound:.2g})")
    return quad_val


def i1_quadrature(delta):
    """Quadrature companion of ``gap.i1_closed``, free of the dilogarithm.

    Substituting eps = Delta sinh(v) gives
    (2 pi^2)^-1 int_0^V [ln(16/Delta) - ln(sinh v)] dv with
    V = asinh(4/Delta); writing int_0^V ln(sinh v) dv = V ln V - V +
    int_0^V ln(sinh(v)/v) dv leaves only smooth integrands.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")
    v_max = math.asinh(4.0 / delta)

    def smooth(v):
        if v < 1e-8:
            return v * v / 6.0
        return math.log(math.sinh(v) / v)

    smooth_part = adaptive_quad(smooth, 0.0, v_max, "log-kernel integral")
    log_sinh_integral = v_max * math.log(v_max) - v_max + smooth_part
    return (math.log(16.0 / delta) * v_max - log_sinh_integral) / TWO_PI_SQUARED


def i2_quadrature(delta):
    """Quadrature companion of ``gap.i2_numeric``, free of its frozen tables.

    Integrand (N0 - ln(16/eps)/(2 pi^2)) (1/sqrt(Delta^2+eps^2) - 1/eps);
    the kernel difference is evaluated as
    -Delta^2 / (eps sqrt(Delta^2+eps^2) (eps + sqrt(Delta^2+eps^2))) so no
    cancellation occurs for eps >> Delta.  The integrand is O(eps ln eps)
    near zero, hence regular.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")

    def integrand(e):
        if e <= 0.0:
            return 0.0
        rt = math.hypot(delta, e)
        kernel = -delta * delta / (e * rt * (e + rt))
        return dos_log_subtracted(e) * kernel

    return adaptive_quad(integrand, 0.0, 4.0, "subtracted gap remainder")


def gap_rhs_sinh(delta):
    """Right side of the gap equation from the unsplit integral.

    Substituting eps = Delta sinh(v) turns the kernel into dv, leaving
    int_0^{asinh(4/Delta)} N0(Delta sinh v) dv; no piece of the split
    production route ``gap.gap_rhs`` (a0, the dilogarithm, the
    subtracted remainder) enters.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")
    v_max = math.asinh(4.0 / delta)
    return adaptive_quad(lambda v: dos_value_elliptic(delta * math.sinh(v)),
                         0.0, v_max, "gap equation (sinh path)")


def j2_quadrature(s):
    """Direct-quadrature companion of ``renorm.j2_closed``."""
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    d = DELTA_SPLIT
    head = d ** s * (math.log(16.0 / d) / s + 1.0 / (s * s)) / TWO_PI_SQUARED
    tail = adaptive_quad(
        lambda e: e ** (s - 1.0) * math.log(16.0 / e) / TWO_PI_SQUARED,
        d, BAND_EDGE, "log moment")
    return head + tail


def sech_log2_integral_direct():
    """int_0^inf (ln x)^2 / cosh^2(x) dx with the singular endpoint left in.

    Unlike ``renorm.sech_log2_integral`` no substitution removes the
    (ln x)^2 endpoint singularity; the quadrature routine handles it on a
    different split of the axis.  The tail past SECH_CUTOFF + 5 is below
    1e-15 and dropped.
    """
    f = lambda x: math.log(x) ** 2 / math.cosh(x) ** 2
    head = adaptive_quad(f, 0.0, 2.0, "sech^2 log^2 integral (direct head)")
    tail = adaptive_quad(f, 2.0, SECH_CUTOFF + 5.0,
                         "sech^2 log^2 integral (direct tail)")
    return head + tail


def cosine_power_quadrature(s):
    """Direct quadrature companion of ``specfun.cosine_power_integral``.

    Integrates sin(u)^(s-1) over [0, pi/2] (the same integral mirrored
    about pi/4) after substituting w = u^s, which removes the endpoint
    singularity for s < 1: the transformed integrand (sin(u)/u)^(s-1) / s
    is smooth on the whole interval.
    """
    if not 0 < s < math.inf:
        raise DomainError(f"cosine power integral needs finite s > 0, got {s}")

    def integrand(w):
        u = w ** (1.0 / s)
        if u == 0.0:
            return 1.0 / s
        return (math.sin(u) / u) ** (s - 1.0) / s

    return adaptive_quad(integrand, 0.0, (0.5 * math.pi) ** s,
                         "cosine power quadrature")
