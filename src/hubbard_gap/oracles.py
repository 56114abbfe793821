"""Reference routes, the independent evaluations production code is checked against.

Each function computes a quantity that a production module already
computes on its one route, by a different parameterization or from the
defining integral, so that agreement between the two is evidence for
both.  Its docstring names the production counterpart.  No production
module calls into this one; the test suite does.
"""

import math

import numpy as np

from .dos import (BAND_EDGE, DEFAULT_CONFIG, DEFAULT_MC_SEED, DELTA_SPLIT,
                  dos_value_elliptic)
from .errors import ConvergenceError, DomainError
from .quadrature import adaptive_quad
from .renorm import SECH_CUTOFF
from .specfun import PI_SQUARED, TWO_PI_SQUARED


def dos_value_quadrature(epsilon, cfg=DEFAULT_CONFIG):
    """Density of states at ``epsilon`` by quadrature of the level-set reduction.

    The companion of ``dos.dos_value``.  Resolving the delta
    constraint in the k2 integration and substituting
    cos k1 = -eps/4 + (1 - eps/4) cos t gives

        N0(eps) = (1/pi^2) int_0^{pi/2}
                  [ (1 + eps/4)^2 sin^2 t + eps cos^2 t ]^(-1/2) dt,

    using (1 + eps/4)^2 - (1 - eps/4)^2 = eps exactly, so nothing cancels
    as eps -> 0, where the integrand peaks at t = 0 with width sqrt(eps).
    Exactly zero outside the open band |eps| < 4; raises at the eps = 0
    singularity.  Accuracy follows the tolerances in ``cfg``; below
    eps ~ 1e-120 the peak is too narrow for the quadrature, which then
    raises ConvergenceError.
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


def i1_quadrature(delta, cfg=DEFAULT_CONFIG):
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

    smooth_part = adaptive_quad(smooth, 0.0, v_max,
                                rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                                limit=cfg.max_depth, name="log-kernel integral")
    log_sinh_integral = v_max * math.log(v_max) - v_max + smooth_part
    return (math.log(16.0 / delta) * v_max - log_sinh_integral) / TWO_PI_SQUARED


def gap_rhs_sinh(delta, cfg=DEFAULT_CONFIG):
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
                         0.0, v_max,
                         rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                         limit=cfg.max_depth, name="gap equation (sinh path)")


def j2_quadrature(s, cfg=DEFAULT_CONFIG):
    """Direct-quadrature companion of ``renorm.j2_closed``."""
    if not s > 0:
        raise DomainError(f"moment order must be positive, got {s}")
    d = DELTA_SPLIT
    head = d ** s * (math.log(16.0 / d) / s + 1.0 / (s * s)) / TWO_PI_SQUARED
    tail = adaptive_quad(
        lambda e: e ** (s - 1.0) * math.log(16.0 / e) / TWO_PI_SQUARED,
        d, BAND_EDGE, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        limit=cfg.max_depth, name="log moment")
    return head + tail


def sech_log2_integral_direct(cfg=DEFAULT_CONFIG):
    """int_0^inf (ln x)^2 / cosh^2(x) dx with the singular endpoint left in.

    Unlike ``renorm.sech_log2_integral`` no substitution removes the
    (ln x)^2 endpoint singularity; the quadrature routine handles it on a
    different split of the axis.  The tail past SECH_CUTOFF + 5 is below
    1e-15 and dropped.
    """
    f = lambda x: math.log(x) ** 2 / math.cosh(x) ** 2
    head = adaptive_quad(f, 0.0, 2.0,
                         rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                         limit=cfg.max_depth,
                         name="sech^2 log^2 integral (direct head)")
    tail = adaptive_quad(f, 2.0, SECH_CUTOFF + 5.0,
                         rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                         limit=cfg.max_depth,
                         name="sech^2 log^2 integral (direct tail)")
    return head + tail


def cosine_power_quadrature(s, rel_tol=1e-12, abs_tol=1e-14, limit=200):
    """Direct quadrature companion of ``specfun.cosine_power_integral``.

    Integrates sin(u)^(s-1) over [0, pi/2] (the same integral mirrored
    about pi/4) after substituting w = u^s, which removes the endpoint
    singularity for s < 1: the transformed integrand (sin(u)/u)^(s-1) / s
    is smooth on the whole interval.
    """
    if not s > 0:
        raise DomainError(f"cosine power integral needs s > 0, got {s}")

    def integrand(w):
        u = w ** (1.0 / s)
        if u == 0.0:
            return 1.0 / s
        return (math.sin(u) / u) ** (s - 1.0) / s

    return adaptive_quad(integrand, 0.0, (0.5 * math.pi) ** s,
                         rel_tol=rel_tol, abs_tol=abs_tol, limit=limit,
                         name="cosine power quadrature")
