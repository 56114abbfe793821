"""Zero-temperature antiferromagnetic gap of the half-filled square-lattice
Hubbard model in the mean-field approximation.

With energies in units of the hopping, the gap Delta(u) is the unique
positive solution of

    1/u = int_0^4 N0(eps) / sqrt(Delta^2 + eps^2) d(eps),

whose right side decreases strictly in Delta, so a bracketing root search
cannot miss.  The hopping dependence is restored afterwards through the
exact rescaling Delta(u, t) = t Delta(u/t, 1).

Splitting the logarithmic part off the density of states decomposes the
right side into

    rhs(Delta) = a0 + I1(Delta) + I2(Delta),

where I1 carries the log singularity against the square-root kernel and
has an exact dilogarithm closed form, while I2 is a doubly subtracted
remainder, regular at eps = 0 and vanishing like Delta^2 (ln Delta)^2.
That split is the one production route, ``gap_rhs``.  Two independent
reference routes live in ``hubbard_gap.oracles``: a hyperbolic
substitution of the unsplit integral (``gap_rhs_sinh``) and the raw
Brillouin-zone double integral (``dos_pushforward_oracle``); the test
suite holds all three together.

For small coupling, Delta(u) approaches 32 exp(-2 pi / sqrt(u)) with a
relative error of order exp(-4 pi / sqrt(u)) / sqrt(u).
"""

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .dos import dos_log_subtracted
from .errors import ConvergenceError, DomainError
from .quadrature import DEFAULT_CONFIG, adaptive_quad
from .renorm import _asymptotic_exponent, a0_exact
from .specfun import PI_SQUARED, dilog

#: target on |1/u - rhs(Delta)| and on u |1/u - rhs(Delta)| for every
#: returned solution; at strong coupling 1/u is so small that the first
#: alone passes gaps far from the root
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class GapParams:
    """Physical inputs: on-site coupling u and hopping t, both positive and finite."""

    u: float
    t: float = 1.0

    def __post_init__(self):
        if not self.u > 0:
            raise DomainError("coupling must be positive")
        if not self.t > 0:
            raise DomainError("hopping must be positive")
        if not (math.isfinite(self.u) and math.isfinite(self.t)):
            raise DomainError(f"coupling must be positive and finite, "
                              f"got u = {self.u}, t = {self.t}")


@dataclass(frozen=True)
class GapSolution:
    """A solved gap with solver diagnostics.

    ``residual`` is |1/u - rhs| in the units of the original equation;
    ``bracket`` is the interval handed to ``brentq``; its lower end is guess/4.
    """

    delta: float
    residual: float
    bracket: tuple
    evaluations: int


@dataclass(frozen=True)
class AsymptoticComparison:
    """Numeric gap against its small-coupling asymptotic form at one u."""

    u: float
    delta_numeric: float
    delta_asymptotic: float
    rel_dev: float
    bound_scale: float


def i1_closed(delta):
    """Exact value of I1(Delta) = int_0^4 ln(16/eps)/(2 pi^2 sqrt(Delta^2+eps^2)) d(eps).

    The arctanh(4/sqrt(Delta^2+16)) of the raw closed form is evaluated as
    ln((sqrt(Delta^2+16)+4)/Delta), which is the same quantity with the
    cancellation-prone 1 - 4/sqrt(Delta^2+16) simplified away; likewise
    the dilogarithm argument 1/2 - sqrt(Delta^2+16)/8 is computed as
    -Delta^2/(8 (4 + sqrt(Delta^2+16))).  Without these rewrites the small
    gap regime loses ~1e-9 absolute, an order above what the quadrature
    cross-check resolves.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")
    root = math.hypot(delta, 4.0)
    log_delta = math.log(delta)
    log_root4 = math.log(root + 4.0)
    atanh_term = log_root4 - log_delta
    li2_arg = -delta * delta / (8.0 * (4.0 + root))
    ln2 = math.log(2.0)
    bracket = (12.0 * (math.log(16.0) - log_delta) * atanh_term
               - 3.0 * log_root4 * (math.log(4.0) + log_root4 - 4.0 * log_delta)
               - 6.0 * log_delta * (math.log(4.0) + log_delta)
               + 6.0 * dilog(li2_arg)
               + PI_SQUARED + 27.0 * ln2 * ln2)
    return bracket / (24.0 * PI_SQUARED)


def i1_small_delta(delta):
    """Small-gap form ln^2(32/Delta)/(4 pi^2) - a0 of I1.

    Accurate to O(Delta^2) for Delta below the band edge; evaluable as a
    pure formula for any positive argument.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")
    return (math.log(32.0) - math.log(delta)) ** 2 / (4.0 * PI_SQUARED) - a0_exact()


def i2_numeric(delta, cfg=DEFAULT_CONFIG):
    """Doubly subtracted remainder integral I2(Delta).

    Integrand (N0 - ln(16/eps)/(2 pi^2)) (1/sqrt(Delta^2+eps^2) - 1/eps);
    the kernel difference is evaluated as
    -Delta^2 / (eps sqrt(Delta^2+eps^2) (eps + sqrt(Delta^2+eps^2))) so no
    cancellation occurs for eps >> Delta.  The integrand is O(eps ln eps)
    near zero, hence regular.  |I2| stays below a constant times
    Delta^2 (ln Delta)^2 for gaps within the band.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")

    def integrand(e):
        if e <= 0.0:
            return 0.0
        rt = math.hypot(delta, e)
        kernel = -delta * delta / (e * rt * (e + rt))
        return dos_log_subtracted(e) * kernel

    return adaptive_quad(integrand, 0.0, 4.0, cfg, "subtracted gap remainder")


def gap_rhs(delta, cfg=DEFAULT_CONFIG):
    """Right-hand side of the gap equation at unit hopping.

    Assembles a0 + I1 closed form + I2, which stays accurate at small
    gaps, where the numerically integrated piece is itself
    O(Delta^2 ln^2 Delta).
    """
    return a0_exact() + i1_closed(delta) + i2_numeric(delta, cfg)


def delta_asymptotic(u, b1=0.0):
    """Small-coupling gap scale 32 exp(-sqrt(4 pi^2 / u + b1))."""
    return 32.0 * math.exp(-_asymptotic_exponent(u, b1))


def gap_solve(params, cfg=DEFAULT_CONFIG):
    """Solve the gap equation for the given coupling and hopping.

    Works at unit hopping with the reduced coupling u/t and rescales the
    root afterwards.  The bracket runs from a quarter of the asymptotic
    guess to four times it, the upper end growing by 4 until rhs < 1/u;
    ``brentq`` finds the root, unique as the right side decreases strictly.
    """
    u_eff = params.u / params.t
    inv_u = 1.0 / u_eff
    evaluations = 0

    def f(delta):
        nonlocal evaluations
        evaluations += 1
        return gap_rhs(delta, cfg) - inv_u

    guess = delta_asymptotic(u_eff)
    lo, hi = 0.25 * guess, 4.0 * guess
    f_lo, f_hi = f(lo), f(hi)
    # f(guess/4) > 0 needs rhs - ln^2(32/Delta)/(4 pi^2) > -ln^2(4)/(4 pi^2)
    # = -0.0487 at Delta = guess/4 < 8, where its minimum is -3.24e-4
    while f_hi >= 0.0:
        hi *= 4.0
        f_hi = f(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ConvergenceError(
            f"gap bracket failure on [{lo:.3e}, {hi:.3e}] "
            f"(f = {f_lo:.3e}, {f_hi:.3e}) at u/t = {u_eff}")

    root = brentq(f, lo, hi, xtol=1e-18, rtol=8.9e-16)
    residual = abs(f(root)) / params.t
    for label, value in (("gap residual", residual),
                         ("relative gap residual", residual * params.u)):
        if value >= RESIDUAL_TOL:
            raise ConvergenceError(
                f"{label} {value:.3e} above {RESIDUAL_TOL} at u/t = {u_eff}")
    return GapSolution(delta=params.t * root,
                       residual=residual,
                       bracket=(params.t * lo, params.t * hi),
                       evaluations=evaluations)


def asymptotic_comparison(u, cfg=DEFAULT_CONFIG):
    """Numeric gap against 32 exp(-2 pi / sqrt(u)) with the error scale."""
    solution = gap_solve(GapParams(u=u), cfg)
    reference = delta_asymptotic(u)
    return AsymptoticComparison(
        u=u,
        delta_numeric=solution.delta,
        delta_asymptotic=reference,
        rel_dev=abs(solution.delta / reference - 1.0),
        bound_scale=math.exp(-4.0 * math.pi / math.sqrt(u)) / math.sqrt(u),
    )
