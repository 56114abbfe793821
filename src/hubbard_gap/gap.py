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
That split is the one production route, ``gap_rhs``, and it runs no
quadrature: I2 comes from frozen expansions (``i2_numeric``), its Mellin
residue series below the band edge, a Chebyshev interpolant across it
and the moment series above it.  Three independent reference routes live
in ``hubbard_gap.oracles``: the quadrature of I2 (``i2_quadrature``), a
hyperbolic substitution of the unsplit integral (``gap_rhs_sinh``) and
the raw Brillouin-zone double integral (``dos_pushforward_oracle``); the
test suite holds them together.  The root search ``_brent`` is Brent's
method, step for step the one of ``scipy.optimize.brentq``.

For small coupling, Delta(u) approaches 32 exp(-2 pi / sqrt(u)) with a
relative error of order exp(-4 pi / sqrt(u)) / sqrt(u).
"""

import math

from ._i2_tables import CHEB_BAND, CHEB_COEFFICIENTS, RESIDUE_TRIPLES
from .errors import ConvergenceError, DomainError
from .record import FrozenRecord
from .renorm import _asymptotic_exponent, a0_exact
from .specfun import PI_SQUARED, TWO_PI_SQUARED, dilog

#: target on |1/u - rhs(Delta)| and on u |1/u - rhs(Delta)| for every
#: returned solution; at strong coupling 1/u is so small that the first
#: alone passes gaps far from the root
RESIDUAL_TOL = 1e-12

#: ``i2_numeric`` sums the residue series up to the Chebyshev band and the
#: moment series from its upper end on
_RESIDUE_MAX, _MOMENT_MIN = CHEB_BAND

#: terms of each large-gap series; at Delta = 6 the sums stop after about 45
_MOMENT_TERMS = 64

#: Brent steps before ``_brent`` gives up, the default of ``brentq``
_BRENT_MAXITER = 100


def _moment_coefficients():
    """The Delta^-(2n+1) coefficients, n < _MOMENT_TERMS, of the large-gap
    series of I1 and of I2 + a0: binom(-1/2, n) J2(2n+1) and binom(-1/2, n)
    [M(2n+1) - J2(2n+1)], with M(2n+1) = C(2n, n)^2/2 the DOS moment and
    J2(m) = 4^m (ln 4/m + 1/m^2)/(2 pi^2) the moment of its log part."""
    ln4 = math.log(4.0)
    i1, i2 = [], []
    for n in range(_MOMENT_TERMS):
        m = 2 * n + 1
        central = math.comb(2 * n, n)
        binomial = (-1) ** n * (central / 4 ** n)
        log_moment = 4.0 ** m * (ln4 / m + 1.0 / (m * m)) / TWO_PI_SQUARED
        i1.append(binomial * log_moment)
        i2.append(binomial * (central * central / 2 - log_moment))
    return tuple(i1), tuple(i2)


_I1_MOMENTS, _I2_MOMENTS = _moment_coefficients()


def _moment_series(coefficients, delta, total):
    """total + sum_n c_n Delta^-(2n+1) for Delta >= 6, an alternating series
    whose terms shrink like (4/Delta)^(2n), stopped once a term drops below
    1e-17 of the sum."""
    inverse = 1.0 / delta
    square = inverse * inverse
    for c in coefficients:
        term = c * inverse
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        inverse *= square
    return total


class GapParams(FrozenRecord):
    """Physical inputs: on-site coupling u and hopping t, both positive and finite."""

    __slots__ = ("u", "t")

    _defaults = {"t": 1.0}

    def _check(self):
        u, t = self.u, self.t
        if not u > 0:
            raise DomainError("coupling must be positive")
        if not t > 0:
            raise DomainError("hopping must be positive")
        if not (math.isfinite(u) and math.isfinite(t)):
            raise DomainError(f"coupling must be positive and finite, "
                              f"got u = {u}, t = {t}")


class GapSolution(FrozenRecord):
    """A solved gap with solver diagnostics.

    ``residual`` is |1/u - rhs| in the units of the original equation;
    ``bracket`` is the interval handed to ``_brent``; its lower end is guess/4.
    """

    __slots__ = ("delta", "residual", "bracket", "evaluations")


class AsymptoticComparison(FrozenRecord):
    """Numeric gap against its small-coupling asymptotic form at one u."""

    __slots__ = ("u", "delta_numeric", "delta_asymptotic", "rel_dev",
                 "bound_scale")


def i1_closed(delta):
    """Exact value of I1(Delta) = int_0^4 ln(16/eps)/(2 pi^2 sqrt(Delta^2+eps^2)) d(eps).

    The arctanh(4/sqrt(Delta^2+16)) of the raw closed form is evaluated as
    ln((sqrt(Delta^2+16)+4)/Delta), which is the same quantity with the
    cancellation-prone 1 - 4/sqrt(Delta^2+16) simplified away; likewise
    the dilogarithm argument 1/2 - sqrt(Delta^2+16)/8 is computed as
    -Delta^2/(8 (4 + sqrt(Delta^2+16))).  Without these rewrites the small
    gap regime loses ~1e-9 absolute, an order above what the quadrature
    cross-check resolves.

    From Delta = 6 on, where the closed form's terms of size ln^2(Delta)
    cancel down to a value near 0.35/Delta (a relative error of 2e-12 at
    Delta = 2500), the convergent moment series
    sum_n binom(-1/2, n) J2(2n+1) Delta^-(2n+1) is summed instead.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")
    if delta >= _MOMENT_MIN:
        return _moment_series(_I1_MOMENTS, delta, 0.0)
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


def _i2_residue(delta):
    """I2 for Delta <= 2.5: sum_k Delta^(2k) (alpha_k L^2 + beta_k L + gamma_k),
    L = ln Delta, stopped once a term drops below 1e-17 of the sum (the
    terms shrink at least like (Delta/4)^(2k), and no quadratic in L has a
    real root)."""
    log_delta = math.log(delta)
    square = delta * delta
    power = 1.0
    total = 0.0
    for alpha, beta, gamma in RESIDUE_TRIPLES:
        power *= square
        term = power * ((alpha * log_delta + beta) * log_delta + gamma)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _i2_chebyshev(delta):
    """I2 for 2.5 < Delta < 6: Clenshaw's recurrence on the Chebyshev table."""
    lo, hi = CHEB_BAND
    x = (2.0 * delta - (lo + hi)) / (hi - lo)
    b1 = b2 = 0.0
    for c in reversed(CHEB_COEFFICIENTS[1:]):
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return CHEB_COEFFICIENTS[0] + x * b1 - b2


def i2_numeric(delta):
    """Doubly subtracted remainder integral I2(Delta), from frozen expansions.

    I2 = int_0^4 (N0 - ln(16/eps)/(2 pi^2)) (1/sqrt(Delta^2+eps^2) - 1/eps) d(eps)
    is regular at eps = 0 and vanishes like Delta^2 (ln Delta)^2.  Three
    branches, each within 2e-16 absolute of the integral:

    - Delta <= 2.5: the Mellin residue series at z = -2k, k = 1 .. 48
      (``tools/i2_tables.py`` derives it), convergent for Delta < 4;
    - 2.5 < Delta < 6: a degree-27 Chebyshev interpolant;
    - Delta >= 6: the moment series -a0 + sum_n binom(-1/2, n)
      Delta^-(2n+1) [M(2n+1) - J2(2n+1)], convergent for Delta > 4.

    ``oracles.i2_quadrature`` is the quadrature of the same integral.
    """
    if not delta > 0:
        raise DomainError("gap must be positive")
    if delta <= _RESIDUE_MAX:
        return _i2_residue(delta)
    if delta < _MOMENT_MIN:
        return _i2_chebyshev(delta)
    return _moment_series(_I2_MOMENTS, delta, -a0_exact())


def gap_rhs(delta):
    """Right-hand side of the gap equation at unit hopping.

    Assembles a0 + I1 closed form + I2, which stays accurate at small
    gaps, where the remainder I2 is itself O(Delta^2 ln^2 Delta).
    """
    return a0_exact() + i1_closed(delta) + i2_numeric(delta)


def delta_asymptotic(u, b1=0.0):
    """Small-coupling gap scale 32 exp(-sqrt(4 pi^2 / u + b1))."""
    return 32.0 * math.exp(-_asymptotic_exponent(u, b1))


# _brent is a line-for-line port of scipy/optimize/Zeros/brentq.c.
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.  Used under scipy's BSD 3-Clause license
# (SPDX-License-Identifier: BSD-3-Clause); its full text ships with scipy.
def _brent(f, xa, xb, xtol, rtol):
    """Root of ``f`` in [xa, xb], where f changes sign, by Brent's method.

    Takes the steps of ``scipy.optimize.brentq``, makes the same calls and
    returns the same root; it stops once half the bracket is below
    (xtol + rtol |x|)/2.  Raises ConvergenceError where ``brentq`` raises:
    no sign change, a NaN value, or ``_BRENT_MAXITER`` steps without
    convergence.
    """
    def call(x):
        value = f(x)
        if math.isnan(value):
            raise ConvergenceError(f"root search: f({x!r}) is NaN")
        return value

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ConvergenceError(
            f"root search: f({xa!r}) and f({xb!r}) have the same sign")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            last = abs(spre)
            room = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (last if last < room else room):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ConvergenceError(
        f"root search: no convergence after {_BRENT_MAXITER} steps, at {xcur!r}")


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def gap_solve(params):
    """Solve the gap equation for the given coupling and hopping.

    Works at unit hopping with the reduced coupling u/t and rescales the
    root afterwards.  The bracket runs from a quarter of the asymptotic
    guess to four times it, the upper end growing by 4 until rhs < 1/u
    (a bracket that reaches infinity raises ConvergenceError);
    ``_brent`` finds the root, unique as the right side decreases strictly.
    """
    u_eff = params.u / params.t
    inv_u = 1.0 / u_eff
    evaluations = 0

    def f(delta):
        nonlocal evaluations
        evaluations += 1
        return gap_rhs(delta) - inv_u

    guess = delta_asymptotic(u_eff)
    lo, hi = 0.25 * guess, 4.0 * guess
    f_lo, f_hi = f(lo), f(hi)
    # f(guess/4) > 0 needs rhs - ln^2(32/Delta)/(4 pi^2) > -ln^2(4)/(4 pi^2)
    # = -0.0487 at Delta = guess/4 < 8, where its minimum is -3.24e-4.
    # The right side is 0 in floating point from Delta ~ 1e20 on, so an
    # infinite u/t (1/u = 0) never turns f negative: stop at hi = inf.
    while f_hi >= 0.0 and hi < math.inf:
        hi *= 4.0
        f_hi = f(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ConvergenceError(
            f"gap bracket failure on [{lo:.3e}, {hi:.3e}] "
            f"(f = {f_lo:.3e}, {f_hi:.3e}) at u/t = {u_eff}")

    root = _brent(f, lo, hi, xtol=1e-18, rtol=8.9e-16)
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


def asymptotic_comparison(u):
    """Numeric gap against 32 exp(-2 pi / sqrt(u)) with the error scale."""
    solution = gap_solve(GapParams(u=u))
    reference = delta_asymptotic(u)
    return AsymptoticComparison(
        u=u,
        delta_numeric=solution.delta,
        delta_asymptotic=reference,
        rel_dev=abs(solution.delta / reference - 1.0),
        bound_scale=math.exp(-4.0 * math.pi / math.sqrt(u)) / math.sqrt(u),
    )
