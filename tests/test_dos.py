import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipkm1

from hubbard_gap import (ConvergenceError, DomainError, dos_asymptotic,
                         dos_moment, dos_moment_exact, dos_pushforward_oracle,
                         dos_value_elliptic, dos_value_quadrature)
from hubbard_gap import oracles
from hubbard_gap.dos import DELTA_SPLIT, _ellipkm1, dos_log_subtracted

TWO_PI_SQ = 2.0 * math.pi ** 2

# empirical bound on |N0 - two-term expansion| / (eps^4 ln(1/eps)); the
# true ratio sits near 4e-5 but the smallest energies are limited by the
# double-precision noise floor of the quadrature, ~1e-3 at eps = 1e-3
REMAINDER_BOUND = 5e-3


class TestDosValue:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 3.5])
    def test_even(self, eps):
        assert (dos_value_quadrature(-eps)
                == dos_value_quadrature(eps))

    @pytest.mark.parametrize("eps", [4.0, 5.0, -4.5, 100.0])
    def test_outside_band(self, eps):
        assert dos_value_quadrature(eps) == 0.0
        assert dos_value_elliptic(eps) == 0.0

    def test_singularity_raises(self):
        with pytest.raises(DomainError):
            dos_value_quadrature(0.0)
        with pytest.raises(DomainError):
            dos_value_elliptic(0.0)

    @pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0,
                                     3.9, 3.999])
    def test_quadrature_matches_elliptic(self, eps):
        assert dos_value_quadrature(eps) == pytest.approx(
            dos_value_elliptic(eps), rel=1e-11)

    @pytest.mark.parametrize("eps", [1e-8, 1e-12, 1e-40])
    def test_small_eps_matches_elliptic(self, eps):
        # the difference form a^2 - b^2 sin^2 t cancels here: 2.3e-10 off at
        # 1e-8, no convergence at 1e-12
        assert dos_value_quadrature(eps) == pytest.approx(
            dos_value_elliptic(eps), rel=1e-12)

    def test_band_edge_value(self):
        # the band-edge step keeps the finite limit 1/(4 pi) just inside
        assert dos_value_elliptic(4.0 - 1e-12) == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-6)

    def test_value_near_expansion(self):
        diff = abs(dos_value_quadrature(0.1) - dos_asymptotic(0.1))
        assert diff < REMAINDER_BOUND * 0.1 ** 4 * math.log(10.0)

    def test_remainder_scaling(self):
        for eps in np.geomspace(1e-3, 0.1, 9):
            diff = abs(dos_value_quadrature(float(eps))
                       - dos_asymptotic(float(eps)))
            assert diff / (eps ** 4 * math.log(1.0 / eps)) < REMAINDER_BOUND

    def test_positive_inside_band(self):
        for eps in [1e-4, 0.5, 1.5, 2.5, 3.99]:
            assert dos_value_elliptic(eps) > 0.0

    def test_monotone_divergence(self):
        values = [dos_value_quadrature(e) for e in (1.0, 0.1, 0.01)]
        assert values[0] < values[1] < values[2]

    def test_normalisation(self):
        half_mass, _ = quad(dos_value_elliptic, 0.0, 4.0,
                            epsabs=1e-12, epsrel=1e-11, limit=300)
        assert half_mass == pytest.approx(0.5, abs=1e-9)


class TestEllipkm1Port:
    def test_bit_for_bit_with_scipy(self):
        # eps log-uniform over the whole double range and uniform over the
        # band; 1 - m = 16 eps/(4 + eps)^2 falls below the unit roundoff,
        # the logarithmic branch, for eps up to about 1.1e-16
        rng = np.random.default_rng(19)
        eps = np.concatenate([
            np.exp(rng.uniform(math.log(5e-324), math.log(4.0), 60_000)),
            rng.uniform(0.0, 4.0, 40_000),
            [5e-324, 1.1e-16, 1.12e-16, 1e-3, np.nextafter(4.0, 0.0)]])
        eps = eps[(eps > 0.0) & (eps < 4.0)]
        p = 16.0 * eps / (4.0 + eps) ** 2
        ours = np.array([_ellipkm1(float(x)) for x in p])
        assert np.count_nonzero(p <= np.finfo(float).eps / 2) > 50_000
        assert np.array_equal(ours, ellipkm1(p))


class TestDosAsymptotic:
    def test_two_term_formula(self):
        eps = 0.1
        expected = (math.log(160.0) / TWO_PI_SQ
                    + 0.01 * (math.log(160.0) - 1.0) / (128.0 * math.pi ** 2))
        assert dos_asymptotic(eps) == pytest.approx(expected, rel=1e-15)
        assert dos_asymptotic(eps) == pytest.approx(0.25714357, abs=1e-7)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 4.0, 16.0])
    def test_domain(self, eps):
        with pytest.raises(DomainError):
            dos_asymptotic(eps)

    @pytest.mark.parametrize("eps", [5e-324, 1e-310, 8e-308])
    def test_where_16_over_eps_overflows(self, eps):
        # below 16/DBL_MAX ~ 8.9e-308, where ln(16/eps) was inf and 0 * inf nan
        with mp.workdps(40):
            e = mp.mpf(eps)
            log_term = mp.log(16 / e)
            correction = e * e * (log_term - 1) / (128 * mp.pi ** 2)
            expected = log_term / (2 * mp.pi ** 2) + correction
        assert dos_asymptotic(eps) == pytest.approx(float(expected), rel=1e-15)
        assert dos_log_subtracted(eps) == float(correction) == 0.0

    def test_unchanged_where_16_over_eps_is_finite(self):
        eps = 1e-307
        log_term = math.log(16.0 / eps)
        assert dos_asymptotic(eps) == (
            log_term / TWO_PI_SQ
            + eps * eps * (log_term - 1.0) / (128.0 * math.pi ** 2))
        assert dos_log_subtracted(eps) == 0.0


class TestLogSubtracted:
    def test_matches_direct_subtraction(self):
        direct = dos_value_quadrature(0.5) - math.log(32.0) / TWO_PI_SQ
        assert dos_log_subtracted(0.5) == pytest.approx(direct, abs=1e-11)

    def test_continuous_at_split(self):
        below = dos_log_subtracted(DELTA_SPLIT * (1 - 1e-9))
        above = dos_log_subtracted(DELTA_SPLIT * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-4)

    def test_zero_limit(self):
        assert dos_log_subtracted(0.0) == 0.0


class TestPushforwardOracle:
    def test_normalised(self):
        assert dos_pushforward_oracle(lambda e: 1.0) == pytest.approx(
            1.0, abs=1e-9)

    def test_odd_moment_vanishes(self):
        assert dos_pushforward_oracle(lambda e: e) == pytest.approx(
            0.0, abs=1e-9)

    def test_positive_first_moment(self):
        value = dos_pushforward_oracle(lambda e: np.where(e > 0.0, e, 0.0))
        assert value == pytest.approx(8.0 / math.pi ** 2, rel=1e-8)
        assert value == pytest.approx(dos_moment_exact(2.0), rel=1e-8)

    def test_deterministic(self):
        g = lambda e: np.cos(e)
        assert dos_pushforward_oracle(g) == dos_pushforward_oracle(g)

    def test_scalar_fallback(self):
        # g is called on Python floats only, so plain-math callables work
        value = dos_pushforward_oracle(lambda e: math.cos(e))
        assert value == pytest.approx(dos_pushforward_oracle(np.cos),
                                      rel=1e-9)

    def test_disagreement_raises(self, monkeypatch):
        # a quadrature off by 1e-6 relative per call is far outside the bound
        exact = oracles.adaptive_quad
        monkeypatch.setattr(oracles, "adaptive_quad",
                            lambda *args: exact(*args) * (1.0 + 1e-6))
        with pytest.raises(ConvergenceError, match="trapezoid rule disagree"):
            dos_pushforward_oracle(math.cos)


ORACLE_FUNCTIONS = [
    ("one", lambda e: 1.0 if np.isscalar(e) else np.ones_like(e)),
    ("square", lambda e: e * e),
    ("abs", lambda e: np.abs(e)),
    ("positive_part", lambda e: np.where(np.asarray(e) > 0.0, e, 0.0)),
    ("cosine", np.cos),
]


def step(e):
    return 1.0 if e > 0.0 else 0.0


# the trapezoid rule converges geometrically on analytic g and as m^-2 on
# the kinks of abs and positive_part; the jump of step lies on the nodes
# of the diagonal k1 + k2 = pi, where both rules take 0 in place of 1/2,
# so the error there is first order, about 1/(2m) for T_m
@pytest.mark.parametrize("name,g,limit", [
    *[(name, g, 1e-3) for name, g in ORACLE_FUNCTIONS], ("step", step, 2e-2)])
def test_trapezoid_guard(name, g, limit):
    value = dos_pushforward_oracle(g)  # the guard passes
    trapezoid, bound = oracles._trapezoid_guard(g, value)
    assert abs(value - trapezoid) <= bound < limit


@pytest.mark.parametrize("name,g", ORACLE_FUNCTIONS)
def test_oracle_equivalence(name, g):
    oracle = dos_pushforward_oracle(g)
    lhs, _ = quad(lambda e: float(np.asarray(g(e) + g(-e)))
                  * dos_value_elliptic(e),
                  0.0, 4.0, epsabs=1e-11, epsrel=1e-9, limit=300)
    assert lhs == pytest.approx(oracle, rel=1e-6)


class TestMoments:
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_identity(self, s):
        assert dos_moment(s) == pytest.approx(dos_moment_exact(s), rel=1e-8)

    def test_half_mass(self):
        assert dos_moment(1.0) == pytest.approx(0.5, abs=1e-10)

    def test_exact_values(self):
        assert dos_moment_exact(1.0) == pytest.approx(0.5, rel=1e-14)
        assert dos_moment_exact(2.0) == pytest.approx(8.0 / math.pi ** 2, rel=1e-14)
        assert dos_moment_exact(3.0) == pytest.approx(2.0, rel=1e-13)
        # frozen from mpmath: 4^s/(8 pi) (Gamma(s/2)/Gamma(1/2+s/2))^2 at s=1/2
        assert dos_moment_exact(0.5) == pytest.approx(0.69660196484283843, rel=1e-13)

    @pytest.mark.parametrize("s", [511.5, 512.0, 512.5, 515.0, 518.0])
    def test_closed_form_up_to_double_range(self, s):
        # 4.0 ** s overflows from s = 512, the moment itself only from s = 518.33
        with mp.workdps(40):
            half = mp.mpf(s) / 2
            exact = mp.power(4, s) / (8 * mp.pi) * (mp.gamma(half) / mp.gamma(half + 0.5)) ** 2
        assert dos_moment_exact(s) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("s", [1e-150, 8e-155, 5e-155, 1.7e-155])
    def test_closed_form_at_small_order(self, s):
        # the squared Gamma ratio alone overflows below s = 8.4e-155, the
        # moment, 1/(2 pi^2 s^2) there, only below s = 1.68e-155
        with mp.workdps(40):
            half = mp.mpf(s) / 2
            exact = mp.power(4, s) / (8 * mp.pi) * (mp.gamma(half) / mp.gamma(half + 0.5)) ** 2
        assert dos_moment_exact(s) == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("s", [518.34, 600.0, 1e300, math.inf,
                                   1.6e-155, 1e-155, 1e-300, 5e-324])
    def test_closed_form_leaves_double_range(self, s):
        with pytest.raises(ConvergenceError, match=re.escape(
                f"DOS moment (closed form) leaves double range at s = {s}")):
            dos_moment_exact(s)

    @pytest.mark.parametrize("s", [0.0, -2.0])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            dos_moment(s)
        with pytest.raises(DomainError):
            dos_moment_exact(s)

    @pytest.mark.parametrize("s", [1000.0, 1e-155, 1e-300])
    def test_leaves_double_range(self, s):
        # eps^(s-1) overflows; 1/s^2 overflows to inf; s * s underflows to 0
        with pytest.raises(ConvergenceError, match=f"DOS moment .* s = {s}$"):
            dos_moment(s)
