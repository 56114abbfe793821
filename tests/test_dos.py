import math

import numpy as np
import pytest
from scipy.integrate import quad

from hubbard_gap import (ConvergenceError, DomainError, QuadratureConfig,
                         dos_asymptotic, dos_moment, dos_moment_exact,
                         dos_pushforward_oracle, dos_value_elliptic,
                         dos_value_quadrature)
from hubbard_gap.dos import DEFAULT_CONFIG, DELTA_SPLIT, dos_log_subtracted

CFG = DEFAULT_CONFIG
TWO_PI_SQ = 2.0 * math.pi ** 2

# empirical bound on |N0 - two-term expansion| / (eps^4 ln(1/eps)); the
# true ratio sits near 4e-5 but the smallest energies are limited by the
# double-precision noise floor of the quadrature, ~1e-3 at eps = 1e-3
REMAINDER_BOUND = 5e-3


class TestQuadratureConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-10 and cfg.mc_samples >= 10_000

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"abs_tol": -1e-3},
        {"max_depth": 0},
        {"mc_samples": 9_999},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureConfig(**kwargs)


class TestDosValue:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 3.5])
    def test_even(self, eps):
        assert (dos_value_quadrature(-eps, CFG)
                == dos_value_quadrature(eps, CFG))

    @pytest.mark.parametrize("eps", [4.0, 5.0, -4.5, 100.0])
    def test_outside_band(self, eps):
        assert dos_value_quadrature(eps, CFG) == 0.0
        assert dos_value_elliptic(eps) == 0.0

    def test_singularity_raises(self):
        with pytest.raises(DomainError):
            dos_value_quadrature(0.0, CFG)
        with pytest.raises(DomainError):
            dos_value_elliptic(0.0)

    @pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0,
                                     3.9, 3.999])
    def test_quadrature_matches_elliptic(self, eps):
        assert dos_value_quadrature(eps, CFG) == pytest.approx(
            dos_value_elliptic(eps), rel=1e-11)

    @pytest.mark.parametrize("eps", [1e-8, 1e-12, 1e-40])
    def test_small_eps_matches_elliptic(self, eps):
        # the difference form a^2 - b^2 sin^2 t cancels here: 2.3e-10 off at
        # 1e-8, no convergence at 1e-12
        assert dos_value_quadrature(eps, CFG) == pytest.approx(
            dos_value_elliptic(eps), rel=1e-12)

    def test_band_edge_value(self):
        # the band-edge step keeps the finite limit 1/(4 pi) just inside
        assert dos_value_elliptic(4.0 - 1e-12) == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-6)

    def test_value_near_expansion(self):
        diff = abs(dos_value_quadrature(0.1, CFG) - dos_asymptotic(0.1))
        assert diff < REMAINDER_BOUND * 0.1 ** 4 * math.log(10.0)

    def test_remainder_scaling(self):
        for eps in np.geomspace(1e-3, 0.1, 9):
            diff = abs(dos_value_quadrature(float(eps), CFG)
                       - dos_asymptotic(float(eps)))
            assert diff / (eps ** 4 * math.log(1.0 / eps)) < REMAINDER_BOUND

    def test_positive_inside_band(self):
        for eps in [1e-4, 0.5, 1.5, 2.5, 3.99]:
            assert dos_value_elliptic(eps) > 0.0

    def test_monotone_divergence(self):
        values = [dos_value_quadrature(e, CFG) for e in (1.0, 0.1, 0.01)]
        assert values[0] < values[1] < values[2]

    def test_normalisation(self):
        half_mass, _ = quad(dos_value_elliptic, 0.0, 4.0,
                            epsabs=1e-12, epsrel=1e-11, limit=300)
        assert half_mass == pytest.approx(0.5, abs=1e-9)


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


class TestLogSubtracted:
    def test_matches_direct_subtraction(self):
        direct = dos_value_quadrature(0.5, CFG) - math.log(32.0) / TWO_PI_SQ
        assert dos_log_subtracted(0.5) == pytest.approx(direct, abs=1e-11)

    def test_continuous_at_split(self):
        below = dos_log_subtracted(DELTA_SPLIT * (1 - 1e-9))
        above = dos_log_subtracted(DELTA_SPLIT * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-4)

    def test_zero_limit(self):
        assert dos_log_subtracted(0.0) == 0.0


class TestPushforwardOracle:
    def test_normalised(self):
        assert dos_pushforward_oracle(lambda e: 1.0, CFG) == pytest.approx(
            1.0, abs=1e-9)

    def test_odd_moment_vanishes(self):
        assert dos_pushforward_oracle(lambda e: e, CFG) == pytest.approx(
            0.0, abs=1e-9)

    def test_positive_first_moment(self):
        value = dos_pushforward_oracle(lambda e: np.where(e > 0.0, e, 0.0), CFG)
        assert value == pytest.approx(8.0 / math.pi ** 2, rel=1e-8)
        assert value == pytest.approx(dos_moment_exact(2.0), rel=1e-8)

    def test_deterministic(self):
        g = lambda e: np.cos(e)
        assert dos_pushforward_oracle(g, CFG) == dos_pushforward_oracle(g, CFG)

    def test_scalar_fallback(self):
        # plain-math callables cannot take arrays; the sampler falls back
        value = dos_pushforward_oracle(lambda e: math.cos(e), CFG,
                                       seed=11)
        assert value == pytest.approx(dos_pushforward_oracle(np.cos, CFG),
                                      rel=1e-9)

    def test_disagreement_raises(self):
        # a function of the sample index cannot match the quadrature
        class Liar:
            def __call__(self, e):
                if isinstance(e, np.ndarray):
                    return np.full(e.shape, 5.0)
                return 1.0

        with pytest.raises(ConvergenceError):
            dos_pushforward_oracle(Liar(), CFG)


def _even_sum(g):
    return lambda e: g(e) + g(-e)


@pytest.mark.parametrize("name,g", [
    ("one", lambda e: 1.0 if np.isscalar(e) else np.ones_like(e)),
    ("square", lambda e: e * e),
    ("abs", lambda e: np.abs(e)),
    ("positive_part", lambda e: np.where(np.asarray(e) > 0.0, e, 0.0)),
    ("cosine", np.cos),
])
def test_oracle_equivalence(name, g):
    oracle = dos_pushforward_oracle(g, CFG)
    lhs, _ = quad(lambda e: float(np.asarray(g(e) + g(-e)))
                  * dos_value_elliptic(e),
                  0.0, 4.0, epsabs=1e-11, epsrel=1e-9, limit=300)
    assert lhs == pytest.approx(oracle, rel=1e-6)


class TestMoments:
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_identity(self, s):
        assert dos_moment(s, CFG) == pytest.approx(dos_moment_exact(s), rel=1e-8)

    def test_half_mass(self):
        assert dos_moment(1.0, CFG) == pytest.approx(0.5, abs=1e-10)

    def test_exact_values(self):
        assert dos_moment_exact(1.0) == pytest.approx(0.5, rel=1e-14)
        assert dos_moment_exact(2.0) == pytest.approx(8.0 / math.pi ** 2, rel=1e-14)
        assert dos_moment_exact(3.0) == pytest.approx(2.0, rel=1e-13)
        # frozen from mpmath: 4^s/(8 pi) (Gamma(s/2)/Gamma(1/2+s/2))^2 at s=1/2
        assert dos_moment_exact(0.5) == pytest.approx(0.69660196484283843, rel=1e-13)

    @pytest.mark.parametrize("s", [0.0, -2.0])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            dos_moment(s, CFG)
        with pytest.raises(DomainError):
            dos_moment_exact(s)
