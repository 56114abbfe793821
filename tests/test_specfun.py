import math
import sys

import mpmath
import pytest
from hypothesis import given, strategies as st

from hubbard_gap import (ConvergenceError, DomainError, QuadratureConfig,
                         cosine_power_integral, cosine_power_quadrature, dilog,
                         dilog_inversion_residual, gamma_ratio)

PI2 = math.pi ** 2


def _mp_gamma_ratio(s, cosine=False):
    """Gamma(s/2)/Gamma(1/2 + s/2) to 40 digits (more working digits at
    large s, where mpmath's Gamma needs them); times sqrt(pi)/2, the
    cosine-power integral, with ``cosine``."""
    with mpmath.workdps(40 + max(0, int(math.log10(s)))):
        x = mpmath.mpf(s) / 2
        value = mpmath.gamma(x) / mpmath.gamma(x + mpmath.mpf(1) / 2)
        return float(mpmath.sqrt(mpmath.pi) / 2 * value if cosine else value)


class TestDilog:
    def test_zero(self):
        assert dilog(0.0) == 0.0

    def test_basel_point(self):
        assert dilog(1.0) == pytest.approx(PI2 / 6.0, rel=1e-15)

    def test_alternating_basel_point(self):
        assert dilog(-1.0) == pytest.approx(-PI2 / 12.0, rel=1e-13)

    @pytest.mark.parametrize("x", [-1000.0, -37.5, -10.0, -2.0, -1.0, -0.9,
                                   -0.6, -0.5, -0.25, 0.3, 0.5, 0.51, 0.77,
                                   0.99, 0.999, 1.0])
    def test_against_mpmath(self, x):
        reference = float(mpmath.polylog(2, x))
        assert dilog(x) == pytest.approx(reference, rel=1e-13, abs=1e-15)

    def test_inversion_against_series(self):
        # both sides of the inversion identity from independent branches
        lhs = dilog(-10.0)
        rhs = -dilog(-0.1) - 0.5 * math.log(10.0) ** 2 - PI2 / 6.0
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 0.04, 1.0, 2.0, 31.7, 100.0, 1e3])
    def test_inversion_residual_grid(self, x):
        assert abs(dilog_inversion_residual(x)) < 1e-12

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_inversion_residual_property(self, x):
        assert abs(dilog_inversion_residual(x)) < 1e-12

    def test_inversion_residual_at_one_is_exact_symmetry(self):
        # 2 Li2(-1) + pi^2/6 = 0
        assert dilog_inversion_residual(1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("x", [-5.0, -1.0, -0.3, 0.3, 0.9])
    def test_derivative(self, x):
        h = 1e-5
        fd = (dilog(x + h) - dilog(x - h)) / (2.0 * h)
        assert fd == pytest.approx(-math.log(1.0 - x) / x, abs=1e-6)

    @pytest.mark.parametrize("x", [10.0, 100.0, 1000.0])
    def test_large_argument_asymptotics(self, x):
        residual = abs(dilog(-x) + 0.5 * math.log(x) ** 2 + PI2 / 6.0)
        # residual ~ 1/x; a single constant below 2 covers the whole range
        assert x * residual < 2.0

    @pytest.mark.parametrize("x", [1.0 + 1e-12, 2.0, math.inf])
    def test_domain_error_above_one(self, x):
        with pytest.raises(DomainError):
            dilog(x)

    def test_domain_error_nan(self):
        with pytest.raises(DomainError):
            dilog(math.nan)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_inversion_residual_domain(self, x):
        with pytest.raises(DomainError):
            dilog_inversion_residual(x)


class TestGammaRatio:
    def test_half_integer_points(self):
        assert gamma_ratio(1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_ratio(2.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("s", [0.01, 0.3, 1.0, 7.0, 250.0])
    def test_against_mpmath(self, s):
        reference = float(mpmath.gamma(s / 2) / mpmath.gamma(0.5 + s / 2))
        assert gamma_ratio(s) == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0])
    def test_recurrence(self, s):
        assert gamma_ratio(s + 2.0) == pytest.approx(
            s / (s + 1.0) * gamma_ratio(s), rel=1e-12)

    def test_small_order_expansion(self):
        # leading pole plus constant of the small-s expansion; O(s) remainder
        s = 0.01
        two_term = 2.0 / (math.sqrt(math.pi) * s) + 2.0 * math.log(2.0) / math.sqrt(math.pi)
        assert gamma_ratio(s) == pytest.approx(two_term, abs=0.01)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            gamma_ratio(s)

    # the ratio 2/(sqrt(pi) s) overflows below s = 6.2768e-309; at 5e-324
    # s/2 rounds to 0, where lgamma itself fails
    @pytest.mark.parametrize("s", [6.2768e-309, 1e-310, 5e-324])
    def test_leaves_double_range(self, s):
        with pytest.raises(ConvergenceError,
                           match=f"leaves double range at s = {s}"):
            gamma_ratio(s)

    @pytest.mark.parametrize("s", [1e-300, 6.2769e-309])
    def test_finite_down_to_the_edge(self, s):
        assert gamma_ratio(s) == pytest.approx(_mp_gamma_ratio(s), rel=1e-15, abs=0)

    def test_log_grid_against_mpmath(self):
        # 1e-15 relative on 601 log-spaced s from 1e-300 to 1.7e308; the
        # former log-Gamma difference lost 1e-13 at both ends and all
        # digits from s of about 1e17, and raised from about 5.1e305
        for i in range(601):
            s = min(10.0 ** (-300 + i * 608.23 / 600), 1.7e308)
            assert gamma_ratio(s) == pytest.approx(
                _mp_gamma_ratio(s), rel=1e-15, abs=0), s

    @pytest.mark.parametrize("s", [1e3, 1e4, 1e9, 1e15, 1e17, 5.2e305, 1e306,
                                   sys.float_info.max])
    def test_large_order(self, s):
        # the former log-Gamma difference: 7.6e-14 off at 1e3, 8.1e-7 at
        # 1e9, 1.5 at 1e15, exactly 1.0 at 1e17, ConvergenceError from 5.1e305
        assert gamma_ratio(s) == pytest.approx(_mp_gamma_ratio(s), rel=1e-15, abs=0)

    @pytest.mark.parametrize("s", [15.99, 16.0, 16.01, 17.0, 18.0])
    def test_across_the_series_switch(self, s):
        # the series takes over from the recurrence at s/2 = 8
        assert gamma_ratio(s) == pytest.approx(_mp_gamma_ratio(s), rel=1e-15, abs=0)


class TestCosinePower:
    def test_exact_low_orders(self):
        assert cosine_power_integral(1.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
        assert cosine_power_integral(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_lemniscate_type_value(self):
        # (sqrt(pi)/2) Gamma(1/4)/Gamma(3/4), frozen from mpmath
        assert cosine_power_integral(0.5) == pytest.approx(2.62205755429211981, rel=1e-13)

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 2.0, 4.0])
    def test_quadrature_matches_closed_form(self, s):
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
        assert cosine_power_quadrature(s, cfg) == pytest.approx(
            cosine_power_integral(s), rel=1e-10)

    @pytest.mark.parametrize("s", [1e-300, 6.2769e-309])
    def test_unchanged_where_the_ratio_is_finite(self, s):
        assert cosine_power_integral(s) == 0.5 * math.sqrt(math.pi) * gamma_ratio(s)

    @pytest.mark.parametrize("s", [6.2768e-309, 5.6e-309, 5.5627e-309])
    def test_pole_where_the_ratio_overflows(self, s):
        # 1/s + ln 2 + O(s) is 1/s in double precision there
        with mpmath.workdps(30):
            exact = (mpmath.sqrt(mpmath.pi) / 2 * mpmath.gamma(mpmath.mpf(s) / 2)
                     / mpmath.gamma(0.5 + mpmath.mpf(s) / 2))
        assert cosine_power_integral(s) == float(exact) == 1.0 / s

    @pytest.mark.parametrize("s", [5.5626e-309, 1e-310, 5e-324])
    def test_leaves_double_range(self, s):
        with pytest.raises(ConvergenceError,
                           match=f"leaves double range at s = {s}"):
            cosine_power_integral(s)

    @pytest.mark.parametrize("s", [1e3, 1e306])
    def test_large_order(self, s):
        assert cosine_power_integral(s) == pytest.approx(
            _mp_gamma_ratio(s, cosine=True), rel=1e-15, abs=0)

    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            cosine_power_integral(s)
        with pytest.raises(DomainError):
            cosine_power_quadrature(s)

    def test_infinite_order(self):
        with pytest.raises(DomainError, match="needs finite s > 0, got inf"):
            cosine_power_integral(math.inf)
