import math

import pytest
from hypothesis import given, strategies as st

from hubbard_gap import (DomainError, FitDegeneracyError, a0_exact,
                         a0_numeric, a1_constant, a1_minus_b1, b1_constant,
                         constants_report, dos_moment, dos_value_quadrature,
                         fit_laurent,
                         gap_ratio_expansion, j2_closed, j2_quadrature,
                         delta_asymptotic, mellin_difference,
                         neel_asymptotic, regularized_limit,
                         richardson_extrapolate, sech_log2_integral,
                         sech_log2_integral_direct)
from hubbard_gap.dos import DEFAULT_CONFIG
from hubbard_gap.renorm import EULER_GAMMA
from hubbard_gap.dos import dos_log_subtracted

CFG = DEFAULT_CONFIG
PI2 = math.pi ** 2

# frozen from a 30-digit tanh-sinh evaluation of the same integral
SECH_INTEGRAL = 1.9893497575356897

DEFAULT_GRID = [0.4, 0.2, 0.1, 0.05, 0.025]
FINE_GRID = [0.1, 0.05, 0.025, 0.0125, 0.00625]


class TestA0:
    def test_exact_formula(self):
        assert a0_exact() == pytest.approx(
            math.log(2.0) ** 2 / PI2 - 1.0 / 24.0, rel=1e-16)
        # matches the four-digit reference 0.007013
        assert a0_exact() == pytest.approx(0.007013, abs=5e-7)

    def test_numeric_agrees_with_exact(self):
        assert abs(a0_numeric(CFG) - a0_exact()) < 1e-8

    def test_scaled_combination(self):
        combo = 4.0 * PI2 * a0_exact()
        assert combo == pytest.approx(4.0 * math.log(2.0) ** 2 - PI2 / 6.0,
                                      rel=1e-14)
        assert combo == pytest.approx(0.27688, abs=1e-5)

    def test_integrand_spot_value(self):
        direct = (dos_value_quadrature(0.5, CFG)
                  - math.log(32.0) / (2.0 * PI2)) / 0.5
        assert dos_log_subtracted(0.5) / 0.5 == pytest.approx(direct, abs=1e-11)


class TestB1:
    def test_zero_at_exact_a0(self):
        assert b1_constant(a0_exact()) == 0.0

    def test_value_at_zero(self):
        expected = 4.0 * math.log(2.0) ** 2 - PI2 / 6.0
        assert b1_constant(0.0) == pytest.approx(expected, rel=1e-14)
        assert b1_constant(0.0) == pytest.approx(0.27688, abs=1e-5)

    def test_numeric_nullity(self):
        assert abs(b1_constant(a0_numeric(CFG))) < 4.0 * PI2 * 1e-8


class TestJ2:
    def test_closed_form_values(self):
        assert j2_closed(1.0) == pytest.approx(
            2.0 * (math.log(4.0) + 1.0) / PI2, rel=1e-14)
        assert j2_closed(1.0) == pytest.approx(0.48356, abs=1e-5)
        assert j2_closed(2.0) == pytest.approx(
            16.0 * (1.0 + 4.0 * math.log(2.0)) / (8.0 * PI2), rel=1e-14)

    def test_double_pole(self):
        s = 1e-4
        assert 2.0 * PI2 * s * s * j2_closed(s) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_quadrature_companion(self, s):
        assert j2_quadrature(s, CFG) == pytest.approx(j2_closed(s), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            j2_closed(0.0)


class TestMellinPair:
    def test_unit_order(self):
        j1, j2 = dos_moment(1.0, CFG), j2_closed(1.0)
        assert j1 == pytest.approx(0.5, abs=1e-10)
        assert j2 == pytest.approx(0.4835643384, abs=1e-9)
        assert j1 - j2 == pytest.approx(0.0164356616, abs=1e-8)

    def test_difference_tends_to_a0_linearly(self):
        # intercept of the linear trend in s recovers a0
        grid = [0.2, 0.1, 0.05]
        diffs = [mellin_difference(s, CFG) for s in grid]
        slope = (diffs[0] - diffs[2]) / (grid[0] - grid[2])
        intercept = diffs[2] - slope * grid[2]
        assert intercept == pytest.approx(a0_exact(), abs=5e-4)

    def test_difference_near_zero_order(self):
        assert mellin_difference(0.01, CFG) == pytest.approx(a0_exact(),
                                                             abs=1e-3)

    def test_difference_consistent_with_pair(self):
        assert mellin_difference(0.1, CFG) == pytest.approx(
            dos_moment(0.1, CFG) - j2_closed(0.1), abs=1e-6)

    def test_divergence_cancellation_along_grid(self):
        scaled_quadratic = [s * s * mellin_difference(s, CFG)
                            for s in DEFAULT_GRID]
        scaled_linear = [s * mellin_difference(s, CFG) for s in DEFAULT_GRID]
        assert abs(scaled_quadratic[-1]) < abs(scaled_quadratic[0])
        assert abs(scaled_linear[-1]) < abs(scaled_linear[0])
        assert abs(scaled_quadratic[-1]) < 1e-5
        assert abs(scaled_linear[-1]) < 1e-3


class TestLaurentMachinery:
    def test_recovers_synthetic_coefficients(self):
        grid = [0.4, 0.2, 0.1, 0.05]
        values = [2.0 / s ** 2 - 3.0 / s + 0.7 + 0.1 * s for s in grid]
        fit = fit_laurent(grid, values)
        assert fit.c_m2 == pytest.approx(2.0, abs=1e-10)
        assert fit.c_m1 == pytest.approx(-3.0, abs=1e-9)
        assert fit.c_0 == pytest.approx(0.7, abs=1e-9)
        assert fit.fit_residual < 1e-10

    def test_short_grid_rejected(self):
        with pytest.raises(FitDegeneracyError):
            fit_laurent([0.4, 0.2, 0.1], [1.0, 2.0, 3.0])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(DomainError):
            fit_laurent([0.1, 0.2, 0.05, 0.025], [1.0] * 4)

    def test_negative_grid_rejected(self):
        with pytest.raises(DomainError):
            fit_laurent([0.4, 0.2, -0.1, 0.05], [1.0] * 4)

    def test_richardson_polynomial_exact(self):
        grid = [0.4, 0.2, 0.1, 0.05]
        values = [1.5 + 2.0 * s - s ** 2 + 0.3 * s ** 3 for s in grid]
        assert richardson_extrapolate(grid, values) == pytest.approx(
            1.5, abs=1e-12)


class TestRegularizedLimit:
    def test_exact_moment_path_reproduces_series(self):
        # the closed-form moments carry the same Laurent structure
        from hubbard_gap import dos_moment_exact
        fit = fit_laurent(FINE_GRID, [dos_moment_exact(s) for s in FINE_GRID])
        assert fit.c_m2 == pytest.approx(1.0 / (2.0 * PI2), abs=1e-6)
        assert fit.c_m1 == pytest.approx(2.0 * math.log(2.0) / PI2, abs=1e-4)
        assert fit.c_0 == pytest.approx(
            4.0 * math.log(2.0) ** 2 / PI2 - 1.0 / 24.0, abs=1e-3)

    def test_j1_pole_coefficient_on_coarse_grid(self):
        result = regularized_limit([0.4, 0.2, 0.1, 0.05], CFG)
        assert result.j1_fit.c_m2 == pytest.approx(1.0 / (2.0 * PI2), abs=1e-4)

    def test_laurent_structure_on_fine_grid(self):
        result = regularized_limit(FINE_GRID, CFG)
        assert result.j1_fit.c_m2 == pytest.approx(1.0 / (2.0 * PI2), abs=1e-6)
        assert result.j1_fit.c_m1 == pytest.approx(2.0 * math.log(2.0) / PI2,
                                                   abs=1e-4)
        # the constant term of J1 carries the extra -1/24 relative to J2
        assert result.j1_fit.c_0 == pytest.approx(
            4.0 * math.log(2.0) ** 2 / PI2 - 1.0 / 24.0, abs=1e-3)
        assert abs(result.difference_fit.c_m2) < 1e-5
        assert abs(result.difference_fit.c_m1) < 1e-5
        assert result.difference_fit.c_0 == pytest.approx(a0_exact(), abs=1e-4)

    def test_extrapolation_hits_a0(self):
        for grid, tol in ((DEFAULT_GRID, 1e-8), (FINE_GRID, 1e-10)):
            result = regularized_limit(grid, CFG)
            assert result.difference_extrapolated == pytest.approx(
                a0_exact(), abs=tol)


class TestSechIntegral:
    def test_frozen_value(self):
        assert sech_log2_integral(CFG) == pytest.approx(SECH_INTEGRAL,
                                                        rel=1e-12)

    def test_parameterizations_agree(self):
        sub = sech_log2_integral(CFG)
        direct = sech_log2_integral_direct(CFG)
        assert abs(sub - direct) < 1e-10

    def test_tail_negligible(self):
        from scipy.integrate import quad
        tail, _ = quad(lambda x: math.log(x) ** 2 / math.cosh(x) ** 2,
                       20.0, 60.0, epsabs=1e-20, epsrel=1e-12)
        assert tail < 1e-15

    def test_back_solved_consistency(self):
        # solving the a1 definition for the integral with a1 ~ 0.3260
        cross = EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi)
        back_solved = (-4.0 * PI2 * a0_exact() - 0.3260
                       + (2.0 * math.log(2.0)) ** 2 + cross ** 2)
        assert sech_log2_integral(CFG) == pytest.approx(back_solved, abs=5e-4)


class TestA1:
    def test_reference_value(self):
        a1 = a1_constant(a0_exact(), sech_log2_integral(CFG))
        assert a1 == pytest.approx(0.3260, abs=5e-4)

    def test_zeroed_inputs(self):
        cross = EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi)
        expected = (2.0 * math.log(2.0)) ** 2 + cross ** 2
        assert a1_constant(0.0, 0.0) == pytest.approx(expected, rel=1e-14)
        assert a1_constant(0.0, 0.0) == pytest.approx(2.59221, abs=1e-5)

    @given(st.floats(min_value=-0.1, max_value=0.1),
           st.floats(min_value=0.0, max_value=4.0))
    def test_two_routes_coincide(self, a0, sech):
        direct = a1_constant(a0, sech) - b1_constant(a0)
        assert abs(direct - a1_minus_b1(sech)) < 1e-10


class TestNeel:
    def test_leading_value(self):
        expected = (32.0 / (math.pi * math.exp(-EULER_GAMMA))
                    * math.exp(-2.0 * math.pi))
        assert neel_asymptotic(1.0, 0.0) == pytest.approx(expected, rel=1e-14)
        assert neel_asymptotic(1.0, 0.0) == pytest.approx(0.033879, abs=5e-6)

    def test_positive_shift_lowers_scale(self):
        assert neel_asymptotic(1.0, 0.3260) < neel_asymptotic(1.0, 0.0)

    def test_ratio_tends_to_leading_constant(self):
        leading = math.pi * math.exp(-EULER_GAMMA)
        gaps = []
        for u in (1e-2, 1e-3, 1e-4):
            ratio = delta_asymptotic(u, 0.0) / neel_asymptotic(u, 0.3260)
            gaps.append(abs(ratio / leading - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            neel_asymptotic(0.0, 0.0)
        with pytest.raises(DomainError):
            neel_asymptotic(1.0, -40.0)


class TestGapRatio:
    def test_leading_limit(self):
        leading = math.pi * math.exp(-EULER_GAMMA)
        assert gap_ratio_expansion(1e-12, 0.3260, 0.0) == pytest.approx(
            leading, rel=1e-6)

    def test_two_term_spot_value(self):
        value = gap_ratio_expansion(0.04, 0.3260, 0.0)
        expected = (math.pi * math.exp(-EULER_GAMMA)
                    + 0.25 * math.exp(-EULER_GAMMA) * 0.3260 * 0.2)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(1.77303, abs=1e-5)

    def test_expansion_consistent_with_asymptotics(self):
        a0n = a0_numeric(CFG)
        b1 = b1_constant(a0n)
        a1 = a1_constant(a0n, sech_log2_integral(CFG))
        scaled = []
        for u in (0.1, 0.04, 0.01):
            two_term = gap_ratio_expansion(u, a1, b1)
            from_asym = delta_asymptotic(u, b1) / neel_asymptotic(u, a1)
            scaled.append(abs(from_asym - two_term) / u)
        # O(u) remainder: the scaled residual stays bounded and flat
        assert max(scaled) < 1e-3
        assert max(scaled) / min(scaled) < 3.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gap_ratio_expansion(0.0, 0.3260, 0.0)


class TestConstantsReport:
    def test_report_contract(self):
        report = constants_report(CFG)
        assert report.a0_exact == a0_exact()
        assert report.deviations["a0_numeric_vs_exact"] < 1e-8
        assert abs(report.b1) < 4e-7
        assert report.a1 == pytest.approx(0.3260, abs=5e-4)
        assert report.deviations["a1_minus_b1_route_gap"] < 1e-10
        assert report.gap_ratio_leading == pytest.approx(
            math.pi * math.exp(-EULER_GAMMA), rel=1e-15)
        assert report.gap_ratio_slope == pytest.approx(
            0.25 * math.exp(-EULER_GAMMA) * report.a1, rel=1e-15)

    def test_leading_constant_against_independent_digits(self):
        # frozen from 30-digit arithmetic of pi e^(-gamma)
        report = constants_report(CFG)
        assert report.gap_ratio_leading == pytest.approx(
            1.76387698886204569, abs=1e-12)
