import math
import random
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hubbard_gap import (ConvergenceError, DomainError, FitDegeneracyError,
                         a0_exact, a0_numeric, a1_constant, a1_exact,
                         a1_minus_b1,
                         b1_constant,
                         constants_report, dos_moment, dos_moment_exact,
                         dos_value_quadrature,
                         fit_laurent,
                         gap_ratio_expansion, j2_closed, j2_quadrature,
                         delta_asymptotic, mellin_difference,
                         neel_asymptotic, ratio_from_asymptotics,
                         regularized_limit, richardson_extrapolate, sech_log2_integral,
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

    def test_small_order_against_mpmath(self):
        s = 1e-150
        with mp.workdps(40):
            exact = (mp.power(4, s) * (1 + 2 * s * mp.log(2))
                     / (2 * mp.pi ** 2 * mp.mpf(s) ** 2))
        assert j2_closed(s) == pytest.approx(float(exact), rel=1e-15)

    @pytest.mark.parametrize("s", [507.0, 507.5, 512.0, 515.0, 518.0])
    def test_up_to_double_range(self, s):
        # 4^s (1 + 2 s ln 2) overflows from s = 507.27, J2 only from 518.4
        with mp.workdps(40):
            exact = mp.power(4, s) * (1 + 2 * s * mp.log(2)) / (2 * mp.pi ** 2 * s ** 2)
        assert j2_closed(s) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("s", [1.6e-155, 1e-155, 1e-300, 5e-324,
                                   518.5, 600.0, 1e300, math.inf])
    def test_leaves_double_range(self, s):
        # 1/s^2 overflows to inf or s * s underflows to 0; J2 overflows
        with pytest.raises(ConvergenceError, match=re.escape(
                f"log moment J2 (closed form) leaves double range at s = {s}")):
            j2_closed(s)


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

    def test_difference_leaves_double_range(self):
        # eps^(s-1) overflows on [1e-3, 4] at s = 1000
        with pytest.raises(ConvergenceError,
                           match=r"subtracted moment .* s = 1000\.0$"):
            mellin_difference(1000.0, CFG)


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


def _lstsq_numpy(grid, values):
    """The fit as ``numpy.linalg.lstsq`` solves it: coefficients and verdict."""
    s = np.asarray(grid)
    coef, _, rank, singular = np.linalg.lstsq(np.vander(s, 4, increasing=True),
                                              s * s * np.asarray(values), rcond=None)
    return coef[:3].tolist(), bool(rank < 4 or singular[-1] < 1e-13 * singular[0])


def _lstsq_60_digits(grid, values):
    """Least-squares coefficients from the normal equations at 60 digits."""
    with mp.workdps(60):
        rows = [[mp.mpf(s) ** k for k in range(4)] for s in grid]
        target = [mp.mpf(s) ** 2 * mp.mpf(v) for s, v in zip(grid, values)]
        gram = mp.matrix([[mp.fsum(r[i] * r[j] for r in rows) for j in range(4)]
                          for i in range(4)])
        rhs = mp.matrix([mp.fsum(r[i] * y for r, y in zip(rows, target))
                         for i in range(4)])
        coef = mp.lu_solve(gram, rhs)
        return [coef[k] for k in range(3)]


def _seeded_fit_problems(count=300, seed=16):
    """Descending grids of 4-8 log-uniform points spanning a factor 3-500,
    carrying J1, J1 - J2 (both closed form) or a noisy Laurent series."""
    rng = random.Random(seed)
    for index in range(count):
        low = math.exp(rng.uniform(math.log(1e-3), math.log(0.1)))
        high = low * math.exp(rng.uniform(math.log(3.0), math.log(500.0)))
        grid = sorted({math.exp(rng.uniform(math.log(low), math.log(high)))
                       for _ in range(rng.randint(4, 8))}, reverse=True)
        if index % 3 == 0:
            values = [dos_moment_exact(s) for s in grid]
        elif index % 3 == 1:
            values = [dos_moment_exact(s) - j2_closed(s) for s in grid]
        else:
            c = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            values = [c[0] / s ** 2 + c[1] / s + c[2] + rng.gauss(0.0, 1e-3)
                      for s in grid]
        yield grid, values


#: every grid the tests and tools/cli_guard.py run ``regularize`` or the fit on
EXISTING_GRIDS = [DEFAULT_GRID, FINE_GRID, [0.4, 0.2, 0.1, 0.05],
                  [1.0, 0.4, 0.2, 0.1]]


def _existing_fit_problems():
    for grid in EXISTING_GRIDS:
        limit = regularized_limit(grid, CFG)
        yield grid, limit.j1_values
        yield grid, limit.difference_values
    yield [0.4, 0.2, 0.1, 0.05], [2.0 / s ** 2 - 3.0 / s + 0.7 + 0.1 * s
                                  for s in [0.4, 0.2, 0.1, 0.05]]


class TestJacobiFit:
    """The plain-Python SVD fit against numpy's LAPACK route and 60 digits."""

    def test_coefficients_no_worse_than_lstsq(self):
        problems = [*_seeded_fit_problems(), *_existing_fit_problems()]
        assert len(problems) >= 300
        worst = {"jacobi": 0.0, "lstsq": 0.0}
        for grid, values in problems:
            reference = _lstsq_60_digits(grid, values)
            fit = fit_laurent(grid, values)
            for route, coef in (("jacobi", [fit.c_m2, fit.c_m1, fit.c_0]),
                                ("lstsq", _lstsq_numpy(grid, values)[0])):
                worst[route] = max(worst[route], *(
                    float(abs(c - r) / abs(r)) for c, r in zip(coef, reference)))
        assert worst["jacobi"] <= worst["lstsq"], worst

    def test_degeneracy_verdict_matches_lstsq(self):
        # grids of 4-8 points within a relative width w of one another;
        # sigma_min/sigma_max crosses 1e-13 for w between about 3e-3 and 5e-2
        rng = random.Random(7)
        near_degenerate = []
        for _ in range(500):
            center = math.exp(rng.uniform(math.log(1e-3), 0.0))
            width = 10.0 ** rng.uniform(-3.0, -1.0)
            grid = sorted({center * (1.0 + width * rng.random())
                           for _ in range(rng.randint(4, 8))}, reverse=True)
            near_degenerate.append((grid, [1.0] * len(grid)))
        clustered = [0.1 + 3e-6, 0.1 + 2e-6, 0.1 + 1e-6, 0.1]
        verdicts = []
        for grid, values in [*_existing_fit_problems(), (clustered, [1.0] * 4),
                             *near_degenerate]:
            _, degenerate = _lstsq_numpy(grid, values)
            verdicts.append(degenerate)
            if degenerate:
                with pytest.raises(FitDegeneracyError):
                    fit_laurent(grid, values)
            else:
                fit_laurent(grid, values)
        # the clustered grid is degenerate, and the seeded ones fall both ways
        assert verdicts[-501] and 100 < sum(verdicts[-500:]) < 400

    def test_extrapolation_is_the_float64_tableau(self):
        # the same IEEE operations as the tableau on numpy float64 scalars
        def neville_float64(grid, values):
            s = np.asarray(grid, dtype=float)
            p = [float(v) for v in values]
            for level in range(1, len(p)):
                for i in range(len(p) - level):
                    p[i] = (s[i] * p[i + 1] - s[i + level] * p[i]) / (s[i] - s[i + level])
            return p[0]

        for grid, values in [*_seeded_fit_problems(60), *_existing_fit_problems()]:
            assert (richardson_extrapolate(grid, values)
                    == neville_float64(grid, values))


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

    def test_exact_within_half_ulp(self):
        # the closed form through the first Stieltjes constant, and the
        # defining combination -4 pi^2 a0 - S + (2 ln 2)^2 + (gamma + 2 ln 2
        # - ln pi)^2 with S integrated, both at 40 digits
        with mp.workdps(40):
            ln2 = mp.log(2)
            closed = mp.euler ** 2 + 2 * mp.stieltjes(1) + 2 * ln2 ** 2 - mp.pi ** 2 / 12
            sech = mp.quad(lambda x: mp.log(x) ** 2 / mp.cosh(x) ** 2,
                           [0, 1, 4, 20, mp.inf])
            a0 = ln2 ** 2 / mp.pi ** 2 - mp.mpf(1) / 24
            integral = (-4 * mp.pi ** 2 * a0 - sech + (2 * ln2) ** 2
                        + (mp.euler + 2 * ln2 - mp.log(mp.pi)) ** 2)
            half_ulp = math.ulp(a1_exact()) / 2
            for reference in (closed, integral):
                assert abs(mp.mpf(a1_exact()) - reference) <= half_ulp
        assert a1_exact() == pytest.approx(
            a1_constant(a0_exact(), sech_log2_integral(CFG)), abs=1e-13)


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

    def test_underflow_to_zero(self):
        # 18.1 exp(-sqrt(4 pi^2/u + a1)) is subnormal but nonzero at
        # u = 7.2e-5 and underflows to 0 between 7.15e-5 and 7.1e-5
        assert 0.0 < neel_asymptotic(7.2e-5, 0.3260) < sys.float_info.min
        for u in (7.1e-5, 1e-300):
            with pytest.raises(ConvergenceError, match=f"Neel scale .* u = {u}$"):
                neel_asymptotic(u, 0.3260)


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


class TestRatioFromAsymptotics:
    def test_within_4_ulp_of_mpmath(self):
        # the quotient of the two exponentials was up to ~940 ulp off here
        rng = random.Random(28)
        a1 = a1_exact()
        with mp.workdps(40):
            leading = mp.pi * mp.exp(-mp.euler)
            for _ in range(2000):
                u = math.exp(rng.uniform(math.log(1e-4), math.log(100.0)))
                r = 4 * mp.pi ** 2 / mp.mpf(u)
                exact = leading * mp.exp(mp.sqrt(r + mp.mpf(a1)) - mp.sqrt(r))
                value = ratio_from_asymptotics(u, a1)
                assert abs(mp.mpf(value) - exact) <= 4 * math.ulp(value), u

    @pytest.mark.parametrize("u", [1e-4, 0.01, 1.0, 100.0])
    def test_is_the_quotient_of_the_scales(self, u):
        quotient = delta_asymptotic(u) / neel_asymptotic(u, a1_exact())
        assert ratio_from_asymptotics(u, a1_exact()) == pytest.approx(
            quotient, rel=1e-12)

    def test_underflow_and_domain(self):
        with pytest.raises(ConvergenceError, match="Neel scale .* u = 1e-300$"):
            ratio_from_asymptotics(1e-300, a1_exact())
        with pytest.raises(DomainError):
            ratio_from_asymptotics(0.0, a1_exact())


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
