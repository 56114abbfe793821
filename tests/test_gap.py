import math

import mpmath
import numpy as np
import pytest

from hubbard_gap import (ConvergenceError, DomainError, GapParams,
                         asymptotic_comparison, delta_asymptotic,
                         dos_pushforward_oracle, gap_rhs, gap_rhs_sinh,
                         gap_solve, i1_closed, i1_quadrature, i1_small_delta,
                         i2_numeric)
from hubbard_gap.dos import DEFAULT_CONFIG, _ellipkm1
from hubbard_gap.renorm import a0_numeric, b1_constant

CFG = DEFAULT_CONFIG
FOUR_PI_SQ = 4.0 * math.pi ** 2

# roots of the gap equation, frozen from the bracketing solve and confirmed
# against a 30-digit independent evaluation of the same equation
DELTA_FROZEN = {
    2.0: 0.3760840996808705,
    1.0: 0.05975543108016585,
    0.5: 0.004427011957884718,
    0.3: 3.335430818565070e-4,
}

# measured |I2|/(Delta^2 ln^2 Delta) tops out near 7.3e-4 on the test grid
I2_RATIO_BOUND = 2e-3
# measured |i1_closed - i1_small_delta|/Delta^2 is ~7.02e-4 throughout
I1_REMAINDER_BOUND = 2e-3


class TestParams:
    def test_negative_coupling(self):
        with pytest.raises(DomainError, match="coupling must be positive"):
            GapParams(u=-1.0)

    def test_zero_hopping(self):
        with pytest.raises(DomainError, match="hopping must be positive"):
            GapParams(u=1.0, t=0.0)


class TestI1:
    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1, 1.0, 4.0])
    def test_closed_form_matches_quadrature(self, delta):
        assert abs(i1_closed(delta) - i1_quadrature(delta, CFG)) < 1e-10

    def test_derivative_consistency(self):
        h = 1e-3
        fd_closed = (i1_closed(0.5 + h) - i1_closed(0.5 - h)) / (2.0 * h)
        fd_quad = (i1_quadrature(0.5 + h, CFG)
                   - i1_quadrature(0.5 - h, CFG)) / (2.0 * h)
        assert fd_closed == pytest.approx(fd_quad, abs=1e-6)

    def test_small_delta_form_at_one(self):
        # ln(Delta) = 0 collapses the expansion to its constant part
        expected = (math.pi ** 2 + 126.0 * math.log(2.0) ** 2) / (24.0 * math.pi ** 2)
        assert i1_small_delta(1.0) == pytest.approx(expected, rel=1e-14)
        assert i1_small_delta(1.0) == pytest.approx(0.297237, abs=1e-6)

    def test_small_delta_formal_evaluation(self):
        # outside its validity range the expansion is still a plain formula
        ln32, ln2 = math.log(32.0), math.log(2.0)
        expected = (6.0 * ln32 ** 2 - 60.0 * ln2 * ln32
                    + math.pi ** 2 + 126.0 * ln2 ** 2) / (24.0 * math.pi ** 2)
        assert i1_small_delta(32.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("delta", np.geomspace(1e-4, 0.1, 7).tolist())
    def test_small_delta_remainder_quadratic(self, delta):
        remainder = abs(i1_closed(delta) - i1_small_delta(delta))
        assert remainder < I1_REMAINDER_BOUND * delta ** 2

    def test_large_delta_limit(self):
        # sqrt(Delta^2 + eps^2) ~ Delta flattens the kernel
        expected = 2.0 * (math.log(4.0) + 1.0) / (math.pi ** 2 * 100.0)
        assert i1_quadrature(100.0, CFG) == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("func", [i1_closed, i1_small_delta])
    def test_domain(self, func):
        with pytest.raises(DomainError):
            func(0.0)


class TestI2:
    def test_vanishes_at_tiny_gap(self):
        assert abs(i2_numeric(1e-4)) < 1e-6

    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1])
    def test_quadratic_log_bound(self, delta):
        ratio = abs(i2_numeric(delta)) / (delta ** 2 * math.log(delta) ** 2)
        assert ratio < I2_RATIO_BOUND

    def test_decomposition(self):
        a0 = a0_numeric(CFG)
        for delta in (0.01, 0.1, 1.0):
            assembled = a0 + i1_closed(delta) + i2_numeric(delta)
            assert abs(assembled - gap_rhs_sinh(delta, CFG)) < 1e-8


class TestGapRhs:
    def test_strictly_decreasing(self):
        grid = np.geomspace(1e-6, 10.0, 9)
        values = [gap_rhs(float(d)) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1, 1.0, 3.9])
    def test_paths_agree(self, delta):
        assert abs(gap_rhs(delta) - gap_rhs_sinh(delta, CFG)) < 1e-8

    def test_brillouin_zone_path(self):
        delta = 0.5
        raw = dos_pushforward_oracle(
            lambda e: 1.0 / (2.0 * np.sqrt(delta * delta + e * e)), CFG)
        assert raw == pytest.approx(gap_rhs(delta), rel=1e-6)

    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1])
    def test_small_gap_expansion(self, delta):
        # rhs approaches ln^2(Delta/32)/(4 pi^2) at the quadratic-log rate
        deviation = abs(gap_rhs(delta)
                        - math.log(delta / 32.0) ** 2 / FOUR_PI_SQ)
        assert deviation < 2e-3 * delta ** 2 * math.log(delta) ** 2

    def test_near_root_value(self):
        # frozen from the solver (the point sits 4.6e-5 above the root scale)
        assert gap_rhs(0.0597584) == pytest.approx(0.999984184154, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            gap_rhs(0.0)


def _elliptic_rhs(delta):
    """The right side in closed form, 4 K(1-p)^2 / (pi^2 (Delta + h)), with
    h = hypot(Delta, 4) and p = 2 Delta / (Delta + h)."""
    h = math.hypot(delta, 4.0)
    k = _ellipkm1(2.0 * delta / (delta + h))
    return 4.0 / math.pi ** 2 * k ** 2 / (delta + h)


def _mp_elliptic_rhs(delta):
    with mpmath.workdps(40):
        delta = mpmath.mpf(delta)
        h = mpmath.sqrt(delta * delta + 16)
        k = mpmath.ellipk(1 - 2 * delta / (delta + h))
        return float(4 * k ** 2 / (mpmath.pi ** 2 * (delta + h)))


def _log_grid(lo, hi, n=400):
    return [10.0 ** (lo + i * (hi - lo) / (n - 1)) for i in range(n)]


class TestEllipticClosedForm:
    """``gap_rhs`` (a0 + I1 + I2) against the elliptic closed form of the
    whole right side, which no production route evaluates."""

    @pytest.mark.parametrize("lo, hi, bound", [(-8, 1, 1e-15), (1, 3, 4e-15)],
                             ids=["1e-8..10", "10..1e3"])
    def test_gap_rhs_is_the_closed_form(self, lo, hi, bound):
        # worst measured 8.6e-16 and 2.1e-15
        for delta in _log_grid(lo, hi):
            assert gap_rhs(delta) == pytest.approx(
                _elliptic_rhs(delta), rel=bound, abs=0), delta

    @pytest.mark.parametrize("lo, hi", [(-8, 1), (1, 3)], ids=["1e-8..10", "10..1e3"])
    def test_closed_form_against_mpmath(self, lo, hi):
        # worst measured 6.5e-16
        for delta in _log_grid(lo, hi):
            assert _elliptic_rhs(delta) == pytest.approx(
                _mp_elliptic_rhs(delta), rel=1e-15, abs=0), delta

    @pytest.mark.xfail(strict=True, reason="a0 + I1 + I2 cancels at large gaps "
                       "(7.3e-8 relative at 2.1e11); the large-gap series of the "
                       "whole right side removes it")
    def test_large_gap(self):
        delta = 2.1e11
        assert gap_rhs(delta) == pytest.approx(_mp_elliptic_rhs(delta), rel=4e-15, abs=0)


class TestBracket:
    # gap_solve never lowers its bracket's lower end guess/4 < 8: f(guess/4)
    # > 0 holds while rhs - ln^2(32/Delta)/(4 pi^2) > -ln^2(4)/(4 pi^2) =
    # -0.0487, and the measured minimum of that difference is -3.24e-4
    def test_rhs_above_leading_term(self):
        grid = np.concatenate([np.geomspace(1e-300, 8.0, 400),
                               np.linspace(0.01, 8.0, 200)])
        lowest = min(gap_rhs(float(d)) - math.log(32.0 / d) ** 2 / FOUR_PI_SQ
                     for d in grid)
        assert -1e-3 < lowest < 0.0

    @pytest.mark.parametrize("u", np.geomspace(0.1, 1000.0, 9).tolist())
    def test_lower_end_is_quarter_guess(self, u):
        solution = gap_solve(GapParams(u=u))
        guess = delta_asymptotic(u)
        assert solution.bracket[0] == 0.25 * guess
        # the upper end is 4 guess, grown by whole factors of 4
        growth = math.log(solution.bracket[1] / (4.0 * guess), 4.0)
        assert growth == pytest.approx(round(growth), abs=1e-9)


class TestGapSolve:
    @pytest.mark.parametrize("u", sorted(DELTA_FROZEN))
    def test_frozen_roots(self, u):
        solution = gap_solve(GapParams(u=u))
        assert solution.delta == pytest.approx(DELTA_FROZEN[u], rel=1e-9)

    def test_solution_contract(self):
        solution = gap_solve(GapParams(u=1.0))
        assert solution.delta > 0
        assert solution.residual < 1e-12
        assert solution.bracket[0] < solution.delta < solution.bracket[1]
        assert solution.evaluations > 0

    def test_scaling_property(self):
        base = gap_solve(GapParams(u=1.0)).delta
        scaled = gap_solve(GapParams(u=2.0, t=2.0)).delta
        assert scaled == pytest.approx(2.0 * base, rel=1e-10)

    def test_monotone_in_coupling(self):
        deltas = [gap_solve(GapParams(u=u)).delta
                  for u in (0.3, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))

    def test_strong_coupling_relative_residual_gate(self):
        # the root found at u = 1e9 is 3.9e-7 off (true gap ~ u/2): its
        # absolute residual 4e-16 passes, its relative residual does not
        with pytest.raises(ConvergenceError, match="relative gap residual"):
            gap_solve(GapParams(u=1e9))

    def test_large_coupling_formal_point(self):
        # radicand 4 pi^2/u = 1 at u = 4 pi^2; asymptotic value is 32/e
        assert delta_asymptotic(FOUR_PI_SQ) == pytest.approx(32.0 / math.e, rel=1e-14)


class TestAsymptotic:
    def test_reference_point(self):
        assert delta_asymptotic(1.0) == pytest.approx(
            32.0 * math.exp(-2.0 * math.pi), rel=1e-15)

    def test_negative_radicand(self):
        with pytest.raises(DomainError):
            delta_asymptotic(1.0, b1=-40.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_asymptotic(0.0)

    def test_shift_from_numeric_b1_is_negligible(self):
        b1 = b1_constant(a0_numeric(CFG))
        shifted = delta_asymptotic(1.0, b1=b1)
        assert abs(shifted / delta_asymptotic(1.0) - 1.0) < 1e-7

    def test_error_law(self):
        # deviation tracks exp(-4 pi/sqrt(u))/sqrt(u); the minimal single
        # constant covering u in [0.3, 2] is ~18.6 (it grows toward ~8 pi
        # in the weak-coupling limit)
        comps = [asymptotic_comparison(u) for u in (2.0, 1.0, 0.5, 0.3)]
        rel_devs = [c.rel_dev for c in comps]
        assert all(a > b for a, b in zip(rel_devs, rel_devs[1:]))
        ratios = [c.rel_dev / c.bound_scale for c in comps]
        assert max(ratios) < 21.0
        assert min(ratios) > 1.0

    def test_frozen_deviations(self):
        comp = asymptotic_comparison(1.0)
        assert comp.rel_dev == pytest.approx(4.579013e-5, rel=1e-4)
        comp = asymptotic_comparison(0.5)
        assert comp.rel_dev == pytest.approx(4.505927e-7, rel=1e-3)
