"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 04 is expected to fail: it pins the u = 1 gap at 5.97584e-2
(within 5e-6) and an error constant below 10, but the unique root of the
equation as defined is 5.9755431e-2 and the minimal constant covering
u in [0.3, 2] is ~18.6.  Two independent 15+-digit evaluations agree on
those numbers; the test keeps the stated thresholds rather than loosening
them.  See tests/test_gap.py for the frozen true values.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from hubbard_gap import (GapParams, a0_exact, a0_numeric, a1_constant,
                         a1_minus_b1, asymptotic_comparison, b1_constant,
                         dilog, dilog_inversion_residual, dos_asymptotic,
                         dos_moment, dos_moment_exact,
                         dos_pushforward_oracle, dos_value_quadrature,
                         gap_rhs_sinh,
                         gap_solve, i1_closed, i1_quadrature, i1_small_delta,
                         i2_numeric, regularized_limit, sech_log2_integral)
from hubbard_gap.dos import DEFAULT_CONFIG
from hubbard_gap.renorm import EULER_GAMMA

CFG = DEFAULT_CONFIG
PI2 = math.pi ** 2


@contextlib.contextmanager
def reported(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def test_criterion_01_a0_reproduction():
    with reported(1, "a0 closed form"):
        start = time.perf_counter()
        a0 = a0_numeric(CFG)
        elapsed = time.perf_counter() - start
        assert abs(a0 - (math.log(2.0) ** 2 / PI2 - 1.0 / 24.0)) < 1e-8
        assert elapsed < 10.0


def test_criterion_02_b1_nullity():
    with reported(2, "b1 vanishes"):
        assert abs(b1_constant(a0_numeric(CFG))) < 4e-7


def test_criterion_03_moment_identity():
    with reported(3, "moment closed form"):
        start = time.perf_counter()
        deviations = [abs(dos_moment(s, CFG) / dos_moment_exact(s) - 1.0)
                      for s in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)]
        assert max(deviations) < 1e-8
        assert abs(dos_moment(1.0, CFG) - 0.5) < 1e-10
        assert time.perf_counter() - start < 30.0


def test_criterion_04_weak_coupling_asymptotics():
    with reported(4, "weak-coupling gap asymptotics"):
        start = time.perf_counter()
        comparisons = [asymptotic_comparison(u)
                       for u in (2.0, 1.0, 0.5, 0.3)]
        for comp in comparisons:
            print(f"    u={comp.u}: delta={comp.delta_numeric:.10e} "
                  f"rel_dev={comp.rel_dev:.4e} "
                  f"ratio={comp.rel_dev / comp.bound_scale:.3f}")
        rel_devs = [c.rel_dev for c in comparisons]
        assert all(a > b for a, b in zip(rel_devs, rel_devs[1:]))
        fitted_c = max(c.rel_dev / c.bound_scale for c in comparisons)
        assert 0.0 < fitted_c < 10.0, (
            f"minimal constant covering the grid is {fitted_c:.3f}")
        delta_u1 = comparisons[1].delta_numeric
        assert abs(delta_u1 / 0.0597584 - 1.0) <= 5e-6, (
            f"u=1 gap is {delta_u1:.10e}")
        assert time.perf_counter() - start < 60.0


def test_criterion_05_i1_closed_form():
    with reported(5, "log-kernel integral closed form"):
        for delta in (1e-3, 1e-2, 0.1, 1.0, 4.0):
            assert abs(i1_closed(delta) - i1_quadrature(delta, CFG)) < 1e-10
        grid = np.geomspace(1e-4, 0.1, 7)
        remainders = [abs(i1_closed(float(d)) - i1_small_delta(float(d)))
                      for d in grid]
        exponent = np.polyfit(np.log(grid), np.log(remainders), 1)[0]
        assert abs(exponent - 2.0) < 0.15


def test_criterion_06_i2_bound():
    with reported(6, "subtracted remainder bound"):
        ratios = [abs(i2_numeric(d)) / (d * d * math.log(d) ** 2)
                  for d in (1e-3, 1e-2, 0.1)]
        # measured ratios stay near 3e-4..7e-4; one constant covers them
        assert max(ratios) < 2e-3


def test_criterion_07_decomposition():
    with reported(7, "three-piece decomposition"):
        a0 = a0_numeric(CFG)
        for delta in (0.01, 0.1, 1.0):
            assembled = a0 + i1_closed(delta) + i2_numeric(delta)
            direct = gap_rhs_sinh(delta, CFG)
            assert abs(assembled - direct) < 1e-8


def test_criterion_08_dos_expansion_and_oracle():
    with reported(8, "DOS expansion and pushforward oracle"):
        for eps in np.geomspace(1e-3, 0.1, 9):
            diff = abs(dos_value_quadrature(float(eps), CFG)
                       - dos_asymptotic(float(eps)))
            assert diff / (eps ** 4 * math.log(1.0 / eps)) < 5e-3
        test_functions = [
            lambda e: 1.0 if np.isscalar(e) else np.ones_like(e),
            lambda e: e * e,
            lambda e: np.abs(e),
            lambda e: np.where(np.asarray(e) > 0.0, e, 0.0),
            np.cos,
        ]
        for g in test_functions:
            oracle = dos_pushforward_oracle(g, CFG)
            lhs, _ = quad(lambda e: float(np.asarray(g(e) + g(-e)))
                          * dos_value_quadrature(e, CFG),
                          0.0, 4.0, epsabs=1e-10, epsrel=1e-8, limit=200)
            assert lhs == pytest.approx(oracle, rel=1e-6)


def test_criterion_09_regularized_limit():
    with reported(9, "moment regularization limit"):
        result = regularized_limit([0.1, 0.05, 0.025, 0.0125, 0.00625], CFG)
        assert abs(result.j1_fit.c_m2 - 1.0 / (2.0 * PI2)) < 1e-4
        assert abs(result.j1_fit.c_m1 - 2.0 * math.log(2.0) / PI2) < 1e-4
        assert abs(result.difference_extrapolated - a0_exact()) < 1e-5
        coarse = regularized_limit([0.4, 0.2, 0.1, 0.05, 0.025], CFG)
        assert abs(coarse.difference_extrapolated - a0_exact()) < 1e-5


def test_criterion_10_neel_constants():
    with reported(10, "transition-scale constants"):
        sech = sech_log2_integral(CFG)
        a0 = a0_numeric(CFG)
        a1 = a1_constant(a0, sech)
        assert abs(a1 - 0.3260) < 5e-4
        assert abs((a1 - b1_constant(a0)) - a1_minus_b1(sech)) < 1e-10
        leading = math.pi * math.exp(-EULER_GAMMA)
        assert abs(leading - 1.76387698886204569) < 1e-12


def test_criterion_11_dilogarithm_suite():
    with reported(11, "dilogarithm identities"):
        for x in np.geomspace(1e-3, 1e3, 13):
            assert abs(dilog_inversion_residual(float(x))) < 1e-12
        h = 1e-5
        for x in (-5.0, -1.0, -0.3, 0.3, 0.9):
            fd = (dilog(x + h) - dilog(x - h)) / (2.0 * h)
            assert abs(fd + math.log(1.0 - x) / x) < 1e-6
        fitted_c = max(
            x * abs(dilog(-x) + 0.5 * math.log(x) ** 2 + PI2 / 6.0)
            for x in (10.0, 100.0, 1000.0))
        assert 0.0 < fitted_c < 2.0


def test_criterion_12_scaling_property():
    with reported(12, "hopping rescaling"):
        for u, t in ((1.0, 2.0), (2.0, 0.5), (3.0, 3.0)):
            scaled = gap_solve(GapParams(u=u, t=t)).delta
            reference = t * gap_solve(GapParams(u=u / t)).delta
            assert abs(scaled / reference - 1.0) < 1e-10
