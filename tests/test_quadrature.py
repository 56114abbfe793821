"""``adaptive_quad`` is QUADPACK's QAG with the 21-point Kronrod rule, in plain Python.

On every integral the package computes it makes the calls scipy's
``quad`` (QUADPACK's QAGS, imported here only) makes and lands within
the requested tolerance of its value; against mpmath it meets the
tolerance it was given; where it cannot, it raises instead of
subdividing without end.
"""

import math

import mpmath as mp
import pytest
from scipy.integrate import quad

from hubbard_gap import (ConvergenceError, QuadratureConfig, constants_report,
                         dos, dos_moment, dos_moment_exact, mellin_difference,
                         regularized_limit, renorm)
from hubbard_gap.quadrature import DEFAULT_CONFIG, adaptive_quad

MOMENT_ORDERS = [1e-8, 1e-4, 0.02, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0,
                 100.0, 200.0, 400.0]


def counted(f):
    def wrapper(x):
        wrapper.calls += 1
        return f(x)
    wrapper.calls = 0
    return wrapper


def production_integrals(monkeypatch):
    """Every (f, a, b, cfg) that constants, a regularization and the moments
    hand to ``adaptive_quad``."""
    seen = []

    def recording(f, a, b, cfg, name):
        seen.append((name, f, a, b, cfg))
        return adaptive_quad(f, a, b, cfg, name)

    monkeypatch.setattr(dos, "adaptive_quad", recording)
    monkeypatch.setattr(renorm, "adaptive_quad", recording)
    constants_report()
    regularized_limit([0.4, 0.2, 0.1, 0.05, 0.025])
    for s in MOMENT_ORDERS:
        dos_moment(s)
        mellin_difference(s)
    monkeypatch.undo()
    return seen


def assert_same_calls_as_scipy(f, a, b, cfg, name):
    """The evaluation count of scipy's ``quad``, and its value within tolerance."""
    ours, theirs = counted(f), counted(f)
    value = adaptive_quad(ours, a, b, cfg, name)
    reference = quad(theirs, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                     limit=cfg.max_depth)[0]
    assert ours.calls == theirs.calls, name
    assert abs(value - reference) <= max(cfg.abs_tol,
                                         cfg.rel_tol * abs(reference)), name
    return ours.calls


def test_same_calls_as_scipy_quad_on_production_integrands(monkeypatch):
    integrals = production_integrals(monkeypatch)
    assert len(integrals) == 3 + 10 + 2 * len(MOMENT_ORDERS)
    for name, f, a, b, cfg in integrals:
        assert_same_calls_as_scipy(f, a, b, cfg, name)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(50.0 * x), 0.0, 3.0),
    # error estimate equal to resasc: QUADPACK bisects although the
    # estimate is below the absolute tolerance
    (lambda x: 1e-20 * math.cos(50.0 * x), 0.0, 3.0),
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
    (lambda x: math.exp(-25.0 * x * x), 2.0, -1.0),
], ids=["oscillating", "tiny-oscillating", "peak", "reversed"])
def test_same_calls_as_scipy_quad_on_analytic_integrands(f, a, b):
    assert assert_same_calls_as_scipy(f, a, b, DEFAULT_CONFIG, "test") > 21


@pytest.mark.parametrize("s", MOMENT_ORDERS)
def test_moment_matches_closed_form(s):
    # the integrand in ln eps is smooth; what is left is the rounding of
    # exp(s v), which grows with s
    bound = 2e-14 if s <= 50.0 else 1e-12
    assert abs(dos_moment(s) / dos_moment_exact(s) - 1.0) <= bound


@pytest.mark.parametrize("f, mp_f, a, b", [
    (math.exp, mp.exp, 0.0, 1.0),
    (lambda x: 1.0 / (1.0 + x * x), lambda x: 1 / (1 + x * x), 0.0, 1.0),
    (lambda x: math.cos(50.0 * x), lambda x: mp.cos(50 * x), 0.0, 3.0),
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2),
     lambda x: 1 / (mp.mpf("1e-4") + (x - mp.mpf("0.3")) ** 2), 0.0, 1.0),
    (lambda x: math.log(x) ** 2 / math.cosh(x) ** 2,
     lambda x: mp.log(x) ** 2 / mp.cosh(x) ** 2, 1.0, 20.0),
    (lambda v: v * v * math.exp(-v) / math.cosh(math.exp(-v)) ** 2,
     lambda v: v * v * mp.exp(-v) / mp.cosh(mp.exp(-v)) ** 2, 0.0, 50.0),
], ids=["exp", "arctan", "oscillating", "peak", "sech-tail", "sech-head"])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-13])
def test_meets_its_tolerance_against_mpmath(f, mp_f, a, b, rel_tol):
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=1e-300)
    with mp.workdps(30):
        exact = mp.quad(mp_f, mp.linspace(a, b, 31))
        assert abs(adaptive_quad(f, a, b, cfg, "test") - exact) <= rel_tol * abs(exact)


def test_single_panel_and_its_failure():
    # the Gauss and Kronrod rules of one panel both integrate a polynomial
    # of degree 19 exactly, so its error estimate is the roundoff floor
    cfg = QuadratureConfig(max_depth=1)
    ours = counted(lambda x: x ** 19)
    assert adaptive_quad(ours, 0.0, 1.0, cfg, "test") == pytest.approx(
        1 / 20, rel=1e-15)
    assert ours.calls == 21
    with pytest.raises(ConvergenceError, match="^peak: quadrature did not"):
        adaptive_quad(lambda x: 1.0 / (1e-6 + x * x), -1.0, 1.0, cfg, "peak")


@pytest.mark.parametrize("f", [lambda x: 1.0 / x,
                               lambda x: 1.0 / abs(x - 1.0 / 3.0),
                               lambda x: math.nan],
                         ids=["divergent", "interior-pole", "nan"])
def test_hopeless_integral_stops_early(f):
    # a NaN ends the subdivision at once; a pole, when the panel next to it
    # shrinks to a point (at 0, after about a thousand bisections, to the
    # underflow threshold), before the quadrature evaluates the pole itself;
    # all long before the largest depth the config accepts
    cfg = QuadratureConfig(max_depth=2 ** 31 - 1)
    calls = counted(f)
    with pytest.raises(ConvergenceError, match="did not converge"):
        adaptive_quad(calls, 0.0, 1.0, cfg, "hopeless")
    assert calls.calls < 50_000


def test_tolerance_below_roundoff_stops_early():
    # QUADPACK's roundoff counters end the subdivision once bisecting stops
    # lowering the error estimate; without them it would run to max_depth
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_depth=20_000)
    peak = counted(lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2))
    exact = 100.0 * (math.atan(70.0) + math.atan(30.0))
    assert adaptive_quad(peak, 0.0, 1.0, cfg, "peak") == pytest.approx(
        exact, rel=1e-14)
    assert peak.calls < 5000


def test_reversed_limits_flip_the_sign():
    f = lambda x: math.exp(-x * x)
    assert (adaptive_quad(f, 2.0, -1.0, DEFAULT_CONFIG, "test")
            == -adaptive_quad(f, -1.0, 2.0, DEFAULT_CONFIG, "test"))
