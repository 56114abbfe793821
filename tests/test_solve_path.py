"""No command loads numpy or scipy.

``gap_solve`` finds its root with ``gap._brent``, a port of
``scipy.optimize.brentq``; the tests pin the port against scipy itself
(imported here only).  No module of the package imports scipy: the
quadratures run ``quadrature.adaptive_quad`` and the DOS ``dos._ellipkm1``,
both plain Python.  No module imports numpy either: the Laurent fits of
``regularize`` run a plain-Python Jacobi SVD, ``sweep --log-spacing``
builds its grid with ``math`` and the pushforward oracle's guard is a
trapezoid rule on plain floats.  So neither ``import hubbard_gap`` nor
any of the six commands loads numpy or scipy.
Nor do they load ``dataclasses`` or ``inspect``: the records are plain
``__slots__`` classes.  ``json`` is loaded only by ``--format json``.
A coupling ratio that overflows ends the bracket search with an error
instead of growing the bracket forever.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import hubbard_gap
from hubbard_gap import (ConvergenceError, GapParams, delta_asymptotic,
                         gap_rhs, gap_solve)
from hubbard_gap import gap
from hubbard_gap.gap import _brent

HEAVY = ("scipy.integrate", "scipy.optimize")

#: a fresh interpreter finds the package where this one does
SRC = str(Path(hubbard_gap.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_solve_loads_neither_integrate_nor_optimize():
    code = "\n".join([
        "import sys",
        "import hubbard_gap",
        "from hubbard_gap import GapParams, cli, gap_solve",
        "gap_solve(GapParams(1.0))",
        "assert cli.main(['solve', '--u', '1']) == 0",
        f"print('loaded', sorted(m for m in {HEAVY!r} if m in sys.modules))",
        "assert cli.main(['constants']) == 0",
        "print('scipy loaded', 'scipy' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120, env=ENV)
    # the command tables go to the same stdout; keep the labelled lines
    lines = [line for line in done.stdout.splitlines()
             if line.startswith(("loaded", "scipy"))]
    assert lines == ["loaded []",
                     "scipy loaded False"]  # constants integrates without it


def imported_modules(*argv):
    """Every module a fresh ``python -X importtime <argv>`` imports."""
    done = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, check=True,
                          timeout=120, env=ENV)
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


LINEAR_SWEEP = ("sweep", "--u-min", "0.5", "--u-max", "1", "--points", "3")


@pytest.mark.parametrize("argv", [
    ("-c", "import hubbard_gap"),
    ("-m", "hubbard_gap", "solve", "--u", "1"),
    ("-m", "hubbard_gap", "ratio", "--u-values", "0.1"),
    ("-m", "hubbard_gap", *LINEAR_SWEEP),
    ("-m", "hubbard_gap", *LINEAR_SWEEP, "--log-spacing"),
    ("-m", "hubbard_gap", "constants"),
    ("-m", "hubbard_gap", "dos", "--points", "5", "--eps-min", "1e-300",
     "--eps-max", "4"),
    ("-m", "hubbard_gap", "regularize", "--s-values", "0.4,0.2,0.1,0.05"),
    ("-m", "hubbard_gap", "solve", "--u", "1", "--format", "json"),
], ids=["import", "solve", "ratio", "linear-sweep", "log-sweep", "constants",
        "dos", "regularize", "solve-json"])
def test_loads_neither_numpy_nor_scipy(argv):
    modules = imported_modules(*argv)
    assert "hubbard_gap" in modules
    assert not {"numpy", "scipy", "dataclasses", "inspect"} & modules
    # json is imported where JSON is written, and only there
    assert ("json" in modules) == ("json" in argv)


def test_no_module_imports_scipy():
    package = Path(hubbard_gap.__file__).parent
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            # ast.walk reaches the imports inside functions too
            imported += [f"{path.name}: {name}" for name in names
                         if name.split(".")[0] in ("numpy", "scipy")]
    assert imported == []


def test_overflowing_coupling_ratio_exits_3():
    # u/t = inf makes 1/u = 0, and the right side is 0 in floating point
    # from Delta ~ 1e20 on, so f never turns negative on the way up
    with pytest.raises(ConvergenceError, match="bracket failure"):
        gap_solve(GapParams(1e300, 1e-10))
    done = subprocess.run(
        [sys.executable, "-m", "hubbard_gap", "solve",
         "--u", "1e300", "--t", "1e-10"],
        capture_output=True, text=True, timeout=60, env=ENV)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("error: gap bracket failure")


def counted(f):
    def wrapper(x):
        wrapper.calls.append(x)
        return f(x)
    wrapper.calls = []
    return wrapper


def solve_both(f, a, b, **tolerances):
    ours, theirs = counted(f), counted(f)
    root = _brent(ours, a, b, **tolerances)
    reference = brentq(theirs, a, b, **tolerances)
    return (root, ours.calls), (reference, theirs.calls)


def gap_bracket(u):
    """The bracket and function of ``gap_solve`` at unit hopping."""
    f = lambda delta: gap_rhs(delta) - 1.0 / u
    guess = delta_asymptotic(u)
    lo, hi = 0.25 * guess, 4.0 * guess
    while f(hi) >= 0.0:
        hi *= 4.0
    return f, lo, hi


@pytest.mark.parametrize("u", np.geomspace(1e-4, 1e4, 40).tolist())
def test_brent_steps_like_brentq_on_gap_solve(u):
    f, lo, hi = gap_bracket(u)
    ours, theirs = solve_both(f, lo, hi, xtol=1e-18, rtol=8.9e-16)
    assert ours == theirs  # same root, same abscissae in the same order


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x ** 3, -1.0, 3.0),
], ids=["sqrt2", "cos-cubic"])
@pytest.mark.parametrize("xtol", [2e-12, 1e-300])
def test_brent_steps_like_brentq_on_analytic_functions(f, a, b, xtol):
    ours, theirs = solve_both(f, a, b, xtol=xtol, rtol=4 * np.finfo(float).eps)
    assert ours == theirs


def test_brent_raises_where_brentq_raises(monkeypatch):
    f = lambda x: x * x + 1.0
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ConvergenceError, match="same sign"):
        _brent(f, 0.0, 1.0, xtol=2e-12, rtol=8.9e-16)
    slow = lambda x: math.copysign(1.0, x - 1.0 / 3.0)  # a sign step
    with pytest.raises(RuntimeError):
        brentq(slow, 0.0, 1.0, xtol=1e-300, rtol=8.9e-16, maxiter=3)
    monkeypatch.setattr(gap, "_BRENT_MAXITER", 3)
    with pytest.raises(ConvergenceError, match="after 3 steps"):
        _brent(slow, 0.0, 1.0, xtol=1e-300, rtol=8.9e-16)
