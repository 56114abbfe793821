"""The quadrature-free ``i2_numeric``: its frozen tables and its accuracy.

``tools/i2_tables.py`` computes both tables in mpmath; the tests here
regenerate part of them with it and hold ``i2_numeric`` against the
30-digit integral ``i2_mpmath`` and the QUADPACK route
``oracles.i2_quadrature``, and the large-gap series of ``i1_closed``
against a 30-digit quadrature of I1.
"""

import importlib.util
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hubbard_gap import i1_closed, i2_numeric, i2_quadrature
from hubbard_gap._i2_tables import (CHEB_BAND, CHEB_COEFFICIENTS,
                                    RESIDUE_TRIPLES)

TOOL = Path(__file__).resolve().parent.parent / "tools" / "i2_tables.py"

#: both sides of each branch boundary, and the branch points' modulus 4
EDGES = [2.5, math.nextafter(2.5, math.inf), 4.0,
         math.nextafter(6.0, 0.0), 6.0]


@pytest.fixture(scope="module")
def tables():
    # read-only: no bytecode cache is written next to the tool
    spec = importlib.util.spec_from_file_location("i2_tables", TOOL)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("k", [1, 2, 3, 4, 16, 48])
def test_residue_triple_regenerates_bit_for_bit(k, tables):
    assert tables.residue_triple(k) == RESIDUE_TRIPLES[k - 1]


def test_residue_table_layout(tables):
    assert len(RESIDUE_TRIPLES) == tables.RESIDUE_TERMS == 48
    # the leading L^2 coefficient is the Delta^2 x^2 term of the right side,
    # -Delta^2 x (x - 3)/(512 pi^2) with x = ln(32/Delta)
    assert RESIDUE_TRIPLES[0][0] == pytest.approx(-1.0 / (512.0 * math.pi ** 2),
                                                  rel=1e-15)
    # no alpha L^2 + beta L + gamma has a real root, so no term of the
    # series vanishes and its early stop cannot come too soon
    assert all(b * b < 4.0 * a * c for a, b, c in RESIDUE_TRIPLES)


def test_chebyshev_table_within_one_ulp(tables):
    assert CHEB_BAND == (tables.BAND_LO, tables.BAND_HI) == (2.5, 6.0)
    fresh = tables.chebyshev_coefficients()
    assert len(fresh) == len(CHEB_COEFFICIENTS) == 28
    off = [(m, c, frozen) for m, (c, frozen) in enumerate(zip(fresh, CHEB_COEFFICIENTS))
           if abs(c - frozen) > math.ulp(frozen)]
    assert off == []


@pytest.mark.parametrize("delta", np.geomspace(1e-8, 1e4, 25).tolist() + EDGES)
def test_matches_mpmath_integral(delta, tables):
    assert abs(i2_numeric(delta) - float(tables.i2_mpmath(delta))) <= 2e-16


@pytest.mark.parametrize("delta", [1e-3, 0.3, 3.0, 5.0, 100.0])
def test_matches_quadrature_route(delta):
    assert abs(i2_numeric(delta) - i2_quadrature(delta)) < 1e-13


@pytest.mark.parametrize("delta", [1e-300, 1e-160, 1e154, 1e300])
def test_extreme_gaps_stay_finite(delta):
    # Delta^2 underflows below 1e-154 (I2 is 0 to double precision there);
    # above 6 the value tends to -a0
    value = i2_numeric(delta)
    assert math.isfinite(value) and -0.00702 < value <= 0.0


@pytest.mark.parametrize("delta", [math.nextafter(6.0, 0.0), 6.0, 10.0, 2500.0,
                                   1e6, 1e12])
def test_i1_large_gap_series_matches_mpmath(delta):
    # from Delta = 6 on i1_closed sums the moment series, which does not
    # cancel like the closed form (relative error 2e-12 at Delta = 2500)
    with mp.workdps(30):
        d = mp.mpf(delta)
        exact = mp.quad(lambda e: mp.log(16 / e) / (2 * mp.pi ** 2 * mp.sqrt(d * d + e * e)),
                        [0, d, 4] if d < 4 else [0, 4])
        assert abs(i1_closed(delta) / float(exact) - 1.0) < 1e-15
