"""Write ``src/hubbard_gap/_i2_tables.py``, the frozen tables behind ``gap.i2_numeric``.

Usage, from any directory::

    python tools/i2_tables.py           # rewrite the module
    python tools/i2_tables.py --check   # exit 1 if the module is out of date

Everything is computed in mpmath at ``DPS`` digits and rounded to doubles
once, at the end.

Residue table.  In Delta, the Mellin transform of the subtracted remainder
I2(Delta) = int_0^4 D(eps) (1/sqrt(Delta^2 + eps^2) - 1/eps) d(eps), with
D(eps) = N0(eps) - ln(16/eps)/(2 pi^2), is G(z) K(z) on -2 < Re z < 0:

    G(z) = M(z) - 4^z (ln 4/z + 1/z^2)/(2 pi^2),   M = dos_moment_exact,
    K(z) = Gamma(z/2) Gamma((1 - z)/2)/(2 sqrt(pi)).

Closing the inversion contour to the left collects the triple poles at
z = -2k, k >= 1, so I2 = sum_k Delta^(2k) (alpha_k L^2 + beta_k L + gamma_k)
with L = ln Delta; the series converges for Delta < 4 (branch points of
the right side at Delta = +-4i).  With P(w) = G(w - 2k) K(w - 2k) and its
Laurent coefficients p_-3, p_-2, p_-1 at w = 0, the residue of
Delta^(-z) G K is Delta^(2k) (p_-3 L^2/2 - p_-2 L + p_-1).  The Laurent
coefficients come from the trapezoid rule on the circle |w| = 1/2, exact
up to (1/4)^CIRCLE_POINTS times the neighbouring poles at w = +-2.
Flajolet, Gourdon and Dumas, "Mellin transforms and asymptotics: harmonic
sums", Theor. Comput. Sci. 144 (1995) 3-58.

Chebyshev table.  The degree-CHEB_DEGREE interpolant of I2 on the band
[BAND_LO, BAND_HI], through the Chebyshev points of the first kind, of
``i2_mpmath`` values.  It converges geometrically inside the Bernstein
ellipse bounded by Delta = +-4i (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 8); the last coefficient is below
1e-20.
"""

import sys
from pathlib import Path

import mpmath as mp

MODULE = Path(__file__).resolve().parent.parent / "src" / "hubbard_gap" / "_i2_tables.py"

DPS = 30
RESIDUE_TERMS = 48
CIRCLE_POINTS = 64
CIRCLE_RADIUS = mp.mpf(1) / 2
CHEB_DEGREE = 27
BAND_LO, BAND_HI = 2.5, 6.0


def _mellin_kernel(z):
    """K(z) = Gamma(z/2) Gamma((1 - z)/2)/(2 sqrt(pi)), the transform of 1/sqrt(1 + t^2)."""
    return mp.gamma(z / 2) * mp.gamma((1 - z) / 2) / (2 * mp.sqrt(mp.pi))


def _subtracted_moment(z):
    """G(z): the DOS moment less the moment of its log part ln(16/eps)/(2 pi^2)."""
    four_z = mp.power(4, z)
    moment = four_z / (8 * mp.pi) * (mp.gamma(z / 2) * mp.rgamma((1 + z) / 2)) ** 2
    return moment - four_z * (mp.log(4) / z + 1 / z ** 2) / (2 * mp.pi ** 2)


def residue_triple(k):
    """(alpha_k, beta_k, gamma_k) as doubles: the z = -2k residue of Delta^(-z) G K."""
    with mp.workdps(DPS):
        sums = {1: mp.mpc(0), 2: mp.mpc(0), 3: mp.mpc(0)}
        for n in range(CIRCLE_POINTS):
            w = CIRCLE_RADIUS * mp.expjpi(mp.mpf(2 * n) / CIRCLE_POINTS)
            value = _subtracted_moment(w - 2 * k) * _mellin_kernel(w - 2 * k)
            for j in sums:
                sums[j] += value * w ** j
        p3, p2, p1 = (sums[j].real / CIRCLE_POINTS for j in (3, 2, 1))
        return float(p3 / 2), float(-p2), float(p1)


def _dos(eps):
    """N0(eps) = K(m)/(pi^2 (1 + eps/4)) with K(m) = pi/(2 agm(1, sqrt(1 - m)))."""
    return 1 / (2 * mp.pi * (1 + eps / 4) * mp.agm(1, 4 * mp.sqrt(eps) / (4 + eps)))


def i2_mpmath(delta):
    """I2(Delta) at DPS digits, as int_0^4 D(eps)/sqrt(Delta^2 + eps^2) d(eps) - a0.

    This form never divides by eps, so the cancellation in D at tiny eps
    costs nothing; a0 = ln^2(2)/pi^2 - 1/24 is exact.
    """
    with mp.workdps(DPS):
        d = mp.mpf(delta)

        def integrand(eps):
            return (_dos(eps) - mp.log(16 / eps) / (2 * mp.pi ** 2)) / mp.sqrt(d * d + eps * eps)

        a0 = mp.log(2) ** 2 / mp.pi ** 2 - mp.mpf(1) / 24
        return mp.quad(integrand, [0, d, 4] if d < 4 else [0, 4]) - a0


def chebyshev_coefficients():
    """Coefficients c_0 .. c_CHEB_DEGREE of I2 on the band, c_0 already halved."""
    n = CHEB_DEGREE + 1
    with mp.workdps(DPS):
        mid = (mp.mpf(BAND_LO) + BAND_HI) / 2
        half = (mp.mpf(BAND_HI) - BAND_LO) / 2
        angles = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
        values = [i2_mpmath(mid + half * mp.cos(a)) for a in angles]
        coefficients = [2 * mp.fsum(v * mp.cos(m * a) for v, a in zip(values, angles)) / n
                        for m in range(n)]
        coefficients[0] /= 2
        return [float(c) for c in coefficients]


def render():
    """Text of the generated module."""
    lines = [
        '"""Frozen tables of ``gap.i2_numeric``.  Generated by ``tools/i2_tables.py``;',
        'do not edit by hand."""',
        "",
        f"#: (alpha_k, beta_k, gamma_k) for k = 1 .. {RESIDUE_TERMS}:",
        "#: I2 = sum_k Delta^(2k) (alpha_k L^2 + beta_k L + gamma_k), L = ln Delta",
        "RESIDUE_TRIPLES = (",
    ]
    for k in range(1, RESIDUE_TERMS + 1):
        lines.append("    ({!r}, {!r}, {!r}),".format(*residue_triple(k)))
    lines += [
        ")",
        "",
        "#: Chebyshev band of the interpolant below",
        f"CHEB_BAND = ({BAND_LO!r}, {BAND_HI!r})",
        "",
        f"#: degree-{CHEB_DEGREE} Chebyshev coefficients of I2 on CHEB_BAND, c_0 halved",
        "CHEB_COEFFICIENTS = (",
    ]
    lines += [f"    {c!r}," for c in chebyshev_coefficients()]
    lines += [")", ""]
    return "\n".join(lines)


def main():
    args = sys.argv[1:]
    if args not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    text = render()
    if args:
        current = MODULE.read_text() if MODULE.exists() else ""
        print(f"{MODULE.name}: {'up to date' if current == text else 'out of date'}")
        return 0 if current == text else 1
    MODULE.write_text(text)
    print(f"wrote {MODULE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
