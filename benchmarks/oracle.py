"""Correctness checks computed apart from the program.

The oracles are closed forms and mpmath integrals at 30 digits; nothing here
imports ``hubbard_gap`` or compares against a stored copy of its output.

Gaps.  With x = ln(32/Delta) the paper's exact integral gives
a0 + I1_small(Delta) = x^2/(4 pi^2), and the rest of the right-hand side is
O(Delta^2 ln^2 Delta).  So below SMALL_GAP a solution must satisfy
x = 2 pi/sqrt(u) to the tolerance the residual gate implies through
d rhs/dx = x/(2 pi^2) (check a).  Above it, the true root must lie in
[Delta (1 - ETA), Delta (1 + ETA)]: the defining integral
int_0^asinh(4/Delta) N0(Delta sinh v) dv, with N0 = K(m)/(pi^2 (1 + eps/4)),
is evaluated at both ends (check b).

Tables.  Closed forms (a0, pi e^-gamma, the Gamma-ratio moment, J2) and
mpmath integrals (N0, the sech^2 log^2 integral) within the tolerances the
CLI requests of every quadrature, plus the documented CSV layout.
"""

import csv
import io
import json
import math

import mpmath as mp
import numpy

mp.mp.dps = 30

RESIDUAL_TOL = 1e-12   # gap_solve's gate on |1/u - rhs| in the caller's units
REL_TOL = 1e-10        # the CLI's default quadrature tolerances
ABS_TOL = 1e-13
CELL_ROUND = 5e-12     # relative rounding of a %.12g cell
ETA = 1e-10            # relative half-width of the root bracket of check (b)
SMALL_GAP = 1e-7       # check (a) below, check (b) above (in units of t)
CLOSED = 2e-11         # relative tolerance of a closed form printed at 12 digits

PI = mp.pi
EXP_M_GAMMA = mp.exp(-mp.euler)
LN2 = mp.log(2)
A0 = LN2 ** 2 / PI ** 2 - mp.mpf(1) / 24

COLUMNS = {
    "solve": "u,t,delta,residual,bracket_low,bracket_high,evaluations,delta_asymptotic,rel_dev",
    "sweep": "u,delta_numeric,delta_asymptotic,rel_dev,bound_scale",
    "dos": "epsilon,n0,n0_asymptotic,abs_diff,scaled_remainder",
    "constants": ("a0_numeric,a0_exact,b1,a1,sech_integral,gap_ratio_leading,"
                  "gap_ratio_slope,seed,deviation_a0_numeric_vs_exact,"
                  "deviation_b1_magnitude,deviation_a1_vs_reference,"
                  "deviation_a1_minus_b1_route_gap"),
    "regularize": "s,j1_numeric,j1_exact,j2_closed,difference",
    "ratio": "u,ratio_two_term,ratio_from_asymptotics,leading",
}


class CheckFailure(Exception):
    """The program produced a wrong or malformed result."""


def _quad(f, interval):
    value, err = mp.quad(f, interval, error=True)
    if not err < mp.mpf(10) ** -20 * max(1, abs(value)):
        raise RuntimeError(f"oracle quadrature unresolved (error estimate {err})")
    return value


def n0(eps):
    """K(m)/(pi^2 (1 + eps/4)) with m = ((4-eps)/(4+eps))^2, by mpmath.ellipk.

    The working precision is raised until 1 - m = 16 eps/(4+eps)^2 is
    resolved, so the van Hove limit eps -> 0 stays finite.
    """
    eps = mp.mpf(eps)
    if eps >= 4:
        return mp.mpf(0)
    complement = 16 * eps / (4 + eps) ** 2
    extra = max(0, int(-mp.log(complement, 2)))
    with mp.workprec(mp.mp.prec + extra + 20):
        k = mp.ellipk(1 - complement)
    return k / (PI ** 2 * (1 + eps / 4))


def gap_rhs(delta):
    """int_0^4 N0(eps)/sqrt(delta^2 + eps^2) d(eps), in the sinh variable."""
    delta = mp.mpf(delta)
    return _quad(lambda v: n0(delta * mp.sinh(v)), [0, mp.asinh(4 / delta)])


def sech_log2():
    return _quad(lambda x: mp.log(x) ** 2 / mp.cosh(x) ** 2, [0, 1, 4, 20, mp.inf])


def _near(value, expected, tol, what):
    if not (math.isfinite(value) and abs(mp.mpf(value) - expected) <= tol):
        raise CheckFailure(f"{what}: {value!r} but expected {mp.nstr(expected, 15)} "
                           f"within {mp.nstr(tol, 3)}")


def _require(condition, what):
    if not condition:
        raise CheckFailure(what)


def check_gap(u, t, delta, rounding=0.0):
    """Check (a) or (b) for a gap at coupling u and hopping t.

    ``rounding`` is the relative error of ``delta`` itself, as parsed from a
    table cell.
    """
    _require(math.isfinite(delta) and delta > 0, f"gap {delta!r} at u={u}, t={t}")
    u_red = mp.mpf(u) / mp.mpf(t)
    d_red = mp.mpf(delta) / mp.mpf(t)
    if d_red <= SMALL_GAP:
        x = mp.log(32 / d_red)
        tol_rhs = RESIDUAL_TOL * t + mp.mpf(1e-14) + d_red ** 2 * (1 + x * x)
        tol_x = 2 * PI ** 2 * tol_rhs / x + rounding + mp.mpf(1e-15) * x
        _near(math.log(32.0) - math.log(delta / t), 2 * PI / mp.sqrt(u_red), tol_x,
              f"ln(32 t/Delta) at u={u}, t={t} against 2 pi/sqrt(u/t) (check a)")
        return
    target = 1 / u_red
    eta = ETA + rounding
    high = gap_rhs(d_red * (1 - eta))
    low = gap_rhs(d_red * (1 + eta))
    _require(high > target > low,
             f"true root at u={u}, t={t} outside Delta (1 +- {eta:g}) around "
             f"{delta!r}: rhs {mp.nstr(high, 15)} .. {mp.nstr(low, 15)} vs "
             f"1/u = {mp.nstr(target, 15)} (check b)")


def check_increasing(pairs, what):
    """Check (c): the gap increases strictly with the reduced coupling."""
    pairs = sorted(pairs)
    for (u0, d0), (u1, d1) in zip(pairs, pairs[1:]):
        _require(u0 < u1 and d0 < d1,
                 f"{what}: gap not strictly increasing between u={u0} ({d0!r}) "
                 f"and u={u1} ({d1!r}) (check c)")


def check_solution(u, t, delta, residual, evaluations, low, high, rounding=0.0):
    check_gap(u, t, delta, rounding)
    _require(0 <= residual < RESIDUAL_TOL, f"residual {residual!r} at u={u}")
    _require(low <= delta <= high, f"gap {delta!r} outside its bracket [{low}, {high}]")
    _require(evaluations == int(evaluations) >= 2, f"evaluation count {evaluations!r}")


def parse_csv(text, command):
    """The documented layout: fixed header, LF line ends, %.12g cells."""
    _require(text.endswith("\n") and "\r" not in text,
             f"{command}: output must end in LF and hold no CR")
    rows = list(csv.reader(io.StringIO(text)))
    header = COLUMNS[command].split(",")
    _require(rows and rows[0] == header, f"{command}: header {rows[:1]}")
    _require(len(rows) > 1, f"{command}: no data rows")
    parsed = []
    for row in rows[1:]:
        _require(len(row) == len(header), f"{command}: row {row} has wrong width")
        for cell in row:
            try:
                ok = cell == format(float(cell), ".12g")
            except ValueError:
                ok = False
            _require(ok, f"{command}: cell {cell!r} is not in %.12g form")
        parsed.append({k: float(v) for k, v in zip(header, row)})
    return parsed


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _grid(spacing, argv, low, high, rows, command):
    """The grid the command was asked for, as the exact doubles it used."""
    grid = [float(v) for v in spacing(float(_flag(argv, low)), float(_flag(argv, high)),
                                      int(_flag(argv, "--points")))]
    column = COLUMNS[command].split(",")[0]
    _require([row[column] for row in rows] == [float(format(v, ".12g")) for v in grid],
             f"{command}: {column} column does not match the requested grid")
    return grid


class TableChecker:
    """Closed forms and mpmath integrals shared by the table checks."""

    def __init__(self):
        self._sech = None

    @property
    def sech(self):
        if self._sech is None:
            self._sech = sech_log2()
        return self._sech

    def a1(self):
        cross = mp.euler + 2 * LN2 - mp.log(PI)
        return -4 * PI ** 2 * A0 - self.sech + (2 * LN2) ** 2 + cross ** 2

    def check(self, argv, text):
        """Check one command's output; a ``solve`` returns its (u/t, Delta/t)."""
        command = argv[0]
        if "--format" in argv and _flag(argv, "--format") == "json":
            _require(command == "constants", f"no JSON check for {command}")
            return self._constants(argv, json.loads(text), CLOSED * 1e-3)
        rows = parse_csv(text, command)
        return getattr(self, "_" + command)(argv, rows)

    # tolerances of the quantities that come out of quadratures
    def _tol_a0(self):
        return REL_TOL * A0 + ABS_TOL

    def _tol_a1(self):
        return 4 * PI ** 2 * self._tol_a0() + REL_TOL * self.sech + 2 * ABS_TOL

    def _constants(self, argv, row, rounding=CLOSED):
        if isinstance(row, list):
            _require(len(row) == 1, "constants: one row expected")
            row = row[0]
        else:
            deviations = row.pop("deviations")
            row.update({f"deviation_{k}": v for k, v in deviations.items()})
        _require(list(row) == COLUMNS["constants"].split(","),
                 f"constants: keys {list(row)}")
        a1 = self.a1()
        tol_a0, tol_a1 = self._tol_a0(), self._tol_a1()
        slack = lambda v: rounding * abs(mp.mpf(v))
        _near(row["a0_exact"], A0, slack(A0) + 1e-17, "a0_exact")
        _near(row["a0_numeric"], A0, tol_a0 + slack(A0), "a0_numeric")
        _near(row["b1"], 0, 4 * PI ** 2 * tol_a0, "b1")
        _near(row["sech_integral"], self.sech,
              REL_TOL * self.sech + 2 * ABS_TOL + slack(self.sech), "sech_integral")
        _near(row["a1"], a1, tol_a1 + slack(a1), "a1")
        leading = PI * EXP_M_GAMMA
        _near(row["gap_ratio_leading"], leading, slack(leading) + 1e-15, "gap_ratio_leading")
        slope = EXP_M_GAMMA / 4 * a1
        _near(row["gap_ratio_slope"], slope, EXP_M_GAMMA / 4 * tol_a1 + slack(slope),
              "gap_ratio_slope")
        _require(row["seed"] == int(_flag(argv, "--seed")),
                 f"constants: seed {row['seed']} not echoed")
        _near(row["deviation_a0_numeric_vs_exact"], 0, tol_a0, "deviation_a0_numeric_vs_exact")
        _near(row["deviation_b1_magnitude"], abs(row["b1"]),
              slack(row["b1"]) + 1e-30, "deviation_b1_magnitude")
        reference = abs(a1 - mp.mpf("0.3260"))
        _near(row["deviation_a1_vs_reference"], reference,
              tol_a1 + slack(reference), "deviation_a1_vs_reference")
        _near(row["deviation_a1_minus_b1_route_gap"], 0, mp.mpf(1e-12),
              "deviation_a1_minus_b1_route_gap")

    def _dos(self, argv, rows):
        grid = _grid(numpy.linspace, argv, "--eps-min", "--eps-max", rows, "dos")
        for eps, row in zip(grid, rows):
            if eps >= 4:
                _require(row["n0"] == 0 and all(math.isnan(row[c]) for c in
                         ("n0_asymptotic", "abs_diff", "scaled_remainder")),
                         f"dos row at eps={eps} outside the band: {row}")
                continue
            exact = n0(eps)
            tol_n0 = REL_TOL * exact + mp.mpf(1e-12)
            _near(row["n0"], exact, tol_n0, f"dos n0 at eps={eps}")
            log_term = mp.log(16 / mp.mpf(eps))
            asym = log_term / (2 * PI ** 2) + mp.mpf(eps) ** 2 * (log_term - 1) / (128 * PI ** 2)
            _near(row["n0_asymptotic"], asym, CLOSED * asym + mp.mpf(5e-13),
                  f"dos n0_asymptotic at eps={eps}")
            _near(row["abs_diff"], abs(exact - asym), tol_n0 + mp.mpf(5e-13),
                  f"dos abs_diff at eps={eps}")
            if eps < 1:
                scaled = row["abs_diff"] / (eps ** 4 * math.log(1 / eps))
                _near(row["scaled_remainder"], scaled, 5e-11 * scaled,
                      f"dos scaled_remainder at eps={eps}")
            else:
                _require(math.isnan(row["scaled_remainder"]),
                         f"dos scaled_remainder at eps={eps} should be nan")

    def _regularize(self, argv, rows):
        s_values = sorted({float(v) for v in _flag(argv, "--s-values").split(",")},
                          reverse=True)
        _require([row["s"] for row in rows] == [float(format(s, ".12g")) for s in s_values],
                 f"regularize: s column {[row['s'] for row in rows]}")
        for s, row in zip(s_values, rows):
            s = mp.mpf(s)
            j1 = 4 ** s / (8 * PI) * (mp.gamma(s / 2) / mp.gamma((1 + s) / 2)) ** 2
            j2 = 4 ** s * (1 + 2 * s * LN2) / (2 * PI ** 2 * s ** 2)
            _near(row["j1_numeric"], j1, REL_TOL * j1 + ABS_TOL + CELL_ROUND * j1,
                  f"regularize j1_numeric at s={s}")
            _near(row["j1_exact"], j1, CLOSED * j1, f"regularize j1_exact at s={s}")
            _near(row["j2_closed"], j2, CLOSED * j2, f"regularize j2_closed at s={s}")
            diff = j1 - j2
            _near(row["difference"], diff, REL_TOL * diff + 2 * ABS_TOL + CELL_ROUND * diff,
                  f"regularize difference at s={s}")

    def _ratio(self, argv, rows):
        u_values = [float(v) for v in _flag(argv, "--u-values").split(",")]
        _require(len(rows) == len(u_values), "ratio: one row per coupling")
        a1 = self.a1()
        tol_a1, tol_b1 = self._tol_a1(), 4 * PI ** 2 * self._tol_a0()
        leading = PI * EXP_M_GAMMA
        for u, row in zip(u_values, rows):
            _near(row["u"], u, CELL_ROUND * u, "ratio u")
            root_u = mp.sqrt(u)
            two_term = leading + EXP_M_GAMMA / 4 * a1 * root_u
            _near(row["ratio_two_term"], two_term,
                  EXP_M_GAMMA / 4 * (tol_a1 + tol_b1) * root_u + CELL_ROUND * two_term,
                  f"ratio_two_term at u={u}")
            scale = 4 * PI ** 2 / u
            from_asym = leading * mp.exp(mp.sqrt(scale + a1) - mp.sqrt(scale))
            _near(row["ratio_from_asymptotics"], from_asym,
                  from_asym * ((tol_a1 + tol_b1) * root_u / (4 * PI) + CELL_ROUND),
                  f"ratio_from_asymptotics at u={u}")
            _near(row["leading"], leading, CLOSED * leading, "ratio leading")

    def _sweep(self, argv, rows):
        _require("--log-spacing" in argv, "sweep: geometric grid expected")
        grid = _grid(numpy.geomspace, argv, "--u-min", "--u-max", rows, "sweep")
        pairs = []
        for u, row in zip(grid, rows):
            delta = row["delta_numeric"]
            check_gap(u, 1.0, delta, rounding=2 * CELL_ROUND)
            pairs.append((u, delta))
            asym = 32 * mp.exp(-2 * PI / mp.sqrt(u))
            _near(row["delta_asymptotic"], asym, CLOSED * asym, f"sweep delta_asymptotic at u={u}")
            dev = abs(mp.mpf(delta) / asym - 1)
            _near(row["rel_dev"], dev, 2 * ETA + CLOSED * dev, f"sweep rel_dev at u={u}")
            scale = mp.exp(-4 * PI / mp.sqrt(u)) / mp.sqrt(u)
            _near(row["bound_scale"], scale, CLOSED * scale, f"sweep bound_scale at u={u}")
        check_increasing(pairs, "sweep")

    def _solve(self, argv, rows):
        _require(len(rows) == 1, "solve: one row expected")
        row = rows[0]
        u = float(_flag(argv, "--u"))
        t = float(_flag(argv, "--t")) if "--t" in argv else 1.0
        _near(row["u"], u, CELL_ROUND * u, "solve u")
        _near(row["t"], t, CELL_ROUND * t, "solve t")
        delta = row["delta"]
        check_solution(u, t, delta, row["residual"], row["evaluations"],
                       row["bracket_low"], row["bracket_high"], rounding=2 * CELL_ROUND)
        asym = t * 32 * mp.exp(-2 * PI / mp.sqrt(mp.mpf(u) / t))
        _near(row["delta_asymptotic"], asym, CLOSED * asym, "solve delta_asymptotic")
        dev = abs(mp.mpf(delta) / asym - 1)
        _near(row["rel_dev"], dev, 2 * ETA + CLOSED * dev, "solve rel_dev")
        return u / t, delta / t


def check_outputs(ops, outputs):
    """Check every distinct output of every operation of a run.

    ``outputs[i]`` lists ``[output, count]`` for operation ``i`` of the
    round.  Returns the failed operations counted by error name.
    """
    tables = TableChecker()
    pairs, failures = [], {}
    for op, distinct in zip(ops, outputs):
        for out, count in distinct:
            if op[0] == "solve":
                _, u, t = op
                if isinstance(out[0], str):
                    _require(out[0] in ("ConvergenceError", "DomainError"),
                             f"solve at u={u}: unexpected failure {out}")
                    failures[out[0]] = failures.get(out[0], 0) + count
                    continue
                check_solution(u, t, *out)
                pairs.append((u / t, out[0] / t))
                continue
            code, text = out
            if code in (2, 3):
                name = "DomainError" if code == 2 else "ConvergenceError"
                failures[name] = failures.get(name, 0) + count
                continue
            _require(code == 0, f"{' '.join(op[1])}: exit code {code}")
            found = tables.check(op[1], text)
            if found:
                pairs.append(found)
    check_increasing(sorted(set(pairs)), "solves of this run")
    return failures
