import csv
import io
import json
import math
import random

import numpy as np
import pytest

from hubbard_gap import (BCS_RATIO, a1_exact, constants_report,
                         delta_asymptotic, gap_ratio_expansion,
                         neel_asymptotic, ratio_from_asymptotics,
                         regularized_limit)
from hubbard_gap.cli import _fmt, _geomspace, _linspace, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"empty csv output: {text!r}"
    return rows


class TestSolve:
    def test_csv_record(self, capsys):
        code, out, _ = run_cli(["solve", "--u", "1"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["u", "t", "delta", "residual", "bracket_low",
                                 "bracket_high", "evaluations",
                                 "delta_asymptotic", "rel_dev"]
        assert float(rows[0]["delta"]) == pytest.approx(0.05975543108, rel=1e-9)
        assert float(rows[0]["rel_dev"]) == pytest.approx(4.579013e-5, rel=1e-3)

    def test_json_record(self, capsys):
        code, out, _ = run_cli(["solve", "--u", "1", "--format", "json"],
                               capsys)
        assert code == 0
        record = json.loads(out)
        assert record["delta"] == pytest.approx(0.05975543108, rel=1e-9)
        assert record["residual"] < 1e-12

    def test_scaling(self, capsys):
        _, out1, _ = run_cli(["solve", "--u", "1", "--format", "json"], capsys)
        _, out2, _ = run_cli(["solve", "--u", "2", "--t", "2",
                              "--format", "json"], capsys)
        d1 = json.loads(out1)["delta"]
        d2 = json.loads(out2)["delta"]
        assert d2 == pytest.approx(2.0 * d1, rel=1e-10)

    def test_negative_coupling_exits_2(self, capsys):
        code, _, err = run_cli(["solve", "--u", "-1"], capsys)
        assert code == 2
        assert "coupling must be positive" in err

    @pytest.mark.parametrize("args", [["--u", "inf"], ["--u", "1", "--t", "inf"]])
    def test_non_finite_input_exits_2(self, args, capsys):
        code, out, err = run_cli(["solve", *args], capsys)
        assert code == 2
        assert out == ""
        assert "coupling must be positive" in err

    def test_strong_coupling_wrong_gap_exits_3(self, capsys):
        # the root found here is 2.3e18 against a true gap near u/2 = 5e299
        code, out, err = run_cli(["solve", "--u", "1e300"], capsys)
        assert code == 3
        assert out == ""
        assert "relative gap residual" in err


class TestSweep:
    def test_monotone_rel_dev(self, capsys):
        code, out, _ = run_cli(["sweep", "--u-min", "0.3", "--u-max", "2",
                                "--points", "8", "--log-spacing"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["u", "delta_numeric", "delta_asymptotic",
                                 "rel_dev", "bound_scale"]
        rel_devs = [float(r["rel_dev"]) for r in rows]
        assert rel_devs == sorted(rel_devs)  # grows with u, shrinks toward weak coupling

    def test_single_point_matches_solve(self, capsys):
        _, sweep_out, _ = run_cli(["sweep", "--u-min", "1", "--u-max", "1",
                                   "--points", "1"], capsys)
        _, solve_out, _ = run_cli(["solve", "--u", "1"], capsys)
        sweep_delta = float(parse_csv(sweep_out)[0]["delta_numeric"])
        solve_delta = float(parse_csv(solve_out)[0]["delta"])
        assert sweep_delta == solve_delta

    def test_zero_points_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--u-min", "0.5", "--u-max", "1",
                                "--points", "0"], capsys)
        assert code == 2
        assert "points" in err

    def test_linspace_matches_numpy(self):
        rng = random.Random(14)
        cases = [(0.5, 1.0, 1), (0.5, 1.0, 2), (0.3, 0.3, 7),
                 (5e-324, 1e-323, 400),  # the step underflows to 0
                 (1e-310, 1e-310 + 5e-324 * 9, 33)]
        for _ in range(2000):
            lo = math.exp(rng.uniform(-700.0, 700.0))
            hi = lo * math.exp(rng.uniform(0.0, 5.0)) if rng.random() < 0.9 else lo
            cases.append((lo, hi, rng.randrange(1, 200)))
        for lo, hi, n in cases:
            assert _linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist(), (lo, hi, n)

    def test_geomspace_near_numpy(self):
        # numpy's log10 and power differ from the C library's in the last bit
        # on some arguments, so interior points may differ by a few ulp, more
        # for large decimal exponents; the ends are pinned
        rng = random.Random(16)
        cases = [(0.3, 2.0, 5), (100.0, 5000.0, 3), (0.06, 0.1, 6),
                 (5e-324, 1e-300, 9), (1e300, 1.7976931348623157e308, 9)]
        for _ in range(2000):
            lo = math.exp(rng.uniform(-700.0, 700.0))
            hi = lo * math.exp(rng.uniform(0.0, 5.0)) if rng.random() < 0.9 else lo
            cases.append((lo, hi, rng.randrange(1, 200)))
        for lo, hi, n in cases:
            with np.errstate(over="ignore"):  # numpy's power of log10(DBL_MAX)
                theirs = np.geomspace(lo, hi, n).tolist()
            ours = _geomspace(lo, hi, n)
            assert len(ours) == n and ours[0] == lo and ours[-1] == (hi if n > 1 else lo)
            exponent = max(abs(math.log10(lo)), abs(math.log10(hi)))
            for a, b in zip(ours, theirs):
                assert abs(a - b) <= 4e-15 * (1.0 + exponent) * b, (lo, hi, n)


class TestDos:
    def test_table(self, capsys):
        code, out, _ = run_cli(["dos", "--points", "5", "--eps-min", "0.5",
                                "--eps-max", "4.0"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["epsilon", "n0", "n0_asymptotic", "abs_diff",
                                 "scaled_remainder"]
        by_eps = {float(r["epsilon"]): r for r in rows}
        assert float(by_eps[4.0]["n0"]) == 0.0
        assert float(by_eps[3.125]["n0"]) > 0.0
        assert by_eps[4.0]["n0_asymptotic"] == "nan"

    def test_scaled_remainder_bounded(self, capsys):
        _, out, _ = run_cli(["dos", "--points", "12", "--eps-min", "0.001",
                             "--eps-max", "0.1"], capsys)
        ratios = [float(r["scaled_remainder"]) for r in parse_csv(out)]
        assert max(ratios) < 5e-3

    def test_trapezoid_mass(self, capsys):
        _, out, _ = run_cli(["dos", "--points", "801", "--eps-min", "0.001",
                             "--eps-max", "4.0"], capsys)
        rows = parse_csv(out)
        eps = np.array([float(r["epsilon"]) for r in rows])
        n0 = np.array([float(r["n0"]) for r in rows])
        mass = float(np.sum(0.5 * (n0[1:] + n0[:-1]) * np.diff(eps)))
        assert mass == pytest.approx(0.5, abs=3e-3)

    def test_validation(self, capsys):
        code, _, _ = run_cli(["dos", "--points", "5", "--eps-min", "-1",
                              "--eps-max", "2"], capsys)
        assert code == 2

    def test_tiny_epsilon_follows_log_law(self, capsys):
        # at eps = 1e-300 the eps^2 correction is far below one ulp of
        # ln(16/eps)/(2 pi^2)
        code, out, _ = run_cli(["dos", "--points", "3", "--eps-min", "1e-300",
                                "--eps-max", "1", "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["epsilon"] == 1e-300
        assert row["n0"] == pytest.approx(
            math.log(16.0 / 1e-300) / (2.0 * math.pi ** 2), rel=1e-15)


class TestConstants:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(["constants", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["a0_exact"] == pytest.approx(
            math.log(2.0) ** 2 / math.pi ** 2 - 1.0 / 24.0, rel=1e-15)
        assert abs(payload["b1"]) < 4e-7
        assert payload["a1"] == pytest.approx(0.3260, abs=5e-4)
        assert payload["seed"] == 1729
        assert payload["deviations"]["a0_numeric_vs_exact"] < 1e-8

    def test_csv_single_row(self, capsys):
        code, out, _ = run_cli(["constants"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert "deviation_b1_magnitude" in rows[0]

    def test_seed_echoed(self, capsys):
        code, out, _ = run_cli(["constants", "--format", "json", "--seed", "5"],
                               capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 5

    def test_column_order(self, capsys):
        # the row is built from ConstantsReport's field order
        constants = ["a0_numeric", "a0_exact", "b1", "a1", "sech_integral",
                     "gap_ratio_leading", "gap_ratio_slope", "seed"]
        deviations = ["a0_numeric_vs_exact", "b1_magnitude", "a1_vs_reference",
                      "a1_minus_b1_route_gap"]
        _, out, _ = run_cli(["constants"], capsys)
        assert out.splitlines()[0].split(",") == constants + [
            f"deviation_{key}" for key in deviations]
        _, out, _ = run_cli(["constants", "--format", "json"], capsys)
        payload = json.loads(out)
        assert list(payload) == constants + ["deviations"]
        assert list(payload["deviations"]) == deviations


class TestRegularize:
    def test_table_and_fits(self, capsys):
        code, out, _ = run_cli(["regularize", "--s-values",
                                "0.4,0.2,0.1,0.05,0.025", "--format", "json"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert [row["s"] for row in payload["rows"]] == [0.4, 0.2, 0.1, 0.05, 0.025]
        assert payload["difference_extrapolated"] == pytest.approx(
            math.log(2.0) ** 2 / math.pi ** 2 - 1.0 / 24.0, abs=1e-5)
        assert payload["j1_fit"]["c_m2"] == pytest.approx(
            1.0 / (2.0 * math.pi ** 2), abs=1e-4)

    def test_exact_column_at_unit_order(self, capsys):
        _, out, _ = run_cli(["regularize", "--s-values", "1,0.4,0.2,0.1"],
                            capsys)
        rows = parse_csv(out)
        assert float(rows[0]["j1_exact"]) == pytest.approx(0.5, abs=1e-12)

    def test_payload_is_regularized_limit(self, capsys):
        code, out, _ = run_cli(["regularize", "--s-values",
                                "0.05,0.4,0.1,0.2,0.025", "--format", "json"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        limit = regularized_limit([0.4, 0.2, 0.1, 0.05, 0.025])
        fields = ("c_m2", "c_m1", "c_0", "fit_residual")
        for key in ("j1_fit", "difference_fit"):
            fit = getattr(limit, key)
            assert payload[key] == {name: getattr(fit, name) for name in fields}
        assert payload["difference_extrapolated"] == limit.difference_extrapolated
        assert [row["j1_numeric"] for row in payload["rows"]] == list(limit.j1_values)
        assert ([row["difference"] for row in payload["rows"]]
                == list(limit.difference_values))

    def test_nonpositive_s_exits_2(self, capsys):
        code, _, err = run_cli(["regularize", "--s-values", "0.4,0.2,-0.1,0.05"],
                               capsys)
        assert code == 2
        assert "positive" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s_values", [
        "512,511,510,509",
        "198.91617417580483,3.0,422.8497936940633,171.18859076015428",
    ])
    def test_fit_overflow_exits_3(self, s_values, capsys):
        # every J1 is finite (up to 1e304), but s^2 J1 overflows in the first
        # grid and the squared fit residual in the second
        code, out, err = run_cli(["regularize", "--s-values", s_values,
                                  "--format", "json"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: Laurent fit") and err.count("\n") == 1
        assert "overflow" in err
        assert str(sorted(map(float, s_values.split(",")), reverse=True)) in err


class TestRatio:
    def test_rows(self, capsys):
        code, out, _ = run_cli(["ratio", "--u-values", "0.1,0.04,0.01"],
                               capsys)
        assert code == 0
        rows = parse_csv(out)
        leading = math.pi * math.exp(-0.5772156649015329)
        for row in rows:
            assert float(row["leading"]) == pytest.approx(leading, rel=1e-11)
            assert float(row["ratio_two_term"]) == pytest.approx(
                float(row["ratio_from_asymptotics"]),
                abs=1e-3 * float(row["u"]))

    def test_rows_use_exact_a1(self, capsys):
        code, out, _ = run_cli(["ratio", "--u-values", "0.1,0.01",
                                "--format", "json"], capsys)
        assert code == 0
        for row, u in zip(json.loads(out)["rows"], [0.1, 0.01]):
            assert row == {
                "u": u,
                "ratio_two_term": gap_ratio_expansion(u, a1_exact(), 0.0),
                "ratio_from_asymptotics": ratio_from_asymptotics(u, a1_exact()),
                "leading": BCS_RATIO,
            }

    def test_csv_unchanged_from_numeric_constants(self, capsys):
        # the CSV the command printed when it read a1 and b1 from the
        # quadratures of constants_report, rebuilt row by row
        rng = random.Random(14)
        u_values = [math.exp(rng.uniform(math.log(1e-4), math.log(100.0)))
                    for _ in range(500)]
        code, out, _ = run_cli(["ratio", "--u-values",
                                ",".join(map(repr, u_values))], capsys)
        assert code == 0
        report = constants_report()
        lines = ["u,ratio_two_term,ratio_from_asymptotics,leading"]
        for u in u_values:
            cells = (u, gap_ratio_expansion(u, report.a1, report.b1),
                     delta_asymptotic(u, report.b1) / neel_asymptotic(u, report.a1),
                     report.gap_ratio_leading)
            lines.append(",".join(map(_fmt, cells)))
        assert out == "\n".join(lines) + "\n"

    def test_two_term_spot(self, capsys):
        _, out, _ = run_cli(["ratio", "--u-values", "0.04"], capsys)
        assert float(parse_csv(out)[0]["ratio_two_term"]) == pytest.approx(
            1.77303, abs=2e-5)


class TestOutputContract:
    def test_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(["constants", "--format", "json",
                                  "--output", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_determinism_and_line_endings(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(["sweep", "--u-min", "0.5", "--u-max", "1", "--points",
                     "2", "--output", str(path)], capsys)
        blob = paths[0].read_bytes()
        assert blob == paths[1].read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(["solve", "--u", "1"], capsys)
        delta_cell = parse_csv(out)[0]["delta"]
        assert delta_cell == format(float(delta_cell), ".12g")
        assert len(delta_cell.lstrip("0.")) >= 11

    @pytest.mark.parametrize("argv", [
        ["solve", "--u", "1", "--seed", "1"],
        ["constants", "--mc-samples", "10"],
        ["dos", "--rel-tol", "1e-8"],
        # solve, sweep and ratio integrate nothing, so take no tolerances
        ["solve", "--u", "1", "--rel-tol", "1e-8"],
        ["sweep", "--u-min", "0.5", "--u-max", "1", "--points", "2",
         "--abs-tol", "1e-12"],
        ["ratio", "--u-values", "0.1", "--max-depth", "50"],
    ])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_nonconvergence_exits_3(self, capsys):
        # one Gauss-Kronrod panel cannot meet a 1e-14 tolerance here
        code, _, err = run_cli(["constants", "--max-depth", "1",
                                "--rel-tol", "1e-14", "--abs-tol", "1e-16"],
                               capsys)
        assert code == 3
        assert "did not converge" in err

    @pytest.mark.parametrize("argv", [
        ["dos", "--points", "3", "--eps-min", "0.1", "--eps-max", "inf"],
        ["sweep", "--points", "3", "--u-min", "0.5", "--u-max", "inf"],
    ])
    def test_infinite_range_exits_2(self, argv, capsys, recwarn):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv", [
        ["ratio", "--u-values", "inf"],
        ["ratio", "--u-values", "0.1,inf"],
        ["regularize", "--s-values", "inf,1,0.5,0.2"],
    ])
    def test_non_finite_list_value_exits_2(self, argv, capsys):
        # ratio printed the row inf,inf,3.12197364726,... and regularize
        # exited 3 on a DOS moment quadrature that could not converge
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        what = {"ratio": "u", "regularize": "s"}[argv[0]]
        assert err == f"error: {what} values must be finite\n"

    @pytest.mark.parametrize("argv", [
        ["ratio", "--u-values", "1e-300"],
        ["regularize", "--s-values", "1000,900,800,700"],
        ["regularize", "--s-values", "1e-300,1e-301,1e-302,1e-303"],
    ])
    def test_arithmetic_error_exits_3(self, argv, capsys):
        # both asymptotic scales underflow to 0; e ** (s - 1) overflows;
        # s * s underflows to 0 under a division
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        # the message names the quantity and the (largest) input value
        quantity = {"ratio": "Neel scale", "regularize": "DOS moment"}[argv[0]]
        assert quantity in err
        assert f"= {float(argv[-1].split(',')[0])}" in err

    @pytest.mark.parametrize("argv", [
        ["constants", "--rel-tol", "inf", "--abs-tol", "inf"],
        ["constants", "--abs-tol", "nan"],
        ["regularize", "--s-values", "0.4,0.2,0.1,0.05", "--rel-tol", "0"],
    ])
    def test_out_of_range_tolerance_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "tolerances must be positive and finite" in err

    @pytest.mark.parametrize("depth", ["0", "2147483648", "100000000000"])
    def test_max_depth_out_of_range_exits_2(self, depth, capsys):
        code, out, err = run_cli(["constants", "--max-depth", depth], capsys)
        assert code == 2
        assert out == ""
        assert "max_depth must be an integer in [1, 2147483647]" in err
