"""Command-line front end producing reproducible CSV/JSON artifacts.

Subcommands::

    solve       solve the gap equation at one (u, t)
    sweep       gap vs asymptotic form over a coupling grid
    dos         density-of-states table with the singular expansion
    constants   every derived constant with deviation diagnostics
    regularize  moment pair J1/J2 table plus Laurent fits
    ratio       gap-to-transition-temperature ratio expansion table

Exit codes: 0 success, 2 input validation, 3 numerical non-convergence.
CSV output is RFC-4180 style with a header row, LF line endings, and
every numeric cell printed with 12 significant digits; JSON output keeps
Python's shortest round-trip float form.  Identical arguments (including
--seed) produce byte-identical files.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .dos import (DEFAULT_MC_SEED, QuadratureConfig, dos_asymptotic,
                  dos_moment_exact, dos_value)
from .errors import ConvergenceError, DomainError
from .gap import GapParams, asymptotic_comparison, delta_asymptotic, gap_solve
from .renorm import (constants_report, gap_ratio_expansion, j2_closed,
                     neel_asymptotic, regularized_limit)


def _fmt(value):
    """One numeric cell: 12 significant digits, plain ints untouched."""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _write_csv(rows, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_fmt(v) for v in row.values())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(payload, rows, args):
    out = io.StringIO()
    if args.format == "json":
        json.dump(_jsonable(payload), out, indent=2)
        out.write("\n")
    else:
        _write_csv(rows, out)
    text = out.getvalue()
    if args.output:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_positive_list(raw, what):
    try:
        values = [float(token) for token in raw.split(",") if token.strip()]
    except ValueError as exc:
        raise DomainError(f"could not parse {what} list: {exc}") from exc
    if not values:
        raise DomainError(f"{what} list must be non-empty")
    if any(not v > 0 for v in values):
        raise DomainError(f"{what} values must be positive")
    return values


def _grid(args, lo, hi, name, spacing=np.linspace):
    """The ``args.points`` grid on [lo, hi], validated before numpy sees it."""
    if args.points < 1:
        raise DomainError("points must be positive")
    if not 0 < lo <= hi:
        raise DomainError(f"need 0 < {name}_min <= {name}_max")
    if hi == math.inf:
        raise DomainError(f"{name}_max must be finite")
    return [float(v) for v in spacing(lo, hi, args.points)]


def cmd_solve(args, cfg):
    solution = gap_solve(GapParams(u=args.u, t=args.t), cfg)
    asym = args.t * delta_asymptotic(args.u / args.t)
    record = {
        "u": args.u,
        "t": args.t,
        "delta": solution.delta,
        "residual": solution.residual,
        "bracket_low": solution.bracket[0],
        "bracket_high": solution.bracket[1],
        "evaluations": solution.evaluations,
        "delta_asymptotic": asym,
        "rel_dev": abs(solution.delta / asym - 1.0),
    }
    _emit(record, [record], args)


def cmd_sweep(args, cfg):
    spacing = np.geomspace if args.log_spacing else np.linspace
    rows = [asdict(asymptotic_comparison(u, cfg))
            for u in _grid(args, args.u_min, args.u_max, "u", spacing)]
    _emit({"rows": rows}, rows, args)


def cmd_dos(args):
    rows = []
    for eps in _grid(args, args.eps_min, args.eps_max, "eps"):
        n0 = dos_value(eps)
        if 0.0 < eps < 4.0:
            n0_asym = dos_asymptotic(eps)
            diff = abs(n0 - n0_asym)
        else:
            n0_asym = math.nan
            diff = math.nan
        scale = eps ** 4 * math.log(1.0 / eps) if eps < 1.0 else math.nan
        rows.append({
            "epsilon": eps,
            "n0": n0,
            "n0_asymptotic": n0_asym,
            "abs_diff": diff,
            "scaled_remainder": diff / scale if scale and scale > 0 else math.nan,
        })
    _emit({"rows": rows}, rows, args)


def cmd_constants(args, cfg):
    report = constants_report(cfg)
    record = {
        "a0_numeric": report.a0_numeric,
        "a0_exact": report.a0_exact,
        "b1": report.b1,
        "a1": report.a1,
        "sech_integral": report.sech_integral,
        "gap_ratio_leading": report.gap_ratio_leading,
        "gap_ratio_slope": report.gap_ratio_slope,
        "seed": args.seed,
    }
    payload = dict(record)
    payload["deviations"] = dict(report.deviations)
    flat = dict(record)
    for key, value in report.deviations.items():
        flat[f"deviation_{key}"] = value
    _emit(payload, [flat], args)


def cmd_regularize(args, cfg):
    s_values = sorted(set(_parse_positive_list(args.s_values, "s")),
                      reverse=True)
    limit = regularized_limit(s_values, cfg)
    rows = [{"s": s, "j1_numeric": j1, "j1_exact": dos_moment_exact(s),
             "j2_closed": j2_closed(s), "difference": difference}
            for s, j1, difference in zip(s_values, limit.j1_values,
                                         limit.difference_values)]
    payload = {
        "rows": rows,
        "j1_fit": asdict(limit.j1_fit),
        "difference_fit": asdict(limit.difference_fit),
        "difference_extrapolated": limit.difference_extrapolated,
    }
    _emit(payload, rows, args)


def cmd_ratio(args, cfg):
    u_values = _parse_positive_list(args.u_values, "u")
    report = constants_report(cfg)
    rows = [{"u": u,
             "ratio_two_term": gap_ratio_expansion(u, report.a1, report.b1),
             "ratio_from_asymptotics":
                 delta_asymptotic(u, report.b1) / neel_asymptotic(u, report.a1),
             "leading": report.gap_ratio_leading}
            for u in u_values]
    _emit({"rows": rows}, rows, args)


def build_parser():
    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--rel-tol", type=float, default=1e-10,
                            help="relative quadrature tolerance (default 1e-10)")
    tolerances.add_argument("--abs-tol", type=float, default=1e-13,
                            help="absolute quadrature tolerance (default 1e-13)")
    tolerances.add_argument("--max-depth", type=int, default=200,
                            help="adaptive subdivision limit (default 200)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    output.add_argument("--output", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="hubbard-gap",
        description="Mean-field gap equation of the half-filled square-lattice "
                    "Hubbard model: solver, constants, and validation tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[tolerances, output],
                       help="solve the gap equation at one (u, t)")
    p.add_argument("--u", type=float, required=True, help="on-site coupling")
    p.add_argument("--t", type=float, default=1.0, help="hopping (default 1)")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("sweep", parents=[tolerances, output],
                       help="gap vs asymptotic form over a coupling grid")
    p.add_argument("--u-min", type=float, required=True)
    p.add_argument("--u-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log-spacing", action="store_true",
                   help="geometric instead of linear grid")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("dos", parents=[output],
                       help="density-of-states table with the singular expansion")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)

    p = sub.add_parser("constants", parents=[tolerances, output],
                       help="derived constants with deviation diagnostics")
    p.add_argument("--seed", type=int, default=DEFAULT_MC_SEED,
                   help=f"seed echoed in the output (default {DEFAULT_MC_SEED})")
    p.set_defaults(run=cmd_constants)

    p = sub.add_parser("regularize", parents=[tolerances, output],
                       help="moment pair table plus Laurent fits")
    p.add_argument("--s-values", required=True,
                   help="comma-separated positive s grid (at least 4 values)")
    p.set_defaults(run=cmd_regularize)

    p = sub.add_parser("ratio", parents=[tolerances, output],
                       help="gap ratio expansion table")
    p.add_argument("--u-values", required=True,
                   help="comma-separated positive couplings")
    p.set_defaults(run=cmd_ratio)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dos":  # the one command that integrates nothing
            cmd_dos(args)
        else:
            args.run(args, QuadratureConfig(rel_tol=args.rel_tol,
                                            abs_tol=args.abs_tol,
                                            max_depth=args.max_depth))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint():
    sys.exit(main())
