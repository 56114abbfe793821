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

Only ``constants`` and ``regularize`` integrate, so only they take the
quadrature tolerances; every command takes ``--format`` and ``--output``.
Both flag sets are added to each subparser ahead of its own flags.  No
command loads numpy or scipy: all six run on ``math`` alone.  Nor does a
command load ``dataclasses``: the library's records are plain frozen
classes whose ``_asdict()`` gives the table rows.  ``json`` is imported
only to write ``--format json``.

The linear grid is ``_linspace``, numpy's ``linspace`` arithmetic written
out, and ``ratio`` reads the exact ``a1``.  The geometric grid of
``sweep --log-spacing`` is ``_geomspace``: ``10**v`` over ``_linspace``
of the decimal exponents, ends pinned.  It is not ``numpy.geomspace``
bit for bit, because numpy's ``log10`` and ``power`` differ from the C
library's in the last bit on some arguments.  Interior points can differ
by a few ulp: their 12-digit ``u`` cells stay, but a ``rel_dev`` at the
rounding level (about 1e-13 near u = 0.08) can move.
"""

import argparse
import csv
import functools
import io
import math
import sys

from .dos import dos_asymptotic, dos_moment_exact, dos_value
from .errors import ConvergenceError, DomainError
from .gap import GapParams, asymptotic_comparison, delta_asymptotic, gap_solve
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .renorm import (BCS_RATIO, a1_exact, constants_report,
                     gap_ratio_expansion, j2_closed, ratio_from_asymptotics,
                     regularized_limit)


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
        import json  # CSV, the default, needs no json

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
    if math.inf in values:
        raise DomainError(f"{what} values must be finite")
    return values


def _linspace(start, stop, num):
    """``numpy.linspace(start, stop, num)`` as a list, bit for bit: the same
    products, the same branch for a step that underflows to 0, and the
    last point set to ``stop``."""
    div = num - 1
    delta = stop - start
    if div > 0:
        step = delta / div
        if step == 0:
            points = [k / div * delta for k in range(num)]
        else:
            points = [k * step for k in range(num)]
    else:
        points = [k * delta for k in range(num)]
    points = [start + v for v in points]
    if num > 1:
        points[-1] = stop
    return points


def _geomspace(start, stop, num):
    """Geometric grid from ``start`` to ``stop`` (both positive): ``10**v``
    over ``_linspace`` of the decimal exponents, with the ends set to
    ``start`` and ``stop`` as ``numpy.geomspace`` sets them."""
    exponents = _linspace(math.log10(start), math.log10(stop), num)
    points = [start] + [10.0 ** v for v in exponents[1:-1]]
    if num > 1:
        points.append(stop)
    return points


def _grid(args, lo, hi, name, spacing=_linspace):
    """The ``args.points`` grid on [lo, hi], validated before it is built."""
    if args.points < 1:
        raise DomainError("points must be positive")
    if not 0 < lo <= hi:
        raise DomainError(f"need 0 < {name}_min <= {name}_max")
    if hi == math.inf:
        raise DomainError(f"{name}_max must be finite")
    return [float(v) for v in spacing(lo, hi, args.points)]


def cmd_solve(args):
    solution = gap_solve(GapParams(u=args.u, t=args.t))
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


def cmd_sweep(args):
    spacing = _geomspace if args.log_spacing else _linspace
    rows = [asymptotic_comparison(u)._asdict()
            for u in _grid(args, args.u_min, args.u_max, "u", spacing)]
    _emit({"rows": rows}, rows, args)


def cmd_dos(args):
    rows = []
    for eps in _grid(args, args.eps_min, args.eps_max, "eps"):
        n0 = dos_value(eps)
        n0_asym = dos_asymptotic(eps) if eps < 4.0 else math.nan  # _grid: eps > 0
        diff = abs(n0 - n0_asym)
        scale = eps ** 4 * math.log(1.0 / eps) if eps < 1.0 else math.nan
        rows.append({
            "epsilon": eps,
            "n0": n0,
            "n0_asymptotic": n0_asym,
            "abs_diff": diff,
            "scaled_remainder": diff / scale if scale > 0 else math.nan,
        })
    _emit({"rows": rows}, rows, args)


def cmd_constants(args, cfg):
    record = constants_report(cfg)._asdict()
    deviations = record.pop("deviations")
    record["seed"] = args.seed
    payload = dict(record, deviations=deviations)
    flat = dict(record)
    for key, value in deviations.items():
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
        "j1_fit": limit.j1_fit._asdict(),
        "difference_fit": limit.difference_fit._asdict(),
        "difference_extrapolated": limit.difference_extrapolated,
    }
    _emit(payload, rows, args)


def cmd_ratio(args):
    u_values = _parse_positive_list(args.u_values, "u")
    a1 = a1_exact()  # and b1 = 0 exactly
    rows = [{"u": u,
             "ratio_two_term": gap_ratio_expansion(u, a1, 0.0),
             "ratio_from_asymptotics": ratio_from_asymptotics(u, a1),
             "leading": BCS_RATIO}
            for u in u_values]
    _emit({"rows": rows}, rows, args)


def _add_tolerance_flags(p):
    p.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol,
                   help="relative quadrature tolerance (default %(default)g)")
    p.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol,
                   help="absolute quadrature tolerance (default %(default)g)")
    p.add_argument("--max-depth", type=int, default=DEFAULT_CONFIG.max_depth,
                   help="adaptive subdivision limit (default %(default)s)")


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write to PATH instead of stdout")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser():
    """The argument parser.  Each subparser takes the shared flags first,
    then its own, so that usage and help list them in that order."""
    parser = argparse.ArgumentParser(
        prog="hubbard-gap",
        description="Mean-field gap equation of the half-filled square-lattice "
                    "Hubbard model: solver, constants, and validation tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the gap equation at one (u, t)")
    _add_output_flags(p)
    p.add_argument("--u", type=float, required=True, help="on-site coupling")
    p.add_argument("--t", type=float, default=1.0, help="hopping (default 1)")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("sweep", help="gap vs asymptotic form over a coupling grid")
    _add_output_flags(p)
    p.add_argument("--u-min", type=float, required=True)
    p.add_argument("--u-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log-spacing", action="store_true",
                   help="geometric instead of linear grid")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("dos",
                       help="density-of-states table with the singular expansion")
    _add_output_flags(p)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--eps-min", type=float, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.set_defaults(run=cmd_dos)

    p = sub.add_parser("constants",
                       help="derived constants with deviation diagnostics")
    _add_tolerance_flags(p)
    _add_output_flags(p)
    p.add_argument("--seed", type=int, default=1729,
                   help="seed echoed in the output (default %(default)s)")
    p.set_defaults(run=cmd_constants)

    p = sub.add_parser("regularize", help="moment pair table plus Laurent fits")
    _add_tolerance_flags(p)
    _add_output_flags(p)
    p.add_argument("--s-values", required=True,
                   help="comma-separated positive s grid (at least 4 values)")
    p.set_defaults(run=cmd_regularize)

    p = sub.add_parser("ratio", help="gap ratio expansion table")
    _add_output_flags(p)
    p.add_argument("--u-values", required=True,
                   help="comma-separated positive couplings")
    p.set_defaults(run=cmd_ratio)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("constants", "regularize"):  # the two that integrate
            args.run(args, QuadratureConfig(rel_tol=args.rel_tol,
                                            abs_tol=args.abs_tol,
                                            max_depth=args.max_depth))
        else:
            args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint():
    sys.exit(main())
