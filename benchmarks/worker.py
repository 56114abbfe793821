"""The process that does the work: imports ``hubbard_gap`` and runs operations.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Modes:

    probe      import, one warm-up operation, print ``ready``, exit
    timed      as probe, then whole rounds until ``--seconds`` are used up
    traced     as timed, alternating untraced and traced rounds
    cli-trace  one traced ``cli.main`` call of a cli_cold operation
    reference  one traced round of ``tables`` operations

Every mode ends by printing one JSON line on stdout for ``run.py``.
"""

import argparse
import contextlib
import io
import json
import sys

import hubbard_gap
from hubbard_gap import cli, errors, gap

import tracer
import workloads


def run_op(index, op):
    """Run one operation; return (completed, output)."""
    if op[0] == "solve":
        try:
            solution = gap.gap_solve(gap.GapParams(u=op[1], t=op[2]))
        except (errors.ConvergenceError, errors.DomainError) as exc:
            return False, (type(exc).__name__, str(exc))
        return True, (solution.delta, solution.residual, solution.evaluations,
                      *solution.bracket)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(op[1]))
    return code == 0, (code, buffer.getvalue())


def traced_round(ops):
    traced = tracer.Tracer(hubbard_gap)
    traced.install()
    try:
        results = []
        for op in ops:
            traced.begin_op()
            results.append(run_op(0, op))
    finally:
        traced.uninstall()
    return traced, results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=("probe", "timed", "traced", "cli-trace", "reference"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--op-index", type=int, default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    ops = workloads.build_round(args.workload, args.seed)

    if args.mode == "cli-trace":
        traced, [(_, out)] = traced_round([ops[args.op_index]])
        print(json.dumps({"out": list(out), "summary": traced.summary(),
                          "spans": traced.spans}))
        return
    if args.mode == "reference":
        traced, _ = traced_round(workloads.build_round("tables", args.seed))
        print(json.dumps({"summary": traced.summary()}))
        return

    run_op(0, ops[0])
    print("ready", flush=True)
    if args.mode == "probe":
        return
    if args.mode == "timed":
        print(json.dumps(workloads.run_rounds(ops, args.seconds, run_op)))
        return
    traced = tracer.Tracer(hubbard_gap)
    result = workloads.run_rounds(ops, args.seconds, run_op, traced)
    result["summary"] = traced.summary()
    phases = [("workload", traced.spans)]
    if args.workload != "tables":
        reference, _ = traced_round(workloads.build_round("tables", args.seed))
        result["reference"] = reference.summary()
        phases.append(("reference", reference.spans))
    tracer.write_spans(args.trace_file, phases)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
