"""Layered benchmark of hubbard_gap.

    python3 benchmarks/run.py --workload solve_grid --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py) in a closed loop with one caller,
checks every output against the independent oracles in oracle.py, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Must be started
from the root of a source checkout; the package is imported from ``src``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
OUT = HERE / "out"
PYTHON = sys.executable
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

#: fresh start-ups per run whose median is setup_s; one more, untimed, comes first
SETUP_STARTS = 5
#: fresh ``python -X importtime`` interpreters per traced run
IMPORT_STARTS = 5
#: a child still running after this long is killed
CHILD_LIMIT_S = 150


class Child:
    """A child process in the checkout root, stdout piped, reaped with its rusage."""

    def __init__(self, argv):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, text=True,
                                     stdout=subprocess.PIPE)
        self.timer = threading.Timer(CHILD_LIMIT_S, self.proc.kill)
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def finish(self):
        """Read stdout to its end, reap the child; return (stdout, rusage)."""
        out = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.end = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return out, usage


def worker_argv(mode, workload, seed, *extra):
    return [PYTHON, WORKER, "--mode", mode, "--workload", workload,
            "--seed", str(seed), *extra]


def last_json(out, what):
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{what} printed no result")
    return json.loads(lines[-1])


def start_up(argv):
    """Seconds from spawning a worker to its ``ready`` line."""
    with Child(argv) as child:
        ready = child.proc.stdout.readline()
        elapsed = time.perf_counter() - child.start
        out, _ = child.finish()
    if ready.strip() != "ready" or child.proc.returncode != 0:
        raise RuntimeError(f"start-up {argv[3:]} failed (exit {child.proc.returncode})")
    return elapsed


def setup_times(workload, seed, starts):
    probe = worker_argv("probe", workload, seed)
    start_up(probe)  # untimed: brings the files into the page cache
    return [start_up(probe) for _ in range(starts)]


def run_warm(workload, seed, seconds, trace_file=None):
    """The warm workloads: one worker process runs the timed loop."""
    setup = setup_times(workload, seed, SETUP_STARTS - 1) if trace_file is None else []
    mode = "timed" if trace_file is None else "traced"
    extra = ["--seconds", str(seconds)] + (["--trace-file", str(trace_file)] if trace_file else [])
    with Child(worker_argv(mode, workload, seed, *extra)) as child:
        ready = child.proc.stdout.readline()
        setup.append(time.perf_counter() - child.start)
        out, usage = child.finish()
    if ready.strip() != "ready" or child.proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {child.proc.returncode})")
    result = last_json(out, "worker")
    result["setup"] = setup
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


class ChildTracing:
    """Round switch for cli_cold: traced rounds run each command in a tracing worker."""

    def __init__(self):
        self.on = False
        self.summaries, self.spans = [], []

    def install(self):
        self.on = True

    def uninstall(self):
        self.on = False

    def begin_op(self):
        pass


def run_cli_cold(ops, seed, seconds, tracing=None):
    """Each operation is a fresh ``python -m hubbard_gap`` process, run one at a time."""
    setup = setup_times("cli_cold", seed, SETUP_STARTS) if tracing is None else []
    peak = []

    def run_op(index, op):
        if tracing is not None and tracing.on:
            argv = worker_argv("cli-trace", "cli_cold", seed, "--op-index", str(index))
        else:
            argv = [PYTHON, "-m", "hubbard_gap", *op[1]]
        with Child(argv) as child:
            out, usage = child.finish()
        code = child.proc.returncode
        if tracing is not None and tracing.on:
            if code != 0:
                raise RuntimeError(f"tracing worker failed (exit {code})")
            traced = last_json(out, "tracing worker")
            tracing.summaries.append(traced["summary"])
            tracing.spans.append(traced["spans"])
            code, out = traced["out"]
        else:
            peak.append(usage.ru_maxrss / 1024)
        return code == 0, (code, out)

    result = workloads.run_rounds(ops, seconds, run_op, tracing)
    result["setup"] = setup
    result["peak_rss_mb"] = max(peak)
    return result


def importtime_ms(stderr):
    """import.* metrics from one ``python -X importtime -c 'import hubbard_gap'``.

    wall_ms is the cumulative time of ``import hubbard_gap``; numpy_ms sums
    the outermost numpy imports wherever they happen, scipy_ms the outermost
    scipy imports less the numpy imports inside them; own_ms is the self time
    of the hubbard_gap modules.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            own_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), own_us, cumulative_us))
    totals = {"wall": 0, "numpy": 0, "scipy": 0, "own": 0}
    ancestors = []
    # importtime prints a module after its imports; walk backwards to see parents first
    for depth, name, own_us, cumulative_us in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        if package in ("numpy", "scipy") and package not in ancestors:
            totals[package] += cumulative_us
            if package == "numpy" and "scipy" in ancestors:
                totals["scipy"] -= cumulative_us  # keep the two disjoint
        if package == "hubbard_gap":
            totals["own"] += own_us
            if name == "hubbard_gap":
                totals["wall"] += cumulative_us
        ancestors.append(package)
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}


def import_metrics():
    samples = []
    for _ in range(IMPORT_STARTS):
        done = subprocess.run([PYTHON, "-X", "importtime", "-c", "import hubbard_gap"],
                              cwd=ROOT, env=ENV, capture_output=True, text=True,
                              timeout=CHILD_LIMIT_S, check=True)
        samples.append(importtime_ms(done.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def layer_values(summary, reference):
    """Per-layer metrics; a per-call time the workload never reaches comes from
    the traced reference round of tables operations."""
    values = tracer.layer_metrics(summary)
    missing = [k for k, v in values.items() if v is None]
    if missing:
        fallback = tracer.layer_metrics(reference)
        values.update({k: fallback[k] for k in missing})
    return values


def tail_line(latencies):
    """The highest percentile with at least ten samples beyond it (>= 40 samples)."""
    n = len(latencies)
    if n < 40:
        return f"op_tail_ms: not reported, {n} completed operations (< 40)"
    ordered = sorted(latencies)
    return (f"op_tail_ms: {ordered[n - 11] * 1e3:.4f} ms at p{100 * (n - 10) / n:.2f} "
            f"over {n} completed operations (10 beyond)")


def measure(args, ops):
    if not args.trace:
        if args.workload == "cli_cold":
            return run_cli_cold(ops, args.seed, args.seconds), None
        return run_warm(args.workload, args.seed, args.seconds), None
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
    imports = import_metrics()
    if args.workload == "cli_cold":
        tracing = ChildTracing()
        result = run_cli_cold(ops, args.seed, args.seconds, tracing)
        summary = tracer.merge(tracing.summaries)
        with Child(worker_argv("reference", "tables", args.seed)) as child:
            out, _ = child.finish()
        reference = last_json(out, "reference worker")["summary"]
        tracer.write_spans(trace_file, [(f"process{k}", spans)
                                        for k, spans in enumerate(tracing.spans)])
    else:
        result = run_warm(args.workload, args.seed, args.seconds, trace_file)
        summary, reference = result["summary"], result.get("reference")
    values = layer_values(summary, reference)
    plain, traced = result["round_s"]
    values["trace.overhead_pct"] = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    values.update(imports)
    return result, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "hubbard_gap" / "__init__.py").is_file():
        print(f"error: no hubbard_gap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # bytecode caches exist before anything is timed
    subprocess.run([PYTHON, "-m", "compileall", "-q", "src", str(HERE.relative_to(ROOT))],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_LIMIT_S)

    ops = workloads.build_round(args.workload, args.seed)
    result, layer = measure(args, ops)

    import oracle  # imported after the timing: mpmath and numpy stay out of it
    attempted, failed = result["attempted"], result["failed"]
    try:
        failures = oracle.check_outputs(ops, result["outputs"])
        if sum(failures.values()) != failed:
            raise oracle.CheckFailure(f"{failed} failed operations, {failures} classified")
        correct = True
    except oracle.CheckFailure as exc:
        print(f"error: wrong result: {exc}", file=sys.stderr)
        correct, failures = False, {}

    latencies = result["latencies"]
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds of {len(ops)} "
          f"operations in {result['loop_s']:.2f} s, {failed} failed {failures}")
    if args.trace:
        values, key = layer, "per_layer"
        print(f"spans written to {OUT.relative_to(ROOT)}")
    else:
        completed = attempted - failed
        print(f"over the whole loop: {completed / result['loop_s']:.4f} ops/s, "
              f"median latency {statistics.median(latencies) * 1e3:.4f} ms")
        print(tail_line(latencies))
        print("setup start-ups (s): " + " ".join(f"{s:.4f}" for s in result["setup"]))
        values = {
            "setup_s": statistics.median(result["setup"]),
            "best_ops_per_s": completed / result["rounds"] / sum(result["best"]),
            "op_best_p50_ms": statistics.median(
                b for b, done in zip(result["best"], result["completes"]) if done) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        key = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
