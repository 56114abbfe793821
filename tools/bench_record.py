"""Record a ``BENCH_<n>.json``: the benchmark and the gap outputs, before and after a change.

Usage, from any directory::

    python tools/bench_record.py --parent <rev> --out BENCH_<n>.json
        [--change <rev>] [--runs 10] [--seconds 25] [--seed 1] [--workdir DIR]

Exports the parent revision, and the change (a revision, or by default the
working tree: tracked and untracked files that git does not ignore), each
into a new directory.  In each, runs ``python3 benchmarks/run.py`` unchanged
with ``--trace 0`` for every workload, ``--runs`` times, the two sides
alternating run by run so that drift of the host speed hits both alike.
Records per side and workload every run's end-to-end metrics with their
median and quartiles, the attempted and failed operation counts and
whether every run was correct, and per metric how many of the run pairs
the change wins (the direction ``BENCHMARK.json`` calls better);
and ``gap_solve(GapParams(u))`` on ``GRID_POINTS`` log-spaced couplings
u in [1e-5, 20], as ``repr(delta)`` or the exception's class name, with
the grid points whose output changed; and the wall time of a fresh
``python -m hubbard_gap`` process for each of ``COLD_COMMANDS``, and of a
bare ``python -c pass`` (the floor), ``COLD_REPEATS`` times per side,
alternating, as the best and the median in seconds and the best's
distance to the floor's.  Also records the CPU count, the revisions, and
the python, numpy and scipy versions.  Exit code 0 when every run was
correct, 1 when not, 2 on a usage or git error.
"""

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve_grid", "weak_coupling", "tables", "cli_cold")
GRID_POINTS = 49
GRID_RANGE = (1e-5, 20.0)

COLD_COMMANDS = (
    ("regularize", "--s-values", "0.4,0.2,0.1,0.05,0.025"),
    ("sweep", "--u-min", "0.3", "--u-max", "2", "--points", "5", "--log-spacing"),
    ("solve", "--u", "1"),
    ("constants", "--seed", "5"),
    ("ratio", "--u-values", "0.02,0.1"),
)
#: the interpreter alone, the floor under every cold command
FLOOR = ("-c", "pass")
COLD_REPEATS = 15

GRID_SCRIPT = """
import json, sys
from hubbard_gap import GapParams, gap_solve
out = []
for u in json.loads(sys.argv[1]):
    try:
        out.append(repr(gap_solve(GapParams(u)).delta))
    except Exception as exc:
        out.append(type(exc).__name__)
print(json.dumps(out))
"""


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True,
                          check=True).stdout


def export_rev(rev, into):
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(into)  # our own git archive output


def export_worktree(into):
    for name in git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        source = REPO / name
        if name and source.is_file():
            target = Path(into) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def coupling_grid():
    lo, hi = (math.log(x) for x in GRID_RANGE)
    step = (hi - lo) / (GRID_POINTS - 1)
    return [math.exp(lo + i * step) for i in range(GRID_POINTS)]


def bench_run(root, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=30 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": done.stderr.strip()[-2000:]}
    result["exit"] = done.returncode
    return result


def gap_grid(root, grid):
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    done = subprocess.run([sys.executable, "-c", GRID_SCRIPT, json.dumps(grid)],
                          capture_output=True, text=True, env=env, check=True,
                          timeout=600)
    return json.loads(done.stdout)


def cold_times(roots):
    """Wall seconds of fresh processes, per side and command: the best and
    the median of ``COLD_REPEATS`` alternating runs, and the best less the
    best of the bare interpreter (``FLOOR``)."""
    commands = {"python " + " ".join(FLOOR): FLOOR}
    commands.update((" ".join(argv), ("-m", "hubbard_gap", *argv))
                    for argv in COLD_COMMANDS)
    times = {side: {label: [] for label in commands} for side in roots}
    for index in range(COLD_REPEATS):
        for label, argv in commands.items():
            for side in sorted(roots, reverse=index % 2 == 1):
                env = dict(os.environ, PYTHONPATH=str(Path(roots[side]) / "src"))
                start = time.perf_counter()
                subprocess.run([sys.executable, *argv],
                               capture_output=True, env=env, check=True, timeout=120)
                times[side][label].append(time.perf_counter() - start)
    out = {}
    for side, per_command in times.items():
        floor = min(per_command["python " + " ".join(FLOOR)])
        out[side] = {label: {"best_s": min(values),
                             "median_s": statistics.median(values),
                             "over_floor_s": min(values) - floor}
                     for label, values in per_command.items()}
    return out


def summarize(runs):
    metrics = {}
    for name in runs[0].get("metrics", {}):
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else values * 3)
        metrics[name] = {"median": median, "quartiles": [q1, q3], "runs": values,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return {"correct": all(run.get("correct") is True and run["exit"] == 0
                           for run in runs),
            "attempted": [run.get("attempted") for run in runs],
            "failed": [run.get("failed") for run in runs],
            "metrics": metrics}


def compare(parent, change, better):
    """Per metric: the pairs (run i of each side) the change wins, ties
    counting for neither, and the change's median over the parent's."""
    out = {}
    for name, direction in better.items():
        if name not in parent["metrics"] or name not in change["metrics"]:
            continue
        ours, theirs = change["metrics"][name], parent["metrics"][name]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for c, p in zip(ours["runs"], theirs["runs"]))
        out[name] = {"pairs_won": wins, "pairs": len(ours["runs"]),
                     "median_ratio": ours["median"] / theirs["median"]
                     if theirs["median"] else None,
                     "parent_iqr": theirs["quartiles"][1] - theirs["quartiles"][0]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=None,
                        help="revision of the change (default: the working tree)")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()
    try:
        parent = git("rev-parse", args.parent).decode().strip()
        change = (git("rev-parse", args.change).decode().strip() if args.change
                  else "working tree on " + git("rev-parse", "HEAD").decode().strip())
    except subprocess.CalledProcessError as exc:
        print(f"git: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2

    grid = coupling_grid()
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_rev(parent, roots["parent"])
        if args.change:
            export_rev(change, roots["change"])
        else:
            export_worktree(roots["change"])
        runs = {w: {side: [] for side in roots} for w in WORKLOADS}
        for index in range(args.runs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for workload in WORKLOADS:
                for side in order:
                    result = bench_run(roots[side], workload, args.seed, args.seconds)
                    runs[workload][side].append(result)
                    print(f"run {index + 1}/{args.runs} {workload} {side}: "
                          f"correct={result.get('correct')}", file=sys.stderr)
        outputs = {side: gap_grid(root, grid) for side, root in roots.items()}
        cold = cold_times(roots)
        spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    record = {
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "numpy": version("numpy"), "scipy": version("scipy")},
        "revisions": {"parent": parent, "change": change},
        "benchmark": {"command": "python3 benchmarks/run.py --trace 0",
                      "seed": args.seed, "seconds": args.seconds, "runs": args.runs},
        "workloads": {w: {side: summarize(runs[w][side]) for side in roots}
                      for w in WORKLOADS},
        "gap_grid": {
            "u": grid,
            **outputs,
            "changed": [i for i, (a, b) in enumerate(zip(outputs["parent"],
                                                         outputs["change"]))
                        if a != b],
        },
        "cold_commands": cold,
    }
    for workload, sides in record["workloads"].items():
        sides["comparison"] = compare(sides["parent"], sides["change"], better)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    correct = all(record["workloads"][w][side]["correct"]
                  for w in WORKLOADS for side in roots)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
