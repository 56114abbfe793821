"""The benchmark's layer tracer still finds every function it keys on.

``benchmarks/tracer.py`` wraps the package's public functions by name and
derives its per-layer metrics from the spans they record.  A refactor that
renames a function or stops calling it leaves a metric without calls: the
traced benchmark run still exits 0 and reports ``correct: true``, but its
last JSON line holds ``null`` for that metric.  This test runs one traced
round of each workload in process, fills the metrics a workload never
reaches from a traced ``tables`` round as ``benchmarks/run.py`` does, and
requires every value to be a finite number.
"""

import math
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SEED = 1


@pytest.fixture(scope="module")
def bench():
    # read-only: no bytecode cache is written next to the benchmark sources
    sys.path.insert(0, str(BENCHMARKS))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import run
        import worker
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.dont_write_bytecode = dont_write
    return run, worker, workloads


@pytest.fixture(scope="module")
def reference(bench):
    _, worker, workloads = bench
    traced, _ = worker.traced_round(workloads.build_round("tables", SEED))
    return traced.summary()


@pytest.mark.parametrize("workload", ["solve_grid", "weak_coupling", "tables",
                                      "cli_cold"])
def test_every_layer_metric_is_a_number(workload, bench, reference):
    run, worker, workloads = bench
    assert workload in workloads.WORKLOADS
    traced, _ = worker.traced_round(workloads.build_round(workload, SEED))
    values = run.layer_values(traced.summary(), reference)
    assert values
    missing = {name: value for name, value in values.items()
               if not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert not missing, f"{workload}: per-layer metrics without a value: {missing}"
