"""Seeded inputs of the four benchmark workloads.

A run repeats one *round* of operations until its time is up, so every run
attempts whole rounds of the same operations and the share of failed
operations does not depend on how long the run lasts.  An operation is

    ("solve", u, t)   one ``gap_solve(GapParams(u, t))`` in a warm process
    ("cli", argv)     one ``hubbard_gap`` command: ``cli.main(argv)`` in a
                      warm process (tables) or ``python -m hubbard_gap`` in a
                      fresh one (cli_cold)

Couplings and table ranges are drawn from ``random.Random(seed)``.  Draws
are stratified (one per equal-width stratum) so that the cost of a round,
and with it every timing, varies little from seed to seed.
"""

import math
import random
import time

WORKLOADS = ("solve_grid", "weak_coupling", "tables", "cli_cold")

#: weak_coupling couplings at which gap_solve fails today; the grid is fixed
#: so the failed share of every run is the same whatever the seed
WEAK_FAILING = tuple(math.exp(math.log(1e-4) + k * math.log(0.05 / 1e-4) / 47)
                     for k in range(48))


def stratified_log(rng, lo, hi, n):
    """One log-uniform draw in each of ``n`` equal strata of ``[lo, hi]``."""
    a, width = math.log(lo), math.log(hi / lo) / n
    return [math.exp(a + width * (k + rng.random())) for k in range(n)]


def _solve_grid(rng):
    # reduced coupling u/t over [0.1, 20], so Delta/t runs from 7.5e-8 to 10;
    # every fourth call at a hopping t != 1
    ops = []
    for k, u_reduced in enumerate(stratified_log(rng, 0.1, 20.0, 32)):
        t = math.exp(rng.uniform(math.log(0.5), math.log(2.0))) if k % 4 == 3 else 1.0
        ops.append(("solve", u_reduced * t, t))
    return ops


def _weak_coupling(rng):
    # 48 fixed couplings in [1e-4, 0.05] (ConvergenceError today) and 16
    # seeded ones in [0.065, 0.1], where the solver succeeds today
    ops = [("solve", u, 1.0) for u in WEAK_FAILING]
    ops += [("solve", u, 1.0) for u in stratified_log(rng, 0.065, 0.1, 16)]
    return ops


def _tables(rng):
    # the level-set quadrature costs ~20% less from eps = 0.01 on, so the
    # first row stays below it; the sweep stays where every solve costs alike
    eps_min = math.exp(rng.uniform(math.log(1e-3), math.log(5e-3)))
    s_values = sorted(stratified_log(rng, 0.02, 0.5, 5), reverse=True)
    u_values = stratified_log(rng, 0.01, 0.2, 3)
    u_min = rng.uniform(0.075, 0.08)
    return [
        # 41 rows with step 0.1: exactly the last row lies beyond the band edge
        ("cli", ("dos", "--points", "41", "--eps-min", repr(eps_min),
                 "--eps-max", repr(eps_min + 4.0))),
        ("cli", ("constants", "--format", "json",
                 "--seed", str(rng.randrange(1, 1_000_000)))),
        ("cli", ("regularize", "--s-values", ",".join(map(repr, s_values)))),
        ("cli", ("ratio", "--u-values", ",".join(map(repr, u_values)))),
        ("cli", ("sweep", "--u-min", repr(u_min), "--u-max", repr(1.25 * u_min),
                 "--points", "3", "--log-spacing")),
    ]


def _cli_cold(rng):
    return [
        ("cli", ("solve", "--u", repr(math.exp(rng.uniform(math.log(0.5),
                                                           math.log(4.0)))))),
        ("cli", ("constants", "--seed", str(rng.randrange(1, 1_000_000)))),
        ("cli", ("ratio", "--u-values",
                 ",".join(map(repr, stratified_log(rng, 0.01, 0.2, 2))))),
    ]


def build_round(workload, seed):
    """The operations of one round of ``workload`` for ``seed``."""
    draws = {"solve_grid": _solve_grid, "weak_coupling": _weak_coupling,
             "tables": _tables, "cli_cold": _cli_cold}
    return draws[workload](random.Random(f"{workload}:{seed}"))


def run_rounds(ops, seconds, run_op, traced=None):
    """Closed loop, one caller: whole rounds until the next would end after ``seconds``.

    ``run_op(index, op)`` returns ``(completed, output)``; outputs must be
    hashable, and each distinct one is kept with its count for the checks.
    ``best`` holds each operation's fastest latency in the untraced rounds,
    and ``completes`` whether it completed (the program is deterministic, so
    an operation completes in every round or in none).  With a tracer, odd
    rounds run traced and even rounds untraced, so the two kinds
    interleave over the same stretch of time.
    """
    outputs = [{} for _ in ops]
    latencies, round_s = [], ([], [])
    best, completes = [float("inf")] * len(ops), [False] * len(ops)
    failed = rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        tracing = traced is not None and rounds % 2 == 1
        if tracing:
            traced.install()
        round_start = clock()
        for index, op in enumerate(ops):
            if tracing:
                traced.begin_op()
            t0 = clock()
            ok, out = run_op(index, op)
            t1 = clock()
            if not tracing:
                best[index] = min(best[index], t1 - t0)
            if ok:
                latencies.append(t1 - t0)
                completes[index] = True
            else:
                failed += 1
            outputs[index][out] = outputs[index].get(out, 0) + 1
        round_s[tracing].append(clock() - round_start)
        if tracing:
            traced.uninstall()
        rounds += 1
        elapsed = clock() - start
        if elapsed * (rounds + 1) / rounds > seconds and (traced is None or rounds >= 2):
            break
    return {"loop_s": elapsed, "rounds": rounds, "attempted": rounds * len(ops),
            "failed": failed, "latencies": latencies, "best": best,
            "completes": completes, "round_s": round_s,
            "outputs": [[[list(out), n] for out, n in per_op.items()]
                        for per_op in outputs]}
