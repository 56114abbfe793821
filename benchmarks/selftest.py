"""Shows that the benchmark's checks reject wrong results.

    python3 benchmarks/selftest.py

Runs real operations of the program in this process, requires every
unperturbed output to pass the checks of oracle.py, then requires each of
these to be rejected: a gap moved by a relative 1e-9 either way (both gap
checks, at t = 1 and t != 1), and single table cells changed in their 10th
significant digit.  Exits 0 when all of that holds.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hubbard_gap import GapParams, cli, gap_solve  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

#: (u, t): check (a) at t = 1 and t != 1, check (b) at t = 1 and t != 1
GAPS = [(0.08, 1.0), (0.15, 2.0), (1.5, 1.0), (3.0, 2.0)]

#: (command, row, column) of the cells changed; "-json" marks JSON output
CELLS = [("dos", 3, "n0"), ("dos", 3, "n0_asymptotic"),
         ("regularize", 1, "j1_numeric"), ("regularize", 0, "difference"),
         ("ratio", 0, "ratio_two_term"), ("sweep", 1, "delta_numeric"),
         ("constants-json", 0, "a0_numeric"), ("constants", 0, "a1"),
         ("solve", 0, "delta")]


def change_digit(cell, k=10):
    """``cell`` with its k-th significant digit moved by 5 (mod 10)."""
    seen = 0
    for i, ch in enumerate(cell):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == k:
                return cell[:i] + str((int(ch) + 5) % 10) + cell[i + 1:]
        elif ch in "eE":
            break
    raise ValueError(f"{cell!r} has fewer than {k} significant digits")


def change_cell(argv, text, row, column):
    if "json" in argv:
        payload = json.loads(text)
        payload[column] = float(change_digit(repr(payload[column])))
        return json.dumps(payload, indent=2) + "\n"
    lines = text.split("\n")
    index = oracle.COLUMNS[argv[0]].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[index] = change_digit(cells[index])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def rejected(check, *args):
    try:
        check(*args)
    except oracle.CheckFailure as exc:
        return str(exc)
    return None


def main():
    problems = []
    for u, t in GAPS:
        solution = gap_solve(GapParams(u=u, t=t))
        fields = (solution.delta, solution.residual, solution.evaluations, *solution.bracket)
        reason = rejected(oracle.check_solution, u, t, *fields)
        if reason:
            problems.append(f"true gap at u={u}, t={t} rejected: {reason}")
        for factor in (1 + 1e-9, 1 - 1e-9):
            reason = rejected(oracle.check_gap, u, t, solution.delta * factor)
            print(f"gap at u={u}, t={t} times {factor!r}: "
                  f"{'rejected: ' + reason if reason else 'ACCEPTED'}")
            if not reason:
                problems.append(f"perturbed gap at u={u}, t={t} accepted")

    checker = oracle.TableChecker()
    ops = workloads.build_round("tables", 1) + workloads.build_round("cli_cold", 1)
    outputs = {}
    for _, argv in ops:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
        if code != 0:
            problems.append(f"{' '.join(argv)} exited {code}")
            continue
        outputs[argv[0] + ("-json" if "json" in argv else "")] = (argv, buffer.getvalue())
        reason = rejected(checker.check, argv, buffer.getvalue())
        if reason:
            problems.append(f"true output of {argv[0]} rejected: {reason}")
    for command, row, column in CELLS:
        argv, text = outputs[command]
        reason = rejected(checker.check, argv, change_cell(argv, text, row, column))
        print(f"{command} {column} row {row}, 10th digit changed: "
              f"{'rejected: ' + reason if reason else 'ACCEPTED'}")
        if not reason:
            problems.append(f"changed {command} cell {column} accepted")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
