"""Byte-for-byte CLI guard for refactors: this checkout against an earlier revision.

Usage, from any directory::

    python tools/cli_guard.py <base-rev>

Exports ``src`` of ``<base-rev>`` with ``git archive`` into a temporary
directory, then runs every invocation in ``INVOCATIONS`` as a fresh
``python -m hubbard_gap`` process, once on that export and once on this
checkout's ``src``, and compares stdout, stderr and the exit code.  Prints
one line per invocation (and a diff of each stream that differs) and exits
1 when any invocation differs, 0 when all are identical (2 on a usage or
git error).
"""

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: quadrature tolerances, which no command takes: the policy is fixed in
#: hubbard_gap.quadrature, so every command rejects these with a usage error
STRICT = ("--max-depth", "1", "--rel-tol", "1e-14", "--abs-tol", "1e-16")

INVOCATIONS = [
    # exit 0
    ("solve", "--u", "1"),
    ("solve", "--u", "2", "--t", "2", "--format", "json"),
    ("sweep", "--u-min", "0.3", "--u-max", "2", "--points", "5", "--log-spacing"),
    ("sweep", "--u-min", "0.5", "--u-max", "1", "--points", "3", "--format", "json"),
    ("sweep", "--u-min", "0.06", "--u-max", "0.1", "--points", "6", "--log-spacing",
     "--format", "json"),
    ("dos", "--points", "7", "--eps-min", "0.001", "--eps-max", "4.2"),
    ("dos", "--points", "4", "--eps-min", "0.5", "--eps-max", "4", "--format", "json"),
    # ln(16/eps) where 16/eps overflows, below 16/DBL_MAX ~ 8.9e-308
    ("dos", "--points", "3", "--eps-min", "5e-324", "--eps-max", "1e-307"),
    ("dos", "--points", "3", "--eps-min", "5e-324", "--eps-max", "1e-307",
     "--format", "json"),
    ("constants",),
    ("constants", "--format", "json", "--seed", "5"),
    ("regularize", "--s-values", "0.4,0.2,0.1,0.05,0.025"),
    ("regularize", "--s-values", "0.05,0.4,0.1,0.2,0.1,0.025", "--format", "json"),
    # large-s j1_exact cells, where gamma_ratio's route matters
    ("regularize", "--s-values", "200,150,100,50"),
    ("regularize", "--s-values", "200,150,100,50", "--format", "json"),
    ("ratio", "--u-values", "0.1,0.04,0.01"),
    ("ratio", "--u-values", "0.2,0.05", "--format", "json"),
    # the upper bracket end grows by 4 twice (solve) and 0, 1, 3 times (sweep)
    ("solve", "--u", "1000"),
    ("sweep", "--u-min", "100", "--u-max", "5000", "--points", "3", "--log-spacing"),
    # Laurent fits of moments near 1e237, whose misfits near 1e228 must not
    # be squared
    ("regularize", "--s-values", "400,300,200,100"),
    ("regularize", "--s-values", "400,300,200,100", "--format", "json"),
    # exit 2
    ("solve", "--u", "-1"),
    ("solve", "--u", "1e-5"),  # the asymptotic guess underflows to 0
    ("regularize", "--s-values", "0.4,0.2,-0.1,0.05"),
    ("regularize", "--s-values", "0.4,0.2,0.1"),
    ("ratio", "--u-values", "0.1,abc"),
    ("ratio", "--u-values", "inf"),
    ("regularize", "--s-values", "inf,1,0.5,0.2"),
    ("sweep", "--u-min", "0.5", "--u-max", "1", "--points", "0"),
    ("dos", "--points", "3", "--eps-min", "-1", "--eps-max", "1"),
    ("solve", "--u", "1", *STRICT),
    ("ratio", "--u-values", "0.1", *STRICT),
    ("constants", *STRICT),
    ("regularize", "--s-values", "0.4,0.2,0.1,0.05", *STRICT),
    # exit 3
    ("solve", "--u", "0.05"),  # absolute residual gate
    ("solve", "--u", "1e300"),  # relative residual gate
    # a moment or its Laurent fit leaves double range, the Neel scale underflows
    ("regularize", "--s-values", "514,513,512,511"),
    ("regularize", "--s-values", "512,511,510,509"),
    ("regularize", "--s-values", "1e-3,1e-10,1e-100,1e-160"),
    ("ratio", "--u-values", "1e-300"),
    # the parser itself: help text of the program and of every command,
    # and the usage errors (exit 2) of a missing, unknown or malformed flag
    ("--help",),
    *[(command, "--help")
      for command in ("solve", "sweep", "dos", "constants", "regularize", "ratio")],
    (),
    ("frobnicate",),
    ("solve",),
    ("solve", "--u", "1", "--format", "xml"),
    ("solve", "--u", "1", "--bogus"),
    ("constants", "--max-depth", "x"),
]


def export_src(rev, into):
    """Unpack ``src`` of ``rev`` under ``into`` and return its path."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)  # our own git archive output
    return Path(into) / "src"


def run(src, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "hubbard_gap", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)
    return {"stdout": done.stdout, "stderr": done.stderr,
            "exit": f"{done.returncode}\n"}


def main():
    args = sys.argv[1:]
    if len(args) != 1 or args[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    rev = args[0]
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        try:
            base_src = export_src(rev, tmp)
        except subprocess.CalledProcessError as exc:
            print(f"git archive {rev} src failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        for invocation in INVOCATIONS:
            base = run(base_src, invocation, tmp)
            head = run(REPO / "src", invocation, tmp)
            streams = [name for name in base if base[name] != head[name]]
            label = " ".join(invocation)
            print(f"{'DIFF' if streams else 'same'}  exit {head['exit'].strip()}"
                  f"  {label}")
            for name in streams:
                print("".join(difflib.unified_diff(
                    base[name].splitlines(keepends=True),
                    head[name].splitlines(keepends=True),
                    f"{rev}: {name}", f"working tree: {name}")), end="")
            differing += bool(streams)
    print(f"{differing} of {len(INVOCATIONS)} invocations differ from {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
