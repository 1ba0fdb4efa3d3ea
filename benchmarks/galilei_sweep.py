"""Galilei-layer timings of one or more source trees, with fitted exponents.

    python3 benchmarks/galilei_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_galilei.json

`--tree label=dir` times the source tree `dir` (the one holding `opalg/`);
`--rev label=REV` times commit REV of this repository, extracted with
`git archive` into a temporary directory.  Times three kernels at a few
sizes: `generator_commutators` with the whole 73-bracket table on an n^3 grid, the `commutator_convergence` ladder
32 -> ... -> n, and the `galilei.cocycle` scenario check over a number of
triples.  Every timing is one fresh child process that imports `opalg`
from the given tree, builds its inputs, and times one call; the trees
take turns point by point, so a slow spell of the host falls on all of
them.  The median over REPEATS rounds is reported, and the exponent k of
t ~ n^k is fitted by least squares on log t against log n.  Uses only
public names that every tree has, so an older checkout can be timed too.
The first sweep is the `generator_commutators` row of perfbench/sweep.py,
which times only the tree it is run from.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

CHILD = r"""
import sys, time
from opalg import galilei, scenario
kind, size = sys.argv[1], int(sys.argv[2])
if kind == "commutators":
    grid = galilei.momentum_grid(size, 10.0)
    call = lambda: galilei.generator_commutators(1.0, grid)
elif kind == "ladder":
    sizes = [32 * 2 ** k for k in range(size.bit_length()) if 32 * 2 ** k <= size]
    call = lambda: galilei.commutator_convergence(1.0, sizes, 10.0)
else:
    sc = scenario.Scenario(
        name="cocycle", seed=987654321, truncation_order=8,
        tolerances=dict(scenario.DEFAULT_TOLERANCES),
        checks=(scenario.CheckSpec("galilei.cocycle", {"triples": size}),))
    call = lambda: scenario.run_scenario(sc)
start = time.perf_counter()
call()
print(time.perf_counter() - start)
"""

REPEATS = 3
SWEEPS = (
    ("generator_commutators", "commutators", "n", (32, 64, 128),
     "all 73 brackets, two default test functions, on an n^3 grid"),
    ("commutator_convergence", "ladder", "largest n", (64, 128),
     "convergence ladder 32 -> ... -> n, one test function per size"),
    ("cocycle", "cocycle", "triples", (1000, 3000),
     "the galilei.cocycle scenario check through run_scenario"),
)


def time_once(src, kind, size):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", CHILD, kind, str(size)],
                         env=env, capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def extract(rev, dest):
    """Source tree of commit `rev`, unpacked under `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def machine():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="label=path of a source tree holding opalg/")
    parser.add_argument("--rev", action="append", default=[],
                        help="label=commit of this repository")
    parser.add_argument("--out", help="write the JSON here (default stdout)")
    args = parser.parse_args(argv)
    revs = [r.split("=", 1) for r in args.rev]
    dirs = [t.split("=", 1) for t in args.tree]
    if not revs + dirs:
        parser.error("give at least one --tree or --rev")
    with tempfile.TemporaryDirectory() as scratch:
        trees = {label: extract(rev, os.path.join(scratch, label))
                 for label, rev in revs}
        trees.update(dirs)
        sweeps = run_sweeps(trees)

    result = {"topic": "galilei", "command": " ".join(["python3"] + sys.argv),
              "repeats": REPEATS, "statistic": "median of fresh processes",
              "trees": dict(revs + dirs), "machine": machine(), "sweeps": sweeps}
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def run_sweeps(trees):
    sweeps = {}
    for name, kind, axis, sizes, what in SWEEPS:
        times = {label: {n: [] for n in sizes} for label in trees}
        for _ in range(REPEATS):
            for n in sizes:
                for label, src in trees.items():
                    times[label][n].append(time_once(src, kind, n))
        medians = {label: [statistics.median(times[label][n]) for n in sizes]
                   for label in trees}
        sweeps[name] = {
            "what": what, "axis": axis, "sizes": list(sizes),
            "median_s": medians,
            "runs_s": {label: [times[label][n] for n in sizes] for label in trees},
            "exponent": {label: round(statistics.linear_regression(
                [math.log(n) for n in sizes], [math.log(t) for t in ts]).slope, 3)
                for label, ts in medians.items()},
        }
        print(name, json.dumps(medians), file=sys.stderr)
    return sweeps


if __name__ == "__main__":
    raise SystemExit(main())
