"""Shared harness of the sweep scripts in this directory.

A sweep script names its topic, a child program and its sweeps, and calls
`main`.  `--tree label=dir` times the source tree `dir` (the one holding
`opalg/`); `--rev label=REV` times commit REV of this repository, extracted
with `git archive` into a temporary directory.  Every timing is one fresh
child process that imports `opalg` from the given tree, builds its inputs
and prints the seconds of one timed call, optionally followed on the same
line by its `ru_maxrss` (KiB); the trees take turns point by point, so a
slow spell of the host falls on all of them.  The children run OpenBLAS on
one thread, as the `opalg` command does, unless the caller sets
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS.  The median over
REPEATS rounds is reported (`median_s`, and `peak_mb` to 0.001 MB where the
child prints its peak), and the exponent k of t ~ n^k is fitted by least
squares on log t against log n, over the sizes above 0.
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
import time

REPEATS = 3
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env():
    """The thread variables the children run under: the caller's, where it
    sets one that OpenBLAS reads, else the `opalg` command's one thread."""
    return {var: os.environ[var] for var in BLAS_THREADS if var in os.environ} \
        or {"OPENBLAS_NUM_THREADS": "1"}


def time_once(src, child, kind, size):
    """Seconds of one timed call in a fresh child, and the child's peak RSS
    in MB, or None where the child prints no ru_maxrss."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **blas_env())
    # the third argument, the time.time() of the spawn, times a child from
    # its process start
    out = subprocess.run([sys.executable, "-c", child, kind, str(size), repr(time.time())],
                         env=env, capture_output=True, text=True, check=True)
    seconds, *peak = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(peak[0]) / 1024 if peak else None


def extract(rev, dest):
    """Source tree of commit `rev`, unpacked under `dest`."""
    # from the repository root: in a subdirectory git archives only that
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def machine():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "platform": platform.platform(),
            "blas_threads": blas_env()}


def run_sweeps(trees, child, sweeps):
    """sweeps: (name, kind, axis, sizes, what) tuples; the child gets kind
    and size as its first two arguments."""
    results = {}
    for name, kind, axis, sizes, what in sweeps:
        runs = {label: {n: [] for n in sizes} for label in trees}
        for _ in range(REPEATS):
            for n in sizes:
                for label, src in trees.items():
                    runs[label][n].append(time_once(src, child, kind, n))
        times = {label: [[t for t, _ in runs[label][n]] for n in sizes] for label in trees}
        peaks = {label: [[p for _, p in runs[label][n]] for n in sizes] for label in trees}
        medians = {label: [statistics.median(ts) for ts in times[label]] for label in trees}
        results[name] = {
            "what": what, "axis": axis, "sizes": list(sizes),
            "median_s": medians,
            "runs_s": times,
            "exponent": {label: round(statistics.linear_regression(*zip(
                *[(math.log(n), math.log(t)) for n, t in zip(sizes, ts) if n > 0])).slope, 3)
                for label, ts in medians.items()},
        }
        if all(None not in ps for pl in peaks.values() for ps in pl):
            results[name]["peak_mb"] = {label: [round(statistics.median(ps), 3) for ps in pl]
                                        for label, pl in peaks.items()}
        print(name, json.dumps(medians), file=sys.stderr)
    return results


def main(topic, child, sweeps, description, argv=None):
    parser = argparse.ArgumentParser(description=description)
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
        results = run_sweeps(trees, child, sweeps)

    result = {"topic": topic, "command": " ".join(["python3"] + sys.argv),
              "repeats": REPEATS, "statistic": "median of fresh processes",
              "trees": dict(revs + dirs), "machine": machine(), "sweeps": results}
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0
