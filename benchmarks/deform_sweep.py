"""Deformation-check timings of one or more source trees, with fitted exponents.

    python3 benchmarks/deform_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_deform.json

Times one `brst.deform_check` call on the two-pair model with a solved
first-order deformation (generator weights from a fixed seed): over the
sample count at order 6, and over the order at 400 samples.  Each child
first makes one untimed call on a structure of its own, so the timing
leaves out numpy's one-time costs of a first call (lazy imports, BLAS and
ufunc setup); the timed structure is then built fresh, so its cached
decompositions count in the timing, as they do for a scenario check.
`treebench` holds the options (`--tree`, `--rev`, `--out`), the
alternating fresh child processes and the exponent fit; the rounds are
raised to 9, because one point is a few milliseconds.  Uses only public
names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import sys, time
import numpy as np
from opalg import brst, series
kind, size = sys.argv[1], int(sys.argv[2])
samples, order = (size, 6) if kind == "samples" else (400, size)


def deformation():
    B = brst.two_pair_model()
    gens = brst.deformation_generators(B)
    weights = np.random.default_rng(1650).normal(size=len(gens))
    Q1 = sum(w * g for w, g in zip(weights, gens))
    return brst.validate_deformation(
        B, series.FormalSeries([B.Q, Q1] + [np.zeros_like(B.Q)] * (order - 1)))


def call(D):
    report = brst.deform_check(D, samples=samples, rng=np.random.default_rng(0))
    assert report.all_passed


call(deformation())  # untimed, on its own structure: numpy's first calls
D = deformation()
start = time.perf_counter()
call(D)
print(time.perf_counter() - start)
"""

SWEEPS = (
    ("samples", "samples", "samples", (25, 100, 400, 1600),
     "deform_check on two_pair, solved deformation of order 6"),
    ("order", "order", "order", (3, 6, 9),
     "deform_check on two_pair, solved deformation, 400 samples"),
)


if __name__ == "__main__":
    treebench.REPEATS = 9
    raise SystemExit(treebench.main("deform", CHILD, SWEEPS, __doc__.splitlines()[0]))
