"""Deformation-check timings of one or more source trees, with fitted exponents.

    python3 benchmarks/deform_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_deform.json

Times one `brst.deform_check` call on the two-pair model with a solved
first-order deformation (generator weights from a fixed seed): over the
sample count at order 6, and over the order at 400 samples.  The
`high_order` sweep times 20 samples of the rescaling Q + tQ of the two-pair
model at orders 8 to 400; at order 400 a tree that forms dense (L n)^2 jet
maps peaks near 460 MB, so run the sweep under a memory cap (`ulimit -v`).
Every child prints its `ru_maxrss` after the seconds, kept as `peak_mb`:
the peak of the whole child, numpy's import included.  It also times
one call with 20 samples on the rescaled order-3 deformation Q + tQ of
Kugo-Ojima quartet models of n = 36/88/176 dimensions: 4/8/16 physical
modes of ghost number 0 and 8/20/40 quartets, turned by a random unitary
(seed 1) within each ghost degree, with K = 16/64/256 even-ghost
observables; the builder repeats the test suite's `quartet_model`, which
a child cannot import.  Each child first makes one untimed call on a
structure of its own (for the quartets, the one of n = 36), so the timing
leaves out numpy's one-time costs of a first call (lazy imports, BLAS and
ufunc setup; for `high_order`, a call at order 8); the timed structure is
then built fresh, so its cached decompositions count in the timing, as
they do for a scenario check.
`treebench` holds the options (`--tree`, `--rev`, `--out`), the
alternating fresh child processes and the exponent fit; the rounds are
raised to 9, because one point is a few milliseconds.  Uses only public
names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import resource, sys, time
import numpy as np
from opalg import brst, series
kind, size = sys.argv[1], int(sys.argv[2])
samples, order = {"samples": (size, 6), "order": (400, size), "quartet": (20, 3),
                  "high_order": (20, size)}[kind]


def deformation(order=order):
    B = brst.two_pair_model()
    if kind == "high_order":  # the rescaling Q + tQ
        Q1 = B.Q
    else:
        gens = brst.deformation_generators(B)
        weights = np.random.default_rng(1650).normal(size=len(gens))
        Q1 = sum(w * g for w, g in zip(weights, gens))
    return brst.validate_deformation(
        B, series.FormalSeries([B.Q, Q1] + [np.zeros_like(B.Q)] * (order - 1)))


def quartet_deformation(n=size):
    physical = {36: 4, 88: 8, 176: 16}[n]
    grades = np.array([0] * physical + [0, 0, 1, -1] * ((n - physical) // 4))
    gram = np.zeros((n, n), dtype=complex)
    gram[:physical, :physical] = np.eye(physical)
    Q = np.zeros((n, n), dtype=complex)
    for a in range(physical, n, 4):
        gram[a, a + 1] = gram[a + 1, a] = gram[a + 2, a + 3] = gram[a + 3, a + 2] = 1
        Q[a + 2, a] = Q[a + 1, a + 3] = 1
    rng = np.random.default_rng(1)
    U = np.zeros((n, n), dtype=complex)
    for g in np.unique(grades):
        idx = np.flatnonzero(grades == g)
        Z = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
        U[np.ix_(idx, idx)] = np.linalg.qr(Z)[0]
    B = brst.validate_brst(brst.make_graded_space(U.conj().T @ gram @ U, grades),
                           U.conj().T @ Q @ U)
    return brst.validate_deformation(
        B, series.FormalSeries([B.Q, B.Q] + [np.zeros_like(B.Q)] * (order - 1)))


def call(D):
    report = brst.deform_check(D, samples=samples, rng=np.random.default_rng(0))
    assert report.all_passed
    if kind == "quartet":
        assert report.observables_checked == {36: 16, 88: 64, 176: 256}[D.base.dim]


if kind == "quartet":  # untimed, on a structure of its own: numpy's first calls
    call(quartet_deformation(36))
    D = quartet_deformation()
else:
    call(deformation(8) if kind == "high_order" else deformation())
    D = deformation()
start = time.perf_counter()
call(D)
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

SWEEPS = (
    ("samples", "samples", "samples", (25, 100, 400, 1600),
     "deform_check on two_pair, solved deformation of order 6"),
    ("order", "order", "order", (3, 6, 9),
     "deform_check on two_pair, solved deformation, 400 samples"),
    ("quartet", "quartet", "n", (36, 88, 176),
     "deform_check on the n-dimensional quartet model, rescaled deformation "
     "of order 3, 20 samples"),
    ("high_order", "high_order", "order", (8, 16, 32, 64, 128, 256, 400),
     "deform_check on two_pair, rescaled deformation Q + tQ, 20 samples"),
)


if __name__ == "__main__":
    treebench.REPEATS = 9
    raise SystemExit(treebench.main("deform", CHILD, SWEEPS, __doc__.splitlines()[0]))
