"""BRST quotient timings of one or more source trees, with fitted exponents.

    python3 benchmarks/brst_sweep.py --rev parent=HEAD --tree change=src \
        --out BENCH_brst.json

Times one call on the pair model of n dimensions: two physical modes of
ghost number 0 plus (n - 2) / 2 null pairs, as in `two_pair_model` and
`perfbench/sweep.py`.  `observable_algebra(B, "full")` is swept over
n = 12/16/20/28/40 and `physical_space(B)` over n = 16/32/64/128.  Both
variants of `observable_algebra` are also swept on Kugo-Ojima quartet
models of n = 36/88/176 dimensions: 4/8/16 physical modes of ghost number
0 and 8/20/40 quartets, turned by a random unitary (seed 1) within each
ghost degree, which gives K = 16/64/256 harmonic representatives; the
builder repeats the test suite's `quartet_model`, which a child cannot
import.  Each child first makes one
untimed call of the same kind on a structure of its own, so the timing
leaves out numpy's one-time costs of a first call (lazy imports, BLAS and
ufunc setup); the timed structure is then built fresh, so its cached
decompositions count in the timing, as they do for a scenario check.
`treebench` holds the options (`--tree`, `--rev`, `--out`), the
alternating fresh child processes and the exponent fit.  Uses only public
names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import sys, time
import numpy as np
from opalg import brst
kind, n = sys.argv[1], int(sys.argv[2])


def pair_model():
    m = (n - 2) // 2
    gram = np.zeros((n, n))
    gram[0, 0] = gram[1, 1] = 1
    Q = np.zeros((n, n), dtype=complex)
    for a in range(2, n, 2):
        gram[a, a + 1] = gram[a + 1, a] = 1
        Q[a, a + 1] = 1
    return brst.validate_brst(brst.make_graded_space(gram, [0, 0] + [1, 0] * m), Q)


def quartet_model():
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
    return brst.validate_brst(brst.make_graded_space(U.conj().T @ gram @ U, grades),
                              U.conj().T @ Q @ U)


model = quartet_model if kind.startswith("quartet") else pair_model


def call(B):
    if kind.startswith("quartet"):
        want = {36: 16, 88: 64, 176: 256}[n]
        assert brst.observable_algebra(B, kind.split("_", 1)[1]).quotient_dim == want
    elif kind == "full":
        assert brst.observable_algebra(B, "full").quotient_dim == 4
    else:
        assert brst.physical_space(B).dim == 2


call(model())  # untimed, on its own structure: numpy's first calls
B = model()
start = time.perf_counter()
call(B)
print(time.perf_counter() - start)
"""

SWEEPS = (
    ("observable_algebra_full", "full", "n", (12, 16, 20, 28, 40),
     "observable_algebra(B, \"full\") on the n-dimensional pair model"),
    ("physical_space", "physical", "n", (16, 32, 64, 128),
     "physical_space(B) on the n-dimensional pair model"),
    ("observable_algebra_quartet_full", "quartet_full", "n", (36, 88, 176),
     "observable_algebra(B, \"full\") on the n-dimensional quartet model"),
    ("observable_algebra_quartet_even_ghost", "quartet_even_ghost", "n", (36, 88, 176),
     "observable_algebra(B, \"even_ghost\") on the n-dimensional quartet model"),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("brst", CHILD, SWEEPS, __doc__.splitlines()[0]))
