"""BRST quotient timings of one or more source trees, with fitted exponents.

    python3 benchmarks/brst_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_brst.json

Times one call on the pair model of n dimensions: two physical modes of
ghost number 0 plus (n - 2) / 2 null pairs, as in `two_pair_model` and
`perfbench/sweep.py`.  `observable_algebra(B, "full")` is swept over
n = 12/16/20/28/40, `physical_space(B)` over n = 16/32/64/128, and the
minimum-norm solve of s, `brst._s_preimage(B, brst.s_action(B, X))` for a
fixed random X, over n = 20/28/40.  Each child first makes one untimed
call of the same kind on a structure of its own, so the timing leaves out
numpy's one-time costs of a first call (lazy imports, BLAS and ufunc
setup); the timed structure is then built fresh, so its cached
decompositions count in the timing, as they do for a scenario check.  `treebench` holds the options (`--tree`, `--rev`,
`--out`), the alternating fresh child processes and the exponent fit.
Besides public names only the private `_s_preimage(B, R)` is called; it
has kept that signature since the derivation was first cached (f8d683b).
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


def call(B, X):
    if kind == "full":
        assert brst.observable_algebra(B, "full").quotient_dim == 4
    elif kind == "preimage":
        brst._s_preimage(B, brst.s_action(B, X))
    else:
        assert brst.physical_space(B).dim == 2


X = np.random.default_rng(n).normal(size=(n, n)) + 0j
call(pair_model(), X)  # untimed, on its own structure: numpy's first calls
B = pair_model()
start = time.perf_counter()
call(B, X)
print(time.perf_counter() - start)
"""

SWEEPS = (
    ("observable_algebra_full", "full", "n", (12, 16, 20, 28, 40),
     "observable_algebra(B, \"full\") on the n-dimensional pair model"),
    ("physical_space", "physical", "n", (16, 32, 64, 128),
     "physical_space(B) on the n-dimensional pair model"),
    ("s_preimage", "preimage", "n", (20, 28, 40),
     "_s_preimage(B, s_action(B, X)) on a fresh n-dimensional pair model"),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("brst", CHILD, SWEEPS, __doc__.splitlines()[0]))
