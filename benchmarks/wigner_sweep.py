"""Restricted-transform timings of one or more source trees, with fitted exponents.

    python3 benchmarks/wigner_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_wigner.json

Times one `wigner.restricted_inverse_fourier` call of a random shell
function onto the reciprocal slice at t = 0.7: over n for the complete
galilean cube (n^3 points), and over n for the massless cone (the cube less
its origin).  `treebench` holds the options (`--tree`, `--rev`, `--out`), the
alternating fresh child processes and the exponent fit.  Uses only public
names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import sys, time, warnings
import numpy as np
from opalg import wigner
kind, n = sys.argv[1], int(sys.argv[2])
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    shell = wigner.make_shell(kind, 1.0 if kind == "galilean" else 0.0, n, 0.4)
rng = np.random.default_rng(n)
size = len(shell.points)
f = wigner.ShellFunction(shell, rng.normal(size=size) + 1j * rng.normal(size=size))
grid = wigner.reciprocal_slice(shell, 0.7)
start = time.perf_counter()
psi = wigner.restricted_inverse_fourier(f, grid)
elapsed = time.perf_counter() - start
assert psi.shape == (n ** 3,)
print(elapsed)
"""

SWEEPS = (
    ("cube", "galilean", "n", (32, 64, 96),
     "restricted_inverse_fourier, complete galilean cube, reciprocal slice"),
    ("cone", "massless", "n", (12, 16, 24),
     "restricted_inverse_fourier, massless cone (origin dropped), reciprocal slice"),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("wigner", CHILD, SWEEPS, __doc__.splitlines()[0]))
