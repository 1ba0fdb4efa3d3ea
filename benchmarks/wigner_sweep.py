"""Wigner shell, transform and isometry-defect timings of source trees, with fitted exponents.

    python3 benchmarks/wigner_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_wigner.json

Times one `wigner.make_shell` call over n for the galilean cube.  Times one
`wigner.restricted_inverse_fourier` call of a random shell function onto
the reciprocal slice at t = 0.7: over n for the galilean cube, and over n
for the massless cone.  Times one `wigner.isometry_defect(shell, reweight)`
call over n: for the galilean cube (its one-centre family), and for the
relativistic shell of mass 1 with reweight "newton_wigner" (its six-centre
family).  The `defect` sweeps time only trees whose `isometry_defect` takes
the shell alone; older trees take a slice grid as well, and their `defect`
children fail.  Every shell has the n^3 points of its cube (a tree whose
cone drops its apex has n^3 - 1 and warns on the child's stderr).
`treebench` holds the options (`--tree`, `--rev`, `--out`), the
alternating fresh child processes and the exponent fit.  The other sweeps
use only public names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import sys, time
import numpy as np
from opalg import wigner
kind, n = sys.argv[1], int(sys.argv[2])
kind, _, call = kind.partition(":")
start = time.perf_counter()
shell = wigner.make_shell(kind, 0.0 if kind == "massless" else 1.0, n, 0.4)
elapsed = time.perf_counter() - start
if call == "defect":
    reweight = "newton_wigner" if kind == "relativistic" else "none"
    start = time.perf_counter()
    defect = wigner.isometry_defect(shell, reweight)
    elapsed = time.perf_counter() - start
    assert defect <= 1e-8
elif call != "shell":
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
    ("make_shell", "galilean:shell", "n", (32, 64, 96),
     "make_shell, galilean cube"),
    ("cube", "galilean", "n", (32, 64, 96),
     "restricted_inverse_fourier, complete galilean cube, reciprocal slice"),
    ("cone", "massless", "n", (12, 16, 24),
     "restricted_inverse_fourier, massless cone, reciprocal slice"),
    ("defect_cube", "galilean:defect", "n", (32, 64, 96),
     "isometry_defect, complete galilean cube, one-centre family"),
    ("defect_newton_wigner", "relativistic:defect", "n", (32, 64, 96),
     "isometry_defect, relativistic shell, newton_wigner, six-centre family"),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("wigner", CHILD, SWEEPS, __doc__.splitlines()[0]))
