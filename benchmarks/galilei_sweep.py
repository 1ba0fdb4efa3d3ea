"""Galilei-layer timings of one or more source trees, with fitted exponents.

    python3 benchmarks/galilei_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_galilei.json

Times three kernels at a few sizes: `generator_commutators` with the whole
73-bracket table on grids of n points per axis (in separable form, so no
n^3 array is formed), the `commutator_convergence` ladder 32 -> ... -> n,
and the `galilei.cocycle` scenario check over a number of triples.
`treebench` holds the options (`--tree`, `--rev`, `--out`), the
alternating fresh child processes and the exponent fit.  Uses only
public names that every tree has, so an older checkout can be timed too.
The first sweep is the `generator_commutators` row of perfbench/sweep.py,
which times only the tree it is run from.
"""

from __future__ import annotations

import treebench

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

SWEEPS = (
    ("generator_commutators", "commutators", "n", (32, 64, 128),
     "all 73 brackets, two uncut Gaussians, n points per axis"),
    ("commutator_convergence", "ladder", "largest n", (64, 128),
     "convergence ladder 32 -> ... -> n, one test function per size"),
    ("cocycle", "cocycle", "triples", (1000, 3000),
     "the galilei.cocycle scenario check through run_scenario"),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("galilei", CHILD, SWEEPS, __doc__.splitlines()[0]))
