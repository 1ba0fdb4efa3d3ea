"""Coaction-check and center-probe timings of one or more source trees,
over the degree.

    python3 benchmarks/qplane_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_qplane.json

Times one `glq2_coaction_check` call, from a fresh process, at the exact
root q = exp(4 pi i / 5) (N = 5, k = 2) and at the numeric q = 2, over
max_deg 3 to 6, and at the exact root up to degree 8.  A fourth sweep
times one `center_probe` call at the same root over max_deg 10 to 80.
The coaction cost grows geometrically in the degree, so its fitted
`exponent` of t ~ n^k only orders the trees; the per-degree factor is the
ratio of neighbouring medians.  `treebench` holds the options (`--tree`,
`--rev`, `--out`), the alternating fresh child processes and the fit.
Uses only public names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import sys, time
from opalg import qplane
kind, size = sys.argv[1], int(sys.argv[2])
q = 2.0 + 0j if kind == "numeric" else qplane.RootOfUnity(5, 2)
start = time.perf_counter()
if kind == "center":
    assert len(qplane.center_probe(q, size)) == (size // 5 + 1) * (size // 5 + 2) // 2 - 1
else:
    assert qplane.glq2_coaction_check(q, size).preserved
print(time.perf_counter() - start)
"""

SWEEPS = (
    ("exact", "exact", "max_deg", (3, 4, 5, 6),
     "glq2_coaction_check at the exact root N = 5, k = 2"),
    ("numeric", "numeric", "max_deg", (3, 4, 5, 6),
     "glq2_coaction_check at q = 2"),
    ("exact_high", "exact", "max_deg", (6, 7, 8),
     "glq2_coaction_check at the exact root N = 5, k = 2"),
    ("center", "center", "max_deg", (10, 20, 40, 80),
     "center_probe at the exact root N = 5, k = 2"),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("qplane", CHILD, SWEEPS, __doc__.splitlines()[0]))
