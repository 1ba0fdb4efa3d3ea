"""Coaction-check timings of one or more source trees, over the degree.

    python3 benchmarks/qplane_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_qplane.json

Times one `glq2_coaction_check` call, from a fresh process, at the exact
root q = exp(4 pi i / 5) (N = 5, k = 2) and at the numeric q = 2, over
max_deg 3 to 6.  A third sweep runs the exact root up to degree 8 on the
tree labelled `change` only: the word-by-word expansion needs minutes
there.  The cost grows geometrically in the degree, so the fitted
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
q = qplane.RootOfUnity(5, 2) if kind == "exact" else 2.0 + 0j
start = time.perf_counter()
report = qplane.glq2_coaction_check(q, size)
elapsed = time.perf_counter() - start
assert report.preserved
print(elapsed)
"""

SWEEPS = (
    ("exact", "exact", "max_deg", (3, 4, 5, 6),
     "glq2_coaction_check at the exact root N = 5, k = 2"),
    ("numeric", "numeric", "max_deg", (3, 4, 5, 6),
     "glq2_coaction_check at q = 2"),
    ("exact_high", "exact", "max_deg", (6, 7, 8),
     "glq2_coaction_check at the exact root N = 5, k = 2; tree `change` only",
     ("change",)),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("qplane", CHILD, SWEEPS, __doc__.splitlines()[0]))
