"""Import-and-run timings of one or more source trees over the layers used.

    python3 benchmarks/import_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_import.json

Each child imports numpy first, writes a scenario of one cheap check per
layer for the first 1, 2, 4 or 6 of the layers series, krein, brst, galilei,
wigner and qplane, and then times `import opalg.cli`, `load_scenario` and
`run_scenario` on it together: the set-up a scenario run pays on top of
numpy.  With lazy layers the time grows with the layers used; a tree that
imports every layer up front pays the same at every point.  `treebench`
holds the options (`--tree`, `--rev`, `--out`), the alternating fresh child
processes and the exponent fit; the rounds are raised to 15, because one
point is tens of milliseconds.  Uses only public names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import os, sys, tempfile, time
import numpy
CHEAP = {
    "series": '{"check": "series.is_positive", "params": {"b": [[1, 0], [0, 0]]}}',
    "krein": '{"check": "krein.invariants", "params": {"samples": 4}}',
    "brst": '{"check": "brst.physical_space", "params": {"model": "null_pair"}}',
    "galilei": '{"check": "galilei.clifford"}',
    "wigner": '{"check": "wigner.angular", "params": {"l_max": 2}}',
    "qplane": '{"check": "qplane.normal_form", "params": {"word": "yx", "q": {"N": 3}}}',
}
layers = int(sys.argv[2])
fd, path = tempfile.mkstemp(suffix=".json")
with os.fdopen(fd, "w") as fh:
    fh.write('{"name": "import", "seed": 1, "checks": [%s]}'
             % ", ".join(list(CHEAP.values())[:layers]))
start = time.perf_counter()
import opalg.cli
from opalg.scenario import load_scenario, run_scenario
report = run_scenario(load_scenario(path))
elapsed = time.perf_counter() - start
os.remove(path)
assert report.all_passed and len(report.records) == layers
print(elapsed)
"""

SWEEPS = (
    ("layers", "layers", "layers used", (1, 2, 4, 6),
     "import opalg.cli + load_scenario + run_scenario after numpy, one cheap "
     "check per layer of series, krein, brst, galilei, wigner, qplane"),
)


if __name__ == "__main__":
    treebench.REPEATS = 15
    raise SystemExit(treebench.main("import", CHILD, SWEEPS, __doc__.splitlines()[0]))
