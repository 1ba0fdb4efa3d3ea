"""Import-and-run timings of one or more source trees over the layers used.

    python3 benchmarks/import_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_import.json

Each child writes a scenario of one cheap check per layer for the first 1,
2, 4 or 6 of the layers series, krein, brst, galilei, wigner and qplane.
Three sweeps:
- `layers`: the child imports numpy first, then times `import opalg.cli`,
  `load_scenario` and `run_scenario` together: the set-up a scenario run
  pays on top of numpy.
- `start`: nothing is imported beforehand, and the time runs from the
  spawn of the child (the process start) to the end of `run_scenario`;
  at 0 layers the child loads the six-check file and runs nothing, which
  is what `opalg checks`, a malformed file's exit 2 and the benchmark's
  set-up processes pay.
- `exit`: the child times a `python -m opalg.cli run <file> --format csv`
  process from its spawn to its exit, so the interpreter's teardown after
  the report counts as well.
With lazy layers the time grows with the layers used; a tree that imports
every layer up front pays the same at every point.  `treebench` holds the
options (`--tree`, `--rev`, `--out`), the alternating fresh child
processes and the exponent fit; the rounds are raised to 15, because one
point is tens of milliseconds.  Uses only public names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import os, sys, tempfile, time
kind, layers = sys.argv[1], int(sys.argv[2])
if kind == "layers":
    import numpy
CHEAP = {
    "series": '{"check": "series.is_positive", "params": {"b": [[1, 0], [0, 0]]}}',
    "krein": '{"check": "krein.invariants", "params": {"samples": 4}}',
    "brst": '{"check": "brst.physical_space", "params": {"model": "null_pair"}}',
    "galilei": '{"check": "galilei.clifford"}',
    "wigner": '{"check": "wigner.angular", "params": {"l_max": 2}}',
    "qplane": '{"check": "qplane.normal_form", "params": {"word": "yx", "q": {"N": 3}}}',
}
fd, path = tempfile.mkstemp(suffix=".json")
with os.fdopen(fd, "w") as fh:
    fh.write('{"name": "import", "seed": 1, "checks": [%s]}'
             % ", ".join(list(CHEAP.values())[:layers or len(CHEAP)]))
if kind == "exit":
    import subprocess
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "opalg.cli", "run", path, "--format", "csv"],
                   stdout=subprocess.DEVNULL, check=True)
    print(time.perf_counter() - start)
    os.remove(path)
    sys.exit()
start = time.perf_counter()
import opalg.cli
from opalg.scenario import load_scenario, run_scenario
scenario = load_scenario(path)
if layers:
    report = run_scenario(scenario)
    assert report.all_passed and len(report.records) == layers
elapsed = time.perf_counter() - start if kind == "layers" else time.time() - float(sys.argv[3])
os.remove(path)
print(elapsed)
"""

SWEEPS = (
    ("layers", "layers", "layers used", (1, 2, 4, 6),
     "import opalg.cli + load_scenario + run_scenario after numpy, one cheap "
     "check per layer of series, krein, brst, galilei, wigner, qplane"),
    ("start", "start", "layers used (0: load only)", (0, 1, 2, 4, 6),
     "process start to the end of load_scenario (0 layers) or run_scenario, "
     "nothing imported beforehand, one cheap check per layer of series, "
     "krein, brst, galilei, wigner, qplane"),
    ("exit", "exit", "layers used", (1, 2, 4, 6),
     "spawn to exit of `python -m opalg.cli run <file> --format csv`, one "
     "cheap check per layer of series, krein, brst, galilei, wigner, qplane"),
)


if __name__ == "__main__":
    treebench.REPEATS = 15
    raise SystemExit(treebench.main("import", CHILD, SWEEPS, __doc__.splitlines()[0]))
