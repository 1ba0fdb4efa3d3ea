"""Sampled-check timings of one or more source trees, with fitted exponents.

    python3 benchmarks/sampling_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_sampling.json

Times one scenario entry of `krein.invariants` (signatures (3, 2) and
(1, 8), n = 5 and 9) and of `series.witness_roundtrip` (order 16) over the
sample count: the check's own `wall_ms`, on the second run in the child,
so that numpy's first-call costs fall outside it.  `treebench` holds the
options (`--tree`, `--rev`, `--out`), the alternating fresh child
processes and the exponent fit.  Uses only public names that every tree
has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import sys
from opalg.scenario import DEFAULT_TOLERANCES, CheckSpec, Scenario, run_scenario
kind, size = sys.argv[1], int(sys.argv[2])
if kind == "witness":
    spec = CheckSpec("series.witness_roundtrip", {"count": size, "order": 16})
else:
    signature = {"krein5": [3, 2], "krein9": [1, 8]}[kind]
    spec = CheckSpec("krein.invariants", {"signature": signature, "samples": size})
scenario = Scenario("sampling", 1650, 8, dict(DEFAULT_TOLERANCES), (spec,))
run_scenario(scenario)
record = run_scenario(scenario).records[0]
assert record.status == "pass", record
print(record.wall_ms / 1e3)
"""

SAMPLES = (150, 600, 2400)
SWEEPS = (
    ("krein_n5", "krein5", "samples", SAMPLES, "krein.invariants, signature (3, 2)"),
    ("krein_n9", "krein9", "samples", SAMPLES, "krein.invariants, signature (1, 8)"),
    ("witness", "witness", "count", SAMPLES, "series.witness_roundtrip, order 16"),
)


if __name__ == "__main__":
    raise SystemExit(treebench.main("sampling", CHILD, SWEEPS, __doc__.splitlines()[0]))
