"""Formal-series timings of one or more source trees, with fitted exponents.

    python3 benchmarks/series_sweep.py --rev parent=HEAD~1 --tree change=src \
        --out BENCH_series.json

Two sweeps over the order of the series:
- `series_mul`: one `series_mul` of two series of 6x6 complex coefficients
  (normal entries, seed 0) at orders 8, 32, 128 and 400.
- `witness`: one scenario entry of `series.witness_roundtrip` with count
  500, at the orders where it passes (8 to 128; at 400 it reads NaN): the
  check's own `wall_ms`.
Each child first makes one untimed call, so that numpy's first-call costs
fall outside the timing, then one timed call, then one call under
`tracemalloc`.  It prints the seconds and that call's traced peak in KiB,
so `peak_mb` here is the `tracemalloc` peak of one call, not the RSS of
the child.  `treebench` holds the options (`--tree`, `--rev`, `--out`),
the alternating fresh child processes and the exponent fit; the rounds are
raised to 5.  Uses only public names that every tree has.
"""

from __future__ import annotations

import treebench

CHILD = r"""
import sys, time, tracemalloc
import numpy as np
kind, order = sys.argv[1], int(sys.argv[2])
if kind == "series_mul":
    from opalg.series import FormalSeries, series_mul
    z = np.random.default_rng(0).normal(size=(2, order + 1, 6, 6, 2)) @ np.array([1.0, 1j])
    a, b = FormalSeries(z[0]), FormalSeries(z[1])

    def call():
        start = time.perf_counter()
        series_mul(a, b)
        return time.perf_counter() - start
else:
    from opalg.scenario import DEFAULT_TOLERANCES, CheckSpec, Scenario, run_scenario
    spec = CheckSpec("series.witness_roundtrip", {"count": 500, "order": order})
    scenario = Scenario("series", 1650, 8, dict(DEFAULT_TOLERANCES), (spec,))

    def call():
        record = run_scenario(scenario).records[0]
        assert record.status == "pass", record
        return record.wall_ms / 1e3
call()
seconds = call()
tracemalloc.start()
call()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(seconds, peak / 1024)
"""

SWEEPS = (
    ("series_mul", "series_mul", "order", (8, 32, 128, 400),
     "series_mul of two series of 6x6 complex coefficients"),
    ("witness", "witness", "order", (8, 16, 32, 64, 128),
     "series.witness_roundtrip, count 500"),
)


if __name__ == "__main__":
    treebench.REPEATS = 5
    raise SystemExit(treebench.main("series", CHILD, SWEEPS, __doc__.splitlines()[0]))
