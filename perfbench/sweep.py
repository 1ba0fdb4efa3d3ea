"""Size sweep of the layer kernels, with fitted scaling exponents.

    PYTHONPATH=src python3 perfbench/sweep.py

Regenerates the baseline table of ROADMAP.md: each kernel is timed at a few
sizes (best of up to three calls, one call past two seconds) and the
exponent k of t ~ n^k is fitted by least squares on log t against log n;
for the coaction check, whose cost grows geometrically in the degree, the
fit gives the factor per degree instead.  For reference only: it is not
gated and not part of the timed benchmark runs.
"""

from __future__ import annotations

import math
import os
import time
import warnings

import numpy as np

from opalg import brst, galilei, qplane, scenario, series, wigner

HERE = os.path.dirname(os.path.abspath(__file__))
SUITE = os.path.join(HERE, os.pardir, "scenarios", "full_suite.json")


def best_time(fn, reps=3):
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if elapsed > 2.0:
            break
    return best


def fit(xs, ts, geometric=False):
    """Slope of log t against log x (or against x, as a factor per step)."""
    u = [x if geometric else math.log(x) for x in xs]
    v = [math.log(t) for t in ts]
    mu, mv = sum(u) / len(u), sum(v) / len(v)
    slope = sum((a - mu) * (b - mv) for a, b in zip(u, v)) / \
        sum((a - mu) ** 2 for a in u)
    return math.exp(slope) if geometric else slope


def commutators(n):
    grid = galilei.momentum_grid(n, 10.0)
    return lambda: galilei.generator_commutators(1.0, grid)


def shell_transform(kind):
    def make(n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shell = wigner.make_shell(kind, 1.0, n, 0.4)
        f = wigner.gaussian_family(shell, 0.5, 0.0)[0]
        grid = wigner.reciprocal_slice(shell, 0.0)
        return lambda: wigner.restricted_inverse_fourier(f, grid)
    return make


def coaction(q):
    return lambda deg: (lambda: qplane.glq2_coaction_check(q, deg))


def pair_model(n):
    """Two physical modes plus (n - 2) / 2 null pairs, as in two_pair_model."""
    m = (n - 2) // 2
    gram = np.zeros((n, n))
    gram[0, 0] = gram[1, 1] = 1
    Q = np.zeros((n, n), dtype=complex)
    for i in range(m):
        a = 2 + 2 * i
        gram[a, a + 1] = gram[a + 1, a] = 1
        Q[a, a + 1] = 1
    space = brst.make_graded_space(gram, [0, 0] + [1, 0] * m)
    B = brst.validate_brst(space, Q)
    return lambda: brst.observable_algebra(B, "full")


def matrix_series(order):
    rng = np.random.default_rng(0)
    a = series.FormalSeries([rng.normal(size=(6, 6)) for _ in range(order + 1)])
    return lambda: series.series_mul(a, a)


def run_suite(jobs):
    spec = scenario.load_scenario(SUITE)
    return lambda: scenario.run_scenario(spec, jobs=jobs)


SWEEPS = (
    ("galilei.generator_commutators, all 73 brackets on an n³ grid", "n",
     (32, 64, 128), commutators, False),
    ("wigner.restricted_inverse_fourier, complete cube (einsum)", "n",
     (32, 64, 96), shell_transform("galilean"), False),
    ("same, massless shell (direct-sum fallback)", "n",
     (12, 16, 24), shell_transform("massless"), False),
    ("qplane.glq2_coaction_check, exact root N=5", "max_deg",
     (4, 5, 6), coaction(qplane.RootOfUnity(5, 2)), True),
    ("same, numeric q = 2", "max_deg", (4, 5, 6), coaction(2.0 + 0j), True),
    ("brst.observable_algebra(variant=\"full\"), 2 physical + pairs", "n",
     (12, 16, 20), pair_model, False),
    ("series.series_mul, 6x6 matrix coefficients", "order",
     (8, 16, 32), matrix_series, False),
    ("run_scenario(full_suite), in process", "jobs", (1, 2, 4), run_suite, None),
)


def main() -> int:
    print("| what | size | time | scaling |\n|---|---|---|---|")
    for what, axis, sizes, make, geometric in SWEEPS:
        times = [best_time(make(n)) for n in sizes]
        if geometric is None:
            scaling = "—"
        elif geometric:
            scaling = f"×{fit(sizes, times, True):.1f} per degree"
        else:
            scaling = f"t ~ {axis}^{fit(sizes, times):.2f}"
        print(f"| `{what}` | {axis} = {' / '.join(map(str, sizes))} | "
              f"{' / '.join(f'{t:.3g}' for t in times)} s | {scaling} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
