"""opalg benchmark: scenario files timed through the unmodified `opalg run`.

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout: it runs `src/opalg` and reads
`scenarios/full_suite.json`.  BENCHMARK.json lists the workloads `suite`
and `quotient`; `grid` and `exact` run the same way by hand (see
perfbench/README.md).

--trace 0  Rounds of one fresh `python -m opalg.cli run <file> --format csv`
           process each, timed from outside, until the next round would
           pass --seconds.  Reports wall_s (median round), peak_rss_mb
           (median of the child's own rusage) and setup_s (median of the
           fresh processes that import opalg and load the file: five
           before the rounds, one between each two and five after).
--trace 1  One timing pass and one memory pass of perfbench/tracer.py and
           one untraced round; reports the per-layer metrics.

Every report row and every independent check (perfbench/checks.py) is one
operation.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The benchmark process itself
imports no numpy, so it adds nothing to a child's peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads

WORKLOADS = ("suite", "grid", "exact", "quotient")
SETUP_REPS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r",
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
# Left out of every child's environment: the program's own settings (its
# tolerance overrides would part the program from checks.py) and the BLAS
# thread counts, so that numpy runs with its default threads as a user's
# would and the figures do not hang on the caller's shell.
DROPPED_ENV_PREFIXES = ("OPALG_", "OPENBLAS_", "GOTO_", "OMP_", "MKL_", "BLIS_")

SETUP_CODE = ("import sys, opalg, opalg.scenario; "
              "opalg.scenario.load_scenario(sys.argv[1]); print(opalg.__file__)")
CHARGES_CODE = ("import json; from opalg.scenario import _MODELS; "
                "print(json.dumps({m: [[[z.real, z.imag] for z in row] "
                "for row in f().Q.tolist()] for m, f in _MODELS.items()}))")
GROUP_LAW = ("galilei.make_galilei", "galilei.galilei_compose",
             "galilei.bargmann_exponent")


class Tally:
    """Attempted and failed operations, and whether every check held."""

    def __init__(self, checker: checks.Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.bad = []

    def add(self, csv_text: str, exit_code: int):
        results, rows = self.checker.check(csv_text, exit_code)
        self.attempted += len(rows) + len(results)
        self.failed += sum(1 for r in rows if r[1] != "pass")
        for label, ok in results:
            if not ok:
                self.failed += 1
                self.bad.append(label)


def run_child(cmd, env, out_path, err_path):
    """Wall time, peak RSS (MB) and exit code of one child process."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


class Bench:
    def __init__(self, workload: str, seed: int):
        self.root = os.getcwd()
        src = os.path.join(self.root, "src")
        if not os.path.isfile(os.path.join(src, "opalg", "__init__.py")):
            fail(f"no src/opalg under {self.root}; run from a source checkout")
        if not os.path.isfile(workloads.SUITE_FILE):
            fail(f"no {workloads.SUITE_FILE} under {self.root}")
        self.src = src
        self.work = os.path.join("perfbench", "_work", workload)
        os.makedirs(self.work, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(DROPPED_ENV_PREFIXES)}
        self.env["PYTHONPATH"] = src
        self.scenario = workloads.write_workload(workload, seed, self.work)
        with open(self.scenario, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        charges = self._charges() if any(
            c["check"].startswith("brst.") for c in data["checks"]) else {}
        self.tally = Tally(checks.Checker(data, charges))

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def python(self, *args):
        return [sys.executable, *args]

    def _probe(self, code, *args) -> str:
        _, _, rc = run_child(self.python("-c", code, *args), self.env,
                             self.path("probe.out"), self.path("probe.err"))
        if rc != 0:
            fail(f"probe failed ({rc}): {read(self.path('probe.err'))[-400:]}")
        return read(self.path("probe.out"))

    def _charges(self):
        raw = json.loads(self._probe(CHARGES_CODE))
        return {m: [[complex(re, im) for re, im in row] for row in Q]
                for m, Q in raw.items()}

    def setup_walls(self, reps: int):
        walls = []
        for _ in range(reps):
            cmd = self.python("-c", SETUP_CODE, self.scenario)
            wall, _, rc = run_child(cmd, self.env, self.path("setup.out"),
                                    self.path("setup.err"))
            loaded = read(self.path("setup.out")).strip()
            if rc != 0 or not loaded.startswith(self.src + os.sep):
                fail(f"setup process failed ({rc}) or loaded opalg from "
                     f"{loaded!r}: {read(self.path('setup.err'))[-400:]}")
            walls.append(wall)
        return walls

    def cli_round(self):
        """One untraced `opalg run`; its outputs are checked and tallied."""
        cmd = self.python("-m", "opalg.cli", "run", self.scenario, "--format", "csv")
        wall, rss, rc = run_child(cmd, self.env, self.path("report.csv"),
                                  self.path("report.err"))
        self.tally.add(read(self.path("report.csv")), rc)
        return wall, rss

    def tracer(self, mode: str):
        summary = self.path(f"{mode}.json")
        if os.path.exists(summary):
            os.remove(summary)
        cmd = self.python(os.path.join(HERE, "tracer.py"), "--mode", mode,
                          "--scenario", self.scenario,
                          "--csv", self.path(f"{mode}.csv"), "--summary", summary,
                          "--spans", self.path("spans.tsv"))
        wall, _, rc = run_child(cmd, self.env, self.path(f"{mode}.out"),
                                self.path(f"{mode}.err"))
        if rc != 0 or not os.path.exists(summary):
            fail(f"tracer {mode} pass failed ({rc}): "
                 f"{read(self.path(mode + '.err'))[-400:]}")
        with open(summary, "r", encoding="utf-8") as fh:
            out = json.load(fh)
        if not out["opalg_file"].startswith(self.src + os.sep):
            fail(f"tracer loaded opalg from {out['opalg_file']!r}")
        self.tally.add(read(self.path(f"{mode}.csv")), out["exit_code"])
        return wall, out

    def end_to_end(self, seconds: int):
        # set-up is sampled before, between and after the rounds, so that
        # its median spans the run as the rounds do: the host's speed drifts
        # over seconds to minutes
        setup = self.setup_walls(SETUP_REPS)
        walls, rss = [], []
        deadline = time.perf_counter() + seconds
        while True:
            wall, peak = self.cli_round()
            walls.append(wall)
            rss.append(peak)
            if time.perf_counter() + wall > deadline:
                break
            setup += self.setup_walls(1)
        setup += self.setup_walls(SETUP_REPS)
        print(f"round walls (s): {' '.join(f'{w:.3f}' for w in walls)}", file=sys.stderr)
        print(f"set-up walls (s): {' '.join(f'{w:.3f}' for w in setup)}", file=sys.stderr)
        return {"wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(rss)}

    def per_layer(self):
        traced_wall, timing = self.tracer("time")
        _, memory = self.tracer("memory")
        untraced_wall, _ = self.cli_round()
        return layer_metrics(timing, memory,
                             traced_wall - timing["write_s"] - untraced_wall)


def layer_metrics(timing: dict, memory: dict, overhead_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced run.

    A name `<prefix>.<key>` sums `key` over the spans named `prefix` or
    below it, so `brst.self_s` is the layer's self time and
    `wigner.restricted_inverse_fourier.calls` counts both shell kinds.
    """
    funcs = timing["functions"]

    def total(prefix: str, key: str):
        return sum((s[key] for name, s in funcs.items()
                    if name == prefix or name.startswith(prefix + ".")),
                   0 if key == "calls" else 0.0)

    counters = timing["counters"]
    evaluated = counters["galilei.brackets_evaluated"]
    peaks = memory["peak_alloc_bytes"]
    out = {}
    for metric in (m["name"] for m in SPEC["per_layer"]):
        stem, _, key = metric.rpartition(".")
        if metric == "galilei.brackets_evaluated":
            out[metric] = evaluated
        elif metric == "galilei.bracket_yield":
            out[metric] = counters["galilei.brackets_read"] / evaluated if evaluated else 0.0
        elif metric == "galilei.group_law.self_s":
            out[metric] = sum(total(name, "self_s") for name in GROUP_LAW)
        elif key == "peak_alloc_mb":
            out[metric] = peaks.get(stem, 0) / 2 ** 20
        elif metric == "trace.overhead_s":
            out[metric] = overhead_s
        else:
            out[metric] = total(stem, key)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="opalg benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed)
    if args.trace:
        values = bench.per_layer()
        metrics = SPEC["per_layer"]
    else:
        values = bench.end_to_end(args.seconds)
        metrics = SPEC["end_to_end"]
    tally = bench.tally
    if tally.bad:
        print(f"independent checks failed: {sorted(set(tally.bad))}", file=sys.stderr)
    result = {"correct": not tally.bad, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
