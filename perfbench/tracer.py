"""Traced in-process run of `opalg.cli.main` on one scenario file.

The benchmark's own wrappers go around every function in the `__all__` of
each layer module (and around `cli.main`), rebound in every `opalg` module
that holds the function by name.  Nothing in `opalg` is edited.

    --mode time    record a span (name, start, end, parent) per call, kept in
                   memory and written out when the run ends, plus the
                   counters the per-layer metrics need
    --mode memory  the tracemalloc peak inside each call of the two array
                   kernels, with no other wrapper installed

    PYTHONPATH=src python3 perfbench/tracer.py --mode time \
        --scenario perfbench/_work/grid/grid.json --csv out.csv \
        --summary summary.json --spans spans.tsv
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
import tracemalloc
from array import array

import opalg
from opalg import brst, cli, galilei, krein, qplane, scenario, series, wigner

LAYERS = {"scenario": scenario, "series": series, "krein": krein, "brst": brst,
          "galilei": galilei, "wigner": wigner, "qplane": qplane}
MEMORY_FUNCTIONS = ("galilei.generator_commutators",
                    "wigner.restricted_inverse_fourier")
# calls whose cost depends on the kind of input get a suffix naming it
TAGGED = ("wigner.restricted_inverse_fourier", "qplane.glq2_coaction_check")


def _public_functions():
    """(span name, function) for every traced entry point."""
    out = [("scenario.main", cli.main)]
    for layer, mod in LAYERS.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", fn))
    return out


def _rebind(original, wrapper):
    """Point every opalg module attribute or module-level dict at the wrapper."""
    for name, mod in list(sys.modules.items()):
        if name != "opalg" and not name.startswith("opalg."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if item is original:
                        val[key] = wrapper


def _tag(name, args):
    if name == "wigner.restricted_inverse_fourier":
        return ".massless" if args[0].shell.kind == "massless" else ".cube"
    return ".exact" if isinstance(args[0], qplane.RootOfUnity) else ".numeric"


class SpanRecorder:
    """Spans in flat arrays: name index, parent index, start, end."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {"galilei.brackets_evaluated": 0,
                         "galilei.brackets_read": 0}

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn):
        clock = time.perf_counter
        tagged = name in TAGGED
        fixed_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = self._name_id(name + _tag(name, args)) if tagged else fixed_id
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if name == "galilei.generator_commutators":
                self._count_brackets(idx, result)
            return result
        return traced

    def _count_brackets(self, idx, report):
        # a convergence step reads the refining brackets, the exactness
        # check reads the rest; both evaluate the whole table
        caller = self.parent[idx]
        in_convergence = caller >= 0 and self.names[self.name_of[caller]] == \
            "galilei.commutator_convergence"
        read = galilei.CONVERGENT_BRACKETS if in_convergence \
            else galilei.EXACT_BRACKETS
        self.counters["galilei.brackets_evaluated"] += len(report.deviations)
        self.counters["galilei.brackets_read"] += len(
            set(read) & set(report.deviations))

    def summary(self):
        """calls, total_s and self_s per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
        return stats

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}"
                         f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _memory_wrap(peaks, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            peaks[name] = max(peaks.get(name, 0), peak)
    return traced


def main() -> int:
    parser = argparse.ArgumentParser(description="traced opalg run")
    parser.add_argument("--mode", choices=("time", "memory"), required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    recorder = SpanRecorder()
    peaks = {}
    for name, fn in _public_functions():
        if args.mode == "time":
            _rebind(fn, recorder.wrap(name, fn))
        elif name in MEMORY_FUNCTIONS:
            _rebind(fn, _memory_wrap(peaks, name, fn))

    start = time.perf_counter()
    code = cli.main(["run", args.scenario, "--format", "csv", "--out", args.csv])
    main_s = time.perf_counter() - start

    write_start = time.perf_counter()
    out = {"exit_code": code, "main_s": main_s, "opalg_file": opalg.__file__}
    if args.mode == "time":
        out["functions"] = recorder.summary()
        out["counters"] = recorder.counters
        out["spans"] = len(recorder.start)
        if args.spans:
            recorder.write(args.spans)
    else:
        out["peak_alloc_bytes"] = peaks
    out["write_s"] = time.perf_counter() - write_start
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
