"""Command line front end for the scenario runner."""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from .scenario import (ScenarioParseError, UnknownCheckError, available_checks,
                       emit_report, load_scenario, run_scenario)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opalg",
        description="Run verification scenarios for the operator-algebra toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--format", choices=("text", "csv"), default="text")
    run.add_argument("--out", help="write the report to this path")
    run.add_argument("--jobs", type=int, default=1,
                     help="max concurrent checks")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")

    sub.add_parser("checks", help="list available check names")
    return parser


def _write(fh, text: str, name: str = "stdout") -> bool:
    """Write and flush text, then close fh unless it is stdout, so that an
    error at close is caught here too.  A reader that has gone (a closed pipe)
    is no error: the report stays unread and the exit code is still the
    verdict.  Any other failure (a full disk) prints one error line naming
    the sink and returns False."""
    try:
        try:
            fh.write(text)
            fh.flush()
        finally:
            if fh is not sys.stdout:
                fh.close()
    except OSError as exc:
        if fh is sys.stdout:
            # text is left in stdout's buffer: point the descriptor at devnull
            # so that the flush at exit has somewhere to put it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {name}: {exc}", file=sys.stderr)
            return False
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    if args.command == "checks":
        written = _write(sys.stdout, "".join(f"{name}\n" for name in available_checks()))
        return EXIT_OK if written else EXIT_USAGE

    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioParseError, UnknownCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:  # a bad output path is a usage error, found before the run
        sink = open(args.out, "w", encoding="utf-8") if args.out \
            else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with sink as fh:
        report = run_scenario(scenario, jobs=args.jobs, seed_override=args.seed)
        written = _write(fh, emit_report(report, args.format), args.out or "stdout")
    if not written:
        return EXIT_USAGE
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def entry() -> int:
    """The `opalg` command and `python -m opalg.cli`: main(), then, with the
    report written and its file closed, freeze the heap, so that interpreter
    exit skips its final collections of objects that die with the process.
    Unless the caller chose a thread count, OpenBLAS runs on one thread: the
    variable is read when the first check imports numpy.  An in-process
    main() leaves the collector and the threads as they were."""
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
