import ast
import errno
import functools
import gc
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opalg
from opalg.cli import _write, main
from opalg.scenario import (DEFAULT_TOLERANCES, CheckRecord, Report,
                            ScenarioParseError, UnknownCheckError,
                            available_checks, emit_report, load_scenario,
                            run_scenario, series_from_json)
from opalg.series import FormalSeries

from oracles import series_to_json

REPO = Path(__file__).resolve().parent.parent
SMOKE = str(REPO / "scenarios" / "smoke.json")
FULL = str(REPO / "scenarios" / "full_suite.json")


def run_python(args, **env_vars):
    """`python ARGS` in a fresh process from the repository root, importing
    this checkout's opalg first; a variable given as None is unset."""
    env = {k: v for k, v in dict(os.environ, **env_vars).items() if v is not None}
    src = str(Path(opalg.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli(args, **env_vars):
    return run_python(["-m", "opalg.cli", *args], **env_vars)


def write_scenario(tmp_path, body):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(body))
    return str(path)


class TestSerialization:
    def test_scalar_series_roundtrip(self):
        s = FormalSeries([1 + 2j, -0.5, 3j])
        back = series_from_json(series_to_json(s))
        np.testing.assert_array_equal(back.coeffs, s.coeffs)

    def test_matrix_series_roundtrip(self):
        rng = np.random.default_rng(0)
        s = FormalSeries([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                          for _ in range(3)])
        back = series_from_json(series_to_json(s))
        np.testing.assert_array_equal(back.coeffs, s.coeffs)

    def test_vector_series_roundtrip(self):
        rng = np.random.default_rng(1)
        s = FormalSeries([rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4)])
        back = series_from_json(series_to_json(s))
        assert back.shape == (3,)
        np.testing.assert_array_equal(back.coeffs, s.coeffs)


class TestLoading:
    def test_smoke_scenario_loads(self):
        scenario = load_scenario(SMOKE)
        assert scenario.name == "smoke"
        assert scenario.checks

    def test_unknown_check_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "bad", "seed": 1,
            "checks": [{"check": "nope.never"}]})
        with pytest.raises(UnknownCheckError):
            load_scenario(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "seed": }')
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(str(path))
        assert "line 2" in str(err.value)

    def test_missing_keys_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x"})
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_tolerances_come_from_the_file_or_the_default(self, tmp_path, monkeypatch):
        # the environment is no source of tolerances; a zero tolerance is legal
        monkeypatch.setenv("OPALG_TOL_PARSEVAL", "1e-5")
        monkeypatch.setenv("OPALG_TOL_DEFAULT", "abc")
        path = write_scenario(tmp_path, {
            "name": "tol", "seed": 1, "tolerances": {"witness": 1e-7, "grid_exact": 0},
            "checks": [{"check": "galilei.clifford"}]})
        assert load_scenario(path).tolerances == dict(DEFAULT_TOLERANCES, witness=1e-7,
                                                      grid_exact=0.0)

    def test_numbers_cast_to_the_type_of_the_default(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "cast", "seed": 1,
            "checks": [{"check": "series.witness_roundtrip",
                        "params": {"count": 4.0, "order": 16.0}},
                       {"check": "galilei.commutators", "params": {"p_max": 10}},
                       {"check": "brst.physical_space", "params": {"expect_dim": 1.0}}]})
        witness, grid, quotient = (spec.params for spec in load_scenario(path).checks)
        assert witness == {"count": 4, "order": 16}
        assert type(witness["count"]) is type(witness["order"]) is int
        assert type(grid["p_max"]) is float
        assert type(quotient["expect_dim"]) is int

    def test_nested_numbers_read_at_load(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "nested", "seed": 1,
            "checks": [{"check": "galilei.commutator_convergence",
                        "params": {"sizes": [32.0, 64]}},
                       {"check": "krein.invariants", "params": {"signature": [2.0, 1]}},
                       {"check": "qplane.center", "params": {"q": {"N": 3.0}}},
                       {"check": "wigner.parseval", "params": {"times": [0, 1]}}]})
        ladder, krein, center, parseval = (spec.params for spec in load_scenario(path).checks)
        assert ladder == {"sizes": [32, 64]} and type(ladder["sizes"][0]) is int
        assert krein == {"signature": [2, 1]} and type(krein["signature"][0]) is int
        assert center == {"q": {"N": 3, "k": 1}} and type(center["q"]["N"]) is int
        assert [type(t) for t in parseval["times"]] == [float, float]

    def test_numeric_q_read_at_load(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "numeric-q", "seed": 1,
            "checks": [{"check": "qplane.center", "params": {"q": 2}},
                       {"check": "qplane.coaction", "params": {"q": [0.5, -1]}}]})
        center, coaction = (spec.params for spec in load_scenario(path).checks)
        assert center == {"q": 2 + 0j} and type(center["q"]) is complex
        assert coaction == {"q": 0.5 - 1j}

    def test_ladder_minimum_is_the_grid_minimum(self):
        from opalg import galilei, scenario
        least = galilei.MIN_POINTS_PER_AXIS
        assert scenario._MIN_LADDER_POINTS == least
        points = scenario._REGISTRY["galilei.commutators"].__annotations__["points"]
        assert points(least, "points") == least
        with pytest.raises(ScenarioParseError, match=f"points: expected at least {least}"):
            points(least - 1, "points")

    def test_choices_are_the_layers_choices(self):
        # the strings load admits, repeated in scenario because loading
        # imports no layer: each one must be one its layer takes
        from opalg import brst, scenario, wigner

        def choices(name, key):
            return scenario._REGISTRY[name].__annotations__[key]
        assert choices("wigner.parseval", "kind") == wigner.SHELL_KINDS
        assert choices("wigner.two_particle", "kind") == wigner.SHELL_KINDS
        shell = wigner.make_shell("relativistic", 1.0, 3, 0.5)
        for reweight in choices("wigner.parseval", "reweight"):
            assert wigner.isometry_defect(shell, reweight) >= 0.0
        for variant in choices("brst.observables", "variant"):
            assert brst.observable_algebra(brst.gupta_bleuler_toy(), variant).variant == variant
        for name in ("brst.physical_space", "brst.observables", "brst.deform_stability"):
            assert choices(name, "model") == tuple(scenario._MODELS)

    @pytest.mark.parametrize("name", available_checks())
    def test_every_parameter_is_declared(self, name):
        # a parameter without a declaration would make loading raise a
        # KeyError traceback, not exit 2; a default, written as JSON, must
        # lie in its parameter's domain
        fn = opalg.scenario._REGISTRY[name]
        code = fn.__code__
        names = code.co_varnames[code.co_argcount:code.co_argcount + code.co_kwonlyargcount]
        for key in names:
            assert key in fn.__annotations__, key
        for key, default in (fn.__kwdefaults__ or {}).items():
            declared, wire = fn.__annotations__[key], json.loads(json.dumps(default))
            if isinstance(declared, tuple):
                assert wire in declared, key
            elif default is not None:
                assert declared(wire, key) == wire, key

    def test_defaults_keep_the_rules(self):
        # a rule ties several parameters; their defaults together must pass it
        for name, rule in opalg.scenario._RULES.items():
            assert rule(**(opalg.scenario._REGISTRY[name].__kwdefaults__ or {})) is None, name

    def test_massless_shell_loads_at_any_mass(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "cone", "seed": 1,
            "checks": [{"check": check, "params": {"kind": "massless", "mass": mass}}
                       for check in ("wigner.parseval", "wigner.two_particle")
                       for mass in (0, -1)]})
        assert [spec.params["mass"] for spec in load_scenario(path).checks] == [0, -1, 0, -1]

    def test_pairs_and_series_read_at_load(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "pairs", "seed": 1,
            "checks": [{"check": "qplane.normal_form",
                        "params": {"q": {"N": 3}, "expect_monomial": [1.0, 1]}},
                       {"check": "series.is_positive",
                        "params": {"b": [[1, 0], [0.5, -2]]}}]})
        monomial, series = (spec.params for spec in load_scenario(path).checks)
        assert monomial["expect_monomial"] == [1, 1]
        assert type(monomial["expect_monomial"][0]) is int
        assert series["b"] == [[1, 0], [0.5, -2]]
        assert {type(x) for pair in series["b"] for x in pair} == {float}

    def test_benchmark_workloads_load(self, tmp_path):
        # the generated workloads name parameters that the checks must keep
        proc = run_python(["perfbench/workloads.py", "--seed", "1", "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        paths = proc.stdout.split()
        assert len(paths) == 3
        for path in paths:
            assert load_scenario(path).checks


class TestRunning:
    def test_smoke_all_pass(self):
        report = run_scenario(SMOKE)
        assert report.all_passed
        assert len(report.records) == len(load_scenario(SMOKE).checks)

    def test_failing_check_does_not_stop_the_run(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "mixed", "seed": 5,
            "checks": [
                {"check": "series.is_positive",
                 "params": {"b": [[-1, 0]], "expect": "positive"}},
                {"check": "galilei.clifford"},
            ]})
        report = run_scenario(path)
        assert [r.status for r in report.records] == ["fail", "pass"]

    def test_check_error_is_captured(self, tmp_path, monkeypatch):
        # every malformed parameter is a load error, so the layer is made
        # to raise at run time
        def refuse(*args, **kwargs):
            raise ValueError("lattice refused")
        monkeypatch.setattr(opalg.wigner, "make_shell", refuse)
        path = write_scenario(tmp_path, {
            "name": "erroring", "seed": 5,
            "checks": [
                {"check": "wigner.parseval"},
                {"check": "galilei.clifford"},
            ]})
        report = run_scenario(path)
        assert report.records[0].status == "error"
        assert "ValueError" in report.records[0].value
        assert report.records[1].status == "pass"

    def test_parseval_defect_makes_no_transform(self, tmp_path, monkeypatch):
        # the defect comes from Parseval's identity; only dump_field transforms
        calls = []
        transform = opalg.wigner.restricted_inverse_fourier
        monkeypatch.setattr(opalg.wigner, "restricted_inverse_fourier",
                            lambda *args: calls.append(args) or transform(*args))
        monkeypatch.chdir(tmp_path)
        entries = [{"check": "wigner.parseval", "params": params} for params in (
            {"times": [0.0, 1.0, 7.3]},
            {"kind": "relativistic", "expect": "defect"},
            {"kind": "relativistic", "reweight": "newton_wigner"})]
        path = write_scenario(tmp_path, {"name": "parseval", "seed": 5, "checks": entries})
        assert run_scenario(path).all_passed
        assert calls == []
        entries[0]["params"]["dump_field"] = "field.csv"
        path = write_scenario(tmp_path, {"name": "parseval", "seed": 5, "checks": entries})
        assert run_scenario(path).all_passed
        assert [grid.t for _, grid in calls] == [0.0]

    def test_witness_roundtrip_relative_to_coefficient_scale(self, tmp_path):
        # witness coefficients grow like |c0|^-order; at order 16 an
        # absolute comparison fails on rounding alone
        path = write_scenario(tmp_path, {
            "name": "witness", "seed": 1,
            "checks": [{"check": "series.witness_roundtrip",
                        "params": {"count": 20, "order": 16}}]})
        record = run_scenario(path).records[0]
        assert record.status == "pass"
        assert float(record.value) <= DEFAULT_TOLERANCES["witness"]

    def test_witness_roundtrip_fails_on_ratios_it_cannot_compute(self, tmp_path):
        # at order 400 some witness rows overflow and their defect ratios are
        # NaN: the check must not pass on the finite rows alone
        path = write_scenario(tmp_path, {
            "name": "witness", "seed": 1,
            "checks": [{"check": "series.witness_roundtrip",
                        "params": {"count": 200, "order": 400}}]})
        record = run_scenario(path).records[0]
        assert (record.status, record.value) == ("fail", "nan")

    @pytest.mark.parametrize("check, layer, function", [
        ("krein.invariants", "krein", "krein_adjoint"),
        ("galilei.levy_leblond_shell", "galilei", "levy_leblond_symbol"),
        ("galilei.commutator_convergence", "galilei", "commutator_convergence"),
    ])
    def test_nan_residual_fails(self, tmp_path, monkeypatch, check, layer, function):
        # Python's max() and min() drop a NaN after the first argument
        module = getattr(opalg, layer)
        original = getattr(module, function)

        def poisoned(*args):
            out = original(*args)
            if isinstance(out, dict):  # measured orders
                return {key: orders + [float("nan")] for key, orders in out.items()}
            return out * np.nan
        monkeypatch.setattr(module, function, poisoned)
        path = write_scenario(tmp_path, {"name": "nan", "seed": 1, "checks": [{"check": check}]})
        record = run_scenario(path).records[0]
        assert record.status == "fail" and "nan" in record.value, record

    def test_readme_example_loads_and_passes(self, tmp_path):
        # the README's one JSON block documents the file format
        blocks = (REPO / "README.md").read_text().split("```json\n")[1:]
        assert len(blocks) == 1
        path = tmp_path / "example.json"
        path.write_text(blocks[0].split("```")[0])
        scenario = load_scenario(str(path))
        report = run_scenario(scenario)
        assert len(report.records) == len(scenario.checks) >= 1
        assert report.all_passed, report.records

    @pytest.mark.parametrize("params", [{"kind": "massless"},
                                        {"kind": "massless", "mass": 3},
                                        {"kind": "massless", "mass": 0, "points": 1}])
    def test_massless_pair_threshold_ignores_mass(self, tmp_path, params):
        # the light cone ignores `mass`: its pair threshold is 0, not 2 m;
        # the one-point cone is its apex alone
        path = write_scenario(tmp_path, {
            "name": "cone", "seed": 2,
            "checks": [{"check": "wigner.two_particle", "params": params}]})
        record = run_scenario(path).records[0]
        assert record.status == "pass", record.value

    @pytest.mark.parametrize("q, max_deg, count", [
        ({"N": 1}, 3, 9), ([1, 0], 3, 9), ([-1, 0], 4, 5), ({"N": 2}, 4, 5)], ids=str)
    def test_center_wherever_q_has_a_finite_order(self, tmp_path, q, max_deg, count):
        # x^a y^b is central iff q^a = q^b = 1: every monomial at q = 1, the
        # even ones at q = -1, given exactly or as a number
        path = write_scenario(tmp_path, {"name": "center", "seed": 1, "checks": [
            {"check": "qplane.center", "params": {"q": q, "max_deg": max_deg}}]})
        (record,) = run_scenario(path).records
        assert (record.status, record.value) == ("pass", f"count={count}")

    def test_qplane_verdicts_do_not_depend_on_the_size_of_q(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "scale", "seed": 1, "checks": [
            {"check": "qplane.coaction", "params": {"q": [0.001, 0], "max_deg": 4}},
            {"check": "qplane.coaction",
             "params": {"q": [0.001, 0], "max_deg": 4, "perturb_ab": True}},
            {"check": "qplane.normal_form",
             "params": {"q": [1000, 0], "word": "yyyxxx", "expect_monomial": [3, 3]}},
            # q^e far outside the floats: the zero test and the expected set
            # read only powers of modulus at most 1
            {"check": "qplane.center", "params": {"q": [0.001, 0], "max_deg": 120}},
            {"check": "qplane.center", "params": {"q": [1000, 0], "max_deg": 120}},
            {"check": "qplane.normal_form",
             "params": {"q": [0.001, 0], "word": "y" * 21 + "x" * 22}}]})
        assert [(r.status, r.value) for r in run_scenario(path).records] == [
            ("pass", "preserved,words=17"), ("pass", "violated@deg2"), ("pass", "x^3y^3"),
            ("pass", "count=0"), ("pass", "count=0"), ("pass", "x^22y^21")]

    def test_deterministic_csv_bytes(self):
        first = emit_report(run_scenario(SMOKE), "csv")
        second = emit_report(run_scenario(SMOKE), "csv")
        assert first == second

    def test_seed_override_changes_sampled_values(self):
        base = emit_report(run_scenario(SMOKE), "csv")
        other = emit_report(run_scenario(SMOKE, seed_override=99), "csv")
        assert base != other

    def test_repeated_entries_draw_apart(self, tmp_path):
        entry = {"check": "galilei.levy_leblond_shell", "params": {"count": 20}}
        path = write_scenario(tmp_path, {"name": "twins", "seed": 3,
                                         "checks": [entry, entry]})
        first, second = run_scenario(path).records
        assert first.status == second.status == "pass"
        assert first.value != second.value
        assert emit_report(run_scenario(path), "csv") \
            == emit_report(run_scenario(path), "csv")

    def test_jobs_preserve_order_and_results(self):
        serial = run_scenario(SMOKE)
        parallel = run_scenario(SMOKE, jobs=4)
        assert [r.name for r in serial.records] == [r.name for r in parallel.records]
        assert [r.value for r in serial.records] == [r.value for r in parallel.records]


class TestSharedModels:
    CHECKS = [{"check": "brst.physical_space", "params": {"model": "two_pair"}},
              {"check": "brst.observables", "params": {"model": "two_pair", "variant": "full"}},
              {"check": "brst.deform_stability",
               "params": {"model": "two_pair", "order": 3, "samples": 30}}]

    def test_one_structure_per_model(self, tmp_path, monkeypatch, request):
        build, builds = opalg.brst.two_pair_model, []

        def counted():
            builds.append(1)
            return build()
        monkeypatch.setattr(opalg.brst, "two_pair_model", counted)
        shared = opalg.scenario._MODELS["two_pair"]
        shared.cache_clear()
        request.addfinalizer(shared.cache_clear)
        path = write_scenario(tmp_path, {"name": "shared", "seed": 3, "checks": self.CHECKS})
        csv = emit_report(run_scenario(path), "csv")
        assert len(builds) == 1
        # a structure built afresh for each check gives the same bytes
        monkeypatch.setitem(opalg.scenario._MODELS, "two_pair", counted)
        assert emit_report(run_scenario(path), "csv") == csv
        assert len(builds) == 1 + len(self.CHECKS)
        assert csv.count(",pass,") == len(self.CHECKS)

    def test_threads_share_one_structure(self, tmp_path, request):
        # four threads on two cores, switching often, build and read the
        # shared structures and their cached decompositions at once
        for shared in opalg.scenario._MODELS.values():
            shared.cache_clear()
        request.addfinalizer(lambda: [m.cache_clear() for m in opalg.scenario._MODELS.values()])
        checks = [dict(entry, params=dict(entry["params"], model=model))
                  for model in ("two_pair", "gupta_bleuler") for entry in self.CHECKS] * 3
        path = write_scenario(tmp_path, {"name": "threads", "seed": 4, "checks": checks})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = emit_report(run_scenario(path, jobs=4), "csv")
        finally:
            sys.setswitchinterval(interval)
        assert threaded == emit_report(run_scenario(path), "csv")
        assert threaded.count(",pass,") == len(checks)

    def test_rescale_computes_no_generators(self, tmp_path, monkeypatch):
        # the rescaled charge (1 + g) Q needs no first-order generators
        def refuse(B):
            raise AssertionError("deformation_generators called")
        monkeypatch.setattr(opalg.brst, "deformation_generators", refuse)
        checks = [{"check": "brst.deform_stability", "params": {"model": model, "mode": "rescale"}}
                  for model in ("two_pair", "gupta_bleuler")]
        path = write_scenario(tmp_path, {"name": "rescale", "seed": 3, "checks": checks})
        assert emit_report(run_scenario(path), "csv").count(",pass,") == len(checks)


class TestDrawBudget:
    """The sampled checks draw and check in blocks of at most series._DRAWS
    random numbers; one sample per block and one block for all samples give
    the same result and leave the stream in the same state."""

    @pytest.mark.parametrize("name, params", [
        ("series.witness_roundtrip", {"count": 70, "order": 9}),
        ("series.witness_roundtrip", {"count": 33, "order": 16}),
        ("krein.invariants", {"signature": [3, 2], "samples": 50}),
        ("krein.invariants", {"signature": [1, 8], "samples": 31}),
        ("galilei.levy_leblond_shell", {"count": 40}),
    ])
    def test_block_size_does_not_matter(self, monkeypatch, name, params):
        runs = []
        for budget in (1, 10 ** 9):
            monkeypatch.setattr(opalg.series, "_DRAWS", budget)
            ctx = opalg.scenario.CheckContext(
                rng=np.random.default_rng(3), truncation_order=8,
                tolerances=dict(DEFAULT_TOLERANCES))
            runs.append((opalg.scenario._REGISTRY[name](ctx, **params),
                         ctx.rng.bit_generator.state))
        assert runs[0] == runs[1]
        assert runs[0][0].passed

    @pytest.mark.parametrize("samples, draws, sizes", [
        (0, 5, []), (1, 10 ** 6, [1]), (5, 10 ** 6, [1] * 5),
        (600, 324, [25] * 24), (601, 324, [25] * 24 + [1]), (500, 34, [240, 240, 20]),
    ])
    def test_block_sizes(self, samples, draws, sizes):
        assert opalg.series._blocks(samples, draws) == sizes


class TestEmission:
    def test_csv_schema(self):
        report = Report(scenario="s", seed=1)
        assert emit_report(report, "csv") == "check,status,value,tolerance,ms\n"

    def test_csv_line_count(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "two", "seed": 9,
            "checks": [{"check": "galilei.clifford"},
                       {"check": "series.is_positive", "params": {"b": [[1, 0]]}}]})
        text = emit_report(run_scenario(path), "csv")
        assert len(text.strip().splitlines()) == 3

    def test_csv_folds_line_breaks_in_values(self):
        report = Report(scenario="s", seed=1, records=[CheckRecord(
            name="x.y", status="error", value="ValueError: line one\nline two,\r\nthree",
            tolerance="", wall_ms=1.0)])
        lines = emit_report(report, "csv").splitlines()
        assert len(lines) == 2
        assert lines[1].split(",") == [
            "x.y", "error", "ValueError: line one line two;  three", "", "0"]

    def test_text_format_summary(self):
        rendered = emit_report(run_scenario(SMOKE), "text")
        assert "summary:" in rendered
        assert "0 failed" in rendered

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(Report(scenario="s", seed=1), "yaml")


class TestCli:
    def test_run_smoke_exit_zero(self, capsys):
        assert main(["run", SMOKE, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("check,status,value,tolerance,ms")

    def test_exit_one_on_failure(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "failing", "seed": 5,
            "checks": [{"check": "series.is_positive",
                        "params": {"b": [[-1, 0]], "expect": "positive"}}]})
        assert main(["run", path]) == 1

    def test_overflow_is_a_record_not_a_warning(self, tmp_path, capsys, recwarn):
        # the order-400 witness rows overflow: numpy's warnings must not
        # reach stderr in the middle of a run, in any thread (pytest records
        # warnings instead of printing them, so recwarn holds what would show)
        path = write_scenario(tmp_path, {
            "name": "witness", "seed": 1,
            "checks": [{"check": "series.witness_roundtrip",
                        "params": {"count": 200, "order": 400}}]})
        for jobs in ("1", "2"):
            assert main(["run", path, "--format", "csv", "--jobs", jobs]) == 1
            captured = capsys.readouterr()
            assert captured.out.splitlines()[1] == "series.witness_roundtrip,fail,nan,1e-10,0"
            assert captured.err == ""
        assert [str(w.message) for w in recwarn] == []

    def test_shipped_and_benchmark_files_keep_stderr_empty(self, tmp_path):
        # the report goes to stdout; a run that passes writes nothing else
        proc = run_python(["perfbench/workloads.py", "--seed", "1", "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        for path in [SMOKE, FULL] + proc.stdout.split():
            run = run_cli(["run", path, "--format", "csv"])
            assert (run.returncode, run.stderr) == (0, ""), path

    def test_vanishing_parseval_probe_is_an_error_record(self, tmp_path, capsys):
        # every probe Gaussian underflows on this lattice: no vacuous pass
        path = write_scenario(tmp_path, {
            "name": "far", "seed": 5,
            "checks": [{"check": "wigner.parseval",
                        "params": {"kind": "relativistic", "points": 16, "mass": 40.0}}]})
        assert main(["run", path, "--format", "csv"]) == 1
        record = capsys.readouterr().out.splitlines()[1]
        assert record.startswith("wigner.parseval,error,ValueError: every probe Gaussian")
        assert "radius 40 against lattice half-extent 3.2" in record

    def test_exit_two_on_unknown_check(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "bad", "seed": 1, "checks": [{"check": "nope.never"}]})
        assert main(["run", path]) == 2

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("text, message", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"name": "bad", "seed": ' + b"1" * 5000 + b', "checks": []}',
         "Exceeds the limit (4300 digits) for integer string conversion"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["not-utf-8", "long-integer", "deep-nesting"])
    def test_exit_two_on_an_unreadable_file(self, tmp_path, capsys, text, message):
        # json.load raises ValueError or RecursionError here, not JSONDecodeError
        path = tmp_path / "unreadable.json"
        path.write_bytes(text)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("body, field", [
        ({"checks": [1]}, "checks[0]"),
        ({"checks": {"check": "galilei.clifford"}}, "checks"),
        ({"seed": "abc"}, "seed"),
        ({"tolerances": {"default": "abc"}}, "tolerances.default"),
        ({"checks": [{"check": "brst.physical_space", "params": {"model": "nope"}}]},
         "checks[0].params.model"),
        ({"checks": [{"check": "galilei.cocycle", "params": {"tripels": 5}}]},
         "checks[0].params.tripels"),
        ({"checks": [{"check": "galilei.cocycle", "params": {"triples": "many"}}]},
         "checks[0].params.triples"),
        ({"checks": [{"check": "series.is_positive", "params": {"expect": "positive"}}]},
         "checks[0].params.b"),
        ({"checks": [{"check": "brst.observables", "params": {"expect_dim": "four"}}]},
         "checks[0].params.expect_dim"),
        ({"checks": [{"check": "brst.observables", "params": {"expect_dim": -3}}]},
         "checks[0].params.expect_dim: expected at least 0, got -3"),
        ({"checks": [{"check": "brst.physical_space", "params": {"expect_dim": -1}}]},
         "checks[0].params.expect_dim: expected at least 0, got -1"),
        ({"checks": [{"check": "qplane.coaction",
                      "params": {"q": [2, 0], "perturb_ab": "false"}}]},
         "checks[0].params.perturb_ab"),
        ({"tolerance": {"default": 1e-30}},
         "tolerance: unknown key; a scenario takes name, seed, truncation_order"),
        ({"checks": [{"check": "krein.invariants", "parms": {"samples": 0}}]},
         "checks[0].parms: unknown key; an entry takes check, params"),
        ({"checks": [{"check": "galilei.clifford", "independent": False}]},
         "checks[0].independent: unknown key"),
        ({"checks": [{"check": "brst.deform_stability", "params": {"mode": "rescal"}}]},
         "checks[0].params.mode: expected one of solved, rescale, got 'rescal'"),
        ({"checks": [{"check": "series.is_positive",
                      "params": {"b": [[1, 0]], "expect": "postive"}}]},
         "checks[0].params.expect: expected one of positive, not_positive"),
        ({"checks": [{"check": "wigner.parseval", "params": {"expect": "isometri"}}]},
         "checks[0].params.expect: expected one of isometry, defect"),
        ({"checks": [{"check": "qplane.center", "params": {"q": {"N": 4, "k": 2}}}]},
         "checks[0].params.q: expected N >= 1 and gcd(k, N) = 1, got N=4, k=2"),
        ({"checks": [{"check": "qplane.coaction", "params": {"q": {"N": 0}}}]},
         "checks[0].params.q: expected N >= 1"),
        ({}, "--out"),
        ({"seed": 1.7}, "seed"),
        ({"truncation_order": 8.5}, "truncation_order"),
        ({"checks": [{"check": "galilei.cocycle", "params": {"triples": 2.9}}]},
         "checks[0].params.triples"),
        ({"checks": [{"check": "series.witness_roundtrip", "params": {"count": True}}]},
         "checks[0].params.count"),
        ({"checks": [{"check": "krein.invariants", "params": {"samples": "20"}}]},
         "checks[0].params.samples"),
        ({"tolerances": {"default": True}}, "tolerances.default"),
        ({"seed": float("inf")}, "seed"),
        ({"name": float("nan")}, "name: expected a string, got nan"),
        ({"name": 5}, "name: expected a string, got 5"),
        ({"truncation_order": float("inf")}, "truncation_order"),
        ({"checks": [{"check": "galilei.cocycle", "params": {"triples": -float("inf")}}]},
         "checks[0].params.triples"),
        ({"checks": [{"check": "galilei.commutators", "params": {"p_max": float("nan")}}]},
         "checks[0].params.p_max"),
        ({"tolerances": {"parseval": float("inf")}}, "tolerances.parseval"),
        ({"checks": [{"check": "wigner.parseval", "params": {"times": [0.0, float("nan")]}}]},
         "checks[0].params.times[1]"),
        ({"checks": [{"check": "galilei.commutator_convergence",
                      "params": {"sizes": [32, 64.2]}}]}, "checks[0].params.sizes[1]"),
        ({"checks": [{"check": "galilei.commutator_convergence",
                      "params": {"sizes": 64}}]}, "checks[0].params.sizes"),
        ({"checks": [{"check": "qplane.center", "params": {"q": {"N": 5.5}}}]},
         "checks[0].params.q.N"),
        ({"checks": [{"check": "qplane.center", "params": {"q": {"N": 5, "k": True}}}]},
         "checks[0].params.q.k"),
        ({"checks": [{"check": "krein.invariants", "params": {"signature": [1.5, 1]}}]},
         "checks[0].params.signature[0]"),
        ({"checks": [{"check": "qplane.center", "params": {"q": [2]}}]},
         "checks[0].params.q: expected [re, im]"),
        ({"checks": [{"check": "qplane.center", "params": {"q": [2, 0, 7]}}]},
         "checks[0].params.q: expected [re, im]"),
        ({"checks": [{"check": "qplane.center", "params": {"q": "2"}}]},
         "checks[0].params.q: expected a finite number"),
        ({"checks": [{"check": "krein.invariants", "params": {"signature": [1]}}]},
         "checks[0].params.signature: expected two non-negative integers"),
        ({"checks": [{"check": "krein.invariants", "params": {"signature": [0, 0]}}]},
         "checks[0].params.signature: expected two non-negative integers"),
        ({"checks": [{"check": "krein.invariants", "params": {"signature": [-1, 2]}}]},
         "checks[0].params.signature: expected two non-negative integers"),
        ({"checks": [{"check": "series.witness_roundtrip", "params": {"count": 0}}]},
         "checks[0].params.count: expected at least 1, got 0"),
        ({"checks": [{"check": "series.witness_roundtrip", "params": {"order": -1}}]},
         "checks[0].params.order: expected at least 0, got -1"),
        ({"checks": [{"check": "krein.invariants", "params": {"samples": -5}}]},
         "checks[0].params.samples: expected at least 1, got -5"),
        ({"checks": [{"check": "brst.deform_stability", "params": {"order": 0}}]},
         "checks[0].params.order: expected at least 1, got 0"),
        ({"checks": [{"check": "galilei.levy_leblond_shell", "params": {"count": 0}}]},
         "checks[0].params.count: expected at least 1, got 0"),
        ({"checks": [{"check": "wigner.parseval", "params": {"kind": "tachyon"}}]},
         "checks[0].params.kind: expected one of galilean, relativistic, massless"),
        ({"checks": [{"check": "wigner.parseval", "params": {"reweight": "x"}}]},
         "checks[0].params.reweight: expected one of none, newton_wigner, got 'x'"),
        ({"checks": [{"check": "wigner.parseval", "params": {"points": 0}}]},
         "checks[0].params.points: expected at least 1, got 0"),
        ({"checks": [{"check": "wigner.parseval", "params": {"times": []}}]},
         "checks[0].params.times: expected at least 1 items, got []"),
        *[({"checks": [{"check": "wigner.parseval", "params": {"spacing": spacing}}]},
           f"checks[0].params.spacing: expected a positive number, got {float(spacing)}")
          for spacing in (0, -0.3)],
        ({"checks": [{"check": "wigner.two_particle", "params": {"kind": "tachyon"}}]},
         "checks[0].params.kind: expected one of galilean, relativistic, massless"),
        # a massive shell needs m > 0, read with the kind and its default
        *[({"checks": [{"check": check, "params": {"kind": kind, "mass": mass}}]},
           f"checks[0].params.mass: kind {kind!r} requires a positive mass, got {float(mass)}")
          for check in ("wigner.parseval", "wigner.two_particle")
          for kind in ("galilean", "relativistic") for mass in (0, -1)],
        *[({"checks": [{"check": check, "params": {"mass": 0}}]},
           f"checks[0].params.mass: kind {kind!r} requires a positive mass, got 0.0")
          for check, kind in (("wigner.parseval", "galilean"),
                              ("wigner.two_particle", "relativistic"))],
        ({"checks": [{"check": "wigner.angular", "params": {"amplitude": "sin"}}]},
         "checks[0].params.amplitude: expected one of isotropic, cos_theta, got 'sin'"),
        ({"checks": [{"check": "brst.observables", "params": {"variant": "odd"}}]},
         "checks[0].params.variant: expected one of even_ghost, full, got 'odd'"),
        ({"checks": [{"check": "qplane.center", "params": {"q": {"N": 3, "k": 1, "x": 9}}}]},
         "checks[0].params.q.x: unknown key; an exact q takes N, k"),
        ({"checks": [{"check": "qplane.normal_form",
                      "params": {"q": 2, "expect_monomial": "ab"}}]},
         "checks[0].params.expect_monomial: expected a list, got 'ab'"),
        ({"checks": [{"check": "qplane.normal_form",
                      "params": {"q": 2, "expect_monomial": [1, 1, 0]}}]},
         "checks[0].params.expect_monomial: expected two non-negative integers, got [1, 1, 0]"),
        ({"checks": [{"check": "qplane.normal_form",
                      "params": {"q": 2, "expect_monomial": [-1, 2]}}]},
         "checks[0].params.expect_monomial: expected two non-negative integers"),
        ({"checks": [{"check": "qplane.normal_form",
                      "params": {"q": 2, "expect_monomial": [1.5, 0]}}]},
         "checks[0].params.expect_monomial[0]"),
        ({"checks": [{"check": "series.is_positive", "params": {"b": "oops"}}]},
         "checks[0].params.b: expected a nonempty list of [re, im] pairs, got 'oops'"),
        ({"checks": [{"check": "series.is_positive", "params": {"b": [[1, 2, 3]]}}]},
         "checks[0].params.b[0]: expected [re, im], got [1.0, 2.0, 3.0]"),
        ({"checks": [{"check": "series.is_positive", "params": {"b": []}}]},
         "checks[0].params.b: expected a nonempty list of [re, im] pairs, got []"),
        ({"checks": [{"check": "series.is_positive",
                      "params": {"b": [[1, 0], [[1, 0], [0, 0]]]}}]},
         "checks[0].params.b[1][0]: expected a finite number, got [1, 0]"),
        ({"checks": [{"check": "series.is_positive", "params": {"b": [[1, True]]}}]},
         "checks[0].params.b[0][1]: expected a finite number"),
        ({"checks": [{"check": "wigner.parseval",
                      "params": {"dump_field": "no-such-directory/field.csv"}}]},
         "checks[0].params.dump_field: expected a file path in an existing directory"),
        ({"checks": [{"check": "wigner.parseval", "params": {"dump_field": 5}}]},
         "checks[0].params.dump_field: expected a file path"),
        ({"checks": [{"check": "wigner.two_particle", "params": {"points": 0}}]},
         "checks[0].params.points: expected at least 1, got 0"),
        *[({"checks": [{"check": "wigner.angular", "params": {"l_max": l_max}}]},
           f"checks[0].params.l_max: expected at least 1, got {l_max}")
          for l_max in (0, -1)],
        ({"checks": [{"check": "galilei.commutators", "params": {"points": 31}}]},
         "checks[0].params.points: expected at least 32, got 31"),
        ({"checks": [{"check": "qplane.center", "params": {"q": 2, "max_deg": 0}}]},
         "checks[0].params.max_deg: expected at least 1, got 0"),
        ({"checks": [{"check": "qplane.coaction", "params": {"q": 2, "max_deg": 1}}]},
         "checks[0].params.max_deg: expected at least 2, got 1"),
        ({"tolerances": {"default": -1}}, "tolerances.default: expected at least 0, got -1"),
        ({"tolerances": {"parsevel": 1e-30}}, "tolerances.parsevel: unknown tolerance; a "
         "scenario names default, grid_exact, parseval, witness"),
        ({"checks": [{"check": "qplane.normal_form", "params": {"q": 2, "word": "yz"}}]},
         "checks[0].params.word: expected a string of the letters x and y, got 'yz'"),
        ({"checks": [{"check": "qplane.normal_form", "params": {"q": 2, "word": ["x"]}}]},
         "checks[0].params.word: expected a string of the letters x and y"),
        *[({"checks": [{"check": "galilei.commutator_convergence",
                        "params": {"sizes": sizes}}]},
           "checks[0].params.sizes: expected two or more sizes, no two equal, each of at "
           f"least 32 points, got {sizes}")
          for sizes in ([32], [32, 32], [32, 64, 32], [16, 32], [])],
        *[({"checks": [{"check": check, "params": {key: value}}]},
           f"checks[0].params.{key}: expected a positive number, got {float(value)}")
          for check in ("galilei.commutators", "galilei.commutator_convergence")
          for key, value in (("mass", 0), ("p_max", -10), ("p_max", 0))],
        *[({"checks": [{"check": "galilei.levy_leblond_shell", "params": {"mass": mass}}]},
           f"checks[0].params.mass: expected a positive number, got {float(mass)}")
          for mass in (0, -1)],
        ({"checks": [{"check": "wigner.parseval", "params": {"expect": "defect", "floor": -1}}]},
         "checks[0].params.floor: expected at least 0, got -1"),
        *[({"checks": [{"check": check, "params": {"q": q}}]},
           f"checks[0].params.q: expected a nonzero number, got {q!r}")
          for check in ("qplane.normal_form", "qplane.center", "qplane.coaction")
          for q in (0, [0, 0])],
        ({"truncation_order": -1}, "truncation_order: expected at least 0, got -1"),
        ({"checks": [{"check": "wigner.parseval", "params": {"dump_field": ""}}]},
         "checks[0].params.dump_field: expected a file path in an existing directory, got ''"),
        # a scenario series is scalar: nesting and array coefficients are refused
        ({"checks": [{"check": "series.is_positive",
                      "params": {"b": functools.reduce(lambda b, _: [b], range(500), [1, 0])}}]},
         "checks[0].params.b[0][0]: expected a finite number"),
        ({"checks": [{"check": "series.is_positive",
                      "params": {"b": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}}]},
         "checks[0].params.b[0][0]: expected a finite number, got [[1, 0], [0, 0]]"),
    ])
    def test_exit_two_on_malformed_input(self, tmp_path, capsys, body, field):
        # json.dumps writes NaN and the infinities as the tokens json.load reads
        path = write_scenario(tmp_path, {
            "name": "bad", "seed": 1,
            "checks": [{"check": "galilei.clifford"}], **body})
        args = ["run", path]
        if field == "--out":
            args += ["--out", str(tmp_path / "missing" / "x.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    def test_exit_two_in_a_fresh_process(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "bad", "seed": 1,
            "checks": [{"check": "galilei.commutators", "params": {"p_max": float("nan")}}]})
        proc = run_cli(["run", path])
        assert proc.returncode == 2
        assert "checks[0].params.p_max" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [["run", "scenarios/smoke.json", "--format", "csv"],
                                      ["checks"]])
    def test_closed_pipe_is_quiet(self, args):
        # the reader closes its end before the child can write (`opalg run
        # ... | head -0`): `run` imports numpy and its layers first, `checks`
        # imports neither
        env = dict(os.environ, PYTHONPATH=str(Path(opalg.__file__).resolve().parent.parent))
        proc = subprocess.Popen([sys.executable, "-m", "opalg.cli", *args], cwd=REPO,
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
        assert err == ""

    def test_unwritable_report_is_a_usage_error(self, monkeypatch, capsys):
        # a full disk when the report is written or closed: one error line,
        # exit 2, the file closed
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        sinks = []

        def open_full(*args, **kwargs):
            sinks.append(Full())
            return sinks[-1]
        monkeypatch.setattr(opalg.cli, "open", open_full, raising=False)
        assert main(["run", SMOKE, "--format", "csv", "--out", "report.csv"]) == 2
        assert capsys.readouterr().err == \
            "error: report.csv: [Errno 28] No space left on device\n"
        assert sinks[0].closed
        assert _write(Full(), "report\n", "sink") is False
        assert capsys.readouterr().err == "error: sink: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args, sink", [
        (["run", "scenarios/smoke.json", "--format", "csv", "--out", "/dev/full"], "/dev/full"),
        (["run", "scenarios/smoke.json", "--format", "csv"], "stdout"),
        (["checks"], "stdout"),
    ], ids=["out", "run-stdout", "checks-stdout"])
    def test_full_device_is_a_usage_error(self, args, sink):
        env = dict(os.environ, PYTHONPATH=str(Path(opalg.__file__).resolve().parent.parent))
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "opalg.cli", *args], cwd=REPO,
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {sink}: [Errno 28] No space left on device\n"

    def test_out_file_and_rerun_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["run", SMOKE, "--format", "csv", "--out", str(out1)]) == 0
        assert main(["run", SMOKE, "--format", "csv", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_in_process_main_leaves_the_heap_unfrozen(self, tmp_path):
        assert main(["run", SMOKE, "--format", "csv", "--out", str(tmp_path / "a.csv")]) == 0
        assert gc.get_freeze_count() == 0

    def test_fresh_process_writes_the_whole_report_before_exit(self, tmp_path):
        # the entry freezes the heap once the report file is closed: the
        # file is whole, the exit code is the verdict and exit is silent
        path = write_scenario(tmp_path, {
            "name": "failing", "seed": 1,
            "checks": [{"check": "brst.physical_space",
                        "params": {"model": "gupta_bleuler", "expect_dim": 5}}]})
        fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
        proc = run_cli(["run", path, "--format", "csv", "--out", str(fresh)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")
        assert main(["run", path, "--format", "csv", "--out", str(here)]) == 1
        assert fresh.read_text() == here.read_text()
        assert "brst.physical_space,fail,quotient_dim=1" in fresh.read_text()

    def test_module_entry_point_is_quiet(self):
        # `python -m opalg.cli` must not find the module already imported
        # by the package (runpy warns about that on stderr)
        proc = run_cli(["run", "scenarios/smoke.json"])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout

    def test_csv_bytes_do_not_depend_on_blas_threads(self):
        runs = [run_cli(["run", FULL, "--format", "csv"],
                        OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2", None)]
        assert [proc.returncode for proc in runs] == [0, 0, 0]
        assert runs[0].stdout.startswith("check,status,value,tolerance,ms")
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout

    @pytest.mark.parametrize("given, want", [
        ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"OMP_NUM_THREADS": "2"}, None), ({"GOTO_NUM_THREADS": "2"}, None)])
    def test_command_runs_on_one_blas_thread_unless_told(self, tmp_path, given, want):
        # entry() sets OPENBLAS_NUM_THREADS to 1 unless the caller chose a
        # count through any variable OpenBLAS reads; numpy, which reads it,
        # is first imported by the first check
        path = write_scenario(tmp_path, {"name": "brst", "seed": 1,
                                          "checks": [{"check": "brst.deform_stability"}]})
        proc = run_python(["-c", (
            "import os, sys\n"
            "from opalg import cli\n"
            f"sys.argv = ['opalg', 'run', {path!r}, '--out', os.devnull]\n"
            "before = 'numpy' in sys.modules\n"
            "code = cli.entry()\n"
            "print(code, before, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")],
            **{"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None,
               "OMP_NUM_THREADS": None, **given})
        assert (proc.stdout, proc.stderr) == (f"0 False True {want}\n", "")

    def test_checks_listing(self, capsys):
        assert main(["checks"]) == 0
        out = capsys.readouterr().out
        assert "series.is_positive" in out
        assert "brst.deform_stability" in out

    def test_field_dump(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, {
            "name": "dump", "seed": 4,
            "checks": [{"check": "wigner.parseval",
                        "params": {"kind": "galilean", "points": 4,
                                   "dump_field": "field.csv"}}]})
        assert main(["run", path]) == 0
        lines = (tmp_path / "field.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,re_psi,im_psi"
        assert len(lines) == 4 ** 3 + 1


def readme_parameter_table():
    """README's `| check | parameter | default | domain |` table as
    {check: {parameter: default cell}}.  A row without a check name goes on
    with the check above, and a row of several parameters ("`order`,
    `samples` | 3, 20") gives one default to each."""
    lines = iter((REPO / "README.md").read_text().splitlines())
    while next(lines).strip() != "| check | parameter | default | domain |":
        pass
    next(lines)  # the |---| rule
    table = {}
    for line in lines:
        if not line.strip().startswith("|"):
            break
        check, params, default = (cell.strip() for cell in line.strip()[1:].split("|")[:3])
        if check:
            row = table[check.strip("`")] = {}
        if params == "—":  # a check without parameters
            continue
        names = [name.strip(" `") for name in params.split(",")]
        defaults = [default] if len(names) == 1 else [d.strip() for d in default.split(",")]
        assert len(defaults) == len(names), line
        row.update(zip(names, defaults))
    return table


class TestRegistry:
    def test_readme_parameter_table_is_the_registry(self):
        # "required" is no default, "none: ..." is None, and any other cell
        # is the default's JSON, in backticks or bare, or a bare word
        table = readme_parameter_table()
        assert sorted(table) == available_checks()
        for name, cells in table.items():
            params = {p.name: p.default
                      for p in inspect.signature(opalg.scenario._REGISTRY[name]).parameters.values()
                      if p.kind is inspect.Parameter.KEYWORD_ONLY}
            assert sorted(cells) == sorted(params), name
            for key, cell in cells.items():
                if cell == "required":
                    assert params[key] is inspect.Parameter.empty, (name, key)
                    continue
                if cell.startswith("none:"):
                    stated = None
                else:
                    try:
                        stated = json.loads(cell.strip("`"))
                    except ValueError:
                        stated = cell.strip("`")
                assert json.dumps(stated) == json.dumps(params[key]), (name, key, cell)

    def test_full_suite_checks_exist(self):
        names = set(available_checks())
        for spec in load_scenario(FULL).checks:
            assert spec.check in names

    def test_default_tolerances_present(self):
        assert "default" in DEFAULT_TOLERANCES


@pytest.mark.parametrize("layer", ["series", "krein", "brst", "galilei", "wigner",
                                   "qplane", "scenario"])
def test_every_name_in_all_resolves(layer):
    module = importlib.import_module(f"opalg.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from opalg.{layer} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)


LAYER_NAMES = ("series", "krein", "brst", "galilei", "wigner", "qplane")


def _definitions(module):
    """The top-level functions, classes and assigned names (but __all__) of
    opalg.<module>, by name, parsed from its source."""
    path = Path(opalg.__file__).resolve().parent / f"{module}.py"
    defs = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets
                        if isinstance(t, ast.Name) and t.id != "__all__")
    return defs


def _mentions(node):
    """The names, attributes and string constants in node; a string may
    name a definition, as the scenario's model table names its builders."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


@functools.cache
def _reachability():
    """The definitions of the six layers, scenario and cli, and the (module,
    name) pairs reached from the runner (every definition of scenario and
    cli) and from the layer names the acceptance criteria read, following
    mentions to a fixpoint.  A mention reaches every definition of its name
    in any of these modules."""
    defs = {m: _definitions(m) for m in LAYER_NAMES + ("scenario", "cli")}
    todo = [(m, name) for m in ("scenario", "cli") for name in defs[m]]
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"
    for node in ast.walk(ast.parse(acceptance.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            todo.append((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opalg."):
            todo += [(node.module[len("opalg."):], alias.name) for alias in node.names]
    reached = set()
    while todo:
        module, name = todo.pop()
        if (module, name) in reached or name not in defs.get(module, ()):
            continue
        reached.add((module, name))
        for mention in set(_mentions(defs[module][name])):
            todo += [(m, mention) for m in defs if mention in defs[m]]
    return defs, reached


@pytest.mark.parametrize("layer", LAYER_NAMES)
def test_every_definition_is_reached(layer):
    # what only tests reach belongs in the tests
    defs, reached = _reachability()
    assert sorted(name for name in defs[layer] if (layer, name) not in reached) == []


def _parameters(fn: ast.FunctionDef, method: bool):
    """The positional and keyword-only parameter names of a def, without a
    method's receiver, and its defaults as source text by name."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args][1 if method else 0:]
    defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                        map(ast.unparse, a.defaults)))
    defaults.update((p.arg, ast.unparse(d))
                    for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return positional, [p.arg for p in a.kwonlyargs], defaults


def _is_member(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("__")


def _signatures(defs):
    """(module, name) -> parameters of every callable of the six layers: the
    top-level functions, the constructors (__init__ or __new__, or the
    fields of a NamedTuple) and the methods, named "Class.method"."""
    out = {}
    for module in LAYER_NAMES:
        for name, node in defs[module].items():
            if isinstance(node, ast.FunctionDef):
                out[module, name] = _parameters(node, method=False)
            if not isinstance(node, ast.ClassDef):
                continue
            body = {sub.name: sub for sub in node.body if isinstance(sub, ast.FunctionDef)}
            ctor = body.get("__init__") or body.get("__new__")
            if ctor:
                out[module, name] = _parameters(ctor, method=True)
            elif any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                out[module, name] = ([f.target.id for f in fields], [],
                                     {f.target.id: ast.unparse(f.value)
                                      for f in fields if f.value is not None})
            out.update(((module, f"{name}.{m}"), _parameters(sub, method=True))
                       for m, sub in body.items() if _is_member(sub))
    return out


def _call_sites(defs, signatures):
    """(module, name) -> the calls of it in src/opalg and the acceptance
    criteria.  A call names a layer function by its bare name (defined or
    imported in the calling module) or through a module (`opalg.brst.f`,
    or `brst.f` for a module bound to its layer's name); any other
    attribute call `x.m(...)` is a call of every layer method named m."""
    methods = {}
    for module, name in signatures:
        if "." in name:
            methods.setdefault(name.split(".")[1], []).append((module, name))
    sources = [(m, Path(opalg.__file__).resolve().parent / f"{m}.py")
               for m in LAYER_NAMES + ("scenario", "cli", "__init__")]
    sources.append((None, Path(__file__).resolve().parent / "test_acceptance.py"))
    sites = {}
    for module, path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, foreign = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                foreign.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                layer = (node.module or "").removeprefix("opalg.")
                for a in node.names:
                    if layer in LAYER_NAMES:
                        imported[a.asname or a.name] = (layer, a.name)
                    elif node.module != "opalg":
                        foreign.add(a.asname or a.name)
        foreign.discard("opalg")
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func, callees = call.func, []
            if isinstance(func, ast.Name):
                callees = [(module, func.id) if func.id in defs.get(module, ())
                           else imported.get(func.id)]
            elif isinstance(func, ast.Attribute):
                root, chain = func.value, []
                while isinstance(root, ast.Attribute):
                    chain.insert(0, root.attr)
                    root = root.value
                head = [root.id] + chain if isinstance(root, ast.Name) else None
                if head and head[-1] in LAYER_NAMES and head[:-1] in ([], ["opalg"]):
                    callees = [(head[-1], func.attr)]
                elif head and head[0] not in foreign:
                    callees = methods.get(func.attr, [])
            for callee in callees:
                if callee in signatures:
                    sites.setdefault(callee, []).append(call)
    return sites


def _binding(call: ast.Call, positional, kwonly):
    """Parameter name -> the literal's repr, "expr" for another argument, or
    "star" where a *args or **kwargs may set it; a parameter left out uses
    its default."""
    def value(node):
        try:
            return repr(ast.literal_eval(node))
        except (ValueError, TypeError, SyntaxError):
            return "expr"
    bound = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            bound.update(dict.fromkeys(positional[i:], "star"))
            break
        if i < len(positional):
            bound[positional[i]] = value(arg)
    for kw in call.keywords:
        if kw.arg is None:
            bound.update(dict.fromkeys([p for p in positional + kwonly if p not in bound],
                                       "star"))
        else:
            bound[kw.arg] = value(kw.value)
    return bound


def _member_mentions(defs, reached):
    """The methods and properties of reached classes that no reached code
    mentions, itself excepted: a member counts as code once some other
    reached code mentions it, so two members that only mention each other
    are both unmentioned."""
    members, code = {}, []
    for module, name in reached:
        node = defs[module][name]
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if _is_member(sub):
                    members[module, f"{name}.{sub.name}"] = sub
                else:
                    code.append(sub)
        else:
            code.append(node)
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"
    code.append(ast.parse(acceptance.read_text(encoding="utf-8")))
    mentioned = {m for node in code for m in _mentions(node)}
    used, grew = set(), True
    while grew:
        grew = False
        for key, node in members.items():
            if key not in used and key[1].split(".")[1] in mentioned:
                used.add(key)
                mentioned.update(_mentions(node))
                grew = True
    return sorted(f"{m}.{name}: no reached code mentions it"
                  for m, name in set(members) - used)


@functools.cache
def _settings():
    """The settings of the six layers that no caller varies: a parameter
    no call sets, a parameter every call sets to one literal, a default no
    call uses (at the call sites `_call_sites` finds), and a method or
    property of a reached class that no reached code mentions."""
    defs, reached = _reachability()
    signatures = _signatures(defs)
    flags = []
    for key, calls in _call_sites(defs, signatures).items():
        positional, kwonly, defaults = signatures[key]
        bindings = [_binding(call, positional, kwonly) for call in calls]
        where = ".".join(key)
        for p in positional + kwonly:
            states = [bound.get(p, "default") for bound in bindings]
            shown = f"{p}={defaults[p]}" if p in defaults else p
            if set(states) == {"default"}:
                flags.append(f"{where}({shown}): no call sets it")
            elif len(set(states)) == 1 and states[0] not in ("expr", "star", "default"):
                flags.append(f"{where}({shown}): every call sets it to {states[0]}")
            if p in defaults and not {"default", "star"} & set(states):
                flags.append(f"{where}({shown}): no call uses the default")
    return sorted(flags) + _member_mentions(defs, reached)


# flags that a benchmark file keeps: it calls the function with that setting
PINNED_SETTINGS = {
    "galilei.generator_commutators(pairs=None): no call uses the default":
        "perfbench/sweep.py",
    "wigner.gaussian_family(width): every call sets it to 0.5": "perfbench/sweep.py",
}


@pytest.mark.parametrize("layer", LAYER_NAMES)
def test_every_setting_is_varied(layer):
    # a value no caller varies is a constant, and a member no code mentions
    # belongs in the tests, unless a benchmark file pins the signature
    assert [flag for flag in _settings()
            if flag.startswith(f"{layer}.") and flag not in PINNED_SETTINGS] == []


def test_pinned_settings_are_flagged_and_called():
    flags = _settings()
    for flag, path in PINNED_SETTINGS.items():
        assert flag in flags
        assert f"{flag.split('(')[0].split('.')[-1]}(" in (REPO / path).read_text()


SCRIPTS = sorted((REPO / "benchmarks").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))


def _programs(path):
    """A script's syntax tree, then those of its string constants that are
    programs importing opalg (the children it runs)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "opalg" in node.value:
            try:
                child = ast.parse(node.value)
            except SyntaxError:
                continue
            if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(child)):
                yield child


def _resolve(parts, call):
    """(dotted name, problem or None) of the opalg name `parts`: a name that
    does not exist, or a call whose arguments do not bind to the callee's
    signature, checked with placeholders of the call's shape (a call with
    *args or **kwargs is not checked).  Past opalg's modules an attribute
    belongs to a value, and is not read."""
    obj, dotted = opalg, "opalg"
    for part in parts[1:]:
        if not isinstance(obj, type(opalg)):
            return dotted, None
        dotted += f".{part}"
        try:
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(dotted)
        except ImportError:
            return dotted, "no such name"
    if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
            or not all(k.arg for k in call.keywords):
        return dotted, None
    try:
        inspect.signature(obj).bind(*call.args, **{k.arg: k for k in call.keywords})
    except TypeError as exc:
        return dotted, f"{ast.unparse(call)}: {exc}"
    return dotted, None


def _opalg_uses(tree):
    """What a program reads of opalg: every name it imports from opalg, and
    every outermost name or attribute chain that starts at one, resolved."""
    bound = {}  # a name of the program -> the dotted opalg name it holds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or "opalg", a.name if a.asname else "opalg")
                         for a in node.names if a.name.split(".")[0] == "opalg")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "opalg":
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    yield from (_resolve(name.split("."), None) for name in bound.values())
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if id(node) in inner or not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.insert(0, root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in bound:
            yield _resolve(bound[root.id].split(".") + chain, calls.get(id(node)))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_scripts_use_names_that_exist(script):
    # the sweeps and the benchmark call opalg by name, some from the child
    # programs they start: an API change must not break them unseen
    uses = [use for tree in _programs(script) for use in _opalg_uses(tree)]
    assert [f"{name}: {problem}" for name, problem in uses if problem] == []


LAYERS = ("opalg.series", "opalg.krein", "opalg.brst",
          "opalg.galilei", "opalg.wigner", "opalg.qplane")
LAZY = LAYERS[3:] + ("concurrent.futures",)
# numpy.ma: no brst, krein or series check needs it; hashlib (with its
# OpenSSL backend): only a running check seeds its stream with it
UNUSED = ("numpy.ma",)
HASHING = ("hashlib", "_hashlib")
CHECK_NAMES = [
    "brst.deform_stability", "brst.observables", "brst.physical_space",
    "galilei.clifford", "galilei.cocycle", "galilei.commutator_convergence",
    "galilei.commutators", "galilei.levy_leblond_shell", "krein.invariants",
    "qplane.center", "qplane.coaction", "qplane.normal_form",
    "series.is_positive", "series.witness_roundtrip", "wigner.angular",
    "wigner.parseval", "wigner.two_particle"]


class TestLazyLayers:
    """A fresh process imports the layers a scenario's checks name, and no
    others."""

    def loaded_after(self, code, *args, modules=LAZY):
        probe = (f"{code}\nimport json, sys\n"
                 f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
        proc = run_python(["-c", probe, *args])
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_and_probe(self, tmp_path, checks, modules=LAZY):
        path = write_scenario(tmp_path, {"name": "lazy", "seed": 3, "checks": checks})
        code = ("import sys\nfrom opalg.cli import main\n"
                "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0")
        return self.loaded_after(code, path, str(tmp_path / "report.txt"),
                                 modules=modules)

    def test_brst_krein_series_run_skips_other_layers(self, tmp_path):
        checks = [
            {"check": "series.is_positive", "params": {"b": [[1, 0], [0, 0]]}},
            {"check": "series.witness_roundtrip", "params": {"count": 4}},
            {"check": "krein.invariants", "params": {"samples": 4}},
            {"check": "brst.physical_space",
             "params": {"model": "null_pair", "expect_dim": 0}},
            {"check": "brst.deform_stability", "params": {"order": 2, "samples": 4}},
            {"check": "brst.observables", "params": {"model": "two_pair"}},
        ]
        assert self.run_and_probe(tmp_path, checks, LAZY + UNUSED) == []

    def test_run_imports_the_named_layer_only(self, tmp_path):
        checks = [{"check": "galilei.clifford"}]
        assert self.run_and_probe(tmp_path, checks) == ["opalg.galilei"]

    def test_loading_the_full_suite_imports_no_layer(self):
        # nor numpy, nor dataclasses: the runner's records are NamedTuples
        code = ("import opalg.cli\nfrom opalg.scenario import load_scenario\n"
                f"assert len(load_scenario({FULL!r}).checks) > 0")
        modules = LAYERS + ("numpy", "concurrent.futures", "dataclasses") + UNUSED + HASHING
        assert self.loaded_after(code, modules=modules) == []

    def test_listing_the_checks_imports_no_numpy(self):
        code = "from opalg.cli import main\nassert main(['checks']) == 0"
        assert self.loaded_after(code, modules=LAYERS + ("numpy",)) == []

    def test_layer_records_need_no_dataclasses(self):
        code = "import opalg\nfor layer in opalg.__all__:\n    getattr(opalg, layer)"
        assert self.loaded_after(code, modules=LAYERS + ("dataclasses",)) == list(LAYERS)

    def test_checks_listing_is_unchanged(self):
        proc = run_cli(["checks"])
        assert proc.returncode == 0
        assert proc.stdout.split() == CHECK_NAMES

    def test_layers_on_attribute_access_and_star_import(self):
        code = ("import opalg\nassert 'wigner' in dir(opalg)\n"
                "assert callable(opalg.wigner.make_shell)\n"
                "from opalg import *\n"
                "assert all(type(globals()[m]) is type(opalg) for m in opalg.__all__)")
        assert self.loaded_after(code) == ["opalg.galilei", "opalg.wigner",
                                           "opalg.qplane"]
        with pytest.raises(AttributeError):
            getattr(opalg, "no_such_layer")
