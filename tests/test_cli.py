import ast
import csv
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import weakdep
from weakdep import coefficients, coupling, flip_chain, make_coboundary
from weakdep.bounds import MIN_TAIL_REPLICATES
from weakdep.cli import CONFIG_DEFAULTS, _read_config, main
from weakdep.coefficients import certified_theta_table
from weakdep.experiments import (ExperimentConfig, donsker_wasserstein, run_degenerate_suite,
                                 run_lsv_experiment, run_rate_experiment)
from weakdep.processes import (LsvProcess, process_from_config, process_to_config,
                               sample_path)
from weakdep.rng import holdout_seed

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "scripts" / "configs"
FLIP = {"type": "finite_chain", "states": ["+", "-"],
        "transition": [[0.75, 0.25], [0.25, 0.75]],
        "observable": [1.0, -1.0], "step": 1.0}
LSV = {"type": "lsv", "gamma": 0.2, "burn_in": 50,
       "observable": {"kind": "identity", "center": 0.5}}
COBOUNDARY = process_to_config(make_coboundary(flip_chain(0.25), [1.0, -1.0]))


@pytest.fixture()
def chain_doc():
    return dict(FLIP)


def package_env():
    """The environment of a fresh interpreter that imports this weakdep."""
    src = str(Path(weakdep.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def test_coeffs_command(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {"process": chain_doc})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["coeffs", "--config", cfg,
                                       "--out", str(out), "--horizon", "8"])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert "seed" not in summary["config"]
    assert summary["summary"]["sigma2"] == pytest.approx(3.0, abs=1e-8)
    assert not (out / "theta_table.csv").exists()
    header, *rows = (out / "theta.csv").read_text().splitlines()
    assert header == "k,value"
    table = certified_theta_table(process_from_config(chain_doc), 4, 4, 8)
    assert [row.split(",")[1] for row in rows] == [repr(float(v)) for v in table.values]


def test_coeffs_echoes_the_process(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {"process": chain_doc})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["coeffs", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config == {"process": chain_doc, "p": 4, "q": 4, "horizon": 16}


def test_rates_config_without_n_list_rejected(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {"process": chain_doc})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["rates", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == 'Error: config needs an "n_list" key\n'
    assert "Traceback" not in result.output
    assert not out.exists()


def test_bound_fit_and_check(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {
        "process": chain_doc, "grid_n": [64, 128], "points_per_n": 2,
        "replicates": 1500, "seed": 3, "theta_horizon": 10})
    out_fit = tmp_path / "fit"
    result = CliRunner().invoke(main, ["bound", "fit", "--config", cfg,
                                       "--out", str(out_fit)])
    assert result.exit_code == 0, result.output
    fitted = json.loads((out_fit / "summary.json").read_text())["summary"]
    out_check = tmp_path / "check"
    result = CliRunner().invoke(main, [
        "bound", "check", "--config", cfg, "--out", str(out_check),
        "--c1", str(fitted["c1"]), "--c2", str(fitted["c2"])])
    assert result.exit_code == 0, result.output
    checked = json.loads((out_check / "summary.json").read_text())["summary"]
    assert checked["dominates_holdout"] is True
    header, *rows = (out_check / "holdout_grid.csv").read_text().splitlines()
    assert header.split(",")[-1] == "dominates"
    assert all(row.endswith(",1") for row in rows)


def test_bound_check_default_seed_differs_from_fit(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {
        "process": chain_doc, "grid_n": [32, 64], "points_per_n": 2,
        "replicates": 400, "seed": 3, "theta_horizon": 6})

    def used_seed(*args):
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        result = CliRunner().invoke(main, ["bound", *args, "--config", cfg,
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        return json.loads((out / "summary.json").read_text())["config"]["seed"]

    check = ["check", "--c1", "1.0", "--c2", "1.0"]
    assert used_seed("fit") == 3
    assert used_seed(*check) == holdout_seed(3) != 3
    assert used_seed(*check, "--seed", "3") == 3


def test_bound_fit_echoes_default_replicates(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {"process": chain_doc, "grid_n": [32],
                                  "points_per_n": 1, "theta_horizon": 4})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["bound", "fit", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["replicates"] == 20000
    assert config["seed"] == 0


def test_couple_run(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {"process": chain_doc, "n": 256, "seed": 5})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["couple", "run", "--config", cfg,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "coupled_path.csv").read_text().splitlines()
    assert lines[0] == "k,s,t"
    assert len(lines) == 258
    doc = json.loads((out / "summary.json").read_text())
    assert doc["summary"]["sup_error"] > 0
    assert doc["config"]["epsilon"] == 0.5
    assert doc["config"]["c_fit"] == 1.0


@pytest.mark.parametrize("command, doc, typo", [
    (["couple", "run"], {"n": 256, "seed": 5, "varient": "inflated"}, "varient"),
    (["bound", "fit"], {"grid_n": [64], "replicate": 100}, "replicate"),
    (["coeffs"], {"horizon": 4}, "horizon"),
    (["export-path"], {"seed": 4, "n": 32}, "n"),
    (["rates"], {"n_list": [256, 512], "replicate": 32, "threads": 2,
                 "debug_identity_coupling": False},
     "debug_identity_coupling, replicate, threads"),
])
def test_config_typo_rejected(tmp_path, chain_doc, command, doc, typo):
    cfg = write_config(tmp_path, {"process": chain_doc, **doc})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, command + ["--config", cfg, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: unknown config keys: {typo}\n"
    assert "Traceback" not in result.output
    assert not out.exists()


def test_config_refusal_is_one_line_on_stderr(tmp_path):
    # the shipped rates config with a misspelt key, run as a program
    doc = json.loads((CONFIGS / "rates_flip.json").read_text())
    cfg = write_config(tmp_path, {**doc, "varient": "inflated"})
    out = subprocess.run([sys.executable, "-m", "weakdep", "rates", "--config", cfg,
                          "--out", str(tmp_path / "out")],
                         env=package_env(), capture_output=True, text=True)
    assert out.returncode == 1
    assert (out.stdout, out.stderr) == ("", "Error: unknown config keys: varient\n")
    assert not (tmp_path / "out").exists()


def test_number_settings_take_integers(tmp_path):
    cfg = write_config(tmp_path, {"process": FLIP, "n_list": [256, 512], "p": 4,
                                  "epsilon": 1, "tolerance": 0})
    settings = _read_config(cfg, "rates")
    assert (settings["p"], settings["epsilon"], settings["tolerance"]) == (4, 1, 0)


def test_coeffs_refuses_a_huge_budget_at_once(tmp_path):
    # The tuple count is closed-form, so p = q = 40 is refused before any of
    # its ~10^12 exponent vectors is built.
    cfg = write_config(tmp_path, {"process": FLIP})
    out = subprocess.run([sys.executable, "-m", "weakdep", "coeffs", "--config", cfg,
                          "--out", str(tmp_path / "out"), "--p", "40", "--q", "40"],
                         env=package_env(), capture_output=True, text=True, timeout=5)
    assert out.returncode == 1
    assert (out.stdout, out.stderr) == (
        "", "Error: tuple budget exceeded; reduce tuple_horizon or p, q\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc, message", [
    (["bound", "fit"], {"process": LSV, "grid_n": [32], "points_per_n": 1},
     "bound fit requires a finite_chain process"),
    (["bound", "check", "--c1", "1.0", "--c2", "1.0"],
     {"process": LSV, "grid_n": [32], "points_per_n": 1},
     "bound check requires a finite_chain process"),
    (["couple", "run"], {"process": LSV, "n": 256}, "couple run requires a finite_chain process"),
    (["couple", "run"], {"process": COBOUNDARY, "n": 256},
     "degenerate process: use the degenerate pipeline"),
    (["couple", "run"], {"process": FLIP, "n": 3000}, "n must be a power of two, >= 8"),
    (["couple", "run"], {"process": FLIP, "n": 4}, "n must be a power of two, >= 8"),
    (["bound", "fit"], {"process": FLIP, "grid_n": [64], "replicates": 400.7},
     'config key "replicates" must be an integer, not 400.7'),
    (["bound", "fit"], {"process": FLIP, "grid_n": [64.5]},
     'config key "grid_n" must be a list of integers, not [64.5]'),
    (["rates"], {"process": FLIP, "n_list": [256, 512], "replicates": 16.0},
     'config key "replicates" must be an integer, not 16.0'),
    (["rates"], {"process": FLIP, "n_list": [256, 512], "seed": "3"},
     'config key "seed" must be an integer, not "3"'),
    (["rates"], {"process": FLIP, "n_list": [256, 512], "seed": True},
     'config key "seed" must be an integer, not true'),
    (["rates"], {"process": FLIP, "n_list": [256.0, 512]},
     'config key "n_list" must be a list of integers, not [256.0, 512]'),
    (["rates"], {"process": FLIP, "n_list": 256},
     'config key "n_list" must be a list of integers, not 256'),
    (["rates"], {"process": FLIP, "n_list": [256, 512], "tolerance": "0.1"},
     'config key "tolerance" must be a number, not "0.1"'),
    (["couple", "run"], {"process": FLIP, "n": 256, "p": True},
     'config key "p" must be a number, not true'),
    (["couple", "run"], {"process": FLIP, "n": 256, "variant": 1},
     'config key "variant" must be a string, not 1'),
    (["rates"], {"process": LSV, "n_list": [256, 512], "surrogate": "flip"},
     'config key "surrogate" must be an object, not "flip"'),
    (["export-path"], {"process": "flip"}, 'config key "process" must be an object, not "flip"'),
    (["coeffs", "--p", "13", "--q", "13"], {"process": FLIP},
     "tuple budget exceeded; reduce tuple_horizon or p, q"),
    (["export-path", "--n", "8"], {"process": {**LSV, "burn_in": 50.9}},
     'config key "burn_in" must be an integer, not 50.9'),
    (["export-path", "--n", "8"], {"process": {**LSV, "burn_in": True}},
     'config key "burn_in" must be an integer, not true'),
    (["export-path", "--n", "8"],
     {"process": {k: v for k, v in LSV.items() if k != "gamma"}},
     'process config needs a "gamma" key'),
    (["export-path", "--n", "8"],
     {"process": {**LSV, "observable": {"kind": "identity"}}},
     'process config needs a "center" key'),
    (["export-path", "--n", "8"],
     {"process": {**LSV, "observable": {"kind": "identity", "center": "0.4"}}},
     'config key "center" must be a number, not "0.4"'),
    (["export-path", "--n", "8"],
     {"process": {**LSV, "observable": {"kind": "indicator", "center": 0.5,
                                        "threshold": "0.5"}}},
     'config key "threshold" must be a number, not "0.5"'),
    (["export-path", "--n", "8"], {"process": {**LSV, "gamma": "0.2"}},
     'config key "gamma" must be a number, not "0.2"'),
    (["export-path", "--n", "8"], {"process": {**LSV, "observable": "identity"}},
     'config key "observable" must be an object, not "identity"'),
    (["export-path", "--n", "8"],
     {"process": {k: v for k, v in FLIP.items() if k != "step"}},
     'process config needs a "step" key'),
    (["export-path", "--n", "8"], {"process": {**FLIP, "step": True}},
     'config key "step" must be a number, not true'),
    (["export-path", "--n", "8"], {"process": {**COBOUNDARY, "sup_path_bound": "2"}},
     'config key "sup_path_bound" must be a number, not "2"'),
    (["rates"], {"process": LSV, "n_list": [256, 512],
                 "surrogate": {k: v for k, v in FLIP.items() if k != "transition"}},
     'process config needs a "transition" key'),
    (["coeffs"], {"process": {**FLIP, "observable": 5}},
     'config key "observable" must be a list of numbers, not 5'),
    (["coeffs"], {"process": {**FLIP, "observable": [[1.0], [-1.0]]}},
     'config key "observable" must be a list of numbers, not [[1.0], [-1.0]]'),
    (["coeffs"], {"process": {**FLIP, "observable": [True, False]}},
     'config key "observable" must be a list of numbers, not [true, false]'),
    (["coeffs"], {"process": {**FLIP, "states": 5}},
     'config key "states" must be a list of strings, not 5'),
    (["coeffs"], {"process": {**FLIP, "transition": [[0.75, "0.25"], [0.25, 0.75]]}},
     'config key "transition" must be a list of lists of numbers, '
     'not [[0.75, "0.25"], [0.25, 0.75]]'),
    (["coeffs"], {"process": {**FLIP, "transition": [[True, False], [True, False]]}},
     'config key "transition" must be a list of lists of numbers, '
     'not [[true, false], [true, false]]'),
    (["coeffs"], {"process": {**FLIP, "transition": [[0.75, 0.25], [1.0]]}},
     "transition must be a nonempty square matrix"),
    (["bound", "fit"], {"process": FLIP, "grid_n": []}, "grid_n must list at least one n"),
    (["bound", "fit"], {"process": FLIP, "grid_n": [64], "points_per_n": 0},
     "points_per_n must be at least 1, not 0"),
    (["bound", "fit"], {"process": FLIP, "grid_n": [64], "points_per_n": -1},
     "points_per_n must be at least 1, not -1"),
    (["bound", "check", "--c1", "1.0", "--c2", "1.0"], {"process": FLIP, "grid_n": []},
     "grid_n must list at least one n"),
], ids=["bound-fit-lsv", "bound-check-lsv", "couple-run-lsv", "couple-run-degenerate",
        "couple-run-n-3000", "couple-run-n-4", "bound-fit-replicates-float",
        "bound-fit-grid-n-float", "rates-replicates-float", "rates-seed-string",
        "rates-seed-bool", "rates-n-list-float", "rates-n-list-int", "rates-tolerance-string",
        "couple-run-p-bool", "couple-run-variant-int", "rates-lsv-surrogate-string",
        "export-path-process-string", "coeffs-tuple-budget", "lsv-burn-in-float",
        "lsv-burn-in-bool", "lsv-gamma-missing", "lsv-center-missing", "lsv-center-string",
        "lsv-threshold-string", "lsv-gamma-string", "lsv-observable-string",
        "chain-step-missing", "chain-step-bool", "chain-sup-path-bound-string",
        "surrogate-transition-missing", "chain-observable-number", "chain-observable-nested",
        "chain-observable-bool", "chain-states-number", "chain-transition-string-entry",
        "chain-transition-bool-entries", "chain-transition-ragged", "bound-fit-grid-n-empty",
        "bound-fit-points-per-n-0", "bound-fit-points-per-n-negative",
        "bound-check-grid-n-empty"])
def test_command_refuses_process(tmp_path, command, doc, message):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, command + ["--config", write_config(tmp_path, doc),
                                                 "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: {message}\n"
    assert not out.exists()


SMALL_BOUND = {"process": FLIP, "grid_n": [32, 64], "points_per_n": 1, "replicates": 200,
               "theta_horizon": 4}
SMALL_LADDER = {"n_list": [64, 128], "replicates": 16}


@pytest.mark.parametrize("command, doc", [
    (["coeffs", "--horizon", "4"], {"process": FLIP}),
    (["bound", "fit"], SMALL_BOUND),
    (["bound", "check", "--c1", "1.0", "--c2", "1.0"], SMALL_BOUND),
    (["couple", "run"], {"process": FLIP, "n": 256}),
    (["rates"], {"process": FLIP, **SMALL_LADDER}),
    (["rates"], {"process": LSV, "surrogate": FLIP, **SMALL_LADDER}),
    (["wasserstein"], {"process": FLIP, **SMALL_LADDER}),
    (["degenerate"], {"process": COBOUNDARY, "n_list": [64, 256], "replicates": 100,
                      "alpha": 0.5}),
], ids=["coeffs", "bound-fit", "bound-check", "couple-run", "rates-chain",
        "rates-lsv-surrogate", "wasserstein", "degenerate"])
def test_command_certifies_its_chain_once(tmp_path, monkeypatch, command, doc):
    calls = {"certified_contraction": 0, "sigma2_certified": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(coefficients, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(coefficients, name, counted)
    result = CliRunner().invoke(main, command + ["--config", write_config(tmp_path, doc),
                                                 "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert calls == {"certified_contraction": 1, "sigma2_certified": 1}


@pytest.mark.parametrize("command, doc, pipeline", [
    ("rates", {"process": FLIP, **SMALL_LADDER}, run_rate_experiment),
    ("rates", {"process": LSV, "surrogate": FLIP, **SMALL_LADDER}, run_lsv_experiment),
    ("wasserstein", {"process": FLIP, **SMALL_LADDER}, donsker_wasserstein),
    ("degenerate", {"process": COBOUNDARY, "n_list": [64, 256], "replicates": 100,
                    "alpha": 0.5}, run_degenerate_suite),
], ids=["rates-chain", "rates-lsv-surrogate", "wasserstein", "degenerate"])
def test_command_writes_the_pipeline_report(tmp_path, command, doc, pipeline):
    # The command adds nothing to what its pipeline returns: the summary
    # after a JSON round trip, and every table cell for cell.
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary, tables = pipeline(ExperimentConfig(**_read_config(cfg, command)))
    written = json.loads((out / "summary.json").read_text())["summary"]
    assert written == json.loads(json.dumps(summary))
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["summary.json", *(f"{name}.{ext}" for name in tables for ext in ("csv", "dat"))])
    for name, rows in tables.items():
        with open(out / f"{name}.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == list(rows[0])
            assert [{key: float(cell) for key, cell in row.items()} for row in reader] \
                == [{key: float(value) for key, value in row.items()} for row in rows]


@pytest.mark.parametrize("command, doc, unread", [
    ("degenerate", {"process": COBOUNDARY, "tolerance": 0.5}, "tolerance"),
    ("degenerate", {"process": COBOUNDARY, "variant": "inflated"}, "variant"),
    ("rates", {"process": FLIP, "surrogate": FLIP}, "surrogate"),
    ("rates", {"process": FLIP, "moment_q": 3.0}, "moment_q"),
    ("rates", {"process": LSV, "p": 2.5}, "p"),
    ("wasserstein", {"process": FLIP, "alpha": 0.5}, "alpha"),
    ("wasserstein", {"process": FLIP, "moment_q": 3.0}, "moment_q"),
    ("rates", {"process": FLIP, "c_fit": 2.0}, "c_fit"),
    ("rates", {"process": LSV, "c_fit": 2.0}, "c_fit"),
    ("wasserstein", {"process": FLIP, "c_fit": 2.0}, "c_fit"),
])
def test_config_key_not_read_rejected(tmp_path, command, doc, unread):
    cfg = write_config(tmp_path, {**doc, "n_list": [256, 512], "replicates": 16,
                                  "seed": 1})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == f"Error: unknown config keys: {unread}\n"
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", [["coeffs"], ["rates"]])
def test_config_without_process_rejected(tmp_path, command):
    cfg = write_config(tmp_path, {})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, command + ["--config", cfg, "--out", str(out)])
    assert result.exit_code == 1
    assert result.output == 'Error: config needs a "process" key\n'
    assert "Traceback" not in result.output
    assert not out.exists()


def test_shipped_configs_match_generator():
    spec = importlib.util.spec_from_file_location("make_configs",
                                                  CONFIGS.parent / "make_configs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    docs = module.CONFIGS
    assert sorted(docs) == sorted(path.name for path in CONFIGS.iterdir())
    for name, doc in docs.items():
        assert (CONFIGS / name).read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_benchmark_tracer_targets_exist():
    # The tracer wraps weakdep functions by name, and the workloads' checks
    # import weakdep names; a rename or deletion would leave a traced run
    # without its layer or a check that cannot run.  Both files are read as
    # text, so nothing is written under benchmarks/.
    path = ROOT / "benchmarks" / "tracing.py"
    tracing = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    targets = [(module, fn) for module, fn, _ in tracing["TRACED"]] + tracing["MEMORY"]
    for module, fn in targets:
        assert callable(getattr(importlib.import_module(f"weakdep.{module}"), fn, None)), \
            f"{module}.{fn}"
    workloads = ROOT / "benchmarks" / "workloads.py"
    imports = [(node.module, alias.name)
               for node in ast.walk(ast.parse(workloads.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "weakdep"
               for alias in node.names]
    assert ("weakdep.coupling", "build_coupling") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # worker.py reads the block-law cache counters.
    assert callable(coupling._block_tensor.cache_info)
    # Each _observe_<module>_<function> hook reads the traced call's
    # arguments by name, through its bound signature.
    traced = {f"_observe_{module}_{fn}":
              getattr(importlib.import_module(f"weakdep.{module}"), fn)
              for module, fn, _ in tracing["TRACED"]}
    hooks = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_observe_")]
    assert hooks
    for hook in hooks:
        read = {node.slice.value for node in ast.walk(hook)
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and isinstance(node.slice, ast.Constant)}
        assert hook.name in traced, hook.name
        assert read <= set(inspect.signature(traced[hook.name]).parameters), hook.name
    # Result fields the hooks and the workloads' checks read.
    for cls, names in [(coupling.CoupledPath, {"x", "z", "u_by_level"}),
                       (coupling.BlockDist, {"sums_int", "probs", "end_state_probs"}),
                       (LsvProcess, {"burn_in"})]:
        assert names <= {field.name for field in dataclasses.fields(cls)}, cls.__name__


def test_every_module_constant_is_read():
    # A module-level UPPER_CASE name of the package that no file of src/,
    # tests/, benchmarks/*.py or scripts/ names besides its own definition
    # is a setting nothing reads.
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
               *(ROOT / "benchmarks").glob("*.py"), *(ROOT / "scripts").rglob("*.py")]
    names = Counter(word for path in sources for word in re.findall(r"\w+", path.read_text()))
    defined = Counter(name.id for path in (ROOT / "src" / "weakdep").glob("*.py")
                      for node in ast.parse(path.read_text()).body
                      if isinstance(node, (ast.Assign, ast.AnnAssign))
                      for target in (node.targets if isinstance(node, ast.Assign)
                                     else [node.target])
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name) and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", name.id))
    assert defined
    unread = sorted(name for name, count in defined.items() if names[name] <= count)
    assert not unread, f"module constants nothing reads: {unread}"


@pytest.mark.parametrize("name, allowed", [
    (name, {"process", *CONFIG_DEFAULTS[table]})
    for name, table in [("bound_flip", "bound"), ("couple_flip", "couple"),
                        ("coeffs_flip", "coeffs"), ("rates_flip", "rates"),
                        ("rates_lsv", "rates-lsv"), ("wasserstein_flip", "wasserstein"),
                        ("degenerate_flip", "degenerate")]])
def test_shipped_cli_configs_load(name, allowed):
    path = CONFIGS / f"{name}.json"
    doc = json.loads(path.read_text())
    settings = _read_config(str(path), name.split("_")[0])
    assert set(settings) == allowed
    assert all(settings[key] == doc[key] for key in doc if key not in ("process", "surrogate"))


def test_shipped_degenerate_config_checks_the_path_bound(tmp_path):
    out = tmp_path / "d"
    result = CliRunner().invoke(main, ["degenerate", "--config",
                                       str(CONFIGS / "degenerate_flip.json"),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["process"]["sup_path_bound"] == 2.0
    assert doc["summary"]["zero_beyond"] == 100
    assert doc["summary"]["passed"] is True


def test_degenerate_runs_on_its_default_replicates(tmp_path):
    doc = json.loads((CONFIGS / "degenerate_flip.json").read_text())
    del doc["replicates"]
    out = tmp_path / "d"
    result = CliRunner().invoke(main, ["degenerate", "--config", write_config(tmp_path, doc),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    echoed = json.loads((out / "summary.json").read_text())["config"]
    assert echoed["replicates"] == MIN_TAIL_REPLICATES


def test_readme_tour_runs():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library tour"):text.index("## CLI")]
    code = section.split("```python\n")[1].split("```")[0]
    for big, small in (("100_000", "2_000"), ("range(10, 18)", "range(10, 13)"),
                       ("replicates=64", "replicates=16")):
        assert big in code
        code = code.replace(big, small)
    exec(compile(code, "README.md", "exec"), {})


def _readme_default(value) -> str:
    if value is dataclasses.MISSING:
        return "required"
    return "none" if value is None else str(value)


def test_readme_config_table_matches_config_defaults():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("### Config format"):text.index("## Acceptance suite")]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    documented = {}
    for table, _, keys in rows:
        pairs = re.findall(r"`(\w+)` \(([^)]*)\)", keys)
        documented[table.strip().strip("`")] = dict(pairs)
    assert documented == {
        table: {key: _readme_default(value) for key, value in defaults.items()}
        for table, defaults in CONFIG_DEFAULTS.items()}


def test_cli_import_leaves_out_scipy_stats():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, weakdep.cli; print('scipy.stats' in sys.modules)"],
        env=package_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_rates_command_deterministic(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {
        "process": chain_doc, "n_list": [256, 512, 1024],
        "replicates": 16, "seed": 9})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        result = CliRunner().invoke(main, ["rates", "--config", cfg,
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()
    config = json.loads((out1 / "summary.json").read_text())["config"]
    assert set(config) == {"process", *CONFIG_DEFAULTS["rates"]}


def test_wasserstein_command(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {
        "process": chain_doc, "n_list": [256, 512], "replicates": 16, "seed": 9})
    out = tmp_path / "w"
    result = CliRunner().invoke(main, ["wasserstein", "--config", cfg,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["target"] == -0.25
    assert summary["reference_exponent"] == pytest.approx(-1 / 6)


def test_wasserstein_uses_configured_tolerance(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {
        "process": chain_doc, "n_list": [256, 512], "replicates": 16, "seed": 9,
        "tolerance": 0.05})
    out = tmp_path / "w"
    result = CliRunner().invoke(main, ["wasserstein", "--config", cfg,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "summary.json").read_text())
    assert doc["summary"]["tolerance"] == 0.05
    assert doc["config"]["tolerance"] == 0.05


def test_degenerate_command(tmp_path, chain_doc):
    proc = {"type": "finite_chain", "states": ["a", "b"],
            "transition": [[0.75, 0.25], [0.25, 0.75]],
            "observable": [1.0, -1.0], "step": 1.0}
    # build the telescoping process inline via the library, then serialize it
    from weakdep import make_coboundary
    from weakdep.processes import process_from_config, process_to_config
    cob = make_coboundary(process_from_config(proc), [1.0, -1.0])
    cfg = write_config(tmp_path, {
        "process": process_to_config(cob), "n_list": [64, 256, 1024],
        "replicates": 400, "seed": 3, "alpha": 0.5})
    out = tmp_path / "d"
    result = CliRunner().invoke(main, ["degenerate", "--config", cfg,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert abs(summary["sigma2"]) < 1e-6


def test_lsv_rates_command(tmp_path):
    cfg = write_config(tmp_path, {
        "process": {"type": "lsv", "gamma": 0.2, "burn_in": 200,
                    "observable": {"kind": "identity", "center": 0.5}},
        "n_list": [256, 512], "replicates": 16, "seed": 2})
    out = tmp_path / "l"
    result = CliRunner().invoke(main, ["rates", "--config", cfg,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["target"] == 0.25


def test_export_path_command(tmp_path, chain_doc):
    cfg = write_config(tmp_path, {"process": chain_doc, "seed": 4})
    out = tmp_path / "p"
    result = CliRunner().invoke(main, ["export-path", "--config", cfg,
                                       "--out", str(out), "--n", "32"])
    assert result.exit_code == 0, result.output
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "index,value,partial_sum"
    assert len(lines) == 33
    path = sample_path(process_from_config(chain_doc), 32, 4)
    for k in (1, 3, 32):
        assert lines[k] == (f"{k},{float(path.values[k - 1])!r},"
                            f"{float(path.partial_sums[k])!r}")
