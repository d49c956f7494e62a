import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import weakdep
from weakdep import flip_chain, make_coboundary
from weakdep.cli import CONFIG_DEFAULTS, _read_config, main
from weakdep.processes import process_from_config, process_to_config, sample_path
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
    assert (out / "theta_table.csv").exists()
    assert (out / "theta.csv").exists()


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
    assert result.exit_code != 0
    assert isinstance(result.exception, ValueError)
    assert str(result.exception) == 'config needs an "n_list" key'
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
    assert result.exit_code != 0
    assert str(result.exception) == f"unknown config keys: {typo}"
    assert not out.exists()


@pytest.mark.parametrize("command, doc, unread", [
    ("degenerate", {"process": COBOUNDARY, "tolerance": 0.5}, "tolerance"),
    ("degenerate", {"process": COBOUNDARY, "variant": "inflated"}, "variant"),
    ("rates", {"process": FLIP, "surrogate": FLIP}, "surrogate"),
    ("rates", {"process": FLIP, "moment_q": 3.0}, "moment_q"),
    ("rates", {"process": LSV, "p": 2.5}, "p"),
    ("wasserstein", {"process": FLIP, "alpha": 0.5}, "alpha"),
    ("wasserstein", {"process": FLIP, "moment_q": 3.0}, "moment_q"),
])
def test_config_key_not_read_rejected(tmp_path, command, doc, unread):
    cfg = write_config(tmp_path, {**doc, "n_list": [256, 512], "replicates": 16,
                                  "seed": 1})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code != 0
    assert str(result.exception) == f"unknown config keys: {unread}"
    assert not out.exists()


@pytest.mark.parametrize("command", [["coeffs"], ["rates"]])
def test_config_without_process_rejected(tmp_path, command):
    cfg = write_config(tmp_path, {})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, command + ["--config", cfg, "--out", str(out)])
    assert result.exit_code != 0
    assert isinstance(result.exception, ValueError)
    assert str(result.exception) == 'config needs a "process" key'
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
    src = str(Path(weakdep.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, weakdep.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
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
