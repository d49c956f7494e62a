"""Byte identity as a test: the CLI runs of scripts/make_golden.py against
the hashes committed in tests/golden/manifest.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _make_golden():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden_manifest(tmp_path):
    golden = _make_golden()
    manifest = json.loads((ROOT / "tests" / "golden" / "manifest.json").read_text())
    here = golden.environment()
    differ = [f"{key} {manifest['environment'].get(key)!r} != {value!r}"
              for key, value in here.items() if manifest["environment"].get(key) != value]
    if differ:
        pytest.skip("golden manifest made under another environment: " + "; ".join(differ))
    assert sorted(manifest["runs"]) == sorted(golden.RUNS)
    hashes = golden.run_hashes(str(tmp_path))
    changed = [f"{name}/{entry}" for name in golden.RUNS
               for entry in _differing(hashes[name], manifest["runs"][name])]
    assert not changed, f"outputs differ from the golden manifest: {changed}"


def _differing(run: dict, pinned: dict) -> list[str]:
    """`stdout` and the names of the files whose hash, or presence, differs."""
    files = sorted({*run["files"], *pinned["files"]})
    return ([] if run["stdout"] == pinned["stdout"] else ["stdout"]) + \
        [name for name in files if run["files"].get(name) != pinned["files"].get(name)]
