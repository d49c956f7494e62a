#!/usr/bin/env python3
"""Write tests/golden/manifest.json: the SHA-256 of the stdout and of every
output file of each CLI run in RUNS.

Each run reads a config of scripts/configs/ with its ladder shortened (the
keys in the run's changes; a key changed to None is dropped).  The manifest
also records the numpy and scipy versions, the BLAS build and the machine
type, since θ tables and fits go through BLAS and LAPACK.
tests/test_golden.py runs the same RUNS and compares the hashes, so a
declared output change regenerates the manifest in the same change, and the
diff of manifest.json is the declaration:

    PYTHONPATH=src python scripts/make_golden.py
"""

import hashlib
import json
import os
import platform
import tempfile

import numpy as np
import scipy
from click.testing import CliRunner

from weakdep.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")
MANIFEST = os.path.join(HERE, os.pardir, "tests", "golden", "manifest.json")

BOUND_CHECK = ["bound", "check", "--c1", "0.001", "--c2", "5623.4"]
SHORT_BOUND = {"replicates": 4000}
SHORT_LADDER = {"n_list": [1024, 2048, 4096], "replicates": 16}

# name -> (command arguments, config file, changes to the config)
RUNS = {
    "coeffs": (["coeffs"], "coeffs_flip.json", {}),
    "bound-fit": (["bound", "fit"], "bound_flip.json", SHORT_BOUND),
    "bound-check": (BOUND_CHECK, "bound_flip.json", SHORT_BOUND),
    "bound-check-seed-77": (BOUND_CHECK + ["--seed", "77"], "bound_flip.json", SHORT_BOUND),
    "couple-run": (["couple", "run"], "couple_flip.json", {}),
    "degenerate": (["degenerate"], "degenerate_flip.json",
                   {"n_list": [100, 1000], "replicates": 500}),
    "rates-flip": (["rates"], "rates_flip.json", SHORT_LADDER),
    "rates-lsv": (["rates"], "rates_lsv.json", {"n_list": [2048, 4096], "replicates": 16}),
    "wasserstein": (["wasserstein"], "wasserstein_flip.json", SHORT_LADDER),
    "export-path-chain": (["export-path", "--n", "1024"], "coeffs_flip.json", {"seed": 5}),
    "export-path-lsv": (["export-path", "--n", "1024"], "rates_lsv.json",
                        {key: None for key in ("n_list", "replicates", "surrogate",
                                               "tolerance")}),
}


def environment() -> dict:
    """What the bits of a run may depend on besides the source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(name: str, workdir: str) -> str:
    """Write the shortened config of run `name` under `workdir`; its path."""
    _, config, changes = RUNS[name]
    with open(os.path.join(CONFIGS, config)) as fh:
        doc = json.load(fh)
    doc.update(changes)
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({key: value for key, value in doc.items() if value is not None}, fh)
    return path


def run_hashes(workdir: str) -> dict:
    """name -> {"stdout": hash, "files": {file name: hash}} for every run."""
    hashes = {}
    for name, (args, _, _) in RUNS.items():
        out_dir = os.path.join(workdir, name)
        result = CliRunner().invoke(
            main, [*args, "--config", _write_config(name, workdir), "--out", out_dir])
        if result.exit_code != 0:
            raise RuntimeError(f"{name} failed: {result.output}") from result.exception
        files = {}
        for file_name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, file_name), "rb") as fh:
                files[file_name] = _sha256(fh.read())
        hashes[name] = {"stdout": _sha256(result.stdout_bytes), "files": files}
    return hashes


def write_manifest():
    with tempfile.TemporaryDirectory() as workdir:
        manifest = {"environment": environment(), "runs": run_hashes(workdir)}
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.normpath(MANIFEST))


if __name__ == "__main__":
    write_manifest()
