"""The four workloads: inputs written from the seed, one operation through the
``weakdep`` CLI, the work the inputs fix, and the checks of each output.

Only the standard library is imported at module level, so that the set-up
time measures importing ``weakdep.cli`` and writing the configs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

LSV_CENTER = 0.42823   # invariant mean of x for gamma = 0.375


def flip_process(a: float) -> dict:
    return {"type": "finite_chain", "states": ["+", "-"],
            "transition": [[1.0 - a, a], [a, 1.0 - a]],
            "observable": [1.0, -1.0], "step": 1.0}


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def read_rows(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


class Workload:
    """One workload at one seed; `tiny` shrinks the inputs for the benchmark's tests."""

    name = ""

    def __init__(self, seed: int, out_dir: str, tiny: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        self.tiny = tiny
        self.config_dir = os.path.join(out_dir, "configs")

    def op_seed(self, op: int, part: int = 0) -> int:
        """Program seed for part `part` of operation `op`: fixed by the workload seed."""
        return random.Random(f"{self.name}/{self.seed}/{op}/{part}").getrandbits(63)

    def op_dir(self, op: int) -> str:
        return os.path.join(self.out_dir, f"op{op}")

    def setup(self) -> None:
        """Write the configs (part of the set-up time)."""
        raise NotImplementedError

    def operation(self, op: int, invoke) -> None:
        """Run one operation; `invoke(argv)` runs one weakdep CLI command."""
        raise NotImplementedError

    def check(self, op: int) -> None:
        """Check the outputs of operation `op`; raises checks.CheckFailed."""
        raise NotImplementedError

    @property
    def work(self) -> float:
        """Work fixed by the inputs, counted per operation."""
        raise NotImplementedError


class TailFit(Workload):
    """bound fit on the flip chain, then bound check with the fitted constants
    and a different seed."""

    name = "tail-fit"
    a = 0.25

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.grid_n = [32, 64, 128] if self.tiny else [256, 512, 1024]
        self.points = 4
        self.replicates = 400 if self.tiny else 2048

    def setup(self):
        os.makedirs(self.config_dir, exist_ok=True)
        self.config = write_json(os.path.join(self.config_dir, "tail.json"), {
            "process": flip_process(self.a), "grid_n": self.grid_n,
            "points_per_n": self.points, "replicates": self.replicates,
            "seed": self.op_seed(0), "theta_horizon": 16})

    @property
    def work(self):
        return 2 * self.points * self.replicates * sum(self.grid_n)

    def operation(self, op, invoke):
        fit_dir = os.path.join(self.op_dir(op), "fit")
        check_dir = os.path.join(self.op_dir(op), "check")
        invoke(["bound", "fit", "--config", self.config, "--out", fit_dir,
                "--seed", str(self.op_seed(op, 0))])
        fit = read_summary(fit_dir)["summary"]
        invoke(["bound", "check", "--config", self.config, "--out", check_dir,
                "--seed", str(self.op_seed(op, 1)),
                "--c1", repr(fit["c1"]), "--c2", repr(fit["c2"])])

    def check(self, op):
        from checks import (check_close, check_dominance, check_tail_band,
                            first_passage_tail, require)
        fit_dir = os.path.join(self.op_dir(op), "fit")
        check_dir = os.path.join(self.op_dir(op), "check")
        fit = read_summary(fit_dir)
        held = read_summary(check_dir)
        require(fit["config"]["seed"] == self.op_seed(op, 0)
                and held["config"]["seed"] == self.op_seed(op, 1),
                "fit and check did not run on the seeds given")
        check_close(fit["summary"]["sigma2"], (1.0 - self.a) / self.a, 1e-9, "sigma2")
        process = flip_process(self.a)
        obs_int = [1, -1]

        def exact(rows):
            return [first_passage_tail(process["transition"], obs_int, int(r["n"]),
                                       math.ceil(r["x"])) for r in rows]

        train = read_rows(os.path.join(fit_dir, "training_grid.csv"))
        holdout = read_rows(os.path.join(check_dir, "holdout_grid.csv"))
        require(len(train) == len(holdout) == self.points * len(self.grid_n),
                "grid size differs from the config")
        check_tail_band(train, exact(train), self.replicates)
        exact_holdout = exact(holdout)
        check_tail_band(holdout, exact_holdout, self.replicates)
        check_dominance(holdout, exact_holdout)
        require(held["summary"]["dominates_holdout"]
                == all(r["rhs"] >= r["ci_high"] for r in holdout),
                "dominates_holdout disagrees with its own rows")


class CouplingRate(Workload):
    """rates on the flip chain: few replicates, long paths."""

    name = "coupling-rate"
    a = 0.25
    p = 4.0
    tolerance = 0.08

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.n_list = [2 ** k for k in (range(8, 12) if self.tiny else range(10, 15))]
        self.replicates = 16

    def setup(self):
        os.makedirs(self.config_dir, exist_ok=True)
        self.config = write_json(os.path.join(self.config_dir, "rates.json"), {
            "process": flip_process(self.a), "n_list": self.n_list,
            "replicates": self.replicates, "seed": self.op_seed(0),
            "p": self.p, "tolerance": self.tolerance})

    @property
    def work(self):
        return self.replicates * sum(self.n_list)

    def operation(self, op, invoke):
        invoke(["rates", "--config", self.config, "--out", self.op_dir(op),
                "--seed", str(self.op_seed(op))])

    def check(self, op):
        from checks import (brute_block_law, check_block_law, check_coupled_path,
                            check_rate, require)
        from weakdep.coupling import block_sum_dist, build_coupling, make_schedule
        from weakdep.processes import process_from_config

        doc = read_summary(self.op_dir(op))
        summary = doc["summary"]
        require(doc["config"]["seed"] == self.op_seed(op), "rates ran on another seed")
        rows = read_rows(os.path.join(self.op_dir(op), "rates.csv"))
        ns = [int(r["n"]) for r in rows]
        require(ns == self.n_list, "rates rows differ from n_list")
        check_rate(ns, [r["error_l2"] for r in rows], summary["exponent"],
                   1.0 / self.p, self.tolerance, summary["exponent_se"])
        require(summary["passed"] == (abs(summary["exponent"] - summary["target"])
                                      <= summary["tolerance"]),
                "passed disagrees with exponent, target and tolerance")

        process = flip_process(self.a)
        chain = process_from_config(process)
        obs_int = [1, -1]
        for m in range(4):              # block lengths 1, 2, 4, 8
            for start in range(2):
                dist = block_sum_dist(chain, start, m)
                check_block_law(dist.sums_int, dist.probs, dist.end_state_probs,
                                brute_block_law(process["transition"], obs_int,
                                                start, 2 ** m))
        sigma2 = (1.0 - self.a) / self.a
        for n in self.n_list:
            schedule = make_schedule(int(math.log2(n)) - 1, self.p, "balanced",
                                     epsilon=0.5, c_fit=1.0)
            path = build_coupling(chain, schedule, sigma2, n, self.op_seed(op))
            check_coupled_path(path.x, path.z, sigma2, [-1.0, 1.0])


class LsvOrbit(Workload):
    """rates on the LSV map: direct orbit statistics only, no surrogate."""

    name = "lsv-orbit"
    gamma = 0.375

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.n_list = [2 ** k for k in ((8, 10, 12) if self.tiny else range(11, 18))]
        self.replicates = 16 if self.tiny else 32
        self.burn_in = 500 if self.tiny else 10_000

    def process(self, center: float) -> dict:
        return {"type": "lsv", "gamma": self.gamma, "burn_in": self.burn_in,
                "observable": {"kind": "identity", "center": center}}

    def setup(self):
        os.makedirs(self.config_dir, exist_ok=True)
        self.config = write_json(os.path.join(self.config_dir, "lsv.json"), {
            "process": self.process(LSV_CENTER), "n_list": self.n_list,
            "replicates": self.replicates, "seed": self.op_seed(0),
            "tolerance": 0.1})

    @property
    def work(self):
        return self.replicates * sum(self.burn_in + n for n in self.n_list)

    def operation(self, op, invoke):
        invoke(["rates", "--config", self.config, "--out", self.op_dir(op),
                "--seed", str(self.op_seed(op))])

    def check(self, op):
        from checks import check_close, check_orbits, check_sup_growth, ols_slope, require
        from weakdep.processes import process_from_config, sample_lsv_ensemble

        doc = read_summary(self.op_dir(op))
        require(doc["config"]["seed"] == self.op_seed(op), "rates ran on another seed")
        require("surrogate" not in doc["summary"], "surrogate ran")
        rows = read_rows(os.path.join(self.op_dir(op), "direct.csv"))
        ns = [int(r["n"]) for r in rows]
        require(ns == self.n_list, "direct rows differ from n_list")
        levels = [r["sup_l2"] for r in rows]
        check_sup_growth(ns, levels, max(LSV_CENTER, 1.0 - LSV_CENTER))
        check_close(doc["summary"]["direct_exponent"], ols_slope(ns, levels), 1e-9,
                    "direct exponent vs own least squares")
        # Orbits as the pipeline draws them; center 0 makes the values the points.
        bare = process_from_config(self.process(0.0))
        orbits = sample_lsv_ensemble(bare, self.n_list[0], self.op_seed(op), range(4))
        check_orbits(self.gamma, orbits)


class CoeffsTable(Workload):
    """coeffs on six chains whose parameters are drawn from the seed."""

    name = "coeffs-table"

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.p = self.q = 2 if self.tiny else 4
        self.horizon = 4 if self.tiny else 16

    def _chains(self) -> dict:
        rng = random.Random(f"{self.name}/{self.seed}/chains")

        def rows(states):
            # entries k/16 with k >= 1: dyadic, positive, exact stationary law
            out = []
            for _ in range(states):
                cuts = sorted(rng.sample(range(1, 16), states - 1))
                parts = [b - a for a, b in zip([0] + cuts, cuts + [16])]
                out.append([k / 16.0 for k in parts])
            return out

        def values(states, spread):
            while True:
                v = [float(rng.randint(-spread, spread)) for _ in range(states)]
                if len(set(v)) > 1:
                    return v

        def chain(transition, observable, states=None):
            return {"type": "finite_chain",
                    "states": states or [str(i) for i in range(len(transition))],
                    "transition": transition, "observable": observable, "step": 1.0}

        def symmetrized(c):
            t, f = c["transition"], c["observable"]
            s = range(len(t))
            return chain([[t[i][k] * t[j][l] for k in s for l in s] for i in s for j in s],
                         [f[i] - f[j] for i in s for j in s],
                         [f"{i}{j}" for i in s for j in s])

        def coboundary(a, g):
            p = [[1.0 - a, a], [a, 1.0 - a]]
            pairs = [(i, j) for i in range(2) for j in range(2)]
            return chain([[p[j][l] if k == j else 0.0 for (k, l) in pairs] for (_, j) in pairs],
                         [g[i] - g[j] for (i, j) in pairs],
                         [f"{i}{j}" for (i, j) in pairs])

        dyadic_a = [k / 16.0 for k in range(2, 8)]
        flip_a = rng.choice(dyadic_a)
        three = chain(rows(3), values(3, 2))
        return {
            "flip": (flip_process(flip_a), flip_a),
            "three-state": (three, None),
            "four-state": (chain(rows(4), values(4, 3)), None),
            "sym-flip": (symmetrized(flip_process(rng.choice(dyadic_a))), None),
            "sym-three-state": (symmetrized(three), None),
            "flip-coboundary": (coboundary(rng.choice(dyadic_a), values(2, 2)), None),
        }

    def setup(self):
        os.makedirs(self.config_dir, exist_ok=True)
        self.chains = self._chains()
        self.configs = {name: write_json(os.path.join(self.config_dir, f"{name}.json"),
                                         {"process": process})
                        for name, (process, _) in self.chains.items()}

    @property
    def work(self):
        return len(self.chains) * (self.horizon + 1)

    def operation(self, op, invoke):
        for name, config in self.configs.items():
            invoke(["coeffs", "--config", config,
                    "--out", os.path.join(self.op_dir(op), name),
                    "--p", str(self.p), "--q", str(self.q),
                    "--horizon", str(self.horizon)])

    def check(self, op):
        from checks import check_close, check_flip_theta, check_theta_table, sigma2_fundamental
        for name, (process, flip_a) in self.chains.items():
            out = os.path.join(self.op_dir(op), name)
            summary = read_summary(out)["summary"]
            expected = sigma2_fundamental(process["transition"], process["observable"])
            check_close(summary["sigma2"], expected, 0.0, f"{name} sigma2", abs_tol=1e-8)
            values = [r["value"] for r in read_rows(os.path.join(out, "theta.csv"))]
            check_theta_table(values)
            if flip_a is not None:
                check_flip_theta(values, flip_a, summary["truncation_bound"], p=self.p)


WORKLOADS = {w.name: w for w in (TailFit, CouplingRate, LsvOrbit, CoeffsTable)}
