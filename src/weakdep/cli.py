"""Command line front end.

Subcommands: ``coeffs``, ``bound fit``, ``bound check``, ``couple run``,
``rates``, ``wasserstein``, ``degenerate``, ``export-path``.  Each takes
``--config <file>`` (JSON, see README for the schema) and ``--out``; all but
``coeffs``, which has no randomness, also take ``--seed``.  Outputs land in
the chosen directory as CSV / JSON / .dat files.
"""

from __future__ import annotations

import dataclasses
import json
import os

import click

from . import bounds as bnd
from . import coefficients as coef
from . import coupling as cpl
from .experiments import ExperimentConfig, check_config_keys, donsker_wasserstein, \
    run_degenerate_suite, run_lsv_experiment, run_rate_experiment
from .processes import FiniteChain, LsvProcess, process_from_config, sample_path
from .reporting import emit_report, write_table_csv
from .rng import holdout_seed


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# Per command: the config keys allowed besides "process", with their defaults.
CONFIG_DEFAULTS = {
    "coeffs": {},
    "bound": {"grid_n": [256, 512, 1024], "points_per_n": 4, "replicates": 20000,
              "seed": 0, "theta_horizon": 16},
    "couple": {"n": 4096, "seed": 0, "p": 4.0, "variant": "balanced",
               "epsilon": 0.5, "c_fit": 1.0},
    "export-path": {"seed": 0},
}


def _read_config(path: str, command: str) -> tuple[dict, dict]:
    """(document, settings) of a command's config: unknown keys are refused,
    and the settings fill in the command's defaults."""
    doc = _load_config(path)
    defaults = CONFIG_DEFAULTS[command]
    check_config_keys(doc, ("process", *defaults))
    return doc, {**defaults, **doc}


def _experiment_config(doc: dict, seed) -> ExperimentConfig:
    cfg = ExperimentConfig.from_dict(doc)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))
    return cfg


config_option = click.option("--config", "config_path", required=True,
                             type=click.Path(exists=True))
seed_option = click.option("--seed", type=int, default=None,
                           help="override the config seed")
out_option = click.option("--out", "out_dir", required=True, type=click.Path())


def with_common(fn):
    return config_option(seed_option(out_option(fn)))


@click.group()
def main():
    """Dependence-coefficient, tail-bound and Gaussian-coupling experiments."""


@main.command()
@config_option
@out_option
@click.option("--p", type=int, default=4)
@click.option("--q", type=int, default=4)
@click.option("--horizon", type=int, default=16)
def coeffs(config_path, out_dir, p, q, horizon):
    """Exact dependence coefficients and series summary for a chain config."""
    doc, _ = _read_config(config_path, "coeffs")
    process = process_from_config(doc["process"])
    if not isinstance(process, FiniteChain):
        raise click.ClickException("coeffs requires a finite_chain process")
    table = coef.certified_theta_table(process, p, q, horizon)
    sigma2 = coef.sigma2_exact(process)
    summary = coef.series_summary(table, sigma2=sigma2)
    os.makedirs(out_dir, exist_ok=True)
    coef.theta_table_to_csv(table, os.path.join(out_dir, "theta_table.csv"))
    rows = [{"k": k, "value": float(v)} for k, v in enumerate(table.values)]
    emit_report({
        "config": {"process": doc["process"], "p": p, "q": q, "horizon": horizon},
        "summary": {"sigma2": sigma2, "theta1": summary.theta1,
                    "theta2": summary.theta2, "tail_rate": table.tail.rate,
                    "truncation_bound": coef.theta_truncation_bound(process, p, 12)},
        "tables": {"theta": rows},
    }, out_dir)
    click.echo(f"sigma2={sigma2!r} theta1={summary.theta1!r} theta2={summary.theta2!r}")


@main.group()
def bound():
    """Tail-bound fitting and dominance checks."""


def _bound_setup(cfg, seed):
    process = process_from_config(cfg["process"])
    summary = coef.summarize_chain(process, horizon=int(cfg["theta_horizon"]))
    seed = int(cfg["seed"] if seed is None else seed)
    return (process, summary, cfg["grid_n"], int(cfg["points_per_n"]),
            int(cfg["replicates"]), seed)


@bound.command("fit")
@with_common
def bound_fit(config_path, seed, out_dir):
    """Fit the two bound constants on the training grid."""
    doc, cfg = _read_config(config_path, "bound")
    process, summary, n_values, points, replicates, seed = _bound_setup(cfg, seed)
    grid = bnd.tail_grid(n_values, points, process.sup_norm, holdout=False)
    fit = bnd.fit_constants(process, grid, replicates, seed, summary=summary)
    emit_report({
        "config": {**doc, "seed": seed},
        "summary": {"c1": fit.c1, "c2": fit.c2, "sigma2": summary.sigma2,
                    "binding": fit.binding, "search_box": list(fit.search_box)},
        "tables": {"training_grid": fit.rows},
    }, out_dir)
    click.echo(f"c1={fit.c1!r} c2={fit.c2!r}")


@bound.command("check")
@with_common
@click.option("--c1", type=float, required=True)
@click.option("--c2", type=float, required=True)
def bound_check(config_path, seed, out_dir, c1, c2):
    """Check dominance of given constants on the holdout grid.  Without --seed
    it runs on rng.holdout_seed of the config seed, never the training paths."""
    doc, cfg = _read_config(config_path, "bound")
    process, summary, n_values, points, replicates, run_seed = _bound_setup(cfg, seed)
    seed = holdout_seed(run_seed) if seed is None else run_seed
    grid = bnd.tail_grid(n_values, points, process.sup_norm, holdout=True)
    fit = bnd.ConstantsFit(c1=c1, c2=c2)
    ok, rows = bnd.validate_constants(process, fit, grid, replicates, seed,
                                      summary=summary)
    emit_report({
        "config": {**doc, "seed": seed, "c1": c1, "c2": c2},
        "summary": {"dominates_holdout": ok},
        "tables": {"holdout_grid": rows},
    }, out_dir)
    click.echo(f"dominates_holdout={ok}")


@main.group()
def couple():
    """Gaussian coupling construction."""


@couple.command("run")
@with_common
def couple_run(config_path, seed, out_dir):
    """Build one coupled path and emit per-level statistics plus the path CSV."""
    doc, cfg = _read_config(config_path, "couple")
    process = process_from_config(cfg["process"])
    n = int(cfg["n"])
    seed = int(cfg["seed"] if seed is None else seed)
    c_fit = float(cfg["c_fit"])
    schedule = cpl.make_schedule(n.bit_length() - 2, float(cfg["p"]), cfg["variant"],
                                 epsilon=float(cfg["epsilon"]), c_fit=c_fit)
    sigma2 = coef.sigma2_exact(process)
    path = cpl.build_coupling(process, schedule, sigma2, n, seed)
    errs = cpl.coupling_errors(path)
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"k": k, "s": float(path.s[k]), "t": float(path.t[k])}
            for k in range(n + 1)]
    write_table_csv(rows, os.path.join(out_dir, "coupled_path.csv"))
    per_level = {str(row["level"]): {k: row[k] for k in ("m", "d", "d1", "d2")}
                 for row in errs.per_level}
    emit_report({
        "config": {**doc, "seed": seed},
        "summary": {"sup_error": errs.sup_error, "sigma2": sigma2,
                    "first_step_error": errs.first_step_error,
                    "per_level": per_level,
                    "lambdas": [float(v) for v in schedule.lambdas],
                    "c_fit_note": "thresholds use the fitted stand-in c_fit",
                    "c_fit": c_fit},
        "tables": {"levels": list(errs.per_level)},
    }, out_dir)
    click.echo(f"sup_error={errs.sup_error!r}")


def _emit_rate(report, config, out_dir, extra_summary=None):
    summary = report.to_dict()
    if extra_summary:
        summary.update(extra_summary)
    emit_report({
        "config": config.to_dict(),
        "summary": summary,
        "tables": {"rates": list(report.rows)},
    }, out_dir)


@main.command()
@with_common
def rates(config_path, seed, out_dir):
    """Coupling-error growth exponent against the 1/p target."""
    cfg = _experiment_config(_load_config(config_path), seed)
    if isinstance(cfg.process, LsvProcess):
        report = run_lsv_experiment(cfg)
        summary = {"gamma": report.gamma, "target": report.target,
                   "direct_exponent": report.direct_exponent,
                   "direct_se": report.direct_se}
        tables = {"direct": list(report.direct_rows)}
        if report.surrogate is not None:
            summary["surrogate"] = report.surrogate.to_dict()
            tables["surrogate"] = list(report.surrogate.rows)
        emit_report({"config": cfg.to_dict(), "summary": summary,
                     "tables": tables}, out_dir)
        click.echo(f"target={report.target} direct={report.direct_exponent!r}")
        return
    report = run_rate_experiment(cfg)
    _emit_rate(report, cfg, out_dir)
    click.echo(f"exponent={report.exponent!r} target={report.target} "
               f"passed={report.passed}")


@main.command()
@with_common
def wasserstein(config_path, seed, out_dir):
    """Quadratic-cost decay of the rescaled partial-sum line."""
    cfg = _experiment_config(_load_config(config_path), seed)
    report = donsker_wasserstein(cfg)
    _emit_rate(report.estimate, cfg, out_dir,
               extra_summary={"reference_exponent": report.reference_exponent})
    click.echo(f"exponent={report.estimate.exponent!r} "
               f"passed={report.estimate.passed}")


@main.command()
@with_common
def degenerate(config_path, seed, out_dir):
    """Moment-bound and flat-growth checks for telescoping observables."""
    cfg = _experiment_config(_load_config(config_path), seed)
    report = run_degenerate_suite(cfg)
    emit_report({
        "config": cfg.to_dict(),
        "summary": {"passed": report.passed, "sigma2": report.sigma2,
                    "moment_bound": report.moment["bound"],
                    "sup_growth": report.sup_growth.to_dict(),
                    "zero_beyond": report.zero_beyond,
                    "series_decays": report.series["decays"]},
        "tables": {"moments": report.moment["rows"],
                   "series": report.series["rows"]},
    }, out_dir)
    click.echo(f"passed={report.passed}")


@main.command("export-path")
@with_common
@click.option("--n", type=int, default=1024)
def export_path(config_path, seed, out_dir, n):
    """Sample one path of a configured process and export it as CSV."""
    _, cfg = _read_config(config_path, "export-path")
    process = process_from_config(cfg["process"])
    seed = int(cfg["seed"] if seed is None else seed)
    path = sample_path(process, n, seed)
    os.makedirs(out_dir, exist_ok=True)
    from .processes import path_to_csv
    path_to_csv(path, os.path.join(out_dir, "path.csv"))
    click.echo(f"wrote path.csv with n={n}")


if __name__ == "__main__":
    main()
