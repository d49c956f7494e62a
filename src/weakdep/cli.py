"""Command line front end.

Subcommands: ``coeffs``, ``bound fit``, ``bound check``, ``couple run``,
``rates``, ``wasserstein``, ``degenerate``, ``export-path``.  Each takes
``--config <file>`` (JSON, see README for the schema) and ``--out``; all but
``coeffs``, which has no randomness, also take ``--seed``.  Outputs land in
the chosen directory as CSV / JSON / .dat files.

Every command reads its config through :func:`_read_config`, which checks
the keys against the command's table in ``CONFIG_DEFAULTS``, and its
``summary.json`` echoes the settings as run (:func:`_emit`).
"""

from __future__ import annotations

import dataclasses
import json
import os

import click

from . import bounds as bnd
from . import coefficients as coef
from . import coupling as cpl
from .experiments import ExperimentConfig, donsker_wasserstein, run_degenerate_suite, \
    run_lsv_experiment, run_rate_experiment
from .processes import FiniteChain, LsvProcess, process_from_config, process_to_config, \
    refuse_unknown_keys, sample_path
from .reporting import emit_report, write_table_csv
from .rng import holdout_seed


def _experiment_keys(*names) -> dict:
    """The named ExperimentConfig fields with their defaults."""
    fields = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    return {name: fields[name] for name in names}


_RATE_KEYS = ("n_list", "replicates", "seed", "variant", "p", "epsilon", "c_fit",
              "tolerance")

# Per config table: the keys allowed besides "process", with their defaults.
# A key whose default is dataclasses.MISSING (n_list) is required.  `rates`
# reads "rates-lsv" when its process is an lsv map.
CONFIG_DEFAULTS = {
    "coeffs": {},
    "bound": {"grid_n": [256, 512, 1024], "points_per_n": 4, "replicates": 20000,
              "seed": 0, "theta_horizon": 16},
    "couple": {"n": 4096, **_experiment_keys("seed", "p", "variant", "epsilon", "c_fit")},
    "export-path": {"seed": 0},
    "rates": _experiment_keys(*_RATE_KEYS),
    "rates-lsv": _experiment_keys(*(k for k in _RATE_KEYS if k != "p"), "surrogate"),
    "wasserstein": _experiment_keys(*_RATE_KEYS),
    "degenerate": _experiment_keys("n_list", "replicates", "seed", "alpha", "series_p",
                                   "series_epsilon", "moment_q"),
}


def _read_config(path: str, command: str, seed: int | None = None) -> dict:
    """The settings a command runs on: the one config reader.

    Loads the JSON file, builds its process documents with
    process_from_config, refuses keys outside the command's table in
    CONFIG_DEFAULTS and fills in the table's defaults; `seed` (the --seed
    option), when given, replaces the config seed.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if "process" not in doc:
        raise ValueError('config needs a "process" key')
    process = process_from_config(doc["process"])
    if command == "rates" and isinstance(process, LsvProcess):
        command = "rates-lsv"
    defaults = CONFIG_DEFAULTS[command]
    refuse_unknown_keys(doc, ("process", *defaults))
    settings = {**defaults, **doc, "process": process}
    for key, value in settings.items():
        if value is dataclasses.MISSING:
            raise ValueError(f'config needs an "{key}" key')
    if settings.get("surrogate") is not None:
        settings["surrogate"] = process_from_config(settings["surrogate"])
    if seed is not None:
        settings["seed"] = seed
    return settings


def _emit(out_dir: str, settings: dict, summary: dict, tables: dict, **options) -> None:
    """Write the report of a run.  Its config echo is the one rule for every
    command: each setting, processes as built, plus the command's own options;
    a setting that is None (no surrogate) is left out."""
    config = {key: process_to_config(value) if key in ("process", "surrogate") else value
              for key, value in {**settings, **options}.items() if value is not None}
    emit_report({"config": config, "summary": summary, "tables": tables}, out_dir)


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
    settings = _read_config(config_path, "coeffs")
    process = settings["process"]
    if not isinstance(process, FiniteChain):
        raise click.ClickException("coeffs requires a finite_chain process")
    table = coef.certified_theta_table(process, p, q, horizon)
    sigma2 = coef.sigma2_exact(process)
    summary = coef.series_summary(table, sigma2=sigma2)
    os.makedirs(out_dir, exist_ok=True)
    coef.theta_table_to_csv(table, os.path.join(out_dir, "theta_table.csv"))
    rows = [{"k": k, "value": float(v)} for k, v in enumerate(table.values)]
    _emit(out_dir, settings,
          {"sigma2": sigma2, "theta1": summary.theta1, "theta2": summary.theta2,
           "tail_rate": table.tail.rate,
           "truncation_bound": coef.theta_truncation_bound(process, p, 12)},
          {"theta": rows}, p=p, q=q, horizon=horizon)
    click.echo(f"sigma2={sigma2!r} theta1={summary.theta1!r} theta2={summary.theta2!r}")


@main.group()
def bound():
    """Tail-bound fitting and dominance checks."""


def _bound_setup(settings, holdout: bool):
    """(process, chain summary, tail grid) of a bound config's settings."""
    process = settings["process"]
    summary = coef.summarize_chain(process, horizon=int(settings["theta_horizon"]))
    grid = bnd.tail_grid(settings["grid_n"], int(settings["points_per_n"]),
                         process.sup_norm, holdout=holdout)
    return process, summary, grid


@bound.command("fit")
@with_common
def bound_fit(config_path, seed, out_dir):
    """Fit the two bound constants on the training grid."""
    settings = _read_config(config_path, "bound", seed)
    process, summary, grid = _bound_setup(settings, holdout=False)
    fit = bnd.fit_constants(process, grid, int(settings["replicates"]),
                            int(settings["seed"]), summary=summary)
    _emit(out_dir, settings,
          {"c1": fit.c1, "c2": fit.c2, "sigma2": summary.sigma2,
           "binding": fit.binding, "search_box": list(fit.search_box)},
          {"training_grid": fit.rows})
    click.echo(f"c1={fit.c1!r} c2={fit.c2!r}")


@bound.command("check")
@with_common
@click.option("--c1", type=float, required=True)
@click.option("--c2", type=float, required=True)
def bound_check(config_path, seed, out_dir, c1, c2):
    """Check dominance of given constants on the holdout grid.  Without --seed
    it runs on rng.holdout_seed of the config seed, never the training paths."""
    settings = _read_config(config_path, "bound", seed)
    process, summary, grid = _bound_setup(settings, holdout=True)
    run_seed = holdout_seed(int(settings["seed"])) if seed is None else seed
    fit = bnd.ConstantsFit(c1=c1, c2=c2)
    ok, rows = bnd.validate_constants(process, fit, grid, int(settings["replicates"]),
                                      run_seed, summary=summary)
    _emit(out_dir, settings, {"dominates_holdout": ok}, {"holdout_grid": rows},
          seed=run_seed, c1=c1, c2=c2)
    click.echo(f"dominates_holdout={ok}")


@main.group()
def couple():
    """Gaussian coupling construction."""


@couple.command("run")
@with_common
def couple_run(config_path, seed, out_dir):
    """Build one coupled path and emit per-level statistics plus the path CSV."""
    settings = _read_config(config_path, "couple", seed)
    process = settings["process"]
    n = int(settings["n"])
    c_fit = float(settings["c_fit"])
    schedule = cpl.make_schedule(n.bit_length() - 2, float(settings["p"]),
                                 settings["variant"],
                                 epsilon=float(settings["epsilon"]), c_fit=c_fit)
    sigma2 = coef.sigma2_exact(process)
    path = cpl.build_coupling(process, schedule, sigma2, n, int(settings["seed"]))
    errs = cpl.coupling_errors(path)
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"k": k, "s": float(path.s[k]), "t": float(path.t[k])}
            for k in range(n + 1)]
    write_table_csv(rows, os.path.join(out_dir, "coupled_path.csv"))
    per_level = {str(row["level"]): {k: row[k] for k in ("m", "d", "d1", "d2")}
                 for row in errs.per_level}
    _emit(out_dir, settings,
          {"sup_error": errs.sup_error, "sigma2": sigma2,
           "first_step_error": errs.first_step_error, "per_level": per_level,
           "lambdas": [float(v) for v in schedule.lambdas],
           "c_fit_note": "thresholds use the fitted stand-in c_fit", "c_fit": c_fit},
          {"levels": list(errs.per_level)})
    click.echo(f"sup_error={errs.sup_error!r}")


@main.command()
@with_common
def rates(config_path, seed, out_dir):
    """Coupling-error growth exponent against the 1/p target."""
    settings = _read_config(config_path, "rates", seed)
    cfg = ExperimentConfig(**settings)
    if isinstance(cfg.process, LsvProcess):
        report = run_lsv_experiment(cfg)
        summary = {"gamma": report.gamma, "target": report.target,
                   "direct_exponent": report.direct_exponent,
                   "direct_se": report.direct_se}
        tables = {"direct": list(report.direct_rows)}
        if report.surrogate is not None:
            summary["surrogate"] = report.surrogate.to_dict()
            tables["surrogate"] = list(report.surrogate.rows)
        _emit(out_dir, settings, summary, tables)
        click.echo(f"target={report.target} direct={report.direct_exponent!r}")
        return
    report = run_rate_experiment(cfg)
    _emit(out_dir, settings, report.to_dict(), {"rates": list(report.rows)})
    click.echo(f"exponent={report.exponent!r} target={report.target} "
               f"passed={report.passed}")


@main.command()
@with_common
def wasserstein(config_path, seed, out_dir):
    """Quadratic-cost decay of the rescaled partial-sum line."""
    settings = _read_config(config_path, "wasserstein", seed)
    report = donsker_wasserstein(ExperimentConfig(**settings))
    estimate = report.estimate
    _emit(out_dir, settings,
          {**estimate.to_dict(), "reference_exponent": report.reference_exponent},
          {"rates": list(estimate.rows)})
    click.echo(f"exponent={estimate.exponent!r} passed={estimate.passed}")


@main.command()
@with_common
def degenerate(config_path, seed, out_dir):
    """Moment-bound and flat-growth checks for telescoping observables."""
    settings = _read_config(config_path, "degenerate", seed)
    report = run_degenerate_suite(ExperimentConfig(**settings))
    _emit(out_dir, settings,
          {"passed": report.passed, "sigma2": report.sigma2,
           "moment_bound": report.moment["bound"],
           "sup_growth": report.sup_growth.to_dict(),
           "zero_beyond": report.zero_beyond,
           "series_decays": report.series["decays"]},
          {"moments": report.moment["rows"], "series": report.series["rows"]})
    click.echo(f"passed={report.passed}")


@main.command("export-path")
@with_common
@click.option("--n", type=int, default=1024)
def export_path(config_path, seed, out_dir, n):
    """Sample one path of a configured process and export it as CSV."""
    settings = _read_config(config_path, "export-path", seed)
    path = sample_path(settings["process"], n, int(settings["seed"]))
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"index": k, "value": float(path.values[k - 1]),
             "partial_sum": float(path.partial_sums[k])} for k in range(1, n + 1)]
    write_table_csv(rows, os.path.join(out_dir, "path.csv"))
    click.echo(f"wrote path.csv with n={n}")


if __name__ == "__main__":
    main()
