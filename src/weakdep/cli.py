"""Command line front end.

Subcommands: ``coeffs``, ``bound fit``, ``bound check``, ``couple run``,
``rates``, ``wasserstein``, ``degenerate``, ``export-path``.  Each takes
``--config <file>`` (JSON, see README for the schema) and ``--out``; all but
``coeffs``, which has no randomness, also take ``--seed``.  Outputs land in
the chosen directory as CSV / JSON / .dat files.

Every command reads its config through :func:`_read_config`, which checks
the keys against the command's table in ``CONFIG_DEFAULTS``, and its
``summary.json`` echoes the settings as run (:func:`_emit`).  A config or
input that the reader or a pipeline refuses (a ValueError or a
BudgetExceededError) ends the run with one line, ``Error: <message>``, and
exit status 1 (:class:`_Main`).
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
from .processes import FiniteChain, LsvProcess, check_type, process_from_config, \
    process_to_config, refuse_unknown_keys, sample_path
from .reporting import emit_report, write_table
from .rng import holdout_seed


def _experiment_keys(*names) -> dict:
    """The named ExperimentConfig fields with their defaults."""
    fields = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    return {name: fields[name] for name in names}


_RATE_KEYS = ("n_list", "replicates", "seed", "variant", "p", "epsilon", "tolerance")

# Per config table: the keys allowed besides "process", with their defaults.
# A key whose default is dataclasses.MISSING (n_list) is required.  `rates`
# reads "rates-lsv" when its process is an lsv map.
CONFIG_DEFAULTS = {
    "coeffs": {},
    "bound": {"grid_n": [256, 512, 1024], "points_per_n": 4, "replicates": 20000,
              "seed": 0, "theta_horizon": 16},
    "couple": {"n": 4096, **_experiment_keys("seed", "p", "variant", "epsilon"),
               "c_fit": 1.0},
    "export-path": {"seed": 0},
    "rates": _experiment_keys(*_RATE_KEYS),
    "rates-lsv": _experiment_keys(*(k for k in _RATE_KEYS if k != "p"), "surrogate"),
    "wasserstein": _experiment_keys(*_RATE_KEYS),
    "degenerate": {**_experiment_keys("n_list", "replicates", "seed", "alpha", "series_p",
                                      "series_epsilon", "moment_q"),
                   "replicates": bnd.MIN_TAIL_REPLICATES},
}


def _read_config(path: str, command: str, seed: int | None = None) -> dict:
    """The settings a command runs on: the one config reader.

    Loads the JSON file, builds its process documents with
    process_from_config, refuses keys outside the command's table in
    CONFIG_DEFAULTS and values whose JSON type is not their default's
    (:func:`processes.check_type`, which checks process documents too), and
    fills in the table's defaults; `seed` (the --seed option), when given,
    replaces the config seed.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if "process" not in doc:
        raise ValueError('config needs a "process" key')
    check_type("process", doc["process"], None)
    process = process_from_config(doc["process"])
    if command == "rates" and isinstance(process, LsvProcess):
        command = "rates-lsv"
    defaults = CONFIG_DEFAULTS[command]
    refuse_unknown_keys(doc, ("process", *defaults))
    for key, default in defaults.items():
        if key in doc:
            check_type(key, doc[key], default)
        elif default is dataclasses.MISSING:
            raise ValueError(f'config needs an "{key}" key')
    settings = {**defaults, **doc, "process": process}
    if settings.get("surrogate") is not None:
        settings["surrogate"] = process_from_config(settings["surrogate"])
    if seed is not None:
        settings["seed"] = seed
    return settings


def _require_chain(process, command: str) -> None:
    """Refuse, in one line and before anything runs, a process the command
    cannot run on: anything but a finite chain, and for `couple run` a chain
    whose certified sigma2 interval reaches 0 (the check `rates` makes)."""
    if not isinstance(process, FiniteChain):
        raise ValueError(f"{command} requires a finite_chain process")
    if command == "couple run" and coef.is_degenerate(process):
        raise ValueError("degenerate process: use the degenerate pipeline")


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


class _Main(click.Group):
    """The top-level group: a refused config or pipeline input (ValueError or
    BudgetExceededError) ends in one line, ``Error: <message>``, and exit
    status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, coef.BudgetExceededError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
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
    _require_chain(process, "coeffs")
    table = coef.certified_theta_table(process, p, q, horizon)
    sigma2 = coef.sigma2_exact(process)
    summary = coef.series_summary(table, sigma2=sigma2)
    rows = [{"k": k, "value": float(v)} for k, v in enumerate(table.values)]
    _emit(out_dir, settings,
          {"sigma2": sigma2, "theta1": summary.theta1, "theta2": summary.theta2,
           "tail_rate": table.rate,
           "truncation_bound": coef.theta_truncation_bound(process, p,
                                                           coef.TUPLE_HORIZON)},
          {"theta": rows}, p=p, q=q, horizon=horizon)
    click.echo(f"sigma2={sigma2!r} theta1={summary.theta1!r} theta2={summary.theta2!r}")


@main.group()
def bound():
    """Tail-bound fitting and dominance checks."""


def _bound_setup(settings, holdout: bool):
    """(process, chain summary, tail grid) of a bound config's settings."""
    process = settings["process"]
    _require_chain(process, "bound check" if holdout else "bound fit")
    grid = bnd.tail_grid(settings["grid_n"], settings["points_per_n"],
                         process.sup_norm, holdout=holdout)
    summary = coef.summarize_chain(process, horizon=settings["theta_horizon"])
    return process, summary, grid


@bound.command("fit")
@with_common
def bound_fit(config_path, seed, out_dir):
    """Fit the two bound constants on the training grid."""
    settings = _read_config(config_path, "bound", seed)
    process, summary, grid = _bound_setup(settings, holdout=False)
    fit = bnd.fit_constants(process, grid, settings["replicates"], settings["seed"],
                            summary=summary)
    _emit(out_dir, settings,
          {"c1": fit.c1, "c2": fit.c2, "sigma2": summary.sigma2,
           "binding": fit.binding, "search_box": list(bnd.SEARCH_BOX)},
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
    run_seed = holdout_seed(settings["seed"]) if seed is None else seed
    ok, rows = bnd.validate_constants(process, c1, c2, grid, settings["replicates"],
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
    n = settings["n"]
    if not cpl.is_dyadic(n):
        raise ValueError("n must be a power of two, >= 8")
    _require_chain(process, "couple run")
    c_fit = settings["c_fit"]
    schedule = cpl.make_schedule(cpl.top_level(n), settings["p"], settings["variant"],
                                 epsilon=settings["epsilon"], c_fit=c_fit)
    sigma2 = coef.sigma2_exact(process)
    path = cpl.build_coupling(process, schedule, sigma2, n, settings["seed"])
    errs = cpl.coupling_errors(path)
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"k": k, "s": float(path.s[k]), "t": float(path.t[k])}
            for k in range(n + 1)]
    write_table(rows, os.path.join(out_dir, "coupled_path.csv"))
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
    lsv = isinstance(settings["process"], LsvProcess)
    pipeline = run_lsv_experiment if lsv else run_rate_experiment
    summary, tables = pipeline(ExperimentConfig(**settings))
    _emit(out_dir, settings, summary, tables)
    click.echo(f"target={summary['target']} direct={summary['direct_exponent']!r}" if lsv
               else f"exponent={summary['exponent']!r} target={summary['target']} "
                    f"passed={summary['passed']}")


@main.command()
@with_common
def wasserstein(config_path, seed, out_dir):
    """Quadratic-cost decay of the rescaled partial-sum line."""
    settings = _read_config(config_path, "wasserstein", seed)
    summary, tables = donsker_wasserstein(ExperimentConfig(**settings))
    _emit(out_dir, settings, summary, tables)
    click.echo(f"exponent={summary['exponent']!r} passed={summary['passed']}")


@main.command()
@with_common
def degenerate(config_path, seed, out_dir):
    """Moment-bound and flat-growth checks for telescoping observables."""
    settings = _read_config(config_path, "degenerate", seed)
    summary, tables = run_degenerate_suite(ExperimentConfig(**settings))
    _emit(out_dir, settings, summary, tables)
    click.echo(f"passed={summary['passed']}")


@main.command("export-path")
@with_common
@click.option("--n", type=int, default=1024)
def export_path(config_path, seed, out_dir, n):
    """Sample one path of a configured process and export it as CSV."""
    settings = _read_config(config_path, "export-path", seed)
    path = sample_path(settings["process"], n, settings["seed"])
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"index": k, "value": float(path.values[k - 1]),
             "partial_sum": float(path.partial_sums[k])} for k in range(1, n + 1)]
    write_table(rows, os.path.join(out_dir, "path.csv"))
    click.echo(f"wrote path.csv with n={n}")


if __name__ == "__main__":
    main()
