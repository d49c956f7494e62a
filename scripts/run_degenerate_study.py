#!/usr/bin/env python3
"""Degenerate-regime checks for a telescoping (coboundary) observable.

Verifies the vanishing variance rate, compares Monte Carlo moments against
the lag-weighted analytic bound, and confirms flat growth of the running
maximum.
"""

import argparse

from weakdep import (ExperimentConfig, emit_report, flip_chain, make_coboundary,
                     run_degenerate_suite)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/degenerate")
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--flip", type=float, default=0.25)
    ap.add_argument("--replicates", type=int, default=3000)
    args = ap.parse_args()

    process = make_coboundary(flip_chain(args.flip), [1.0, -1.0])
    cfg = ExperimentConfig(process=process, n_list=[100, 1000, 10000],
                           replicates=args.replicates, seed=args.seed,
                           alpha=0.5, series_epsilon=1.0, moment_q=2.0)
    report = run_degenerate_suite(cfg)
    emit_report({
        "config": cfg.to_dict(),
        "summary": {"passed": report.passed, "sigma2": report.sigma2,
                    "moment_bound": report.moment["bound"],
                    "sup_growth": report.sup_growth.to_dict(),
                    "zero_beyond": report.zero_beyond},
        "tables": {"moments": report.moment["rows"],
                   "series": report.series["rows"]},
    }, args.out)
    print(f"passed={report.passed} sigma2={report.sigma2:.2e} "
          f"sup-growth exponent {report.sup_growth.exponent:.4f}")


if __name__ == "__main__":
    main()
