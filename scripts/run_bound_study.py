#!/usr/bin/env python3
"""Tail-bound constant fitting with holdout validation on the flip chain.

Fits the smallest constants dominating the empirical tail envelope on a
training grid, then checks dominance on a disjoint interior holdout grid.
"""

import argparse

from weakdep import emit_report, fit_constants, flip_chain, tail_grid, validate_constants
from weakdep.coefficients import summarize_chain


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/bound")
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--flip", type=float, default=0.25)
    ap.add_argument("--replicates", type=int, default=20000)
    ap.add_argument("--grid-n", type=int, nargs="+", default=[256, 512, 1024])
    ap.add_argument("--points-per-n", type=int, default=4)
    args = ap.parse_args()

    chain = flip_chain(args.flip)
    summ = summarize_chain(chain, horizon=16)
    train = tail_grid(args.grid_n, args.points_per_n, chain.sup_norm)
    hold = tail_grid(args.grid_n, args.points_per_n, chain.sup_norm, holdout=True)
    fit = fit_constants(chain, train, args.replicates, args.seed,
                        summary=summ, sigma2=summ.sigma2)
    ok, rows = validate_constants(chain, fit, hold, args.replicates,
                                  args.seed + 1, summary=summ, sigma2=summ.sigma2)
    emit_report({
        "config": {"flip": args.flip, "grid_n": args.grid_n,
                   "points_per_n": args.points_per_n,
                   "replicates": args.replicates, "seed": args.seed},
        "summary": {"c1": fit.c1, "c2": fit.c2, "sigma2": summ.sigma2,
                    "theta1": summ.theta1, "theta2": summ.theta2,
                    "dominates_holdout": ok, "binding": fit.binding},
        "tables": {"training_grid": fit.rows, "holdout_grid": rows},
    }, args.out)
    print(f"c1={fit.c1:.4g} c2={fit.c2:.4g} holdout dominated: {ok}")


if __name__ == "__main__":
    main()
