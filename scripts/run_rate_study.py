#!/usr/bin/env python3
"""Coupling-error rate study on the two-state flip chain.

Builds couplings across a dyadic ladder of path lengths, fits the L2 error
growth exponent, and writes CSV/JSON results.  Expect roughly n^{1/4} up to a
log factor; the full ladder to 2^17 takes a minute or two.
"""

import argparse

from weakdep import ExperimentConfig, emit_report, flip_chain, run_rate_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/rates")
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--flip", type=float, default=0.25)
    ap.add_argument("--min-log2", type=int, default=10)
    ap.add_argument("--max-log2", type=int, default=17)
    ap.add_argument("--replicates", type=int, default=64)
    args = ap.parse_args()

    cfg = ExperimentConfig(
        process=flip_chain(args.flip),
        n_list=[2 ** k for k in range(args.min_log2, args.max_log2 + 1)],
        replicates=args.replicates, seed=args.seed, p=4.0)
    report = run_rate_experiment(cfg)
    paths = emit_report({"config": cfg.to_dict(), "summary": report.to_dict(),
                         "tables": {"rates": list(report.rows)}}, args.out)
    print(f"exponent {report.exponent:.4f} +- {report.exponent_se:.4f} "
          f"(target {report.target}, passed={report.passed})")
    print("wrote:", *paths, sep="\n  ")


if __name__ == "__main__":
    main()
