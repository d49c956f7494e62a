"""Simulation and verification lab for deviation bounds and strong Gaussian
approximation of weakly dependent bounded sequences."""

from .processes import (FiniteChain, LsvObservable, LsvProcess, SamplePath,
                        build_finite_chain, flip_chain, make_coboundary,
                        normalize_process, sample_path, symmetrize)
from .coefficients import (SeriesSummary, TailModel, ThetaTable,
                           alpha_inf4_exact, degenerate_moment_bound,
                           series_summary, sigma2_exact, symmetrization_check,
                           theta_exact, theta_table_from_chain)
from .bounds import (ConstantsFit, FukNagaevParams, TailEstimate,
                     degenerate_moment_check, empirical_tail, fit_constants,
                     fuk_nagaev_rhs, series_convergence_check, tail_grid,
                     validate_constants)
from .coupling import (BlockDist, CoupledPath, CouplingSchedule,
                       block_sum_dist, build_coupling, coupling_errors,
                       make_schedule, skorohod_split, w2_conditional)
from .experiments import (ExperimentConfig, RateEstimate, donsker_wasserstein,
                          run_degenerate_suite, run_lsv_experiment,
                          run_rate_experiment)
from .reporting import emit_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
