"""omp-lab: sparse-recovery experimentation toolkit.

Greedy pursuit solver, disparity-based recovery-probability bounds, and
a deterministic Monte Carlo harness, with a CLI front end (``omp-lab``).
"""

from ._version import __version__
from .bounds import (
    BoundResult,
    baseline_bound,
    disparity_bound,
    disparity_interval_upper,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    PointResult,
    phi_for_case,
    run_experiment,
    run_trial,
    wilson_interval,
)
from .omp import (
    OmpResult,
    brute_force_best_support,
    check_exact_recovery,
    run_omp,
)
from .phi import (
    PhiFunction,
    PhiValidationReport,
    validate_phi_empirical,
    vector_disparity_ratio,
)
from .signals import (
    Purpose,
    SensingMatrix,
    SignalCase,
    SparseSignal,
    StreamKey,
    generate_signal,
    sample_sensing_matrix,
    sample_support,
)

__all__ = [
    "__version__",
    "BoundResult",
    "ExperimentConfig",
    "ExperimentResult",
    "OmpResult",
    "PhiFunction",
    "PhiValidationReport",
    "PointResult",
    "Purpose",
    "SensingMatrix",
    "SignalCase",
    "SparseSignal",
    "StreamKey",
    "baseline_bound",
    "brute_force_best_support",
    "check_exact_recovery",
    "disparity_bound",
    "disparity_interval_upper",
    "generate_signal",
    "phi_for_case",
    "run_experiment",
    "run_omp",
    "run_trial",
    "sample_sensing_matrix",
    "sample_support",
    "validate_phi_empirical",
    "vector_disparity_ratio",
    "wilson_interval",
]
