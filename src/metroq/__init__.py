"""metroq: simulate and verify sequential, classical-parallel and
entangled-parallel phase-estimation strategies at desk scale."""

import os

# One OpenBLAS thread unless the caller chose a count.  metroq's largest BLAS
# call is a (2, 2) x (2, 2048) product and its matmul stacks are at most 64x64,
# all below OpenBLAS's threading threshold, so the worker pool OpenBLAS starts
# when numpy loads never gets work; yet it cost ~40 % of a cold metroq
# process's CPU time on a 2-core host (median 0.25 -> 0.15 s for `verify
# --n-max 12` and `noon --n 12`).  This runs before the submodules import
# numpy; once numpy is loaded it has no effect.
if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                         "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .channels import (
    KrausChannel,
    amplitude_damping,
    bit_phase_flip,
    dephasing,
    is_diag_or_antidiag,
    is_unital,
)
from .equivalence import (
    BranchRecord,
    ConversionCertificate,
    convert_general_n,
    counterexample,
    effective_sequential_channel,
    generalized_strategy_certificate,
    noise_conversion_residual,
    noisy_conversion_valid_beyond_n2,
    unaveraged_counterexample_fisher,
    useful_entanglement_check,
)
from .fock import (
    n0_equivalence_certificate,
    noon_equivalence_certificate,
    noon_fringe_zeros,
)
from .information import (
    cfi_binary,
    collective_generator,
    crb,
    frequency_bound_dephasing,
    operating_phase,
    optimal_frequency_bound,
    phase_bound_dephasing,
    qfi_pure,
)
from .linalg import (
    ATOL_PREDICATE,
    fidelity_up_to_phase,
    kron,
    partial_trace,
    trace_distance,
    vec,
    vec_identity_residual,
)
from .simulate import (
    ScalingReport,
    ScalingRow,
    estimate_phase,
    evolve_parallel_entangled,
    evolve_sequential,
    run_trials,
    scaling_experiment,
)
from .states import (
    Generator,
    StrategyKind,
    StrategySpec,
    classical_corr_state,
    ghz_like,
    ghz_state,
    u_phi,
)

__version__ = "0.1.0"
