"""metroq: simulate and verify sequential, classical-parallel and
entangled-parallel phase-estimation strategies at desk scale."""

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
