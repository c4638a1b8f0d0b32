"""Backward reconstruction for the 1D heat equation with time-dependent diffusivity.

Recovers the initial state from noisy late-time observations, either on the
whole interval (capped-gain spectral filter with an a-priori error bound) or
on a subinterval (impulse-control transfer to a later horizon followed by the
same filter).  Explicit observability constants, an independent
finite-difference oracle, and a sweep harness certify every bound at runtime.
"""

from .errors import BoundViolation, ConfigError
from .spectral import (
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    SpectralField,
    Subdomain,
    evolve,
    gram_subdomain,
    project,
    synthesize_initial,
    uniform_grid,
)
from .fd import FDGrid, fd_evolve, oracle_gap
from .filtering import (
    FilterSelection,
    apply_filter,
    eval_A,
    eval_B,
    global_backward,
    invert_A_increasing,
    invert_B,
    invert_field,
    select_alpha,
    truncation_baseline,
)
from .observability import (
    ObservabilityConstants,
    appendix_stability_check,
    chain_full_domain,
    constants_convex,
    derive_c_chain,
    direct_backward_check,
    fit_empirical_constants,
    holder_check,
)
from .control import (
    ControlSetup,
    ControlSolution,
    assemble_control_system,
    control_mode_bank,
    physical_terminal,
    solve_control,
    verify_control_bounds,
)
from .pipeline import (
    PipelineConfig,
    ReconstructionReport,
    assemble_fbar,
    control_setup,
    effective_delta_3T,
    local_reconstruct,
    select_epsilon,
)
from .harness import ExperimentConfig, inject_noise, load_config, run_sweep, save_config
