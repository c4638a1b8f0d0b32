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
    global_backward,
    invert_B,
    select_alpha,
    truncation_baseline,
)
from .observability import (
    ObservabilityConstants,
    chain_full_domain,
    constants_convex,
    fit_empirical_constants,
)
from .control import (
    ControlSetup,
    ControlSolution,
    control_mode_bank,
    solve_control,
    verify_control_bounds,
)
from .pipeline import (
    PipelineConfig,
    ReconstructionReport,
    assemble_fbar,
    control_setup,
    local_reconstruct,
    select_epsilon,
    transfer_claim,
)
from .harness import ExperimentConfig, inject_noise, load_config, run_sweep
