"""Initial-state reconstruction from a noisy subdomain snapshot at time T.

The route is indirect: a bank of impulse controls transfers the subdomain
data into surrogate full-domain data at horizon 3T, which the capped-gain
filter then inverts.  Stages:

  1. pick the control accuracy eps minimizing eps |u0| + c3 e^{c3/T} eps^{-c4} delta
     and the weight k from the chain (control_setup),
  2. solve the control problem for each of the first n_bank unit modes on the
     window (0, 2T),
  3. assemble surrogate coefficients fbar_i = -exp(-lambda_i int_{2T}^{3T} p)
     * int_omega h_i f, whose distance to the true state at 3T is bounded by
     a computable aggregate,
  4. run the capped-gain inversion at horizon 3T with that aggregate as the
     effective noise level.

Alongside the claimed aggregate the pipeline evaluates a certified
counterpart from the actually solved controls; claimed >= certified is the
consistency gate that validates the reported error bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .control import ControlSetup, ControlSolution, control_mode_bank, h_values
from .errors import ConfigError
from .filtering import FilterSelection, apply_filter, require_finite, select_alpha
from .observability import ObservabilityConstants
from .spectral import DiffusionProfile, EigenBasis, SpectralField

_LN_MAX = math.log(sys.float_info.max)


def select_epsilon(delta: float, T: float, c3: float, c4: float, l2_prior: float) -> float:
    """Minimizer (c4 c3 e^{c3/T} delta / l2)^{1/(1+c4)} of the transfer error,
    evaluated in log space."""
    if min(delta, T, c3, c4, l2_prior) <= 0.0:
        raise ValueError("all inputs must be positive")
    ln_eps = (math.log(c4) + math.log(c3) + c3 / T + math.log(delta) - math.log(l2_prior)) / (
        1.0 + c4
    )
    if not ln_eps <= _LN_MAX:
        raise ConfigError(
            f"T = {T} too small for the constants chain (c3 = {c3:.6g}, c4 = {c4:.6g}): "
            f"the control accuracy eps = exp({ln_eps:.6g}) overflows; on a proper subinterval "
            "the worst-case chain of constants_mode = paper always does, and "
            "constants_mode = empirical fits a far smaller one"
        )
    return math.exp(ln_eps)


def weight_from_chain(chain: ObservabilityConstants, T: float, eps: float) -> float:
    """Observability weight k = sqrt(c1 e^{c1/T}) / eps^{c2}."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    ln_k = 0.5 * (chain.ln_c1 + chain.c1 / T) - chain.c2 * math.log(eps)
    if ln_k > 350.0:
        raise ConfigError(
            f"T = {T} too small for the constants chain (c1 = {chain.c1:.6g}, c2 = "
            f"{chain.c2:.6g}): the control weight k = exp({ln_k:.3g}) is not representable; "
            "raise T or change constants_mode"
        )
    return math.exp(ln_k)


@dataclass(frozen=True)
class PipelineConfig:
    """Fixed data of one local reconstruction: geometry, chain, priors, and
    the samples' omega grid xs with their Simpson weights and the Gram matrix
    of that quadrature, which the control solve reads; harness.Run.pipeline
    builds all three from one grid."""

    basis: EigenBasis
    T: float
    profile: DiffusionProfile
    xs: np.ndarray
    weights: np.ndarray
    gram: np.ndarray
    n_bank: int
    chain: ObservabilityConstants
    l2_prior: float
    h01_prior: float

    def __post_init__(self):
        if not 1 <= self.n_bank <= self.basis.size:
            raise ValueError(f"bank size must lie in [1, {self.basis.size}]")
        if self.l2_prior <= 0.0 or self.h01_prior <= 0.0:
            raise ValueError("priors must be positive")


def control_setup(cfg: PipelineConfig, delta: float) -> ControlSetup:
    """The control problem the chain certifies at noise level delta: eps from
    select_epsilon and k from weight_from_chain."""
    chain = cfg.chain
    if not math.isfinite(chain.c1):  # c3 overflows only when c1 does
        raise ConfigError("constant chain overflows double range; use constants_mode = empirical")
    eps = select_epsilon(delta, cfg.T, chain.c3, chain.c4, cfg.l2_prior)
    return ControlSetup(
        cfg.basis, cfg.T, cfg.profile, cfg.gram, eps, weight_from_chain(chain, cfg.T, eps)
    )


@dataclass(frozen=True)
class ReconstructionReport:
    """Everything one local reconstruction run produced and certified."""

    g: SpectralField
    epsilon: float
    k: float
    selection: FilterSelection
    claimed_delta: float
    certified_delta: float

    @property
    def consistency_ok(self) -> bool:
        """Claimed aggregate dominates the certified one (validity of the bound)."""
        return self.certified_delta <= self.claimed_delta * (1.0 + 1e-9)


def assemble_fbar(
    bank: list[ControlSolution],
    setup: ControlSetup,
    xs: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
) -> tuple[SpectralField, np.ndarray]:
    """Surrogate data at 3T from the control bank and the observed samples.

    Returns (fbar, h_quad_norms); coefficient i of fbar is
    -exp(-lambda_i int_{2T}^{3T} p) * quadrature of h_i against the samples,
    zero beyond the bank, and |h_i|_quad is the samples' Simpson sum
    sqrt(sum_k w_k h_i(x_k)^2), the quadrature that meets the noise.
    """
    n_bank = len(bank)
    if n_bank == 0:
        raise ValueError("bank must not be empty")
    basis = setup.basis
    values = np.asarray(values, dtype=float)
    if values.shape != np.asarray(xs).shape:
        raise ValueError("xs and values must match")
    decay23 = basis.decay(setup.profile, 2.0 * setup.T, 3.0 * setup.T)
    coeffs = np.zeros(basis.size)
    h_qnorms = np.zeros(n_bank)
    wv = weights * values
    for idx, sol in enumerate(bank):
        h = h_values(setup, sol, xs)
        coeffs[idx] = -decay23[idx] * (h @ wv)
        h_qnorms[idx] = math.sqrt(h @ (weights * h))
    return SpectralField(basis, coeffs), h_qnorms


def certified_delta_3T(
    setup: ControlSetup,
    bank: list[ControlSolution],
    h_qnorms: np.ndarray,
    delta: float,
    l2_prior: float,
) -> float:
    """Bound on |u(3T) - fbar| from the actually solved controls.

    Mode i of the mismatch is exp(-lambda_i int_{2T}^{3T} p) times
    (<psi_i, u0> + quadrature of h_i against the noise), so |psi_i| l2 +
    |h_i|_quad delta bounds it, with |psi_i| from the bank and |h_i|_quad
    from assemble_fbar; unbanked modes contribute at most their
    uncontrolled decay from the initial prior.
    """
    basis, profile, T = setup.basis, setup.profile, setup.T
    n_bank = len(bank)
    psi_norms = np.array([sol.psi_norm for sol in bank])
    decay23 = basis.decay(profile, 2.0 * T, 3.0 * T)[:n_bank]
    banked = math.sqrt(
        float(np.sum((decay23 * (psi_norms * l2_prior + h_qnorms * delta)) ** 2))
    )
    decay03 = basis.decay(profile, 0.0, 3.0 * T)[n_bank:]
    tail = math.sqrt(float(np.sum(decay03**2))) * l2_prior
    return banked + tail


def transfer_claim(cfg: PipelineConfig, eps: float, delta: float) -> tuple[float, float]:
    """The transfer estimate |u(3T) - fbar| <= S_w (eps l2 + C eps^{-c4} delta),
    C = c3 e^{c3/T}, S_w = (sum_i exp(-2 lambda_i int_{2T}^{3T} p))^{1/2} over the basis.

    Returns the claimed aggregate at eps (C eps^{-c4} is the certified ceiling on
    every bank control norm) and the transfer-aware zeta = P^2 / (2 lambda_1 p2 T),
    with P = S_w (1 + 1/c4) (c4 C)^{1/(1+c4)} the prefactor minimized over eps.
    """
    basis, profile, T, c3, c4 = cfg.basis, cfg.profile, cfg.T, cfg.chain.c3, cfg.chain.c4
    total = np.sum(basis.decay(profile, 2.0 * T, 3.0 * T) ** 2)
    if total == 0.0:
        raise ConfigError(f"T = {T} too large: every decay factor from 2T to 3T underflows to 0")
    sw = math.sqrt(total)
    ln_c3 = math.log(c3)
    cost = math.exp(ln_c3 + c3 / T - c4 * math.log(eps))
    claimed = sw * (eps * cfg.l2_prior + cost * delta)
    k1 = 1.0 / (1.0 + c4)
    ln_P = math.log(sw) + math.log1p(1.0 / c4) + k1 * (math.log(c4) + ln_c3 + c3 / T)
    if 2.0 * ln_P > 700.0:
        raise ConfigError(
            f"T = {T} too small for the constants chain (c3 = {c3:.6g}, c4 = {c4:.6g}): "
            f"the transfer prefactor P overflows zeta = P^2 / (2 lambda1 p2 T), "
            f"2 ln P = {2.0 * ln_P:.6g} > 700"
        )
    return claimed, math.exp(2.0 * ln_P) / (2.0 * basis.lambda1 * profile.p2 * T)


def local_reconstruct(
    values: np.ndarray,
    delta: float,
    cfg: PipelineConfig,
) -> ReconstructionReport:
    """Full pipeline: eps selection, bank, surrogate at 3T, capped-gain inversion.

    values are the samples on cfg.xs; the surrogate's quadrature uses
    cfg.weights, and the control solve cfg.gram, so all three share one grid.
    """
    require_finite("local_reconstruct", values=values, delta=delta)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if not delta < cfg.l2_prior:
        raise ConfigError(f"needs delta < |u0|_L2 prior, got {delta} >= {cfg.l2_prior}")
    setup = control_setup(cfg, delta)
    bank = control_mode_bank(setup, cfg.n_bank)
    fbar, h_qnorms = assemble_fbar(bank, setup, cfg.xs, values, cfg.weights)

    claimed, zeta = transfer_claim(cfg, setup.eps, delta)
    certified = certified_delta_3T(setup, bank, h_qnorms, delta, cfg.l2_prior)

    horizon = 3.0 * cfg.T
    sel = select_alpha(
        horizon, cfg.profile, cfg.basis.lambda1, cfg.h01_prior, claimed, cfg.l2_prior, zeta
    )
    if sel.gate_zero:
        g = SpectralField.zero(cfg.basis)
    else:
        g = apply_filter(fbar, sel.alpha, horizon, cfg.profile)
    return ReconstructionReport(
        g=g,
        epsilon=setup.eps,
        k=setup.k,
        selection=sel,
        claimed_delta=claimed,
        certified_delta=certified,
    )
