"""One-shot impulse control steering the state near zero at time 2T.

For initial data phi0 the quadratic functional

    J(z) = (k^2/2) |z(T)|_{L2(omega)}^2 + (eps^2/2) |z|^2 - <phi0, z(2T)>

over initial fields z is minimized in the truncated basis.  With the
diagonal propagators D_t = diag(exp(-lambda_j int_0^t p)) and the subinterval
Gram matrix G the normal equations read

    (k^2 D_T G D_T + eps^2 I) c = D_2T phi0.

The impulse added at time T is h = -k^2 * (evolution of c to T), supported on
omega with coefficient vector b = -k^2 G D_T c, and the duality residual
psi = D_2T phi0 + D_T b equals eps^2 c identically; psi is the quantity the
local reconstruction consumes, and it coincides with the physical terminal
state phi(2T) whenever p is constant.  Which (eps, k) to solve for is the
pipeline's choice (pipeline.control_setup); this module takes them as given.

Only the first m = ControlSetup.active modes, those with k D_T_j >= 2^-60 eps
(D_T decreases in j, so they lead), enter the m x m Cholesky block M_a; below
it the system is taken as eps^2 c = D_2T phi0.  As G is a Gram matrix with
G_jj <= 1, |G_ij| <= sqrt(G_ii G_jj) and k D_T_i sqrt(G_ii) <= sqrt(M_ii), so
each coupling of a dropped mode j (k D_T_j < 2^-60 eps <= 2^-60 sqrt(M_jj))
obeys |M_ij| = k^2 D_T_i D_T_j |G_ij| <= 2^-60 sqrt(M_ii M_jj).  That is below
the backward error gamma_{n+1} sqrt(M_ii M_jj), gamma_{n+1} > 2^-52, that
Cholesky already allows in each entry (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sec. 10.1): the same system to below rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import ConfigError
from .spectral import DiffusionProfile, EigenBasis, SpectralField

_REL_SLACK = 1e-12  # float slack on certified inequalities


@dataclass(frozen=True)
class ControlSetup:
    """Fixed data of one control problem on the window (0, 2T).  The
    propagators, the active count and M_a do not depend on phi0: they are
    computed once, on construction, and stored read-only.  M_a is checked
    finite here, once, so that solve_control factors it without a check; a
    k or eps whose square overflows raises a ConfigError naming both."""

    basis: EigenBasis
    T: float
    profile: DiffusionProfile
    gram: np.ndarray
    eps: float
    k: float
    decay_to_T: np.ndarray = field(init=False)
    decay_to_2T: np.ndarray = field(init=False)
    decay_T_to_2T: np.ndarray = field(init=False)
    active: int = field(init=False)
    system: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (self.T > 0.0 and self.eps > 0.0 and self.k > 0.0):
            raise ValueError("T, eps and k must be positive")
        if 2.0 * self.T > self.profile.horizon * (1.0 + 1e-12):
            raise ValueError("profile horizon shorter than the control window (0, 2T)")
        basis, p, T = self.basis, self.profile, self.T
        dT = basis.decay(p, 0.0, T)
        # active block M_a = k^2 D_T G D_T + eps^2 I of the normal-equation matrix;
        # numpy squares give inf, not OverflowError, and the check below names it
        # (an infinite k times a zero D_T is nan, which is not active)
        with np.errstate(over="ignore", invalid="ignore"):
            m = int(np.count_nonzero(self.k * dT >= 2.0**-60 * self.eps))
            k2, eps2 = np.float64(self.k) ** 2, np.float64(self.eps) ** 2
            M = k2 * (dT[:m, None] * self.gram[:m, :m] * dT[None, :m])
            M[np.diag_indices_from(M)] += eps2
        if not (np.isfinite(k2) and np.isfinite(eps2) and np.isfinite(M).all()):
            raise ConfigError(
                f"control system not finite: k^2 or eps^2 overflows (eps={self.eps}, k={self.k})"
            )
        for name, arr in (
            ("decay_to_T", dT),
            ("decay_to_2T", basis.decay(p, 0.0, 2.0 * T)),
            ("decay_T_to_2T", basis.decay(p, T, 2.0 * T)),
            ("system", M),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "active", m)


@dataclass(frozen=True)
class ControlSolution:
    """Minimizer c, impulse coefficients b, duality residual psi, diagnostics."""

    c: np.ndarray
    b: np.ndarray
    psi: np.ndarray
    h_norm_omega: float
    identity_residual: float


def solve_control(setup: ControlSetup, phi0: np.ndarray) -> ControlSolution:
    """Solve the normal equations for phi0 and package the control quantities.

    The Cholesky solve runs on the active block; below it the system reads
    eps^2 c = D_2T phi0.  It is refined until the residual is small against
    eps^2 |c| (the scale of psi) or stops improving; the optimality identity
    psi = eps^2 c then holds as tightly as the conditioning
    k^2 |D_T G D_T| / eps^2 allows, and the achieved residual is recorded on
    the solution.

    Finiteness is checked once per solve rather than by every LAPACK call:
    phi0 on entry (a ValueError naming phi0), M_a when the setup was built,
    and c on exit (a ConfigError naming eps and k).
    """
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (setup.basis.size,):
        raise ValueError(f"phi0 must have {setup.basis.size} coefficients")
    if not np.isfinite(phi0).all():
        raise ValueError("phi0 must be finite")
    if not np.any(phi0):
        raise ValueError("phi0 must be nonzero")
    M, m = setup.system, setup.active
    rhs = setup.decay_to_2T * phi0
    try:
        factor = cho_factor(M, check_finite=False)
    except LinAlgError as exc:
        raise ConfigError(
            f"control system numerically singular (eps={setup.eps}, k={setup.k}): {exc}"
        ) from exc
    eps2 = setup.eps**2
    c = rhs / eps2
    c[:m] = cho_solve(factor, rhs[:m], check_finite=False)
    best = math.inf
    for _ in range(30):
        resid = rhs[:m] - M @ c[:m]
        res_norm = float(np.linalg.norm(resid))
        if res_norm <= 0.25e-12 * eps2 * float(np.linalg.norm(c)) or res_norm >= 0.5 * best:
            break
        best = res_norm
        c[:m] += cho_solve(factor, resid, check_finite=False)
    if not np.isfinite(c).all():
        raise ConfigError(f"control solution not finite (eps={setup.eps}, k={setup.k})")

    dT = setup.decay_to_T
    dTc = dT[:m] * c[:m]
    b = -(setup.k**2) * (setup.gram[:, :m] @ dTc)
    psi = rhs + dT * b
    h_norm = (setup.k**2) * math.sqrt(max(float(dTc @ setup.gram[:m, :m] @ dTc), 0.0))
    identity_residual = float(np.linalg.norm(psi - eps2 * c))
    return ControlSolution(c, b, psi, h_norm, identity_residual)


def physical_terminal(setup: ControlSetup, phi0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the controlled trajectory at 2T: evolve, kick, evolve."""
    phi0 = np.asarray(phi0, dtype=float)
    b = np.asarray(b, dtype=float)
    return setup.decay_T_to_2T * (setup.decay_to_T * phi0 + b)


def functional_J(setup: ControlSetup, z: np.ndarray, phi0: np.ndarray) -> float:
    z = np.asarray(z, dtype=float)
    dTz = setup.decay_to_T * z
    return (
        0.5 * setup.k**2 * float(dTz @ setup.gram @ dTz)
        + 0.5 * setup.eps**2 * float(z @ z)
        - float(np.asarray(phi0, dtype=float) @ (setup.decay_to_2T * z))
    )


def gradient_J(setup: ControlSetup, z: np.ndarray, phi0: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    dT = setup.decay_to_T
    return (
        setup.k**2 * dT * (setup.gram @ (dT * z))
        + setup.eps**2 * z
        - setup.decay_to_2T * np.asarray(phi0, dtype=float)
    )


def h_values(setup: ControlSetup, sol: ControlSolution, xs: np.ndarray) -> np.ndarray:
    """Impulse profile h(x) = -k^2 sum_j (D_T c)_j e_j(x), valid on omega; the
    sum runs over the active modes, as b's does, so only those
    m = setup.active columns of the sine matrix are built."""
    m = setup.active
    dTc = setup.decay_to_T[:m] * sol.c[:m]
    return -(setup.k**2) * (setup.basis.eigenfunction_matrix(xs, m) @ dTc)


@dataclass(frozen=True)
class ControlCertificate:
    """Per-instance inequality checks attached to one control solve."""

    s: float
    s_inner: float
    identity_rel: float
    cauchy_ok: bool
    surrogate_ok: bool
    h_ok: bool
    psi_ok: bool
    h_norm: float
    psi_norm: float


def verify_control_bounds(
    setup: ControlSetup, sol: ControlSolution, phi0: np.ndarray
) -> ControlCertificate:
    """Check the energy split and the observability surrogate for one solve.

    s = |h|^2/k^2 + |psi|^2/eps^2 equals <phi0, D_2T c> algebraically; the
    surrogate |D_2T c|^2 <= k^2 (D_T c)' G (D_T c) + eps^2 |c|^2 is geometry
    dependent, and when it holds it forces |h| <= k |phi0| and
    |psi| <= eps |phi0|.  Failures are reported, not raised.
    """
    phi0 = np.asarray(phi0, dtype=float)
    eps2 = setup.eps**2
    psi_norm = float(np.linalg.norm(sol.psi))
    s = sol.h_norm_omega**2 / setup.k**2 + psi_norm**2 / eps2
    d2Tc = setup.decay_to_2T * sol.c
    s_inner = float(phi0 @ d2Tc)
    identity_rel = abs(s - s_inner) / max(abs(s), abs(s_inner), 1e-300)

    phi0_norm = float(np.linalg.norm(phi0))
    d2Tc_norm = float(np.linalg.norm(d2Tc))
    cauchy_ok = s <= phi0_norm * d2Tc_norm * (1.0 + _REL_SLACK) + 1e-300

    m = setup.active
    dTc = setup.decay_to_T[:m] * sol.c[:m]
    surrogate_rhs = (
        setup.k**2 * float(dTc @ setup.gram[:m, :m] @ dTc) + eps2 * float(sol.c @ sol.c)
    )
    surrogate_ok = d2Tc_norm**2 <= surrogate_rhs * (1.0 + _REL_SLACK) + 1e-300

    h_ok = sol.h_norm_omega <= setup.k * phi0_norm * (1.0 + _REL_SLACK)
    psi_ok = psi_norm <= setup.eps * phi0_norm * (1.0 + _REL_SLACK)
    return ControlCertificate(
        s, s_inner, identity_rel, cauchy_ok, surrogate_ok, h_ok, psi_ok,
        sol.h_norm_omega, psi_norm,
    )


def control_mode_bank(setup: ControlSetup, n_bank: int) -> list[ControlSolution]:
    """Controls for the first n_bank unit-mode initial states."""
    if not 1 <= n_bank <= setup.basis.size:
        raise ValueError(f"bank size must lie in [1, {setup.basis.size}], got {n_bank}")
    bank = []
    for i in range(1, n_bank + 1):
        phi0 = SpectralField.unit_mode(setup.basis, i).coeffs
        bank.append(solve_control(setup, phi0))
    return bank


def dual_pairing(
    setup: ControlSetup, phi0: np.ndarray, b: np.ndarray, c: np.ndarray, t: float
) -> float:
    """<phi(t), Phi(2T - t)> for the controlled phi and the adjoint field from c.

    Constant in t on each half window when p is constant; the asymmetry for
    time-dependent p is why psi, not phi(2T), carries the certified identity.
    """
    two_T = 2.0 * setup.T
    if not 0.0 <= t <= two_T:
        raise ValueError("t must lie in [0, 2T]")
    basis, profile = setup.basis, setup.profile
    if t <= setup.T:
        phi_t = basis.decay(profile, 0.0, t) * np.asarray(phi0, dtype=float)
    else:
        kick = setup.decay_to_T * np.asarray(phi0, dtype=float) + np.asarray(b, dtype=float)
        phi_t = basis.decay(profile, setup.T, t) * kick
    adj = basis.decay(profile, 0.0, two_T - t) * np.asarray(c, dtype=float)
    return float(phi_t @ adj)
