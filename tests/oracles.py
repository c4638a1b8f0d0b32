"""Independent checks of the reconstruction route, read only by the tests.

The closed-form Gram matrix of the continuous L2(omega) inner product is the
reference for the quadrature Gram matrix and for the tests of continuous
norms.  The control's functional J, its gradient, the dual pairing, the physical
terminal state, a solve-then-refine reference solve and a per-mode surrogate
assembly check the control solve and the bank; the Hoelder,
appendix-stability and direct backward estimates check the observability
constants; B and the inverse of A on its increasing branch check the
filter's scalar functions, and the worst tail factor checks its error split.
None of them is part of the route that the commands run.  Import as
``from oracles import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from heatback import (
    ControlSetup,
    ControlSolution,
    DiffusionProfile,
    EigenBasis,
    ObservabilityConstants,
    SpectralField,
    Subdomain,
    eval_A,
    evolve,
)
from heatback.control import h_values
from heatback.filtering import newton_down
from heatback.observability import _exp_or_inf
from heatback.spectral import quad_norm


def gram_closed_form(sub: Subdomain, basis: EigenBasis) -> np.ndarray:
    """Gram matrix G_ij = int_a^b e_i e_j dx via the product-to-sum antiderivative.

    Off the diagonal G_ij = f(i - j) - f(i + j) with f(m) = [sin(m pi x / L)]_a^b
    / (m pi): a Toeplitz minus a Hankel matrix, both read as sliding windows
    of one table of f over the 3 N integers m in [1 - N, 2 N].
    """
    sub.validate_inside(basis.domain)
    L = basis.domain.length
    n = basis.size
    ms = np.arange(1 - n, 2 * n + 1, dtype=float)
    with np.errstate(invalid="ignore"):  # f(0) = 0/0 sits on the diagonal, replaced below
        f = (np.sin(ms * math.pi * sub.b / L) - np.sin(ms * math.pi * sub.a / L)) / (ms * math.pi)
    # f[t] holds f(t + 1 - n); for modes i + 1 and j + 1 the difference is i - j,
    # so row i of the Toeplitz part is f[i:i + n] reversed, and the sum is
    # i + j + 2, so row i of the Hankel part is f[i + n + 1:i + 2 n + 1]
    windows = np.lib.stride_tricks.sliding_window_view(f, n)
    off = windows[:n, ::-1] - windows[n + 1:]
    np.fill_diagonal(off, (sub.b - sub.a) / L - f[n + 1::2])
    return 0.5 * (off + off.T)


def l2_sub(field: SpectralField, gram: np.ndarray) -> float:
    """|field|_{L2(omega)} from the subinterval Gram matrix."""
    return math.sqrt(max(float(field.coeffs @ gram @ field.coeffs), 0.0))


def physical_terminal(setup: ControlSetup, phi0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the controlled trajectory at 2T: evolve, kick, evolve."""
    phi0 = np.asarray(phi0, dtype=float)
    b = np.asarray(b, dtype=float)
    decay_T_to_2T = setup.basis.decay(setup.profile, setup.T, 2.0 * setup.T)
    return decay_T_to_2T * (setup.decay_to_T * phi0 + b)


def reference_solve_control(
    setup: ControlSetup, phi0: np.ndarray
) -> tuple[ControlSolution, float, float]:
    """The control solve in its solve-then-refine form: one Cholesky solve of
    the active block, then refinement steps while the residual halves, with
    scipy's finiteness check in every cho_factor and cho_solve call.
    solve_control adds its solves to c = 0 instead (so its zeros are +0.0)
    and must match it entry by entry on every bank mode, and on a phi0 whose
    sum of squares overflows or underflows.  Returns the solution, |psi| and
    |h|_omega = k^2 sqrt((D_T c)' G (D_T c)), the norms the package's
    certificate reads."""
    M, m = setup.system, setup.active
    rhs = setup.decay_to_2T * phi0
    factor = cho_factor(M)
    eps2 = setup.eps**2
    c = rhs / eps2
    c[:m] = cho_solve(factor, rhs[:m])
    best = math.inf
    for _ in range(30):
        resid = rhs[:m] - M @ c[:m]
        res_norm = float(np.linalg.norm(resid))
        if res_norm <= 0.25e-12 * eps2 * float(np.linalg.norm(c)) or res_norm >= 0.5 * best:
            break
        best = res_norm
        c[:m] += cho_solve(factor, resid)
    dT = setup.decay_to_T
    dTc = dT[:m] * c[:m]
    b = -(setup.k**2) * (setup.gram[:, :m] @ dTc)
    psi = rhs + dT * b
    h_norm = (setup.k**2) * math.sqrt(max(float(dTc @ setup.gram[:m, :m] @ dTc), 0.0))
    sol = ControlSolution(c, b, psi, float(np.linalg.norm(psi - eps2 * c)))
    return sol, float(np.linalg.norm(psi)), h_norm


def reference_assemble_fbar(
    bank: list[ControlSolution], setup: ControlSetup, xs: np.ndarray, values: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """assemble_fbar's (coeffs, h_quad_norms) by its per-mode expressions
    before it formed weights * values once: a three-factor np.sum for each
    coefficient and quad_norm for each quadrature norm."""
    decay23 = setup.basis.decay(setup.profile, 2.0 * setup.T, 3.0 * setup.T)
    coeffs = np.zeros(setup.basis.size)
    h_qnorms = np.zeros(len(bank))
    for idx, sol in enumerate(bank):
        h = h_values(setup, sol, xs)
        coeffs[idx] = -decay23[idx] * np.sum(weights * h * values)
        h_qnorms[idx] = quad_norm(weights, h)
    return coeffs, h_qnorms


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


@dataclass(frozen=True)
class CheckReport:
    lhs: float
    rhs: float
    ln_lhs: float
    ln_rhs: float
    holds: bool
    skipped: bool = False


def _log_compare(ln_lhs: float, ln_rhs: float) -> CheckReport:
    return CheckReport(
        lhs=_exp_or_inf(ln_lhs),
        rhs=_exp_or_inf(ln_rhs),
        ln_lhs=ln_lhs,
        ln_rhs=ln_rhs,
        holds=ln_lhs <= ln_rhs,
    )


def holder_check(
    u0: SpectralField,
    T: float,
    constants: ObservabilityConstants,
    gram: np.ndarray,
    profile: DiffusionProfile,
) -> CheckReport:
    """Evaluate |v(T)|_Omega <= K e^{K/T} |v(T)|_omega^mu |v(0)|^{1-mu} in log space."""
    if u0.l2() == 0.0:
        raise ValueError("holder_check needs a nonzero field")
    vT = evolve(u0, 0.0, T, profile)
    l2_omega = l2_sub(vT, gram)
    if l2_omega == 0.0 or vT.l2() == 0.0:
        return CheckReport(0.0, 0.0, -math.inf, -math.inf, True, skipped=True)
    ln_lhs = math.log(vT.l2())
    ln_rhs = (
        constants.ln_K
        + constants.K / T
        + constants.mu * math.log(l2_omega)
        + (1.0 - constants.mu) * math.log(u0.l2())
    )
    return _log_compare(ln_lhs, ln_rhs)


def appendix_stability_check(
    u0: SpectralField,
    T: float,
    constants: ObservabilityConstants,
    gram: np.ndarray,
    profile: DiffusionProfile,
) -> CheckReport:
    """Logarithmic stability of the initial norm from the subdomain snapshot:

    |u0|_L2 <= C sqrt(1 + T + 1/T) |u0|_H1 / sqrt(log(|u0|_L2 / |u(T)|_omega))
    with C = sqrt(max(p2/mu, K/(mu lambda_1))).  Skipped when the log
    argument is not > 1.
    """
    l2 = u0.l2()
    uT_omega = l2_sub(evolve(u0, 0.0, T, profile), gram)
    if not uT_omega < l2 or uT_omega <= 0.0:
        return CheckReport(l2, math.nan, math.nan, math.nan, True, skipped=True)
    C_sq = max(profile.p2 / constants.mu, constants.K / (constants.mu * u0.basis.lambda1))
    rhs = (
        math.sqrt(C_sq)
        * math.sqrt(1.0 + T + 1.0 / T)
        * u0.h01()
        / math.sqrt(math.log(l2 / uT_omega))
    )
    return CheckReport(l2, rhs, math.log(l2), math.log(rhs), holds=l2 <= rhs)


def direct_backward_check(
    u0: SpectralField, T: float, profile: DiffusionProfile
) -> CheckReport:
    """|u0|_L2 <= exp(p2 T |u0|_H1^2 / |u0|_L2^2) |u(T)|_L2, exact for every
    spectral field (log-convexity of the decay); compared in log space."""
    l2 = u0.l2()
    if l2 == 0.0:
        raise ValueError("needs a nonzero field")
    uT = evolve(u0, 0.0, T, profile)
    ratio = (u0.h01() / l2) ** 2
    ln_rhs = profile.p2 * T * ratio + math.log(uT.l2())
    return _log_compare(math.log(l2), ln_rhs)


def eval_B(x: float) -> float:
    """B(x) = sqrt(x) e^x on x > 0, a strictly increasing bijection onto (0, inf)."""
    if x <= 0.0:
        raise ValueError(f"B is defined on x > 0, got {x}")
    return math.sqrt(x) * math.exp(x)


def invert_A_increasing(beta: float, lower: float = 0.0) -> float:
    """Inverse of A on its increasing branch x >= max(lower, 1/2).

    A decreases on [0, 1/2] and increases beyond, so the branch floor keeps
    the inverse single valued; beta below A(floor) is rejected.  Newton on
    g(x) = x - log(1 + 2x) - log beta, convex and increasing on the branch,
    starts from max(floor, 2 log beta + 3), where g > 0 for beta >= A(1/2).
    """
    if lower < 0.0:
        raise ValueError("lower must be nonnegative")
    floor = max(lower, 0.5)
    beta_floor = eval_A(floor)
    if beta < beta_floor * (1.0 - 1e-13):
        raise ValueError(
            f"beta={beta} below A({floor})={beta_floor}; no solution on the increasing branch"
        )
    if beta <= beta_floor:
        return floor
    target = math.log(beta)
    return newton_down(
        lambda x: x - math.log1p(2.0 * x) - target,
        lambda x: 1.0 - 2.0 / (1.0 + 2.0 * x),
        max(floor, 2.0 * target + 3.0),
    )


def worst_tail_factor(alpha: float, lambda1: float, p2tau: float) -> float:
    """sup over lambda >= lambda_1 of (1 - alpha e^{-lambda p2 tau})_+ / sqrt(lambda p2 tau).

    The supremum sits either at lambda_1 or at the unique critical point on
    the increasing branch of A; both are evaluated and the larger taken.
    """

    def F(x):  # x = lambda * p2 * tau
        return max(1.0 - alpha * math.exp(-x), 0.0) / math.sqrt(x)

    x1 = lambda1 * p2tau
    best = F(x1)
    if alpha > eval_A(max(x1, 0.5)):
        best = max(best, F(invert_A_increasing(alpha, x1)))
    return best
