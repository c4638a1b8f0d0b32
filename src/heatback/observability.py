"""Explicit constants for estimating a solution from a subinterval snapshot.

For the interval (convex) geometry the Hoelder-type observation estimate

    |v(T)|_{L2(0,L)} <= K e^{K/T} |v(T)|_{L2(omega)}^mu |v(0)|_{L2}^{1-mu}

holds with fully computable (K, mu) built from the diffusivity bounds and the
radii of the domain and the observed ball.  A Young-inequality step turns
(K, mu) into the chain (c1, c2, c3, c4) consumed by the controllability
solver.  The constants are worst case and can be astronomically large for
small observation windows, so all chain arithmetic is carried in log space
and an empirical fitting mode is provided as a desk-scale diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import newton_down
from .spectral import (
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    SpectralField,
    Subdomain,
    evolve,
    synthesize_initial,
)

LN_OVERFLOW = 700.0  # exp beyond this is reported as inf, log value kept

_LN32 = math.log(1.5)


@dataclass(frozen=True)
class ObservabilityConstants:
    """Observation-estimate constants and the derived chain.

    mode is "convex" for the explicit geometric construction, "full" for the
    trivial whole-domain case (K = 1, mu = 1/2), or "empirical" for fitted
    diagnostics.  c1 and c3 may be inf as floats; ln_c1 / ln_c3 stay finite.
    """

    mode: str
    C0: float
    C1: float
    xi: float | None
    ell: float | None
    S_ell: float | None
    K: float
    ln_K: float
    mu: float
    c1: float
    c2: float
    c3: float
    c4: float
    ln_c1: float
    ln_c3: float


def _exp_or_inf(ln_x: float) -> float:
    return math.inf if ln_x > LN_OVERFLOW else math.exp(ln_x)


def _chain_from_log(ln_K: float, mu: float):
    """(ln_c1, c2, ln_c3, c4) from the Young-inequality constants."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    ln_c1 = max(
        math.log(mu) + (2.0 / mu) * ln_K + ((1.0 - mu) / mu) * math.log1p(-mu),
        math.log(2.0) + ln_K - math.log(mu),
    )
    c2 = (1.0 - mu) / mu
    ln_c3 = max(0.5 * ln_c1, ln_c1 - math.log(2.0))
    return ln_c1, c2, ln_c3, c2


def derive_c_chain(K: float, mu: float):
    """Chain (c1, c2, c3, c4): c1 = max(mu K^{2/mu} (1-mu)^{(1-mu)/mu}, 2K/mu),
    c2 = (1-mu)/mu, c3 = max(sqrt(c1), c1/2), c4 = c2.  Evaluated in log space."""
    if K <= 0.0:
        raise ValueError(f"K must be positive, got {K}")
    ln_c1, c2, ln_c3, c4 = _chain_from_log(math.log(K), mu)
    return _exp_or_inf(ln_c1), c2, _exp_or_inf(ln_c3), c4


def _build(mode, C0, C1, xi, ell, S_ell, ln_K, mu) -> ObservabilityConstants:
    ln_c1, c2, ln_c3, c4 = _chain_from_log(ln_K, mu)
    return ObservabilityConstants(
        mode=mode,
        C0=C0,
        C1=C1,
        xi=xi,
        ell=ell,
        S_ell=S_ell,
        K=_exp_or_inf(ln_K),
        ln_K=ln_K,
        mu=mu,
        c1=_exp_or_inf(ln_c1),
        c2=c2,
        c3=_exp_or_inf(ln_c3),
        c4=c4,
        ln_c1=ln_c1,
        ln_c3=ln_c3,
    )


def constants_convex(
    domain: DomainSpec,
    r: float,
    profile: DiffusionProfile,
    xi: float = 0.5,
) -> ObservabilityConstants:
    """Explicit constants for observation on the ball of radius r around x0.

    Needs 0 < r < R and, for nonconstant diffusivity, the smallness condition
    R^2 < 2 p1^2 / |p'|_inf (equivalently C0 < 1, which the ell exponent
    1/(1 - C0) requires).
    """
    R = domain.radius
    if not 0.0 < r < R:
        raise ValueError(f"need 0 < r < R={R}, got r={r}")
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    p1, dp = profile.p1, profile.dp_inf
    C0 = R * R * dp / (2.0 * p1 * p1)
    C1 = 3.0 * dp / p1  # (2 + n) |p'|_inf / p1 with n = 1
    if dp > 0.0 and C0 >= 1.0:
        raise ValueError(
            f"smallness condition violated: R^2 = {R * R} >= 2 p1^2/|p'|_inf = "
            f"{2.0 * p1 * p1 / dp}"
        )
    eC1 = math.exp(C1)
    if C0 == 0.0:
        ell = (2.0 ** (2.0 + xi) * R * R * eC1 / (xi * _LN32 * r * r)) ** (1.0 / (1.0 - xi)) - 1.0
        S_ell = eC1 * math.log1p(ell) / _LN32
    else:
        shrink = 1.0 - (2.0 / 3.0) ** C0
        ell = (4.0 * R * R * eC1 / (r * r * shrink)) ** (1.0 / (1.0 - C0)) - 1.0
        S_ell = eC1 * (1.0 + ell) ** C0 / shrink
    one_plus_S = 1.0 + S_ell
    n = 1.0
    ln_K_main = (
        (1.0 + C0 * one_plus_S) * math.log(4.0)
        + (n + 2.0 * C0 * one_plus_S) * math.log1p(ell)
        + 2.0 * C1 * one_plus_S
        + r * r * ell / (4.0 * p1)
    ) / (2.0 * one_plus_S)
    ln_K_alt = math.log(r * r * ell / (4.0 * p1 * one_plus_S))
    ln_K = max(ln_K_main, ln_K_alt)
    mu = 1.0 / (2.0 * one_plus_S)
    return _build("convex", C0, C1, xi, ell, S_ell, ln_K, mu)


def chain_full_domain() -> ObservabilityConstants:
    """Whole-domain observation: K = 1, mu = 1/2.

    With omega = (0, L) the observation estimate reduces to energy decay
    |v(T)| <= |v(0)|, which any K >= 1 satisfies; the resulting chain is
    (c1, c2, c3, c4) = (4, 1, 2, 1).
    """
    return _build("full", 0.0, 0.0, None, None, None, 0.0, 0.5)


def fit_empirical_constants(
    basis: EigenBasis,
    sub: Subdomain,
    gram: np.ndarray,
    T: float,
    profile: DiffusionProfile,
) -> ObservabilityConstants:
    """Fit (K, mu) so the observation estimate covers a seeded field sample.

    Regresses log|v(T)|_Omega - log|v(0)| on log|v(T)|_omega - log|v(0)| for
    60 evolved random fields (seeds 1000..1059), clips the slope to
    [0.05, 0.95], sets the intercept to the worst sample plus a safety margin
    ln 2, and solves K e^{K/T} = intercept.  Diagnostic only; the certified
    route is constants_convex.
    """
    decays = (1.5, 2.0, 3.0, 4.0)
    V0 = np.array([synthesize_initial(basis, decays[j % len(decays)], 1000 + j).coeffs
                   for j in range(60)])
    VT = V0 * basis.decay(profile, 0.0, T)
    # every field's |v(T)|_omega^2 = v' G v from one matrix product
    l2_omega = np.sqrt(np.maximum(np.einsum("ij,ij->i", VT @ gram, VT), 0.0))
    l2_full = np.linalg.norm(VT, axis=1)
    keep = (l2_omega > 0.0) & (l2_full > 0.0)
    if not np.any(keep):
        raise ValueError(
            f"empirical constants: every sampled field decays to zero by T = {T}, "
            "so there is nothing to fit"
        )
    z = np.log(np.linalg.norm(V0[keep], axis=1))
    xs = np.log(l2_omega[keep]) - z
    ys = np.log(l2_full[keep]) - z
    xc = xs - xs.mean()
    denom = float(xc @ xc)
    slope = float(xc @ (ys - ys.mean())) / denom if denom > 0.0 else 1.0
    mu = min(max(slope, 0.05), 0.95)
    intercept = float(np.max(ys - mu * xs)) + math.log(2.0)
    # ln K + K / T = intercept in v = ln(K / T): v + e^v = intercept - ln T, scale-free in T
    c = intercept - math.log(T)
    v = newton_down(lambda v: v + math.exp(v) - c, lambda v: 1.0 + math.exp(v),
                    c if c <= 1.0 else math.log(c))
    return _build("empirical", 0.0, 0.0, None, None, None, v + math.log(T), mu)


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
    l2_omega = vT.l2_sub(gram)
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
    uT_omega = evolve(u0, 0.0, T, profile).l2_sub(gram)
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
