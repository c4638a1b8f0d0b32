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
from dataclasses import dataclass, field

import numpy as np

from .filtering import newton_down
from .spectral import (
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    synthesize_initial,
)

LN_OVERFLOW = 700.0  # exp beyond this is reported as inf, log value kept

_LN32 = math.log(1.5)


def _exp_or_inf(ln_x: float) -> float:
    return math.inf if ln_x > LN_OVERFLOW else math.exp(ln_x)


@dataclass(frozen=True)
class ObservabilityConstants:
    """Observation-estimate constants and the chain derived from them.

    mode is "convex" for the explicit geometric construction, "full" for the
    trivial whole-domain case (K = 1, mu = 1/2), or "empirical" for fitted
    diagnostics.  On construction the Young-inequality step gives
    c1 = max(mu K^{2/mu} (1-mu)^{(1-mu)/mu}, 2K/mu), c2 = c4 = (1-mu)/mu and
    c3 = max(sqrt(c1), c1/2), evaluated in log space: K, c1 and c3 may be inf
    as floats, while ln_K, ln_c1 and ln_c3 stay finite.
    """

    mode: str
    C0: float
    C1: float
    xi: float | None
    ell: float | None
    S_ell: float | None
    K: float = field(init=False)
    ln_K: float
    mu: float
    c1: float = field(init=False)
    c2: float = field(init=False)
    c3: float = field(init=False)
    c4: float = field(init=False)
    ln_c1: float = field(init=False)
    ln_c3: float = field(init=False)

    def __post_init__(self):
        mu, ln_K = self.mu, self.ln_K
        if not 0.0 < mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {mu}")
        ln_c1 = max(
            math.log(mu) + (2.0 / mu) * ln_K + ((1.0 - mu) / mu) * math.log1p(-mu),
            math.log(2.0) + ln_K - math.log(mu),
        )
        ln_c3 = max(0.5 * ln_c1, ln_c1 - math.log(2.0))
        c2 = (1.0 - mu) / mu
        for name, value in (("K", _exp_or_inf(ln_K)), ("c1", _exp_or_inf(ln_c1)), ("c2", c2),
                            ("c3", _exp_or_inf(ln_c3)), ("c4", c2), ("ln_c1", ln_c1), ("ln_c3", ln_c3)):
            object.__setattr__(self, name, value)


def constants_convex(
    domain: DomainSpec,
    r: float,
    profile: DiffusionProfile,
    xi: float = 0.5,
) -> ObservabilityConstants:
    """Explicit constants for observation on the ball of radius r around x0.

    Needs 0 < r < R and, for nonconstant diffusivity, the smallness condition
    R^2 < 2 p1^2 / |p'|_inf (equivalently C0 < 1, which the ell exponent
    1/(1 - C0) requires).  xi is the free exponent of the constant-diffusivity
    branch (C0 = 0); the other branch does not read it and records None.
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
    try:
        eC1 = math.exp(C1)
    except OverflowError:
        raise ValueError(
            f"e^C1 overflows at C1 = 3 |p'|_inf / p1 = {C1}; lower the diffusivity's "
            "variation (p_slope, p_amp, p_freq) against p_base"
        ) from None
    if C0 == 0.0:
        ell = (2.0 ** (2.0 + xi) * R * R * eC1 / (xi * _LN32 * r * r)) ** (1.0 / (1.0 - xi)) - 1.0
        S_ell = eC1 * math.log1p(ell) / _LN32
    else:
        xi = None
        shrink = 1.0 - (2.0 / 3.0) ** C0
        if shrink == 0.0:
            raise ValueError(
                f"1 - (2/3)^C0 rounds to 0 at C0 = {C0}: the diffusivity's derivative bound "
                f"|p'|_inf = {dp} is positive but too small for the paper chain; make p "
                "constant or raise its variation (p_slope, p_amp, p_freq)"
            )
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
    return ObservabilityConstants("convex", C0, C1, xi, ell, S_ell, ln_K, mu)


def chain_full_domain() -> ObservabilityConstants:
    """Whole-domain observation: K = 1, mu = 1/2.

    With omega = (0, L) the observation estimate reduces to energy decay
    |v(T)| <= |v(0)|, which any K >= 1 satisfies; the resulting chain is
    (c1, c2, c3, c4) = (4, 1, 2, 1).
    """
    return ObservabilityConstants("full", 0.0, 0.0, None, None, None, 0.0, 0.5)


def fit_empirical_constants(
    basis: EigenBasis,
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
    # the norms square the coefficients, and squares below ~1.5e-154 underflow:
    # a field whose largest |coefficient| is below 2^-400 is scaled by an exact
    # 2^s, and s ln 2 goes into its z, which every log norm below subtracts
    peak = np.max(np.abs(VT), axis=1)
    low = (peak > 0.0) & (peak < 2.0**-400)
    shift = np.zeros(len(VT), dtype=int)
    shift[low] = -np.frexp(peak[low])[1]
    VT[low] = np.ldexp(VT[low], shift[low, None])
    # every field's |v(T)|_omega^2 = v' G v from one matrix product
    l2_omega = np.sqrt(np.maximum(np.einsum("ij,ij->i", VT @ gram, VT), 0.0))
    l2_full = np.linalg.norm(VT, axis=1)
    keep = (l2_omega > 0.0) & (l2_full > 0.0)
    if not np.any(keep):
        raise ValueError(
            f"empirical constants: every sampled field decays to zero by T = {T}, "
            "so there is nothing to fit; lower T or the diffusivity (p_base, p_slope, p_amp)"
        )
    z = np.log(np.linalg.norm(V0[keep], axis=1)) + shift[keep] * math.log(2.0)
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
    return ObservabilityConstants("empirical", 0.0, 0.0, None, None, None, v + math.log(T), mu)

