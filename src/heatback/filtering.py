"""Capped-gain spectral filter for reconstructing the initial state from
full-domain data at a later time.

The inverse propagator gain exp(lambda_i * int p) is capped at a level alpha
chosen from the noise level and a-priori norms of the initial state through
the scalar functions A(x) = e^x / (1 + 2x) and B(x) = sqrt(x) e^x.  The
resulting reconstruction carries a computable error bound of the form
sqrt((1 + zeta) p2 tau) * |u0|_H1 / sqrt(log term); when the noise is too
large relative to the slowest mode's decay the zero field already satisfies
the bound and the solver gates to it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectral import DiffusionProfile, EigenBasis, SpectralField, project

_EXP_CAP = 700.0  # exp() overflow guard for capped gains


def eval_A(x: float) -> float:
    """A(x) = e^x / (1 + 2x) on x >= 0."""
    if x < 0.0:
        raise ValueError(f"A is defined on x >= 0, got {x}")
    return math.exp(x) / (1.0 + 2.0 * x)


def eval_B(x: float) -> float:
    """B(x) = sqrt(x) e^x on x > 0, a strictly increasing bijection onto (0, inf)."""
    if x <= 0.0:
        raise ValueError(f"B is defined on x > 0, got {x}")
    return math.sqrt(x) * math.exp(x)


def invert_B(y: float) -> float:
    """Solve sqrt(x) e^x = y for finite y > 0.

    Bisection bracket refined by Newton on g(x) = 0.5 log x + x - log y, whose
    derivative 1/(2x) + 1 exceeds 1 everywhere.  The bracket ends about 2**-60
    wide, too wide for roots x below about 1e-19 (y below about 4e-10), from
    where that Newton step overshoots below zero or stalls.  Such y are solved
    by Newton on u = log x instead: h(u) = 0.5 u + e^u - log y is convex and
    increasing, and h(2 log y) = y**2 > 0, so the iterates from u = 2 log y
    descend monotonically to the root.  A root below the least normal float
    (y below about 1.5e-154) raises ValueError.
    """
    if not (math.isfinite(y) and y > 0.0):
        raise ValueError(f"invert_B needs finite y > 0, got {y}")
    target = math.log(y)

    def g(x):
        return 0.5 * math.log(x) + x - target

    if y >= 1e-10:  # below, Newton on x fails for every y
        lo = 0.5 if y >= 3.0 else min((y / 3.0) ** 2, 0.5)  # (y/3)**2 overflows for huge y
        while g(lo) > 0.0:
            lo *= 0.25
        hi = max(1.0, target + 1.0)
        while g(hi) < 0.0:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-4 * hi:
                break
        x = 0.5 * (lo + hi)
        for _ in range(8):
            x -= g(x) / (0.5 / x + 1.0)
            if x <= 0.0:
                break
        if x > 0.0 and abs(g(x)) <= 1e-12:
            return x
    u = 2.0 * target
    for _ in range(8):
        u -= (0.5 * u + math.exp(u) - target) / (0.5 + math.exp(u))
    x = math.exp(u)
    if x < sys.float_info.min:
        raise ValueError(f"invert_B({y!r}) underflows: its root exp({u!r}) is not a normal float")
    return x


def invert_A_increasing(beta: float, lower: float = 0.0) -> float:
    """Inverse of A on its increasing branch x >= max(lower, 1/2).

    A decreases on [0, 1/2] and increases beyond, so the branch floor keeps
    the inverse single valued; beta below A(floor) is rejected.
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

    def g(x):
        return x - math.log1p(2.0 * x) - target

    lo = floor
    hi = max(2.0 * floor, 1.0)
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FilterSelection:
    """Regularization choice and the certified error bound that comes with it.

    lambda_bar and theta are diagnostics of the worst-mode analysis behind
    the cap: the critical eigenvalue scale and the convex weight attached to
    it (always in (0, 1); asserted, not assumed).
    """

    gate_zero: bool
    alpha: float | None
    zeta: float
    bound: float
    log_argument: float
    gate_threshold: float
    effective_delta: float
    lambda_bar: float | None = None
    theta: float | None = None


def default_zeta(lambda1: float, p2: float, horizon: float) -> float:
    """Canonical zeta = 1 / (2 lambda_1 p2 tau); valid whenever delta < |u0|_L2."""
    return 1.0 / (2.0 * lambda1 * p2 * horizon)


def select_alpha(
    horizon: float,
    profile: DiffusionProfile,
    lambda1: float,
    h01_prior: float,
    effective_delta: float,
    l2_prior: float,
    zeta: float | None = None,
) -> FilterSelection:
    """Pick the gain cap and evaluate the a-priori error bound.

    Gate branch: when effective_delta >= l2_prior * exp(-lambda_1 p2 tau) the
    zero reconstruction already meets the bound and no cap is selected.
    Otherwise alpha = A(B^{-1}(sqrt(p2 tau) h01 / delta)), and the bound is
    sqrt((1+zeta) p2 tau) h01 / sqrt(log(sqrt(2 zeta lambda_1 p2 tau) l2 / delta)).
    """
    if effective_delta <= 0.0 or h01_prior <= 0.0 or l2_prior <= 0.0:
        raise ValueError("noise level and priors must be positive")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    p2tau = profile.p2 * horizon
    z = default_zeta(lambda1, profile.p2, horizon) if zeta is None else float(zeta)
    if z <= 0.0:
        raise ValueError("zeta must be positive")

    log_arg = math.sqrt(2.0 * z * lambda1 * p2tau) * l2_prior / effective_delta
    if log_arg <= 1.0:
        raise ConfigError(
            f"bound log-argument {log_arg} <= 1: zeta={z} too small for noise level "
            f"{effective_delta} (needs zeta > delta^2 / (2 lambda1 p2 tau |u0|^2))"
        )
    bound = math.sqrt((1.0 + z) * p2tau) * h01_prior / math.sqrt(math.log(log_arg))

    threshold = l2_prior * math.exp(-lambda1 * p2tau)
    if effective_delta >= threshold:
        return FilterSelection(True, None, z, bound, log_arg, threshold, effective_delta)

    x_bar = invert_B(math.sqrt(p2tau) * h01_prior / effective_delta)
    alpha = eval_A(x_bar)
    # cap validity: the critical-point equation needs alpha above A(lambda_1 p2 tau)
    if alpha <= eval_A(lambda1 * p2tau) * (1.0 - 1e-12):
        raise ConfigError(
            f"selected cap alpha={alpha} not above A(lambda1 p2 tau)={eval_A(lambda1 * p2tau)}"
        )
    theta = 1.0 / (1.0 + 2.0 * x_bar)  # = alpha e^{-x_bar}
    if not 0.0 < theta < 1.0:
        # theta rounds to 1 only for x_bar below roundoff; with delta < l2 <= h01 / sqrt(lambda1)
        # that needs lambda1 p2 tau below roundoff, i.e. a vanishing horizon
        raise ConfigError(
            f"T too small: convex weight theta={theta} outside (0, 1) at horizon {horizon} "
            f"(lambda1 p2 tau = {lambda1 * p2tau:.6g})"
        )
    return FilterSelection(
        False, alpha, z, bound, log_arg, threshold, effective_delta,
        lambda_bar=x_bar / p2tau, theta=theta,
    )


def apply_filter(
    observed: SpectralField, alpha: float, tau: float, profile: DiffusionProfile
) -> SpectralField:
    """Invert the propagator mode by mode with gains capped at alpha.

    Coefficient i maps to min(exp(lambda_i int_0^tau p), alpha) * a_i.  The
    product is formed in log space so uncapped gains cannot overflow against
    underflowed coefficients.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    w = profile.integral(0.0, tau)
    log_gain = np.minimum(observed.basis.eigenvalues * w, math.log(alpha))
    c = observed.coeffs
    out = np.zeros_like(c)
    nz = c != 0.0
    with np.errstate(over="ignore"):
        out[nz] = np.sign(c[nz]) * np.exp(np.minimum(log_gain[nz] + np.log(np.abs(c[nz])), _EXP_CAP))
    return SpectralField(observed.basis, out)


def invert_field(
    observed: SpectralField,
    tau: float,
    profile: DiffusionProfile,
    delta: float,
    l2_prior: float,
    h01_prior: float,
) -> tuple[SpectralField, FilterSelection]:
    """Filter inversion of coefficient data at time tau; returns (g, selection)."""
    sel = select_alpha(tau, profile, observed.basis.lambda1, h01_prior, delta, l2_prior)
    if sel.gate_zero:
        return SpectralField.zero(observed.basis), sel
    return apply_filter(observed, sel.alpha, tau, profile), sel


def global_backward(
    xs: np.ndarray,
    values: np.ndarray,
    basis: EigenBasis,
    tau: float,
    profile: DiffusionProfile,
    delta: float,
    l2_prior: float,
    h01_prior: float,
) -> tuple[SpectralField, FilterSelection]:
    """Reconstruct the initial state from noisy full-domain samples at time tau."""
    observed = project(xs, values, basis)
    return invert_field(observed, tau, profile, delta, l2_prior, h01_prior)


def truncation_baseline(
    observed: SpectralField, cutoff: int, tau: float, profile: DiffusionProfile
) -> SpectralField:
    """Exact inversion on modes <= cutoff, zero beyond: the classical comparison method."""
    if not 1 <= cutoff <= observed.basis.size:
        raise ValueError(f"cutoff must lie in [1, {observed.basis.size}], got {cutoff}")
    w = profile.integral(0.0, tau)
    out = np.zeros(observed.basis.size)
    expo = np.minimum(observed.basis.eigenvalues[:cutoff] * w, _EXP_CAP)
    out[:cutoff] = observed.coeffs[:cutoff] * np.exp(expo)
    return SpectralField(observed.basis, out)


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


def split_error_terms(
    u0: SpectralField,
    g: SpectralField,
    g_exact: SpectralField,
    alpha: float,
    delta: float,
    tau: float,
    profile: DiffusionProfile,
    h01_prior: float,
) -> dict:
    """Two-term error split: noise amplification and truncation tail.

    |g - g_exact| <= alpha * delta and |u0 - g_exact| <= worst_tail_factor *
    sqrt(p2 tau) * h01; both sides are returned for assertion.
    """
    p2tau = profile.p2 * tau
    return {
        "noise_term": (g - g_exact).l2(),
        "noise_cap": alpha * delta,
        "tail_term": (u0 - g_exact).l2(),
        "tail_cap": worst_tail_factor(alpha, u0.basis.lambda1, p2tau)
        * math.sqrt(p2tau)
        * h01_prior,
    }
