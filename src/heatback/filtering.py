"""Capped-gain spectral filter for reconstructing the initial state from
full-domain data at a later time.

The inverse propagator gain exp(lambda_i * int p) is capped at the level
alpha = A(B^{-1}(sqrt(p2 tau) |u0|_H1 / delta)) that the noise level and the
a-priori norms of the initial state give, with A(x) = e^x / (1 + 2x) and
B(x) = sqrt(x) e^x; the route evaluates A and the inverse of B alone.  The
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


def newton_down(f, df, x: float) -> float:
    """Root of f by Newton's method from a point x where f(x) >= 0.

    f must be convex and increasing between its root and x; the iterates then
    decrease monotonically to the root.  Stops at the first step that does not
    decrease x, or after 100 steps.
    """
    for _ in range(100):
        step = x - f(x) / df(x)
        if not step < x:
            break
        x = step
    return x


def invert_B(y: float) -> float:
    """Solve sqrt(x) e^x = y for finite y > 0.

    Newton on u = log x: h(u) = 0.5 u + e^u - log y is convex and increasing,
    and positive at u = 2 log y when log y <= 1 (h = y**2) and at
    u = log log y otherwise (h = 0.5 log log y).  A root below the least
    normal float (y below about 1.5e-154) raises ValueError.
    """
    if not (math.isfinite(y) and y > 0.0):
        raise ValueError(f"invert_B needs finite y > 0, got {y}")
    target = math.log(y)
    u = newton_down(
        lambda u: 0.5 * u + math.exp(u) - target,
        lambda u: 0.5 + math.exp(u),
        2.0 * target if target <= 1.0 else math.log(target),
    )
    x = math.exp(u)
    if x < sys.float_info.min:
        raise ValueError(f"invert_B({y!r}) underflows: its root exp({u!r}) is not a normal float")
    return x


@dataclass(frozen=True)
class FilterSelection:
    """Regularization choice and the certified error bound that comes with it."""

    gate_zero: bool
    alpha: float | None
    zeta: float
    bound: float
    log_argument: float
    effective_delta: float


def default_zeta(lambda1: float, p2: float, horizon: float) -> float:
    """Canonical zeta = 1 / (2 lambda_1 p2 tau); valid whenever delta < |u0|_L2."""
    return 1.0 / (2.0 * lambda1 * p2 * horizon)


def require_finite(where: str, **named) -> None:
    """Raise a ValueError naming the first argument, or array entry, that is
    nan or infinite; a None argument is skipped."""
    for name, value in named.items():
        if value is None or isinstance(value, float) and math.isfinite(value):
            continue  # the common scalar case, without building an array
        arr = np.asarray(value, dtype=float)
        finite = np.isfinite(arr).ravel()
        if not finite.all():
            i = int(np.argmin(finite))
            label = name if arr.ndim == 0 else f"{name}[{i}]"
            raise ValueError(f"{where}: {label} = {arr.flat[i]} is not finite")


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
    zero reconstruction already meets the bound and no cap is selected; its
    error is |u0| <= l2_prior, so the bound reported is min(bound, l2_prior).
    Otherwise alpha = A(B^{-1}(sqrt(p2 tau) h01 / delta)), and the bound is
    sqrt((1+zeta) p2 tau) h01 / sqrt(log(sqrt(2 zeta lambda_1 p2 tau) l2 / delta)).
    """
    require_finite(
        "select_alpha", horizon=horizon, lambda1=lambda1, h01_prior=h01_prior,
        effective_delta=effective_delta, l2_prior=l2_prior, zeta=zeta,
    )
    if effective_delta <= 0.0 or h01_prior <= 0.0 or l2_prior <= 0.0:
        raise ValueError("noise level and priors must be positive")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    p2tau = profile.p2 * horizon
    z = default_zeta(lambda1, profile.p2, horizon) if zeta is None else float(zeta)
    if z <= 0.0:
        # both zeta rules divide by 2 lambda_1 p2 tau, which overflows first
        raise ValueError(
            f"zeta = {z} must be positive (lambda1 p2 tau = {lambda1 * p2tau:.6g}): lower the "
            "diffusivity (p_base, p_slope, p_amp) or T"
        )

    log_arg = math.sqrt(2.0 * z * lambda1 * p2tau) * l2_prior / effective_delta
    if log_arg <= 1.0:
        raise ConfigError(
            f"bound log-argument {log_arg} <= 1: zeta={z} too small for noise level "
            f"{effective_delta} (needs zeta > delta^2 / (2 lambda1 p2 tau |u0|^2))"
        )
    bound = math.sqrt((1.0 + z) * p2tau) * h01_prior / math.sqrt(math.log(log_arg))

    threshold = l2_prior * math.exp(-lambda1 * p2tau)
    if effective_delta >= threshold:
        return FilterSelection(True, None, z, min(bound, l2_prior), log_arg, effective_delta)

    ratio = math.sqrt(p2tau) * h01_prior / effective_delta
    x_bar = invert_B(ratio)
    alpha = eval_A(x_bar)
    # cap validity: the critical-point equation needs alpha above A(lambda_1 p2 tau)
    if alpha <= eval_A(lambda1 * p2tau) * (1.0 - 1e-12):
        raise ConfigError(
            f"horizon tau={horizon} too short for noise level {effective_delta} and H1 prior "
            f"{h01_prior}: cap alpha={alpha} from sqrt(p2 tau) |u0|_H1 / delta = {ratio} is not "
            f"above A(lambda1 p2 tau)={eval_A(lambda1 * p2tau)}; raise T or lower the noise"
        )
    # the worst-mode analysis behind the cap puts the convex weight theta on the
    # critical eigenvalue scale x_bar / (p2 tau); it must lie in (0, 1)
    theta = 1.0 / (1.0 + 2.0 * x_bar)  # = alpha e^{-x_bar}
    if not 0.0 < theta < 1.0:
        # theta rounds to 1 only for x_bar below roundoff; with delta < l2 <= h01 / sqrt(lambda1)
        # that needs lambda1 p2 tau below roundoff, i.e. a vanishing horizon
        raise ConfigError(
            f"T too small: convex weight theta={theta} outside (0, 1) at horizon {horizon} "
            f"(lambda1 p2 tau = {lambda1 * p2tau:.6g})"
        )
    return FilterSelection(False, alpha, z, bound, log_arg, effective_delta)


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
    require_finite("global_backward", xs=xs, values=values, delta=delta)
    observed = project(xs, values, basis)
    sel = select_alpha(tau, profile, basis.lambda1, h01_prior, delta, l2_prior)
    if sel.gate_zero:
        return SpectralField.zero(basis), sel
    return apply_filter(observed, sel.alpha, tau, profile), sel


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

