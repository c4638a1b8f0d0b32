"""Crank-Nicolson finite-difference solver used as an independent forward oracle.

Second order in space and time, unconditionally stable.  Steps are equal in
diffusive time w = int_0^t p, with W from the oracle's own Simpson rule, so
every step solves with one of two SPD tridiagonal matrices, each factored once
(LAPACK pttrf), and each step is one pttrs solve.  The first two steps are
backward Euler over a quarter step each (a Rannacher start): they damp the
stiff components that Crank-Nicolson alone carries with a factor near -1 when
the step is large.  Exists only to cross-check the spectral propagator; it
shares no code path with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .spectral import DiffusionProfile, DomainSpec, SpectralField, lapack


def factor_banded(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T factor of the SPD tridiagonal matrix with diagonal d and off-diagonal e.

    One LAPACK pttrf call (no pivoting; from spectral.lapack, so the first one
    imports scipy.linalg).  Both arrays are overwritten with the factor, which
    is returned for `solve_banded`.  Inputs are not checked for finiteness; a
    non-positive leading minor raises LinAlgError.
    """
    d, e, info = lapack("pttrf")(d, e, True, True)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    return d, e


def solve_banded(factor: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve A x = b with the `factor_banded` factor of A: one LAPACK pttrs call.

    pttrf then pttrs is ptsv, the routine scipy.linalg.solveh_banded calls on
    a 2-row band, so the result is bit for bit solveh_banded's.  b is
    overwritten; the solution is returned in its memory.
    """
    return lapack("pttrs")(*factor, b, True)[0]


def diffusive_time(profile: DiffusionProfile, t: float, steps: int) -> float:
    """W = int_0^t p by composite Simpson over 2 * steps panels of profile samples.

    The oracle's own quadrature: the spectral propagator takes W from
    DiffusionProfile.integral, which the oracle must not share.  A p huge
    enough to overflow the sum gives W = inf, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = profile(np.linspace(0.0, t, 2 * steps + 1))
        return float(t / (6.0 * steps) * (p[0] + 4.0 * p[1::2].sum() + 2.0 * p[2:-1:2].sum() + p[-1]))


@dataclass(frozen=True)
class FDGrid:
    """Interior points of a uniform grid on (0, L) with Dirichlet ends."""

    domain: DomainSpec
    interior: int

    def __post_init__(self):
        if self.interior < 64:
            raise ValueError(f"need at least 64 interior points, got {self.interior}")

    @property
    def dx(self) -> float:
        return self.domain.length / (self.interior + 1)

    @property
    def xs(self) -> np.ndarray:
        return self.dx * np.arange(1, self.interior + 1)

    def sample(self, field: SpectralField) -> np.ndarray:
        return field.evaluate(self.xs)

    def norm(self, values: np.ndarray) -> float:
        """Discrete L2 norm sqrt(dx * sum v^2) over the interior points."""
        return float(np.sqrt(self.dx * np.sum(np.asarray(values, dtype=float) ** 2)))


def fd_evolve(
    grid: FDGrid,
    initial: np.ndarray,
    profile: DiffusionProfile,
    t: float,
    steps: int,
) -> np.ndarray:
    """Advance interior values from time 0 to t <= profile.horizon in `steps` banded solves.

    The steps are equal in diffusive time w = int_0^t p, in which u_t = p(t)
    u_xx is u_w = u_xx, over W = `diffusive_time(profile, t, steps)`.  With
    dw = W / steps, the first two steps (one if steps = 2, none if steps = 1)
    are backward Euler over dw / 4, solving (I + 2r A) u_new = u_old; a
    quarter step keeps their O(dw^2) start error a sixteenth of that of full
    steps, which would match Crank-Nicolson's own on smooth data.  The rest
    are Crank-Nicolson of equal length over the remaining W, (I + r A) u_new =
    (I - r A) u_old, taken as u_new = y + (y - u_old) with (I + r A) y =
    u_old, as I - r A = 2I - (I + r A).  Here A = tridiag(-1, 2, -1)/dx^2 and
    r is half the step in w, so I + r A is SPD and the same for every step of
    one kind: each kind is factored once (`factor_banded`), and each step is
    one LAPACK pttrs call (`solve_banded`), bit for bit the result of
    scipy.linalg.solveh_banded on that step's matrix.

    Finiteness is checked outside the loop, not by each solve: `initial` and
    both r before the first step, the result after the last.  A NaN or inf
    that appears in any step (an overflow) survives every later tridiagonal
    solve, so the final check catches it.  Such a run raises a ValueError
    naming fd_evolve; numpy's overflow and invalid-value warnings inside the
    loop are suppressed, not let through.
    """
    u = np.asarray(initial, dtype=float).copy()
    if u.shape != (grid.interior,):
        raise ValueError(f"expected {grid.interior} interior values, got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("fd_evolve: initial values must be finite")
    if not 0.0 <= t <= profile.horizon * (1.0 + 1e-12):
        raise ValueError(f"need 0 <= t <= profile horizon {profile.horizon}, got t={t}")
    if t == 0.0:
        return u
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n_implicit = min(2, steps - 1)
    w = diffusive_time(profile, t, steps)
    dw_implicit = 0.25 * w / steps
    dw = (w - n_implicit * dw_implicit) / (steps - n_implicit)
    r_implicit, r = dw_implicit / grid.dx**2, 0.5 * dw / grid.dx**2
    if not np.isfinite((r_implicit, r)).all():
        raise ValueError(
            f"fd_evolve: step coefficient r = dw / dx^2, dw a step of W = int_0^t p, overflows "
            f"(dx={grid.dx}, t={t}); lower the diffusivity (p_base, p_slope, p_amp) or T, or "
            "raise length"
        )

    def factor(r):  # I + r tridiag(-1, 2, -1)
        return factor_banded(np.full(u.size, 1.0 + 2.0 * r), np.full(u.size - 1, -r))

    implicit = factor(r_implicit) if n_implicit else None
    crank_nicolson = factor(r)
    y = np.empty_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_implicit):
            u = solve_banded(implicit, u)
        for _ in range(steps - n_implicit):
            np.copyto(y, u)
            y = solve_banded(crank_nicolson, y)
            np.subtract(y, u, out=u)
            np.add(y, u, out=u)
    if not np.isfinite(u).all():
        raise ValueError(
            f"fd_evolve: the solution overflowed to a non-finite value (t={t}, steps={steps})"
        )
    return u


def oracle_gap(grid: FDGrid, field: SpectralField, fd_values: np.ndarray) -> float:
    """Discrete L2 distance between a spectral field and FD grid values."""
    return grid.norm(grid.sample(field) - np.asarray(fd_values, dtype=float))
