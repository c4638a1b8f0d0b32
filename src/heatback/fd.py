"""Crank-Nicolson finite-difference solver used as an independent forward oracle.

Second order in space and time, unconditionally stable, with the diffusivity
sampled at step midpoints.  The first two steps are backward Euler over a
quarter step each (a Rannacher start): they damp the stiff components that
Crank-Nicolson alone carries with a factor near -1 when dt is large.  Exists
only to cross-check the spectral propagator; it shares no code path with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .spectral import DiffusionProfile, DomainSpec, SpectralField


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

    With dt = t / steps, the first two steps (one if steps = 2, none if
    steps = 1) are backward Euler over dt / 4, solving (I + 2r A) u_new =
    u_old; a quarter step keeps their O(dt^2) start error a sixteenth of that
    of full steps, which would match Crank-Nicolson's own on smooth data.
    The rest are Crank-Nicolson of equal length over the remaining time,
    solving (I + r A) u_new = (I - r A) u_old.  Here A = tridiag(-1, 2, -1)/dx^2
    and r = 0.5 * step * p(step midpoint).
    """
    u = np.asarray(initial, dtype=float).copy()
    if u.shape != (grid.interior,):
        raise ValueError(f"expected {grid.interior} interior values, got {u.shape}")
    if not 0.0 <= t <= profile.horizon * (1.0 + 1e-12):
        raise ValueError(f"need 0 <= t <= profile horizon {profile.horizon}, got t={t}")
    if t == 0.0:
        return u
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n_implicit = min(2, steps - 1)
    dt_implicit = 0.25 * t / steps
    dt_cn = (t - n_implicit * dt_implicit) / (steps - n_implicit)
    dx2 = grid.dx**2
    m = grid.interior
    ab = np.zeros((3, m))
    start = 0.0
    for n in range(steps):
        dt = dt_implicit if n < n_implicit else dt_cn
        r = dt * float(profile(start + 0.5 * dt)) / dx2
        r_new, r_old = (r, 0.0) if n < n_implicit else (0.5 * r, 0.5 * r)
        rhs = (1.0 - 2.0 * r_old) * u
        rhs[:-1] += r_old * u[1:]
        rhs[1:] += r_old * u[:-1]
        ab[0, 1:] = -r_new
        ab[1, :] = 1.0 + 2.0 * r_new
        ab[2, :-1] = -r_new
        # every step refills ab and rhs, so the solver may factor in place
        u = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True)
        start += dt
    return u


def oracle_gap(grid: FDGrid, field: SpectralField, fd_values: np.ndarray) -> float:
    """Discrete L2 distance between a spectral field and FD grid values."""
    return grid.norm(grid.sample(field) - np.asarray(fd_values, dtype=float))
