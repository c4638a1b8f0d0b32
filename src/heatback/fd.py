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
from numpy.linalg import LinAlgError

from .spectral import DiffusionProfile, DomainSpec, SpectralField, lapack


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals dl, d, du.

    One LAPACK gtsv call (from spectral.lapack, so the first one imports
    scipy.linalg), the routine scipy.linalg.solve_banded((1, 1), ...) calls,
    without its wrapping.  All four arrays are overwritten; the solution is
    returned in b's memory.  Inputs are not checked for finiteness.
    """
    x, info = lapack("gtsv")(dl, d, du, b, True, True, True, True)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


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
    and r = 0.5 * step * p(step midpoint).  Each step's tridiagonal solve is
    one direct LAPACK gtsv call (this module's `solve_banded`), bit for bit the result
    of scipy.linalg.solve_banded((1, 1), ...), which calls the same routine.

    Finiteness is checked outside the loop, not by each solve: `initial` and
    every r before the first step, the result after the last.  A NaN or inf
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
    dt_implicit = 0.25 * t / steps
    dts = np.full(steps, (t - n_implicit * dt_implicit) / (steps - n_implicit))
    dts[:n_implicit] = dt_implicit
    starts = np.zeros(steps)
    np.cumsum(dts[:-1], out=starts[1:])  # bit for bit a running sum of the preceding steps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rs = dts * profile(starts + 0.5 * dts) / grid.dx**2
    if not np.isfinite(rs).all():
        raise ValueError(
            f"fd_evolve: step coefficient r = dt p / dx^2 overflows (dx={grid.dx}, t={t}); lower "
            "the diffusivity (p_base, p_slope, p_amp) or T, or raise length"
        )
    # (r_new, r_old) is (r, 0) for backward Euler and (r / 2, r / 2) for Crank-Nicolson
    r_news = rs.copy()
    r_olds = 0.5 * rs
    r_news[n_implicit:] = r_olds[n_implicit:]
    r_olds[:n_implicit] = 0.0
    # the diagonals of I + r_new tridiag(-1, 2, -1)
    dl, d, du = np.empty(u.size - 1), np.empty(u.size), np.empty(u.size - 1)
    rhs = np.empty_like(u)  # swaps with u every step
    side = np.empty(u.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for r_new, r_old in zip(r_news.tolist(), r_olds.tolist()):
            np.multiply(u, 1.0 - 2.0 * r_old, out=rhs)
            rhs[:-1] += np.multiply(u[1:], r_old, out=side)
            rhs[1:] += np.multiply(u[:-1], r_old, out=side)
            dl.fill(-r_new)
            d.fill(1.0 + 2.0 * r_new)
            du.fill(-r_new)
            # every step refills the diagonals and rhs, so gtsv may factor in
            # place and return the solution in rhs's memory
            u, rhs = solve_banded(dl, d, du, rhs), u
    if not np.isfinite(u).all():
        raise ValueError(
            f"fd_evolve: the solution overflowed to a non-finite value (t={t}, steps={steps})"
        )
    return u


def oracle_gap(grid: FDGrid, field: SpectralField, fd_values: np.ndarray) -> float:
    """Discrete L2 distance between a spectral field and FD grid values."""
    return grid.norm(grid.sample(field) - np.asarray(fd_values, dtype=float))
