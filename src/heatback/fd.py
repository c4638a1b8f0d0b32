"""Crank-Nicolson finite-difference solver used as an independent forward oracle.

Second order in space and time, unconditionally stable, with the diffusivity
sampled at step midpoints, and one SPD tridiagonal solve (LAPACK ptsv) a step.
The first two steps are backward Euler over a quarter step each (a Rannacher
start): they damp the stiff components that Crank-Nicolson alone carries with
a factor near -1 when dt is large.  Exists only to cross-check the spectral
propagator; it shares no code path with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .spectral import DiffusionProfile, DomainSpec, SpectralField, lapack


def solve_banded(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the SPD tridiagonal system with diagonal d and off-diagonal e.

    One LAPACK ptsv call (LDL^T without pivoting; from spectral.lapack, so the
    first one imports scipy.linalg), the routine scipy.linalg.solveh_banded
    calls on a 2-row band, without its wrapping.  All three arrays are
    overwritten; the solution is returned in b's memory.  Inputs are not
    checked for finiteness; a non-positive leading minor raises LinAlgError.
    """
    x, info = lapack("ptsv")(d, e, b, True, True, True)[2:]
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
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
    (I + r A) u_new = (I - r A) u_old, taken as u_new = y + (y - u_old) with
    (I + r A) y = u_old, as I - r A = 2I - (I + r A).  Here A = tridiag(-1, 2,
    -1)/dx^2 and r = 0.5 * step * p(step midpoint) > 0, so I + r A is SPD and
    each step is one direct LAPACK ptsv call (this module's `solve_banded`),
    bit for bit scipy.linalg.solveh_banded's result, from the same routine.

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
    rs[n_implicit:] *= 0.5  # each step solves with I + r tridiag(-1, 2, -1)
    d, e = np.empty(u.size), np.empty(u.size - 1)
    y = np.empty_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, r in enumerate(rs.tolist()):
            np.copyto(y, u)
            d.fill(1.0 + 2.0 * r)
            e.fill(-r)
            # every step refills d, e and y, so ptsv may factor in place and
            # return the solution in y's memory
            y = solve_banded(d, e, y)
            if n < n_implicit:
                u, y = y, u
            else:
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
