"""Crank-Nicolson oracle against the exact spectral propagator."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

from heatback import (
    DiffusionProfile, EigenBasis, FDGrid, SpectralField, evolve, fd, fd_evolve, oracle_gap,
    synthesize_initial,
)


def step_schedule(grid, profile, t, steps):
    """(backward Euler?, r) for each step, equal in diffusive time: W from the
    oracle's Simpson rule, then r = dw / dx^2 for each step dw of W."""
    n_implicit = min(2, steps - 1)
    w = fd.diffusive_time(profile, t, steps)
    dw_implicit = 0.25 * w / steps
    dw_cn = (w - n_implicit * dw_implicit) / (steps - n_implicit)
    for n in range(steps):
        yield n < n_implicit, (dw_implicit if n < n_implicit else dw_cn) / grid.dx**2


def reference_fd_evolve(grid, initial, profile, t, steps):
    """The per-step loop fd_evolve factors once: a finiteness-checked SPD banded
    solve (I + r A) y = u that factors in every step, u_new = y for backward
    Euler and y + (y - u) for Crank-Nicolson (with half the step's r)."""
    u = np.asarray(initial, dtype=float).copy()
    ab = np.zeros((2, grid.interior))  # upper form: the off-diagonal, then the diagonal
    for implicit, r in step_schedule(grid, profile, t, steps):
        r = r if implicit else 0.5 * r
        ab[0, 1:] = -r
        ab[1, :] = 1.0 + 2.0 * r
        y = solveh_banded(ab, u)
        u = y if implicit else y + (y - u)
    return u


def textbook_fd_evolve(grid, initial, profile, t, steps):
    """The same schedule as the textbook step (I + r_new A) u_new = (I - r_old A) u,
    with the explicit right-hand side and scipy's general banded solver."""
    u = np.asarray(initial, dtype=float).copy()
    ab = np.zeros((3, grid.interior))
    for implicit, r in step_schedule(grid, profile, t, steps):
        r_new, r_old = (r, 0.0) if implicit else (0.5 * r, 0.5 * r)
        rhs = (1.0 - 2.0 * r_old) * u
        rhs[:-1] += r_old * u[1:]
        rhs[1:] += r_old * u[:-1]
        ab[0, 1:] = -r_new
        ab[1, :] = 1.0 + 2.0 * r_new
        ab[2, :-1] = -r_new
        u = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True)
    return u


@pytest.fixture(scope="module")
def grid(unit_domain):
    return FDGrid(unit_domain, 2000)


class TestFDEvolve:
    def test_single_mode_matches_exact(self, grid, basis16, profile_constant):
        # the exact single-mode solution is the oracle's own oracle
        e1 = SpectralField.unit_mode(basis16, 1)
        fd = fd_evolve(grid, grid.sample(e1), profile_constant, 0.1, 2000)
        gap = oracle_gap(grid, evolve(e1, 0.0, 0.1, profile_constant), fd)
        assert gap < 1e-5

    def test_zero_time_identity(self, grid, basis16, profile_constant):
        v = grid.sample(SpectralField.unit_mode(basis16, 3))
        np.testing.assert_array_equal(fd_evolve(grid, v, profile_constant, 0.0, 100), v)

    def test_zero_data_stays_zero(self, grid, profile_affine):
        out = fd_evolve(grid, np.zeros(grid.interior), profile_affine, 0.3, 50)
        assert np.all(out == 0.0)

    def test_energy_decay(self, grid, basis16, profile_sinusoidal):
        u = synthesize_initial(basis16, 2.0, 4)
        v = grid.sample(u)
        before = grid.norm(v)
        for steps, t in ((50, 0.05), (200, 0.4)):
            after = grid.norm(fd_evolve(grid, v, profile_sinusoidal, t, steps))
            assert after < before

    @pytest.mark.parametrize("steps", [1, 2, 3, 50])
    def test_grid_mode_follows_the_step_schedule(
        self, grid, profile_constant, profile_affine, profile_sinusoidal, steps
    ):
        # a grid sine mode is an eigenvector of tridiag(-1, 2, -1)/dx^2, so each
        # step scales it by its amplification factor: backward Euler over dw/4
        # for the first two steps (fewer when steps < 3), Crank-Nicolson after,
        # all equal steps in diffusive time, here W from the exact integral of p;
        # the schedule in w is the same for every profile, and at steps = 1 the
        # oracle's 2-panel Simpson rule misses the sinusoidal W by 3.5e-11,
        # above what atol admits, so that profile starts at steps = 2
        t, k = 0.1, 3
        theta = k * np.pi * grid.dx / grid.domain.length
        mu = 4.0 / grid.dx**2 * np.sin(0.5 * theta) ** 2
        n_be = min(2, steps - 1)
        v = np.sin(theta * np.arange(1, grid.interior + 1))
        profiles = (profile_constant, profile_affine) + ((profile_sinusoidal,) if steps > 1 else ())
        for profile in profiles:
            w = profile.integral(0.0, t)
            dw_be = 0.25 * w / steps
            dw_cn = (w - n_be * dw_be) / (steps - n_be)
            factor = (1.0 + mu * dw_be) ** -n_be * (
                (1.0 - 0.5 * mu * dw_cn) / (1.0 + 0.5 * mu * dw_cn)
            ) ** (steps - n_be)
            out = fd_evolve(grid, v, profile, t, steps)
            np.testing.assert_allclose(out, factor * v, rtol=0.0, atol=1e-12)

    def test_stiff_step_is_damped(self, grid, profile_constant):
        # mu dt ~ 1e6 for the top grid mode: Crank-Nicolson alone keeps it at
        # nearly full size with alternating sign, the backward-Euler start removes it
        v = np.sin(np.pi * grid.interior / (grid.interior + 1) * np.arange(1, grid.interior + 1))
        out = fd_evolve(grid, v, profile_constant, 1.0, 20)
        assert grid.norm(out) < 1e-6 * grid.norm(v)

    def test_rejects_bad_steps(self, grid, profile_constant):
        with pytest.raises(ValueError):
            fd_evolve(grid, np.zeros(grid.interior), profile_constant, 0.1, 0)

    @pytest.mark.parametrize("t", [-0.1, 5.0, float("nan")])
    def test_rejects_times_outside_the_horizon(self, grid, t):
        # t < 0 would run the heat equation backward; t past the horizon would
        # use values of p that the profile does not certify
        v = np.sin(np.pi * grid.dx * np.arange(1, grid.interior + 1))
        with pytest.raises(ValueError, match=r"profile horizon 0\.75, got t=" + str(t)):
            fd_evolve(grid, v, DiffusionProfile.constant(1.0, 0.75), t, 50)

    @pytest.mark.parametrize("steps", [1, 2, 3, 400, 2000])
    @pytest.mark.parametrize("kind", ["constant", "affine", "sinusoidal"])
    def test_equals_the_per_step_loop(self, grid, basis64, kind, steps, request):
        # one factorization per kind of step, the direct pttrs call and the
        # buffers solved in place must not move a single bit
        profile = request.getfixturevalue(f"profile_{kind}")
        v = grid.sample(synthesize_initial(basis64, 2.0, steps))
        for t in (0.05, 0.4):
            out = fd_evolve(grid, v, profile, t, steps)
            np.testing.assert_array_equal(out, reference_fd_evolve(grid, v, profile, t, steps))

    @pytest.mark.parametrize("steps", [1, 2, 3, 400, 2000])
    @pytest.mark.parametrize("kind", ["constant", "affine", "sinusoidal"])
    def test_agrees_with_the_textbook_step(self, grid, basis64, kind, steps, request):
        # y + (y - u) with (I + r A) y = u is the textbook Crank-Nicolson step
        # in exact arithmetic, so the two schemes differ by roundoff only
        profile = request.getfixturevalue(f"profile_{kind}")
        v = grid.sample(synthesize_initial(basis64, 2.0, steps))
        for t in (0.05, 0.4):
            old = textbook_fd_evolve(grid, v, profile, t, steps)
            gap = np.max(np.abs(fd_evolve(grid, v, profile, t, steps) - old))
            assert gap <= 1e-9 * np.max(np.abs(old))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_initial(self, grid, profile_constant, bad):
        v = np.zeros(grid.interior)
        v[17] = bad
        with pytest.raises(ValueError, match="fd_evolve: initial values must be finite"):
            fd_evolve(grid, v, profile_constant, 0.1, 5)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_overflow_raises_named_error(self, grid, profile_constant, steps):
        # r ~ 1e5, so pttrs's forward substitution, whose partial results grow
        # toward sqrt(r) * 1e308, overflows in the first step although the
        # solution would not; the warnings stay inside fd_evolve (the suite
        # turns a RuntimeWarning into an error) and the final check names the solver
        v = np.full(grid.interior, 1e308)
        with pytest.raises(ValueError, match="fd_evolve: the solution overflowed"):
            fd_evolve(grid, v, profile_constant, 0.1, steps)

    @pytest.mark.parametrize("steps", [1, 2, 3, 50])
    def test_one_tridiagonal_solve_per_step(self, grid, profile_affine, steps, monkeypatch):
        # fd_evolve looks solve_banded up in its module on every step, where
        # perfbench's tracer wraps it and expects one call per step
        calls = []
        solve = fd.solve_banded

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fd, "solve_banded", counted)
        v = np.sin(3.0 * np.pi * grid.dx * np.arange(1, grid.interior + 1))
        fd_evolve(grid, v, profile_affine, 0.1, steps)
        assert len(calls) == steps

    @pytest.mark.parametrize("steps", [1, 2, 3, 50])
    def test_at_most_two_factorizations(self, grid, profile_sinusoidal, steps, monkeypatch):
        # every step of one kind has the same r, so one factor per kind: the
        # Crank-Nicolson matrix, and the backward-Euler one once steps > 1
        calls = []
        factor = fd.factor_banded

        def counted(*args, **kwargs):
            calls.append(None)
            return factor(*args, **kwargs)

        monkeypatch.setattr(fd, "factor_banded", counted)
        v = np.sin(3.0 * np.pi * grid.dx * np.arange(1, grid.interior + 1))
        fd_evolve(grid, v, profile_sinusoidal, 0.1, steps)
        assert len(calls) == min(2, steps)

    @pytest.mark.parametrize("kind", ["constant", "affine", "sinusoidal"])
    def test_never_calls_the_spectral_propagator(self, grid, kind, request, monkeypatch):
        # the oracle integrates p itself; the spectral path's exact integral and
        # its decay factors must not enter the result it is checked against
        profile = request.getfixturevalue(f"profile_{kind}")
        calls = []
        for cls, name in ((DiffusionProfile, "integral"), (EigenBasis, "decay")):
            monkeypatch.setattr(cls, name, lambda *args, name=name: calls.append(name))
        v = np.sin(3.0 * np.pi * grid.dx * np.arange(1, grid.interior + 1))
        for steps in (1, 3, 50):
            fd_evolve(grid, v, profile, 0.4, steps)
        assert calls == []

    def test_leaves_its_input_untouched(self, grid, profile_constant):
        v = np.sin(3.0 * np.pi * grid.dx * np.arange(1, grid.interior + 1))
        before = v.copy()
        fd_evolve(grid, v, profile_constant, 0.1, 5)
        np.testing.assert_array_equal(v, before)


class TestSolveBanded:
    def test_zero_pivot_raises(self):
        # LDL^T without pivoting stops at the first leading minor that is not
        # positive: d[0] = 0 is the first one, and 1 - 2^2 < 0 the second
        with pytest.raises(LinAlgError, match="1th leading minor not positive definite"):
            fd.factor_banded(np.array([0.0, 1.0, 1.0]), np.ones(2))
        with pytest.raises(LinAlgError, match="2th leading minor not positive definite"):
            fd.factor_banded(np.ones(3), np.full(2, 2.0))

    def test_equals_solveh_banded(self):
        # a diagonally dominant, so SPD, tridiagonal system; factor_banded and
        # solve_banded overwrite their inputs, so they get copies, and one
        # factor serves every right-hand side
        rng = np.random.default_rng(7)
        d = rng.uniform(2.0, 3.0, 500)
        e = -rng.uniform(0.1, 1.0, 499)
        factor = fd.factor_banded(d.copy(), e.copy())
        for b in rng.standard_normal((2, 500)):
            expected = solveh_banded(np.vstack([np.r_[0.0, e], d]), b)
            np.testing.assert_array_equal(fd.solve_banded(factor, b.copy()), expected)


class TestDiffusiveTime:
    @pytest.mark.parametrize("steps", [50, 400, 2000])
    @pytest.mark.parametrize("kind", ["constant", "affine", "sinusoidal"])
    def test_matches_the_exact_integral(self, kind, steps, request):
        profile = request.getfixturevalue(f"profile_{kind}")
        for t in (0.05, 0.1, 0.4, 0.75):
            exact = profile.integral(0.0, t)
            assert fd.diffusive_time(profile, t, steps) == pytest.approx(exact, rel=1e-11, abs=0.0)


class TestOracleGap:
    def test_identical_inputs_give_zero(self, grid, basis16):
        u = synthesize_initial(basis16, 2.0, 8)
        assert oracle_gap(grid, u, grid.sample(u)) == 0.0

    def test_symmetric(self, grid, basis16):
        u = synthesize_initial(basis16, 2.0, 8)
        v = synthesize_initial(basis16, 2.0, 9)
        d1 = oracle_gap(grid, u, grid.sample(v))
        d2 = oracle_gap(grid, v, grid.sample(u))
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_cross_validation_random_field(self, grid, basis64, profile_affine):
        u = synthesize_initial(basis64, 2.0, 12)
        fd = fd_evolve(grid, grid.sample(u), profile_affine, 0.1, 2000)
        gap = oracle_gap(grid, evolve(u, 0.0, 0.1, profile_affine), fd)
        assert gap <= 1e-4 * u.l2()
