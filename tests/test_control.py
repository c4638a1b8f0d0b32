"""Impulse-control solver: optimality identities, certificates, mode bank."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import heatback.control
from heatback import (
    ConfigError,
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    SpectralField,
    Subdomain,
    assemble_fbar,
    chain_full_domain,
    control_mode_bank,
    evolve,
    gram_subdomain,
    solve_control,
    verify_control_bounds,
)
from heatback.control import ControlSetup, h_values
from heatback.harness import Run, parse_config_text
from heatback.pipeline import control_setup, weight_from_chain
from heatback.spectral import observation_weights, uniform_grid
from oracles import (
    dual_pairing,
    functional_J,
    gradient_J,
    gram_closed_form,
    physical_terminal,
    reference_assemble_fbar,
    reference_solve_control,
)


DEMO_256 = """
length = 1.0
T = 0.25
delta_list = 1e-4, 1e-6, 1e-8
omega_a = 0.3
omega_b = 0.7
modes = 256
bank = 32
constants_mode = empirical
"""

# The demo at N 256, T 0.01 at N 128, and a sinusoidal profile on L 2
GEOMETRIES = (
    DEMO_256,
    DEMO_256.replace("T = 0.25", "T = 0.01").replace("modes = 256", "modes = 128"),
    "length = 2.0\nT = 0.25\ndelta_list = 1e-4, 1e-6, 1e-8\nomega_a = 0.5\n"
    "omega_b = 1.6\nprofile = sinusoidal\nmodes = 97\nconstants_mode = empirical\n",
)


def bank_setups(text):
    """The config and one control setup per noise level of a sweep on it."""
    cfg = parse_config_text(text)
    run = Run(cfg)
    u0 = run.truth()
    l2, h01 = u0.l2(), u0.h01()
    return cfg, [control_setup(run.pipeline(l2, h01), delta * l2) for delta in cfg.delta_list]


@pytest.fixture(scope="module")
def sub_mid():
    return Subdomain(0.3, 0.7)


@pytest.fixture(scope="module")
def setup64(basis64, sub_mid, profile_constant):
    gram = gram_closed_form(sub_mid, basis64)
    return ControlSetup(
        basis64, 0.5, profile_constant, gram,
        eps=0.3, k=weight_from_chain(chain_full_domain(), 0.5, 0.3),
    )


class TestAssembly:
    def test_diagonal_when_full_domain(self, basis16, unit_domain, profile_constant):
        sub = Subdomain.full(unit_domain)
        G = gram_closed_form(sub, basis16)
        setup = ControlSetup(basis16, 0.4, profile_constant, G, eps=0.2, k=5.0)
        M = setup.system
        dT = setup.decay_to_T[: setup.active]
        expect = 25.0 * dT**2 + 0.04
        np.testing.assert_allclose(np.diag(M), expect, rtol=1e-12)
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) < 1e-12

    def test_spd_floor(self, setup64):
        M = setup64.system
        eigs = np.linalg.eigvalsh(M)
        assert np.min(eigs) >= setup64.eps**2 * (1.0 - 1e-10)

    def test_matches_fd_hessian(self, basis16, unit_domain, profile_affine):
        # central-difference Hessian of J is the oracle for the system matrix
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        G16 = np.zeros((16, 16))
        G16[:3, :3] = A @ A.T / 10.0 + np.eye(3)  # SPD block, rest zero
        setup = ControlSetup(basis16, 0.2, profile_affine, G16, eps=0.5, k=3.0)
        M = setup.system
        phi0 = rng.standard_normal(16)
        z = rng.standard_normal(16)
        h = 0.05  # J is quadratic, so central second differences are exact
        H = np.zeros((16, 16))
        for i in range(16):
            for j in range(16):
                ei, ej = np.eye(16)[i] * h, np.eye(16)[j] * h
                H[i, j] = (
                    functional_J(setup, z + ei + ej, phi0)
                    - functional_J(setup, z + ei - ej, phi0)
                    - functional_J(setup, z - ei + ej, phi0)
                    + functional_J(setup, z - ei - ej, phi0)
                ) / (4.0 * h * h)
        # M is the active block; past it the Hessian is eps^2 I to below rounding
        m = setup.active
        assert 3 <= m < 16
        full = setup.eps**2 * np.eye(16)
        full[:m, :m] = M
        assert np.linalg.norm(H - full) <= 1e-8 * np.linalg.norm(full)



class TestDerivedFields:
    """Propagators, active count and M_a are computed once, on construction."""

    @pytest.mark.parametrize("n_bank", [1, 16])
    def test_bank_makes_no_decay_call(self, setup64, monkeypatch, n_bank):
        calls = []
        decay = EigenBasis.decay

        def counted(self, *args):
            calls.append(args)
            return decay(self, *args)

        monkeypatch.setattr(EigenBasis, "decay", counted)
        assert len(control_mode_bank(setup64, n_bank)) == n_bank
        assert calls == []

    def test_fields_are_read_only(self, setup64):
        for name in ("decay_to_T", "decay_to_2T", "active", "system"):
            value = getattr(setup64, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(setup64, name, value)
            if name != "active":
                assert not value.flags.writeable
                with pytest.raises(ValueError):
                    value[0] = 0.0

    def test_replace_rebuilds_system(self, setup64):
        scaled = dataclasses.replace(setup64, k=2.0 * setup64.k)
        m = scaled.active
        dT = scaled.decay_to_T[:m]
        expect = 4.0 * setup64.k**2 * (dT[:, None] * setup64.gram[:m, :m] * dT[None, :])
        expect[np.diag_indices_from(expect)] += setup64.eps**2
        np.testing.assert_allclose(scaled.system, expect, rtol=1e-14)

    @staticmethod
    def _system_by_diag_indices(setup):
        k2, eps2 = np.float64(setup.k) ** 2, np.float64(setup.eps) ** 2
        dT = setup.decay_to_T
        M = (k2 * (dT[:, None] * setup.gram * dT[None, :]))[: setup.active, : setup.active]
        M[np.diag_indices_from(M)] += eps2
        return M

    @pytest.mark.parametrize("text", GEOMETRIES, ids=["demo", "T0.01", "sinusoidal"])
    def test_system_is_the_shifted_block_bit_for_bit(self, text):
        # eps^2 goes onto M_a's diagonal through a strided view: the same sums
        # as diag_indices_from, in every bit
        for setup in bank_setups(text)[1]:
            assert setup.system.tobytes() == self._system_by_diag_indices(setup).tobytes()

    def test_system_of_one_active_mode(self, basis16, sub_mid, profile_constant):
        # at T 1.5 only mode 1 passes k D_T_j >= 2^-60 eps; k D_T_1 = eps, so
        # the coupling is of the size of eps^2
        T, eps = 1.5, 0.1
        k = eps / basis16.decay(profile_constant, 0.0, T)[0]
        setup = ControlSetup(basis16, T, profile_constant, gram_closed_form(sub_mid, basis16),
                             eps=eps, k=k)
        assert setup.active == 1 and setup.system[0, 0] > 1.1 * eps**2
        assert setup.system.tobytes() == self._system_by_diag_indices(setup).tobytes()


class TestSolve:
    def test_diagonal_closed_form(self, basis16, unit_domain, profile_constant):
        sub = Subdomain.full(unit_domain)
        G = gram_closed_form(sub, basis16)
        setup = ControlSetup(basis16, 0.3, profile_constant, G, eps=0.2, k=4.0)
        rng = np.random.default_rng(4)
        phi0 = rng.standard_normal(16)
        sol = solve_control(setup, phi0)
        closed = setup.decay_to_2T * phi0 / (16.0 * setup.decay_to_T**2 + 0.04)
        assert np.linalg.norm(sol.c - closed) <= 1e-10 * np.linalg.norm(closed)

    @pytest.mark.parametrize("profile_name", ["constant", "sinusoidal"])
    def test_optimality_identity(self, basis64, sub_mid, profile_name, profile_constant,
                                 profile_sinusoidal):
        prof = {"constant": profile_constant, "sinusoidal": profile_sinusoidal}[profile_name]
        gram = gram_closed_form(sub_mid, basis64)
        setup = ControlSetup(
            basis64, 0.5, prof, gram,
            eps=0.3, k=weight_from_chain(chain_full_domain(), 0.5, 0.3),
        )
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi0 = rng.standard_normal(64)
            sol = solve_control(setup, phi0)
            assert sol.identity_residual <= 1e-12 * np.linalg.norm(sol.psi)

    def test_vanishing_weight_disables_control(self, basis16, unit_domain, profile_constant):
        sub = Subdomain.full(unit_domain)
        G = gram_closed_form(sub, basis16)
        setup = ControlSetup(basis16, 0.3, profile_constant, G, eps=0.5, k=1e-12)
        phi0 = np.ones(16)
        sol = solve_control(setup, phi0)
        free = setup.decay_to_2T * phi0 / 0.25
        assert np.linalg.norm(sol.c - free) <= 1e-9 * np.linalg.norm(free)
        assert verify_control_bounds(setup, sol, phi0).h_norm <= 1e-20

    def test_rejects_zero_phi0(self, setup64):
        with pytest.raises(ValueError):
            solve_control(setup64, np.zeros(64))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_phi0(self, setup64, bad):
        phi0 = np.ones(64)
        phi0[5] = bad
        with pytest.raises(ValueError, match="phi0 must be finite"):
            solve_control(setup64, phi0)

    @pytest.mark.parametrize("shape", [(63,), (1, 64)], ids=["short", "row"])
    def test_rejects_phi0_of_the_wrong_shape(self, setup64, shape):
        with pytest.raises(ValueError, match="^phi0 must have 64 coefficients$"):
            solve_control(setup64, np.ones(shape))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_beats_zero(self, setup64, bad):
        # one bad entry among zeros is named non-finite, as the element-wise
        # checks order it
        phi0 = np.zeros(64)
        phi0[40] = bad
        with pytest.raises(ValueError, match="^phi0 must be finite$"):
            solve_control(setup64, phi0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_rejects_zero_phi0_by_name(self, setup64, zero):
        with pytest.raises(ValueError, match="^phi0 must be nonzero$"):
            solve_control(setup64, np.full(64, zero))

    @pytest.mark.parametrize("on_block, past_block", [
        (0.0, 1e200), (1.0, 1e200), (1e155, 0.0),
        (1e-170, 1e-170), (1e-310, 1e-310), (5e-324, 5e-324),
    ])
    def test_accepts_phi0_whose_square_sum_leaves_the_range(self, setup64, on_block,
                                                            past_block):
        # phi0 . phi0 overflows to inf or underflows to 0, so the one-dot check
        # falls back to the element-wise ones, which accept: the solve is the
        # reference's, entry by entry (the sign of a zero aside), also where
        # the block's residual norm underflows or is below the tail's rounding
        phi0 = np.full(setup64.basis.size, past_block)
        phi0[: setup64.active] = on_block
        assert np.vdot(phi0, phi0) in (0.0, math.inf)
        sol = solve_control(setup64, phi0)
        ref, psi_norm, _ = reference_solve_control(setup64, phi0)
        for name in ("c", "b", "psi"):
            np.testing.assert_array_equal(getattr(sol, name), getattr(ref, name))
        assert sol.identity_residual == ref.identity_residual
        assert sol.psi_norm == psi_norm

    @pytest.mark.parametrize("eps, k", [(0.3, 1e200), (0.3, math.inf), (1e200, 1.0)])
    def test_rejects_overflowing_weights(self, basis16, unit_domain, profile_constant, eps, k):
        # k^2 or eps^2 beyond the float range: a named error on construction,
        # not an OverflowError from the square or an unchecked factorization
        G = gram_closed_form(Subdomain.full(unit_domain), basis16)
        with pytest.raises(ConfigError, match=re.escape(f"eps={eps}, k={k}")):
            ControlSetup(basis16, 0.3, profile_constant, G, eps=eps, k=k)

    def test_indefinite_block_is_a_named_config_error(self, basis16, sub_mid, profile_constant):
        # an M_a built by ControlSetup is positive definite, so an indefinite
        # block is put in its place: potrf's info > 0 must reach the caller as
        # the ConfigError naming eps and k, not as LAPACK's LinAlgError
        setup = ControlSetup(basis16, 0.3, profile_constant, gram_closed_form(sub_mid, basis16),
                             eps=0.2, k=4.0)
        assert setup.active >= 2
        indefinite = setup.system.copy()
        indefinite[1, 1] = -indefinite[1, 1]
        object.__setattr__(setup, "system", indefinite)
        with pytest.raises(ConfigError, match=re.escape(
            "control system numerically singular (eps=0.2, k=4.0): 2-th leading minor"
        )) as info:
            solve_control(setup, np.ones(16))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_direct_lapack_calls_match_scipy_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in (1, 4, 18):
            A = rng.standard_normal((n, n))
            M = A @ A.T + 1e-6 * np.eye(n)
            M.flags.writeable = False  # as ControlSetup.system is
            b = rng.standard_normal(n)
            b0 = b.copy()
            c = heatback.control.cho_factor(M)
            ref = cho_factor(M, check_finite=False)
            assert c.tobytes() == ref[0].tobytes() and ref[1] is False
            x = heatback.control.cho_solve(c, b)
            assert x.tobytes() == cho_solve(ref, b, check_finite=False).tobytes()
            assert np.array_equal(b, b0)  # potrs leaves b as it was


class TestVariational:
    def test_gradient_matches_central_differences(self, setup64):
        rng = np.random.default_rng(20)
        for _ in range(20):
            phi0 = rng.standard_normal(64)
            z = rng.standard_normal(64)
            analytic = gradient_J(setup64, z, phi0)
            h = 1e-6
            numeric = np.zeros(64)
            for j in range(64):
                dz = np.zeros(64)
                dz[j] = h
                numeric[j] = (
                    functional_J(setup64, z + dz, phi0) - functional_J(setup64, z - dz, phi0)
                ) / (2.0 * h)
            assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(analytic)

    def test_minimizer_beats_perturbations(self, setup64):
        rng = np.random.default_rng(21)
        phi0 = rng.standard_normal(64)
        sol = solve_control(setup64, phi0)
        J_star = functional_J(setup64, sol.c, phi0)
        for _ in range(25):
            d = rng.standard_normal(64)
            for eta in (1e-3, -1e-3, 1e-1, -1e-1):
                assert J_star <= functional_J(setup64, sol.c + eta * d, phi0)

    def test_gradient_vanishes_at_minimizer(self, setup64):
        rng = np.random.default_rng(22)
        phi0 = rng.standard_normal(64)
        sol = solve_control(setup64, phi0)
        g = gradient_J(setup64, sol.c, phi0)
        assert np.linalg.norm(g) <= 1e-10 * np.linalg.norm(phi0)


class TestPhysicalTerminal:
    def test_no_impulse_is_free_evolution(self, setup64):
        phi0 = np.ones(64)
        out = physical_terminal(setup64, phi0, np.zeros(64))
        np.testing.assert_allclose(out, setup64.decay_to_2T * phi0, rtol=1e-14)

    def test_equals_psi_for_constant_profile(self, setup64):
        rng = np.random.default_rng(30)
        phi0 = rng.standard_normal(64)
        sol = solve_control(setup64, phi0)
        out = physical_terminal(setup64, phi0, sol.b)
        np.testing.assert_allclose(out, sol.psi, rtol=1e-11, atol=1e-300)

    def test_differs_for_time_asymmetric_profile(self, basis64, sub_mid, profile_affine):
        gram = gram_closed_form(sub_mid, basis64)
        setup = ControlSetup(
            basis64, 0.5, profile_affine, gram,
            eps=0.3, k=weight_from_chain(chain_full_domain(), 0.5, 0.3),
        )
        phi0 = np.random.default_rng(31).standard_normal(64)
        sol = solve_control(setup, phi0)
        out = physical_terminal(setup, phi0, sol.b)
        assert np.linalg.norm(out - sol.psi) > 1e-8


class TestCertificates:
    def test_energy_split_identity(self, setup64):
        rng = np.random.default_rng(40)
        for _ in range(10):
            sol_phi0 = rng.standard_normal(64)
            cert = verify_control_bounds(setup64, solve_control(setup64, sol_phi0), sol_phi0)
            assert cert.identity_rel <= 1e-12
            assert cert.cauchy_ok

    def test_full_domain_certificates(self, basis64, unit_domain, profile_constant):
        sub = Subdomain.full(unit_domain)
        G = gram_closed_form(sub, basis64)
        setup = ControlSetup(
            basis64, 0.5, profile_constant, G,
            eps=0.1, k=weight_from_chain(chain_full_domain(), 0.5, 0.1),
        )
        rng = np.random.default_rng(41)
        for _ in range(10):
            phi0 = rng.standard_normal(64)
            cert = verify_control_bounds(setup, solve_control(setup, phi0), phi0)
            assert cert.surrogate_ok and cert.h_ok and cert.psi_ok


class TestModeBank:
    def test_diagonal_bank_single_mode_support(self, basis16, unit_domain, profile_constant):
        sub = Subdomain.full(unit_domain)
        G = gram_closed_form(sub, basis16)
        setup = ControlSetup(basis16, 0.3, profile_constant, G, eps=0.2, k=4.0)
        bank = control_mode_bank(setup, 8)
        for i, sol in enumerate(bank):
            others = np.delete(np.abs(sol.b), i)
            assert np.max(others) <= 1e-12 * max(abs(sol.b[i]), 1e-300)

    def test_per_mode_identity_and_range(self, basis64, sub_mid, profile_sinusoidal):
        gram = gram_closed_form(sub_mid, basis64)
        setup = ControlSetup(
            basis64, 0.5, profile_sinusoidal, gram,
            eps=0.2, k=weight_from_chain(chain_full_domain(), 0.5, 0.2),
        )
        bank = control_mode_bank(setup, 32)
        for sol in bank:
            assert np.all(np.isfinite(sol.b))
            assert sol.identity_residual <= 1e-12 * max(np.linalg.norm(sol.psi), 1e-300)
            # b lies in the range of G by construction; verify residual of
            # projection onto range(G)
            w, V = np.linalg.eigh(gram)
            keep = w > 1e-13 * w.max()
            proj = V[:, keep] @ (V[:, keep].T @ sol.b)
            assert np.linalg.norm(sol.b - proj) <= 1e-9 * max(np.linalg.norm(sol.b), 1e-300)

    @pytest.mark.parametrize("text", GEOMETRIES, ids=["demo", "T0.01", "sinusoidal"])
    def test_bank_equals_the_reference_solve(self, text):
        # refining from c = 0 gives bit for bit the solve-then-refine result,
        # with scipy's finiteness check on each LAPACK call, at every bank mode
        cfg, setups = bank_setups(text)
        for setup in setups:
            for i, sol in enumerate(control_mode_bank(setup, cfg.bank)):
                phi0 = SpectralField.unit_mode(setup.basis, i + 1).coeffs
                ref, psi_norm, h_norm = reference_solve_control(setup, phi0)
                for name in ("c", "b", "psi"):
                    np.testing.assert_array_equal(getattr(sol, name), getattr(ref, name))
                assert sol.psi_norm == psi_norm
                assert verify_control_bounds(setup, sol, phi0).h_norm == h_norm
                assert sol.identity_residual == ref.identity_residual

    @pytest.mark.parametrize("text", GEOMETRIES, ids=["demo", "T0.01", "sinusoidal"])
    def test_bank_is_one_solve_control_per_mode(self, text, monkeypatch):
        # the bank goes through the module's solve_control and cho_factor once
        # per mode, where a caller-side wrapper (perfbench's trace) sees them,
        # and each mode is byte for byte the lone solve of its unit vector
        solve, factor = heatback.control.solve_control, heatback.control.cho_factor
        calls = {"solve_control": 0, "cho_factor": 0}

        def spy(name, inner):
            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return counted

        cfg, setups = bank_setups(text)
        for setup in setups:
            monkeypatch.setattr(heatback.control, "solve_control", spy("solve_control", solve))
            monkeypatch.setattr(heatback.control, "cho_factor", spy("cho_factor", factor))
            calls.update(solve_control=0, cho_factor=0)
            bank = control_mode_bank(setup, cfg.bank)
            assert calls == {"solve_control": cfg.bank, "cho_factor": cfg.bank}
            monkeypatch.undo()
            for i, sol in enumerate(bank):
                alone = solve(setup, SpectralField.unit_mode(setup.basis, i + 1).coeffs)
                for name in ("c", "b", "psi"):
                    assert getattr(sol, name).tobytes() == getattr(alone, name).tobytes()
                assert sol.identity_residual == alone.identity_residual

    @pytest.mark.parametrize("text", GEOMETRIES, ids=["demo", "T0.01", "sinusoidal"])
    def test_mode_past_the_block_makes_no_triangular_solve(self, text, monkeypatch):
        calls = {"cho_factor": 0, "cho_solve": 0}
        for name in calls:
            inner = getattr(heatback.control, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(heatback.control, name, counted)
        cfg, setups = bank_setups(text)
        for setup in setups:
            assert 1 <= setup.active < cfg.bank
            for i in range(cfg.bank):
                phi0 = SpectralField.unit_mode(setup.basis, i + 1).coeffs
                for name in calls:
                    calls[name] = 0
                solve_control(setup, phi0)
                assert calls["cho_factor"] == 1
                if i < setup.active:
                    assert calls["cho_solve"] >= 1
                else:
                    assert calls["cho_solve"] == 0

    @pytest.mark.parametrize("text", GEOMETRIES, ids=["demo", "T0.01", "sinusoidal"])
    def test_phi0_zero_on_the_block_skips_the_refinement(self, text, monkeypatch):
        # a phi0 that is zero on the block, with -0.0 entries there and several
        # modes past it, is solved by c = 0 on the block: no triangular solve,
        # the reference's values, and the closed form bit for bit (+0.0 on the block)
        solves = []
        inner = heatback.control.cho_solve
        monkeypatch.setattr(heatback.control, "cho_solve",
                            lambda *args: solves.append(1) or inner(*args))
        cfg, setups = bank_setups(text)
        for setup in setups:
            m, n = setup.active, setup.basis.size
            phi0 = np.zeros(n)
            phi0[:m:2] = -0.0
            phi0[m:] = np.linspace(1.0, -2.0, n - m)
            solves.clear()
            sol = solve_control(setup, phi0)
            assert solves == []
            ref, psi_norm, _ = reference_solve_control(setup, phi0)
            for name in ("c", "b", "psi"):
                np.testing.assert_array_equal(getattr(sol, name), getattr(ref, name))
            assert sol.psi_norm == psi_norm
            assert sol.identity_residual == ref.identity_residual
            rhs = setup.decay_to_2T * phi0
            c = rhs / setup.eps**2
            c[:m] = 0.0
            assert sol.c.tobytes() == c.tobytes()
            assert sol.b.tobytes() == np.zeros(n).tobytes()
            assert sol.psi.tobytes() == rhs.tobytes()

    @pytest.mark.parametrize("text", GEOMETRIES, ids=["demo", "T0.01", "sinusoidal"])
    def test_modes_past_the_block_are_closed_form(self, text):
        cfg, setups = bank_setups(text)
        run = Run(cfg)
        u0 = run.truth()
        uT = evolve(u0, 0.0, cfg.T, run.profile)
        for di, setup in enumerate(setups):
            xs, values = run.observe(uT, cfg.delta_list[di] * u0.l2(), [cfg.seed, di], True)
            weights = run.pipeline(u0.l2(), u0.h01(), xs).weights
            bank = control_mode_bank(setup, cfg.bank)
            m = setup.active
            for i, sol in enumerate(bank[m:], start=m):
                e_i = SpectralField.unit_mode(setup.basis, i + 1).coeffs
                assert np.all(sol.b == 0.0)
                assert verify_control_bounds(setup, sol, e_i).h_norm == 0.0
                np.testing.assert_array_equal(sol.psi, setup.decay_to_2T * e_i)
                assert np.all(h_values(setup, sol, xs) == 0.0)
            coeffs, h_qnorms = reference_assemble_fbar(bank, setup, xs, values, weights)
            fbar, got_h = assemble_fbar(bank, setup, xs, values, weights)
            # past the block h = 0, so both give exact zeros
            assert np.all(fbar.coeffs[m:] == 0.0) and np.all(coeffs[m:] == 0.0)
            assert np.all(got_h[m:] == 0.0) and np.all(h_qnorms[m:] == 0.0)
            # on the block one dot product and np.sum round differently: within
            # 16 ulp of each sum's scale (3 and 2 ulp are the most seen here);
            # a coefficient cancels, so its scale is the sum of |terms|
            decay23 = setup.basis.decay(setup.profile, 2.0 * setup.T, 3.0 * setup.T)
            scale = [decay23[i] * np.sum(np.abs(weights * h_values(setup, bank[i], xs) * values))
                     for i in range(m)]
            assert np.all(np.abs(fbar.coeffs[:m] - coeffs[:m]) <= 16 * np.spacing(scale))
            assert np.all(np.abs(got_h[:m] - h_qnorms[:m]) <= 16 * np.spacing(h_qnorms[:m]))

    def test_rejects_oversized_bank(self, setup64):
        with pytest.raises(ValueError):
            control_mode_bank(setup64, 65)


class TestDuality:
    def test_pairing_constant_on_both_half_windows(self, setup64):
        rng = np.random.default_rng(50)
        phi0 = rng.standard_normal(64)
        sol = solve_control(setup64, phi0)
        first = [dual_pairing(setup64, phi0, sol.b, sol.c, t) for t in np.linspace(0.02, 0.48, 10)]
        second = [dual_pairing(setup64, phi0, sol.b, sol.c, t) for t in np.linspace(0.52, 0.98, 10)]
        for vals in (first, second):
            spread = max(vals) - min(vals)
            assert spread <= 1e-12 * max(abs(v) for v in vals)


class TestWeight:
    def test_matches_chain_formula(self):
        chain = chain_full_domain()
        T, eps = 0.5, 0.1
        expect = math.sqrt(chain.c1 * math.exp(chain.c1 / T)) / eps**chain.c2
        assert weight_from_chain(chain, T, eps) == pytest.approx(expect, rel=1e-12)

    def test_rejects_overflowing_chain(self, unit_domain, profile_constant):
        from heatback import constants_convex

        chain = constants_convex(unit_domain, 0.1, profile_constant)
        with pytest.raises(ConfigError):
            weight_from_chain(chain, 0.5, 0.1)


class TestImpulseEvaluator:
    def test_matches_coefficient_projection(self, setup64, basis64, sub_mid):
        # quadrature of h against e_j must reproduce b_j
        rng = np.random.default_rng(60)
        phi0 = rng.standard_normal(64)
        sol = solve_control(setup64, phi0)
        xs = uniform_grid(sub_mid.a, sub_mid.b, 1024)
        w = observation_weights(xs, sub_mid, basis64)
        h = h_values(setup64, sol, xs)
        E = basis64.eigenfunction_matrix(xs)
        b_quad = E.T @ (w * h)
        assert np.linalg.norm(b_quad - sol.b) <= 1e-8 * np.linalg.norm(sol.b)

    def test_no_subnormal_enters_the_impulse(self):
        # a subnormal operand would send the h_values, b and h_norm products
        # down x86's slow path; k D_T_j >= 2^-60 eps keeps every active D_T_j
        # far above 2.2e-308.
        tiny = np.finfo(float).tiny
        for text in GEOMETRIES:
            cfg, setups = bank_setups(text)
            for delta, setup in zip(cfg.delta_list, setups):
                m = setup.active
                assert 1 <= m < cfg.modes
                for sol in control_mode_bank(setup, cfg.bank):
                    dTc = setup.decay_to_T[:m] * sol.c[:m]
                    assert not np.any((dTc != 0.0) & (np.abs(dTc) < tiny)), (text, delta)


class TestActiveBlock:
    """The solve on the first setup.active modes is the full system to below
    rounding: the rule k D_T_j >= 2^-60 eps drops only couplings smaller than
    the backward error a Cholesky solve already commits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        length=st.floats(0.5, 3.0),
        log_T=st.floats(-3.0, 0.0),
        modes=st.integers(1, 96),
        kind=st.sampled_from(["constant", "affine", "sinusoidal"]),
        omega=st.tuples(st.floats(0.0, 0.95), st.floats(0.05, 1.0)),
        log_eps=st.floats(-8.0, 0.0),
        log_kappa=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reduction_is_exact(self, length, log_T, modes, kind, omega, log_eps, log_kappa,
                                seed):
        T = 10.0**log_T
        a, b = omega[0] * length, min(max(omega[1], omega[0] + 0.05), 1.0) * length
        basis = EigenBasis(DomainSpec(length, 0.5 * length), modes)
        # the Gram matrix the commands build, the Simpson rule's on an omega grid
        # of ExperimentConfig.panels, whose diagonal is at most 1 only up to rounding
        panels = math.ceil(16 * modes * (b - a) / length)
        xs = uniform_grid(a, b, max(64, panels + panels % 2))
        G = gram_subdomain(xs, observation_weights(xs, Subdomain(a, b), basis), basis)
        args = {"constant": (1.0,), "affine": (1.0, 0.1), "sinusoidal": (1.0, 0.2, 1.0)}[kind]
        profile = getattr(DiffusionProfile, kind)(*args, 2.0 * T)
        dT = basis.decay(profile, 0.0, T)
        # k from the drawn condition number k^2 |D_T G D_T| / eps^2, up to 1e3, a
        # range in which the optimality identity is resolvable in float64
        eps = 10.0**log_eps
        k = eps * math.sqrt(10.0**log_kappa / np.linalg.norm(dT[:, None] * G * dT[None, :], 2))
        setup = ControlSetup(basis, T, profile, G, eps, k)
        m = setup.active

        coupling = k**2 * (dT[:, None] * G * dT[None, :])
        M = coupling.copy()
        M[np.diag_indices_from(M)] += eps**2
        assert np.array_equal(setup.system, M[:m, :m])
        # every entry the rule drops obeys |M_ij| <= 2^-60 sqrt(M_ii M_jj), up to
        # the rounding of the computed entries
        scale = np.sqrt(np.diag(M))
        dropped = coupling.copy()
        dropped[:m, :m] = 0.0
        u = np.finfo(float).eps / 2.0
        assert np.all(np.abs(dropped) <= 2.0**-60 * (1.0 + 8.0 * u) * np.outer(scale, scale))

        phi0 = np.random.default_rng(seed).standard_normal(modes)
        rhs = setup.decay_to_2T * phi0
        sol = solve_control(setup, phi0)
        c_full = cho_solve(cho_factor(M), rhs)
        # In the scaling x = S c, S = diag(sqrt(M_ii)), A = S^-1 M S^-1 has a unit
        # diagonal.  The truncated solve solves (A + E1) x = S^-1 rhs with
        # |E1| <= n 2^-60 + n gamma_{3n+1}: the dropped entries, plus the backward
        # error of a Cholesky solve (Higham 2002, Thm 10.4); the full solve
        # solves (A + E2) x = S^-1 rhs with |E2| <= n gamma_{3n+1}.  So
        # |S (c - c_full)| <= |A^-1| (|E1| |S c| + |E2| |S c_full|).
        gamma = (3 * modes + 1) * u / (1.0 - (3 * modes + 1) * u)
        e1, e2 = modes * (2.0**-60 + gamma), modes * gamma
        inv_norm = 1.0 / np.linalg.eigvalsh(M / np.outer(scale, scale))[0]
        gap = np.linalg.norm(scale * (sol.c - c_full))
        bound = inv_norm * (e1 * np.linalg.norm(scale * sol.c)
                            + e2 * np.linalg.norm(scale * c_full))
        assert gap <= bound
        assert np.linalg.norm(sol.psi - eps**2 * sol.c) <= 1e-12 * np.linalg.norm(sol.psi)
