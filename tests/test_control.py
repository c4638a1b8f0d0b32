"""Impulse-control solver: optimality identities, certificates, mode bank."""

import math

import numpy as np
import pytest

from heatback import (
    ConfigError,
    SpectralField,
    Subdomain,
    assemble_control_system,
    chain_full_domain,
    control_mode_bank,
    gram_subdomain,
    physical_terminal,
    solve_control,
    verify_control_bounds,
)
from heatback.control import (
    ControlSetup,
    dual_pairing,
    functional_J,
    gradient_J,
    h_values,
)
from heatback.pipeline import weight_from_chain


@pytest.fixture(scope="module")
def sub_mid():
    return Subdomain(0.3, 0.7)


@pytest.fixture(scope="module")
def setup64(basis64, sub_mid, profile_constant):
    gram = gram_subdomain(sub_mid, basis64)
    return ControlSetup(
        basis64, 0.5, profile_constant, gram,
        eps=0.3, k=weight_from_chain(chain_full_domain(), 0.5, 0.3),
    )


class TestAssembly:
    def test_diagonal_when_full_domain(self, basis16, unit_domain, profile_constant):
        sub = Subdomain.full(unit_domain)
        G = gram_subdomain(sub, basis16)
        setup = ControlSetup(basis16, 0.4, profile_constant, G, eps=0.2, k=5.0)
        M, _ = assemble_control_system(setup)
        dT = setup.decay_to_T
        expect = 25.0 * dT**2 + 0.04
        np.testing.assert_allclose(np.diag(M), expect, rtol=1e-12)
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) < 1e-12

    def test_spd_floor(self, setup64):
        M, _ = assemble_control_system(setup64)
        eigs = np.linalg.eigvalsh(M)
        assert np.min(eigs) >= setup64.eps**2 * (1.0 - 1e-10)

    def test_matches_fd_hessian(self, basis16, unit_domain, profile_affine):
        # central-difference Hessian of J is the oracle for the system matrix
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        G16 = np.zeros((16, 16))
        G16[:3, :3] = A @ A.T / 10.0 + np.eye(3)  # SPD block, rest zero
        setup = ControlSetup(basis16, 0.2, profile_affine, G16, eps=0.5, k=3.0)
        M, _ = assemble_control_system(setup)
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
        assert np.linalg.norm(H - M) <= 1e-8 * np.linalg.norm(M)


class TestSolve:
    def test_diagonal_closed_form(self, basis16, unit_domain, profile_constant):
        sub = Subdomain.full(unit_domain)
        G = gram_subdomain(sub, basis16)
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
        gram = gram_subdomain(sub_mid, basis64)
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
        G = gram_subdomain(sub, basis16)
        setup = ControlSetup(basis16, 0.3, profile_constant, G, eps=0.5, k=1e-12)
        phi0 = np.ones(16)
        sol = solve_control(setup, phi0)
        free = setup.decay_to_2T * phi0 / 0.25
        assert np.linalg.norm(sol.c - free) <= 1e-9 * np.linalg.norm(free)
        assert sol.h_norm_omega <= 1e-20

    def test_rejects_zero_phi0(self, setup64):
        with pytest.raises(ValueError):
            solve_control(setup64, np.zeros(64))


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
        gram = gram_subdomain(sub_mid, basis64)
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
        G = gram_subdomain(sub, basis64)
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
        G = gram_subdomain(sub, basis16)
        setup = ControlSetup(basis16, 0.3, profile_constant, G, eps=0.2, k=4.0)
        bank = control_mode_bank(setup, 8)
        for i, sol in enumerate(bank):
            others = np.delete(np.abs(sol.b), i)
            assert np.max(others) <= 1e-12 * max(abs(sol.b[i]), 1e-300)

    def test_per_mode_identity_and_range(self, basis64, sub_mid, profile_sinusoidal):
        gram = gram_subdomain(sub_mid, basis64)
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
        from heatback.pipeline import observation_weights
        from heatback.spectral import uniform_grid

        rng = np.random.default_rng(60)
        phi0 = rng.standard_normal(64)
        sol = solve_control(setup64, phi0)
        xs = uniform_grid(sub_mid.a, sub_mid.b, 1024)
        w = observation_weights(xs, sub_mid, basis64)
        h = h_values(setup64, sol, xs)
        E = basis64.eigenfunction_matrix(xs)
        b_quad = E.T @ (w * h)
        assert np.linalg.norm(b_quad - sol.b) <= 1e-8 * np.linalg.norm(sol.b)
