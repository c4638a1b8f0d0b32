"""Subdomain-to-initial-state pipeline: transfer, certification, inversion."""

import math
from dataclasses import replace

import numpy as np
import pytest

from heatback import (
    ConfigError,
    PipelineConfig,
    SpectralField,
    Subdomain,
    chain_full_domain,
    evolve,
    fit_empirical_constants,
    global_backward,
    gram_subdomain,
    local_reconstruct,
    select_epsilon,
    synthesize_initial,
    uniform_grid,
)
from heatback.control import ControlSetup, ControlSolution
from heatback.harness import inject_noise
from heatback.pipeline import (
    assemble_fbar,
    certified_delta_3T,
    effective_delta_3T,
    observation_weights,
    paper_zeta,
    sw_prefactor,
    weight_from_chain,
)
from heatback.spectral import EigenBasis, project, simpson_weights


@pytest.fixture(scope="module")
def sub_mid():
    return Subdomain(0.3, 0.7)


@pytest.fixture(scope="module")
def local_setup(basis64, sub_mid, profile_constant):
    gram = gram_subdomain(sub_mid, basis64)
    chain = fit_empirical_constants(basis64, sub_mid, gram, 0.25, profile_constant)
    xs = uniform_grid(sub_mid.a, sub_mid.b, 512)
    return {
        "gram": gram,
        "chain": chain,
        "xs": xs,
        "weights": observation_weights(xs, sub_mid, basis64),
        "T": 0.25,
    }


def _pipe_cfg(basis, profile, sub, setup, l2, h01, **kw):
    return PipelineConfig(
        basis, setup["T"], profile, sub, setup["gram"], 32, setup["chain"], l2, h01, **kw
    )


class TestSelectEpsilon:
    def test_closed_form_point(self):
        assert select_epsilon(math.exp(-1.0), 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_monotone_in_delta(self):
        eps = [select_epsilon(d, 0.3, 2.0, 1.0, 1.0) for d in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_minimizes_transfer_objective(self):
        # 1-d minimization oracle: eps* beats 0.5 eps* and 2 eps*
        rng = np.random.default_rng(9)
        for _ in range(50):
            T = float(rng.uniform(0.1, 1.0))
            c3 = float(rng.uniform(0.5, 4.0))
            c4 = float(rng.uniform(0.1, 3.0))
            delta = float(10.0 ** rng.uniform(-8, -2))
            l2 = float(rng.uniform(0.5, 2.0))

            def objective(e):
                return e * l2 + c3 * math.exp(c3 / T) * e ** (-c4) * delta

            star = select_epsilon(delta, T, c3, c4, l2)
            assert objective(star) <= objective(0.5 * star)
            assert objective(star) <= objective(2.0 * star)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            select_epsilon(0.0, 0.3, 1.0, 1.0, 1.0)


class TestAggregatePrefactor:
    def test_single_mode_value(self, unit_domain):
        from heatback import DiffusionProfile

        basis1 = EigenBasis(unit_domain, 1)
        prof = DiffusionProfile.constant(1.0, 0.3)
        assert sw_prefactor(basis1, prof, 0.1) == pytest.approx(
            math.exp(-math.pi**2 * 0.1), rel=1e-14
        )

    def test_partial_sums_converge(self, unit_domain, profile_constant):
        # consecutive partial sums agree to 1e-12 well before N = 64
        vals = [
            sw_prefactor(EigenBasis(unit_domain, n), profile_constant, 0.1)
            for n in range(1, 65)
        ]
        assert abs(vals[63] / vals[40] - 1.0) < 1e-12
        assert vals[63] > vals[0]

    def test_first_order_condition_balance(self, basis64, profile_constant):
        # at the minimizer the two bracket terms agree up to the factor c4
        T, c3, c4, l2, delta = 0.25, 2.0, 1.5, 1.3, 1e-5
        eps = select_epsilon(delta, T, c3, c4, l2)
        noise_term = c3 * math.exp(c3 / T) * eps ** (-c4) * delta
        assert noise_term * c4 == pytest.approx(eps * l2, rel=1e-10)
        total = effective_delta_3T(delta, eps, T, profile_constant, l2, basis64, c3, c4)
        sw = sw_prefactor(basis64, profile_constant, T)
        assert total == pytest.approx(sw * (eps * l2 + noise_term), rel=1e-13)


class TestAssembleFbar:
    def test_zero_observation_gives_zero(self, basis64, sub_mid, profile_constant, local_setup):
        setup = ControlSetup(
            basis64, local_setup["T"], profile_constant, local_setup["gram"],
            eps=1e-3, k=weight_from_chain(local_setup["chain"], local_setup["T"], 1e-3),
        )
        from heatback.control import control_mode_bank

        bank = control_mode_bank(setup, 8)
        fbar, psi_norms, h_norms = assemble_fbar(
            bank, setup, local_setup["xs"], np.zeros(local_setup["xs"].size),
            local_setup["weights"],
        )
        assert fbar.l2() == 0.0
        assert psi_norms.shape == (8,) and h_norms.shape == (8,)

    def test_transfer_contract_noiseless(self, basis64, sub_mid, profile_constant, local_setup):
        # |u(3T) - fbar| <= certified <= claimed with exact data
        T = local_setup["T"]
        u0 = synthesize_initial(basis64, 3.0, 17)
        l2 = u0.l2()
        eps = 1e-4
        setup = ControlSetup(
            basis64, T, profile_constant, local_setup["gram"],
            eps=eps, k=weight_from_chain(local_setup["chain"], T, eps),
        )
        from heatback.control import control_mode_bank

        bank = control_mode_bank(setup, 64)
        xs = local_setup["xs"]
        f_clean = evolve(u0, 0.0, T, profile_constant).evaluate(xs)
        fbar, psi_norms, h_norms = assemble_fbar(bank, setup, xs, f_clean, local_setup["weights"])
        u3T = evolve(u0, 0.0, 3.0 * T, profile_constant)
        certified = certified_delta_3T(setup, psi_norms, h_norms, 1e-300, l2)
        assert (u3T - fbar).l2() <= certified * (1.0 + 1e-6)

    def test_noise_response_bounded_by_control_norms(
        self, basis64, sub_mid, profile_constant, local_setup
    ):
        T = local_setup["T"]
        eps = 1e-3
        setup = ControlSetup(
            basis64, T, profile_constant, local_setup["gram"],
            eps=eps, k=weight_from_chain(local_setup["chain"], T, eps),
        )
        from heatback.control import control_mode_bank

        bank = control_mode_bank(setup, 32)
        xs, w = local_setup["xs"], local_setup["weights"]
        delta = 1e-4
        clean = np.zeros(xs.size)
        noisy = inject_noise(clean, delta, [3, 1], w)
        fb_noisy, psi_norms, h_norms = assemble_fbar(bank, setup, xs, noisy, w)
        fb_clean, _, _ = assemble_fbar(bank, setup, xs, clean, w)
        w23 = profile_constant.integral(2.0 * T, 3.0 * T)
        decay = np.exp(-basis64.eigenvalues[:32] * w23)
        cap = math.sqrt(float(np.sum((decay * h_norms * delta) ** 2)))
        assert (fb_noisy - fb_clean).l2() <= cap * (1.0 + 1e-9)


class TestLocalReconstruct:
    def test_bound_holds_across_sweep(self, basis64, sub_mid, profile_constant, local_setup):
        xs, w = local_setup["xs"], local_setup["weights"]
        medians = []
        bounds_seed0 = []
        for drel in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            errs = []
            for seed in range(3):
                u0 = synthesize_initial(basis64, 3.0, seed)
                l2, h01 = u0.l2(), u0.h01()
                dabs = drel * l2
                cfg = _pipe_cfg(basis64, profile_constant, sub_mid, local_setup, l2, h01)
                noisy = inject_noise(
                    evolve(u0, 0.0, local_setup["T"], profile_constant).evaluate(xs),
                    dabs, [seed, 0, 1], w,
                )
                rep = local_reconstruct(xs, noisy, dabs, cfg)
                err = (u0 - rep.g).l2()
                errs.append(err)
                assert err <= rep.selection.bound
                assert rep.consistency_ok and rep.k_consistent
                if seed == 0:
                    bounds_seed0.append(rep.selection.bound)
            medians.append(float(np.median(errs)))
        # seed-median error must not increase as delta shrinks, and the
        # reported bound must strictly decrease with it
        assert all(a >= b - 1e-12 for a, b in zip(medians, medians[1:]))
        assert all(a > b for a, b in zip(bounds_seed0, bounds_seed0[1:]))

    def test_bound_holds_for_time_dependent_profiles(self, basis64, sub_mid, profile_affine,
                                                     profile_sinusoidal):
        # the transfer aggregate uses the exact diffusivity integral over
        # (2T, 3T); both nonconstant families must stay certified
        T = 0.25
        for prof in (profile_affine, profile_sinusoidal):
            gram = gram_subdomain(sub_mid, basis64)
            chain = fit_empirical_constants(basis64, sub_mid, gram, T, prof)
            xs = uniform_grid(sub_mid.a, sub_mid.b, 512)
            w = observation_weights(xs, sub_mid, basis64)
            for drel in (1e-5, 1e-7):
                u0 = synthesize_initial(basis64, 3.0, 1)
                l2, h01 = u0.l2(), u0.h01()
                dabs = drel * l2
                cfg = PipelineConfig(basis64, T, prof, sub_mid, gram, 32, chain, l2, h01)
                noisy = inject_noise(evolve(u0, 0.0, T, prof).evaluate(xs), dabs, [1, 0, 1], w)
                rep = local_reconstruct(xs, noisy, dabs, cfg)
                assert (u0 - rep.g).l2() <= rep.selection.bound
                assert rep.consistency_ok and rep.k_consistent

    def test_linearity_in_observation(self, basis64, sub_mid, profile_constant, local_setup):
        xs = local_setup["xs"]
        rng = np.random.default_rng(0)
        f1 = 1e-3 * rng.standard_normal(xs.size)
        f2 = 1e-3 * rng.standard_normal(xs.size)
        cfg = _pipe_cfg(basis64, profile_constant, sub_mid, local_setup, 1.0, math.pi)
        d = 1e-5
        g12 = local_reconstruct(xs, f1 + f2, d, cfg).g
        g1 = local_reconstruct(xs, f1, d, cfg).g
        g2 = local_reconstruct(xs, f2, d, cfg).g
        g0 = local_reconstruct(xs, np.zeros(xs.size), d, cfg).g
        gap = (g12 + g0 - (g1 + g2)).l2()
        assert gap <= 1e-12 * max(g1.l2(), g2.l2(), 1e-300)

    def test_gate_reported_not_raised(self, basis64, sub_mid, profile_constant, local_setup):
        # large delta pushes the claimed transfer noise past the 3T gate
        xs, w = local_setup["xs"], local_setup["weights"]
        u0 = synthesize_initial(basis64, 3.0, 5)
        l2, h01 = u0.l2(), u0.h01()
        dabs = 1e-2 * l2
        cfg = _pipe_cfg(basis64, profile_constant, sub_mid, local_setup, l2, h01)
        noisy = inject_noise(
            evolve(u0, 0.0, local_setup["T"], profile_constant).evaluate(xs), dabs, [5, 0, 1], w
        )
        rep = local_reconstruct(xs, noisy, dabs, cfg)
        assert rep.selection.gate_zero and rep.g.l2() == 0.0
        assert (u0 - rep.g).l2() <= rep.selection.bound

    def test_full_domain_matches_global_within_factor(
        self, basis64, unit_domain, profile_constant
    ):
        sub = Subdomain.full(unit_domain)
        gram = gram_subdomain(sub, basis64)
        T = 0.25
        chain = fit_empirical_constants(basis64, sub, gram, T, profile_constant)
        xs = uniform_grid(0.0, 1.0, 1024)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        for seed in range(3):
            u0 = synthesize_initial(basis64, 3.0, seed)
            l2, h01 = u0.l2(), u0.h01()
            dabs = 1e-8 * l2
            noisy = inject_noise(
                evolve(u0, 0.0, T, profile_constant).evaluate(xs), dabs, [seed, 0, 0], w
            )
            g_dir, _ = global_backward(xs, noisy, basis64, T, profile_constant, dabs, l2, h01)
            cfg = PipelineConfig(basis64, T, profile_constant, sub, gram, 64, chain, l2, h01)
            rep = local_reconstruct(xs, noisy, dabs, cfg)
            assert (u0 - rep.g).l2() <= 10.0 * (u0 - g_dir).l2()

    def test_ideal_bank_reduces_to_global_data_path(
        self, basis64, unit_domain, profile_constant
    ):
        # with omega = Omega and the exact-identity bank, fbar equals the
        # forward evolution of the projected data to 3T up to quadrature error
        sub = Subdomain.full(unit_domain)
        gram = gram_subdomain(sub, basis64)
        T = 0.25
        setup = ControlSetup(basis64, T, profile_constant, gram, eps=1e-3, k=1.0)
        xs = uniform_grid(0.0, 1.0, 1024)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        u0 = synthesize_initial(basis64, 3.0, 11)
        f_vals = evolve(u0, 0.0, T, profile_constant).evaluate(xs)
        dT2T = setup.decay_T_to_2T
        bank = []
        for i in range(64):
            b = np.zeros(64)
            b[i] = -dT2T[i]
            psi = setup.decay_to_2T * np.eye(64)[i] + setup.decay_to_T * b
            bank.append(ControlSolution(np.zeros(64), b, psi, 0.0, 0.0))
        E = basis64.eigenfunction_matrix(xs)
        w23 = profile_constant.integral(2.0 * T, 3.0 * T)
        decay23 = np.exp(-basis64.eigenvalues * w23)
        coeffs = np.array(
            [-decay23[i] * float(np.sum(w * (E @ bank[i].b) * f_vals)) for i in range(64)]
        )
        fbar = SpectralField(basis64, coeffs)
        direct = evolve(project(xs, f_vals, basis64), T, 3.0 * T, profile_constant)
        assert (fbar - direct).l2() <= 1e-8

    def test_sabotaged_weight_is_flagged(self, basis64, sub_mid, profile_constant, local_setup):
        xs, w = local_setup["xs"], local_setup["weights"]
        u0 = synthesize_initial(basis64, 3.0, 1)
        l2, h01 = u0.l2(), u0.h01()
        dabs = 1e-5 * l2
        cfg = _pipe_cfg(
            basis64, profile_constant, sub_mid, local_setup, l2, h01, k_scale=1e-9
        )
        noisy = inject_noise(
            evolve(u0, 0.0, local_setup["T"], profile_constant).evaluate(xs), dabs, [1, 0, 1], w
        )
        rep = local_reconstruct(xs, noisy, dabs, cfg)
        assert not rep.k_consistent

    def test_rejects_delta_at_prior(self, basis64, sub_mid, profile_constant, local_setup):
        cfg = _pipe_cfg(basis64, profile_constant, sub_mid, local_setup, 1.0, math.pi)
        with pytest.raises(ConfigError):
            local_reconstruct(local_setup["xs"], np.zeros(local_setup["xs"].size), 1.0, cfg)

    def test_rejects_coarse_observation_grid(self, basis64, sub_mid, profile_constant,
                                             local_setup):
        xs = uniform_grid(sub_mid.a, sub_mid.b, 64)
        cfg = _pipe_cfg(basis64, profile_constant, sub_mid, local_setup, 1.0, math.pi)
        with pytest.raises(ConfigError, match="coarse"):
            local_reconstruct(xs, np.zeros(xs.size), 1e-4, cfg)


class TestPaperZeta:
    def test_log_argument_simplifies(self, basis64, sub_mid, profile_constant, local_setup):
        # with the transfer-aware zeta the bound's log argument becomes
        # sqrt(3) (l2/delta)^{1/(1+c4)} at the minimizing epsilon
        chain = local_setup["chain"]
        T = local_setup["T"]
        l2, delta = 1.3, 1e-6
        eps = select_epsilon(delta, T, chain.c3, chain.c4, l2)
        claimed = effective_delta_3T(
            delta, eps, T, profile_constant, l2, basis64, chain.c3, chain.c4
        )
        zeta = paper_zeta(basis64, profile_constant, T, chain.c3, chain.c4)
        arg = math.sqrt(2.0 * zeta * basis64.lambda1 * profile_constant.p2 * 3.0 * T) * l2 / claimed
        k1 = 1.0 / (1.0 + chain.c4)
        assert arg == pytest.approx(math.sqrt(3.0) * (l2 / delta) ** k1, rel=1e-10)
