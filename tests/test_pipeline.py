"""Subdomain-to-initial-state pipeline: transfer, certification, inversion."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatback import (
    ConfigError,
    DiffusionProfile,
    PipelineConfig,
    SpectralField,
    Subdomain,
    evolve,
    fit_empirical_constants,
    global_backward,
    gram_subdomain,
    local_reconstruct,
    select_epsilon,
    synthesize_initial,
    uniform_grid,
)
from heatback import pipeline
from heatback.control import ControlSetup, ControlSolution, control_mode_bank
from heatback.harness import Run, inject_noise, parse_config_text
from heatback.pipeline import (
    assemble_fbar,
    certified_delta_3T,
    control_setup,
    transfer_claim,
    weight_from_chain,
)
from heatback.spectral import EigenBasis, observation_weights, project, simpson_weights


@pytest.fixture(scope="module")
def sub_mid():
    return Subdomain(0.3, 0.7)


@pytest.fixture(scope="module")
def local_setup(basis64, sub_mid, profile_constant):
    # the Gram matrix of the Simpson rule on the samples, as the commands build it
    xs = uniform_grid(sub_mid.a, sub_mid.b, 512)
    weights = observation_weights(xs, sub_mid, basis64)
    gram = gram_subdomain(xs, weights, basis64)
    return {
        "gram": gram,
        "chain": fit_empirical_constants(basis64, gram, 0.25, profile_constant),
        "xs": xs,
        "weights": weights,
        "T": 0.25,
    }


def _pipe_cfg(basis, profile, setup, l2, h01):
    return PipelineConfig(
        basis, setup["T"], profile, setup["xs"], setup["weights"], setup["gram"], 32,
        setup["chain"], l2, h01,
    )


def _claim_cfg(basis, profile, T, c3=1.0, c4=1.0, l2=1.0):
    """A PipelineConfig holding only what transfer_claim reads: the basis, the
    profile, T, the chain's c3 and c4, and the L2 prior."""
    return PipelineConfig(
        basis, T, profile, None, None, None, 1, SimpleNamespace(c3=c3, c4=c4), l2, 1.0
    )


def _sw(basis, profile, T):
    """S_w as transfer_claim computes it: the claim at eps = l2 = 1 and delta = 0."""
    return transfer_claim(_claim_cfg(basis, profile, T), 1.0, 0.0)[0]


DEMO_64 = """
length = 1.0
T = 0.25
delta_list = 1e-4
omega_a = 0.3
omega_b = 0.7
modes = 64
constants_mode = empirical
"""

# CI's narrow.cfg: omega (0.45, 0.55) at T 0.05 and N 128, 206 omega panels
NARROW_128 = """
length = 1.0
T = 0.05
delta_list = 1e-4, 1e-8, 1e-12
omega_a = 0.45
omega_b = 0.55
modes = 128
constants_mode = empirical
"""

# the README demo, its affine and sinusoidal profiles, T 0.01 at N 128, and the
# sinusoidal profile on L 2 with omega (0.5, 1.6) at N 97 (CI's wide.cfg)
CONTRACT_GEOMETRIES = (
    DEMO_64,
    DEMO_64 + "profile = affine\n",
    DEMO_64 + "profile = sinusoidal\n",
    DEMO_64.replace("T = 0.25", "T = 0.01").replace("modes = 64", "modes = 128"),
    DEMO_64.replace("length = 1.0", "length = 2.0").replace("omega_a = 0.3", "omega_a = 0.5")
    .replace("omega_b = 0.7", "omega_b = 1.6").replace("modes = 64", "modes = 97")
    + "profile = sinusoidal\n",
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
        basis1 = EigenBasis(unit_domain, 1)
        prof = DiffusionProfile.constant(1.0, 0.3)
        assert _sw(basis1, prof, 0.1) == pytest.approx(
            math.exp(-math.pi**2 * 0.1), rel=1e-14
        )

    def test_partial_sums_converge(self, unit_domain, profile_constant):
        # consecutive partial sums agree to 1e-12 well before N = 64
        vals = [
            _sw(EigenBasis(unit_domain, n), profile_constant, 0.1)
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
        total, _ = transfer_claim(_claim_cfg(basis64, profile_constant, T, c3, c4, l2), eps, delta)
        sw = _sw(basis64, profile_constant, T)
        assert total == pytest.approx(sw * (eps * l2 + noise_term), rel=1e-13)

    def test_underflow_names_T(self, basis64):
        # exp(-2 pi^2 T) underflows to 0 for T = 40, and the higher modes sooner
        cfg = _claim_cfg(basis64, DiffusionProfile.constant(1.0, 120.0), 40.0)
        with pytest.raises(ConfigError) as caught:
            transfer_claim(cfg, 1.0, 1e-4)
        assert str(caught.value) == (
            "T = 40.0 too large: every decay factor from 2T to 3T underflows to 0")


class TestAssembleFbar:
    def test_zero_observation_gives_zero(self, basis64, sub_mid, profile_constant, local_setup):
        setup = ControlSetup(
            basis64, local_setup["T"], profile_constant, local_setup["gram"],
            eps=1e-3, k=weight_from_chain(local_setup["chain"], local_setup["T"], 1e-3),
        )
        bank = control_mode_bank(setup, 8)
        fbar, h_norms = assemble_fbar(
            bank, setup, local_setup["xs"], np.zeros(local_setup["xs"].size),
            local_setup["weights"],
        )
        assert fbar.l2() == 0.0
        assert h_norms.shape == (8,)

    def test_transfer_contract_noiseless(self):
        # |u(3T) - fbar| <= certified with exact data, on the sweep's own omega
        # grid (410 panels at N 64) and the Gram matrix it builds there; 7.66e-12
        # is the eps that relative noise 1e-12 selects, where a Gram matrix of
        # another inner product than the samples' left 1.5e3 times the aggregate
        run = Run(parse_config_text(DEMO_64))
        T, profile, basis = run.cfg.T, run.profile, run.basis
        u0 = synthesize_initial(basis, 3.0, 17)
        pipe = run.pipeline(u0.l2(), u0.h01())
        xs, weights = pipe.xs, pipe.weights
        assert xs.size == 411
        f_clean = evolve(u0, 0.0, T, profile).evaluate(xs)
        u3T = evolve(u0, 0.0, 3.0 * T, profile)
        for eps in (1e-4, 1e-8, 7.66e-12):
            setup = ControlSetup(basis, T, profile, pipe.gram, eps=eps,
                                 k=weight_from_chain(pipe.chain, T, eps))
            bank = control_mode_bank(setup, 64)
            fbar, h_norms = assemble_fbar(bank, setup, xs, f_clean, weights)
            certified = certified_delta_3T(setup, bank, h_norms, 1e-300, u0.l2())
            assert (u3T - fbar).l2() <= certified * (1.0 + 1e-6), eps

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(text=st.sampled_from(CONTRACT_GEOMETRIES), log_delta=st.floats(-12.0, -4.0),
           trial=st.integers(0, 5))
    def test_transfer_contract_on_the_sweep_geometries(self, text, log_delta, trial):
        # the sweep's own setup at relative noise 10^log_delta down to 1e-12:
        # with float64 samples of u(T), whose rounding is far below that noise,
        # |u(3T) - fbar| stays within the certified aggregate
        run = Run(parse_config_text(text))
        u0 = run.truth(trial)
        l2 = u0.l2()
        delta = 10.0**log_delta * l2
        pipe = run.pipeline(l2, u0.h01())
        setup = control_setup(pipe, delta)
        bank = control_mode_bank(setup, run.cfg.bank)
        f_clean = evolve(u0, 0.0, run.cfg.T, run.profile).evaluate(pipe.xs)
        fbar, h_norms = assemble_fbar(bank, setup, pipe.xs, f_clean, pipe.weights)
        u3T = evolve(u0, 0.0, 3.0 * run.cfg.T, run.profile)
        assert (u3T - fbar).l2() <= certified_delta_3T(setup, bank, h_norms, delta, l2)

    def test_quadrature_norms_match_a_50_digit_sum(self):
        # |h_i|_quad, which the certificate reads, is the samples' Simpson sum:
        # on the narrow omega at relative noise 1e-12 it stays within 1e-11 of
        # the sum at 50 digits from the same c, D_T, k, xs and w (2e-13 on mode
        # 9), where the Gram form k^2 sqrt((D_T c)' G (D_T c)) reads 9.8e-7 low
        import mpmath  # a test dependency only; the other tests run without it

        run = Run(parse_config_text(NARROW_128))
        u0 = run.truth(0)
        l2 = u0.l2()
        pipe = run.pipeline(l2, u0.h01())
        setup = control_setup(pipe, run.cfg.delta_list[2] * l2)
        bank = control_mode_bank(setup, run.cfg.bank)
        values = evolve(u0, 0.0, run.cfg.T, run.profile).evaluate(pipe.xs)
        _, h_qnorms = assemble_fbar(bank, setup, pipe.xs, values, pipe.weights)
        m, L = setup.active, run.basis.domain.length
        assert 1 <= m < len(bank)
        with mpmath.workdps(50):
            scale = mpmath.sqrt(mpmath.mpf(2) / L)
            sines = [[scale * mpmath.sin(j * mpmath.pi * mpmath.mpf(float(x)) / L)
                      for j in range(1, m + 1)] for x in pipe.xs]
            k2 = mpmath.mpf(setup.k) ** 2
            for i, sol in enumerate(bank):
                dTc = [mpmath.mpf(float(setup.decay_to_T[j])) * mpmath.mpf(float(sol.c[j]))
                       for j in range(m)]
                h = [-k2 * mpmath.fsum(row[j] * dTc[j] for j in range(m)) for row in sines]
                exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(wk)) * hk**2
                                                for wk, hk in zip(pipe.weights, h)))
                assert abs(mpmath.mpf(float(h_qnorms[i])) - exact) <= 1e-11 * exact, i

    def test_noise_response_bounded_by_control_norms(
        self, basis64, sub_mid, profile_constant, local_setup
    ):
        T = local_setup["T"]
        eps = 1e-3
        setup = ControlSetup(
            basis64, T, profile_constant, local_setup["gram"],
            eps=eps, k=weight_from_chain(local_setup["chain"], T, eps),
        )
        bank = control_mode_bank(setup, 32)
        xs, w = local_setup["xs"], local_setup["weights"]
        delta = 1e-4
        clean = np.zeros(xs.size)
        noisy = inject_noise(clean, delta, [3, 1], w)
        fb_noisy, h_norms = assemble_fbar(bank, setup, xs, noisy, w)
        fb_clean, _ = assemble_fbar(bank, setup, xs, clean, w)
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
                cfg = _pipe_cfg(basis64, profile_constant, local_setup, l2, h01)
                noisy = inject_noise(
                    evolve(u0, 0.0, local_setup["T"], profile_constant).evaluate(xs),
                    dabs, [seed, 0, 1], w,
                )
                rep = local_reconstruct(noisy, dabs, cfg)
                err = (u0 - rep.g).l2()
                errs.append(err)
                assert err <= rep.selection.bound
                assert rep.consistency_ok
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
            xs = uniform_grid(sub_mid.a, sub_mid.b, 512)
            w = observation_weights(xs, sub_mid, basis64)
            gram = gram_subdomain(xs, w, basis64)
            chain = fit_empirical_constants(basis64, gram, T, prof)
            for drel in (1e-5, 1e-7):
                u0 = synthesize_initial(basis64, 3.0, 1)
                l2, h01 = u0.l2(), u0.h01()
                dabs = drel * l2
                cfg = PipelineConfig(basis64, T, prof, xs, w, gram, 32, chain, l2, h01)
                noisy = inject_noise(evolve(u0, 0.0, T, prof).evaluate(xs), dabs, [1, 0, 1], w)
                rep = local_reconstruct(noisy, dabs, cfg)
                assert (u0 - rep.g).l2() <= rep.selection.bound
                assert rep.consistency_ok

    def test_linearity_in_observation(self, basis64, sub_mid, profile_constant, local_setup):
        xs = local_setup["xs"]
        rng = np.random.default_rng(0)
        f1 = 1e-3 * rng.standard_normal(xs.size)
        f2 = 1e-3 * rng.standard_normal(xs.size)
        cfg = _pipe_cfg(basis64, profile_constant, local_setup, 1.0, math.pi)
        d = 1e-5
        g12 = local_reconstruct(f1 + f2, d, cfg).g
        g1 = local_reconstruct(f1, d, cfg).g
        g2 = local_reconstruct(f2, d, cfg).g
        g0 = local_reconstruct(np.zeros(xs.size), d, cfg).g
        gap = (g12 + g0 - (g1 + g2)).l2()
        assert gap <= 1e-12 * max(g1.l2(), g2.l2(), 1e-300)

    def test_gate_reported_not_raised(self, basis64, sub_mid, profile_constant, local_setup):
        # large delta pushes the claimed transfer noise past the 3T gate
        xs, w = local_setup["xs"], local_setup["weights"]
        u0 = synthesize_initial(basis64, 3.0, 5)
        l2, h01 = u0.l2(), u0.h01()
        dabs = 1e-2 * l2
        cfg = _pipe_cfg(basis64, profile_constant, local_setup, l2, h01)
        noisy = inject_noise(
            evolve(u0, 0.0, local_setup["T"], profile_constant).evaluate(xs), dabs, [5, 0, 1], w
        )
        rep = local_reconstruct(noisy, dabs, cfg)
        assert rep.selection.gate_zero and rep.g.l2() == 0.0
        assert (u0 - rep.g).l2() <= rep.selection.bound

    def test_full_domain_matches_global_within_factor(
        self, basis64, unit_domain, profile_constant
    ):
        T = 0.25
        xs = uniform_grid(0.0, 1.0, 1024)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        gram = gram_subdomain(xs, w, basis64)
        chain = fit_empirical_constants(basis64, gram, T, profile_constant)
        for seed in range(3):
            u0 = synthesize_initial(basis64, 3.0, seed)
            l2, h01 = u0.l2(), u0.h01()
            dabs = 1e-8 * l2
            noisy = inject_noise(
                evolve(u0, 0.0, T, profile_constant).evaluate(xs), dabs, [seed, 0, 0], w
            )
            g_dir, _ = global_backward(xs, noisy, basis64, T, profile_constant, dabs, l2, h01)
            cfg = PipelineConfig(basis64, T, profile_constant, xs, w, gram, 64, chain, l2, h01)
            rep = local_reconstruct(noisy, dabs, cfg)
            assert (u0 - rep.g).l2() <= 10.0 * (u0 - g_dir).l2()

    def test_ideal_bank_reduces_to_global_data_path(
        self, basis64, unit_domain, profile_constant
    ):
        # with omega = Omega and the exact-identity bank, fbar equals the
        # forward evolution of the projected data to 3T up to quadrature error
        T = 0.25
        xs = uniform_grid(0.0, 1.0, 1024)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        setup = ControlSetup(basis64, T, profile_constant, gram_subdomain(xs, w, basis64),
                             eps=1e-3, k=1.0)
        u0 = synthesize_initial(basis64, 3.0, 11)
        f_vals = evolve(u0, 0.0, T, profile_constant).evaluate(xs)
        dT2T = basis64.decay(profile_constant, T, 2.0 * T)
        bank = []
        for i in range(64):
            b = np.zeros(64)
            b[i] = -dT2T[i]
            psi = setup.decay_to_2T * np.eye(64)[i] + setup.decay_to_T * b
            bank.append(ControlSolution(np.zeros(64), b, psi, 0.0))
        E = basis64.eigenfunction_matrix(xs)
        w23 = profile_constant.integral(2.0 * T, 3.0 * T)
        decay23 = np.exp(-basis64.eigenvalues * w23)
        coeffs = np.array(
            [-decay23[i] * float(np.sum(w * (E @ bank[i].b) * f_vals)) for i in range(64)]
        )
        fbar = SpectralField(basis64, coeffs)
        direct = evolve(project(xs, f_vals, basis64), T, 3.0 * T, profile_constant)
        assert (fbar - direct).l2() <= 1e-8

    def test_sabotaged_weight_is_flagged(
        self, basis64, sub_mid, profile_constant, local_setup, monkeypatch
    ):
        # a bank built with 1e-9 times the chain's weight leaves controls too
        # large for the claimed aggregate, and the certified one shows it
        monkeypatch.setattr(
            pipeline, "weight_from_chain", lambda c, T, e: 1e-9 * weight_from_chain(c, T, e)
        )
        xs, w = local_setup["xs"], local_setup["weights"]
        u0 = synthesize_initial(basis64, 3.0, 1)
        l2, h01 = u0.l2(), u0.h01()
        dabs = 1e-5 * l2
        cfg = _pipe_cfg(basis64, profile_constant, local_setup, l2, h01)
        noisy = inject_noise(
            evolve(u0, 0.0, local_setup["T"], profile_constant).evaluate(xs), dabs, [1, 0, 1], w
        )
        rep = local_reconstruct(noisy, dabs, cfg)
        assert rep.certified_delta > rep.claimed_delta
        assert not rep.consistency_ok

    def test_rejects_delta_at_prior(self, basis64, sub_mid, profile_constant, local_setup):
        cfg = _pipe_cfg(basis64, profile_constant, local_setup, 1.0, math.pi)
        with pytest.raises(ConfigError):
            local_reconstruct(np.zeros(local_setup["xs"].size), 1.0, cfg)

    def test_rejects_coarse_observation_grid(self, sub_mid):
        # the samples' grid is checked where the reconstruction's data are built
        run = Run(parse_config_text(DEMO_64))
        xs = uniform_grid(sub_mid.a, sub_mid.b, 64)
        with pytest.raises(ConfigError, match="coarse"):
            run.pipeline(1.0, math.pi, xs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["xs", "values", "delta"])
    def test_rejects_non_finite_input(self, arg, bad, basis64, profile_constant, local_setup):
        # a non-finite sample position fails Run.pipeline's grid check, a
        # non-finite sample or noise level local_reconstruct's finiteness check
        if arg == "xs":
            run = Run(parse_config_text(DEMO_64))
            xs = run.pipeline(1.0, math.pi).xs.copy()
            xs[7] = bad
            with pytest.raises(ConfigError, match="samples must lie on a uniform grid"):
                run.pipeline(1.0, math.pi, xs)
            return
        args = {"values": np.ones(local_setup["xs"].size), "delta": 1e-4}
        if arg == "delta":
            args["delta"] = bad
            label = "delta"
        else:
            args[arg][7] = bad
            label = rf"{arg}\[7\]"
        cfg = _pipe_cfg(basis64, profile_constant, local_setup, 1.0, math.pi)
        with pytest.raises(ValueError, match=rf"local_reconstruct: {label} = .* is not finite"):
            local_reconstruct(args["values"], args["delta"], cfg)


class TestPaperZeta:
    def test_log_argument_simplifies(self, basis64, sub_mid, profile_constant, local_setup):
        # with the transfer-aware zeta the bound's log argument becomes
        # sqrt(3) (l2/delta)^{1/(1+c4)} at the minimizing epsilon
        chain = local_setup["chain"]
        T = local_setup["T"]
        l2, delta = 1.3, 1e-6
        eps = select_epsilon(delta, T, chain.c3, chain.c4, l2)
        cfg = _pipe_cfg(basis64, profile_constant, local_setup, l2, math.pi)
        claimed, zeta = transfer_claim(cfg, eps, delta)
        arg = math.sqrt(2.0 * zeta * basis64.lambda1 * profile_constant.p2 * 3.0 * T) * l2 / claimed
        k1 = 1.0 / (1.0 + chain.c4)
        assert arg == pytest.approx(math.sqrt(3.0) * (l2 / delta) ** k1, rel=1e-10)

    def test_overflow_names_T_and_the_chain(self, basis64, profile_constant):
        # c3 / T = 1200 puts 2 ln P past 700, where P^2 overflows; the claim's
        # control-norm ceiling at the minimizing eps stays finite
        T, c3, c4 = 0.25, 300.0, 1.0
        two_ln_P = 2.0 * (math.log(_sw(basis64, profile_constant, T)) + math.log(2.0)
                          + 0.5 * (math.log(c3) + c3 / T))
        eps = select_epsilon(1e-4, T, c3, c4, 1.0)
        with pytest.raises(ConfigError) as caught:
            transfer_claim(_claim_cfg(basis64, profile_constant, T, c3, c4), eps, 1e-4)
        assert f"2 ln P = {two_ln_P:.6g} > 700" in str(caught.value)
        assert str(caught.value).startswith(
            "T = 0.25 too small for the constants chain (c3 = 300, c4 = 1): ")


class TestSampleGridCheck:
    """project and Run.pipeline run one Simpson-grid check, with one tolerance."""

    @pytest.mark.parametrize("defect", [None, "shifted ends", "moved point", "odd panels", "coarse"])
    def test_both_callers_give_one_verdict(self, defect, basis16, unit_domain, profile_constant):
        L, panels = unit_domain.length, 8 * basis16.size
        xs = uniform_grid(0.0, L, panels)
        if defect == "shifted ends":
            xs = xs + 1e-10 * L
        elif defect == "moved point":
            xs[5] += 0.3 * (xs[1] - xs[0])
        elif defect == "odd panels":
            xs = np.linspace(0.0, L, panels + 2)
        elif defect == "coarse":
            xs = uniform_grid(0.0, L, panels - 2)
        u0 = synthesize_initial(basis16, 3.0, 5)
        values = evolve(u0, 0.0, 0.25, profile_constant).evaluate(xs)
        # the full domain at N 16, whose omega grid has 256 panels: every xs
        # here is off it, so Run.pipeline checks it and builds its Gram matrix
        run = Run(parse_config_text("length = 1.0\nT = 0.25\ndelta_list = 1e-4\nmodes = 16\n"))
        l2, h01 = u0.l2(), u0.h01()
        verdicts = []
        for call in (
            lambda: project(xs, values, basis16),
            lambda: local_reconstruct(values, 1e-4 * l2, run.pipeline(l2, h01, xs)),
        ):
            try:
                call()
                verdicts.append(None)
            except ConfigError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]
        assert (verdicts[0] is None) == (defect is None), verdicts[0]

    @pytest.mark.parametrize(
        "move, message",
        [(0.9e-9, None), (1.1e-9, "samples must lie on a uniform grid"),
         (math.nan, "samples must lie on a uniform grid")],
    )
    def test_edges_of_the_uniformity_check(self, move, message, basis16, unit_domain):
        # one point moved by a fraction of L against the tolerance 1e-9 L, or nan
        L = unit_domain.length
        xs = uniform_grid(0.0, L, 8 * basis16.size)
        xs[5] += move * L
        sub = Subdomain.full(unit_domain)
        if message is None:
            observation_weights(xs, sub, basis16)
        else:
            with pytest.raises(ConfigError) as info:
                observation_weights(xs, sub, basis16)
            assert str(info.value) == message

    def test_shifted_omega_grid_is_rejected(self, basis64, sub_mid, local_setup):
        xs = local_setup["xs"] + 1e-10
        with pytest.raises(ConfigError, match=r"samples must span \[0.3, 0.7\]"):
            observation_weights(xs, sub_mid, basis64)
