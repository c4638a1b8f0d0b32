"""Scalar selection machinery and the capped-gain backward solver."""

import math

import numpy as np
import pytest

from heatback import (
    ConfigError,
    SpectralField,
    apply_filter,
    eval_A,
    evolve,
    global_backward,
    invert_B,
    project,
    select_alpha,
    synthesize_initial,
    truncation_baseline,
    uniform_grid,
)
from heatback.harness import inject_noise
from heatback.spectral import simpson_weights
from oracles import eval_B, invert_A_increasing, worst_tail_factor


class TestScalarMachinery:
    def test_A_values(self):
        assert eval_A(0.0) == 1.0
        assert eval_A(0.5) == pytest.approx(math.sqrt(math.e) / 2.0, abs=1e-15)
        assert eval_A(1.0) == pytest.approx(math.e / 3.0, rel=1e-15)

    def test_B_values_and_monotonicity(self):
        assert eval_B(1.0) == pytest.approx(math.e, rel=1e-15)
        assert eval_B(2.0) == pytest.approx(math.sqrt(2.0) * math.e**2, rel=1e-15)
        xs = np.linspace(0.01, 20.0, 200)
        vals = [eval_B(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_invert_B_known_points(self):
        assert invert_B(math.e) == pytest.approx(1.0, rel=1e-13)
        assert invert_B(math.sqrt(2.0) * math.e**2) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("y", [math.inf, math.nan, 0.0, -1.0])
    def test_invert_B_rejects_non_finite_and_nonpositive(self, y):
        with pytest.raises(ValueError, match="finite y > 0"):
            invert_B(y)

    def test_invert_B_round_trip_over_18_decades(self):
        for y in np.logspace(-6, 12, 55):
            x = invert_B(float(y))
            assert abs(eval_B(x) - y) <= 1e-12 * y
        # in log form out to both ends: (y/3)**2 overflows above ~5e154, and
        # below ~4e-10 Newton on x overshoots below zero
        for y in np.concatenate([np.logspace(-150, 300, 901), np.logspace(-10, -9, 201)]):
            x = invert_B(float(y))
            assert abs(0.5 * math.log(x) + x - math.log(y)) <= 1e-12

    @pytest.mark.parametrize("y", [1e-155, 1e-200, 5e-324])
    def test_invert_B_rejects_underflowing_root(self, y):
        with pytest.raises(ValueError, match="underflows"):
            invert_B(y)

    def test_invert_A_known_points(self):
        assert invert_A_increasing(math.e / 3.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert invert_A_increasing(eval_A(5.0), 2.0) == pytest.approx(5.0, rel=1e-12)

    def test_invert_A_round_trip_on_branch(self):
        for x in np.linspace(0.5, 50.0, 100):
            back = invert_A_increasing(eval_A(float(x)), 0.0)
            assert abs(back - x) <= 1e-12 * max(1.0, x)

    def test_invert_A_rejects_below_floor(self):
        with pytest.raises(ValueError):
            invert_A_increasing(0.5, 0.0)  # below sqrt(e)/2

    def test_invert_A_respects_lower(self):
        # beta = A(0.6) but with branch floor at 2: no solution there
        with pytest.raises(ValueError):
            invert_A_increasing(eval_A(0.6), 2.0)


class TestSelectAlpha:
    def test_composed_example(self, basis64, profile_constant):
        # sqrt(p2 T) h01 / delta = e gives B^{-1} = 1 and alpha = A(1) = e/3;
        # T small enough that the cap sits above A(lambda_1 p2 T)
        T = 0.05
        h01 = 2.0
        delta = math.sqrt(profile_constant.p2 * T) * h01 / math.e
        sel = select_alpha(T, profile_constant, basis64.lambda1, h01, delta, l2_prior=10.0 * delta)
        assert not sel.gate_zero
        assert sel.alpha == pytest.approx(math.e / 3.0, rel=1e-12)
        # zeta enters the bound alone: a second zeta keeps alpha and the gate
        other = select_alpha(T, profile_constant, basis64.lambda1, h01, delta,
                             l2_prior=10.0 * delta, zeta=4.0 * sel.zeta)
        assert (other.alpha, other.gate_zero) == (sel.alpha, sel.gate_zero)
        assert other.bound != sel.bound

    def test_gate_when_noise_dominates(self, basis64, profile_constant):
        sel = select_alpha(0.5, profile_constant, basis64.lambda1, 1.0, 0.9, 1.0)
        assert sel.gate_zero and sel.alpha is None

    def test_alpha_increases_as_delta_shrinks(self, basis64, profile_constant):
        alphas = [
            select_alpha(0.5, profile_constant, basis64.lambda1, 2.0, d, 1.0).alpha
            for d in (1e-3, 1e-5, 1e-7)
        ]
        assert alphas[0] < alphas[1] < alphas[2]

    def test_rejects_tiny_zeta(self, basis64, profile_constant):
        with pytest.raises(ConfigError, match="log-argument"):
            select_alpha(0.5, profile_constant, basis64.lambda1, 2.0, 1e-3, 1.0, zeta=1e-18)

    def test_noise_at_prior_gates_with_larger_zeta(self, basis64, profile_constant):
        # delta = l2 sits exactly on the default zeta's validity boundary:
        # rejected there, gated for any strictly larger zeta
        lam1 = basis64.lambda1
        with pytest.raises(ConfigError, match="log-argument"):
            select_alpha(0.5, profile_constant, lam1, 2.0, 1.0, 1.0)
        zeta = 2.0 / (2.0 * lam1 * profile_constant.p2 * 0.5)
        sel = select_alpha(0.5, profile_constant, lam1, 2.0, 1.0, 1.0, zeta=zeta)
        assert sel.gate_zero

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        "horizon", "lambda1", "h01_prior", "effective_delta", "l2_prior", "zeta",
    ])
    def test_rejects_non_finite_input_naming_it(self, name, bad, basis64, profile_constant):
        args = dict(horizon=0.5, lambda1=basis64.lambda1, h01_prior=2.0,
                    effective_delta=1e-4, l2_prior=1.0, zeta=None)
        args[name] = bad
        with pytest.raises(ValueError, match=f"select_alpha: {name} = .* is not finite"):
            select_alpha(profile=profile_constant, **args)

    def test_default_zeta_matches_simplified_bound(self, basis64, profile_constant):
        # with zeta = 1/(2 lambda1 p2 T) the log argument is exactly l2/delta
        T, h01, l2, delta = 0.5, 2.0, 1.0, 1e-4
        sel = select_alpha(T, profile_constant, basis64.lambda1, h01, delta, l2)
        expected = math.sqrt(profile_constant.p2 * T + 0.5 / basis64.lambda1) * h01 / math.sqrt(
            math.log(l2 / delta)
        )
        assert sel.bound == pytest.approx(expected, rel=1e-13)
        assert sel.log_argument == pytest.approx(l2 / delta, rel=1e-13)


class TestApplyFilter:
    def test_gain_capped_on_first_mode(self, basis16, profile_constant):
        # e^{lambda_1 * 0.1} = 2.683 > 2, so the mode-1 gain is the cap
        f = SpectralField.unit_mode(basis16, 1)
        out = apply_filter(f, 2.0, 0.1, profile_constant)
        assert out.coeffs[0] == pytest.approx(2.0, rel=1e-14)

    def test_uncapped_inverts_exactly(self, basis16, profile_constant):
        u = synthesize_initial(basis16, 2.0, 3)
        uT = evolve(u, 0.0, 0.05, profile_constant)
        out = apply_filter(uT, 1e12, 0.05, profile_constant)
        small = basis16.eigenvalues * 0.05 <= 25.0
        np.testing.assert_allclose(out.coeffs[small], u.coeffs[small], rtol=1e-12)

    def test_zero_maps_to_zero(self, basis16, profile_constant):
        out = apply_filter(SpectralField.zero(basis16), 5.0, 0.3, profile_constant)
        assert out.l2() == 0.0

    def test_stability_lipschitz_in_data(self, basis64, profile_constant):
        rng = np.random.default_rng(1)
        alpha, tau = 37.0, 0.4
        for _ in range(20):
            f1 = SpectralField(basis64, rng.standard_normal(64))
            f2 = SpectralField(basis64, rng.standard_normal(64))
            d_out = (
                apply_filter(f1, alpha, tau, profile_constant)
                - apply_filter(f2, alpha, tau, profile_constant)
            ).l2()
            assert d_out <= alpha * (f1 - f2).l2() * (1.0 + 1e-12)

    def test_gains_bounded_by_alpha(self, basis64, profile_sinusoidal):
        f = SpectralField(basis64, np.ones(64))
        out = apply_filter(f, 9.0, 0.7, profile_sinusoidal)
        assert np.all(out.coeffs > 0.0)
        assert np.max(out.coeffs) <= 9.0 * (1.0 + 1e-12)


class TestGlobalBackward:
    def test_near_noiseless_single_mode(self, basis64, profile_constant):
        e1 = SpectralField.unit_mode(basis64, 1)
        xs = uniform_grid(0.0, 1.0, 1024)
        uT = evolve(e1, 0.0, 0.5, profile_constant)
        g, _ = global_backward(
            xs, uT.evaluate(xs), basis64, 0.5, profile_constant, 1e-10, 1.0, e1.h01()
        )
        assert (e1 - g).l2() < 1e-8

    @pytest.mark.parametrize("drel", [1e-2, 1e-4, 1e-6])
    def test_bound_dominates_error(self, basis64, profile_sinusoidal, drel):
        T = 0.3
        xs = uniform_grid(0.0, 1.0, 1024)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        for seed in range(3):
            u0 = synthesize_initial(basis64, 3.0, seed)
            delta = drel * u0.l2()
            noisy = inject_noise(
                evolve(u0, 0.0, T, profile_sinusoidal).evaluate(xs), delta, [seed, 0], w
            )
            g, sel = global_backward(
                xs, noisy, basis64, T, profile_sinusoidal, delta, u0.l2(), u0.h01()
            )
            assert (u0 - g).l2() <= sel.bound

    def test_gate_returns_zero_and_bound_covers(self, basis64, profile_constant):
        T = 0.1
        u0 = synthesize_initial(basis64, 3.0, 7)
        delta = u0.l2() * math.exp(-basis64.lambda1 * profile_constant.p2 * T)
        xs = uniform_grid(0.0, 1.0, 1024)
        noisy = evolve(u0, 0.0, T, profile_constant).evaluate(xs)
        g, sel = global_backward(xs, noisy, basis64, T, profile_constant, delta, u0.l2(), u0.h01())
        assert sel.gate_zero and g.l2() == 0.0
        assert (u0 - g).l2() <= sel.bound

    def test_split_error_terms(self, basis64, profile_constant):
        T, drel = 0.5, 1e-4
        u0 = synthesize_initial(basis64, 3.0, 3)
        delta = drel * u0.l2()
        xs = uniform_grid(0.0, 1.0, 1024)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        uT = evolve(u0, 0.0, T, profile_constant)
        noisy = inject_noise(uT.evaluate(xs), delta, [3, 0], w)
        g, sel = global_backward(xs, noisy, basis64, T, profile_constant, delta, u0.l2(), u0.h01())
        g_exact = apply_filter(project(xs, uT.evaluate(xs), basis64), sel.alpha, T, profile_constant)
        # |g - g_exact| <= alpha delta and |u0 - g_exact| <= tail factor sqrt(p2 tau) h01
        p2tau = profile_constant.p2 * T
        tail_cap = worst_tail_factor(sel.alpha, basis64.lambda1, p2tau) * math.sqrt(p2tau) * u0.h01()
        assert (g - g_exact).l2() <= sel.alpha * delta * (1.0 + 1e-9)
        assert (u0 - g_exact).l2() <= tail_cap * (1.0 + 1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("arg", ["xs", "values", "delta"])
    def test_rejects_non_finite_input(self, arg, bad, basis64, profile_constant):
        args = {"xs": uniform_grid(0.0, 1.0, 1024), "values": np.ones(1025), "delta": 1e-4}
        if arg == "delta":
            args["delta"] = bad
            label = "delta"
        else:
            args[arg][3] = bad
            label = rf"{arg}\[3\]"
        with pytest.raises(ValueError, match=rf"global_backward: {label} = .* is not finite"):
            global_backward(
                args["xs"], args["values"], basis64, 0.5, profile_constant, args["delta"],
                1.0, math.pi,
            )

    def test_worst_tail_factor_is_supremum(self, basis64):
        # dense scan oracle over lambda
        lam1, p2t = basis64.lambda1, 0.45
        for alpha in (1.5, 20.0, 3e4):
            analytic = worst_tail_factor(alpha, lam1, p2t)
            lams = np.linspace(lam1, lam1 + 5000.0, 200001)
            scan = np.max(np.maximum(1.0 - alpha * np.exp(-lams * p2t), 0.0) / np.sqrt(lams * p2t))
            assert analytic >= scan - 1e-12
            assert analytic <= scan * (1.0 + 1e-6) + 1e-12


class TestTruncationBaseline:
    def test_exact_recovery_when_noiseless(self, basis16, profile_constant):
        u = synthesize_initial(basis16, 2.0, 4)
        uT = evolve(u, 0.0, 0.05, profile_constant)
        g = truncation_baseline(uT, 16, 0.05, profile_constant)
        np.testing.assert_allclose(g.coeffs, u.coeffs, rtol=1e-10)

    def test_rejects_cutoff_zero(self, basis16, profile_constant):
        with pytest.raises(ValueError):
            truncation_baseline(SpectralField.zero(basis16), 0, 0.1, profile_constant)

    def test_error_non_monotone_in_cutoff(self, basis64, profile_constant):
        # bias shrinks then variance explodes: a sweep must not be monotone
        T, drel = 0.1, 1e-3
        u0 = synthesize_initial(basis64, 3.0, 2)
        xs = uniform_grid(0.0, 1.0, 1024)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        noisy = inject_noise(
            evolve(u0, 0.0, T, profile_constant).evaluate(xs), drel * u0.l2(), [2, 0], w
        )
        observed = project(xs, noisy, basis64)
        errs = [
            (u0 - truncation_baseline(observed, c, T, profile_constant)).l2()
            for c in range(1, 17)
        ]
        diffs = np.diff(errs)
        assert np.any(diffs < 0.0) and np.any(diffs > 0.0)
