"""Explicit observation-estimate constants and the inequalities they certify."""

import math

import numpy as np
import pytest

from heatback import (
    DiffusionProfile,
    DomainSpec,
    Subdomain,
    appendix_stability_check,
    chain_full_domain,
    constants_convex,
    derive_c_chain,
    direct_backward_check,
    evolve,
    fit_empirical_constants,
    gram_subdomain,
    holder_check,
    synthesize_initial,
)
from heatback.spectral import EigenBasis, SpectralField


class TestConstantsConvex:
    def test_constant_profile_zeroes_C0_C1(self, unit_domain, profile_constant):
        c = constants_convex(unit_domain, 0.1, profile_constant, xi=0.5)
        assert c.C0 == 0.0 and c.C1 == 0.0

    def test_ell_closed_form_at_three_xi(self, unit_domain, profile_constant):
        # symbolic re-derivation of the xi-parameterized branch
        R = unit_domain.radius
        for xi in (0.3, 0.5, 0.7):
            c = constants_convex(unit_domain, 0.1, profile_constant, xi=xi)
            hand = (2.0 ** (2.0 + xi) * R * R / (xi * math.log(1.5) * 0.01)) ** (
                1.0 / (1.0 - xi)
            ) - 1.0
            assert c.ell == pytest.approx(hand, rel=1e-12)

    def test_positive_C0_branch(self, unit_domain, profile_affine):
        c = constants_convex(unit_domain, 0.2, profile_affine, xi=0.5)
        assert c.C0 == pytest.approx(0.25 * 0.1 / 2.0, rel=1e-14)
        assert c.C1 == pytest.approx(3.0 * 0.1, rel=1e-14)
        shrink = 1.0 - (2.0 / 3.0) ** c.C0
        hand = (4.0 * 0.25 * math.exp(c.C1) / (0.04 * shrink)) ** (1.0 / (1.0 - c.C0)) - 1.0
        assert c.ell == pytest.approx(hand, rel=1e-12)

    def test_mu_below_half(self, unit_domain, profile_constant, profile_affine):
        for prof, r in ((profile_constant, 0.1), (profile_affine, 0.3)):
            c = constants_convex(unit_domain, r, prof)
            assert 0.0 < c.mu < 0.5
            assert c.ell > 1.0 and c.S_ell > 0.0

    def test_rejects_smallness_violation(self):
        dom = DomainSpec(4.0, 2.0)  # R = 2, R^2 = 4 >= 2 p1^2/|p'| = 2/0.6
        prof = DiffusionProfile.sinusoidal(1.0, 0.3, 2.0, 1.0)
        with pytest.raises(ValueError, match="smallness"):
            constants_convex(dom, 0.5, prof)

    def test_rejects_bad_radius_and_xi(self, unit_domain, profile_constant):
        with pytest.raises(ValueError):
            constants_convex(unit_domain, 0.6, profile_constant)
        with pytest.raises(ValueError):
            constants_convex(unit_domain, 0.1, profile_constant, xi=1.5)

    def test_monotone_in_radius(self, unit_domain, profile_constant):
        chains = [constants_convex(unit_domain, r, profile_constant)
                  for r in np.linspace(0.05, 0.45, 10)]
        for a, b in zip(chains, chains[1:]):
            assert a.ell > b.ell
            assert a.S_ell > b.S_ell
            assert a.mu < b.mu


class TestChainDerivation:
    def test_hand_example(self):
        c1, c2, c3, c4 = derive_c_chain(1.0, 0.5)
        assert c1 == pytest.approx(4.0, rel=1e-14)
        assert c2 == pytest.approx(1.0, rel=1e-14)
        assert c3 == pytest.approx(2.0, rel=1e-14)
        assert c4 == pytest.approx(1.0, rel=1e-14)

    def test_c2_grows_as_mu_shrinks(self):
        c2s = [derive_c_chain(2.0, mu)[1] for mu in (0.4, 0.2, 0.1, 0.05)]
        assert all(a < b for a, b in zip(c2s, c2s[1:]))

    def test_c3_crossover(self):
        # c3 = sqrt(c1) below c1 = 4 and c1/2 above
        for K, mu in ((1.2, 0.6), (0.5, 0.5)):
            c1, _, c3, _ = derive_c_chain(K, mu)
            if c1 <= 4.0:
                assert c3 == pytest.approx(math.sqrt(c1), rel=1e-13)
            else:
                assert c3 == pytest.approx(c1 / 2.0, rel=1e-13)
        c1, _, c3, _ = derive_c_chain(40.0, 0.5)
        assert c1 > 4.0 and c3 == pytest.approx(c1 / 2.0, rel=1e-13)

    def test_overflow_reported_in_log_space(self, unit_domain, profile_constant):
        c = constants_convex(unit_domain, 0.1, profile_constant)
        assert math.isinf(c.c1) and math.isfinite(c.ln_c1)
        assert c.ln_c1 > 700.0

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            derive_c_chain(1.0, 1.5)


class TestFullDomainChain:
    def test_trivial_chain_values(self):
        c = chain_full_domain()
        assert (c.K, c.mu) == (1.0, 0.5)
        assert (c.c1, c.c2, c.c3, c.c4) == pytest.approx((4.0, 1.0, 2.0, 1.0), rel=1e-14)


class TestHolderCheck:
    def test_full_domain_reduces_to_energy_decay(self, basis64, unit_domain, profile_constant):
        G = gram_subdomain(Subdomain.full(unit_domain), basis64)
        chain = chain_full_domain()
        for seed in range(10):
            u0 = synthesize_initial(basis64, 2.0, seed)
            assert holder_check(u0, 0.4, chain, G, profile_constant).holds

    def test_hundred_seeded_fields(self, basis64, unit_domain, profile_constant):
        sub = Subdomain.centered(unit_domain, 0.2)
        G = gram_subdomain(sub, basis64)
        chain = constants_convex(unit_domain, 0.2, profile_constant)
        holds = sum(
            holder_check(synthesize_initial(basis64, 2.0 + 2.0 * (s % 3), s), 0.3, chain, G,
                         profile_constant).holds
            for s in range(100)
        )
        assert holds == 100

    def test_rejects_zero_field(self, basis64, unit_domain, profile_constant):
        G = gram_subdomain(Subdomain.full(unit_domain), basis64)
        with pytest.raises(ValueError):
            holder_check(SpectralField.zero(basis64), 0.3, chain_full_domain(), G,
                         profile_constant)


class TestAppendixStability:
    def test_single_mode_closed_form(self, basis16, unit_domain, profile_constant):
        # lhs = 1, |u(T)|_omega = e^{-pi^2 T} for omega = Omega, log arg = pi^2 T
        T = 0.3
        G = gram_subdomain(Subdomain.full(unit_domain), basis16)
        chain = chain_full_domain()
        e1 = SpectralField.unit_mode(basis16, 1)
        rep = appendix_stability_check(e1, T, chain, G, profile_constant)
        assert not rep.skipped
        C = math.sqrt(max(1.0 / chain.mu, chain.K / (chain.mu * basis16.lambda1)))
        hand = C * math.sqrt(1.0 + T + 1.0 / T) * math.pi / math.sqrt(math.pi**2 * T)
        assert rep.rhs == pytest.approx(hand, rel=1e-12)
        assert rep.holds

    def test_hundred_field_sweep(self, basis64, unit_domain, profile_constant):
        sub = Subdomain.centered(unit_domain, 0.2)
        G = gram_subdomain(sub, basis64)
        chain = constants_convex(unit_domain, 0.2, profile_constant)
        applicable = held = 0
        for s in range(100):
            rep = appendix_stability_check(
                synthesize_initial(basis64, 2.0 + 2.0 * (s % 3), s), 0.3, chain, G,
                profile_constant,
            )
            if not rep.skipped:
                applicable += 1
                held += rep.holds
        assert applicable > 0 and held == applicable

    def test_skipped_when_log_argument_invalid(self, basis16, unit_domain, profile_constant):
        # omega = Omega at a tiny horizon: |u(T)|_omega can stay >= |u0| only
        # for no field, so force the skip with an artificial inflated gram
        G = 4.0 * np.eye(16)
        rep = appendix_stability_check(
            SpectralField.unit_mode(basis16, 1), 1e-3, chain_full_domain(), G, profile_constant
        )
        assert rep.skipped


class TestDirectBackwardEstimate:
    def test_exact_for_every_field(self, basis64, profile_sinusoidal):
        for s in range(50):
            u0 = synthesize_initial(basis64, 1.5 + (s % 4), s)
            assert direct_backward_check(u0, 0.4, profile_sinusoidal).holds

    def test_single_mode_equality_structure(self, basis16, profile_constant):
        # for e_1 and constant p the two sides agree up to the p2T vs
        # integral slack, which vanishes here: lhs = rhs exactly in logs
        rep = direct_backward_check(SpectralField.unit_mode(basis16, 1), 0.25, profile_constant)
        assert rep.ln_lhs == pytest.approx(rep.ln_rhs, abs=1e-12)


class TestEmpiricalFit:
    def test_fit_shape_and_coverage(self, basis64, unit_domain, profile_constant):
        sub = Subdomain(0.3, 0.7)
        G = gram_subdomain(sub, basis64)
        chain = fit_empirical_constants(basis64, sub, G, 0.25, profile_constant)
        assert chain.mode == "empirical"
        assert 0.05 <= chain.mu <= 0.95
        assert chain.K > 0.0 and math.isfinite(chain.c1)
        # intercept solves K e^{K/T} = fitted level
        holds = sum(
            holder_check(synthesize_initial(basis64, 2.5, 500 + s), 0.25, chain, G,
                         profile_constant).holds
            for s in range(100)
        )
        assert holds >= 95

    def test_fit_solves_its_equation_at_tiny_T(self, basis16, profile_constant):
        # below T ~ 1e-20 no mode decays, so ln K + K / T equals the same fitted
        # intercept at every T; it is checked to within the change that one
        # float step of ln_K makes, (1 + K/T) ulp(ln_K)
        sub = Subdomain(0.3, 0.7)
        G = gram_subdomain(sub, basis16)
        ref = None
        for T in (1e-20, 1e-100, 1e-200):
            chain = fit_empirical_constants(basis16, sub, G, T, profile_constant)
            level = chain.ln_K + chain.K / T
            ref = level if ref is None else ref
            assert abs(level - ref) <= (1.0 + chain.K / T) * math.ulp(chain.ln_K)
        assert ref == pytest.approx(0.718139, abs=1e-6)

    @pytest.mark.parametrize(
        "length, a, b, n, T, profile",
        [
            (1.0, 0.3, 0.7, 64, 0.25, DiffusionProfile.constant(1.0, 3.0)),
            (1.0, 0.1, 0.5, 16, 0.05, DiffusionProfile.affine(1.0, 0.1, 3.0)),
            (2.0, 0.0, 0.8, 128, 1.0, DiffusionProfile.sinusoidal(1.0, 0.2, 1.0, 3.0)),
            (1.0, 0.45, 0.55, 256, 0.01, DiffusionProfile.constant(0.5, 3.0)),
        ],
    )
    def test_matches_the_per_field_fit(self, length, a, b, n, T, profile):
        # the fit one field at a time, as the regression is defined
        basis = EigenBasis(DomainSpec(length, 0.5 * (a + b)), n)
        G = gram_subdomain(Subdomain(a, b), basis)
        xs, ys = [], []
        for j in range(60):
            v0 = synthesize_initial(basis, (1.5, 2.0, 3.0, 4.0)[j % 4], 1000 + j)
            vT = evolve(v0, 0.0, T, profile)
            if vT.l2_sub(G) <= 0.0 or vT.l2() <= 0.0:
                continue
            xs.append(math.log(vT.l2_sub(G)) - math.log(v0.l2()))
            ys.append(math.log(vT.l2()) - math.log(v0.l2()))
        xs, ys = np.array(xs), np.array(ys)
        xc = xs - xs.mean()
        mu = min(max(float(xc @ (ys - ys.mean())) / float(xc @ xc), 0.05), 0.95)
        level = float(np.max(ys - mu * xs)) + math.log(2.0)
        chain = fit_empirical_constants(basis, Subdomain(a, b), G, T, profile)
        assert chain.mu == pytest.approx(mu, rel=1e-12)
        assert chain.ln_K + chain.K / T == pytest.approx(level, rel=1e-12)

    def test_deterministic(self, basis64, profile_constant):
        sub = Subdomain(0.3, 0.7)
        G = gram_subdomain(sub, basis64)
        a = fit_empirical_constants(basis64, sub, G, 0.25, profile_constant)
        b = fit_empirical_constants(basis64, sub, G, 0.25, profile_constant)
        assert a == b
