"""Eigenbasis, profiles, propagator, projection and Gram geometry."""

import math

import numpy as np
import pytest

from heatback import (
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    SpectralField,
    Subdomain,
    evolve,
    gram_subdomain,
    project,
    synthesize_initial,
    uniform_grid,
)


def _mode(domain, i):
    """(lambda_i, x -> e_i(x)) read off an EigenBasis of size i."""
    basis = EigenBasis(domain, i)
    return basis.eigenvalues[i - 1], lambda x: basis.eigenfunction_matrix([x])[0, i - 1]


class TestEigenPairs:
    def test_unit_interval_first_mode(self, unit_domain):
        lam, ev = _mode(unit_domain, 1)
        assert lam == pytest.approx(math.pi**2, rel=1e-15)
        assert ev(0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_second_mode_vanishes_at_center(self, unit_domain):
        _, ev = _mode(unit_domain, 2)
        assert abs(ev(0.5)) < 1e-15

    def test_third_mode_on_wider_interval(self):
        # frozen from the closed form; cross-checked by central differences below
        lam, ev = _mode(DomainSpec(2.0, 1.0), 3)
        assert lam == pytest.approx((1.5 * math.pi) ** 2, rel=1e-15)
        h, x = 1e-5, 0.37
        fd_lam = -(ev(x + h) - 2 * ev(x) + ev(x - h)) / h**2 / ev(x)
        assert fd_lam == pytest.approx(lam, rel=1e-6)

    def test_boundary_values_vanish(self, unit_domain):
        E = EigenBasis(unit_domain, 7).eigenfunction_matrix(np.array([0.0, 1.0]))
        for i in (1, 2, 7):
            assert abs(E[0, i - 1]) < 1e-15
            assert abs(E[1, i - 1]) < 1e-14

    def test_rejects_mode_zero(self, unit_domain):
        with pytest.raises(ValueError):
            EigenBasis(unit_domain, 0)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            DomainSpec(1.0, 1.5)
        with pytest.raises(ValueError):
            DomainSpec(-1.0, 0.3)


class TestProfiles:
    def test_constant_integral(self):
        p = DiffusionProfile.constant(1.0, 1.0)
        assert p.integral(0.0, 0.3) == pytest.approx(0.3, rel=1e-15)

    def test_sinusoidal_antiderivative(self):
        p = DiffusionProfile.sinusoidal(1.0, 0.2, 1.0, 2.0)
        T = 0.8
        assert p.integral(0.0, T) == pytest.approx(T + 0.2 * (1.0 - math.cos(T)), rel=1e-14)

    def test_affine_closed_form(self):
        # 0.3 + 0.05 (0.25 - 0.04); cross-checked against adaptive quadrature
        p = DiffusionProfile.affine(1.0, 0.1, 1.0)
        assert p.integral(0.2, 0.5) == pytest.approx(0.3105, rel=1e-14)

    def test_bounds_sandwich_integral(self, profile_sinusoidal):
        p = profile_sinusoidal
        val = p.integral(0.1, 1.7)
        assert p.p1 * 1.6 <= val <= p.p2 * 1.6

    def test_rejects_reversed_interval(self, profile_constant):
        with pytest.raises(ValueError):
            profile_constant.integral(0.5, 0.2)

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(ValueError):
            DiffusionProfile.sinusoidal(0.1, 0.5, 1.0, 1.0)

    def test_constant_kind_has_zero_derivative_bound(self, profile_constant):
        assert profile_constant.dp_inf == 0.0


class TestEvolve:
    def test_single_mode_decay(self, basis16, profile_constant):
        e1 = SpectralField.unit_mode(basis16, 1)
        out = evolve(e1, 0.0, 0.1, profile_constant)
        assert out.coeffs[0] == pytest.approx(math.exp(-math.pi**2 * 0.1), rel=1e-14)

    def test_zero_time_is_identity(self, basis16, profile_affine):
        u = synthesize_initial(basis16, 2.0, 3)
        out = evolve(u, 0.4, 0.4, profile_affine)
        np.testing.assert_array_equal(out.coeffs, u.coeffs)

    @pytest.mark.parametrize("kind", ["constant", "affine", "sinusoidal"])
    def test_semigroup_property(self, basis16, kind, profile_constant, profile_affine,
                                profile_sinusoidal):
        p = {"constant": profile_constant, "affine": profile_affine,
             "sinusoidal": profile_sinusoidal}[kind]
        u = synthesize_initial(basis16, 2.0, 5)
        two_step = evolve(evolve(u, 0.0, 0.3, p), 0.3, 0.9, p)
        one_step = evolve(u, 0.0, 0.9, p)
        # exp-argument conditioning caps the achievable agreement at
        # lambda*w*eps, which passes 1e-13 once lambda*w > ~450; those modes
        # carry coefficients below e^-450 and get the scaled tolerance
        expo = basis16.eigenvalues * p.integral(0.0, 0.9)
        rtol = np.maximum(1e-13, 8.0 * np.finfo(float).eps * expo)
        err = np.abs(two_step.coeffs - one_step.coeffs)
        assert np.all(err <= rtol * np.abs(one_step.coeffs) + 1e-300)
        small = expo <= 300.0
        assert small.sum() >= 5
        assert np.all(err[small] <= 1e-13 * np.abs(one_step.coeffs[small]))

    def test_decay_is_the_propagator(self, basis16, profile_affine):
        d = basis16.decay(profile_affine, 0.2, 0.7)
        w = profile_affine.integral(0.2, 0.7)
        np.testing.assert_array_equal(d, np.exp(-basis16.eigenvalues * w))
        u = synthesize_initial(basis16, 2.0, 3)
        np.testing.assert_array_equal(evolve(u, 0.2, 0.7, profile_affine).coeffs, u.coeffs * d)

    def test_energy_decay_strict(self, basis16, profile_sinusoidal):
        u = synthesize_initial(basis16, 2.0, 1)
        assert evolve(u, 0.0, 0.2, profile_sinusoidal).l2() < u.l2()

    def test_smoothing_gradient_bound(self, basis64, profile_affine):
        # |u(s)|_H1^2 <= |u0|_L2^2 / (2 p1 s)
        u = synthesize_initial(basis64, 2.0, 9)
        for s in (0.01, 0.1, 0.5):
            us = evolve(u, 0.0, s, profile_affine)
            assert us.h01() ** 2 <= u.l2() ** 2 / (2.0 * profile_affine.p1 * s)


class TestProject:
    def test_unit_mode_orthonormality(self, basis16):
        xs = uniform_grid(0.0, 1.0, 1024)
        e1 = SpectralField.unit_mode(basis16, 1)
        p = project(xs, e1.evaluate(xs), basis16)
        assert p.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(p.coeffs[1:])) < 1e-8

    def test_linearity(self, basis16):
        xs = uniform_grid(0.0, 1.0, 1024)
        e1 = SpectralField.unit_mode(basis16, 1)
        e2 = SpectralField.unit_mode(basis16, 2)
        p = project(xs, 2.0 * e1.evaluate(xs) + 3.0 * e2.evaluate(xs), basis16)
        np.testing.assert_allclose(p.coeffs[:2], [2.0, 3.0], rtol=1e-12)
        assert np.max(np.abs(p.coeffs[2:])) < 1e-10

    def test_parabola_coefficients(self, basis16):
        # oracle: adaptive quadrature of x(1-x) sqrt(2) sin(k pi x) gives
        # a1 = 4 sqrt(2)/pi^3 and a2 = 0 (odd symmetry about x = 1/2)
        xs = uniform_grid(0.0, 1.0, 2048)
        p = project(xs, xs * (1.0 - xs), basis16)
        assert p.coeffs[0] == pytest.approx(4.0 * math.sqrt(2.0) / math.pi**3, rel=1e-10)
        assert abs(p.coeffs[1]) < 1e-12

    def test_round_trip(self, basis64):
        xs = uniform_grid(0.0, 1.0, 1024)
        u = synthesize_initial(basis64, 2.0, 11)
        p = project(xs, u.evaluate(xs), basis64)
        assert (p - u).l2() <= 1e-8

    def test_rejects_coarse_grid(self, basis64):
        xs = uniform_grid(0.0, 1.0, 256)
        with pytest.raises(ValueError, match="too coarse"):
            project(xs, np.zeros(xs.size), basis64)

    def test_rejects_partial_span(self, basis16):
        xs = uniform_grid(0.1, 1.0, 512)
        with pytest.raises(ValueError, match="span"):
            project(xs, np.zeros(xs.size), basis16)


class TestGram:
    def test_full_domain_is_identity(self, basis16, unit_domain):
        G = gram_subdomain(Subdomain.full(unit_domain), basis16)
        np.testing.assert_allclose(G, np.eye(16), atol=1e-14)

    def test_half_interval_entries(self, basis16):
        # G11 = 1/2 by symmetry; G12 = 4/(3 pi) from the product-to-sum
        # antiderivative, cross-checked by quadrature
        G = gram_subdomain(Subdomain(0.0, 0.5), basis16)
        assert G[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert G[0, 1] == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-14)

    def test_matches_quadrature(self, basis16):
        from heatback.spectral import simpson_weights

        sub = Subdomain(0.22, 0.81)
        G = gram_subdomain(sub, basis16)
        xs = uniform_grid(sub.a, sub.b, 4096)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        E = basis16.eigenfunction_matrix(xs)
        Gq = E.T @ (w[:, None] * E)
        np.testing.assert_allclose(G, Gq, atol=1e-12)

    def test_gram_sandwich_and_psd(self, basis16):
        G = gram_subdomain(Subdomain(0.3, 0.7), basis16)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal(16)
            q = a @ G @ a
            assert -1e-12 * (a @ a) <= q <= (a @ a) * (1.0 + 1e-12)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-12


class TestNorms:
    def test_single_mode(self, basis16):
        u = SpectralField.unit_mode(basis16, 1)
        assert u.l2() == pytest.approx(1.0)
        assert u.h01() == pytest.approx(math.pi, rel=1e-14)

    def test_zero_field(self, basis16):
        u = SpectralField.zero(basis16)
        assert u.l2() == 0.0 and u.h01() == 0.0

    def test_subdomain_norm_from_gram(self, basis16):
        # frozen from the half-interval Gram entries above
        G = gram_subdomain(Subdomain(0.0, 0.5), basis16)
        coeffs = np.zeros(16)
        coeffs[:2] = 1.0
        sub = SpectralField(basis16, coeffs).l2_sub(G)
        assert sub == pytest.approx(math.sqrt(1.0 + 8.0 / (3.0 * math.pi)), rel=1e-13)


class TestSynthesize:
    def test_deterministic(self, basis16):
        a = synthesize_initial(basis16, 2.0, 7)
        b = synthesize_initial(basis16, 2.0, 7)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_decay_lowers_h1_ratio(self, unit_domain):
        basis = EigenBasis(unit_domain, 64)
        decayed = synthesize_initial(basis, 3.0, 2)
        rng = np.random.default_rng(2)
        white = SpectralField(basis, rng.standard_normal(64))
        assert decayed.h01() / decayed.l2() < white.h01() / white.l2()

    def test_poincare(self, basis64):
        for seed in range(5):
            u = synthesize_initial(basis64, 2.5, seed)
            assert u.h01() >= math.sqrt(basis64.lambda1) * u.l2() * (1.0 - 1e-14)

    def test_magnitude_window(self, basis64):
        u = synthesize_initial(basis64, 2.0, 13)
        i = np.arange(1, 65)
        scaled = np.abs(u.coeffs) * i**2.0
        assert np.all(scaled > 0.5) and np.all(scaled <= 1.0)

    def test_rejects_small_decay(self, basis16):
        with pytest.raises(ValueError):
            synthesize_initial(basis16, 1.0, 0)
