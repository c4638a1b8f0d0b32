"""Eigenbasis, profiles, propagator, projection and Gram geometry."""

import math
import sys
import threading
import time
import tracemalloc
import warnings

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
from heatback import ConfigError, spectral
from heatback.spectral import _SINE_CACHE_SIZE
from oracles import l2_sub


NAN = float("nan")


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

    def test_rejects_overflowing_eigenvalue(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="length = 1e-300"):
                EigenBasis(DomainSpec(1e-300, 5e-301), 16)
        # the same length still holds a basis whose largest eigenvalue is finite
        assert EigenBasis(DomainSpec(1e-150, 5e-151), 16).eigenvalues[-1] < math.inf


def _fresh(basis, xs, modes=None):
    """The sine matrix built by a new basis of the same size, with an empty cache."""
    return EigenBasis(basis.domain, basis.size).eigenfunction_matrix(xs, modes)


def _cached_keys(basis):
    """The (modes, grid bytes) key of each sine matrix the basis keeps."""
    return [(n, data) for n, data, _ in basis._sines]


def _exact_rows(xs, modes, length, rows):
    """sqrt(2/L) sin(k pi x / L) in 80-bit arithmetic on the given rows of xs.

    Each float64 point is taken as exact; only pi and the products are rounded,
    at 2^-80, far below the float64 error bound the tests check.
    """
    import mpmath  # a test dependency only; the other tests run without it

    with mpmath.workprec(80):
        c, s = mpmath.pi / length, mpmath.sqrt(2 / mpmath.mpf(length))
        return np.array([
            [float(s * mpmath.sin(k * c * mpmath.mpf(float(xs[j])))) for k in range(1, modes + 1)]
            for j in rows
        ])



class TestSineMatrixCache:
    def test_same_grid_returns_same_object(self, unit_domain):
        basis = EigenBasis(unit_domain, 16)
        xs = uniform_grid(0.0, 1.0, 256)
        E = basis.eigenfunction_matrix(xs)
        assert basis.eigenfunction_matrix(xs) is E
        assert basis.eigenfunction_matrix(xs.copy()) is E

    @pytest.mark.parametrize(
        "length, modes, xs",
        [
            (1.0, 256, uniform_grid(0.0, 1.0, 4096)),
            (1.0, 256, uniform_grid(0.3, 0.7, 1640)),
            (2.0, 32, uniform_grid(0.0, 2.0, 512)),
            (2.0, 32, uniform_grid(0.25, 1.5, 200)),
            (1.0, 1, uniform_grid(0.0, 1.0, 64)),
            (1.0, 2, uniform_grid(0.0, 1.0, 64)),
            (3.0, 7, uniform_grid(0.0, 3.0, 64)),
            (1.0, 17, uniform_grid(0.0, 1.0, 256)),
            (1.0, 300, uniform_grid(0.0, 1.0, 2400)),
            (1.0, 512, uniform_grid(0.0, 1.0, 4096)),
            (1.0, 1024, uniform_grid(0.0, 1.0, 2048)),
            (1.0, 16, 0.3),
            (1.0, 16, np.array([])),
            (2.0, 64, np.random.default_rng(20).uniform(-10.0, 12.0, 300)),
        ],
        ids=["1.0-256-grid0", "1.0-256-grid1", "2.0-32-grid2", "2.0-32-grid3", "1.0-1-grid",
             "1.0-2-grid", "3.0-7-grid", "1.0-17-grid", "1.0-300-grid", "1.0-512-grid",
             "1.0-1024-grid", "1.0-16-scalar", "1.0-16-empty", "2.0-64-outside"],
    )
    def test_within_roundoff_of_exact_and_read_only(self, length, modes, xs):
        basis = EigenBasis(DomainSpec(length, 0.5 * length), modes)
        flat = np.ravel(xs)
        if flat.size:
            # 3 rows at each end, about 30 spread over the grid, and 8 seeded others
            seeded = np.random.default_rng(flat.size).integers(0, flat.size, 8)
            rows = np.r_[0:3, flat.size - 3:flat.size, 0:flat.size:flat.size // 29 + 1, seeded]
            rows = np.unique(rows.clip(0, flat.size - 1))
            exact = _exact_rows(flat, modes, length, rows)
        eps = np.finfo(float).eps
        # every width from none to the whole basis, each its own matrix
        for cols in sorted({0, 1, min(17, modes), modes}):
            E = basis.eigenfunction_matrix(xs, cols)
            assert E.shape == (flat.size, cols)
            assert E.flags.c_contiguous and not E.flags.writeable
            with pytest.raises(ValueError):
                E[...] = 1.0
            if flat.size == 0 or cols == 0:
                continue
            # the argument k pi x / L carries a relative rounding error of a few eps
            bound = 2.0 * eps * math.sqrt(2.0 / length) * (
                1.0 + cols * math.pi * np.max(np.abs(flat)) / length
            )
            assert np.max(np.abs(E[rows] - exact[:, :cols])) <= bound
        assert basis.eigenfunction_matrix(xs) is basis.eigenfunction_matrix(xs, modes)

    @pytest.mark.parametrize("cols", [-1, 17])
    def test_modes_outside_the_basis_raise(self, unit_domain, cols):
        basis = EigenBasis(unit_domain, 16)
        with pytest.raises(ValueError, match=r"modes must lie in \[0, 16\], got " + str(cols)):
            basis.eigenfunction_matrix(uniform_grid(0.0, 1.0, 64), cols)

    def test_sweep_builds_each_matrix_once(self, monkeypatch):
        from heatback.harness import parse_config_text, run_sweep

        keys = []
        build = spectral._sine_matrix

        def spy(xs, n, L):
            keys.append((xs.tobytes(), n))
            return build(xs, n, L)

        monkeypatch.setattr(spectral, "_sine_matrix", spy)
        # each noise level has its own active width on the omega grid, next to
        # the 3 matrices every cell shares
        cfg = parse_config_text(
            "length = 1.0\nT = 0.01\ndelta_list = 1e-4, 1e-6, 1e-8\nomega_a = 0.3\n"
            "omega_b = 0.7\nmodes = 128\nconstants_mode = empirical\n"
        )
        run_sweep(cfg)
        assert len(set(keys)) > 4
        assert len(keys) == len(set(keys))

    def test_cold_build_allocates_no_large_temporary(self, unit_domain):
        basis = EigenBasis(unit_domain, 512)
        xs = uniform_grid(0.0, 1.0, 8192)
        tracemalloc.start()
        try:
            E = basis.eigenfunction_matrix(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result and its cache key (the grid's bytes) stay; whatever else
        # was live at once stays below the 128 KiB mmap threshold
        assert peak <= E.nbytes + xs.nbytes + 128 * 1024

    def test_list_scalar_and_array_agree(self, unit_domain):
        basis = EigenBasis(unit_domain, 8)
        from_array = basis.eigenfunction_matrix(np.array([0.3]))
        assert np.array_equal(basis.eigenfunction_matrix([0.3]), from_array)
        assert np.array_equal(basis.eigenfunction_matrix(0.3), from_array)
        assert np.array_equal(from_array, _fresh(basis, [0.3]))

    def test_keeps_only_the_latest_grids(self, unit_domain):
        basis = EigenBasis(unit_domain, 8)
        grids = [uniform_grid(0.0, 1.0, 64 + 2 * j) for j in range(_SINE_CACHE_SIZE + 1)]
        built = [basis.eigenfunction_matrix(xs) for xs in grids]
        assert len(basis._sines) == _SINE_CACHE_SIZE
        for xs, E in zip(grids[1:], built[1:]):
            assert basis.eigenfunction_matrix(xs) is E
        # the oldest grid was evicted and is built afresh
        again = basis.eigenfunction_matrix(grids[0])
        assert again is not built[0] and np.array_equal(again, built[0])
        assert len(basis._sines) == _SINE_CACHE_SIZE

    def test_evicts_the_least_recently_used(self, unit_domain):
        basis = EigenBasis(unit_domain, 8)
        grids = [uniform_grid(0.0, 1.0, 64 + 2 * j) for j in range(_SINE_CACHE_SIZE + 1)]
        first = basis.eigenfunction_matrix(grids[0])
        for xs in grids[1:-1]:
            basis.eigenfunction_matrix(xs)
        assert basis.eigenfunction_matrix(grids[0]) is first  # now the most recent
        basis.eigenfunction_matrix(grids[-1])
        assert basis.eigenfunction_matrix(grids[0]) is first
        assert (8, grids[1].tobytes()) not in _cached_keys(basis)

    def test_key_is_every_byte_of_the_grid(self, unit_domain):
        basis = EigenBasis(unit_domain, 16)
        xs = uniform_grid(0.0, 1.0, 256)
        moved = xs.copy()
        moved[100] = np.nextafter(moved[100], 1.0)  # same size and ends, one sample apart
        E, E_moved = basis.eigenfunction_matrix(xs), basis.eigenfunction_matrix(moved)
        assert E_moved is not E and np.array_equal(E_moved, _fresh(basis, moved))
        assert not np.array_equal(E_moved, E)
        # a grid written in place after its lookup is a new key
        xs[7] = 0.5
        again = basis.eigenfunction_matrix(xs)
        assert again is not E and np.array_equal(again, _fresh(basis, xs))
        assert not np.array_equal(again, E)

    def test_bases_never_share_a_matrix(self, unit_domain):
        xs = uniform_grid(0.0, 1.0, 256)
        bases = [
            EigenBasis(unit_domain, 16),
            EigenBasis(unit_domain, 32),
            EigenBasis(DomainSpec(2.0, 1.0), 16),
        ]
        mats = [basis.eigenfunction_matrix(xs) for basis in bases]
        for basis, E in zip(bases, mats):
            assert np.array_equal(E, _fresh(basis, xs))
        assert mats[0].shape != mats[1].shape
        assert not np.array_equal(mats[0], mats[2])

    def test_threads_racing_over_more_grids_than_kept(self, unit_domain):
        basis = EigenBasis(unit_domain, 16)
        # one grid at two widths is two keys, like the full and the active columns
        keys = [(uniform_grid(0.0, 1.0, 64 + 2 * (j // 2)), (16, 5)[j % 2])
                for j in range(_SINE_CACHE_SIZE + 2)]
        expected = [_fresh(basis, *key) for key in keys]
        wrong, done = [], []

        def worker(offset):
            try:
                for n in range(200):
                    j = (n + offset) % len(keys)
                    if not np.array_equal(basis.eigenfunction_matrix(*keys[j]), expected[j]):
                        wrong.append(j)
            except Exception as exc:  # a thread's exception would otherwise be lost
                wrong.append(exc)
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(8)) and wrong == []
        assert len(basis._sines) <= _SINE_CACHE_SIZE

    def test_threads_asking_for_one_missing_matrix_build_it_once(self, unit_domain,
                                                                  monkeypatch):
        basis = EigenBasis(unit_domain, 64)
        xs = uniform_grid(0.0, 1.0, 512)
        builds = []
        build = spectral._sine_matrix

        def spy(*args):
            builds.append(args[1])
            time.sleep(0.05)  # ample time for the other thread to find the key missing
            return build(*args)

        monkeypatch.setattr(spectral, "_sine_matrix", spy)
        barrier = threading.Barrier(2, timeout=30)
        got, errors = [], []

        def worker():
            try:
                barrier.wait()
                got.append(basis.eigenfunction_matrix(xs))
            except Exception as exc:  # a thread's exception would otherwise be lost
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert builds == [64]
        assert len(got) == 2 and got[0] is got[1]


class TestSubdomain:
    @pytest.mark.parametrize("length", [1e-13, 1.0, 1e6])
    def test_endpoint_tolerances_scale_with_the_length(self, length):
        domain = DomainSpec(length, 0.5 * length)
        assert Subdomain.full(domain).is_full(domain)
        assert Subdomain(0.0, length * (1.0 - 1e-13)).is_full(domain)
        assert not Subdomain(0.0, 0.5 * length).is_full(domain)
        assert not Subdomain(1e-6 * length, length).is_full(domain)
        Subdomain(0.0, length * (1.0 + 1e-13)).validate_inside(domain)
        with pytest.raises(ValueError, match="exceeds"):
            Subdomain(0.0, 2.0 * length).validate_inside(domain)
        with pytest.raises(ValueError, match="exceeds"):
            Subdomain(0.0, length * (1.0 + 1e-9)).validate_inside(domain)


class TestProfiles:
    def test_constant_integral(self):
        p = DiffusionProfile.constant(1.0, 1.0)
        assert p.integral(0.0, 0.3) == pytest.approx(0.3, rel=1e-15)
        # t^2 overflows here; the absent slope term must not turn that into NaN
        assert DiffusionProfile.constant(2.0, 3e200).integral(1e200, 2e200) == 2e200

    def test_sinusoidal_antiderivative(self):
        p = DiffusionProfile.sinusoidal(1.0, 0.2, 1.0, 2.0)
        T = 0.8
        assert p.integral(0.0, T) == pytest.approx(T + 0.2 * (1.0 - math.cos(T)), rel=1e-14)

    def test_affine_closed_form(self):
        # 0.3 + 0.05 (0.25 - 0.04); cross-checked against adaptive quadrature
        p = DiffusionProfile.affine(1.0, 0.1, 1.0)
        assert p.integral(0.2, 0.5) == pytest.approx(0.3105, rel=1e-14)

    def test_bounds_sandwich_integral(self, profile_sinusoidal):
        mixed = DiffusionProfile(1.0, -0.2, 0.3, 4.0, 3.0)  # a linear and a periodic term
        for p in (profile_sinusoidal, mixed):
            val = p.integral(0.1, 1.7)
            assert p.p1 * 1.6 <= val <= p.p2 * 1.6
            # p1, p2 and dp_inf bound p and each difference quotient of it on [0, horizon]
            ts = np.linspace(0.0, p.horizon, 2001)
            assert np.all((p.p1 <= p(ts)) & (p(ts) <= p.p2))
            assert np.max(np.abs(np.diff(p(ts)) / np.diff(ts))) <= p.dp_inf

    def test_rejects_reversed_interval(self, profile_constant):
        with pytest.raises(ValueError):
            profile_constant.integral(0.5, 0.2)

    @pytest.mark.parametrize("t0, t1", [(NAN, 0.5), (0.0, NAN), (NAN, NAN)])
    def test_rejects_nan_time(self, profile_sinusoidal, t0, t1):
        # a NaN compares false both ways, so only a positive test rejects it
        with pytest.raises(ValueError, match=f"t0={t0}, t1={t1}"):
            profile_sinusoidal.integral(t0, t1)

    def test_rejects_nonpositive_profile(self):
        P = DiffusionProfile
        # min and max skip a NaN, so only a finiteness test stops one
        cases = [
            (P.sinusoidal, (0.1, 0.5, 1.0, 1.0), "not uniformly positive"),
            (P.affine, (1.0, -1.0, 1.0), "not uniformly positive"),
            (P.constant, (1.0, 0.0), "horizon must be positive"),
            (P.constant, (NAN, 1.0), "base must be finite"),
            (P.affine, (1.0, NAN, 1.0), "slope must be finite"),
            (P.sinusoidal, (1.0, NAN, 1.0, 1.0), "amp must be finite"),
            (P.sinusoidal, (1.0, 0.2, math.inf, 1.0), "freq must be finite"),
            (P.constant, (1.0, NAN), "horizon must be finite"),
        ]
        for make, args, match in cases:
            with pytest.raises(ValueError, match=match):
                make(*args)

    def test_rejects_overflowing_amp_over_freq(self):
        # the integral's amp / freq term would be inf * 0 = NaN at every time
        match = r"amp / freq = 5\.0 / 2\.3e-308 overflows.*p_amp.*p_freq"
        with pytest.raises(ValueError, match=match):
            DiffusionProfile.sinusoidal(10.0, 5.0, 2.3e-308, 1.0)
        # a finite quotient, however large, is kept
        p = DiffusionProfile.sinusoidal(10.0, 5.0, 1e-300, 1.0)
        assert p.integral(0.0, 0.5) == pytest.approx(5.0, rel=1e-15)

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

    @pytest.mark.parametrize("t0, t1", [(NAN, 0.5), (0.0, NAN)])
    def test_nan_time_raises(self, basis16, profile_affine, t0, t1):
        # not an all-NaN coefficient vector
        with pytest.raises(ValueError, match="nan"):
            basis16.decay(profile_affine, t0, t1)
        with pytest.raises(ValueError, match="nan"):
            evolve(SpectralField.unit_mode(basis16, 1), t0, t1, profile_affine)

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
        with pytest.raises(ConfigError, match="too coarse"):
            project(xs, np.zeros(xs.size), basis64)

    def test_rejects_partial_span(self, basis16):
        xs = uniform_grid(0.1, 1.0, 512)
        with pytest.raises(ConfigError, match="span"):
            project(xs, np.zeros(xs.size), basis16)

    @staticmethod
    def _noise_grid(n, length, seed):
        basis = EigenBasis(DomainSpec(length, 0.5 * length), n)
        xs = uniform_grid(0.0, length, 16 * n)
        return basis, xs, np.random.default_rng(seed).standard_normal(xs.size)

    # jitter moves the nodes by up to 2e-10 L, inside observation_weights'
    # 1e-9 L, while the fold still reads each mirrored node's sines off its
    # partner's; odd n splits the modes unevenly by parity, and at n 512 the
    # half grid spans several blocks
    @pytest.mark.parametrize("jitter, rtol", [(0.0, 1e-12), (2e-10, 1e-6)])
    @pytest.mark.parametrize("length", [1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 97, 256, 512])
    def test_fold_equals_the_dense_product(self, n, length, jitter, rtol):
        basis, xs, v = self._noise_grid(n, length, seed=n)
        xs[1:-1] += np.random.default_rng([n, 1]).uniform(-jitter, jitter, xs.size - 2) * length
        w = spectral.simpson_weights(xs.size, xs[1] - xs[0])
        dense = spectral._sine_matrix(xs, n, length).T @ (w * v)
        c = project(xs, v, basis).coeffs
        assert np.max(np.abs(c - dense)) <= rtol * np.max(np.abs(dense))

    def test_one_matrix_keyed_by_the_full_grid(self, monkeypatch):
        basis, xs, v = self._noise_grid(64, 1.0, seed=3)
        calls = []
        original = EigenBasis.eigenfunction_matrix

        def spy(self, grid, modes=None):
            calls.append((np.array(grid), modes))
            return original(self, grid, modes)

        monkeypatch.setattr(EigenBasis, "eigenfunction_matrix", spy)
        project(xs, v, basis)
        [(grid, modes)] = calls
        np.testing.assert_array_equal(grid, xs)
        assert modes is None


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

    @pytest.mark.parametrize(
        "length, a, b, n",
        [(1.0, 0.3, 0.7, 256), (2.0, 0.0, 2.0, 32), (1.0, 0.1, 0.5, 64), (3.7, 0.11, 2.9, 512),
         (1.0, 0.25, 0.6, 1), (1.3, 0.05, 1.1, 300)],
    )
    def test_sine_table_equals_closed_form(self, length, a, b, n):
        # the closed form with its 4 N^2 sines, kept as the reference: the
        # 3 N-entry table evaluates the same expressions, so equality is exact
        basis = EigenBasis(DomainSpec(length, length / 2.0), n)
        k = np.arange(1, n + 1, dtype=float)
        diff = k[:, None] - k[None, :]
        summ = k[:, None] + k[None, :]

        def s(m, x):
            return np.sin(m * math.pi * x / length)

        with np.errstate(divide="ignore", invalid="ignore"):
            off = (s(diff, b) - s(diff, a)) / (diff * math.pi) - (
                s(summ, b) - s(summ, a)
            ) / (summ * math.pi)
        diag = (b - a) / length - (s(2 * k, b) - s(2 * k, a)) / (2 * k * math.pi)
        np.fill_diagonal(off, diag)
        assert np.array_equal(gram_subdomain(Subdomain(a, b), basis), 0.5 * (off + off.T))

    def test_windows_equal_the_index_gather(self):
        # the same f table gathered through two N x N index arrays, kept as the
        # reference for the sliding-window Toeplitz and Hankel parts
        rng = np.random.default_rng(7)
        sizes = [1, 2] + rng.integers(1, 300, 198).tolist()
        for n in sizes:
            length = rng.uniform(0.5, 3.0)
            a = rng.uniform(0.0, 0.9 * length)
            b = rng.uniform(a + 1e-3 * length, length)
            basis = EigenBasis(DomainSpec(length, length / 2.0), n)
            ms = np.arange(1 - n, 2 * n + 1, dtype=float)
            with np.errstate(invalid="ignore"):
                f = (np.sin(ms * math.pi * b / length) - np.sin(ms * math.pi * a / length)) / (
                    ms * math.pi
                )
            i = np.arange(n)
            off = f[np.subtract.outer(i, i) + (n - 1)] - f[np.add.outer(i, i) + (n + 1)]
            off[i, i] = (b - a) / length - f[2 * i + (n + 1)]
            assert np.array_equal(gram_subdomain(Subdomain(a, b), basis), 0.5 * (off + off.T)), n


class TestNorms:
    def test_single_mode(self, basis16):
        u = SpectralField.unit_mode(basis16, 1)
        assert u.l2() == pytest.approx(1.0)
        assert u.h01() == pytest.approx(math.pi, rel=1e-14)

    def test_l2_past_the_float_square(self, basis16):
        # the sum of squares overflows while the norm does not
        coeffs = np.zeros(16)
        coeffs[[0, 5]] = (3e300, -4e300)
        assert SpectralField(basis16, coeffs).l2() == pytest.approx(5e300, rel=1e-15)

    def test_zero_field(self, basis16):
        u = SpectralField.zero(basis16)
        assert u.l2() == 0.0 and u.h01() == 0.0
        xs = uniform_grid(0.0, 1.0, 64)
        assert np.array_equal(u.evaluate(xs), np.zeros(xs.size))

    def test_evaluate_sums_only_up_to_the_last_nonzero_mode(self, basis64):
        xs = uniform_grid(0.0, 1.0, 512)
        coeffs = np.zeros(64)
        coeffs[[2, 9]] = (0.5, -1.25)
        values = SpectralField(basis64, coeffs).evaluate(xs)
        np.testing.assert_allclose(
            values, basis64.eigenfunction_matrix(xs) @ coeffs, rtol=0.0, atol=1e-14
        )
        assert (10, xs.tobytes()) in _cached_keys(basis64)

    def test_subdomain_norm_from_gram(self, basis16):
        # frozen from the half-interval Gram entries above
        G = gram_subdomain(Subdomain(0.0, 0.5), basis16)
        coeffs = np.zeros(16)
        coeffs[:2] = 1.0
        sub = l2_sub(SpectralField(basis16, coeffs), G)
        assert sub == pytest.approx(math.sqrt(1.0 + 8.0 / (3.0 * math.pi)), rel=1e-13)


class TestSubnormalFlush:
    """A subnormal tail of coefficients stays out of evaluate's dense product."""

    def test_evaluate_equals_the_unflushed_product(self):
        from heatback.harness import Run, parse_config_text

        # the README demo geometry at the benchmark's size
        run = Run(parse_config_text(
            "length = 1.0\nT = 0.25\ndelta_list = 1e-4\nomega_a = 0.3\nomega_b = 0.7\n"
            "modes = 256\nbank = 32\nconstants_mode = empirical\n"
        ))
        grids = (uniform_grid(0.0, 1.0, run.cfg.panels(local=False)),
                 uniform_grid(0.3, 0.7, run.cfg.panels(local=True)))
        for trial in range(3):
            uT = evolve(run.truth(trial), 0.0, run.cfg.T, run.profile)
            m = int(np.flatnonzero(uT.coeffs)[-1]) + 1
            # the last nonzero coefficient is subnormal, so evaluate leaves it out
            assert 0.0 < abs(uT.coeffs[m - 1]) < np.finfo(float).tiny
            for xs in grids:
                unflushed = run.basis.eigenfunction_matrix(xs, m) @ uT.coeffs[:m]
                assert np.array_equal(uT.evaluate(xs), unflushed)


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
