"""Dirichlet sine eigenbasis on an interval and the exact forward heat propagator.

Everything downstream works in the span of the first N eigenfunctions of
-d^2/dx^2 on (0, L) with zero boundary values.  A field is a coefficient
vector in that basis; evolving it under du/dt = p(t) u_xx is a diagonal
multiplication by exp(-lambda_i * int p).  Subinterval geometry enters only
through the Gram matrix of the eigenfunctions on the subinterval, which is
closed form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DomainSpec:
    """Interval (0, length) with a distinguished interior point x0."""

    length: float
    x0: float

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        if not 0.0 < self.x0 < self.length:
            raise ValueError(f"x0 must lie inside (0, {self.length}), got {self.x0}")

    @property
    def radius(self) -> float:
        """Largest distance from x0 to the closure of the interval."""
        return max(self.x0, self.length - self.x0)

    @classmethod
    def unit(cls) -> "DomainSpec":
        return cls(length=1.0, x0=0.5)


@dataclass(frozen=True)
class Subdomain:
    """Open subinterval (a, b) of the domain."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")
        if self.a < 0.0:
            raise ValueError(f"subinterval start {self.a} below 0")

    @classmethod
    def centered(cls, domain: DomainSpec, r: float) -> "Subdomain":
        """Ball of radius r around the domain's center point."""
        if not 0.0 < r < domain.radius:
            raise ValueError(f"radius must lie in (0, {domain.radius}), got {r}")
        return cls(domain.x0 - r, domain.x0 + r)

    @classmethod
    def full(cls, domain: DomainSpec) -> "Subdomain":
        return cls(0.0, domain.length)

    def validate_inside(self, domain: DomainSpec):
        if self.b > domain.length + 1e-12:
            raise ValueError(f"subinterval ({self.a}, {self.b}) exceeds (0, {domain.length})")

    def is_full(self, domain: DomainSpec) -> bool:
        return abs(self.a) <= 1e-12 and abs(self.b - domain.length) <= 1e-12

    def ball_radius(self, domain: DomainSpec) -> float:
        """Radius of the largest ball around x0 contained in (a, b).

        Positive only when x0 lies strictly inside the subinterval; the
        explicit observability constants require such a ball.
        """
        r = min(domain.x0 - self.a, self.b - domain.x0)
        if r <= 0.0:
            raise ValueError(
                f"subinterval ({self.a}, {self.b}) does not contain a ball around x0={domain.x0}"
            )
        return r


_PROFILE_KINDS = ("constant", "affine", "sinusoidal")


@dataclass(frozen=True)
class DiffusionProfile:
    """Time-dependent diffusivity p(t) from a closed-form-integrable family.

    Bounds p1 <= p(t) <= p2 and the derivative bound dp_inf = sup |p'| are
    certified over [0, horizon]; operations refuse times past the horizon.
    """

    kind: str
    base: float
    slope: float
    amp: float
    freq: float
    horizon: float
    p1: float = field(init=False)
    p2: float = field(init=False)
    dp_inf: float = field(init=False)

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.kind == "constant":
            p1 = p2 = self.base
            dp = 0.0
        elif self.kind == "affine":
            ends = (self.base, self.base + self.slope * self.horizon)
            p1, p2 = min(ends), max(ends)
            dp = abs(self.slope)
        else:
            p1 = self.base - abs(self.amp)
            p2 = self.base + abs(self.amp)
            dp = abs(self.amp * self.freq)
        if p1 <= 0.0:
            raise ValueError(f"profile not uniformly positive on [0, {self.horizon}] (p1={p1})")
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "dp_inf", dp)

    @classmethod
    def constant(cls, value: float, horizon: float) -> "DiffusionProfile":
        return cls("constant", value, 0.0, 0.0, 0.0, horizon)

    @classmethod
    def affine(cls, base: float, slope: float, horizon: float) -> "DiffusionProfile":
        return cls("affine", base, slope, 0.0, 0.0, horizon)

    @classmethod
    def sinusoidal(cls, base: float, amp: float, freq: float, horizon: float) -> "DiffusionProfile":
        return cls("sinusoidal", base, 0.0, amp, freq, horizon)

    def __call__(self, t):
        if self.kind == "constant":
            return self.base * np.ones_like(np.asarray(t, dtype=float))
        if self.kind == "affine":
            return self.base + self.slope * np.asarray(t, dtype=float)
        return self.base + self.amp * np.sin(self.freq * np.asarray(t, dtype=float))

    def integral(self, t0: float, t1: float) -> float:
        """Exact value of int_{t0}^{t1} p(s) ds."""
        if t0 < 0.0 or t1 < t0:
            raise ValueError(f"need 0 <= t0 <= t1, got ({t0}, {t1})")
        if t1 > self.horizon * (1.0 + 1e-12):
            raise ValueError(f"t1={t1} beyond profile horizon {self.horizon}")
        if self.kind == "constant":
            return self.base * (t1 - t0)
        if self.kind == "affine":
            return self.base * (t1 - t0) + 0.5 * self.slope * (t1 * t1 - t0 * t0)
        if self.freq == 0.0:
            return self.base * (t1 - t0)
        return self.base * (t1 - t0) + (self.amp / self.freq) * (
            math.cos(self.freq * t0) - math.cos(self.freq * t1)
        )


_SINE_CACHE_SIZE = 4  # grids whose sine matrix each basis keeps; a sweep uses 2


class EigenBasis:
    """First N Dirichlet eigenpairs of -d^2/dx^2 on (0, L).

    lambda_i = (i pi / L)^2 and e_i(x) = sqrt(2/L) sin(i pi x / L), which are
    orthonormal in L^2(0, L).
    """

    def __init__(self, domain: DomainSpec, size: int):
        if size < 1:
            raise ValueError(f"basis size must be >= 1, got {size}")
        self.domain = domain
        self.size = size
        k = np.arange(1, size + 1, dtype=float)
        with np.errstate(over="ignore"):
            self.eigenvalues = (k * math.pi / domain.length) ** 2
        if not math.isfinite(self.eigenvalues[-1]):
            raise ValueError(
                f"length = {domain.length} too small for {size} modes: "
                f"the eigenvalue ({size} pi / length)^2 overflows"
            )
        self.eigenvalues.flags.writeable = False
        self._sines: dict[bytes, np.ndarray] = {}  # grid bytes -> matrix, oldest first
        self._sines_lock = threading.Lock()

    def __eq__(self, other):
        return (
            isinstance(other, EigenBasis)
            and self.size == other.size
            and self.domain == other.domain
        )

    def __repr__(self):
        return f"EigenBasis(L={self.domain.length}, N={self.size})"

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    def decay(self, profile: DiffusionProfile, t0: float, t1: float) -> np.ndarray:
        """Propagator factors exp(-lambda_i int_{t0}^{t1} p), one per mode."""
        return np.exp(-self.eigenvalues * profile.integral(t0, t1))

    def eigenfunction_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Read-only matrix E with E[j, i] = e_{i+1}(xs.flat[j]).

        The matrices of the last few grids are kept, keyed by the grid's
        float64 bytes, so a fixed grid builds its matrix once per basis.  Two
        threads may both build a missing matrix; the values are identical.
        """
        xs = np.ascontiguousarray(xs, dtype=float)
        key = xs.tobytes()
        with self._sines_lock:
            E = self._sines.get(key)
        if E is not None:
            return E
        L = self.domain.length
        # in place: one array of the result's size, no same-size temporaries
        E = np.outer(xs, np.arange(1, self.size + 1, dtype=float))
        E *= math.pi / L
        np.sin(E, out=E)
        E *= math.sqrt(2.0 / L)
        E.flags.writeable = False
        with self._sines_lock:
            self._sines[key] = E
            while len(self._sines) > _SINE_CACHE_SIZE:
                del self._sines[next(iter(self._sines))]
        return E


@dataclass(frozen=True)
class SpectralField:
    """Function on (0, L) given by its first-N sine coefficients."""

    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).copy()
        if c.shape != (self.basis.size,):
            raise ValueError(f"expected {self.basis.size} coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, basis: EigenBasis) -> "SpectralField":
        return cls(basis, np.zeros(basis.size))

    @classmethod
    def unit_mode(cls, basis: EigenBasis, i: int) -> "SpectralField":
        c = np.zeros(basis.size)
        c[i - 1] = 1.0
        return cls(basis, c)

    def l2(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def h01(self) -> float:
        return float(math.sqrt(np.sum(self.basis.eigenvalues * self.coeffs**2)))

    def l2_sub(self, gram: np.ndarray) -> float:
        q = float(self.coeffs @ gram @ self.coeffs)
        return math.sqrt(max(q, 0.0))

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        return self.basis.eigenfunction_matrix(xs) @ self.coeffs

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if other.basis != self.basis:
            raise ValueError("basis mismatch")
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if other.basis != self.basis:
            raise ValueError("basis mismatch")
        return SpectralField(self.basis, self.coeffs - other.coeffs)


def evolve(
    field: SpectralField, t0: float, t1: float, profile: DiffusionProfile
) -> SpectralField:
    """Propagate a field forward from t0 to t1 under du/dt = p(t) u_xx."""
    return SpectralField(field.basis, field.coeffs * field.basis.decay(profile, t0, t1))


def uniform_grid(a: float, b: float, panels: int) -> np.ndarray:
    """Endpoints-inclusive uniform grid with an even panel count."""
    if panels < 2 or panels % 2 != 0:
        raise ValueError(f"panel count must be even and >= 2, got {panels}")
    return np.linspace(a, b, panels + 1)


def simpson_weights(npoints: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights on a uniform grid with an even panel count."""
    if npoints < 3 or npoints % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd point count >= 3, got {npoints}")
    w = np.ones(npoints)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (spacing / 3.0)


def quad_norm(weights: np.ndarray, values: np.ndarray) -> float:
    """Quadrature L2 norm sqrt(sum w v^2)."""
    return float(math.sqrt(np.sum(weights * np.asarray(values, dtype=float) ** 2)))


def project(xs: np.ndarray, values: np.ndarray, basis: EigenBasis) -> SpectralField:
    """Quadrature projection of full-domain samples onto the eigenbasis.

    Requires a uniform grid spanning [0, L] with at least 8 panels per
    shortest resolved wavelength (panels >= 8 N); composite Simpson then
    integrates every product e_i * e_j exactly up to roundoff, so projecting
    band-limited samples is spectrally accurate.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape or xs.ndim != 1:
        raise ValueError("xs and values must be matching 1-d arrays")
    L = basis.domain.length
    npts = xs.size
    if npts < 3 or abs(xs[0]) > 1e-12 * L or abs(xs[-1] - L) > 1e-12 * L:
        raise ValueError("samples must span [0, L] inclusive")
    spacing = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), spacing, rtol=0.0, atol=1e-9 * L):
        raise ValueError("samples must lie on a uniform grid")
    panels = npts - 1
    if panels < 8 * basis.size:
        raise ValueError(
            f"grid too coarse for N={basis.size}: {panels} panels < {8 * basis.size} "
            "(need 8 panels per shortest resolved wavelength)"
        )
    if panels % 2 != 0:
        raise ValueError("Simpson projection needs an even panel count")
    w = simpson_weights(npts, spacing)
    coeffs = basis.eigenfunction_matrix(xs).T @ (w * values)
    return SpectralField(basis, coeffs)


def gram_subdomain(sub: Subdomain, basis: EigenBasis) -> np.ndarray:
    """Gram matrix G_ij = int_a^b e_i e_j dx via the product-to-sum antiderivative."""
    sub.validate_inside(basis.domain)
    L = basis.domain.length
    n = basis.size
    k = np.arange(1, n + 1, dtype=float)
    diff = k[:, None] - k[None, :]
    summ = k[:, None] + k[None, :]

    def s(m, x):
        return np.sin(m * math.pi * x / L)

    # off-diagonal: [sin(d pi x/L)/(d pi) - sin(s pi x/L)/(s pi)]_a^b
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (s(diff, sub.b) - s(diff, sub.a)) / (diff * math.pi) - (
            s(summ, sub.b) - s(summ, sub.a)
        ) / (summ * math.pi)
    diag = (sub.b - sub.a) / L - (s(2 * k, sub.b) - s(2 * k, sub.a)) / (2 * k * math.pi)
    np.fill_diagonal(off, diag)
    return 0.5 * (off + off.T)


def synthesize_initial(basis: EigenBasis, decay: float, seed: int) -> SpectralField:
    """Seeded random field with coefficients +-u_i / i^decay, u_i in (0.5, 1]."""
    if decay <= 1.0:
        raise ValueError(f"decay must exceed 1, got {decay}")
    rng = np.random.default_rng(seed)
    n = basis.size
    mags = 1.0 - 0.5 * rng.random(n)
    signs = 2.0 * rng.integers(0, 2, n) - 1.0
    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore"):  # i**decay = inf: that mode is 0
        return SpectralField(basis, signs * mags / i**decay)
