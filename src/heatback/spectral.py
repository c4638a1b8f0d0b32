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

    # endpoint tolerances are relative to the domain length, so a geometry
    # means the same at every scale
    def validate_inside(self, domain: DomainSpec):
        if self.b > domain.length * (1.0 + 1e-12):
            raise ValueError(f"subinterval ({self.a}, {self.b}) exceeds (0, {domain.length})")

    def is_full(self, domain: DomainSpec) -> bool:
        tol = 1e-12 * domain.length
        return abs(self.a) <= tol and abs(self.b - domain.length) <= tol

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
        # written so that a NaN time fails the test
        if not 0.0 <= t0 <= t1:
            raise ValueError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
        if not t1 <= self.horizon * (1.0 + 1e-12):
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


# (grid, modes) matrices each basis keeps, least recently used evicted first: a
# sweep shares 3 and adds one omega-grid width per noise level in flight
_SINE_CACHE_SIZE = 6


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
        self._sines: dict[tuple[bytes, int], np.ndarray] = {}  # least recently used first
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

    def eigenfunction_matrix(self, xs: np.ndarray, modes: int | None = None) -> np.ndarray:
        """Read-only matrix E with E[j, i] = e_{i+1}(xs.flat[j]), i < modes.

        ``modes`` defaults to the basis size; a caller that needs only the
        leading modes asks for just those columns.  The matrices of the few
        most recently used (grid, modes) pairs are kept, keyed by the grid's
        float64 bytes and the column count, so each returned matrix depends
        only on its key.
        A missing matrix is built while the cache lock is held, so two threads
        that ask for it at once build it once, and the second waits for it.
        """
        n = self.size if modes is None else modes
        if not 0 <= n <= self.size:
            raise ValueError(f"modes must lie in [0, {self.size}], got {modes}")
        xs = np.ascontiguousarray(xs, dtype=float)
        key = (xs.tobytes(), n)
        with self._sines_lock:
            E = self._sines.pop(key, None)
            if E is None:
                E = _sine_matrix(xs.ravel(), n, self.domain.length)
                E.flags.writeable = False
                if len(self._sines) == _SINE_CACHE_SIZE:
                    del self._sines[next(iter(self._sines))]
            self._sines[key] = E
        return E


def _sine_matrix(xs: np.ndarray, n: int, L: float) -> np.ndarray:
    """sqrt(2/L) sin(k theta_j), theta_j = pi xs[j] / L, k = 1..n, by angle addition.

    With n = q r + s, q = isqrt(n), mode k = h + l splits into h in
    {0, q, ..., r q} and l in {1, ..., q}, so sin(k theta) = cos(h theta)
    sin(l theta) + sin(h theta) cos(l theta).  Each point needs only cos and
    sin of theta and of q theta: e^{i l theta} and e^{i h theta} are running
    products of e^{i theta} and e^{i q theta}, whose rounding errors add up
    over at most q and r factors.  Each block of rows is one batched rank-2
    product written straight into the C-ordered result.
    """
    E = np.empty((xs.size, n))
    if n == 0:
        return E
    q = math.isqrt(n)
    r, s = divmod(n, q)  # r full groups of q columns, then s < q columns
    # the three scratch tables and theta hold at most ~8192 doubles together
    # and are reused by every block: a freed temporary of 128 KiB or more
    # raises glibc's mmap threshold and changes how fast every later
    # allocation of the process runs
    rows = max(1, min(xs.size, 8192 // (4 * q + 2 * r + 3)))
    hs = np.empty((rows, r + 1), dtype=complex)  # e^{i h theta}, h = 0, q, ..., r q
    ls = np.empty((rows, q), dtype=complex)  # e^{i l theta}, l = 1, ..., q
    split = np.empty((rows, 2, q))  # sqrt(2/L) (sin, cos)(l theta)
    hs[:, 0] = 1.0
    for a in range(0, xs.size, rows):
        theta = xs[a:a + rows] * (math.pi / L)
        b = theta.size
        hb, lb, sb = hs[:b], ls[:b], split[:b]
        np.cos(theta, out=lb[:, 0].real)
        np.sin(theta, out=lb[:, 0].imag)
        lb[:, 1:] = lb[:, :1]
        np.multiply.accumulate(lb, axis=1, out=lb)
        np.multiply(lb.imag, math.sqrt(2.0 / L), out=sb[:, 0])
        np.multiply(lb.real, math.sqrt(2.0 / L), out=sb[:, 1])
        theta *= q
        np.cos(theta, out=hb[:, 1].real)
        np.sin(theta, out=hb[:, 1].imag)
        hb[:, 2:] = hb[:, 1:2]
        np.multiply.accumulate(hb[:, 1:], axis=1, out=hb[:, 1:])
        cs = hb.view(float).reshape(b, r + 1, 2)  # (cos, sin)(h theta)
        block = E[a:a + b]
        np.matmul(cs[:, :r], sb, out=block[:, :r * q].reshape(b, r, q))
        np.matmul(cs[:, r:], sb[:, :, :s], out=block[:, r * q:].reshape(b, 1, s))
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
        """Values at xs.flat; only the modes up to the last coefficient that
        is a normal float (none for the zero field) are built and summed.  A
        subnormal tail (u(T)'s mode 17 on the README demo) stays out of the
        product, which it would slow about 10x on x86; the values move by less
        than 2.2e-308 times sum_j |e_j(x)|, and on the README demo not at all."""
        normal = np.flatnonzero(np.abs(self.coeffs) >= np.finfo(float).tiny)
        m = int(normal[-1]) + 1 if normal.size else 0
        return self.basis.eigenfunction_matrix(xs, m) @ self.coeffs[:m]

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
    """Gram matrix G_ij = int_a^b e_i e_j dx via the product-to-sum antiderivative.

    Off the diagonal G_ij = f(i - j) - f(i + j) with f(m) = [sin(m pi x / L)]_a^b
    / (m pi): a Toeplitz minus a Hankel matrix, both read as sliding windows
    of one table of f over the 3 N integers m in [1 - N, 2 N].
    """
    sub.validate_inside(basis.domain)
    L = basis.domain.length
    n = basis.size
    ms = np.arange(1 - n, 2 * n + 1, dtype=float)
    with np.errstate(invalid="ignore"):  # f(0) = 0/0 sits on the diagonal, replaced below
        f = (np.sin(ms * math.pi * sub.b / L) - np.sin(ms * math.pi * sub.a / L)) / (ms * math.pi)
    # f[t] holds f(t + 1 - n); for modes i + 1 and j + 1 the difference is i - j,
    # so row i of the Toeplitz part is f[i:i + n] reversed, and the sum is
    # i + j + 2, so row i of the Hankel part is f[i + n + 1:i + 2 n + 1]
    windows = np.lib.stride_tricks.sliding_window_view(f, n)
    off = windows[:n, ::-1] - windows[n + 1:]
    np.fill_diagonal(off, (sub.b - sub.a) / L - f[n + 1::2])
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
