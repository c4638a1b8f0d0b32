"""Dirichlet sine eigenbasis on an interval and the exact forward heat propagator.

Everything downstream works in the span of the first N eigenfunctions of
-d^2/dx^2 on (0, L) with zero boundary values.  A field is a coefficient
vector in that basis; evolving it under du/dt = p(t) u_xx is a diagonal
multiplication by exp(-lambda_i * int p).  Subinterval geometry enters only
through the Gram matrix of the eigenfunctions in the Simpson rule of the
samples there (gram_subdomain), the package's one L2(omega) inner product.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ConfigError


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


@dataclass(frozen=True)
class DiffusionProfile:
    """Time-dependent diffusivity p(t) = base + slope t + amp sin(freq t).

    Bounds p1 <= p(t) <= p2 and the derivative bound dp_inf = sup |p'| are
    certified over [0, horizon] for any mix of the three terms, since the
    linear part is monotone and |sin| <= 1; operations refuse times past the
    horizon.  A zero term changes no computed value by a bit.
    """

    base: float
    slope: float
    amp: float
    freq: float
    horizon: float
    p1: float = field(init=False)
    p2: float = field(init=False)
    dp_inf: float = field(init=False)

    def __post_init__(self):
        for name in ("base", "slope", "amp", "freq", "horizon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"profile {name} must be finite, got {value}")
        if not self.horizon > 0.0:
            raise ValueError(f"profile horizon must be positive, got {self.horizon}")
        if self.freq != 0.0 and not math.isfinite(self.amp / self.freq):
            raise ValueError(
                f"profile amp / freq = {self.amp} / {self.freq} overflows, so the integral of p "
                "is not finite; lower p_amp or raise p_freq"
            )
        ends = (self.base, self.base + self.slope * self.horizon)
        p1 = min(ends) - abs(self.amp)
        if not p1 > 0.0:
            raise ValueError(
                f"profile p_base + p_slope t + p_amp sin(p_freq t) not uniformly positive on "
                f"[0, 3T] = [0, {self.horizon}] (p1={p1}); raise p_base or lower a negative "
                "p_slope or |p_amp|"
            )
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", max(ends) + abs(self.amp))
        object.__setattr__(self, "dp_inf", abs(self.slope) + abs(self.amp * self.freq))

    @classmethod
    def constant(cls, value: float, horizon: float) -> "DiffusionProfile":
        return cls(value, 0.0, 0.0, 0.0, horizon)

    @classmethod
    def affine(cls, base: float, slope: float, horizon: float) -> "DiffusionProfile":
        return cls(base, slope, 0.0, 0.0, horizon)

    @classmethod
    def sinusoidal(cls, base: float, amp: float, freq: float, horizon: float) -> "DiffusionProfile":
        return cls(base, 0.0, amp, freq, horizon)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.base + self.slope * t + self.amp * np.sin(self.freq * t)

    def integral(self, t0: float, t1: float) -> float:
        """Exact value of int_{t0}^{t1} p(s) ds."""
        # written so that a NaN time fails the test
        if not 0.0 <= t0 <= t1:
            raise ValueError(f"need 0 <= t0 <= t1, got t0={t0}, t1={t1}")
        if not t1 <= self.horizon * (1.0 + 1e-12):
            raise ValueError(f"t1={t1} beyond profile horizon {self.horizon}")
        # a zero term is left out, not added as 0.0 * (t1^2 - t0^2), which is
        # NaN once t1^2 overflows
        w = self.base * (t1 - t0)
        if self.slope != 0.0:
            w += 0.5 * self.slope * (t1 * t1 - t0 * t0)
        if self.freq != 0.0:
            w += (self.amp / self.freq) * (math.cos(self.freq * t0) - math.cos(self.freq * t1))
        return w


# (grid, modes) matrices each basis keeps, least recently used evicted first: a
# sweep shares 3 and adds one omega-grid width per noise level
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
        self._sines: list[tuple[int, bytes, np.ndarray]] = []  # least recently used first
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
        # an exponent past the float range gives the 0 that a finite one underflows to
        with np.errstate(over="ignore"):
            return np.exp(-self.eigenvalues * profile.integral(t0, t1))

    def eigenfunction_matrix(self, xs: np.ndarray, modes: int | None = None) -> np.ndarray:
        """Read-only matrix E with E[j, i] = e_{i+1}(xs.flat[j]), i < modes.

        ``modes`` defaults to the basis size; a caller that needs only the
        leading modes asks for just those columns.  E is the transpose view of
        the mode-major matrix that ``_sine_matrix`` builds, so E is
        F-contiguous and row i of the C-contiguous E.T holds e_{i+1} on the
        grid.  The matrices of the few most recently used (modes, grid) pairs
        are kept with a copy of the grid's float64 bytes, so each returned
        matrix depends only on the column count and those bytes.  An entry is
        found by comparing them (a length check, then a memcmp), which is far
        cheaper than hashing them.  A missing matrix is built under a lock,
        for callers that share a basis across threads (the package starts
        none): two that ask for it at once build it once, and the second
        waits for it.
        """
        n = self.size if modes is None else modes
        if not 0 <= n <= self.size:
            raise ValueError(f"modes must lie in [0, {self.size}], got {modes}")
        xs = np.ascontiguousarray(xs, dtype=float)
        data = xs.tobytes()
        with self._sines_lock:
            for i, (n_i, data_i, E) in enumerate(self._sines):
                if n_i == n and data_i == data:
                    del self._sines[i]
                    break
            else:
                rows = _sine_matrix(xs.ravel(), n, self.domain.length)
                rows.flags.writeable = False
                E = rows.T
                if len(self._sines) == _SINE_CACHE_SIZE:
                    del self._sines[0]
            self._sines.append((n, data, E))
        return E


def _sine_matrix(xs: np.ndarray, n: int, L: float) -> np.ndarray:
    """Mode-major sqrt(2/L) sin(k pi xs[j] / L): row k - 1 holds mode k on the
    grid, k = 1..n, as one np.sin into a C-ordered (n, points) array.

    A faster kernel would buy little: the cache keeps each (grid, width)
    matrix, so it is built once per process.  The outer product of k pi / L
    and xs is a matmul of an (n, 1) and a (1, points) array, which, unlike
    a broadcasting ufunc, allocates no iterator buffers next to the result.
    """
    wavenumbers = np.arange(1.0, n + 1.0) * (math.pi / L)
    rows = np.matmul(wavenumbers.reshape(-1, 1), xs.reshape(1, -1))
    np.sin(rows, out=rows)
    rows *= math.sqrt(2.0 / L)
    return rows


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
        # a finite field whose sum of squares overflows (a baseline that inverts
        # mode 1 at a huge T) takes hypot's scaled sum instead
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.coeffs))
        return math.hypot(*self.coeffs) if norm == math.inf else norm

    def h01(self) -> float:
        return float(math.sqrt(np.sum(self.basis.eigenvalues * self.coeffs**2)))

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


def observation_weights(xs: np.ndarray, sub: Subdomain, basis: EigenBasis) -> np.ndarray:
    """Simpson weights for samples on a uniform grid spanning [a, b].

    The ends may be off by 1e-12 L.  Rejects a subinterval past L, an odd panel
    count and grids coarser than 8 points per shortest resolved wavelength.
    """
    sub.validate_inside(basis.domain)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 3:
        raise ConfigError("observation needs at least 3 samples")
    L = basis.domain.length
    if abs(xs[0] - sub.a) > 1e-12 * L or abs(xs[-1] - sub.b) > 1e-12 * L:
        raise ConfigError(f"samples must span [{sub.a}, {sub.b}]")
    spacing = xs[1] - xs[0]
    if not np.abs(np.diff(xs) - spacing).max() <= 1e-9 * L:  # a nan fails too
        raise ConfigError("samples must lie on a uniform grid")
    if (xs.size - 1) % 2 != 0:
        raise ConfigError("observation grid needs an even panel count")
    if spacing > L / (8.0 * basis.size) * (1.0 + 1e-9):
        raise ConfigError(
            f"observation grid too coarse: spacing {spacing} exceeds L/(8N) = {L / (8 * basis.size)}"
        )
    return simpson_weights(xs.size, spacing)


def project(xs: np.ndarray, values: np.ndarray, basis: EigenBasis) -> SpectralField:
    """Quadrature projection of full-domain samples onto the eigenbasis.

    Requires a grid that observation_weights accepts on [0, L]; composite
    Simpson then integrates every product e_i * e_j exactly up to roundoff, so
    projecting band-limited samples is spectrally accurate.

    On that grid of P panels node P - j mirrors node j, and e_k there is
    (-1)^(k+1) e_k at node j.  So the weighted samples wv are folded,
    s_j = wv_j + wv_{P-j} and d_j = wv_j - wv_{P-j} for j < P/2 (s = wv_{P/2}
    and d = 0 at the centre), and the odd modes' coefficients are the sums of
    s over nodes 0..P/2 of the full grid's sine matrix.  The even modes
    k = 2m there are the sine modes m of the half interval at P/2 panels,
    so d is folded again about node P/4, and so on: level l (step 2^l) sums
    modes k = step (2i + 1) against its s over nodes 0..P/(2 step), and the
    modes left when a level's panel count is odd take one sum over all of its
    nodes.  That matrix is stored mode-major, so each level is one
    matrix-vector product over every other remaining mode row, a strided view
    that BLAS reads in place: the levels read a quarter of the matrix, then a
    sixteenth, and so on, about a third in all, and copy none of it.  On a
    grid that is uniform only to the 1e-9 L that observation_weights admits,
    a mirrored sine is off its node's own by at most k pi / L times that, the
    order of error the nominal Simpson weights already make there; each fold
    adds at most one such mirrored-node error.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape or xs.ndim != 1:
        raise ValueError("xs and values must be matching 1-d arrays")
    v = observation_weights(xs, Subdomain.full(basis.domain), basis) * values
    rows = basis.eigenfunction_matrix(xs).T
    sums = np.empty(basis.size)
    panels, step = xs.size - 1, 1
    while step <= basis.size:
        if panels % 2:
            sums[step - 1::step] = rows[step - 1::step, :panels + 1] @ v
            break
        h = panels // 2
        folded = np.empty((2, h + 1))
        np.add(v[:h], v[:h:-1], out=folded[0, :h])
        np.subtract(v[:h], v[:h:-1], out=folded[1, :h])
        folded[:, h] = v[h], 0.0
        sums[step - 1::2 * step] = rows[step - 1::2 * step, :h + 1] @ folded[0]
        v, panels, step = folded[1], h, 2 * step
    return SpectralField(basis, sums)


def gram_subdomain(xs: np.ndarray, weights: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Gram matrix G_ij = sum_k w_k e_i(x_k) e_j(x_k) of the quadrature (xs, weights).

    With the samples' observation_weights it is the inner product that fbar and
    the impulses' quadrature norms use, so the transfer identity holds for the
    data up to rounding.  Built N samples at a time: no temporary exceeds G.
    """
    xs = np.asarray(xs, dtype=float)
    n, L = basis.size, basis.domain.length
    G = np.zeros((n, n))
    for s in range(0, xs.size, n):
        rows = _sine_matrix(xs[s:s + n], n, L)
        G += (rows * weights[s:s + n]) @ rows.T
    return 0.5 * (G + G.T)


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


@cache
def lapack(name: str):
    """The float64 LAPACK routine ``name`` as scipy wraps it, bound once.

    The one source of LAPACK in the package (the control bank's Cholesky,
    potrf and potrs, and the oracle's tridiagonal factor and solves, pttrf
    and pttrs).  scipy.linalg is imported on the first call, so the spectral
    route alone never loads it.
    """
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs((name,), dtype=np.float64)[0]
