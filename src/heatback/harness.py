"""Experiment configuration, calibrated noise injection, and sweep orchestration.

Configs are flat ``key = value`` text files with ``#`` comments; unknown keys
are rejected and every default is filled in when a config is built.  The
bound's zeta and the paper chain's xi are no keys: the local route takes
zeta from ``pipeline.transfer_claim``, and ``constants_convex`` fixes xi = 1/2.  A
``Run`` builds the basis, profile, grids, noisy samples, Gram matrix and
constants chain that a config describes; the parts that depend only on the
geometry are kept for the last geometry a process used (``_geometry``).
Sweeps run the global solver, the local pipeline, and a spectral-truncation
baseline over a noise-level grid and emit one deterministic CSV; any falsified
certified inequality is reported per row and escalated by the CLI.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError
from .filtering import global_backward, project, truncation_baseline
from .observability import (
    ObservabilityConstants,
    chain_full_domain,
    constants_convex,
    fit_empirical_constants,
)
from .pipeline import PipelineConfig, local_reconstruct
from .spectral import (
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    SpectralField,
    Subdomain,
    evolve,
    gram_subdomain,
    observation_weights,
    quad_norm,
    synthesize_initial,
    uniform_grid,
)

SWEEP_COLUMNS = ("delta", "method", "epsilon", "alpha", "bound", "error", "bound_ok", "runtime_ms")

_CHOICES = {
    "profile": ("constant", "affine", "sinusoidal"),
    "constants_mode": ("paper", "empirical"),
}


def _check(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is the config key of the same name and type.

    A field without a default is a required key.  The keys whose default
    depends on other keys (``x0``, ``omega_b``, ``bank``) default to None and
    are filled in on construction, which also checks every value, so neither
    parsing nor ``dataclasses.replace`` can build a config that fails a
    check.  ``delta``, ``prior_l2``, ``prior_h01`` and ``out`` may stay
    unset.  The sample grids are no keys: ``panels`` derives them.
    """

    length: float
    T: float
    delta_list: tuple[float, ...]
    x0: float | None = None
    profile: str = "constant"
    p_base: float = 1.0
    p_slope: float = 0.1
    p_amp: float = 0.2
    p_freq: float = 1.0
    omega_a: float = 0.0
    omega_b: float | None = None
    modes: int = 64
    bank: int | None = None
    decay: float = 3.0
    seed: int = 0
    trials: int = 3
    constants_mode: str = "paper"
    delta: float | None = None
    prior_l2: float | None = None
    prior_h01: float | None = None
    out: str | None = None

    def __post_init__(self):
        floats = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name in _FLOAT_KEYS]
        for key, v in floats + [("delta_list", d) for d in self.delta_list]:
            normal = v is None or math.isfinite(v) and (v == 0.0 or abs(v) >= sys.float_info.min)
            _check(normal, f"{key!r} must be finite and normal, got {v!r}")
        _check(self.length > 0.0, f"length must be positive, got {self.length}")
        _check(self.T > 0.0, f"T must be positive, got {self.T}")
        for key in ("delta", "prior_l2", "prior_h01"):
            v = getattr(self, key)
            _check(v is None or v > 0.0, f"{key} must be positive when set, got {v}")
        # below float64 roundoff the noise is smaller than the error already in u(T)
        lowest = sys.float_info.epsilon
        for d in self.delta_list:
            _check(
                lowest <= d < 1.0,
                f"delta_list entries are relative noise levels in [{lowest!r}, 1), got {d}",
            )
        modes = self.modes
        _check(modes >= 1, "modes must be >= 1")
        self._fill(x0=0.5 * self.length, omega_b=self.length, bank=min(32, modes))
        _check(1 <= self.bank <= modes, f"bank must lie in [1, modes={modes}], got {self.bank}")
        for key, allowed in _CHOICES.items():
            value = getattr(self, key)
            _check(value in allowed, f"{key} must be one of {allowed}, got {value!r}")
        _check(self.trials >= 1, "trials must be >= 1")
        _check(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        a, b = self.omega_a, self.omega_b
        _check(0.0 <= a < b <= self.length, f"need 0 <= omega_a < omega_b <= length, got {a, b}")

    def panels(self, local: bool) -> int:
        """Simpson panels of the full grid, 16 per mode, or of the omega grid
        (``local``): its share of them by length, rounded up to even, >= 64."""
        if not local:
            return 16 * self.modes
        n = math.ceil(16 * self.modes * (self.omega_b - self.omega_a) / self.length)
        return max(64, n + n % 2)

    def _fill(self, **defaults):
        for key, value in defaults.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)


# each key's type is its field's annotation; "| None" marks a key that may stay unset
_KINDS = {f.name: f.type.split(" | ")[0] for f in fields(ExperimentConfig)}
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "tuple[float, ...]": lambda text: tuple(float(tok) for tok in text.split(",") if tok.strip()),
}
_FLOAT_KEYS = {key for key, kind in _KINDS.items() if kind == "float"}


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        payload = line.split("#", 1)[0].strip()
        if not payload:
            continue
        if "=" not in payload:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in payload.split("=", 1))
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = _PARSERS[_KINDS[key]](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"missing required key {f.name!r}")
    return ExperimentConfig(**raw)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)


def inject_noise(
    values: np.ndarray, delta: float, seed, weights: np.ndarray
) -> np.ndarray:
    """Add a seeded Gaussian perturbation with quadrature norm exactly delta."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot perturb an empty sample set")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(values.size)
    scale = delta / quad_norm(weights, noise)
    return values + scale * noise


class _Geometry:
    """The basis, omega quadrature and constants chain of one geometry.

    None of them depends on the noise levels, seed, trials or bank, and only
    the paper chain reads x0, so ``_geometry`` keeps the last one a
    process used, with its basis's sine matrices.  ``omega`` is the omega
    grid of ``panels`` panels, its Simpson weights and their Gram matrix, all
    read-only; it and the chain are built on first use, so a command that
    needs neither never builds them.
    """

    def __init__(self, domain, modes, subdomain, profile, T, constants_mode, panels):
        self.domain, self.subdomain, self.profile = domain, subdomain, profile
        self.T, self.constants_mode, self.panels = T, constants_mode, panels
        self.basis = EigenBasis(domain, modes)

    @cached_property
    def omega(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sub, basis = self.subdomain, self.basis
        xs = uniform_grid(sub.a, sub.b, self.panels)
        weights = observation_weights(xs, sub, basis)
        omega = xs, weights, gram_subdomain(xs, weights, basis)
        for arr in omega:
            arr.flags.writeable = False
        return omega

    @cached_property
    def chain(self) -> ObservabilityConstants:
        domain, sub = self.domain, self.subdomain
        if self.constants_mode == "empirical":
            return fit_empirical_constants(self.basis, self.omega[2], self.T, self.profile)
        if sub.is_full(domain):
            return chain_full_domain()
        try:
            return constants_convex(domain, sub.ball_radius(domain), self.profile)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# keyed by every argument of _Geometry; one geometry is kept, the last one used
_geometry = lru_cache(maxsize=1)(_Geometry)


class Run:
    """The objects one config describes: domain, basis, profile and subdomain.

    The basis, omega quadrature and constants chain come from ``_geometry``,
    so the runs of one geometry in a process share them: a sweep that differs
    from the last only in noise levels, seed, trials or bank, or in x0 under
    the empirical fit, builds none of them again.  The omega quadrature and
    the chain are built on first use.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.domain = DomainSpec(cfg.length, cfg.x0)
        self.subdomain = Subdomain(cfg.omega_a, cfg.omega_b)
        # the terms the profile key leaves out are zero, so they key no memo entry;
        # the horizon is the local method's 3T
        affine, sinusoidal = cfg.profile == "affine", cfg.profile == "sinusoidal"
        self.profile = DiffusionProfile(
            cfg.p_base, cfg.p_slope if affine else 0.0, cfg.p_amp if sinusoidal else 0.0,
            cfg.p_freq if sinusoidal else 0.0, 3.0 * cfg.T,
        )
        # only the paper chain reads x0, so under the empirical fit it keys no
        # memo entry either: the basis reads the length alone
        paper = cfg.constants_mode == "paper"
        self._geo = _geometry(
            self.domain if paper else DomainSpec(cfg.length, 0.5 * cfg.length), cfg.modes,
            self.subdomain, self.profile, cfg.T, cfg.constants_mode, cfg.panels(True),
        )
        self.basis = self._geo.basis

    def truth(self, trial: int = 0) -> SpectralField:
        """The seeded synthetic initial state of ``trial``."""
        return synthesize_initial(self.basis, self.cfg.decay, self.cfg.seed + trial)

    def observe(self, uT: SpectralField, delta_abs: float, seed, local: bool):
        """``(xs, noisy samples of uT)`` on the omega grid or the full grid.

        The noise has quadrature norm ``delta_abs`` and is seeded by
        ``[*seed, 1]`` on omega and ``[*seed, 0]`` on the whole domain.
        """
        sub = self.subdomain if local else Subdomain.full(self.domain)
        xs = uniform_grid(sub.a, sub.b, self.cfg.panels(local))
        weights = observation_weights(xs, sub, self.basis)
        return xs, inject_noise(uT.evaluate(xs), delta_abs, [*seed, int(local)], weights)

    @property
    def gram(self) -> np.ndarray:
        return self._geo.omega[2]

    @property
    def chain(self) -> ObservabilityConstants:
        """Constants chain for the configured geometry and mode."""
        return self._geo.chain

    def pipeline(self, l2_prior: float, h01_prior: float, xs=None) -> PipelineConfig:
        """Data of one local reconstruction on the omega quadrature, or on the
        samples' grid xs when it differs from the omega grid: then
        observation_weights checks xs and the Gram matrix of its weights is built."""
        cfg, sub, basis = self.cfg, self.subdomain, self.basis
        omega = self._geo.omega
        if xs is not None and not np.array_equal(xs, omega[0]):
            weights = observation_weights(xs, sub, basis)
            omega = np.asarray(xs, dtype=float), weights, gram_subdomain(xs, weights, basis)
        return PipelineConfig(
            basis, cfg.T, self.profile, *omega, cfg.bank, self.chain, l2_prior, h01_prior
        )


def fmt_value(value) -> str:
    """CSV cell: empty for None, true/false, 17 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def csv_text(columns, rows) -> str:
    """RFC-4180-style CSV: header row, CRLF line ends, one value per column."""
    out = [",".join(columns)]
    out.extend(",".join(fmt_value(v) for v in row) for row in rows)
    return "\r\n".join(out) + "\r\n"


def rows_to_csv(rows: list[dict]) -> str:
    """CSV of sweep rows, one column per key in ``SWEEP_COLUMNS``."""
    return csv_text(SWEEP_COLUMNS, ([row.get(col) for col in SWEEP_COLUMNS] for row in rows))


def _sweep_cell(run: Run, delta_idx: int, trial: int) -> list[dict]:
    """Run the three methods for one (delta, seed) cell; rows in method order."""
    cfg, basis, profile = run.cfg, run.basis, run.profile
    u0 = run.truth(trial)
    l2, h01 = u0.l2(), u0.h01()
    delta_abs = cfg.delta_list[delta_idx] * l2
    uT = evolve(u0, 0.0, cfg.T, profile)
    seed = [cfg.seed + trial, delta_idx]

    def row(method, epsilon, alpha, bound, error, bound_ok) -> dict:
        # runtime_ms stays 0 so that the CSV is bit-reproducible
        values = (delta_abs, method, epsilon, alpha, bound, error, bound_ok, 0)
        return dict(zip(SWEEP_COLUMNS, values))

    xs_full, noisy_full = run.observe(uT, delta_abs, seed, local=False)
    g_global, sel = global_backward(
        xs_full, noisy_full, basis, cfg.T, profile, delta_abs, l2, h01
    )
    err_global = (u0 - g_global).l2()
    rows = [row("global", None, sel.alpha, sel.bound, err_global, err_global <= sel.bound)]

    xs_omega, noisy_omega = run.observe(uT, delta_abs, seed, local=True)
    try:
        report = local_reconstruct(noisy_omega, delta_abs, run.pipeline(l2, h01, xs_omega))
    except ConfigError as exc:
        # the other methods' rows stand; the CLI writes them, then exits 1 with exc
        rows.append({"delta": delta_abs, "method": "local", "failure": exc})
    else:
        err_local, bound = (u0 - report.g).l2(), report.selection.bound
        local_ok = err_local <= bound and report.consistency_ok
        alpha = report.selection.alpha
        rows.append(row("local", report.epsilon, alpha, bound, err_local, local_ok))

    if sel.gate_zero:
        # the data hold no mode above the noise, so the baseline is the zero
        # answer too, not mode 1's noise blown up by its decay
        g_base = SpectralField.zero(basis)
    else:
        w0T = profile.integral(0.0, cfg.T)
        cutoff = max(1, int(np.sum(basis.eigenvalues * w0T <= math.log(sel.alpha))))
        g_base = truncation_baseline(project(xs_full, noisy_full, basis), cutoff, cfg.T, profile)
    rows.append(row("baseline", None, None, None, (u0 - g_base).l2(), True))
    return rows


def run_sweep(cfg: ExperimentConfig, parallel: int = 1) -> list[dict]:
    """All (delta, seed) cells in turn, three methods each, in deterministic order.

    A cell whose local route raises a ``ConfigError`` keeps its other rows; its
    local row holds only ``delta`` and ``method``, and the error under
    ``failure``, which is no CSV column.

    ``parallel`` is ignored: only the benchmark (``perfbench/bench.py``) still
    passes it, and ROADMAP item 2 removes it with its ``sweep-threads`` workload.
    """
    if not cfg.delta_list:
        return []
    run = Run(cfg)
    rows = []
    for di in range(len(cfg.delta_list)):
        # rows go out delta-major, then by method, then by trial
        cells = [_sweep_cell(run, di, trial) for trial in range(cfg.trials)]
        rows += [cell[m] for m in range(3) for cell in cells]
    return rows
