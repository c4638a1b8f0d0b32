"""Experiment configuration, calibrated noise injection, and sweep orchestration.

Configs are flat ``key = value`` text files with ``#`` comments; unknown keys
are rejected and every default is filled in when a config is built, so that
emitting and reloading a config reproduces it exactly.  A ``Run`` builds the
basis, profile, grids, noisy samples, Gram matrix and constants chain that a
config describes, once for each command or sweep.  Sweeps run the global
solver, the local pipeline, and a spectral-truncation baseline over a
noise-level grid and emit one deterministic CSV; any falsified certified
inequality is reported per row and escalated by the CLI.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .filtering import global_backward, project, truncation_baseline
from .observability import (
    ObservabilityConstants,
    chain_full_domain,
    constants_convex,
    fit_empirical_constants,
)
from .pipeline import PipelineConfig, local_reconstruct, observation_weights
from .spectral import (
    _PROFILE_KINDS,
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    SpectralField,
    Subdomain,
    evolve,
    gram_subdomain,
    quad_norm,
    simpson_weights,
    synthesize_initial,
    uniform_grid,
)

SWEEP_COLUMNS = ("delta", "method", "epsilon", "alpha", "bound", "error", "bound_ok", "runtime_ms")

_CHOICES = {
    "profile": _PROFILE_KINDS,
    "constants_mode": ("paper", "empirical"),
    "zeta_mode": ("paper", "default"),
    "sabotage": ("none", "k"),
}


def _even_ceil(x: float) -> int:
    n = int(math.ceil(x))
    return n + n % 2


def _check(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is the config key of the same name and type.

    A field without a default is a required key.  The keys whose default
    depends on other keys (``x0``, ``omega_b``, ``bank``, ``grid``,
    ``obs_grid``) default to None and are filled in on construction, which
    also checks every value, so neither parsing nor ``dataclasses.replace``
    can build a config that fails a check.  ``delta``, ``prior_l2``,
    ``prior_h01`` and ``out`` may stay unset.
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
    zeta_mode: str = "paper"
    xi: float = 0.5
    grid: int | None = None
    obs_grid: int | None = None
    sabotage: str = "none"
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
        _check(0.0 < self.xi < 1.0, f"xi must lie in (0, 1), got {self.xi}")
        for key, allowed in _CHOICES.items():
            value = getattr(self, key)
            _check(value in allowed, f"{key} must be one of {allowed}, got {value!r}")
        _check(self.trials >= 1, "trials must be >= 1")
        a, b = self.omega_a, self.omega_b
        _check(0.0 <= a < b <= self.length, f"need 0 <= omega_a < omega_b <= length, got {a, b}")
        self._fill(
            grid=_even_ceil(16 * modes),
            obs_grid=max(64, _even_ceil(16 * modes * (b - a) / self.length)),
        )
        _check(
            self.grid % 2 == 0 and self.grid >= 8 * modes,
            f"grid must be even and >= 8*modes = {8 * modes}, got {self.grid}",
        )
        _check(self.obs_grid % 2 == 0, f"obs_grid must be even, got {self.obs_grid}")

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


def config_text(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parsing the text reproduces it exactly."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "delta_list":
            value = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def save_config(cfg: ExperimentConfig, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(cfg))


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


class Run:
    """The objects one config describes: domain, basis, profile and subdomain.

    Each command and the sweep build one ``Run`` and share it.  The Gram
    matrix and the constants chain are built on first use and then kept, so
    a command that needs neither never builds them; touch them before threads
    share a ``Run``, so that each is built once.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.domain = DomainSpec(cfg.length, cfg.x0)
        self.basis = EigenBasis(self.domain, cfg.modes)
        self.subdomain = Subdomain(cfg.omega_a, cfg.omega_b)
        # each kind reads only its own parameters; the horizon is the local method's 3T
        self.profile = DiffusionProfile(
            cfg.profile, cfg.p_base, cfg.p_slope, cfg.p_amp, cfg.p_freq, 3.0 * cfg.T
        )

    def truth(self, trial: int = 0) -> SpectralField:
        """The seeded synthetic initial state of ``trial``."""
        return synthesize_initial(self.basis, self.cfg.decay, self.cfg.seed + trial)

    def observe(self, uT: SpectralField, delta_abs: float, seed, local: bool):
        """``(xs, noisy samples of uT)`` on the omega grid or the full grid.

        The noise has quadrature norm ``delta_abs`` and is seeded by
        ``[*seed, 1]`` on omega and ``[*seed, 0]`` on the whole domain.
        """
        cfg = self.cfg
        if local:
            xs = uniform_grid(cfg.omega_a, cfg.omega_b, cfg.obs_grid)
            weights = observation_weights(xs, self.subdomain, self.basis)
        else:
            xs = uniform_grid(0.0, cfg.length, cfg.grid)
            weights = simpson_weights(xs.size, xs[1] - xs[0])
        return xs, inject_noise(uT.evaluate(xs), delta_abs, [*seed, int(local)], weights)

    @cached_property
    def gram(self) -> np.ndarray:
        return gram_subdomain(self.subdomain, self.basis)

    @cached_property
    def chain(self) -> ObservabilityConstants:
        """Constants chain for the configured geometry and mode."""
        cfg, domain, sub = self.cfg, self.domain, self.subdomain
        if cfg.constants_mode == "empirical":
            return fit_empirical_constants(self.basis, sub, self.gram, cfg.T, self.profile)
        if sub.is_full(domain):
            return chain_full_domain()
        try:
            return constants_convex(domain, sub.ball_radius(domain), self.profile, cfg.xi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def pipeline(self, l2_prior: float, h01_prior: float) -> PipelineConfig:
        """Data of one local reconstruction under the given priors."""
        cfg = self.cfg
        return PipelineConfig(
            basis=self.basis,
            T=cfg.T,
            profile=self.profile,
            subdomain=self.subdomain,
            gram=self.gram,
            n_bank=cfg.bank,
            chain=self.chain,
            l2_prior=l2_prior,
            h01_prior=h01_prior,
            zeta_mode=cfg.zeta_mode,
            k_scale=1e-9 if cfg.sabotage == "k" else 1.0,
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


def rows_to_csv(rows: list[dict], columns=SWEEP_COLUMNS) -> str:
    """CSV of dict rows, one column per key in ``columns``."""
    return csv_text(columns, ([row.get(col) for col in columns] for row in rows))


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
    report = local_reconstruct(xs_omega, noisy_omega, delta_abs, run.pipeline(l2, h01))
    err_local, bound = (u0 - report.g).l2(), report.selection.bound
    local_ok = err_local <= bound and report.consistency_ok and report.k_consistent
    rows.append(row("local", report.epsilon, report.selection.alpha, bound, err_local, local_ok))

    observed = project(xs_full, noisy_full, basis)
    if sel.gate_zero:
        cutoff = 1
    else:
        w0T = profile.integral(0.0, cfg.T)
        cutoff = max(1, int(np.sum(basis.eigenvalues * w0T <= math.log(sel.alpha))))
    g_base = truncation_baseline(observed, cutoff, cfg.T, profile)
    rows.append(row("baseline", None, None, None, (u0 - g_base).l2(), True))
    return rows


def run_sweep(cfg: ExperimentConfig, parallel: int = 1) -> list[dict]:
    """All (delta, seed) cells, three methods each, in deterministic order."""
    if not cfg.delta_list:
        return []
    run = Run(cfg)
    run.pipeline(1.0, 1.0)  # builds the chain and the Gram matrix before the cells share them
    cells = [(di, trial) for di in range(len(cfg.delta_list)) for trial in range(cfg.trials)]
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(lambda c: _sweep_cell(run, *c), cells))
    else:
        results = [_sweep_cell(run, *cell) for cell in cells]
    # cells run delta-major; rows go out delta-major, then by method, then by trial
    return [
        results[di * cfg.trials + trial][m]
        for di in range(len(cfg.delta_list))
        for m in range(3)
        for trial in range(cfg.trials)
    ]
