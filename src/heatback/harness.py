"""Experiment configuration, calibrated noise injection, and sweep orchestration.

Configs are flat ``key = value`` text files with ``#`` comments; unknown keys
are rejected and every default is resolved at load time so that emitting and
reloading a config reproduces it exactly.  Sweeps run the global solver, the
local pipeline, and a spectral-truncation baseline over a noise-level grid
and emit one deterministic CSV; any falsified certified inequality is
reported per row and escalated by the CLI.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

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
    Subdomain,
    evolve,
    gram_subdomain,
    quad_norm,
    simpson_weights,
    synthesize_initial,
    uniform_grid,
)

_CONSTANTS_MODES = ("paper", "empirical")
_ZETA_MODES = ("paper", "default")
_SABOTAGE_MODES = ("none", "k")

SWEEP_COLUMNS = ("delta", "method", "epsilon", "alpha", "bound", "error", "bound_ok", "runtime_ms")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; every field has a concrete value."""

    length: float
    T: float
    delta_list: tuple[float, ...]
    x0: float
    profile: str
    p_base: float
    p_slope: float
    p_amp: float
    p_freq: float
    omega_a: float
    omega_b: float
    modes: int
    bank: int
    decay: float
    seed: int
    trials: int
    constants_mode: str
    zeta_mode: str
    xi: float
    grid: int
    obs_grid: int
    sabotage: str
    delta: float | None
    prior_l2: float | None
    prior_h01: float | None
    out: str | None

    # -- derived builders -------------------------------------------------
    def domain(self) -> DomainSpec:
        return DomainSpec(self.length, self.x0)

    def basis(self) -> EigenBasis:
        return EigenBasis(self.domain(), self.modes)

    def subdomain(self) -> Subdomain:
        return Subdomain(self.omega_a, self.omega_b)

    def profile_obj(self) -> DiffusionProfile:
        horizon = 3.0 * self.T
        if self.profile == "constant":
            return DiffusionProfile.constant(self.p_base, horizon)
        if self.profile == "affine":
            return DiffusionProfile.affine(self.p_base, self.p_slope, horizon)
        return DiffusionProfile.sinusoidal(self.p_base, self.p_amp, self.p_freq, horizon)

    def full_grid(self) -> np.ndarray:
        return uniform_grid(0.0, self.length, self.grid)

    def omega_grid(self) -> np.ndarray:
        return uniform_grid(self.omega_a, self.omega_b, self.obs_grid)


_REQUIRED = ("length", "T", "delta_list")

_FLOAT_KEYS = {
    "length", "T", "x0", "p_base", "p_slope", "p_amp", "p_freq",
    "omega_a", "omega_b", "decay", "xi", "delta", "prior_l2", "prior_h01",
}
_INT_KEYS = {"modes", "bank", "seed", "trials", "grid", "obs_grid"}
_STR_KEYS = {"profile", "constants_mode", "zeta_mode", "sabotage", "out"}
_LIST_KEYS = {"delta_list"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS


def _even_ceil(x: float) -> int:
    n = int(math.ceil(x))
    return n + n % 2


def _resolve(raw: dict) -> ExperimentConfig:
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    length = raw["length"]
    if length <= 0.0:
        raise ConfigError(f"length must be positive, got {length}")
    T = raw["T"]
    if T <= 0.0:
        raise ConfigError(f"T must be positive, got {T}")
    deltas = tuple(raw["delta_list"])
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ConfigError(f"delta_list entries are relative noise levels in (0, 1), got {d}")
    modes = raw.get("modes", 64)
    if modes < 1:
        raise ConfigError("modes must be >= 1")
    bank = raw.get("bank", min(32, modes))
    if not 1 <= bank <= modes:
        raise ConfigError(f"bank must lie in [1, modes={modes}], got {bank}")
    xi = raw.get("xi", 0.5)
    if not 0.0 < xi < 1.0:
        raise ConfigError(f"xi must lie in (0, 1), got {xi}")
    profile = raw.get("profile", "constant")
    if profile not in _PROFILE_KINDS:
        raise ConfigError(f"profile must be one of {_PROFILE_KINDS}, got {profile!r}")
    constants_mode = raw.get("constants_mode", "paper")
    if constants_mode not in _CONSTANTS_MODES:
        raise ConfigError(f"constants_mode must be one of {_CONSTANTS_MODES}")
    zeta_mode = raw.get("zeta_mode", "paper")
    if zeta_mode not in _ZETA_MODES:
        raise ConfigError(f"zeta_mode must be one of {_ZETA_MODES}")
    sabotage = raw.get("sabotage", "none")
    if sabotage not in _SABOTAGE_MODES:
        raise ConfigError(f"sabotage must be one of {_SABOTAGE_MODES}")
    trials = raw.get("trials", 3)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    omega_a = raw.get("omega_a", 0.0)
    omega_b = raw.get("omega_b", length)
    if not 0.0 <= omega_a < omega_b <= length:
        raise ConfigError(f"need 0 <= omega_a < omega_b <= length, got ({omega_a}, {omega_b})")
    grid = raw.get("grid", _even_ceil(16 * modes))
    if grid % 2 != 0 or grid < 8 * modes:
        raise ConfigError(f"grid must be even and >= 8*modes = {8 * modes}, got {grid}")
    obs_default = max(64, _even_ceil(16 * modes * (omega_b - omega_a) / length))
    obs_grid = raw.get("obs_grid", obs_default)
    if obs_grid % 2 != 0:
        raise ConfigError(f"obs_grid must be even, got {obs_grid}")
    return ExperimentConfig(
        length=length,
        T=T,
        delta_list=deltas,
        x0=raw.get("x0", 0.5 * length),
        profile=profile,
        p_base=raw.get("p_base", 1.0),
        p_slope=raw.get("p_slope", 0.1),
        p_amp=raw.get("p_amp", 0.2),
        p_freq=raw.get("p_freq", 1.0),
        omega_a=omega_a,
        omega_b=omega_b,
        modes=modes,
        bank=bank,
        decay=raw.get("decay", 3.0),
        seed=raw.get("seed", 0),
        trials=trials,
        constants_mode=constants_mode,
        zeta_mode=zeta_mode,
        xi=xi,
        grid=grid,
        obs_grid=obs_grid,
        sabotage=sabotage,
        delta=raw.get("delta"),
        prior_l2=raw.get("prior_l2"),
        prior_h01=raw.get("prior_h01"),
        out=raw.get("out"),
    )


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        payload = line.split("#", 1)[0].strip()
        if not payload:
            continue
        if "=" not in payload:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in payload.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_KEYS:
                raw[key] = tuple(float(tok) for tok in value.split(",") if tok.strip())
            elif key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key in _INT_KEYS:
                raw[key] = int(value)
            else:
                raw[key] = value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        if key in _FLOAT_KEYS | _LIST_KEYS and not np.all(np.isfinite(raw[key])):
            raise ConfigError(f"line {lineno}: {key!r} must be finite, got {value!r}")
    return _resolve(raw)


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


def build_chain(cfg: ExperimentConfig) -> ObservabilityConstants:
    """Constants chain for the configured geometry and mode."""
    domain = cfg.domain()
    sub = cfg.subdomain()
    profile = cfg.profile_obj()
    if cfg.constants_mode == "empirical":
        basis = cfg.basis()
        gram = gram_subdomain(sub, basis)
        return fit_empirical_constants(basis, sub, gram, cfg.T, profile)
    if sub.is_full(domain):
        return chain_full_domain()
    try:
        r = sub.ball_radius(domain)
        return constants_convex(domain, r, profile, cfg.xi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def pipeline_config(cfg: ExperimentConfig, l2_prior: float, h01_prior: float) -> PipelineConfig:
    basis = cfg.basis()
    sub = cfg.subdomain()
    return PipelineConfig(
        basis=basis,
        T=cfg.T,
        profile=cfg.profile_obj(),
        subdomain=sub,
        gram=gram_subdomain(sub, basis),
        n_bank=cfg.bank,
        chain=build_chain(cfg),
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


def _sweep_cell(cfg: ExperimentConfig, shared: dict, delta_idx: int, trial: int) -> list[dict]:
    """Run the three methods for one (delta, seed) cell; rows in method order."""
    basis: EigenBasis = shared["basis"]
    profile: DiffusionProfile = shared["profile"]
    xs_full: np.ndarray = shared["xs_full"]
    w_full: np.ndarray = shared["w_full"]
    xs_omega: np.ndarray = shared["xs_omega"]
    w_omega: np.ndarray = shared["w_omega"]

    delta_rel = cfg.delta_list[delta_idx]
    u0 = synthesize_initial(basis, cfg.decay, cfg.seed + trial)
    l2, h01 = u0.l2(), u0.h01()
    delta_abs = delta_rel * l2
    uT = evolve(u0, 0.0, cfg.T, profile)

    noisy_full = inject_noise(
        uT.evaluate(xs_full), delta_abs, [cfg.seed + trial, delta_idx, 0], w_full
    )
    g_global, sel = global_backward(
        xs_full, noisy_full, basis, cfg.T, profile, delta_abs, l2, h01
    )
    err_global = (u0 - g_global).l2()
    rows = [
        {
            "delta": delta_abs,
            "method": "global",
            "epsilon": None,
            "alpha": sel.alpha,
            "bound": sel.bound,
            "error": err_global,
            "bound_ok": err_global <= sel.bound,
            "runtime_ms": 0,
        }
    ]

    pcfg: PipelineConfig = shared["pipeline_proto"]
    pcfg = replace(pcfg, l2_prior=l2, h01_prior=h01)
    noisy_omega = inject_noise(
        uT.evaluate(xs_omega), delta_abs, [cfg.seed + trial, delta_idx, 1], w_omega
    )
    report = local_reconstruct(xs_omega, noisy_omega, delta_abs, pcfg)
    report = replace(report, actual_error=(u0 - report.g).l2())
    err_local = report.actual_error
    rows.append(
        {
            "delta": delta_abs,
            "method": "local",
            "epsilon": report.epsilon,
            "alpha": report.alpha,
            "bound": report.bound,
            "error": err_local,
            "bound_ok": (
                err_local <= report.bound and report.consistency_ok and report.k_consistent
            ),
            "runtime_ms": 0,
        }
    )

    observed = project(xs_full, noisy_full, basis)
    if sel.gate_zero:
        cutoff = 1
    else:
        w0T = profile.integral(0.0, cfg.T)
        cutoff = max(1, int(np.sum(basis.eigenvalues * w0T <= math.log(sel.alpha))))
    g_base = truncation_baseline(observed, cutoff, cfg.T, profile)
    rows.append(
        {
            "delta": delta_abs,
            "method": "baseline",
            "epsilon": None,
            "alpha": None,
            "bound": None,
            "error": (u0 - g_base).l2(),
            "bound_ok": True,
            "runtime_ms": 0,
        }
    )
    return rows


def run_sweep(cfg: ExperimentConfig, parallel: int = 1) -> list[dict]:
    """All (delta, seed) cells, three methods each, in deterministic order."""
    if not cfg.delta_list:
        return []
    basis = cfg.basis()
    sub = cfg.subdomain()
    profile = cfg.profile_obj()
    xs_full = cfg.full_grid()
    xs_omega = cfg.omega_grid()
    shared = {
        "basis": basis,
        "profile": profile,
        "xs_full": xs_full,
        "w_full": simpson_weights(xs_full.size, xs_full[1] - xs_full[0]),
        "xs_omega": xs_omega,
        "w_omega": observation_weights(xs_omega, sub, basis),
        "pipeline_proto": pipeline_config(cfg, 1.0, 1.0),
    }
    cells = [(di, trial) for di in range(len(cfg.delta_list)) for trial in range(cfg.trials)]
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(lambda c: _sweep_cell(cfg, shared, *c), cells))
    else:
        results = [_sweep_cell(cfg, shared, *cell) for cell in cells]
    # cells run delta-major; rows go out delta-major, then by method, then by trial
    return [
        results[di * cfg.trials + trial][m]
        for di in range(len(cfg.delta_list))
        for m in range(3)
        for trial in range(cfg.trials)
    ]
