"""Batch CLI: forward runs, reconstructions, constants, sweeps, oracle checks.

Exit codes: 0 success, 1 configuration or usage error, 2 a certified
inequality failed at runtime (a hard failure CI can distinguish from misuse),
3 an internal error (any other exception, reported on one line).
All outputs are CSV with a header row and 17-significant-digit floats.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np

from .control import control_mode_bank, verify_control_bounds
from .errors import BoundViolation, ConfigError
from .fd import FDGrid, fd_evolve, oracle_gap
from .filtering import global_backward
from .harness import ExperimentConfig, Run, csv_text, fmt_value, load_config, rows_to_csv, run_sweep
from .pipeline import control_setup, local_reconstruct
from .spectral import SpectralField, evolve


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _field_csv(field) -> str:
    rows = [
        (i + 1, float(lam), float(a))
        for i, (lam, a) in enumerate(zip(field.basis.eigenvalues, field.coeffs))
    ]
    return csv_text(("i", "lambda_i", "a_i"), rows)


_REPORT_COLUMNS = ("delta", "epsilon", "effective_delta", "alpha", "bound", "error")


def _read_observation(path: str):
    try:
        with warnings.catch_warnings():
            # numpy warns on a file with no data rows; that is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read observation {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed observation CSV {path!r}: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"observation CSV {path!r} has no data rows")
    if data.shape[1] != 2:
        raise ConfigError("observation CSV must have columns x,value")
    return data[:, 0], data[:, 1]


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.modes is not None:
        cfg = replace(cfg, modes=args.modes, bank=min(cfg.bank, args.modes))
    return cfg


def _first_delta_abs(cfg: ExperimentConfig, l2: float) -> float:
    if cfg.delta is not None:
        # as for delta_list: such noise is below the roundoff already in u(T)
        floor = sys.float_info.epsilon * l2
        if cfg.delta < floor:
            raise ConfigError(f"delta = {cfg.delta!r} is below float64 roundoff of |u0|, {floor!r}")
        return cfg.delta
    if not cfg.delta_list:
        raise ConfigError("need a nonempty delta_list or an absolute delta key")
    return cfg.delta_list[0] * l2


def _cmd_forward(cfg: ExperimentConfig, args) -> int:
    run = Run(cfg)
    u0 = run.truth()
    uT = evolve(u0, 0.0, cfg.T, run.profile)
    _write(args.out, _field_csv(uT))
    if args.emit_observation:
        delta_abs = _first_delta_abs(cfg, u0.l2())
        xs, noisy = run.observe(uT, delta_abs, [cfg.seed, 0], local=True)
        _write(args.emit_observation, csv_text(("x", "value"), list(zip(xs, noisy))))
    return 0


def _observation(run: Run, args, local: bool):
    """``(u0, xs, values, l2, h01, delta)``: the --observation file with the
    config's priors, or noisy samples of the seeded truth (then ``u0`` is set)."""
    cfg = run.cfg
    if args.observation:
        xs, values = _read_observation(args.observation)
        if cfg.prior_l2 is None or cfg.prior_h01 is None or cfg.delta is None:
            raise ConfigError(
                "external observations need prior_l2, prior_h01 and delta keys in the config"
            )
        if not cfg.delta < cfg.prior_l2:
            raise ConfigError(f"delta = {cfg.delta!r} must be below prior_l2 = {cfg.prior_l2!r}")
        return None, xs, values, cfg.prior_l2, cfg.prior_h01, cfg.delta
    u0 = run.truth()
    l2 = u0.l2()
    delta_abs = _first_delta_abs(cfg, l2)
    if not delta_abs < l2:  # delta_list entries are below 1, so only the delta key gets here
        raise ConfigError(f"delta = {delta_abs!r} must be below the seeded |u0|_L2 = {l2!r}")
    uT = evolve(u0, 0.0, cfg.T, run.profile)
    xs, values = run.observe(uT, delta_abs, [cfg.seed, 0], local)
    return u0, xs, values, l2, u0.h01(), delta_abs


def _cmd_backward(cfg: ExperimentConfig, args, local: bool) -> int:
    run = Run(cfg)
    u0, xs, values, l2, h01, delta_abs = _observation(run, args, local)
    if local:  # samples off the omega grid bring their own Gram matrix
        report = local_reconstruct(values, delta_abs, run.pipeline(l2, h01, xs))
        g, sel, epsilon = report.g, report.selection, report.epsilon
    else:
        g, sel = global_backward(xs, values, run.basis, cfg.T, run.profile, delta_abs, l2, h01)
        epsilon = None
    _write(args.out, _field_csv(g))
    error = None if u0 is None else (u0 - g).l2()
    if args.report:
        row = (delta_abs, epsilon, sel.effective_delta, sel.alpha, sel.bound, error)
        _write(args.report, csv_text(_REPORT_COLUMNS, [row]))
    if local and not report.consistency_ok:
        raise BoundViolation(
            f"transfer certificate failed: certified {report.certified_delta} vs "
            f"claimed {report.claimed_delta}"
        )
    # honest priors and delta give |g| <= |u0| + |u0 - g| <= prior_l2 + bound
    if u0 is None and (norm := math.hypot(*g.coeffs)) > cfg.prior_l2 + sel.bound:
        raise BoundViolation(
            f"|g| = {norm} exceeds prior_l2 + bound = {cfg.prior_l2 + sel.bound}: "
            "the data contradict the prior_l2, prior_h01 or delta keys"
        )
    if error is not None and error > sel.bound:
        raise BoundViolation(f"reconstruction error {error} exceeds certified bound {sel.bound}")
    return 0


def _cmd_control(cfg: ExperimentConfig, args) -> int:
    run = Run(cfg)
    u0 = run.truth()
    l2 = u0.l2()
    setup = control_setup(run.pipeline(l2, u0.h01()), _first_delta_abs(cfg, l2))
    bank = control_mode_bank(setup, cfg.bank)
    rows = []
    for i, sol in enumerate(bank, start=1):
        cert = verify_control_bounds(setup, sol, SpectralField.unit_mode(run.basis, i).coeffs)
        rows.append((i, cert.h_norm, cert.psi_norm, cert.psi_ok, cert.h_ok))
    columns = ("i", "h_norm", "psi_norm", "eps_bound_ok", "h_bound_ok")
    _write(args.out, csv_text(columns, rows))
    bad = [f"mode {row[0]} {name}" for row in rows
           for name, ok in zip(columns[3:], row[3:]) if not ok]
    if bad:
        raise BoundViolation("control certificates failed: " + ", ".join(bad))
    return 0


def _cmd_constants(cfg: ExperimentConfig, args) -> int:
    chain = Run(cfg).chain
    rows = []
    for f in fields(chain):
        value = getattr(chain, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            value = None  # past the float range; ln_c1, ln_c3 and ln_K carry c1, c3 and K
        rows.append((f.name, value))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {fmt_value(value) if value is not None else 'n/a'}")
    if args.out:
        _write(args.out, csv_text(("name", "value"), rows))
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    rows = run_sweep(cfg)
    _write(args.out or cfg.out, rows_to_csv(rows))
    failures = [row["failure"] for row in rows if "failure" in row]
    if failures:
        raise failures[0]
    bad = [row for row in rows if row["bound_ok"] is False]
    if bad:
        raise BoundViolation(
            f"{len(bad)} sweep rows violate certified inequalities: "
            + ", ".join(f"{row['method']} row at delta={row['delta']}" for row in bad)
        )
    return 0


def _cmd_oracle_check(cfg: ExperimentConfig, args) -> int:
    run = Run(cfg)
    u0 = run.truth()
    grid = FDGrid(run.domain, 2000)
    rows = []
    worst = 0.0
    for t in (cfg.T / 5.0, cfg.T):
        spectral = evolve(u0, 0.0, t, run.profile)
        fd_vals = fd_evolve(grid, grid.sample(u0), run.profile, t, 2000)
        gap = oracle_gap(grid, spectral, fd_vals)
        tol = 1e-4 * u0.l2()
        rows.append((cfg.profile, t, gap, tol, gap <= tol))
        worst = max(worst, gap / tol)
    text = csv_text(("profile", "t", "gap", "tol", "ok"), rows)
    _write(args.out, text)
    if args.out is not None:
        sys.stdout.write(text)
    if worst > 1.0:
        raise BoundViolation("finite-difference oracle disagrees with the spectral propagator")
    return 0


_BACKWARD_FLAGS = (
    ("--observation", "observation CSV (x,value); synthetic if absent"),
    ("--report", "one-row report CSV path"),
)

# (name, handler, help, whether --out is required, extra flags), in --help order
_SUBCOMMANDS = (
    ("forward", _cmd_forward, "evolve a synthetic initial state and emit its modes", False,
     (("--emit-observation", "also write noisy subdomain samples"),)),
    ("global-backward", partial(_cmd_backward, local=False),
     "reconstruct from full-domain data at time T", False, _BACKWARD_FLAGS),
    ("control", _cmd_control, "solve the impulse-control bank and emit certificates", True, ()),
    ("local-backward", partial(_cmd_backward, local=True),
     "reconstruct from subdomain data at time T", False, _BACKWARD_FLAGS),
    ("constants", _cmd_constants, "print the observability constant chain", False, ()),
    ("sweep", _cmd_sweep, "noise-level sweep over all methods", False, ()),
    ("oracle-check", _cmd_oracle_check,
     "cross-validate the propagator against finite differences", False, ()),
)
_COMMANDS = {name: handler for name, handler, *_ in _SUBCOMMANDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatback",
        description="Backward reconstruction for the 1D heat equation with "
        "time-dependent diffusivity.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, _, text, needs_out, extra in _SUBCOMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=needs_out, default=None, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--modes", type=int, default=None, help="override the truncation order")
        for flag, flag_help in extra:
            p.add_argument(flag, default=None, help=flag_help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; reserve 2 for falsified mathematics
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return _COMMANDS[args.command](cfg, args)
    except BoundViolation as exc:
        print(f"certified inequality violated: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not misuse: keep it apart from exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
