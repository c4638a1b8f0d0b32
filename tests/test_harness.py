"""Config parsing, calibrated noise, sweep orchestration, CLI exit codes."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatback import (
    ConfigError,
    control_setup,
    evolve,
    inject_noise,
    load_config,
    local_reconstruct,
    run_sweep,
)
from heatback import harness, pipeline
from heatback.cli import _COMMANDS, _apply_overrides, build_parser
from heatback.cli import main as cli_main
from heatback.control import ControlSetup
from heatback.filtering import default_zeta
from heatback.harness import (
    _FLOAT_KEYS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    fmt_value,
    parse_config_text,
    rows_to_csv,
)
from heatback.spectral import DiffusionProfile, EigenBasis, simpson_weights, uniform_grid

MINIMAL = "length = 1.0\nT = 0.25\ndelta_list = 1e-4, 1e-6\n"

SWEEP_CFG = """
length = 1.0
T = 0.25
delta_list = 1e-4, 1e-6
omega_a = 0.3
omega_b = 0.7
modes = 32
bank = 16
trials = 2
constants_mode = empirical
"""

# the README demo.cfg geometry at 16 modes
DEMO_16 = """
length = 1.0
T = 0.25
delta_list = 1e-4
omega_a = 0.3
omega_b = 0.7
modes = 16
constants_mode = empirical
"""


class TestConfigParsing:
    def test_minimal_defaults_filled(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.x0 == 0.5
        assert cfg.constants_mode == "paper"
        assert cfg.modes == 64
        assert cfg.omega_b == 1.0
        assert cfg.panels(local=False) == cfg.panels(local=True) == 16 * cfg.modes

    def test_unknown_key_rejected_with_line(self, tmp_path, capsys):
        # sabotage, grid, obs_grid, zeta_mode and xi were keys once; an old
        # config that still sets one is misuse
        keys = (("mystery", "3"), ("sabotage", "k"), ("grid", "2000"), ("obs_grid", "20"),
                ("zeta_mode", "paper"), ("xi", "0.5"))
        for key, value in keys:
            text = f"length = 1.0\n{key} = {value}\nT = 0.1\ndelta_list = 1e-3\n"
            with pytest.raises(ConfigError, match=f"line 2.*{key}"):
                parse_config_text(text)
            path = tmp_path / f"{key}.cfg"
            path.write_text(text)
            assert cli_main(["sweep", "--config", str(path)]) == 1
            assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["-1e-5", "0.0"])
    @pytest.mark.parametrize("key", ["delta", "prior_l2", "prior_h01"])
    def test_nonpositive_absolute_key_names_it(self, key, bad, tmp_path, capsys):
        values = {"delta": "1e-5", "prior_l2": "1.0", "prior_h01": "4.0", key: bad}
        text = SWEEP_CFG + "".join(f"{k} = {v}\n" for k, v in values.items())
        with pytest.raises(ConfigError, match=f"^{key} must be positive"):
            parse_config_text(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        obs = tmp_path / "obs.csv"
        obs.write_text("x,value\n0.4,0.0\n0.5,0.0\n")
        out = tmp_path / "r.csv"
        args = ["--config", str(path), "--observation", str(obs), "--out", str(out)]
        assert cli_main(["local-backward", *args]) == 1
        assert f"configuration error: {key} must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="delta_list"):
            parse_config_text("length = 1.0\nT = 0.1\n")

    def test_malformed_value_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("length = abc\nT = 0.1\ndelta_list = 1e-3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "length = 2.0\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\nlength = 1.0  # trailing\nT = 0.25\ndelta_list = 1e-4\n")
        assert cfg.length == 1.0

    def test_empty_delta_list_allowed(self):
        cfg = parse_config_text("length = 1.0\nT = 0.25\ndelta_list =\n")
        assert cfg.delta_list == ()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e-320"])
    @pytest.mark.parametrize("key", sorted(_FLOAT_KEYS | {"delta_list"}))
    def test_non_finite_value_names_key(self, key, bad, tmp_path, capsys):
        base = {"length": "1.0", "T": "0.25", "delta_list": "1e-4, 1e-6"}
        base[key] = "1e-4, " + bad if key == "delta_list" else bad
        text = "".join(f"{k} = {v}\n" for k, v in base.items())
        with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
            parse_config_text(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli_main(["sweep", "--config", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["sweep", "global-backward", "local-backward"])
    def test_noise_below_roundoff_names_delta_list(self, command, tmp_path, capsys):
        # such noise is smaller than the roundoff already in u(T), so the bound missed it
        path = tmp_path / "tiny_delta.cfg"
        path.write_text(DEMO_16.replace("delta_list = 1e-4", "delta_list = 1e-19"))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "delta_list" in err and "1e-19" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "global-backward", "local-backward"])
    def test_noise_just_above_roundoff_runs(self, command, tmp_path, capsys):
        path = tmp_path / "small_delta.cfg"
        path.write_text(DEMO_16.replace("delta_list = 1e-4", "delta_list = 2.3e-16"))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0


class TestOverrides:
    @staticmethod
    def overridden(text, *flags):
        args = build_parser().parse_args(["sweep", "--config", "unused.cfg", *flags])
        return _apply_overrides(parse_config_text(text), args)

    @pytest.mark.parametrize("geometry", ["", "omega_a = 0.3\nomega_b = 0.7\n"])
    def test_modes_gives_the_grids_of_the_config_key(self, geometry):
        # up from 8 keeps the bank of 8; down from 40 caps its bank of 32 at 16
        for before, after, bank in ((8, 40, 8), (40, 16, 16)):
            cfg = self.overridden(MINIMAL + geometry + f"modes = {before}\n", "--modes", str(after))
            parsed = parse_config_text(MINIMAL + geometry + f"modes = {after}\nbank = {bank}\n")
            assert cfg == parsed
            assert cfg.panels(local=False) == 16 * after

    def test_modes_obs_grid_matches_parsing(self):
        # the override used to round 16 * modes * span up twice: 82 here
        text = MINIMAL + "omega_a = 0.25\nomega_b = 0.75\n"
        cfg = self.overridden(text + "modes = 8\n", "--modes", "10")
        parsed = parse_config_text(text + "modes = 10\n")
        grids = [(c.panels(local=False), c.panels(local=True)) for c in (cfg, parsed)]
        assert grids == [(160, 80)] * 2

    def test_seed_changes_only_seed(self):
        base = parse_config_text(SWEEP_CFG)
        assert self.overridden(SWEEP_CFG, "--seed", "7") == replace(base, seed=7)
        assert self.overridden(SWEEP_CFG) == base

    def test_replace_is_validated(self):
        cfg = parse_config_text(SWEEP_CFG)
        with pytest.raises(ConfigError, match="modes"):
            replace(cfg, modes=0)
        with pytest.raises(ConfigError, match="'T' must be finite"):
            replace(cfg, T=math.nan)
        with pytest.raises(ConfigError, match="constants_mode"):
            replace(cfg, constants_mode="bogus")
        with pytest.raises(ConfigError, match="seed"):
            replace(cfg, seed=-1)

    def test_modes_zero_exits_one(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL)
        assert cli_main(["sweep", "--config", str(path), "--modes", "0"]) == 1
        assert "modes" in capsys.readouterr().err


def test_readme_config_keys_match_the_dataclass():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    required = re.findall(r"`(\w+)`", re.search(r"^Required keys: (.*)$", section, re.M).group(1))
    table = [
        name
        for row in section.splitlines()
        if row.startswith("| `")
        for name in re.findall(r"`(\w+)`", row.split("|")[1])
    ]
    assert required == [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
    assert sorted(required + table) == sorted(f.name for f in fields(ExperimentConfig))


class TestInjectNoise:
    def test_exact_quadrature_norm(self):
        xs = uniform_grid(0.3, 0.7, 512)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        clean = np.sin(xs)
        for delta in (1e-2, 1e-6):
            noisy = inject_noise(clean, delta, [7, 1], w)
            measured = math.sqrt(float(np.sum(w * (noisy - clean) ** 2)))
            assert measured == pytest.approx(delta, rel=1e-12)

    def test_deterministic_per_seed(self):
        xs = uniform_grid(0.0, 1.0, 256)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        a = inject_noise(np.zeros(xs.size), 1e-3, [5, 2], w)
        b = inject_noise(np.zeros(xs.size), 1e-3, [5, 2], w)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_decorrelated(self):
        xs = uniform_grid(0.0, 1.0, 4096)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        a = inject_noise(np.zeros(xs.size), 1.0, [1], w)
        b = inject_noise(np.zeros(xs.size), 1.0, [2], w)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 0.2

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            inject_noise(np.zeros(0), 1e-3, [0], np.zeros(0))
        with pytest.raises(ValueError):
            inject_noise(np.zeros(4), 0.0, [0], np.ones(4))

    def test_run_observe_samples_both_grids(self):
        cfg = parse_config_text(DEMO_16)
        run = harness.Run(cfg)
        u0 = run.truth()
        uT = evolve(u0, 0.0, cfg.T, run.profile)
        delta_abs, seed = 1e-4 * u0.l2(), [cfg.seed, 0]
        grids = {False: uniform_grid(0.0, cfg.length, cfg.panels(local=False)),
                 True: uniform_grid(cfg.omega_a, cfg.omega_b, cfg.panels(local=True))}
        for local, expected_xs in grids.items():
            xs, noisy = run.observe(uT, delta_abs, seed, local)
            np.testing.assert_array_equal(xs, expected_xs)
            clean = uT.evaluate(xs)
            w = simpson_weights(xs.size, xs[1] - xs[0])
            measured = math.sqrt(float(np.sum(w * (noisy - clean) ** 2)))
            assert measured == pytest.approx(delta_abs, rel=1e-12)
            # the full grid draws from [*seed, 0], the omega grid from [*seed, 1]
            own, other = [*seed, int(local)], [*seed, 1 - int(local)]
            np.testing.assert_array_equal(noisy, inject_noise(clean, delta_abs, own, w))
            assert not np.array_equal(noisy, inject_noise(clean, delta_abs, other, w))


@pytest.fixture(scope="module")
def sweep_rows():
    return run_sweep(parse_config_text(SWEEP_CFG))


@pytest.fixture()
def wrong_weight(monkeypatch):
    """Build every control setup with 1e-9 times the chain's weight k."""
    real = pipeline.weight_from_chain
    monkeypatch.setattr(pipeline, "weight_from_chain", lambda c, T, e: 1e-9 * real(c, T, e))


def use_zeta_rule(monkeypatch, rule: str) -> None:
    """Select local_reconstruct's zeta: "paper" keeps pipeline.transfer_claim's,
    "default" keeps its claim and swaps in the canonical default_zeta on the
    horizon 3T."""
    if rule == "default":
        real = pipeline.transfer_claim

        def claim_with_default_zeta(cfg, eps, delta):
            claimed, _ = real(cfg, eps, delta)
            return claimed, default_zeta(cfg.basis.lambda1, cfg.profile.p2, 3.0 * cfg.T)

        monkeypatch.setattr(pipeline, "transfer_claim", claim_with_default_zeta)


class TestSweep:
    @pytest.fixture()
    def rows(self, sweep_rows):
        return sweep_rows

    def test_row_count_and_order(self, rows):
        # 2 deltas x 3 methods x 2 trials, grouped delta-major then method
        assert len(rows) == 12
        methods = [r["method"] for r in rows]
        assert methods == (["global"] * 2 + ["local"] * 2 + ["baseline"] * 2) * 2

    def test_all_rows_certified(self, rows):
        assert all(r["bound_ok"] for r in rows)

    def test_bounds_dominate_errors(self, rows):
        for r in rows:
            if r["bound"] is not None:
                assert r["error"] <= r["bound"]

    def test_empty_delta_list_empty_output(self):
        assert run_sweep(parse_config_text("length = 1.0\nT = 0.25\ndelta_list =\n")) == []

    def test_median_error_non_increasing_in_delta(self, rows):
        # deltas are listed largest first; rows come delta-major with the
        # trials contiguous per (delta, method) group
        trials = 2
        for method in ("global", "local"):
            errs = [r["error"] for r in rows if r["method"] == method]
            medians = [
                float(np.median(errs[i: i + trials])) for i in range(0, len(errs), trials)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(medians, medians[1:]))

    @pytest.mark.parametrize("modes", ["modes = 32\nbank = 16", "modes = 64"], ids=["32", "64"])
    def test_two_runs_agree(self, modes):
        cfg = parse_config_text(SWEEP_CFG.replace("modes = 32\nbank = 16", modes))
        assert rows_to_csv(run_sweep(cfg)) == rows_to_csv(run_sweep(cfg))

    def test_parallel_is_ignored_and_starts_no_thread(self, monkeypatch):
        cfg = parse_config_text(SWEEP_CFG)
        expected = rows_to_csv(run_sweep(cfg))
        threads = []
        cell = harness._sweep_cell

        def spy(*args):
            threads.append(threading.get_ident())
            return cell(*args)

        monkeypatch.setattr(harness, "_sweep_cell", spy)
        assert rows_to_csv(run_sweep(cfg, parallel=2)) == expected
        assert threads == [threading.get_ident()] * 4

    def test_sabotage_flags_rows(self, wrong_weight):
        rows = run_sweep(parse_config_text(SWEEP_CFG))
        local_rows = [r for r in rows if r["method"] == "local"]
        assert len(local_rows) == 4 and not any(r["bound_ok"] for r in local_rows)
        assert all(r["bound_ok"] for r in rows if r["method"] != "local")


def _sweep_outcome(cfg) -> str:
    """The sweep's CSV and the errors its local rows hold, or the message of
    the ConfigError it raises."""
    try:
        rows = run_sweep(cfg)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    return rows_to_csv(rows) + "".join(f"ConfigError: {r['failure']}" for r in rows if "failure" in r)


class TestGeometryMemo:
    BASE = dict(length=1.0, T=0.25, delta_list=(1e-4,), omega_a=0.3, omega_b=0.7, modes=16,
                trials=1, constants_mode="empirical")

    def test_second_sweep_builds_no_matrix_gram_or_chain(self, monkeypatch):
        from heatback import spectral

        # (config, later sweeps as the fields they change); the second is the
        # benchmark's sweep, whose timed ops cycle through three noise levels
        # with fresh seeds on the README demo geometry at N 256; the third
        # changes only terms that a constant profile leaves out
        bench = DEMO_16.replace("modes = 16", "modes = 256\nbank = 32\ntrials = 2")
        inputs = [
            (SWEEP_CFG, [dict(delta_list=(1e-8,), seed=7, trials=1)]),
            (bench, [dict(delta_list=(d,), seed=s, trials=2)
                     for d, s in ((1e-4, 2), (1e-6, 4), (1e-8, 6))]),
            (DEMO_16, [dict(p_slope=0.3), dict(p_amp=0.5), dict(p_freq=2.0)]),
        ]
        calls = []

        def spy(patch, module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            patch.setattr(module, name, wrapper)

        for text, later in inputs:
            cfg = parse_config_text(text)
            first = rows_to_csv(run_sweep(cfg))
            with monkeypatch.context() as patch:
                spy(patch, spectral, "_sine_matrix")
                spy(patch, harness, "gram_subdomain")
                spy(patch, harness, "fit_empirical_constants")
                # the memo serves any change of noise level, seed, trials or unused term
                assert rows_to_csv(run_sweep(cfg)) == first
                for changes in later:
                    run_sweep(replace(cfg, **changes))
            assert calls == [], text

    def test_empirical_chain_is_not_keyed_by_x0_or_xi(self, monkeypatch):
        # x0 reaches only the paper chain, so sweeps that differ only in it
        # fit the empirical chain once and write the same bytes
        fits = []
        fit = harness.fit_empirical_constants

        def spy(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(harness, "fit_empirical_constants", spy)
        cfg = parse_config_text(DEMO_16)
        outputs = {rows_to_csv(run_sweep(replace(cfg, **changes)))
                   for changes in ({}, dict(x0=0.45))}
        assert len(fits) == 1
        assert len(outputs) == 1

    # (field, base overrides under which the field moves the outcome, new value);
    # x0 reaches only the paper chain, which overflows on a subinterval, so
    # for it the outcome is the error that names the chain's constants
    @pytest.mark.parametrize("key, base, value", [
        ("length", {}, 1.5),
        ("x0", {"constants_mode": "paper"}, 0.45),
        ("modes", {}, 20),
        ("omega_a", {}, 0.25),
        ("omega_b", {}, 0.75),
        ("T", {}, 0.2),
        ("profile", {}, "affine"),
        ("p_base", {}, 1.2),
        ("p_slope", {"profile": "affine"}, 0.3),
        ("p_amp", {"profile": "sinusoidal"}, 0.3),
        ("p_freq", {"profile": "sinusoidal"}, 2.0),
        ("constants_mode", {"omega_a": 0.0, "omega_b": 1.0, "constants_mode": "paper"},
         "empirical"),
    ])
    def test_each_geometry_field_is_in_the_key(self, key, base, value):
        kw = {**self.BASE, **base}
        warm_from = _sweep_outcome(ExperimentConfig(**kw))
        changed = ExperimentConfig(**{**kw, key: value})
        warm = _sweep_outcome(changed)
        harness._geometry.cache_clear()
        assert warm == _sweep_outcome(changed)
        assert warm != warm_from

    def test_gram_is_read_only(self):
        gram = harness.Run(ExperimentConfig(**self.BASE)).gram
        with pytest.raises(ValueError, match="read-only"):
            gram[0, 0] = 0.0


class TestCsvEmission:
    def test_format(self):
        text = rows_to_csv(
            [
                {
                    "delta": 1e-4,
                    "method": "global",
                    "epsilon": None,
                    "alpha": 2.5,
                    "bound": 0.125,
                    "error": 0.0625,
                    "bound_ok": True,
                    "runtime_ms": 0,
                }
            ]
        )
        lines = text.split("\r\n")
        assert lines[0] == "delta,method,epsilon,alpha,bound,error,bound_ok,runtime_ms"
        assert lines[1] == (
            "1.0000000000000000e-04,global,,2.5000000000000000e+00,"
            "1.2500000000000000e-01,6.2500000000000000e-02,true,0"
        )


def csv_rows(path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestCli:
    @pytest.fixture()
    def cfg_path(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SWEEP_CFG)
        return str(path)

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli_main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    # the spectral route runs on numpy alone; LAPACK, and with it scipy.linalg,
    # is bound on the first Cholesky or tridiagonal solve
    SPECTRAL_ROUTE = """
import contextlib, io, sys
import numpy as np
import heatback, heatback.cli
from heatback import (ControlSetup, DiffusionProfile, DomainSpec, EigenBasis, FDGrid,
                      Subdomain, fd_evolve, gram_subdomain, solve_control, uniform_grid)
from heatback.spectral import observation_weights

cfg, out, first_lapack_call = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for command in (["global-backward", "--out", out], ["forward", "--out", out], ["constants"]):
        assert heatback.cli.main([*command, "--config", cfg]) == 0, command
assert "scipy.linalg" not in sys.modules
domain, profile = DomainSpec.unit(), DiffusionProfile.constant(1.0, 0.75)
if first_lapack_call == "solve_control":
    basis = EigenBasis(domain, 8)
    xs = uniform_grid(0.3, 0.7, 64)
    gram = gram_subdomain(xs, observation_weights(xs, Subdomain(0.3, 0.7), basis), basis)
    setup = ControlSetup(basis, 0.25, profile, gram, 0.1, 1.0)
    solve_control(setup, np.ones(8))
else:
    fd_evolve(FDGrid(domain, 64), np.ones(64), profile, 0.1, 4)
assert "scipy.linalg" in sys.modules
"""

    @pytest.mark.parametrize("first_lapack_call", ["solve_control", "fd_evolve"])
    def test_spectral_route_never_imports_scipy(self, cfg_path, tmp_path, first_lapack_call):
        # a fresh interpreter: this suite's own modules import scipy
        src = str(Path(harness.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", self.SPECTRAL_ROUTE, cfg_path, str(tmp_path / "out.csv"),
             first_lapack_call],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_constants_subcommand(self, cfg_path, capsys):
        assert cli_main(["constants", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "mu" in out and "c1" in out

    def test_constants_leave_an_overflowed_value_empty(self, tmp_path, capsys):
        # on this narrow omega the paper chain's c1 and c3 exceed the float range
        path = tmp_path / "paper.cfg"
        path.write_text(
            SWEEP_CFG.replace("omega_a = 0.3", "omega_a = 0.35")
            .replace("omega_b = 0.7", "omega_b = 0.65")
            .replace("constants_mode = empirical", "constants_mode = paper")
        )
        out = tmp_path / "constants.csv"
        assert cli_main(["constants", "--config", str(path), "--out", str(out)]) == 0
        printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
        written = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert printed["c1"] == printed["c3"] == "n/a"
        assert written["c1"] == written["c3"] == ""
        assert math.isfinite(float(written["ln_c1"])) and math.isfinite(float(written["K"]))
        assert "inf" not in out.read_text()

    def test_sweep_writes_deterministic_csv(self, cfg_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli_main(["sweep", "--config", cfg_path, "--out", str(out1)]) == 0
        assert cli_main(["sweep", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_sabotage_exits_two(self, cfg_path, tmp_path, capsys, wrong_weight):
        out = tmp_path / "sab.csv"
        assert cli_main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2

    def test_sweep_exit_two_lists_every_failing_row(self, cfg_path, tmp_path, capsys,
                                                    wrong_weight):
        out = tmp_path / "sab.csv"
        assert cli_main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        bad = [line.split(",") for line in out.read_text().splitlines()[1:]
               if line.split(",")[6] == "false"]
        assert len(bad) == 4  # the local row of each of 2 deltas x 2 trials
        assert err.startswith("certified inequality violated: 4 sweep rows violate")
        for cells in bad:
            assert f"{cells[1]} row at delta={float(cells[0])}" in err

    def test_local_backward_wrong_weight_exits_two(self, cfg_path, tmp_path, capsys,
                                                    wrong_weight):
        out = tmp_path / "r.csv"
        assert cli_main(["local-backward", "--config", cfg_path, "--out", str(out)]) == 2
        assert "transfer certificate failed" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", ["0", "2"])
    def test_sweep_parallel_is_a_usage_error(self, parallel, cfg_path, capsys):
        assert cli_main(["sweep", "--config", cfg_path, "--parallel", parallel]) == 1
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        for key, line in (("prior_l2", "prior_l2 = -1.0"), ("seed", "seed = -1")):
            path.write_text(SWEEP_CFG + line + "\n")
            assert cli_main(["sweep", "--config", str(path)]) == 1
            assert key in capsys.readouterr().err
        path.write_text(SWEEP_CFG)
        assert cli_main(["sweep", "--config", str(path), "--seed", "-1"]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_empirical_fit_without_samples_exits_one(self, tmp_path, capsys):
        path = tmp_path / "decayed.cfg"
        path.write_text(SWEEP_CFG.replace("modes = 32\nbank = 16", "modes = 16") + "p_base = 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["sweep", "--config", str(path)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "decays to zero" in capsys.readouterr().err

    @pytest.mark.parametrize("profile", ["p_base = 1e308\n", "profile = affine\np_slope = 1e308\n"],
                             ids=["p_base", "p_slope"])
    @pytest.mark.parametrize("command", ["sweep", "constants", "local-backward", "global-backward"])
    def test_overflowing_diffusivity_names_the_profile_keys(self, profile, command, tmp_path,
                                                            capsys):
        # lambda_i int_0^T p overflows: each decay factor is the 0 it would
        # underflow to, with no warning, and the run that needs u(T) names the
        # keys that set the diffusivity and T
        path = tmp_path / "huge_p.cfg"
        path.write_text(DEMO_16 + profile)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        assert all(key in err for key in ("p_base", "p_slope", "p_amp", " T"))

    @pytest.mark.parametrize("command", ["forward", "oracle-check", "sweep", "constants"])
    def test_overflowing_amp_over_freq_names_the_keys(self, command, tmp_path, capsys):
        # amp / freq overflows, so int p would be NaN: forward wrote NaN
        # coefficients and oracle-check reported a false disagreement
        path = tmp_path / "tiny_freq.cfg"
        path.write_text(
            DEMO_16 + "profile = sinusoidal\np_base = 10\np_amp = 5\np_freq = 2.3e-308\n"
        )
        out = tmp_path / "o.csv"
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "p_amp" in err and "p_freq" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "profile", ["p_freq = 1e-16\n", "p_base = 1000\np_amp = 1\np_freq = 1e6\n"],
        ids=["vanishing_shrink", "overflowing_exp"],
    )
    def test_unrepresentable_paper_chain_names_the_profile_keys(self, profile, tmp_path, capsys):
        # a positive derivative bound too small for 1 - (2/3)^C0, or one that
        # overflows e^C1, was ZeroDivisionError or OverflowError (exit 3)
        path = tmp_path / "paper.cfg"
        path.write_text(
            DEMO_16.replace("omega_a = 0.3", "omega_a = 0.0").replace("empirical", "paper")
            + "profile = sinusoidal\n" + profile
        )
        out = tmp_path / "o.csv"
        assert cli_main(["constants", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(key in err for key in ("p_slope", "p_amp", "p_freq"))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["local-backward", "control", "sweep", "global-backward"])
    def test_vanishing_T_names_T(self, command, tmp_path, capsys):
        path = tmp_path / "tiny_T.cfg"
        path.write_text(
            SWEEP_CFG.replace("T = 0.25", "T = 1e-300").replace("modes = 32\nbank = 16", "modes = 16")
        )
        args = [command, "--config", str(path), "--out", str(tmp_path / "out.csv")]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert "T = 1e-300 too small" in err or "T too small" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["global-backward", "forward", "sweep"])
    def test_vanishing_length_names_length(self, command, tmp_path, capsys):
        path = tmp_path / "tiny_length.cfg"
        path.write_text("length = 1e-300\nT = 0.25\ndelta_list = 1e-4\nmodes = 16\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "length = 1e-300 too small" in err and "Traceback" not in err

    @pytest.mark.parametrize("length", ["1", "1e-13"])
    def test_half_domain_window_is_not_the_whole_domain(self, length, tmp_path, capsys):
        # omega = (0, L/2) on the paper chain: no ball around x0 = L/2 at any scale
        path = tmp_path / "half.cfg"
        L = float(length)
        path.write_text(
            f"length = {length}\nT = 0.25\ndelta_list = 1e-4\nomega_a = 0\n"
            f"omega_b = {0.5 * L!r}\nmodes = 16\n"
        )
        assert cli_main(["constants", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert "does not contain a ball around x0" in captured.err
        assert "full" not in captured.out

    @pytest.mark.parametrize("command", ["local-backward", "control", "sweep"])
    def test_worst_case_chain_on_subinterval_names_chain(self, command, tmp_path, capsys):
        path = tmp_path / "paper_sub.cfg"
        path.write_text(DEMO_16.replace("constants_mode = empirical", ""))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "T = 0.25 too small for the constants chain (c3 = 7.46482e+271" in err
        assert "constants_mode = empirical" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["local-backward", "control", "sweep"])
    def test_overflowing_chain_names_the_chain(self, command, tmp_path, capsys):
        # on this narrow window c1 and c3 overflow; control used to blame T
        path = tmp_path / "narrow.cfg"
        path.write_text(MINIMAL + "omega_a = 0.45\nomega_b = 0.55\nmodes = 16\n")
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "constant chain overflows double range" in err and "too small" not in err
        assert "constants_mode = empirical" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["local-backward", "control", "sweep"])
    def test_underflowing_weight_names_eps_and_k(self, command, tmp_path, capsys):
        # the chain gives eps 8.1e13 and k 6.2e-209, whose square is 0; control
        # used to divide by it and exit 3, the others blamed zeta
        path = tmp_path / "tiny_k.cfg"
        path.write_text(
            "length = 1.0\nT = 5.785e-4\ndelta_list = 1.29e-14\nomega_a = 0.8042\n"
            "omega_b = 0.8439\nmodes = 11\nconstants_mode = empirical\np_base = 0.191\n"
            "decay = 1.0686\n"
        )
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        named = re.fullmatch(
            r"configuration error: k\^2 or eps\^2 underflows to 0 \(eps=(\S+), k=(\S+)\)\n", err
        )
        assert named, err
        assert 8e13 < float(named[1]) < 8.2e13 and 6e-209 < float(named[2]) < 6.3e-209
        if command == "sweep":
            # the local route's failure loses no other method's checked row
            lines = (tmp_path / "o.csv").read_text().splitlines()
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            assert [row["method"] for row in rows] == ["global"] * 3 + ["local"] * 3 + [
                "baseline"] * 3
            for row in rows:
                assert float(row["delta"]) > 0.0
                if row["method"] == "local":
                    assert all(row[col] == "" for col in SWEEP_COLUMNS[2:]), row
                else:
                    assert row["bound_ok"] == "true" and math.isfinite(float(row["error"]))

    @pytest.mark.parametrize("zeta_rule", ["paper", "default"])
    @pytest.mark.parametrize("command, rc", [
        ("sweep", 1), ("local-backward", 1), ("global-backward", 0),
    ])
    def test_huge_T_names_T(self, command, rc, zeta_rule, monkeypatch, tmp_path, capsys):
        # every decay factor from 2T to 3T underflows, so the transfer weight S_w
        # is 0; the message is the same under either zeta rule
        use_zeta_rule(monkeypatch, zeta_rule)
        path = tmp_path / "huge_T.cfg"
        path.write_text(
            MINIMAL.replace("T = 0.25", "T = 1e6")
            + "modes = 16\ntrials = 1\n"
        )
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == rc
        err = capsys.readouterr().err
        if rc:
            assert "T = 1000000.0 too large" in err and "Traceback" not in err
        if command == "sweep":
            # the global gate fires on every cell, so the baseline is the zero
            # answer too, not mode 1's noise inverted (errors near 1e298)
            lines = (tmp_path / "o.csv").read_text().splitlines()
            rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
            by_method = {m: [r for r in rows if r["method"] == m] for m in ("global", "baseline")}
            assert len(by_method["global"]) == len(by_method["baseline"]) == 2
            for glob, base in zip(by_method["global"], by_method["baseline"]):
                assert base["delta"] == glob["delta"] and base["error"] == glob["error"]

    @pytest.mark.parametrize("command", ["sweep", "global-backward"])
    def test_short_horizon_cap_names_horizon_noise_and_prior(self, command, tmp_path, capsys):
        # on a long interval B^{-1}(sqrt(p2 T) |u0|_H1 / delta) stays below A's
        # increasing branch, so the cap fails its validity check
        path = tmp_path / "long.cfg"
        path.write_text(
            "length = 1e4\nT = 0.25\ndelta_list = 1e-4\nmodes = 32\ntrials = 1\n"
        )
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: horizon tau=0.25 too short for noise level ")
        assert "H1 prior" in err and "raise T or lower the noise" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["empirical", "paper"])
    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.3, 0.7)])
    @pytest.mark.parametrize("T, lead", [
        (40, "normal"), (70, "normal"), (72, "subnormal"), (73, "subnormal"), (76, "zero"),
    ])
    def test_edge_of_the_decay_range(self, T, lead, window, mode, tmp_path, capsys):
        # on L 1 the leading decay factor e^{-pi^2 T} leaves the normal range
        # between T 70 and 72 and underflows to 0 by T 76 (from T ~ 36 its
        # square underflows); every subcommand exits 0 or names the cause, and
        # no CSV holds a nan or an inf
        d = math.exp(-math.pi**2 * T)
        tiny = np.finfo(float).tiny
        assert {"normal": d >= tiny, "subnormal": 0.0 < d < tiny, "zero": d == 0.0}[lead]
        a, b = window
        path = tmp_path / "edge.cfg"
        path.write_text(
            f"length = 1.0\nT = {T}\ndelta_list = 1e-4, 1e-6\nomega_a = {a}\n"
            f"omega_b = {b}\nmodes = 32\nconstants_mode = {mode}\n"
        )
        if mode == "empirical" and lead == "zero":
            failing = ("sweep", "local-backward", "control", "constants")
            cause = f"empirical constants: every sampled field decays to zero by T = {T}.0, "
        elif mode == "empirical" or a == 0.0:
            failing = ("sweep", "local-backward")
            cause = f"T = {T}.0 too large: every decay factor from 2T to 3T underflows to 0\n"
        else:
            failing = ("sweep", "local-backward", "control")
            cause = f"T = {T}.0 too small for the constants chain (c3 = 7.46482e+271, c4 = 51.9175)"
        for command in ("sweep", "local-backward", "global-backward", "control", "constants",
                        "oracle-check", "forward"):
            outs = [tmp_path / f"{command}.csv"]
            args = [command, "--config", str(path), "--out", str(outs[0])]
            if command.endswith("backward"):
                outs.append(tmp_path / f"{command}_report.csv")
                args += ["--report", str(outs[1])]
            rc = cli_main(args)
            err = capsys.readouterr().err
            if command in failing:
                assert rc == 1 and err.startswith("configuration error: " + cause), command
                assert err.count("\n") == 1, command
                continue
            assert (rc, err) == (0, ""), command
            for out in outs:
                assert not re.search(r"\b(nan|inf)\b", out.read_text(), re.IGNORECASE), out

    @pytest.mark.parametrize("command", ["sweep", "control", "local-backward"])
    def test_unrepresentable_control_weight_names_the_keys(self, command, tmp_path, capsys):
        # on the whole domain the paper chain has c1 = 4, so at T = 0.002 the
        # weight k = sqrt(c1 e^{c1/T}) / eps^{c2} is about exp(505)
        path = tmp_path / "short_T.cfg"
        path.write_text(MINIMAL.replace("T = 0.25", "T = 0.002").replace(", 1e-6", "")
                        + "omega_a = 0.0\nomega_b = 1.0\nmodes = 32\n")
        out = tmp_path / "o.csv"
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: T = 0.002 too small") and err.count("\n") == 1
        assert "control weight k = exp(505)" in err and "constants_mode" in err
        # a sweep writes its global and baseline rows before it exits
        assert out.exists() == (command == "sweep")

    def test_oracle_check_at_huge_T_exits_zero(self, tmp_path):
        # dt = 500: Crank-Nicolson alone keeps the stiff grid modes at a factor
        # near -1 per step, which the backward-Euler start damps
        path = tmp_path / "huge_T.cfg"
        path.write_text(MINIMAL.replace("T = 0.25", "T = 1e6") + "modes = 16\ntrials = 1\n")
        out = tmp_path / "o.csv"
        assert cli_main(["oracle-check", "--config", str(path), "--out", str(out)]) == 0
        assert out.read_text().count("true") == 2

    def test_oracle_check_overflowing_step_names_the_keys(self, tmp_path, capsys):
        # the oracle's grid is fixed, so r = dt p / dx^2 overflows on the
        # diffusivity, T and length alone
        path = tmp_path / "huge_p.cfg"
        path.write_text(DEMO_16 + "p_base = 1e308\n")
        out = tmp_path / "o.csv"
        assert cli_main(["oracle-check", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "step coefficient r" in err
        assert all(key in err for key in ("p_base", "p_slope", "p_amp", " T", "length"))
        assert not out.exists()

    def test_oracle_check_fails_on_a_shifted_integral(self, tmp_path, monkeypatch, capsys):
        # the oracle integrates p itself, so an exact integral off by 1% moves
        # only the spectral side, and the check must catch it
        integral = DiffusionProfile.integral
        monkeypatch.setattr(
            DiffusionProfile, "integral", lambda self, t0, t1: 1.01 * integral(self, t0, t1)
        )
        path = tmp_path / "demo.cfg"
        path.write_text(DEMO_16)
        assert cli_main(["oracle-check", "--config", str(path)]) == 2
        assert "oracle disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "global-backward"])
    def test_huge_decay_leaves_one_mode(self, command, tmp_path):
        # i**decay overflows past the first mode; under the suite's filter a
        # RuntimeWarning would fail the run
        path = tmp_path / "steep.cfg"
        path.write_text(MINIMAL + "modes = 16\ntrials = 1\ndecay = 1e300\n")
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        coeffs = harness.Run(load_config(str(path))).truth().coeffs
        assert coeffs[0] != 0.0 and np.all(coeffs[1:] == 0.0)

    def test_control_and_local_backward_pick_the_same_eps_and_k(self):
        cfg = parse_config_text(DEMO_16)
        run = harness.Run(cfg)
        u0 = run.truth()
        l2, h01 = u0.l2(), u0.h01()
        delta_abs = cfg.delta_list[0] * l2
        setup = control_setup(run.pipeline(l2, h01), delta_abs)
        uT = evolve(u0, 0.0, cfg.T, run.profile)
        xs, values = run.observe(uT, delta_abs, [cfg.seed, 0], local=True)
        report = local_reconstruct(xs, values, delta_abs, run.pipeline(l2, h01))
        assert (setup.eps, setup.k) == (report.epsilon, report.k)

    def test_local_reconstruct_builds_one_control_setup(self, monkeypatch):
        cfg = parse_config_text(DEMO_16)
        run = harness.Run(cfg)
        u0 = run.truth()
        l2, h01 = u0.l2(), u0.h01()
        delta_abs = cfg.delta_list[0] * l2
        uT = evolve(u0, 0.0, cfg.T, run.profile)
        xs, values = run.observe(uT, delta_abs, [cfg.seed, 0], local=True)
        built, post_init = [], ControlSetup.__post_init__

        def counted(setup):
            built.append(setup.k)
            post_init(setup)

        monkeypatch.setattr(ControlSetup, "__post_init__", counted)
        report = local_reconstruct(xs, values, delta_abs, run.pipeline(l2, h01))
        assert built == [report.k]

    def test_reports_match_the_sweep_rows(self, cfg_path, tmp_path, sweep_rows):
        # trial 0 at the first noise level: the same seeds as a synthetic CLI run
        for command, row in (("global-backward", sweep_rows[0]), ("local-backward", sweep_rows[2])):
            rep = tmp_path / f"{command}.csv"
            args = [command, "--config", cfg_path, "--out", str(tmp_path / "g.csv")]
            assert cli_main(args + ["--report", str(rep)]) == 0
            delta, epsilon, _, alpha, bound, error = rep.read_text().splitlines()[1].split(",")
            assert row["method"] == command.split("-")[0]
            keys = ("delta", "epsilon", "alpha", "bound", "error")
            assert [delta, epsilon, alpha, bound, error] == [fmt_value(row[k]) for k in keys]

    @pytest.mark.parametrize("command, rc", [
        ("global-backward", 0), ("local-backward", 1), ("constants", 1),
    ])
    def test_only_chain_commands_need_a_ball(self, command, rc, tmp_path, capsys):
        path = tmp_path / "no_ball.cfg"
        path.write_text(MINIMAL + "omega_a = 0.0\nomega_b = 0.3\nmodes = 16\n")
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == rc
        if rc:
            assert "does not contain a ball around x0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "forward", "global-backward", "local-backward", "control", "constants", "sweep",
        "oracle-check",
    ])
    def test_each_command_builds_one_basis_profile_and_gram(
        self, command, cfg_path, tmp_path, monkeypatch, capsys
    ):
        built = {"basis": 0, "profile": 0, "gram": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                built[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(EigenBasis, "__init__", counting("basis", EigenBasis.__init__))
        monkeypatch.setattr(
            DiffusionProfile, "__post_init__", counting("profile", DiffusionProfile.__post_init__)
        )
        monkeypatch.setattr(harness, "gram_subdomain", counting("gram", harness.gram_subdomain))
        assert cli_main([command, "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 0
        needs_gram = command in ("local-backward", "control", "constants", "sweep")
        assert built == {"basis": 1, "profile": 1, "gram": int(needs_gram)}

    def test_missing_config_file_exits_one(self, capsys):
        assert cli_main(["sweep", "--config", "/nonexistent.cfg"]) == 1

    def test_forward_then_local_backward(self, cfg_path, tmp_path, capsys):
        fwd = tmp_path / "fwd.csv"
        obs = tmp_path / "obs.csv"
        assert cli_main([
            "forward", "--config", cfg_path, "--out", str(fwd),
            "--emit-observation", str(obs),
        ]) == 0
        assert fwd.read_text().startswith("i,lambda_i,a_i")
        assert obs.read_text().startswith("x,value")
        rec = tmp_path / "rec.csv"
        rep = tmp_path / "rep.csv"
        assert cli_main([
            "local-backward", "--config", cfg_path, "--out", str(rec), "--report", str(rep),
        ]) == 0
        header = rep.read_text().splitlines()[0]
        assert header == "delta,epsilon,effective_delta,alpha,bound,error"

    def test_default_zeta_changes_only_the_local_bound(self, monkeypatch, tmp_path, capsys):
        # zeta enters the bound alone: the field, eps and alpha are the same
        # under transfer_claim's zeta and default_zeta, and each rule's bound covers the error
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_CFG)
        runs = {}
        for rule in ("paper", "default"):
            field, report, sweep = (tmp_path / f"{rule}_{name}.csv"
                                    for name in ("field", "report", "sweep"))
            with monkeypatch.context() as patch:
                use_zeta_rule(patch, rule)
                assert cli_main(["local-backward", "--config", str(path), "--out", str(field),
                                 "--report", str(report)]) == 0
                assert cli_main(["sweep", "--config", str(path), "--out", str(sweep)]) == 0
            rows = csv_rows(report) + [row for row in csv_rows(sweep) if row["method"] == "local"]
            assert len(rows) == 5
            assert all(float(row["bound"]) >= float(row["error"]) for row in rows)
            runs[rule] = field.read_bytes(), rows
        (paper_field, paper_rows), (default_field, default_rows) = runs.values()
        assert paper_field == default_field
        for paper, default in zip(paper_rows, default_rows):
            assert {key: paper[key] for key in ("epsilon", "alpha", "error")} == {
                key: default[key] for key in ("epsilon", "alpha", "error")}
            assert paper["bound"] != default["bound"]

    def test_global_backward_synthetic(self, cfg_path, tmp_path, capsys):
        rec = tmp_path / "g.csv"
        assert cli_main(["global-backward", "--config", cfg_path, "--out", str(rec)]) == 0

    @pytest.mark.parametrize("command", ["global-backward", "local-backward"])
    def test_absolute_delta_sets_the_synthetic_noise(self, command, tmp_path, capsys):
        # without --observation the seeded truth is sampled, with noise of the
        # absolute delta key rather than delta_list[0] * |u0|
        path = tmp_path / "abs.cfg"
        path.write_text(SWEEP_CFG + "delta = 3e-5\n")
        rep = tmp_path / "rep.csv"
        args = [command, "--config", str(path), "--out", str(tmp_path / "g.csv"), "--report", str(rep)]
        assert cli_main(args) == 0
        assert [float(row["delta"]) for row in csv_rows(rep)] == [3e-5]

    def test_absolute_delta_sets_the_emitted_noise(self, tmp_path, capsys):
        path = tmp_path / "abs.cfg"
        path.write_text(SWEEP_CFG + "delta = 3e-5\n")
        obs = tmp_path / "obs.csv"
        assert cli_main(["forward", "--config", str(path), "--out", str(tmp_path / "f.csv"),
                         "--emit-observation", str(obs)]) == 0
        xs, noisy = np.loadtxt(obs, delimiter=",", skiprows=1, unpack=True)
        cfg = load_config(str(path))
        omega_xs = uniform_grid(cfg.omega_a, cfg.omega_b, cfg.panels(local=True))
        np.testing.assert_array_equal(xs, omega_xs)
        run = harness.Run(cfg)
        clean = evolve(run.truth(), 0.0, cfg.T, run.profile).evaluate(xs)
        w = simpson_weights(xs.size, xs[1] - xs[0])
        assert math.sqrt(float(np.sum(w * (noisy - clean) ** 2))) == pytest.approx(3e-5, rel=1e-12)

    @pytest.mark.parametrize("command", ["global-backward", "local-backward"])
    def test_absolute_delta_below_roundoff_names_delta(self, command, tmp_path, capsys):
        # as for delta_list; 1e-300 used to overflow the global route's
        # coefficients, and to fail the local one on eps^2 underflowing
        path = tmp_path / "tiny.cfg"
        path.write_text(DEMO_16 + "delta = 1e-300\n")
        out = tmp_path / "g.csv"
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "delta = 1e-300 is below float64 roundoff" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["global-backward", "local-backward"])
    def test_data_beyond_the_priors_exits_two(self, command, tmp_path, capsys):
        # honest priors and delta give |g| <= prior_l2 + bound; samples near
        # 1e308 used to give a_1 = 1.01e304 under a bound of 2.52 and exit 0
        cfg = parse_config_text(DEMO_16)
        if command == "local-backward":
            xs = uniform_grid(cfg.omega_a, cfg.omega_b, cfg.panels(local=True))
            values = np.full(xs.size, 1e308)
        else:
            xs = uniform_grid(0.0, cfg.length, cfg.panels(local=False))
            values = 1e308 * np.sin(math.pi * xs)
        obs = tmp_path / "obs.csv"
        obs.write_text("x,value\n" + "".join(f"{x},{v}\n" for x, v in zip(xs, values)))
        path = tmp_path / "priors.cfg"
        path.write_text(DEMO_16 + "prior_l2 = 1\nprior_h01 = 5\ndelta = 1e-4\n")
        out, rep = tmp_path / "g.csv", tmp_path / "rep.csv"
        assert cli_main([command, "--config", str(path), "--observation", str(obs),
                         "--out", str(out), "--report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds prior_l2 + bound" in err
        assert all(key in err for key in ("prior_l2", "prior_h01", "delta"))
        # the field and the report are written first, as a sweep's rows are
        assert out.exists() and rep.exists()

    @pytest.mark.parametrize("external", [False, True], ids=["synthetic", "external"])
    @pytest.mark.parametrize("command", ["global-backward", "local-backward"])
    def test_delta_at_the_norm_names_delta(self, command, external, tmp_path, capsys):
        # delta >= |u0| used to fail the global route on a log-argument naming
        # zeta, which no key sets, and the local one on a message naming no key
        path, out = tmp_path / "big.cfg", tmp_path / "g.csv"
        args = [command, "--config", str(path), "--out", str(out)]
        if external:
            cfg = parse_config_text(DEMO_16)
            local = command == "local-backward"
            a, b = (cfg.omega_a, cfg.omega_b) if local else (0.0, cfg.length)
            xs = uniform_grid(a, b, cfg.panels(local=local))
            obs = tmp_path / "obs.csv"
            obs.write_text("x,value\n" + "".join(f"{x},{0.1 * math.sin(math.pi * x)}\n"
                                                  for x in xs))
            path.write_text(DEMO_16 + "prior_l2 = 1.0\nprior_h01 = 10.0\ndelta = 1.0\n")
            args += ["--observation", str(obs)]
            expected = r"delta = 1\.0 must be below prior_l2 = 1\.0"
        else:
            path.write_text(DEMO_16 + "delta = 5.0\n")
            expected = r"delta = 5\.0 must be below the seeded \|u0\|_L2 = 0\.6\d+"
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"configuration error: {expected}\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("keys, p1", [
        ("p_base = -1.0\n", "-1.0"),
        ("profile = affine\np_slope = -10.0\n", "-6.5"),
        ("profile = sinusoidal\np_amp = 2.0\n", "-1.0"),
    ], ids=["constant", "affine", "sinusoidal"])
    def test_nonpositive_profile_names_its_keys(self, keys, p1, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(MINIMAL + keys)
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"on [0, 3T] = [0, 0.75] (p1={p1})" in err, err
        assert all(key in err for key in ("p_base", "p_slope", "p_amp")), err

    def test_no_noise_level_names_both_keys(self, tmp_path, capsys):
        path = tmp_path / "no_delta.cfg"
        path.write_text(SWEEP_CFG.replace("delta_list = 1e-4, 1e-6", "delta_list ="))
        out = tmp_path / "g.csv"
        assert cli_main(["global-backward", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "delta_list" in err and "absolute delta key" in err
        assert not out.exists()
        # forward needs a noise level only for --emit-observation
        assert cli_main(["forward", "--config", str(path), "--out", str(out)]) == 0

    def test_control_subcommand(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "ctl.csv"
        assert cli_main(["control", "--config", cfg_path, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "i,h_norm,psi_norm,eps_bound_ok,h_bound_ok"
        assert len(out.read_text().strip().splitlines()) == 17

    def test_control_failing_bound_exits_two_after_the_csv(self, tmp_path, capsys):
        # on this narrow omega the empirical chain's eps and k miss two certificates
        path = tmp_path / "narrow.cfg"
        path.write_text(
            "length = 1.0\nT = 0.05\ndelta_list = 1e-8\nomega_a = 0.45\nomega_b = 0.55\n"
            "modes = 128\nconstants_mode = empirical\n"
        )
        out = tmp_path / "ctl.csv"
        assert cli_main(["control", "--config", str(path), "--out", str(out)]) == 2
        rows = csv_rows(out)
        assert len(rows) == 32 and [row["i"] for row in rows] == [str(i) for i in range(1, 33)]
        failing = [(row["i"], name) for row in rows for name in ("eps_bound_ok", "h_bound_ok")
                   if row[name] == "false"]
        assert failing == [("1", "h_bound_ok"), ("2", "eps_bound_ok")]
        err = capsys.readouterr().err
        assert err == ("certified inequality violated: control certificates failed: "
                       "mode 1 h_bound_ok, mode 2 eps_bound_ok\n")

    def test_sweep_writes_the_out_key(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(SWEEP_CFG + f"out = {tmp_path / 's.csv'}\n")
        assert cli_main(["sweep", "--config", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert csv_rows(tmp_path / "s.csv")[0]["method"] == "global"

    def test_out_flag_overrides_the_out_key(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(SWEEP_CFG + f"out = {tmp_path / 's.csv'}\n")
        flag = tmp_path / "flag.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(flag)]) == 0
        assert capsys.readouterr().out == ""
        assert flag.exists() and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command, extra", [
        ("forward", {"--emit-observation"}),
        ("global-backward", {"--observation", "--report"}),
        ("control", set()),
        ("local-backward", {"--observation", "--report"}),
        ("constants", set()),
        ("sweep", set()),
        ("oracle-check", set()),
    ])
    def test_subcommand_help_lists_its_flags(self, command, extra, capsys):
        assert cli_main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: heatback {command} ")
        common = {"--help", "--config", "--out", "--seed", "--modes"}
        assert set(re.findall(r"--[a-z-]+", text)) == common | extra
        usage = text.split("\n\n")[0]
        assert "--config CONFIG" in usage and "[--config" not in usage
        assert ("[--out OUT]" not in usage) == (command == "control")

    def test_external_observation_requires_priors(self, cfg_path, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        cli_main(["forward", "--config", cfg_path, "--out", str(tmp_path / "f.csv"),
                  "--emit-observation", str(obs)])
        rc = cli_main([
            "local-backward", "--config", cfg_path, "--observation", str(obs),
            "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 1  # priors missing from config

    def test_external_observation_round_trip(self, cfg_path, tmp_path, capsys):
        from heatback import EigenBasis, DomainSpec, synthesize_initial, load_config

        cfg = load_config(cfg_path)
        u0 = synthesize_initial(EigenBasis(DomainSpec(1.0, 0.5), cfg.modes), cfg.decay, cfg.seed)
        obs = tmp_path / "obs.csv"
        cli_main(["forward", "--config", cfg_path, "--out", str(tmp_path / "f.csv"),
                  "--emit-observation", str(obs)])
        with_priors = tmp_path / "priors.cfg"
        with_priors.write_text(
            SWEEP_CFG
            + f"delta = {cfg.delta_list[0] * u0.l2()!r}\n"
            + f"prior_l2 = {u0.l2()!r}\nprior_h01 = {u0.h01()!r}\n"
        )
        rep = tmp_path / "rep.csv"
        rc = cli_main([
            "local-backward", "--config", str(with_priors), "--observation", str(obs),
            "--out", str(tmp_path / "r.csv"), "--report", str(rep),
        ])
        assert rc == 0
        row = rep.read_text().splitlines()[1].split(",")
        assert row[-1] == ""  # no ground truth, so no error column entry

    def test_external_observation_reproduces_the_synthetic_run(self, cfg_path, tmp_path, capsys):
        # with honest delta and priors the emitted samples are the synthetic
        # run's own, on the same grid, so their Gram matrix is the one the
        # synthetic run takes from the geometry, and the fields agree byte for byte
        run = harness.Run(load_config(cfg_path))
        u0 = run.truth()
        obs = tmp_path / "obs.csv"
        assert cli_main(["forward", "--config", cfg_path, "--out", str(tmp_path / "f.csv"),
                         "--emit-observation", str(obs)]) == 0
        with_priors = tmp_path / "priors.cfg"
        with_priors.write_text(
            SWEEP_CFG + f"delta = {run.cfg.delta_list[0] * u0.l2()!r}\n"
            + f"prior_l2 = {u0.l2()!r}\nprior_h01 = {u0.h01()!r}\n"
        )
        external, synthetic = tmp_path / "external.csv", tmp_path / "synthetic.csv"
        assert cli_main(["local-backward", "--config", str(with_priors), "--observation",
                         str(obs), "--out", str(external)]) == 0
        assert cli_main(["local-backward", "--config", str(with_priors),
                         "--out", str(synthetic)]) == 0
        assert external.read_bytes() == synthetic.read_bytes()

    def test_external_observation_takes_the_gram_of_its_grid(self, cfg_path, tmp_path,
                                                              monkeypatch, capsys):
        # samples on twice the config's omega panels: the control solve takes the
        # Gram matrix of their Simpson rule, not the one of the config's grid
        from heatback import cli, gram_subdomain
        from heatback.spectral import observation_weights

        run = harness.Run(load_config(cfg_path))
        u0 = run.truth()
        xs = uniform_grid(0.3, 0.7, 2 * run.cfg.panels(local=True))
        values = evolve(u0, 0.0, run.cfg.T, run.profile).evaluate(xs)
        obs = tmp_path / "obs.csv"
        obs.write_text(harness.csv_text(("x", "value"), list(zip(xs, values))))
        with_priors = tmp_path / "priors.cfg"
        with_priors.write_text(SWEEP_CFG + f"delta = {1e-6 * u0.l2()!r}\n"
                               + f"prior_l2 = {u0.l2()!r}\nprior_h01 = {u0.h01()!r}\n")
        grams = []
        reconstruct = cli.local_reconstruct

        def spy(xs, values, delta, cfg):
            grams.append(cfg.gram)
            return reconstruct(xs, values, delta, cfg)

        monkeypatch.setattr(cli, "local_reconstruct", spy)
        assert cli_main(["local-backward", "--config", str(with_priors), "--observation",
                         str(obs), "--out", str(tmp_path / "r.csv")]) == 0
        weights = observation_weights(xs, run.subdomain, run.basis)
        assert np.array_equal(grams[0], gram_subdomain(xs, weights, run.basis))
        assert not np.array_equal(grams[0], run.gram)

    @pytest.mark.parametrize("command", ["local-backward", "global-backward"])
    def test_non_finite_observation_exits_one(self, command, cfg_path, tmp_path, capsys):
        # one nan sample used to give a NaN field CSV and a finite bound with exit 0
        if command == "local-backward":
            obs = tmp_path / "obs.csv"
            assert cli_main(["forward", "--config", cfg_path, "--out", str(tmp_path / "f.csv"),
                             "--emit-observation", str(obs)]) == 0
            lines = obs.read_text().splitlines()
            x = lines[5].split(",")[0]
            lines[5] = f"{x},nan"
            obs.write_text("\n".join(lines) + "\n")
        else:
            xs = uniform_grid(0.0, 1.0, 512)
            values = np.sin(math.pi * xs)
            values[5] = math.nan
            obs = tmp_path / "obs.csv"
            obs.write_text("x,value\n" + "".join(f"{x},{v}\n" for x, v in zip(xs, values)))
        with_priors = tmp_path / "priors.cfg"
        with_priors.write_text(SWEEP_CFG + "delta = 1e-5\nprior_l2 = 1.0\nprior_h01 = 4.0\n")
        out = tmp_path / "r.csv"
        rc = cli_main([command, "--config", str(with_priors), "--observation", str(obs),
                       "--out", str(out)])
        assert rc == 1
        assert re.search(r"values\[\d+\] = nan is not finite", capsys.readouterr().err)
        assert not out.exists()

    # as an error, a numpy warning printed above the message fails the exit code
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["local-backward", "global-backward"])
    def test_header_only_observation_exits_one(self, command, cfg_path, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("x,value\n")
        with_priors = tmp_path / "priors.cfg"
        with_priors.write_text(SWEEP_CFG + "delta = 1e-5\nprior_l2 = 1.0\nprior_h01 = 4.0\n")
        rc = cli_main([command, "--config", str(with_priors), "--observation", str(obs),
                       "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "has no data rows" in err and str(obs) in err

    def test_internal_error_exits_three(self, cfg_path, monkeypatch, capsys):
        from heatback import cli

        def broken(cfg, args):
            raise RuntimeError("solver state lost")

        monkeypatch.setitem(cli._COMMANDS, "sweep", broken)
        assert cli_main(["sweep", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: solver state lost\n"


@st.composite
def small_configs(draw):
    """Config text for a random small run: every profile kind, both chains."""
    length = draw(st.floats(0.5, 3.0))
    a = draw(st.floats(0.0, 0.8, allow_subnormal=False)) * length
    b = a + draw(st.floats(0.1, 1.0)) * (length - a)
    lines = {
        "length": length,
        "T": 10.0 ** draw(st.floats(-2.0, 0.0)),
        "delta_list": ", ".join(
            repr(10.0 ** e) for e in draw(st.lists(st.floats(-12.0, math.log10(0.3)),
                                                   min_size=1, max_size=2))
        ),
        "omega_a": a,
        "omega_b": b,
        "x0": 0.5 * (a + b),
        "profile": draw(st.sampled_from(["constant", "affine", "sinusoidal"])),
        "modes": draw(st.integers(1, 32)),
        "trials": 1,
        "constants_mode": draw(st.sampled_from(["paper", "empirical"])),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(text=small_configs())
def test_cli_exits_only_with_an_answer_or_a_named_failure(text):
    # exit 0 with finite output, 1 for a config the mathematics cannot serve,
    # 2 for a failed certificate; an internal error (3) is a defect
    prefixes = {1: "configuration error: ", 2: "certified inequality violated: "}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text)
        for command in _COMMANDS:  # every subcommand
            written = [Path(tmp) / f"{command}.csv"]
            argv = [command, "--config", str(path), "--out", str(written[0])]
            if command.endswith("-backward"):
                written.append(Path(tmp) / f"{command}-report.csv")
                argv += ["--report", str(written[1])]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(argv)
            if rc == 0:
                for out in written:
                    body = out.read_text().lower()
                    assert "nan" not in body and "inf" not in body, (command, text)
            else:
                assert rc in prefixes, (command, text, err.getvalue())
                assert err.getvalue().startswith(prefixes[rc]), (command, text, err.getvalue())
