"""Config parsing, calibrated noise, sweep orchestration, CLI exit codes."""

import contextlib
import io
import math
import re
import tempfile
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
    save_config,
)
from heatback import harness
from heatback.cli import _apply_overrides, build_parser
from heatback.cli import main as cli_main
from heatback.harness import (
    _FLOAT_KEYS,
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
        assert cfg.xi == 0.5
        assert cfg.constants_mode == "paper"
        assert cfg.zeta_mode == "paper"
        assert cfg.modes == 64
        assert cfg.omega_b == 1.0
        assert cfg.grid >= 8 * cfg.modes

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*mystery"):
            parse_config_text("length = 1.0\nmystery = 3\nT = 0.1\ndelta_list = 1e-3\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="delta_list"):
            parse_config_text("length = 1.0\nT = 0.1\n")

    def test_xi_out_of_range(self):
        with pytest.raises(ConfigError, match="xi"):
            parse_config_text(MINIMAL + "xi = 1.5\n")

    def test_malformed_value_names_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("length = abc\nT = 0.1\ndelta_list = 1e-3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(MINIMAL + "length = 2.0\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\nlength = 1.0  # trailing\nT = 0.25\ndelta_list = 1e-4\n")
        assert cfg.length == 1.0

    def test_round_trip(self, tmp_path):
        cfg = parse_config_text(SWEEP_CFG)
        path = tmp_path / "rt.cfg"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

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
        cfg = self.overridden(MINIMAL + geometry + "modes = 8\n", "--modes", "40")
        parsed = parse_config_text(MINIMAL + geometry + "modes = 40\nbank = 8\n")
        assert cfg == parsed

    def test_modes_obs_grid_matches_parsing(self):
        # the override used to round 16 * modes * span up twice: 82 here
        text = MINIMAL + "omega_a = 0.25\nomega_b = 0.75\n"
        cfg = self.overridden(text + "modes = 8\n", "--modes", "10")
        parsed = parse_config_text(text + "modes = 10\n")
        assert (cfg.grid, cfg.obs_grid) == (parsed.grid, parsed.obs_grid) == (160, 80)

    def test_modes_keeps_bank_cap_and_finer_grids(self):
        cfg = self.overridden(MINIMAL + "modes = 32\nbank = 20\ngrid = 2000\n", "--modes", "16")
        assert (cfg.modes, cfg.bank, cfg.grid, cfg.obs_grid) == (16, 16, 2000, 512)

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
        with pytest.raises(ConfigError, match="zeta_mode"):
            replace(cfg, zeta_mode="bogus")

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


@pytest.fixture(scope="module")
def sweep_rows():
    return run_sweep(parse_config_text(SWEEP_CFG))


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

    def test_deterministic_and_parallel_agree(self):
        cfg = parse_config_text(SWEEP_CFG)
        serial = rows_to_csv(run_sweep(cfg, parallel=1))
        threaded = rows_to_csv(run_sweep(cfg, parallel=4))
        assert serial == threaded

    def test_parallel_matches_serial_at_64_modes(self):
        cfg = parse_config_text(SWEEP_CFG.replace("modes = 32\nbank = 16", "modes = 64"))
        serial = rows_to_csv(run_sweep(cfg, parallel=1))
        assert rows_to_csv(run_sweep(cfg, parallel=2)) == serial

    def test_sabotage_flags_rows(self):
        cfg = parse_config_text(SWEEP_CFG + "sabotage = k\n")
        rows = run_sweep(cfg)
        local_rows = [r for r in rows if r["method"] == "local"]
        assert local_rows and not any(r["bound_ok"] for r in local_rows)


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

    def test_sweep_sabotage_exits_two(self, tmp_path, capsys):
        path = tmp_path / "sab.cfg"
        path.write_text(SWEEP_CFG + "sabotage = k\n")
        out = tmp_path / "sab.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 2

    def test_sweep_exit_two_lists_every_failing_row(self, tmp_path, capsys):
        path = tmp_path / "sab.cfg"
        path.write_text(SWEEP_CFG + "sabotage = k\n")
        out = tmp_path / "sab.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        bad = [line.split(",") for line in out.read_text().splitlines()[1:]
               if line.split(",")[6] == "false"]
        assert len(bad) == 4  # the local row of each of 2 deltas x 2 trials
        assert err.startswith("certified inequality violated: 4 sweep rows violate")
        for cells in bad:
            assert f"{cells[1]} row at delta={float(cells[0])}" in err

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_sweep_parallel_below_one_exits_one(self, parallel, cfg_path, capsys):
        # run_sweep checks the count before it starts any thread
        assert cli_main(["sweep", "--config", cfg_path, "--parallel", parallel]) == 1
        err = capsys.readouterr().err
        assert f"parallel must be >= 1 worker thread, got {parallel}" in err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SWEEP_CFG + "xi = 1.5\n")
        assert cli_main(["sweep", "--config", str(path)]) == 1

    def test_empirical_fit_without_samples_exits_one(self, tmp_path, capsys):
        path = tmp_path / "decayed.cfg"
        path.write_text(SWEEP_CFG.replace("modes = 32\nbank = 16", "modes = 16") + "p_base = 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["sweep", "--config", str(path)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "decays to zero" in capsys.readouterr().err

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

    @pytest.mark.parametrize("zeta_mode", ["paper", "default"])
    @pytest.mark.parametrize("command, rc", [
        ("sweep", 1), ("local-backward", 1), ("global-backward", 0),
    ])
    def test_huge_T_names_T(self, command, rc, zeta_mode, tmp_path, capsys):
        # every decay factor from 2T to 3T underflows, so the transfer weight S_w is 0
        path = tmp_path / "huge_T.cfg"
        path.write_text(
            MINIMAL.replace("T = 0.25", "T = 1e6")
            + f"modes = 16\ntrials = 1\nzeta_mode = {zeta_mode}\n"
        )
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == rc
        err = capsys.readouterr().err
        if rc:
            assert "T = 1000000.0 too large" in err and "Traceback" not in err

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
        (70, "normal"), (72, "subnormal"), (73, "subnormal"), (76, "zero"),
    ])
    def test_edge_of_the_decay_range(self, T, lead, window, mode, tmp_path, capsys):
        # on L 1 the leading decay factor e^{-pi^2 T} leaves the normal range
        # between T 70 and 72 and underflows to 0 by T 76; every subcommand
        # exits 0 or names the cause, and no CSV holds a nan or an inf
        d = math.exp(-math.pi**2 * T)
        tiny = np.finfo(float).tiny
        assert {"normal": d >= tiny, "subnormal": 0.0 < d < tiny, "zero": d == 0.0}[lead]
        a, b = window
        path = tmp_path / "edge.cfg"
        path.write_text(
            f"length = 1.0\nT = {T}\ndelta_list = 1e-4, 1e-6\nomega_a = {a}\n"
            f"omega_b = {b}\nmodes = 32\nconstants_mode = {mode}\n"
        )
        if mode == "empirical":
            failing = ("sweep", "local-backward", "control", "constants")
            cause = f"empirical constants: every sampled field decays to zero by T = {T}.0, "
        elif a == 0.0:
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

    def test_oracle_check_at_huge_T_exits_zero(self, tmp_path):
        # dt = 500: Crank-Nicolson alone keeps the stiff grid modes at a factor
        # near -1 per step, which the backward-Euler start damps
        path = tmp_path / "huge_T.cfg"
        path.write_text(MINIMAL.replace("T = 0.25", "T = 1e6") + "modes = 16\ntrials = 1\n")
        out = tmp_path / "o.csv"
        assert cli_main(["oracle-check", "--config", str(path), "--out", str(out)]) == 0
        assert out.read_text().count("true") == 2

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
        assert (setup.eps, setup.k) == (report.epsilon, report.k_chain)

    def test_control_certifies_the_chain_weight_under_sabotage(self, tmp_path):
        # sabotage scales only the local reconstruction's bank weight
        outs = []
        for sabotage in ("none", "k"):
            path = tmp_path / f"{sabotage}.cfg"
            path.write_text(DEMO_16 + f"sabotage = {sabotage}\n")
            out = tmp_path / f"{sabotage}.csv"
            assert cli_main(["control", "--config", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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

    @pytest.mark.parametrize("command", ["global-backward", "forward"])
    def test_commands_without_omega_grid_ignore_obs_grid(self, command, tmp_path, capsys):
        path = tmp_path / "coarse.cfg"
        path.write_text(MINIMAL + "modes = 32\nobs_grid = 20\n")
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        assert cli_main(["local-backward", "--config", str(path)]) == 1
        assert "too coarse" in capsys.readouterr().err

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

    def test_global_backward_synthetic(self, cfg_path, tmp_path, capsys):
        rec = tmp_path / "g.csv"
        assert cli_main(["global-backward", "--config", cfg_path, "--out", str(rec)]) == 0

    def test_control_subcommand(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "ctl.csv"
        assert cli_main(["control", "--config", cfg_path, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "i,h_norm,psi_norm,eps_bound_ok,h_bound_ok"
        assert len(out.read_text().strip().splitlines()) == 17

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
        for command in ("sweep", "control", "global-backward", "local-backward", "constants"):
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
