"""Config parsing, calibrated noise, sweep orchestration, CLI exit codes."""

import math

import numpy as np
import pytest

from heatback import ConfigError, inject_noise, load_config, run_sweep, save_config
from heatback.cli import main as cli_main
from heatback.harness import _FLOAT_KEYS, parse_config_text, rows_to_csv
from heatback.spectral import simpson_weights, uniform_grid

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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
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

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SWEEP_CFG + "xi = 1.5\n")
        assert cli_main(["sweep", "--config", str(path)]) == 1

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
