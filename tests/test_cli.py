import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ambcsim
from ambcsim import harness
from ambcsim.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SIM,
                         build_effective_config, main)
from ambcsim.config import ConfigError, SimConfig, dbm_to_watts
from ambcsim.harness import run_trial


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FAST = ["--set", "n_ues=8", "--set", "n_tags=3"]


class TestParseConfig:
    @pytest.fixture
    def parse_config(self, tmp_path):
        def parse(text):
            path = tmp_path / "config.json"
            path.write_text(text, encoding="utf-8")
            return build_effective_config(path)
        return parse

    def test_empty_object_gives_defaults(self, parse_config):
        assert parse_config("{}") == SimConfig()

    def test_invalid_count_names_field(self, parse_config):
        with pytest.raises(ConfigError, match="n_ues"):
            parse_config('{"n_ues": 0}')

    def test_non_integer_count_names_field(self, parse_config):
        with pytest.raises(ConfigError, match="n_ues"):
            parse_config('{"n_ues": 1.5}')
        with pytest.raises(ConfigError, match="n_tags"):
            SimConfig(n_tags=2.5)
        with pytest.raises(ConfigError, match="n_ues"):
            SimConfig(n_ues=1.5)

    def test_unknown_key_rejected(self, parse_config):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config('{"bogus": 1}')

    def test_malformed_json_rejected(self, parse_config):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    @pytest.mark.parametrize("text, message", [
        ('{"channel": 5}', "^channel must be an object$"),
        ('{"channel": {"bogus": 1}}', "^unknown channel parameter 'bogus'$"),
        ("[1]", "must hold a JSON object$"),
    ])
    def test_malformed_structure_rejected(self, parse_config, text,
                                          message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_nested_channel_override(self, parse_config):
        cfg = parse_config('{"channel": {"reflection_coeff": 0.1}}')
        assert cfg.channel.reflection_coeff == 0.1

    def test_circuit_power_unit_conversion(self, parse_config):
        cfg = parse_config('{"circuit_power": 5.0}')
        assert dbm_to_watts(cfg.circuit_power) == pytest.approx(3.162e-3,
                                                                rel=1e-3)


class TestEffectiveConfig:
    def test_precedence_default_file_set(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text('{"n_ues": 20, "n_tags": 7}')
        cfg = build_effective_config(cfile, ["n_ues=30"])
        assert cfg.n_ues == 30      # --set beats file
        assert cfg.n_tags == 7      # file beats default
        assert cfg.p_max == 0.2     # untouched default

    def test_seed_and_trials_flags(self, tmp_path):
        cfg = build_effective_config(None, ["seed=1"], seed=99, trials=3)
        assert cfg.seed == 99
        assert cfg.n_trials == 3

    def test_dotted_channel_override(self):
        cfg = build_effective_config(None, ["channel.noise_psd=-170"])
        assert cfg.channel.noise_psd == -170.0

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            build_effective_config(tmp_path / "absent.json", [])


class TestRunCli:
    def test_single_writes_artifacts(self, tmp_path):
        code, out, err = run(["--out", str(tmp_path / "r"), "--seed", "3",
                              *FAST, "single"])
        assert code == EXIT_OK, err
        for name in ("trials.csv", "aggregates.csv", "config.snapshot.json"):
            assert (tmp_path / "r" / name).exists()
        assert "trial 0 triad" in out
        assert "trial 0 baseline" in out
        assert "improvement" in out

    def test_single_prints_in_one_write(self, tmp_path):
        class Counting(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = Counting()
        with contextlib.redirect_stdout(out):
            assert main(["--out", str(tmp_path), *FAST, "--trials", "3",
                         "single"]) == EXIT_OK
        assert out.writes == 1
        # six per-trial lines, then the header, two aggregates and the gain
        assert len(out.getvalue().splitlines()) == 10

    def test_snapshot_reproduces_run(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        code, _, _ = run(["--out", str(d1), "--seed", "17", *FAST, "single"])
        assert code == EXIT_OK
        code, _, _ = run(["--out", str(d2), "--config",
                          str(d1 / "config.snapshot.json"), "single"])
        assert code == EXIT_OK
        assert (d1 / "trials.csv").read_bytes() == \
            (d2 / "trials.csv").read_bytes()

    def test_single_takes_n_trials_from_any_source(self, tmp_path):
        # the one-trial default of single yields to --trials, to the
        # config file and to --set, so a multi-trial snapshot re-runs
        d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        code, _, err = run(["--out", str(d1), *FAST, "--trials", "3",
                            "single"])
        assert code == EXIT_OK, err
        code, _, err = run(["--out", str(d2), "--config",
                            str(d1 / "config.snapshot.json"), "single"])
        assert code == EXIT_OK, err
        for name in ("trials.csv", "aggregates.csv", "config.snapshot.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        code, _, err = run(["--out", str(d3), *FAST, "--set", "n_trials=3",
                            "single"])
        assert code == EXIT_OK, err
        assert (d3 / "trials.csv").read_bytes() == \
            (d1 / "trials.csv").read_bytes()
        assert len((d3 / "trials.csv").read_text().splitlines()) == 1 + 3 * 2

    def test_snapshot_matches_effective_config(self, tmp_path):
        run(["--out", str(tmp_path), "--seed", "5", *FAST, "single"])
        snap = json.loads((tmp_path / "config.snapshot.json").read_text())
        assert snap["n_ues"] == 8
        assert snap["seed"] == 5
        assert snap["n_trials"] == 1  # single implies one trial

    def test_disabled_backscatter_zero_improvement(self, tmp_path):
        code, out, _ = run(["--out", str(tmp_path), *FAST,
                            "--set", "n_tags=0", "single"])
        assert code == EXIT_OK
        assert "0.00%" in out

    def test_sweep_users_with_trials_flag(self, tmp_path):
        code, out, _ = run(["--out", str(tmp_path), "--trials", "1",
                            "--set", "n_tags=3", "sweep-users"])
        assert code == EXIT_OK
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 2  # header + 10 points x 2 modes

    def test_bad_config_value_exit_2(self, tmp_path):
        code, _, err = run(["--out", str(tmp_path), "--set", "n_ues=0",
                            "single"])
        assert code == EXIT_CONFIG
        assert "n_ues" in err

    @pytest.mark.parametrize("subcommand, key, value", [
        ("sweep-users", "n_ues", "8"),
        ("sweep-data", "data_bits", "500000"),
    ])
    def test_swept_key_set_exit_2(self, tmp_path, subcommand, key, value):
        code, _, err = run(["--out", str(tmp_path), "--trials", "1",
                            "--set", f"{key}={value}", subcommand])
        assert code == EXIT_CONFIG
        assert key in err
        assert not (tmp_path / "trials.csv").exists()

    def test_sweep_point_over_budget_exit_2_before_any_trial(
            self, tmp_path, monkeypatch):
        # sweep-users reaches n_ues = 80, whose grouping DP is counted at
        # 319097 bytes; the snapshot is written, but no trial runs
        calls = []
        monkeypatch.setattr("ambcsim.config.MEMORY_BUDGET", 300_000)
        monkeypatch.setattr(harness, "run_trial",
                            lambda *a: calls.append(a) or run_trial(*a))
        code, _, err = run(["--out", str(tmp_path), "--trials", "1",
                            "sweep-users"])
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: n_ues, n_tags, k_max "
                              "and n_subcarriers would need 319097 bytes")
        assert calls == []
        assert (tmp_path / "config.snapshot.json").exists()
        assert not (tmp_path / "trials.csv").exists()

    def test_sweep_reruns_from_snapshot(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        argv = ["--trials", "1", "--set", "n_ues=8", "sweep-data"]
        code, _, err = run(["--out", str(d1), *argv])
        assert code == EXIT_OK, err
        snapshot = d1 / "config.snapshot.json"
        assert json.loads(snapshot.read_text())["data_bits"] == 60000.0
        code, _, err = run(["--out", str(d2), "--config", str(snapshot),
                            "sweep-data"])
        assert code == EXIT_OK, err
        assert (d1 / "trials.csv").read_bytes() == \
            (d2 / "trials.csv").read_bytes()

    @pytest.mark.parametrize("setting, key", [
        ("circuit_power=nan", "circuit_power"),
        ("p_max=inf", "p_max"),
        ("channel.carrier_freq=nan", "carrier_freq"),
        ("channel.noise_psd=inf", "noise_psd"),
        ("uav_altitude=1.0", "uav_altitude"),
        ("uav_altitude=1.5", "uav_altitude"),
        ("channel.plos_a=-0.01", "plos_a"),
        # direct gains that underflow to 0
        ("coverage_radius=1e200", "coverage_radius"),
        ("uav_altitude=1e300", "uav_altitude"),
        ("channel.carrier_freq=1e300", "channel.carrier_freq"),
        ("data_bits=0", "data_bits"),
        ("data_bits=-1", "data_bits"),
        ("frame_duration=0", "frame_duration"),
        # a noise floor that underflows to 0 W, where 0 times a power
        # ladder rung that overflows is NaN, or that overflows itself
        ("channel.noise_psd=-5000 n_ues=400 data_bits=4e6",
         "channel.noise_psd"),
        ("channel.noise_psd=5000", "channel.noise_psd"),
        # about 1e-323 W on one subcarrier: positive, but any SINR target
        # below 0.25 times it underflows to 0
        ("channel.noise_psd=-3240", "channel.noise_psd"),
        ("channel.bogus=1", "unknown channel parameter 'bogus'"),
        ("n_ues", "override 'n_ues' is not key=value"),
    ])
    def test_non_finite_or_impossible_value_exit_2(self, tmp_path, setting,
                                                   key):
        sets = [arg for kv in setting.split() for arg in ("--set", kv)]
        code, _, err = run(["--out", str(tmp_path), *sets, "single"])
        assert code == EXIT_CONFIG
        assert key in err

    def test_tiny_gains_run_in_outage(self, tmp_path):
        # direct gains of about 1e-306: tiny, but not 0, so not refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["--out", str(tmp_path), *FAST, "--set",
                                "coverage_radius=1e150", "single"])
        assert code == EXIT_OK, err
        rows = (tmp_path / "trials.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4:6] for row in rows] == [["0", "8"]] * 2

    @pytest.mark.parametrize("freq", [
        "1e-300",   # the direct gain overflows
        "1e-320",   # its FSPL's log10 underflows
        "1e-140",   # only the cascaded gain overflows
    ])
    def test_overflowing_gain_exit_2(self, tmp_path, freq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["--out", str(tmp_path), "--set",
                                f"channel.carrier_freq={freq}", "single"])
        assert code == EXIT_CONFIG
        assert "channel.carrier_freq" in err and "uav_altitude" in err
        assert not (tmp_path / "trials.csv").exists()

    @pytest.mark.parametrize("setting", [
        "n_tags=0", "channel.reflection_coeff=0"])
    def test_huge_direct_gain_runs_without_tags(self, tmp_path, setting):
        # direct gains of about 5e290 stay finite once no tag is used
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["--out", str(tmp_path), "--set",
                                "channel.carrier_freq=1e-140", "--set",
                                setting, "single"])
        assert code == EXIT_OK, err

    def test_zero_plos_a_runs(self, tmp_path):
        # P_LoS = 1 at every elevation; 0 * exp(overflow) once made it NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["--out", str(tmp_path), "--trials", "2",
                                "--set", "channel.plos_a=0",
                                "--set", "channel.plos_b=-10",
                                "sweep-users"])
        assert code == EXIT_OK, err

    def test_unknown_key_exit_2(self, tmp_path):
        code, _, err = run(["--out", str(tmp_path), "--set", "bogus=1",
                            "single"])
        assert code == EXIT_CONFIG

    def test_removed_backscatter_switch_exit_2(self, tmp_path):
        # snapshots written before the switch went hold this line
        config = tmp_path / "c.json"
        config.write_text('{"ambc_enabled": true}')
        code, _, err = run(["--out", str(tmp_path / "r"), "--config",
                            str(config), "single"])
        assert code == EXIT_CONFIG
        assert "unknown configuration key 'ambc_enabled'" in err

    def test_malformed_config_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(["--out", str(tmp_path), "--config", str(bad),
                            "single"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("text, key", [
        ('{"p_max": true}', "p_max"),
        ('{"channel": {"reflection_coeff": false}}', "reflection_coeff"),
        ('{"n_ues": true}', "n_ues"),
    ], ids=["p_max", "reflection_coeff", "n_ues"])
    def test_boolean_for_number_exit_2(self, tmp_path, text, key):
        config = tmp_path / "c.json"
        config.write_text(text)
        code, _, err = run(["--out", str(tmp_path / "r"), "--config",
                            str(config), "single"])
        assert code == EXIT_CONFIG
        assert f"invalid value for {key!r}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key, text", [
        ("p_max", '{"p_max": 1%s}' % ("0" * 400)),
        ("carrier_freq", '{"channel": {"carrier_freq": 1%s}}' % ("0" * 400)),
    ], ids=["p_max", "carrier_freq"])
    def test_integer_too_large_for_float_exit_2(self, tmp_path, key, text):
        # 10**400 as a JSON integer: float() of it overflows
        config = tmp_path / "c.json"
        config.write_text(text)
        code, _, err = run(["--out", str(tmp_path / "r"), "--config",
                            str(config), "single"])
        assert code == EXIT_CONFIG
        assert err.startswith(f"configuration error: invalid value for "
                              f"{key!r}: 1000")
        assert "int too large to convert to float" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key, text", [
        ("p_max", '{"p_max": 1%s}' % ("0" * 5000)),
        ("n_ues", '{"n_ues": 1%s}' % ("0" * 5000)),
        ("carrier_freq", '{"channel": {"carrier_freq": 1%s}}' % ("0" * 5000)),
    ], ids=["p_max", "n_ues", "carrier_freq"])
    def test_integer_past_the_digit_limit_exit_2(self, tmp_path, key, text):
        # 5001 digits, past int()'s default limit of 4300
        config = tmp_path / "c.json"
        config.write_text(text)
        code, _, err = run(["--out", str(tmp_path / "r"), "--config",
                            str(config), "single"])
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: ")
        assert key in err.splitlines()[0][:60]
        assert not (tmp_path / "r").exists()

    def test_non_utf8_config_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, _, err = run(["--out", str(tmp_path), "--config", str(bad),
                            "single"])
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: cannot read config ")

    def test_unwritable_out_exit_3(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run(["--out", str(blocker / "sub"), *FAST, "single"])
        assert code == EXIT_IO

    def test_infeasible_demand_exit_4(self, tmp_path):
        code, _, err = run(["--out", str(tmp_path), *FAST,
                            "--set", "data_bits=1e9", "single"])
        assert code == EXIT_SIM
        assert err

    def test_simulation_error_names_where_exit_4(self, tmp_path):
        # 1 kHz over 128 subcarriers: the first payload needs more than the
        # supported spectral efficiency on one cluster of the first trial,
        # after a cluster whose ladder powers overflow and are all dropped,
        # which must raise no warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(["--out", str(tmp_path), "--set",
                                "bandwidth=1000", "sweep-data"])
        assert code == EXIT_SIM
        assert err.startswith("simulation error: demand of ")
        assert "exceeds the supported range" in err
        assert "sweep value 20000, trial 0, trial seed " in err
        assert [str(w.message) for w in caught] == []

    def test_main_returns_exit_code(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), *FAST, "single"]) == EXIT_OK
        capsys.readouterr()

    def test_consecutive_calls_carry_nothing_over(self, tmp_path):
        # --set is an append action: its default list must not grow
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--out", str(tmp_path / "a"), "--set", "n_tags=3",
                         "--seed", "9", "--trials", "2", "single"]) == EXIT_OK
            assert main(["--out", str(tmp_path / "b"), "single"]) == EXIT_OK
        first, second = (
            json.loads((tmp_path / d / "config.snapshot.json").read_text())
            for d in ("a", "b"))
        assert (first["n_tags"], first["seed"], first["n_trials"]) == (3, 9, 2)
        assert second == dataclasses.asdict(SimConfig(n_trials=1))

    def test_main_writes_to_the_current_streams(self, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--out", str(tmp_path), *FAST, "single"]) == EXIT_OK
        assert "mean triad-vs-baseline improvement" in out.getvalue()
        with contextlib.redirect_stderr(err):
            assert main(["--out", str(tmp_path), "--set", "n_ues=0",
                         "single"]) == EXIT_CONFIG
        assert err.getvalue().startswith("configuration error: ")


def test_module_entry_point(tmp_path):
    # python -m ambcsim.cli: the summary on stdout, a refusal on stderr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ambcsim.__file__).resolve().parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ambcsim.cli", "--out", str(tmp_path),
             *argv], capture_output=True, text=True, env=env, timeout=120)

    ok = entry("--trials", "1", "--set", "n_ues=5", "--set", "n_tags=2",
               "single")
    assert ok.returncode == EXIT_OK, ok.stderr
    assert ok.stdout.startswith("trial 0 baseline: ee=")
    assert "mean triad-vs-baseline improvement" in ok.stdout
    refused = entry("--set", "n_ues=0", "single")
    assert refused.returncode == EXIT_CONFIG
    assert refused.stderr.startswith("configuration error: n_ues")
    assert refused.stdout == ""


def test_cli_imports_without_scipy():
    # scipy is a test-only dependency; the runtime needs numpy alone.
    src = str(Path(ambcsim.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            f"sys.modules['scipy'] = None; import ambcsim.cli")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_runs_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma adds about 1.5 MB of resident memory and nothing needs it;
    # write_results formats its rows itself, so csv stays out too
    src = str(Path(ambcsim.__file__).resolve().parents[1])
    runs = [["--out", str(tmp_path / "single"), "single"],
            ["--out", str(tmp_path / "dense"), "--trials", "1",
             "--set", "n_tags=1000", "sweep-users"]]
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            f"from ambcsim.cli import main; "
            f"assert all(main(argv) == 0 for argv in {runs!r}); "
            f"assert 'numpy.ma' not in sys.modules; "
            f"assert 'csv' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
