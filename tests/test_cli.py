"""Command-line interface tests: exit codes, config validation, the
self-check harness, and report determinism."""

import csv
import os

import pytest
import yaml

from iekf_kit import cli, config
from iekf_kit.exceptions import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


SMOKE_YAML = """\
scenario:
  duration: 2.0
  imu_rate: 100.0
  cam_rate: 5.0
  n_landmarks: 6
  pixel_sigma: 1.0
init:
  sigma_f: 0.5
variants: [iekf, ekf]
runs: 2
seed: 7
"""


def run_cli(argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    return e.value.code


def write_config(tmp_path, text=SMOKE_YAML, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name", ["default.yaml", "smoke.yaml"])
def test_config_echo_round_trips(tmp_path, name):
    # the echo that meta.json records, written as YAML, loads back to itself
    echo = config.config_echo(config.load_config(
        os.path.join(CONFIG_DIR, name)))
    path = write_config(tmp_path, yaml.safe_dump(echo))
    assert config.config_echo(config.load_config(path)) == echo


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["simulate", str(tmp_path / "nope.yaml")]) == 2


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, SMOKE_YAML + "bogus_key: 1\n")
    assert run_cli(["simulate", cfg]) == 2


def test_unknown_scenario_key_exits_2(tmp_path):
    cfg = write_config(tmp_path,
                       "scenario:\n  duration: 2.0\n  warp_factor: 9\n")
    assert run_cli(["simulate", cfg]) == 2


def test_bad_variant_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "variants: [ukf]\n")
    assert run_cli(["montecarlo", cfg]) == 2
    cfg = write_config(tmp_path, "variants: [qekf]\n", name="qekf.yaml")
    capsys.readouterr()
    assert run_cli(["simulate", cfg]) == 2
    # "ekf" alone would match inside "qekf"; the message lists the tags
    assert "choose from ekf, fej, iekf, ij_iekf" in capsys.readouterr().err


def smoke_with(**overrides):
    """SMOKE_YAML with top-level keys replaced and scenario keys updated."""
    doc = yaml.safe_load(SMOKE_YAML)
    doc["scenario"].update(overrides.pop("scenario", {}))
    doc.update(overrides)
    return yaml.safe_dump(doc)


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(scenario=dict(duration=float("inf"))),
                 id="duration-inf"),
    pytest.param(dict(scenario=dict(imu_rate=float("inf"))),
                 id="imu_rate-inf"),
    pytest.param(dict(scenario=dict(n_landmarks=-1)), id="n_landmarks-neg"),
    pytest.param(dict(scenario=dict(n_landmarks=2.5)),
                 id="n_landmarks-float"),
    pytest.param(dict(scenario=dict(pixel_sigma=0)), id="pixel_sigma-zero"),
    pytest.param(dict(scenario=dict(max_range=float("nan"))),
                 id="max_range-nan"),
    pytest.param(dict(variants=["ij_iekf:nan"]), id="r-nan"),
    pytest.param(dict(variants=["ij_iekf:inf"]), id="r-inf"),
    pytest.param(dict(seed=-1), id="seed-neg"),
    pytest.param(dict(noise=dict(sigma_gw=float("nan"))),
                 id="noise-sigma_gw-nan"),
    pytest.param(dict(noise=dict(gravity=[0.0, 0.0])),
                 id="noise-gravity-shape"),
    pytest.param(dict(noise=dict(gravity=[True, False, -9.81])),
                 id="noise-gravity-bool"),
    pytest.param(dict(init=dict(sigma_p=float("nan"))), id="init-sigma_p-nan"),
    pytest.param(dict(init=dict(sigma_theta=-0.1)), id="init-sigma_theta-neg"),
    pytest.param(dict(trajectory=dict(ax=float("inf"))),
                 id="trajectory-ax-inf"),
    pytest.param(dict(camera=dict(fx=float("nan"))), id="camera-fx-nan"),
    pytest.param(dict(camera=dict(width=0)), id="camera-width-zero"),
])
def test_out_of_range_number_exits_2(tmp_path, capsys, overrides):
    # each of these used to end in a traceback mid-run (exit 1), in a
    # singular innovation (exit 3), in a run of the wrong size, or in a
    # summary of NaN rows or a run without updates (exit 0); none writes
    # output
    cfg = write_config(tmp_path, smoke_with(**overrides))
    out = tmp_path / "out"
    assert run_cli(["simulate", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["runs", "seed", "parallelism"])
def test_boolean_is_not_an_integer(tmp_path, key):
    # YAML's true is the int 1 to Python: runs: true would run one run
    cfg = write_config(tmp_path, smoke_with(**{key: True}))
    with pytest.raises(ConfigError, match=key):
        config.load_config(cfg)
    assert run_cli(["simulate", cfg, "--output-dir",
                    str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("overrides, key", [
    pytest.param(dict(scenario=dict(duration=True)), "duration",
                 id="scenario-duration"),
    pytest.param(dict(scenario=dict(pixel_sigma=True)), "pixel_sigma",
                 id="scenario-pixel_sigma"),
    pytest.param(dict(init=dict(sigma_p=True)), "sigma_p", id="init-sigma_p"),
    pytest.param(dict(noise=dict(sigma_aw=False)), "sigma_aw",
                 id="noise-sigma_aw"),
    pytest.param(dict(trajectory=dict(ax=True)), "ax", id="trajectory-ax"),
    pytest.param(dict(camera=dict(fx=True)), "fx", id="camera-fx"),
    pytest.param(dict(camera=dict(cx=False)), "cx", id="camera-cx"),
])
def test_boolean_is_not_a_number(tmp_path, capsys, overrides, key):
    # scenario.duration: true and init.sigma_p: true used to load and run
    # as 1 (and sigma_aw: false as 0)
    cfg = write_config(tmp_path, smoke_with(**overrides))
    with pytest.raises(ConfigError, match=key):
        config.load_config(cfg)
    out = tmp_path / "out"
    assert run_cli(["simulate", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "-1"),
    ("montecarlo", "--seed", "-1"),
    ("montecarlo", "--runs", "0"),
    ("montecarlo", "--runs", "-3"),
])
def test_out_of_range_override_exits_2(tmp_path, capsys, command, flag,
                                       value):
    # the command-line overrides pass the config file's checks: --seed -1
    # used to end in a SeedSequence traceback, --runs 0 in header-only
    # reports and exit 3
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli([command, cfg, flag, value, "--output-dir",
                    str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert flag[2:] in err
    assert not out.exists()


def test_overrides_replace_the_file_values(tmp_path):
    cfg = config.load_config(write_config(tmp_path),
                             {"seed": 11, "runs": 3, "output_dir": "elsewhere"})
    assert (cfg.seed, cfg.runs, cfg.output_dir) == (11, 3, "elsewhere")


def test_malformed_yaml_exits_2(tmp_path):
    cfg = write_config(tmp_path, "variants: [iekf\n")
    assert run_cli(["simulate", cfg]) == 2


def test_threads_override_invalid_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("IEKF_KIT_THREADS", "zero")
    cfg = write_config(tmp_path)
    assert run_cli(["simulate", cfg, "--output-dir",
                    str(tmp_path / "out")]) == 2


def test_selfcheck_single_named_check(capsys):
    assert run_cli(["selfcheck", "--filter", "observability"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1
    assert lines[0].startswith("PASS")
    assert "observability" in lines[0]


def test_selfcheck_unknown_name_exits_2():
    assert run_cli(["selfcheck", "--filter", "no-such-check"]) == 2


def test_observability_command_output(capsys):
    assert run_cli(["observability", "--dt", "0.1", "--k", "6"]) == 0
    out = capsys.readouterr().out
    assert "numerical rank: 8" in out
    assert "nullspace dimension: 4" in out
    assert "singular values:" in out
    assert "nullspace basis" in out


def test_simulate_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["simulate", cfg, "--output-dir", str(out_a)]) == 0
    assert run_cli(["simulate", cfg, "--output-dir", str(out_b)]) == 0
    assert (out_a / "summary.csv").read_text() == \
        (out_b / "summary.csv").read_text()
    # table on stdout lists every variant
    out = capsys.readouterr().out
    assert "iekf" in out and "ekf" in out


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["simulate", cfg, "--output-dir", str(out_a)]) == 0
    assert run_cli(["simulate", cfg, "--seed", "8",
                    "--output-dir", str(out_b)]) == 0
    assert (out_a / "summary.csv").read_text() != \
        (out_b / "summary.csv").read_text()


def test_montecarlo_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "mc"
    before = set(os.listdir(tmp_path))
    assert run_cli(["montecarlo", cfg, "--runs", "2",
                    "--output-dir", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    # nothing written outside the output directory
    after = set(os.listdir(tmp_path)) - before
    assert after == {"mc"}
