import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from asyncsense import parse_results_csv
from asyncsense.cli import main
from asyncsense.config import config_to_json, parse_config
from asyncsense.csvio import read_matrix_csv


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # a default --out is relative to the working directory: keep it in the test's own
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def cfg_path(tmp_path):
    cfg = {"m": 6, "t": 32, "snr_db": [10.0], "trials": 5, "seed": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_usage_errors_exit_1(capsys):
    assert main(["bogus-command"]) == 1
    assert main(["bounds"]) == 1          # missing --config
    assert main(["montecarlo", "--config", "x.json", "--format", "xml"]) == 1
    assert main(["verify", "--out", "x.csv"]) == 1      # verify writes no file
    capsys.readouterr()


def test_missing_config_exit_1(capsys):
    assert main(["bounds", "--config", "/nonexistent.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_fim_command(tmp_path, cfg_path, capsys):
    out = tmp_path / "fim.csv"
    assert main(["fim", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    fim = read_matrix_csv(str(out))
    assert fim.shape == (1 + 12 + 96, 1 + 12 + 96)
    crb = read_matrix_csv(str(tmp_path / "fim.crb.csv"))
    assert crb.shape == fim.shape
    for matrix in (fim, crb):  # bitwise, as write_matrix_csv's symmetric path needs
        assert np.array_equal(matrix.view(np.uint64), matrix.T.view(np.uint64))


def test_bounds_command(tmp_path, cfg_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = parse_results_csv(str(out))
    assert {r.metric for r in rows} == {"hrcrb_theta", "ahrcrb_d", "hrcrb_theta_mc"}


def _echoed_config(err) -> dict:
    """The effective config that a command echoes to stderr, parsed back."""
    lines = [line[2:] for line in err.splitlines() if line.startswith("# ")]
    assert lines[0] == "effective config:"
    return json.loads("\n".join(lines[1:]))


@pytest.mark.parametrize("command, mode", [("bounds", "bounds-only"),
                                           ("montecarlo", "estimator")])
def test_the_echoed_config_is_the_one_that_runs(command, mode, tmp_path, cfg_path, capsys):
    # `bounds` runs the config's bounds-only form, so that is what it echoes
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out.csv")]) == 0
    want = json.loads(config_to_json(dataclasses.replace(parse_config(cfg_path), mode=mode)))
    assert _echoed_config(capsys.readouterr().err) == want


def test_estimate_synthesized_and_from_file(tmp_path, cfg_path, capsys):
    out1 = tmp_path / "est1.csv"
    assert main(["estimate", "--config", cfg_path, "--out", str(out1)]) == 0
    rows = parse_results_csv(str(out1))
    by_metric = {r.metric: r.value for r in rows}
    assert "theta_hat" in by_metric
    assert "phi_hat_0" in by_metric and "d_hat_re_0" in by_metric

    # feed an externally written CSI file through the same pipeline
    from asyncsense import (ArrayGeometry, GainDistribution, ScenarioParams,
                            draw_dynamic_gains, synthesize_csi, write_csi_csv)
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(0)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    d = draw_dynamic_gains(32, GainDistribution(1.0), rng, constrained=True)
    phi = rng.normal(0, 0.4, 32).cumsum()
    phi -= phi.mean()
    blk = synthesize_csi(geom, ScenarioParams(0.41, h_s, d, phi, 0.1), rng)
    csi_path = tmp_path / "csi.csv"
    write_csi_csv(blk, str(csi_path))
    out2 = tmp_path / "est2.csv"
    assert main(["estimate", "--config", cfg_path, "--csi", str(csi_path),
                 "--out", str(out2)]) == 0
    theta_hat = {r.metric: r.value for r in parse_results_csv(str(out2))}["theta_hat"]
    assert abs(theta_hat - 0.41) < 0.05
    capsys.readouterr()


def test_montecarlo_command(tmp_path, cfg_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = parse_results_csv(str(out))
    assert any(r.metric == "mse_theta" for r in rows)


def test_verify_command_default(capsys):
    assert main(["verify", "--trials", "300"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    names = {line.split()[1] for line in out.splitlines() if line.startswith("PASS")}
    assert {"rho_range", "fim_oracle", "schur_consistency", "constraint_basis",
            "chain_orderings", "chain_schur_identity"} <= names


@pytest.mark.parametrize("trials", ["0", "1", "-5"])
def test_verify_refuses_fewer_than_two_trials(trials, capsys):
    # a usage error that names the flag, before any check runs
    assert main(["verify", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert f"argument --trials: must be at least 2, got {trials}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["-1", "-20240817"])
def test_verify_refuses_a_negative_seed(seed, monkeypatch, capsys):
    # a usage error that names the flag and the value, before any check runs
    import asyncsense.campaign as campaign_mod

    def no_checks(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(campaign_mod, "run_verification", no_checks)
    assert main(["verify", "--trials", "2", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert f"argument --seed: must be non-negative, got {seed}" in captured.err
    assert "input error" not in captured.err
    assert captured.out == ""


def test_estimate_missing_csi_file_exit_1(tmp_path, cfg_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["estimate", "--config", cfg_path, "--csi", str(missing)]) == 1
    assert "file error" in capsys.readouterr().err
    assert not (tmp_path / "estimate.csv").exists()


def _error_lines(err):
    """The stderr lines that are not the effective-config echo."""
    return [line for line in err.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("argv", [["fim", "--config", "{dir}"],
                                  ["bounds", "--config", "{cfg}", "--out", "{dir}"],
                                  ["estimate", "--config", "{cfg}", "--csi", "{dir}"]],
                         ids=["fim-config", "bounds-out", "estimate-csi"])
def test_a_directory_path_exits_1_naming_it(argv, tmp_path, cfg_path, capsys):
    directory = tmp_path / "a_directory"
    directory.mkdir()
    assert main([arg.format(dir=directory, cfg=cfg_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = _error_lines(err)
    assert len(lines) == 1 and str(directory) in lines[0]


@pytest.mark.parametrize("command, default, written", [
    ("fim", "fim.csv", {"fim.csv", "fim.crb.csv"}),
    ("bounds", "bounds.csv", {"bounds.csv"}),
    ("estimate", "estimate.csv", {"estimate.csv"}),
    ("montecarlo", "campaign.csv", {"campaign.csv"})],
    ids=["fim", "bounds", "estimate", "montecarlo"])
def test_default_out_is_shown_in_help_and_written_there(command, default, written, tmp_path,
                                                        cfg_path, capsys):
    assert main([command, "--help"]) == 0
    assert f"(default: {default})" in " ".join(capsys.readouterr().out.split())
    assert main([command, "--config", cfg_path]) == 0
    capsys.readouterr()
    assert {p.name for p in tmp_path.iterdir()} == written | {"cfg.json"}


@pytest.fixture
def nothing_computed(monkeypatch):
    """Make every FIM, campaign and estimator call fail the test."""
    import asyncsense.campaign as campaign_mod
    import asyncsense.cli as cli_mod

    def called(*args, **kwargs):
        pytest.fail("work started before the output paths were checked")

    monkeypatch.setattr(cli_mod, "joint_fim", called)
    monkeypatch.setattr(cli_mod, "run_estimator", called)
    monkeypatch.setattr(campaign_mod, "run_campaign", called)


@pytest.mark.parametrize("command, case", [
    *((command, case) for command in ("fim", "bounds", "estimate", "montecarlo")
      for case in ("directory", "missing-parent")),
    ("fim", "crb-directory")])
def test_an_unwritable_out_fails_before_any_work(command, case, tmp_path, cfg_path, capsys,
                                                 nothing_computed):
    # the check creates and truncates nothing; a permission case cannot be tested as root
    out, bad = {"directory": (tmp_path / "a_directory",) * 2,
                "missing-parent": (tmp_path / "missing" / "x.csv",) * 2,
                "crb-directory": (tmp_path / "x.csv", tmp_path / "x.crb.csv")}[case]
    if case != "missing-parent":
        bad.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and lines[0].startswith("file error: ") and str(bad) in lines[0]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["bounds", "montecarlo"])
@pytest.mark.parametrize("snr", ["4000", "-4000", "-3100"])
def test_an_snr_without_a_finite_positive_sigma2_exits_1(command, snr, tmp_path, capsys,
                                                         nothing_computed):
    path = tmp_path / "snr.json"
    path.write_text(json.dumps({"m": 4, "t": 8, "snr_db": [10.0, float(snr)], "trials": 2}))
    assert main([command, "--config", str(path)]) == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and lines[0].startswith(f"config error: field 'snr_db': {snr} dB")


def test_settings_are_pinned_and_removed_ones_fail_loudly(tmp_path, cfg_path, capsys):
    # a setting can only be added, or a removed one come back, by editing these sets
    import argparse
    from asyncsense.cli import _build_parser
    from asyncsense.config import CampaignConfig
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {name: {opt for action in p._actions for opt in action.option_strings}
               for name, p in sub.choices.items()}
    writer = {"-h", "--help", "--config", "--out"}
    assert options == {"fim": writer, "bounds": writer, "estimate": writer | {"--csi"},
                       "montecarlo": writer, "verify": {"-h", "--help", "--trials", "--seed"}}
    assert set(CampaignConfig.__dataclass_fields__) == {
        "m", "t", "snr_db", "trials", "spacing", "p_d", "theta_d", "h_s", "seed", "mode",
        "finite_t", "finite_t_trials", "mc_bound_trials", "phi_walk_std"}

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({**json.loads(pathlib.Path(cfg_path).read_text()),
                                "grid_points": 512}))
    for argv, named in ((["verify", "--config", cfg_path], "unrecognized arguments: --config"),
                        (["montecarlo", "--config", cfg_path, "--seed", "5"],
                         "unrecognized arguments: --seed 5"),
                        (["montecarlo", "--config", str(grid)],
                         "config error: unknown field(s): grid_points")):
        assert main(argv) == 1
        assert named in capsys.readouterr().err
    assert not (tmp_path / "campaign.csv").exists()


def test_memory_error_exits_1_with_one_line(monkeypatch, cfg_path, capsys):
    # the allocation is never made: a real one could succeed under overcommit and touch pages
    import asyncsense.cli as cli_mod

    def too_large(*args):
        raise MemoryError("Unable to allocate 671. GiB for an array with shape (300001, 300001)")

    monkeypatch.setattr(cli_mod, "joint_fim", too_large)
    assert main(["fim", "--config", cfg_path]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        "memory error: Unable to allocate 671. GiB for an array with shape (300001, 300001)"]


def test_verify_fails_when_a_rho_draw_raises(monkeypatch, capsys):
    # one collinear row in a batch of draws fails the command; the check never skips it
    import asyncsense.campaign as campaign_mod
    from asyncsense import steering_vector
    real = campaign_mod.rho_theta
    injected = []

    def one_row_collinear(geom, theta, h_s):
        if np.ndim(theta) == 1 and not injected:
            row = len(theta) // 2
            h_s = h_s.copy()
            h_s[row] = 1.7 * steering_vector(geom, theta[row])
            injected.append(row)
        return real(geom, theta, h_s)

    monkeypatch.setattr(campaign_mod, "rho_theta", one_row_collinear)
    assert main(["verify", "--trials", "300"]) == 2
    assert injected
    err = capsys.readouterr().err
    assert "collinear with the steering vector in 1 of" in err


def test_verify_failure_exit_3(monkeypatch, capsys):
    import asyncsense.campaign as campaign_mod
    from asyncsense.campaign import VerifyCheck

    def broken(trials, seed):
        return VerifyCheck("rho_range", False, 1.0, 1e-10)

    monkeypatch.setattr(campaign_mod, "check_rho_range", broken)
    assert main(["verify", "--trials", "300"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_estimate_csi_mismatch_exit_1(tmp_path, cfg_path, capsys):
    # 4-antenna CSI against an m=6 config is a usage error, not a crash
    csi_path = tmp_path / "bad.csv"
    csi_path.write_text("1,0,2,0\n3,0,4,0\n5,0,6,0\n7,0,8,0\n")
    assert main(["estimate", "--config", cfg_path, "--csi", str(csi_path)]) == 1
    assert "input error" in capsys.readouterr().err


def test_grating_lobe_alias_exit_1(tmp_path, capsys):
    # the estimator refuses spacing 0.9 at theta_d 0.35; the bounds accept it
    cfg = {"m": 6, "t": 32, "snr_db": [10.0], "trials": 5, "seed": 3, "spacing": 0.9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("montecarlo", "estimate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "-0.876 rad" in err
    for command in ("bounds", "fim"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "y.csv")]) == 0
    capsys.readouterr()


def test_estimate_csi_refuses_a_grating_lobe_alias(tmp_path, capsys):
    # a --csi block has no theta_d, so the alias rule runs on theta_hat: at spacing 0.9
    # the angles 0.35 and -0.877 share one steering vector, so MUSIC may name either
    # and the refusal the other, and 0.05 has no alias
    from asyncsense import (ArrayGeometry, GainDistribution, ScenarioParams,
                            draw_dynamic_gains, synthesize_csi, write_csi_csv)
    cfg = {"m": 6, "t": 32, "snr_db": [10.0], "trials": 5, "seed": 3, "spacing": 0.9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    geom = ArrayGeometry(6, 0.9)
    rng = np.random.default_rng(2)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    d = draw_dynamic_gains(32, GainDistribution(1.0), rng, constrained=True)
    phi = rng.normal(0, 0.4, 32).cumsum()
    phi -= phi.mean()
    for theta, code in ((0.35, 1), (0.05, 0)):
        csi = tmp_path / f"csi_{theta}.csv"
        write_csi_csv(synthesize_csi(geom, ScenarioParams(theta, h_s, d, phi, 0.1), rng),
                      str(csi))
        assert main(["estimate", "--config", str(path), "--csi", str(csi)]) == code
        err = capsys.readouterr().err
        assert (tmp_path / "estimate.csv").exists() == (code == 0)
        if code:
            named = re.search(r"config error: field 'spacing': 0\.9 puts a grating-lobe alias "
                              r"of theta_hat=(\S+) at (\S+) rad", err)
            assert named, err
            pair = sorted(map(float, named.groups()))
            assert abs(pair[0] + 0.877) < 0.01 and abs(pair[1] - 0.35) < 0.01


def test_wrapping_phase_walk_exit_1(tmp_path, capsys):
    # the estimator refuses phi_walk_std 1.5; the bounds accept it
    cfg = {"m": 6, "t": 32, "snr_db": [10.0], "trials": 5, "seed": 3, "phi_walk_std": 1.5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("montecarlo", "estimate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'phi_walk_std': 1.5" in err
    for command in ("bounds", "fim"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "y.csv")]) == 0
    capsys.readouterr()


def test_numerical_failure_exit_2(tmp_path, capsys):
    # fixed static channel collinear with a(theta_d): the bounds diverge
    m = 4
    theta = 0.3
    a = np.exp(1j * 2 * np.pi * 0.5 * np.arange(m) * np.sin(theta))
    cfg = {"m": m, "t": 8, "snr_db": [10.0], "trials": 2, "theta_d": theta,
           "h_s": {"mode": "fixed", "re": list(a.real), "im": list(a.imag)}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["bounds", "--config", path.as_posix()]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("helpers", [0, 1])
def test_bounds_with_a_collinear_static_channel_exits_2_in_one_line(helpers, tmp_path,
                                                                   monkeypatch, capsys):
    # every bound Monte Carlo task raises; the lowest one's error is the one line printed
    import asyncsense.campaign as campaign_mod
    monkeypatch.setattr(campaign_mod, "CHUNK_HELPERS", helpers)
    m, theta = 4, 0.3
    a = np.exp(1j * 2 * np.pi * 0.5 * np.arange(m) * np.sin(theta))
    cfg = {"m": m, "t": 8, "snr_db": [0.0, 10.0, 20.0], "trials": 2, "theta_d": theta,
           "finite_t": True, "h_s": {"mode": "fixed", "re": list(a.real), "im": list(a.imag)}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    threads = threading.active_count()
    assert main(["bounds", "--config", path.as_posix()]) == 2
    assert threading.active_count() == threads
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: static channel is collinear")
    assert not (tmp_path / "bounds.csv").exists()


def test_package_runs_without_scipy():
    # numpy is the one runtime dependency: importing the package and the CLI,
    # estimating a stack and running a campaign must load no scipy module
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import asyncsense, asyncsense.cli
        from asyncsense import ArrayGeometry, CampaignConfig, run_campaign
        from asyncsense.estimator import estimate_batch
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2, 8, 16)) + 1j * rng.standard_normal((2, 8, 16))
        est = estimate_batch(h, ArrayGeometry(8))
        assert est.errors == (None, None)
        run_campaign(CampaignConfig(m=8, t=32, snr_db=[10.0], trials=2))
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:3]}"
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
