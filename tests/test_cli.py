import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from asyncsense import parse_results_csv
from asyncsense.cli import main
from asyncsense.csvio import read_matrix_csv


@pytest.fixture
def cfg_path(tmp_path):
    cfg = {"m": 6, "t": 32, "snr_db": [10.0], "trials": 5, "seed": 3, "grid_points": 512}
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
    np.testing.assert_allclose(fim, fim.T, atol=1e-12)
    crb = read_matrix_csv(str(tmp_path / "fim.crb.csv"))
    assert crb.shape == fim.shape


def test_bounds_command(tmp_path, cfg_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = parse_results_csv(str(out))
    assert {r.metric for r in rows} == {"hrcrb_theta", "ahrcrb_d", "hrcrb_theta_mc"}


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


def test_verify_command_default(cfg_path, capsys):
    # the config supplies m, min(t, 8), p_d, spacing and seed
    for extra in ([], ["--config", cfg_path]):
        assert main(["verify", "--trials", "300"] + extra) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        names = {line.split()[1] for line in out.splitlines() if line.startswith("PASS")}
        assert {"rho_range", "fim_oracle", "schur_consistency", "constraint_basis",
                "chain_orderings", "chain_schur_identity"} <= names


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
    cfg = {"m": 6, "t": 32, "snr_db": [10.0], "trials": 5, "seed": 3, "grid_points": 512,
           "spacing": 0.9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("montecarlo", "estimate"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "-0.876 rad" in err
    for command in ("bounds", "fim"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "y.csv")]) == 0
    capsys.readouterr()


def test_wrapping_phase_walk_exit_1(tmp_path, capsys):
    # the estimator refuses phi_walk_std 1.5; the bounds accept it
    cfg = {"m": 6, "t": 32, "snr_db": [10.0], "trials": 5, "seed": 3, "grid_points": 512,
           "phi_walk_std": 1.5}
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
