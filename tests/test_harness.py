import csv
import dataclasses
import importlib.util
import inspect
import itertools
import json
import math
import pathlib
import sys
import time

import numpy as np
import pytest

from asyncsense import (CampaignConfig, ConfigError, HsSpec, ResultRow, emit_config, emit_csv,
                        parse_config, parse_results_csv, read_csi_csv, run_campaign,
                        sigma2_from_snr_db, write_csi_csv, write_matrix_csv)
from asyncsense.csvio import read_matrix_csv
import asyncsense.campaign as campaign_mod
from asyncsense import cli, fisher
from asyncsense.array_model import ArrayGeometry, CsiBlock, steering_vector
from asyncsense.exceptions import EstimationStageError


def test_snr_mapping_zero_db():
    # 0 dB <=> sigma2 = p_d * M by the documented dynamic-path array SNR
    assert sigma2_from_snr_db(0.0, 1.5, 8) == pytest.approx(12.0)
    assert sigma2_from_snr_db(10.0, 1.0, 8) == pytest.approx(0.8)


def _minimal_dict(**over):
    d = {"m": 4, "t": 16, "snr_db": [10.0], "trials": 3}
    d.update(over)
    return d


def test_parse_config_minimal_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"m": 4, "t": 16, "snr_db": [10.0], "trials": 3}')
    cfg = parse_config(str(path))
    assert cfg.spacing == 0.5 and cfg.p_d == 1.0 and cfg.mode == "estimator"
    assert cfg.h_s.mode == "random" and cfg.h_s.power == 1.0
    assert cfg.grid_points == 2048


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"m": 4, "t": 16, "snr_db": [10.0], "trials": 3, "bogus_key": 1}')
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(str(path))
    # removed fields: the worker-thread knob, the verify trial count, the
    # output path (--out covers it) and the two-path estimator's fixed design
    for key, value in (("threads", 2), ("verify_trials", 40), ("out", "x.csv"),
                       ("source_count", 2), ("refine", True)):
        path.write_text(json.dumps(_minimal_dict(**{key: value})))
        with pytest.raises(ConfigError, match=f"unknown field\\(s\\): {key}"):
            parse_config(str(path))
    # verification runs only through the verify command
    path.write_text(json.dumps(_minimal_dict(mode="verify")))
    with pytest.raises(ConfigError, match="'mode'"):
        parse_config(str(path))


def test_parse_config_names_bad_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"m": 4, "t": 16, "snr_db": [10.0], "trials": -1}')
    with pytest.raises(ConfigError, match="'trials'"):
        parse_config(str(path))


def test_parse_config_reports_json_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"m": 4,\n  "t": }')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(path))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/cfg.json")


def test_config_h_s_fixed_length_check():
    with pytest.raises(ConfigError, match="h_s"):
        CampaignConfig(**_minimal_dict(h_s=HsSpec(mode="fixed", re=[1, 2], im=[0, 0])))


def test_config_roundtrip(tmp_path):
    cfg = CampaignConfig(**_minimal_dict(snr_db=[0.0, 10.0, 20.0], seed=99,
                                         h_s=HsSpec(mode="fixed", re=[1, 0, -1, 0],
                                                    im=[0, 1, 0, -1])))
    path = tmp_path / "cfg.json"
    emit_config(cfg, str(path))
    assert parse_config(str(path)) == cfg


def test_emit_csv_empty_refused(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        emit_csv([], str(path))
    assert not path.exists()


def test_emit_csv_roundtrip_and_shape(tmp_path):
    rows = [
        ResultRow(0.0, "hrcrb_theta", math.pi * 1e-7, None, 0, 42),
        ResultRow(None, "verify_x", 1.2345678901234567e-11, 3.3e-5, 10, 42),
        ResultRow(20.0, "mse_d", 0.1 + 2 ** -45, 1e-17, 10000, 42),
    ]
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    text = path.read_text()
    assert all(line.count(",") == 5 for line in text.strip().split("\n"))
    assert "\r" not in text
    back = parse_results_csv(str(path))
    assert back == rows


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-12, 12, (5, 7))
    path = tmp_path / "m.csv"
    write_matrix_csv(mat, str(path))
    np.testing.assert_array_equal(read_matrix_csv(str(path)), mat)


def _csv_writer_oracle(matrix, path):
    # the per-value writer write_matrix_csv replaced; its bytes are the file format
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in matrix:
            writer.writerow([format(float(x), ".17g") for x in row])


_EDGE = np.array([[0.0, -0.0, np.nan, np.inf],
                  [-np.inf, 5e-324, 2.2250738585072014e-308 / 3, np.finfo(float).max],
                  [-np.finfo(float).max, 0.1, 1.0 / 3.0, -1e-300]])
EDGE_MATRICES = {
    "edge": _EDGE,
    "fortran": np.asfortranarray(_EDGE),
    "transposed": _EDGE.T,
    "1x1": np.array([[2.5]]),
    "3x1": np.array([[1.0], [-0.0], [np.nan]]),
    "2x0": np.zeros((2, 0)),
    "0x3": np.zeros((0, 3)),
    "int64": np.arange(-6, 6, dtype=np.int64).reshape(3, 4) * 10 ** 15,
    "bool": np.array([[True, False], [False, True]]),
    "float32": np.array([[0.1, 1e-30, 3.4e38, -1.5]], dtype=np.float32),
}


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_matrix_csv_bytes_match_the_csv_writer(tmp_path, name):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_matrix_csv(EDGE_MATRICES[name], str(new))
    _csv_writer_oracle(EDGE_MATRICES[name], str(old))
    assert new.read_bytes() == old.read_bytes()


def test_fim_command_bytes_match_the_csv_writer(tmp_path, capsys):
    cfg = tmp_path / "fim.json"
    cfg.write_text(json.dumps(_minimal_dict(m=8, t=64, theta_d=0.35, seed=11)))
    out = tmp_path / "fim.csv"
    assert cli.main(["fim", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    parsed = parse_config(str(cfg))
    fim = fisher.joint_fim(ArrayGeometry(parsed.m, parsed.spacing),
                           campaign_mod.scenario_from_config(parsed))
    crb = fisher.constrained_crb(fim, fisher.constraint_basis(parsed.m, parsed.t))
    for matrix, written in ((fim.data, out), (crb, tmp_path / "fim.crb.csv")):
        _csv_writer_oracle(matrix, str(tmp_path / "oracle.csv"))
        assert written.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_matrix_csv_roundtrip_is_bit_exact(tmp_path):
    mat = np.vstack([_EDGE, [-0.0, -5e-324, -np.nan, 1e-310]])
    path = tmp_path / "m.csv"
    write_matrix_csv(mat, str(path))
    back = read_matrix_csv(str(path))
    # NaN payloads and signs are not kept: %.17g writes every NaN as "nan"
    nan = np.isnan(mat)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.int64), mat[~nan].view(np.int64))


def test_matrix_csv_refuses_complex_input(tmp_path):
    with pytest.raises(ValueError, match="complex128"):
        write_matrix_csv(np.array([[1 + 2j, 3 - 1j]]), str(tmp_path / "c.csv"))
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("text, match", [
    ("", "no rows or a blank line"),
    ("\n", "no rows or a blank line"),
    ("1,2\n\n3,4\n", "no rows or a blank line"),
    ("1,2\n3,4\n\n", "no rows or a blank line"),
    ("1,2\n3\n", "number of columns"),
    ("1,2\n3,x\n", "could not convert"),
    ("1,,2\n", "could not convert"),
])
def test_read_matrix_csv_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_matrix_csv(str(path))


def test_estimate_rejects_an_empty_csi_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_minimal_dict()))
    csi = tmp_path / "csi.csv"
    csi.write_text("")
    assert cli.main(["estimate", "--config", str(cfg), "--csi", str(csi)]) == 1
    assert "has no rows" in capsys.readouterr().err


def test_csi_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    blk = CsiBlock(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    path = tmp_path / "csi.csv"
    write_csi_csv(blk, str(path))
    back = read_csi_csv(str(path))
    np.testing.assert_array_equal(back.data, blk.data)


def test_csi_csv_roundtrip_is_bit_exact(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([-0.0, 0.0, np.inf, -np.inf, tiny, -tiny, 2.5e-310, 1.0, -3.25, 1e300])
    pairs = np.array(list(itertools.product(edges, repeat=2)))    # (re, im) rows
    full = CsiBlock(pairs.view(complex).reshape(10, 10))
    strided = CsiBlock(full.data[::2, 1::3])
    for i, blk in enumerate((full, strided)):
        path = tmp_path / f"csi{i}.csv"
        write_csi_csv(blk, str(path))
        back = read_csi_csv(str(path))
        assert back.data.shape == blk.data.shape
        np.testing.assert_array_equal(back.data.view(np.int64),
                                      np.ascontiguousarray(blk.data).view(np.int64))


def _campaign_cfg(**over):
    base = dict(m=6, t=32, snr_db=[10.0], trials=8, seed=7, grid_points=512)
    base.update(over)
    return CampaignConfig(**base)


def test_campaign_deterministic_rerun(tmp_path):
    cfg = _campaign_cfg(trials=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_campaign(cfg).rows, str(p1))
    emit_csv(run_campaign(cfg).rows, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_campaign_chunk_size_invariance(tmp_path, monkeypatch):
    # 38 trials: a partial last chunk at every chunk size tried
    cfg = _campaign_cfg(trials=38)
    blobs = []
    for chunk in (1, 7, campaign_mod.CHUNK_TRIALS):
        monkeypatch.setattr(campaign_mod, "CHUNK_TRIALS", chunk)
        path = tmp_path / f"chunk{chunk}.csv"
        emit_csv(run_campaign(cfg).rows, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_campaign_adding_trials_preserves_streams():
    # counter-based per-trial seeding: trial k is the same in a longer run,
    # also when the longer run puts it in another chunk
    chunk = campaign_mod.CHUNK_TRIALS
    short = run_campaign(_campaign_cfg(trials=chunk - 2), keep_trials=True).trial_results[0]
    long = run_campaign(_campaign_cfg(trials=chunk + 3), keep_trials=True).trial_results[0]
    assert short == long[:chunk - 2]


def test_estimator_campaign_refuses_a_grating_lobe_alias():
    # spacing 0.9 at theta_d 0.35: sin(theta') = sin(0.35) - 1/0.9 puts an exact
    # alias of a(theta_d) at -0.876 rad, which MUSIC cannot tell apart
    with pytest.raises(ConfigError, match=r"-0\.876 rad"):
        run_campaign(_campaign_cfg(spacing=0.9))
    # the rule is spacing > 1 / (1 + |sin theta_d|), on either side of broadside
    for theta, spacing in ((0.35, 0.75), (-0.35, 0.75), (0.0, 1.01), (1.2, 0.53)):
        assert spacing > 1.0 / (1.0 + abs(math.sin(theta)))
        with pytest.raises(ConfigError, match="grating-lobe alias"):
            campaign_mod.check_estimator_inputs(_campaign_cfg(spacing=spacing, theta_d=theta))
    for theta, spacing in ((0.35, 0.74), (-0.35, 0.74), (0.0, 1.0), (1.2, 0.5)):
        campaign_mod.check_estimator_inputs(_campaign_cfg(spacing=spacing, theta_d=theta))
    res = run_campaign(_campaign_cfg(spacing=0.7, trials=4))
    assert any(r.metric == "mse_theta" for r in res.rows)


def test_estimator_campaign_refuses_a_wrapping_phase_walk():
    # a step N(0, 1.5^2) passes pi with probability 3.6%, so the union bound over
    # the T - 1 = 127 steps, (T - 1) erfc(pi / (1.5 sqrt 2)) = 4.6, is far above 1e-6
    with pytest.raises(ConfigError, match=r"'phi_walk_std': 1\.5 .* up to 4\.6 .*limit 1e-06"):
        run_campaign(_campaign_cfg(t=128, phi_walk_std=1.5))
    with pytest.raises(ConfigError, match=r"up to 2\.08e-05"):
        campaign_mod.check_estimator_inputs(_campaign_cfg(t=128, phi_walk_std=0.6))
    # the default 0.5 gives 4.2e-8 at T=128 and passes up to T=3015
    campaign_mod.check_estimator_inputs(_campaign_cfg(t=3015, phi_walk_std=0.5))
    with pytest.raises(ConfigError, match="phi_walk_std"):
        campaign_mod.check_estimator_inputs(_campaign_cfg(t=3016, phi_walk_std=0.5))
    res = run_campaign(_campaign_cfg(t=128, phi_walk_std=0.5, trials=4))
    assert any(r.metric == "mse_d" for r in res.rows)


def test_bounds_only_campaign_accepts_a_wrapping_phase_walk():
    # the bounds do not depend on the phase walk at all
    rows = run_campaign(_campaign_cfg(t=128, phi_walk_std=1.5, mode="bounds-only",
                                      mc_bound_trials=500)).rows
    assert {r.metric for r in rows} == {"hrcrb_theta", "ahrcrb_d", "hrcrb_theta_mc"}


def test_bounds_only_campaign_accepts_a_grating_lobe_spacing():
    # the bounds are local and still hold where the estimator is ambiguous
    rows = run_campaign(_campaign_cfg(spacing=0.9, mode="bounds-only", finite_t=True,
                                      finite_t_trials=200, mc_bound_trials=500)).rows
    assert {r.metric for r in rows} == {"hrcrb_theta", "ahrcrb_d", "hrcrb_theta_mc",
                                        "finite_t_hrcrb_d"}


def test_campaign_bounds_only_rows():
    cfg = _campaign_cfg(mode="bounds-only", snr_db=[0.0, 10.0], mc_bound_trials=500)
    rows = run_campaign(cfg).rows
    metrics = {(r.snr_db, r.metric) for r in rows}
    for snr in (0.0, 10.0):
        assert (snr, "hrcrb_theta") in metrics
        assert (snr, "ahrcrb_d") in metrics
        assert (snr, "hrcrb_theta_mc") in metrics
    mc = [r for r in rows if r.metric == "hrcrb_theta_mc"]
    closed = {r.snr_db: r.value for r in rows if r.metric == "hrcrb_theta"}
    for r in mc:
        assert abs(r.value - closed[r.snr_db]) < 4 * r.stderr


def test_campaign_estimator_rows_and_fail_rate():
    res = run_campaign(_campaign_cfg(trials=5, finite_t=True, finite_t_trials=200))
    metrics = {r.metric for r in res.rows}
    assert {"hrcrb_theta", "ahrcrb_d", "finite_t_hrcrb_d", "mse_theta", "mse_d",
            "mse_phi", "estimator_fail_rate"} <= metrics
    fail = [r for r in res.rows if r.metric == "estimator_fail_rate"][0]
    assert fail.value == 0.0


def _failing_estimator(monkeypatch, stage_of):
    """Fail the campaign's i-th estimated trial in stage_of(i), counting across SNR points."""
    real = campaign_mod.estimate_batch
    counter = itertools.count()

    def estimate(h, geom, cfg):
        est = real(h, geom, cfg)
        stages = [stage_of(next(counter)) for _ in est.errors]
        errors = tuple(EstimationStageError(stage, ValueError("boom")) if stage else err
                       for stage, err in zip(stages, est.errors))
        return dataclasses.replace(est, errors=errors)

    monkeypatch.setattr(campaign_mod, "estimate_batch", estimate)


def test_campaign_aborts_on_failures(monkeypatch):
    _failing_estimator(monkeypatch, lambda i: "music")
    with pytest.raises(RuntimeError, match="aborting"):
        run_campaign(_campaign_cfg(trials=4))


def test_campaign_abort_names_point_and_stages(monkeypatch):
    # point 0 (trials 0-7) is clean; point 1 fails 6 of 8 trials
    _failing_estimator(monkeypatch,
                       lambda i: None if i < 8 else ("music", None, "phase", "phase")[i % 4])
    with pytest.raises(RuntimeError, match=r"SNR point 1 \(10.0 dB\).*music: 2, phase: 4"):
        run_campaign(_campaign_cfg(trials=8, snr_db=[20.0, 10.0]))


def test_campaign_tolerates_failures_below_the_gate(monkeypatch):
    _failing_estimator(monkeypatch, lambda i: "phase" if i == 33 else None)
    res = run_campaign(_campaign_cfg(trials=40), keep_trials=True)
    failed = [r for r in res.trial_results[0] if r.failed]
    assert [(r.trial, r.stage) for r in failed] == [(33, "phase")]
    fail = [r for r in res.rows if r.metric == "estimator_fail_rate"][0]
    assert fail.value == pytest.approx(1 / 40)
    assert [r.trials for r in res.rows if r.metric.startswith("mse_")] == [39] * 3


def test_trial_results_carry_diagnostics():
    res = run_campaign(_campaign_cfg(trials=2), keep_trials=True)
    for tr in res.trial_results[0]:
        assert tr.stage is None and not tr.failed
        assert tr.theta_sq_err >= 0 and tr.d_mse >= 0 and tr.phi_mse >= 0


def test_phase_error_ignores_wrap_slips_and_common_rotations(monkeypatch):
    # phi_hat = phi up to a 2 pi slip halfway (mean removed) or a common angle
    real_draws, real_estimate = campaign_mod._trial_draws, campaign_mod.estimate_batch
    drawn = []

    def draws(*args):
        out = real_draws(*args)
        drawn.append(out[1])
        return out

    def estimate(h, geom, cfg):
        phi = drawn[-1]
        t = phi.shape[1]
        slipped = phi + 2 * np.pi * (np.arange(t) >= t // 2)
        slipped -= slipped.mean(axis=1, keepdims=True)
        shifted = [slipped, phi + 0.7, phi - 2.9]
        phi_hat = np.stack([shifted[k % 3][k] for k in range(len(phi))])
        return dataclasses.replace(real_estimate(h, geom, cfg), phi_hat=phi_hat)

    monkeypatch.setattr(campaign_mod, "_trial_draws", draws)
    monkeypatch.setattr(campaign_mod, "estimate_batch", estimate)
    res = run_campaign(_campaign_cfg(trials=8), keep_trials=True)
    assert all(abs(tr.phi_mse) <= 1e-12 for tr in res.trial_results[0])


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(monkeypatch, name):
    """perfbench/<name>.py loaded by path, writing no bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve(monkeypatch):
    # the benchmark tracer looks every target up by name; a rename must fail here
    tracing = _load_perfbench(monkeypatch, "tracing")
    for module, name in tracing.TARGETS:
        mod = importlib.import_module(f"asyncsense.{module}")
        assert callable(getattr(mod, name, None)), f"asyncsense.{module}.{name}"
    # the tracer reads hrcrb_theta's mode as its 7th positional argument
    hrcrb = importlib.import_module("asyncsense.bounds").hrcrb_theta
    assert list(inspect.signature(hrcrb).parameters)[6] == "mode"


def test_tracing_reads_the_crb_dimension(tmp_path, monkeypatch, capsys):
    # the tracer takes constrained_crb's positional (fim, basis) and basis.u.shape
    tracing = _load_perfbench(monkeypatch, "tracing")
    m, t = 4, 8
    cfg = tmp_path / "fim.json"
    cfg.write_text(json.dumps(_minimal_dict(m=m, t=t)))
    # taken before install, so the spans inside count as library calls, where
    # the tracer reads the dimension
    fim_main = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request("fim_cli"):
            start = time.perf_counter()
            assert fim_main(["fim", "--config", str(cfg), "--out", str(tmp_path / "f.csv")]) == 0
            wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert cli.constrained_crb is fisher.constrained_crb
    assert tracing.layer_metrics(tracer, [wall])["fisher.dense_dim"] == 1 + 2 * m + 3 * t


def test_benchmark_jobs_run_on_the_library(tmp_path, monkeypatch):
    # every benchmark job, untraced and traced, against this library: a change
    # the benchmark cannot drive fails here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))        # worker.py imports tracing by name
    had_tracing = "tracing" in sys.modules
    try:
        run, worker = _load_perfbench(monkeypatch, "run"), _load_perfbench(monkeypatch, "worker")
    finally:
        if not had_tracing:
            sys.modules.pop("tracing", None)
    run.write_inputs("campaign", 11, str(tmp_path))
    plan = json.loads((tmp_path / "inputs.json").read_text())
    fails = worker.Failures()
    tracer = worker.tracing.Tracer()
    for kind, spec in plan["jobs"].items():
        job = worker.JOBS[kind](str(tmp_path), spec, fails)
        records = [job.request(0)]
        tracer.install()
        try:
            with tracer.request(kind):
                records.append(job.request(0))
        finally:
            tracer.uninstall()
        job.finish(records)
    assert list(fails) == []
    assert len(tracer.roots) == len(plan["jobs"])


def test_tracer_reads_the_music_record(monkeypatch):
    # no benchmark workload calls music_aoa, so its observer runs only here
    tracing = _load_perfbench(monkeypatch, "tracing")
    rng = np.random.default_rng(2)
    noise = CsiBlock(rng.standard_normal((8, 128)) + 1j * rng.standard_normal((8, 128)))
    # a noiseless dynamic path on a grid node is a pole, which refinement skips
    theta = -np.pi / 2 + 1400.5 * np.pi / 2048
    d = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    pole = CsiBlock(np.outer(steering_vector(ArrayGeometry(6), theta), d))
    estimator = importlib.import_module("asyncsense.estimator")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request("music"):
            _, noise_diag = estimator.music_aoa(noise, ArrayGeometry(8))
            _, pole_diag = estimator.music_aoa(pole, ArrayGeometry(6))
    finally:
        tracer.uninstall()
    assert not noise_diag.has_dominant_gap and noise_diag.refined
    assert pole_diag.has_dominant_gap and not pole_diag.refined
    assert tracer.counts["music.calls"] == 2
    assert tracer.counts["music.no_gap"] == 1 and tracer.counts["music.not_refined"] == 1
