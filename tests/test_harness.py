import csv
import dataclasses
import importlib.util
import inspect
import itertools
import json
import math
import pathlib
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asyncsense import (CampaignConfig, ConfigError, HsSpec, ResultRow, emit_config, emit_csv,
                        parse_config, parse_results_csv, read_csi_csv, run_campaign,
                        sigma2_from_snr_db, write_csi_csv, write_matrix_csv)
from asyncsense.csvio import read_matrix_csv
import asyncsense.campaign as campaign_mod
from asyncsense import cli, csvio, fisher
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


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"m": 4, "t": 16, "snr_db": [10.0], "trials": 3, "bogus_key": 1}')
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(str(path))
    # removed fields: the worker-thread knob, the verify trial count, the
    # output path (--out covers it), the two-path estimator's fixed design and
    # its fixed angle grid
    for key, value in (("threads", 2), ("verify_trials", 40), ("out", "x.csv"),
                       ("source_count", 2), ("refine", True), ("grid_points", 512)):
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


# one slot per numeric field and list of numbers, integer fields first; "X" marks it
_INT_FIELDS = ("m", "t", "trials", "seed", "finite_t_trials", "mc_bound_trials")
_NUMBER_SLOTS = [
    *((name, _minimal_dict(**{name: "X"}))
      for name in _INT_FIELDS + ("spacing", "p_d", "theta_d", "phi_walk_std")),
    ("snr_db", _minimal_dict(snr_db=[0.0, "X"])),
    ("h_s.power", _minimal_dict(h_s={"mode": "random", "power": "X"})),
    ("h_s.re", _minimal_dict(h_s={"mode": "fixed", "re": [1, "X", 0, 0], "im": [0] * 4})),
    ("h_s.im", _minimal_dict(h_s={"mode": "fixed", "re": [1] * 4, "im": [0, 0, 0, "X"]})),
]


@pytest.mark.parametrize("value", [True, False, "10"], ids=["true", "false", "string"])
@pytest.mark.parametrize("name,raw", _NUMBER_SLOTS, ids=[name for name, _ in _NUMBER_SLOTS])
def test_parse_config_refuses_booleans_and_strings_as_numbers(tmp_path, name, raw, value):
    # float() would read true as 1.0 and "10" as 10.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw).replace('"X"', json.dumps(value)))
    with pytest.raises(ConfigError, match=f"field '{name}'"):
        parse_config(str(path))


@pytest.mark.parametrize("name,raw", _NUMBER_SLOTS[len(_INT_FIELDS):],
                         ids=[name for name, _ in _NUMBER_SLOTS[len(_INT_FIELDS):]])
def test_parse_config_refuses_a_real_beyond_the_float_range(tmp_path, name, raw):
    # a 400-digit JSON integer is a config error, not an OverflowError in float()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw).replace('"X"', "1" + "0" * 400))
    with pytest.raises(ConfigError, match=f"field '{name}'"):
        parse_config(str(path))


def test_parse_config_reports_json_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"m": 4,\n  "t": }')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(path))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/cfg.json")


def test_parse_config_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"m": 4, "t": 8, "note": "\xff"}')
    with pytest.raises(ConfigError, match=re.escape(f"config file {path} is not UTF-8 text")):
        parse_config(str(path))


def test_config_h_s_fixed_length_check():
    with pytest.raises(ConfigError, match="h_s"):
        CampaignConfig(**_minimal_dict(h_s=HsSpec(mode="fixed", re=[1, 2], im=[0, 0])))


@pytest.mark.parametrize("h_s, named", [
    ({"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}, "im, re"),
    ({"mode": "random", "re": [1, 0, 0, 0]}, "re"),
    ({"mode": "fixed", "re": [1, 0, 0, 0], "im": [0, 0, 0, 0], "power": 2.0}, "power")],
    ids=["vector-without-mode", "vector-under-random", "power-under-fixed"])
def test_parse_config_refuses_h_s_keys_of_the_other_mode(tmp_path, h_s, named):
    # a key the chosen (or default) mode never reads would otherwise pass unused
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal_dict(h_s=h_s)))
    mode = h_s.get("mode", "random")
    with pytest.raises(ConfigError, match=f"field 'h_s': mode '{mode}' does not use {named}$"):
        parse_config(str(path))


@pytest.mark.parametrize("snr", [4000.0, -4000.0, -3100.0],
                         ids=["overflow", "zero-division", "infinite-sigma2"])
def test_parse_config_refuses_an_snr_without_a_finite_positive_sigma2(tmp_path, snr):
    # 10^(snr/10) overflows, underflows to 0, or is subnormal so that p_d M / 10^(snr/10) is inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal_dict(snr_db=[10.0, snr])))
    with pytest.raises(ConfigError, match=f"field 'snr_db': {snr:g} dB gives no finite "
                                          "positive noise variance"):
        parse_config(str(path))
    for edge in (3000.0, -3000.0):     # sigma2 is 4e-300 and 4e300
        path.write_text(json.dumps(_minimal_dict(snr_db=[edge])))
        assert parse_config(str(path)).snr_db == (edge,)


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


def _mirror_upper(a):
    # the upper triangle and its bitwise mirror: every NaN keeps its payload
    return np.where(np.tri(len(a), dtype=bool, k=-1), a.T, a)


_SYMMETRIC = _mirror_upper(np.resize(
    [0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 0.1, 1.0 / 3.0,
     -0.0, 2.5], (6, 6)))
np.fill_diagonal(_SYMMETRIC, [0.0, -0.0, 0.0, -0.0, np.nan, -1e300])
_ZERO_SIGN_PAIR = _SYMMETRIC.copy()
_ZERO_SIGN_PAIR[1, 4], _ZERO_SIGN_PAIR[4, 1] = 0.0, -0.0
_ULP_PAIR = _SYMMETRIC.copy()
_ULP_PAIR[2, 4], _ULP_PAIR[4, 2] = np.nextafter(0.1, 1.0), 0.1
_RANDOM = np.random.default_rng(19).standard_normal((300, 300))
SYMMETRIC_MATRICES = {
    "symmetric": _SYMMETRIC,
    "symmetric float32": _mirror_upper(np.arange(-12, 13, dtype=np.float32).reshape(5, 5) / 7),
    "300x300 plus transpose": _RANDOM + _RANDOM.T,
    "bool": EDGE_MATRICES["bool"],
    "1x1": EDGE_MATRICES["1x1"],
}
EDGE_MATRICES.update(SYMMETRIC_MATRICES, **{"zero-sign pair": _ZERO_SIGN_PAIR,
                                            "one-ulp pair": _ULP_PAIR, "0x0": np.zeros((0, 0))})


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_matrix_csv_bytes_match_the_csv_writer(tmp_path, name):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_matrix_csv(EDGE_MATRICES[name], str(new))
    _csv_writer_oracle(EDGE_MATRICES[name], str(old))
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_matrix_csv_formats_only_bitwise_mirrors_from_the_upper_triangle(tmp_path, monkeypatch,
                                                                         name):
    calls = []
    real = csvio._write_symmetric
    monkeypatch.setattr(csvio, "_write_symmetric", lambda *args: calls.append(real(*args)))
    write_matrix_csv(EDGE_MATRICES[name], str(tmp_path / "m.csv"))
    assert len(calls) == (name in SYMMETRIC_MATRICES)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.lists(st.floats(width=64), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_symmetric_matrix_csv_bytes_match_the_csv_writer(tmp_path_factory, n, values, seed):
    # few distinct values, zeros among them, up to five blocks of rows
    pool = np.array(values + [0.0])
    matrix = _mirror_upper(pool[np.random.default_rng(seed).integers(len(pool), size=(n, n))])
    new, old = tmp_path_factory.mktemp("sym") / "new.csv", tmp_path_factory.mktemp("sym") / "o.csv"
    write_matrix_csv(matrix, str(new))
    _csv_writer_oracle(matrix, str(old))
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


@pytest.mark.parametrize("text, match", [
    ("snr,metric,value,stderr,trials,seed\n", "unexpected header"),
    (",".join(csvio.RESULT_HEADER) + "\n10,mse_d,0.5,,7\n", "malformed row"),
])
def test_parse_results_csv_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        parse_results_csv(str(path))


def test_read_csi_csv_rejects_an_odd_column_count(tmp_path):
    path = tmp_path / "csi.csv"
    path.write_text("1,0,2\n3,0,4\n")
    with pytest.raises(ValueError, match="even column count"):
        read_csi_csv(str(path))


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
    base = dict(m=6, t=32, snr_db=[10.0], trials=8, seed=7)
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


def test_campaign_helper_count_invariance(tmp_path, monkeypatch):
    # 50 trials at three points: a partial last chunk at every point.  Three
    # helpers outnumber the cores, and a short switch interval makes the threads
    # interleave often, so a chunk claimed twice or never would show.
    cfg = _campaign_cfg(trials=50, snr_db=[0.0, 10.0, 20.0])
    blobs, trials = [], []
    switch = sys.getswitchinterval()
    for helpers in (0, 1, 3):
        monkeypatch.setattr(campaign_mod, "CHUNK_HELPERS", helpers)
        sys.setswitchinterval(1e-5)
        try:
            res = run_campaign(cfg, keep_trials=True)
        finally:
            sys.setswitchinterval(switch)
        path = tmp_path / f"helpers{helpers}.csv"
        emit_csv(res.rows, str(path))
        blobs.append(path.read_bytes())
        trials.append(res.trial_results)
    assert blobs[0] == blobs[1] == blobs[2]
    assert trials[0] == trials[1] == trials[2]


def test_campaign_raises_a_helper_chunk_error(monkeypatch):
    real = campaign_mod._run_chunk
    helper_claimed = threading.Event()

    def run_chunk(*args):
        if threading.current_thread() is not threading.main_thread():
            helper_claimed.set()
            raise ValueError("raised in a helper")
        assert helper_claimed.wait(timeout=10)     # leaves the helper a chunk to claim
        return real(*args)

    monkeypatch.setattr(campaign_mod, "CHUNK_HELPERS", 1)
    monkeypatch.setattr(campaign_mod, "_run_chunk", run_chunk)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="raised in a helper"):
        run_campaign(_campaign_cfg(trials=8, snr_db=[0.0, 10.0, 20.0]))
    assert threading.active_count() == threads


def test_campaign_raises_the_lowest_failing_chunk_whatever_the_timing(monkeypatch):
    # chunks 1 and 3 of 6 raise; chunk 1 raises last, after chunk 3 has
    real = campaign_mod._run_chunk

    def run_chunk(cfg, h_s, point, trials):
        chunk = 2 * point + trials.start // 4
        if chunk == 1:
            time.sleep(0.2)
        if chunk in (1, 3):
            raise ValueError(f"chunk {chunk} failed")
        return real(cfg, h_s, point, trials)

    monkeypatch.setattr(campaign_mod, "CHUNK_TRIALS", 4)
    monkeypatch.setattr(campaign_mod, "_run_chunk", run_chunk)
    for helpers in (0, 3):
        monkeypatch.setattr(campaign_mod, "CHUNK_HELPERS", helpers)
        with pytest.raises(ValueError, match="chunk 1 failed"):
            run_campaign(_campaign_cfg(trials=8, snr_db=[0.0, 10.0, 20.0]))


def _recording_bounds(monkeypatch):
    """Record each bound Monte Carlo's BoundReport under its seed's spawn key."""
    reports = {}
    for name in ("hrcrb_theta", "finite_t_hrcrb_cgs"):
        def record(*args, _real=getattr(campaign_mod, name), **kwargs):
            rep = _real(*args, **kwargs)
            if rep.method == "monte-carlo":
                reports[kwargs["seed"].spawn_key] = rep
            return rep

        monkeypatch.setattr(campaign_mod, name, record)
    return reports


def _counting_thread_starts(monkeypatch) -> list:
    """The names of the threads started while the test runs."""
    started, real_start = [], threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize("mode", ["bounds-only", "estimator"])
def test_campaign_bound_tasks_do_not_depend_on_the_helper_count(mode, tmp_path, monkeypatch):
    # the one bound Monte Carlo (bounds-only, on stream (2, 0)) runs on the task
    # queue: same bytes, same report and no thread left behind at any helper count,
    # with the threads interleaving often.  A bounds-only campaign is that one
    # task, so it starts no helper at all.
    cfg = _campaign_cfg(trials=40, snr_db=[0.0, 10.0, 20.0], mode=mode, finite_t=True,
                        mc_bound_trials=2000)
    blobs, reports = [], []
    recorded = _recording_bounds(monkeypatch)
    started = _counting_thread_starts(monkeypatch)
    switch = sys.getswitchinterval()
    for helpers in (0, 1, 3):
        monkeypatch.setattr(campaign_mod, "CHUNK_HELPERS", helpers)
        recorded.clear()
        started.clear()
        threads = threading.active_count()
        sys.setswitchinterval(1e-5)
        try:
            rows = run_campaign(cfg).rows
        finally:
            sys.setswitchinterval(switch)
        assert threading.active_count() == threads
        assert len(started) == (0 if mode == "bounds-only" else helpers)
        path = tmp_path / f"helpers{helpers}.csv"
        emit_csv(rows, str(path))
        blobs.append(path.read_bytes())
        reports.append(dict(recorded))
    assert blobs[0] == blobs[1] == blobs[2]
    assert reports[0] == reports[1] == reports[2]
    assert set(reports[0]) == ({(2, 0)} if mode == "bounds-only" else set())


@pytest.mark.parametrize("mode", ["bounds-only", "estimator"])
def test_campaign_raises_a_bound_error_before_any_chunk_runs(mode, monkeypatch):
    # the finite-T bound runs inline before the task list, and a bounds-only
    # campaign's one task is its Monte Carlo: either error reaches the caller at
    # any helper count, with no chunk run and no thread started
    name = "hrcrb_theta" if mode == "bounds-only" else "finite_t_hrcrb_cgs"
    real = getattr(campaign_mod, name)

    def failing(*args, **kwargs):
        if name == "finite_t_hrcrb_cgs" or kwargs.get("mode") == "monte-carlo":
            raise ValueError(f"{name} failed")
        return real(*args, **kwargs)

    def run_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(campaign_mod, name, failing)
    monkeypatch.setattr(campaign_mod, "_run_chunk", run_chunk)
    started = _counting_thread_starts(monkeypatch)
    cfg = _campaign_cfg(trials=8, snr_db=[0.0, 10.0, 20.0], mode=mode, finite_t=True,
                        mc_bound_trials=500)
    for helpers in (0, 3):
        monkeypatch.setattr(campaign_mod, "CHUNK_HELPERS", helpers)
        with pytest.raises(ValueError, match=f"{name} failed"):
            run_campaign(cfg)
    assert started == []


def test_campaign_gain_expectation_rows_are_proportional_to_sigma2():
    # hrcrb_theta_mc and finite_t_hrcrb_d are sigma2 times a sigma2-free number,
    # each evaluated once at point 0's sigma2: point 0's rows are those bounds at
    # its sigma2 bit for bit, and the other points' rows scale with theirs
    cfg = _campaign_cfg(mode="bounds-only", snr_db=[3.0, 0.0, 10.0, 20.0], finite_t=True,
                        mc_bound_trials=500)
    rows = run_campaign(cfg).rows
    geom, h_s = ArrayGeometry(cfg.m), campaign_mod.resolve_h_s(cfg)
    dist = campaign_mod.GainDistribution(cfg.p_d)
    sigma2 = {snr: sigma2_from_snr_db(snr, cfg.p_d, cfg.m) for snr in cfg.snr_db}
    s0 = sigma2[3.0]
    mc = campaign_mod.hrcrb_theta(geom, cfg.theta_d, h_s, s0, cfg.t, dist, mode="monte-carlo",
                                  trials=500, seed=campaign_mod._stream(cfg.seed, 2, 0))
    ft = campaign_mod.finite_t_hrcrb_cgs(geom, cfg.theta_d, h_s, s0, cfg.t, dist)
    for metric, rep in (("hrcrb_theta_mc", mc), ("finite_t_hrcrb_d", ft)):
        by_snr = {r.snr_db: r for r in rows if r.metric == metric}
        assert list(by_snr) == list(cfg.snr_db)
        assert (by_snr[3.0].value, by_snr[3.0].stderr) == (rep.value, rep.mc_stderr)
        for snr, row in by_snr.items():
            assert abs(row.value / sigma2[snr] - rep.value / s0) <= 4e-16 * rep.value / s0
            assert row.trials == (rep.mc_trials or 0)
            if rep.mc_stderr is not None:
                assert row.stderr == pytest.approx(rep.mc_stderr * sigma2[snr] / s0, rel=4e-16)
    for snr in cfg.snr_db:
        own = campaign_mod.finite_t_hrcrb_cgs(geom, cfg.theta_d, h_s, sigma2[snr], cfg.t, dist)
        row = next(r for r in rows if (r.snr_db, r.metric) == (snr, "finite_t_hrcrb_d"))
        assert row.value == pytest.approx(own.value, rel=1e-14)


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


@settings(max_examples=50, deadline=None)
@given(st.floats(0.2, 2.0), st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True))
def test_grating_lobe_rule_matches_a_dense_beam_scan(spacing, theta_d):
    # an alias is a second peak of |a(theta)^H a(theta_d)| / M at 1 - 1e-6 or above,
    # more than 1/M away in sin(theta); the theta step keeps the scan within 1.1e-7
    # of an alias's peak of 1, and 1e-3 from the rule's boundary an alias just
    # outside (-pi/2, pi/2) peaks below 1 - 2e-5 at the edge of the scan
    assume(abs(spacing - 1.0 / (1.0 + abs(math.sin(theta_d)))) > 1e-3)
    m = 8
    geom = ArrayGeometry(m, spacing)
    theta = np.linspace(-np.pi / 2, np.pi / 2, 100_001)[1:-1]
    beam = np.abs(steering_vector(geom, theta).conj() @ steering_vector(geom, theta_d)) / m
    far = np.abs(np.sin(theta) - math.sin(theta_d)) > 1.0 / m
    cfg = _campaign_cfg(m=m, spacing=spacing, theta_d=theta_d)
    if beam[far].max() > 1.0 - 1e-6:
        with pytest.raises(ConfigError, match="grating-lobe alias"):
            campaign_mod.check_estimator_inputs(cfg)
    else:
        campaign_mod.check_estimator_inputs(cfg)


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
                                      mc_bound_trials=500)).rows
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
    res = run_campaign(_campaign_cfg(trials=5, finite_t=True))
    metrics = {r.metric for r in res.rows}
    assert {"hrcrb_theta", "ahrcrb_d", "finite_t_hrcrb_d", "mse_theta", "mse_d",
            "mse_phi", "estimator_fail_rate"} <= metrics
    fail = [r for r in res.rows if r.metric == "estimator_fail_rate"][0]
    assert fail.value == 0.0


def _failing_estimator(monkeypatch, stage_of):
    """Fail trial k of SNR point p in stage_of(p, k), whichever thread runs its chunk."""
    real_chunk, real_estimate = campaign_mod._run_chunk, campaign_mod.estimate_batch
    running = threading.local()

    def run_chunk(cfg, h_s, point, trials):
        running.point, running.trials = point, trials
        return real_chunk(cfg, h_s, point, trials)

    def estimate(h, geom):
        est = real_estimate(h, geom)
        stages = [stage_of(running.point, trial) for trial in running.trials]
        errors = tuple(EstimationStageError(stage, ValueError("boom")) if stage else err
                       for stage, err in zip(stages, est.errors))
        return dataclasses.replace(est, errors=errors)

    monkeypatch.setattr(campaign_mod, "_run_chunk", run_chunk)
    monkeypatch.setattr(campaign_mod, "estimate_batch", estimate)


def test_campaign_aborts_on_failures(monkeypatch):
    _failing_estimator(monkeypatch, lambda point, trial: "music")
    with pytest.raises(RuntimeError, match="aborting"):
        run_campaign(_campaign_cfg(trials=4))


def test_campaign_abort_names_point_and_stages(monkeypatch):
    # point 0 is clean; point 1 fails 6 of 8 trials
    _failing_estimator(monkeypatch, lambda point, trial: None if point == 0 else
                       ("music", None, "phase", "phase")[trial % 4])
    with pytest.raises(RuntimeError, match=r"SNR point 1 \(10.0 dB\).*music: 2, phase: 4"):
        run_campaign(_campaign_cfg(trials=8, snr_db=[20.0, 10.0]))


def test_campaign_tolerates_failures_below_the_gate(monkeypatch):
    _failing_estimator(monkeypatch, lambda point, trial: "phase" if trial == 33 else None)
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

    def estimate(h, geom):
        phi = drawn[-1]
        t = phi.shape[1]
        slipped = phi + 2 * np.pi * (np.arange(t) >= t // 2)
        slipped -= slipped.mean(axis=1, keepdims=True)
        shifted = [slipped, phi + 0.7, phi - 2.9]
        phi_hat = np.stack([shifted[k % 3][k] for k in range(len(phi))])
        return dataclasses.replace(real_estimate(h, geom), phi_hat=phi_hat)

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
    # signal on (1, -1, 0, ...) and (0, 0, 1, 0, ...) only: a^H P_n a = 6 + cos(pi sin theta)
    # is least at endfire, so the spectrum has no interior maximum, MUSIC takes an
    # end node, and Newton stops on the grid's end, which leaves the block unrefined
    basis = np.zeros((8, 2))
    basis[[0, 1, 2], [0, 0, 1]] = 1, -1, 1
    edge = CsiBlock(basis @ (rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))))
    estimator = importlib.import_module("asyncsense.estimator")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request("music"):
            _, noise_diag = estimator.music_aoa(noise, ArrayGeometry(8))
            _, edge_diag = estimator.music_aoa(edge, ArrayGeometry(8))
    finally:
        tracer.uninstall()
    assert not noise_diag.has_dominant_gap and noise_diag.refined
    assert edge_diag.has_dominant_gap and not edge_diag.refined
    assert tracer.counts["music.calls"] == 2
    assert tracer.counts["music.no_gap"] == 1 and tracer.counts["music.not_refined"] == 1
