import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

from asyncsense import (ArrayGeometry, CampaignConfig, CsiBlock, DegenerateProjectionError,
                        EstimationStageError, GainDistribution, ScenarioParams,
                        ahrcrb_cgs, beamspace_basis, draw_dynamic_gains, estimate_cgs,
                        estimate_phase_offsets, music_aoa, run_campaign, run_estimator,
                        steering_vector, synthesize_csi)
import asyncsense.campaign as campaign_mod
import asyncsense.estimator as estimator_mod
from asyncsense.array_model import synthesize_batch
from asyncsense.campaign import sigma2_from_snr_db
from asyncsense.estimator import GRID_POINTS as GRID, _local_maxima, _select_peaks, estimate_batch

GRID_STEP = np.pi / GRID


def _grid_angle(i):
    return -np.pi / 2 + (i + 0.5) * GRID_STEP


def _phase_walk(rng, t, std=0.4):
    phi = rng.normal(0.0, std, t).cumsum()
    return phi - phi.mean()


def _noiseless_block(geom, theta, h_s, d, phi):
    params = ScenarioParams(theta, h_s, d, phi, 0.0)
    return synthesize_csi(geom, params, seed=0), params


def test_config_validation():
    # a block whose row count is not the geometry's antenna count
    blk = CsiBlock(np.ones((4, 8), dtype=complex))
    for run in (music_aoa, run_estimator):
        with pytest.raises(ValueError, match="CSI has 4 rows but geometry says m=5"):
            run(blk, ArrayGeometry(5))


def test_music_requires_noise_subspace_and_snapshots():
    geom = ArrayGeometry(2)
    blk = CsiBlock(np.ones((2, 8), dtype=complex))
    with pytest.raises(ValueError):
        music_aoa(blk, geom)
    geom3 = ArrayGeometry(3)
    with pytest.raises(ValueError):
        music_aoa(CsiBlock(np.ones((3, 2), dtype=complex)), geom3)


def test_music_pure_dynamic_noiseless():
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(0)
    theta = 0.513
    d = draw_dynamic_gains(32, GainDistribution(1.0), rng)
    blk, _ = _noiseless_block(geom, theta, np.zeros(6), d, _phase_walk(rng, 32))
    theta_hat, diag = music_aoa(blk, geom)
    assert abs(theta_hat - theta) <= GRID_STEP
    assert diag.has_dominant_gap


def test_music_disambiguates_dynamic_peak():
    # noiseless generic static channel: the selected peak is theta_d
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(100):
        m = int(rng.integers(4, 9))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.2, 1.2))
        h_s = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
        t = 48
        d = draw_dynamic_gains(t, GainDistribution(1.0), rng)
        blk, _ = _noiseless_block(geom, theta, h_s, d, _phase_walk(rng, t))
        theta_hat, _ = music_aoa(blk, geom)
        hits += abs(theta_hat - theta) <= GRID_STEP
    assert hits == 100


def test_music_flags_missing_eigen_gap_on_pure_noise():
    geom = ArrayGeometry(8)
    rng = np.random.default_rng(2)
    noise = (rng.standard_normal((8, 128)) + 1j * rng.standard_normal((8, 128)))
    _, diag = music_aoa(CsiBlock(noise), geom)
    assert not diag.has_dominant_gap


def test_music_deterministic():
    geom = ArrayGeometry(5)
    rng = np.random.default_rng(3)
    blk = CsiBlock(rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16)))
    a1, _ = music_aoa(blk, geom)
    a2, _ = music_aoa(CsiBlock(blk.data.copy()), geom)
    assert a1 == a2


def test_beamspace_basis_properties():
    geom = ArrayGeometry(7)
    for theta in (-1.1, 0.0, 0.4, 1.3):
        a_unit, b = beamspace_basis(theta, geom)
        assert np.max(np.abs(b.conj().T @ a_unit)) < 1e-12
        assert np.linalg.norm(b.conj().T @ steering_vector(geom, theta)) < 1e-10
        full = np.column_stack([a_unit, b])
        np.testing.assert_allclose(full @ full.conj().T, np.eye(7), atol=1e-12)


def test_phase_offsets_exact_without_dynamic_path():
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(4)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    phi = _phase_walk(rng, 64)
    blk, _ = _noiseless_block(geom, 0.21, h_s, np.zeros(64), phi)
    _, b = beamspace_basis(0.4, geom)          # any beam works when d = 0
    phi_hat = estimate_phase_offsets(blk, b)
    np.testing.assert_allclose(phi_hat, phi, atol=1e-10)


def test_phase_offsets_dynamic_path_annihilated_at_true_angle():
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(5)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    theta = 0.47
    phi = _phase_walk(rng, 64)
    d = draw_dynamic_gains(64, GainDistribution(1.5), rng)
    blk, _ = _noiseless_block(geom, theta, h_s, d, phi)
    _, b = beamspace_basis(theta, geom)        # exact theta: B^H a(theta) = 0
    phi_hat = estimate_phase_offsets(blk, b)
    np.testing.assert_allclose(phi_hat, phi, atol=1e-10)


def test_phase_offsets_degenerate_projection():
    geom = ArrayGeometry(5)
    theta = 0.3
    a = steering_vector(geom, theta)
    blk, _ = _noiseless_block(geom, theta, 2.0 * a, np.zeros(16), np.zeros(16))
    _, b = beamspace_basis(theta, geom)
    with pytest.raises(DegenerateProjectionError):
        estimate_phase_offsets(blk, b)


def test_phase_error_decreases_with_aperture():
    # fixed sigma2 (the M=8 / 20 dB level), growing array: nullspace SNR grows.
    # The static channel keeps |B^H h_s|^2 = M across M so the comparison is fair.
    sigma2 = 8.0 / 100.0
    rms = []
    theta = 0.35
    for m in (4, 8, 16):
        geom = ArrayGeometry(m)
        rng = np.random.default_rng(100 + m)
        a = steering_vector(geom, theta)
        h_s = np.exp(1j * 0.7 * np.arange(m) ** 2).astype(complex)
        h_s -= a * (np.vdot(a, h_s) / m)
        h_s *= np.sqrt(m) / np.linalg.norm(h_s)
        _, b = beamspace_basis(theta, geom)
        errs = []
        for _ in range(1000):
            t = 128
            phi = _phase_walk(rng, t)
            d = draw_dynamic_gains(t, GainDistribution(1.0), rng, constrained=True)
            params = ScenarioParams(theta, h_s, d, phi, sigma2)
            blk = synthesize_csi(geom, params, rng)
            phi_hat = estimate_phase_offsets(blk, b)
            errs.append(np.mean((phi_hat - phi) ** 2))
        rms.append(np.sqrt(np.mean(errs)))
    assert rms[0] > rms[1] > rms[2]


def test_cgs_exact_recovery_zero_phase():
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(6)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    theta = -0.62
    d = draw_dynamic_gains(32, GainDistribution(1.0), rng, constrained=True)
    blk, _ = _noiseless_block(geom, theta, h_s, d, np.zeros(32))
    a_unit, _ = beamspace_basis(theta, geom)
    d_hat = estimate_cgs(blk, a_unit, np.zeros(32))
    np.testing.assert_allclose(d_hat, d, atol=1e-10)


def test_cgs_exact_recovery_with_known_phases():
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(7)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    theta = 0.18
    phi = _phase_walk(rng, 32)
    d = draw_dynamic_gains(32, GainDistribution(1.0), rng, constrained=True)
    blk, _ = _noiseless_block(geom, theta, h_s, d, phi)
    a_unit, _ = beamspace_basis(theta, geom)
    d_hat = estimate_cgs(blk, a_unit, phi)
    np.testing.assert_allclose(d_hat, d, atol=1e-10)


def test_pipeline_noiseless_on_grid_full_recovery():
    # theta_d on a grid node: f' is at rounding level there, so Newton keeps the
    # node exactly, and the downstream stages recover phi and d to working precision
    geom = ArrayGeometry(8)
    rng = np.random.default_rng(8)
    theta = _grid_angle(1200)
    h_s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    t = 96
    d = draw_dynamic_gains(t, GainDistribution(1.0), rng, constrained=True)
    phi = _phase_walk(rng, t)
    blk, _ = _noiseless_block(geom, theta, h_s, d, phi)
    est = run_estimator(blk, geom)
    assert est.theta_hat == theta
    np.testing.assert_allclose(est.phi_hat, phi, atol=1e-10)
    np.testing.assert_allclose(est.d_hat, d, atol=1e-10)


def test_pipeline_noiseless_off_grid_theta_within_step():
    geom = ArrayGeometry(8)
    rng = np.random.default_rng(9)
    theta = 0.3317
    h_s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    t = 96
    d = draw_dynamic_gains(t, GainDistribution(1.0), rng, constrained=True)
    blk, _ = _noiseless_block(geom, theta, h_s, d, _phase_walk(rng, t))
    est = run_estimator(blk, geom)
    assert abs(est.theta_hat - theta) <= GRID_STEP


def test_pipeline_outputs_are_zero_mean():
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(10)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    params = ScenarioParams(0.4, h_s, draw_dynamic_gains(64, GainDistribution(1.0), rng),
                            _phase_walk(rng, 64), 1.0)
    est = run_estimator(synthesize_csi(geom, params, rng), geom)
    assert abs(est.phi_hat.sum()) < 1e-10
    assert abs(est.d_hat.sum()) < 1e-10


def test_pipeline_deterministic():
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(11)
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    params = ScenarioParams(0.4, h_s, draw_dynamic_gains(64, GainDistribution(1.0), rng),
                            _phase_walk(rng, 64), 0.5)
    blk = synthesize_csi(geom, params, seed=12)
    e1 = run_estimator(blk, geom)
    e2 = run_estimator(CsiBlock(blk.data.copy()), geom)
    assert e1.theta_hat == e2.theta_hat
    np.testing.assert_array_equal(e1.d_hat, e2.d_hat)


def _degenerate_block(geom):
    # static channel exactly in the dynamic beam, no noise: phase stage degenerates
    theta = _grid_angle(900)
    a = steering_vector(geom, theta)
    d = np.full(32, 0.5 + 0.2j) + np.linspace(0, 1, 32) * (0.3 - 0.1j)
    blk, _ = _noiseless_block(geom, theta, 3.0 * a, d - d.mean(), np.zeros(32))
    return blk


def _noisy_stack(geom, rng, n, t=32):
    h_s = rng.standard_normal(geom.m) + 1j * rng.standard_normal(geom.m)
    blocks = []
    for _ in range(n):
        params = ScenarioParams(0.4, h_s, draw_dynamic_gains(t, GainDistribution(1.0), rng),
                                _phase_walk(rng, t), 0.3)
        blocks.append(synthesize_csi(geom, params, rng).data)
    return np.stack(blocks)


def _assert_row_equals_solo(est, k, block, geom):
    solo = run_estimator(CsiBlock(block), geom)
    assert est.errors[k] is None
    assert est.theta_hat[k] == solo.theta_hat
    np.testing.assert_array_equal(est.phi_hat[k], solo.phi_hat)
    np.testing.assert_array_equal(est.d_hat[k], solo.d_hat)
    for f in dataclasses.fields(solo.diagnostics):
        np.testing.assert_array_equal(getattr(est.diagnostics[k], f.name),
                                      getattr(solo.diagnostics, f.name))


def test_pipeline_stage_tagging():
    geom = ArrayGeometry(6)
    with pytest.raises(EstimationStageError) as err:
        run_estimator(_degenerate_block(geom), geom)
    assert err.value.stage == "phase"
    assert isinstance(err.value.original, DegenerateProjectionError)


def test_batch_tags_degenerate_trial_on_its_own_row():
    geom = ArrayGeometry(6)
    stack = _noisy_stack(geom, np.random.default_rng(14), 5)
    stack[2] = _degenerate_block(geom).data
    est = estimate_batch(stack, geom)
    assert est.errors[2].stage == "phase"
    assert np.all(np.isnan(est.d_hat[2])) and np.all(np.isnan(est.phi_hat[2]))
    for k in (0, 1, 3, 4):
        _assert_row_equals_solo(est, k, stack[k], geom)


def test_batch_reruns_stack_per_block_when_lapack_fails(monkeypatch):
    # a stacked eigh that fails as a whole: only the block that caused it is tagged
    real_eigh = np.linalg.eigh

    def eigh(a):
        if not np.all(np.isfinite(a)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a)

    geom = ArrayGeometry(6)
    stack = _noisy_stack(geom, np.random.default_rng(15), 4)
    stack[1, 3, 7] = np.nan
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    est = estimate_batch(stack, geom)
    assert est.errors[1].stage == "music"
    assert isinstance(est.errors[1].original, np.linalg.LinAlgError)
    assert np.isnan(est.diagnostics[1].eigen_gap_ratio) and np.isnan(est.theta_hat[1])
    for k in (0, 2, 3):
        _assert_row_equals_solo(est, k, stack[k], geom)


def test_pipeline_mse_respects_cgs_bound(reference_scenario):
    # single-point bound ordering (the full sweep lives in the acceptance suite)
    geom, theta, h_s, sigma2, p_d = reference_scenario
    t = 128
    dist = GainDistribution(p_d)
    rng = np.random.default_rng(13)
    errs = []
    for _ in range(800):
        d = draw_dynamic_gains(t, dist, rng, constrained=True)
        phi = _phase_walk(rng, t)
        params = ScenarioParams(theta, h_s, d, phi, sigma2)
        est = run_estimator(synthesize_csi(geom, params, rng), geom)
        errs.append(np.mean(np.abs(est.d_hat - d) ** 2))
    mse = np.mean(errs)
    stderr = np.std(errs, ddof=1) / np.sqrt(len(errs))
    bound = ahrcrb_cgs(geom, theta, h_s, sigma2, p_d).value
    assert mse >= bound - 3 * stderr


def _find_peaks_selection(spectrum):
    """The picker's contract built on scipy.signal.find_peaks, one row at a time."""
    index = np.empty((len(spectrum), 2), dtype=int)
    valid = np.zeros((len(spectrum), 2), dtype=bool)
    for k, row in enumerate(spectrum):
        peaks = find_peaks(row)[0].tolist() or [int(np.argmax(row))]
        ranked = sorted(peaks, key=lambda i: (-row[i], i))[:2]
        index[k] = ranked + ranked[:1] * (2 - len(ranked))
        valid[k, :len(ranked)] = True
    return index, valid


@st.composite
def _spectra(draw):
    # small integer alphabets force plateaus and ties; one level gives all-flat rows
    g = draw(st.integers(3, 64))
    alphabet = [float(v) for v in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        alphabet.append(np.nan)
    rows = st.lists(st.sampled_from(alphabet), min_size=g, max_size=g)
    return np.array(draw(st.lists(rows, min_size=1, max_size=5)))


@settings(max_examples=400, deadline=None)
@given(spectrum=_spectra())
def test_peak_picker_matches_find_peaks(spectrum):
    row, col = _local_maxima(spectrum)
    index, valid = _select_peaks(spectrum)
    for k, x in enumerate(spectrum):
        peaks = find_peaks(x)[0]
        assert col[row == k].tolist() == peaks.tolist()
        if peaks.size == 0:
            assert index[k].tolist() == [np.argmax(x)] * 2
            assert valid[k].tolist() == [True, False]
            continue
        # the two largest heights, highest first; equal heights lower index first
        heights = sorted(x[peaks], reverse=True)[:2]
        assert x[index[k, :len(heights)]].tolist() == heights
        assert valid[k].tolist() == [True, peaks.size > 1]
        if peaks.size == 1:
            assert index[k, 1] == index[k, 0]
    want = _find_peaks_selection(spectrum)
    np.testing.assert_array_equal(index, want[0])
    np.testing.assert_array_equal(valid, want[1])


def test_peak_picker_ranks_equal_heights_by_index():
    x = np.zeros((1, 22))
    x[0, [3, 11, 13, 15, 18]] = [3, 3, 3, 1, 2]
    index, valid = _select_peaks(x)
    assert index.tolist() == [[3, 11]] and valid.tolist() == [[True, True]]
    # a plateau's maximum is its middle, rounded down
    x[0, 3:7] = 5
    assert _select_peaks(x)[0].tolist() == [[4, 11]]


def test_peak_picker_matches_find_peaks_on_campaign_spectra(monkeypatch):
    # criterion 7's scenario, one chunk per SNR point
    spectra = []

    def recording(spectrum):
        spectra.append(spectrum.copy())
        return _select_peaks(spectrum)

    monkeypatch.setattr(estimator_mod, "_select_peaks", recording)
    run_campaign(CampaignConfig(m=8, t=128, snr_db=[0.0, 10.0, 20.0], trials=32,
                                seed=20240817))
    assert len(spectra) == 3
    for spectrum in spectra:
        assert spectrum.shape == (32, GRID)
        index, valid = _select_peaks(spectrum)
        want = _find_peaks_selection(spectrum)
        np.testing.assert_array_equal(index, want[0])
        np.testing.assert_array_equal(valid, want[1])


def test_music_finds_a_plateau_peak_at_broadside():
    # real-valued CSI with a broadside dynamic path: the spectrum is symmetric
    # about theta = 0, so the peak is a plateau of two bit-equal central nodes
    rng = np.random.default_rng(3)
    h_s, d = rng.standard_normal(8), rng.standard_normal(64)
    h = h_s[:, None] + np.ones(8)[:, None] * d + 0.1 * rng.standard_normal((8, 64))
    theta_hat, diag = music_aoa(CsiBlock(h), ArrayGeometry(8))
    assert _grid_angle(GRID // 2 - 1) in diag.peak_angles
    assert abs(theta_hat) < 1e-12


def _criterion_7_chunk(snr_db):
    """One 32-block chunk of criterion 7's streams (M=8, T=128) at snr_db, points 0/10/20/40 dB."""
    cfg = CampaignConfig(m=8, t=128, snr_db=[0.0, 10.0, 20.0, 40.0], trials=32, seed=20240817)
    geom, h_s = ArrayGeometry(cfg.m), campaign_mod.resolve_h_s(cfg)
    d, phi, noise = campaign_mod._trial_draws(cfg, cfg.snr_db.index(snr_db), range(cfg.trials))
    return geom, synthesize_batch(geom, cfg.theta_d, h_s, d, phi,
                                  sigma2_from_snr_db(snr_db, cfg.p_d, cfg.m), noise)


def _hermitian(x):
    return x.conj().transpose(0, 2, 1)


def _noise_subspace(csi):
    """E_n (n, M, M-2) of each block's sample covariance, straight from eigh."""
    _, vec = np.linalg.eigh(csi @ _hermitian(csi) / csi.shape[2])
    return vec[:, :, :csi.shape[1] - 2]


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 40.0])
def test_music_scan_polynomial_equals_the_direct_noise_projection(monkeypatch, snr_db):
    geom, csi = _criterion_7_chunk(snr_db)
    spectra = []
    real_select = estimator_mod._select_peaks

    def select(spectrum):
        spectra.append(spectrum.copy())
        return real_select(spectrum)

    monkeypatch.setattr(estimator_mod, "_select_peaks", select)
    estimate_batch(csi, geom)
    grid = _grid_angle(np.arange(GRID))
    direct = np.sum(np.abs(_hermitian(_noise_subspace(csi)) @ steering_vector(geom, grid).T) ** 2,
                    axis=1)
    (spectrum,) = spectra
    assert np.max(np.abs(1.0 / spectrum - direct)) < 1e-12
    for got, want in zip(_select_peaks(spectrum), _select_peaks(1.0 / direct)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("theta", [0.3317, -1.2, 0.9])
def test_pipeline_noiseless_off_grid_full_recovery(theta):
    # criterion 7's noiseless draws: Newton lands on the null of the noise projector
    geom = ArrayGeometry(8)
    rng = np.random.default_rng(1007)
    h_s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    d = draw_dynamic_gains(128, GainDistribution(1.0), rng, constrained=True)
    phi = rng.normal(0, 0.4, 128).cumsum()
    phi -= phi.mean()
    blk, _ = _noiseless_block(geom, theta, h_s, d, phi)
    est = run_estimator(blk, geom)
    assert abs(est.theta_hat - theta) <= 1e-12 and est.diagnostics.refined
    np.testing.assert_allclose(est.phi_hat, phi, rtol=0, atol=1e-10)
    np.testing.assert_allclose(est.d_hat, d, rtol=0, atol=1e-10)


@pytest.mark.parametrize("snr_db", [20.0, 40.0])
def test_newton_finds_the_minimiser_of_the_noise_projection(snr_db):
    # oracle: Brent's bounded search over the chosen node's cell, on f evaluated in
    # extended precision from the same E_n.  The offset is measured from theta_hat,
    # so Brent's relative tolerance sqrt(eps) |x| stays far below 1e-10.
    geom, csi = _criterion_7_chunk(snr_db)
    est = estimate_batch(csi, geom)
    diag = est.diagnostics
    node = diag.peak_angles[np.arange(len(csi)), np.argmax(diag.peak_variances, axis=1)]
    e_n = _noise_subspace(csi).astype(np.clongdouble)
    phase = np.pi * np.arange(geom.m).astype(np.longdouble)
    for k, theta_hat in enumerate(est.theta_hat):
        def f(x):
            a = np.exp(1j * phase * np.sin(np.longdouble(theta_hat) + np.longdouble(x)))
            return float(np.sum(np.abs(e_n[k].conj().T @ a) ** 2))

        cell = (node[k] - GRID_STEP / 2 - theta_hat, node[k] + GRID_STEP / 2 - theta_hat)
        best = minimize_scalar(f, bounds=cell, method="bounded", options={"xatol": 1e-14})
        assert abs(best.x) <= 1e-10, (k, best.x)
    assert diag.refined.all()


@settings(max_examples=80, deadline=None)
@given(m=st.integers(3, 8), t=st.integers(3, 64), last_cell=st.booleans(),
       cell_offset=st.floats(0.01, 0.99), snr_db=st.floats(-10.0, 40.0),
       collinear=st.integers(0, 12), walk=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_estimate_batch_gives_a_tagged_error_or_an_angle_on_the_grid(
        m, t, last_cell, cell_offset, snr_db, collinear, walk, seed):
    # endfire paths, low SNR, near-collinear h_s and fast phase walks: no exception
    # escapes, and no Newton iterate leaves the grid's span for steering_vector's check
    geom = ArrayGeometry(m)
    rng = np.random.default_rng(seed)
    theta = (np.pi / 2 - GRID_STEP if last_cell else -np.pi / 2) + cell_offset * GRID_STEP
    e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h_s = (0.8 - 0.3j) * steering_vector(geom, theta) + 10.0 ** -collinear * e
    d = draw_dynamic_gains(t, GainDistribution(1.0), rng, constrained=True)
    phi = np.stack([_phase_walk(rng, t, walk) for _ in range(3)])
    csi = synthesize_batch(geom, theta, h_s, np.stack([d, -d, 1j * d]), phi,
                           sigma2_from_snr_db(snr_db, 1.0, m),
                           rng.standard_normal((3, 2, m, t)))
    est = estimate_batch(csi, geom)
    for err, theta_hat in zip(est.errors, est.theta_hat):
        if err is not None:
            assert isinstance(err, EstimationStageError)
            assert err.stage in ("music", "beamspace", "phase", "cgs")
        else:
            assert _grid_angle(0) <= theta_hat <= _grid_angle(GRID - 1)
