import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsense import (ArrayGeometry, CampaignConfig, CsiBlock, GainDistribution,
                        ScenarioParams, draw_dynamic_gains, steering_vector, synthesize_csi)
from asyncsense.array_model import _steering_pair, gains_from_normals, synthesize_batch
from asyncsense.campaign import _trial_draws, resolve_h_s, sigma2_from_snr_db
from asyncsense.estimator import (GRID_POINTS, _aoa_grid, _beamspace, _gains, _phase_offsets,
                                 estimate_batch)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(1)
    with pytest.raises(ValueError):
        ArrayGeometry(4, spacing=0.0)
    assert ArrayGeometry(4).spacing == 0.5


def test_steering_broadside_is_all_ones():
    a = steering_vector(ArrayGeometry(4), 0.0)
    np.testing.assert_allclose(a, np.ones(4), atol=1e-15)


def test_steering_endfire_limit_two_elements():
    # theta -> pi/2: second entry -> exp(j*pi) = -1
    a = steering_vector(ArrayGeometry(2), np.pi / 2 - 1e-9)
    np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-6)


def test_steering_direct_evaluation_m8():
    geom = ArrayGeometry(8)
    a = steering_vector(geom, 0.3)
    assert abs(np.vdot(a, a).real - 8.0) < 1e-12
    for m in (0, 3, 7):
        expected = cmath.exp(1j * 2 * cmath.pi * 0.5 * m * cmath.sin(0.3))
        assert abs(a[m] - expected) < 1e-14


def test_steering_domain_error():
    geom = ArrayGeometry(4)
    for theta in (np.pi / 2, -np.pi / 2, 2.0, -3.0):
        with pytest.raises(ValueError):
            steering_vector(geom, theta)
        with pytest.raises(ValueError):
            _steering_pair(geom, theta)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 16), theta=st.floats(-1.5, 1.5))
def test_steering_norm_is_m(m, theta):
    a = steering_vector(ArrayGeometry(m), theta)
    assert abs(np.vdot(a, a).real - m) < 1e-12 * m


def test_estimator_manifold_is_steering_vector():
    # MUSIC's scan grid and the beamspace split read the one steering-vector
    # implementation, bit for bit, batched or one angle at a time
    points = GRID_POINTS
    for m, spacing in ((8, 0.5), (5, 0.3), (3, 0.7)):
        geom = ArrayGeometry(m, spacing)
        grid, manifold, table = _aoa_grid(m, spacing)
        assert manifold.shape == (points, m) and table.shape == (2 * (m - 1), points)
        np.testing.assert_array_equal(manifold, steering_vector(geom, grid))
        np.testing.assert_array_equal(table[:m - 1], manifold[:, 1:].real.T)
        np.testing.assert_array_equal(table[m - 1:], -manifold[:, 1:].imag.T)
        for i in (0, 1, points // 3, points - 1):
            np.testing.assert_array_equal(manifold[i], steering_vector(geom, grid[i]))
            np.testing.assert_array_equal(manifold[i], steering_vector(geom, float(grid[i])))
        thetas = np.array([-1.4, -0.2, 0.0, 0.35, 1.4])
        a_unit, _ = _beamspace(thetas, geom)
        for k, theta in enumerate(thetas):
            a = steering_vector(geom, float(theta))
            np.testing.assert_array_equal(a_unit[k], a / np.linalg.norm(a))


def test_derivative_broadside():
    b = _steering_pair(ArrayGeometry(4), 0.0)[1]
    np.testing.assert_allclose(b, 1j * np.pi * np.arange(4), atol=1e-15)


def test_derivative_first_entry_zero():
    assert _steering_pair(ArrayGeometry(2), 0.0)[1][0] == 0


def test_derivative_matches_finite_difference():
    # independent oracle: central differences of the steering vector itself
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    for theta in rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 100):
        fd = (steering_vector(geom, theta + h) - steering_vector(geom, theta - h)) / (2 * h)
        b = _steering_pair(geom, theta)[1]
        worst = max(worst, np.max(np.abs(fd - b)) / max(np.max(np.abs(b)), 1.0))
    assert worst < 1e-6


def _assert_zero_sum(d, phi=None):
    """Each row sums to zero: |sum d| <= 1e-9 sqrt(T) rms(d) and |sum phi| <= 1e-9."""
    rms = np.sqrt(np.mean(np.abs(d) ** 2, axis=-1))
    bound = 1e-9 * np.sqrt(d.shape[-1]) * np.maximum(rms, np.finfo(float).tiny)
    assert np.all(np.abs(d.sum(axis=-1)) <= bound)
    if phi is not None:
        assert np.all(np.abs(phi.sum(axis=-1)) <= 1e-9)


def test_zero_sum_constraints_hold_where_enforced():
    # the campaign's trial draws, the constrained gain draw and the estimator's
    # phase and gain estimates each remove the mean of their rows
    cfg = CampaignConfig(m=6, t=32, snr_db=[10.0], trials=8, seed=7)
    d, phi, noise = _trial_draws(cfg, 0, range(8))
    _assert_zero_sum(d, phi)
    for t, seed in ((2, 0), (5, 1), (128, 2)):
        _assert_zero_sum(draw_dynamic_gains(t, GainDistribution(1.7), seed, constrained=True))

    geom = ArrayGeometry(cfg.m, cfg.spacing)
    sigma2 = sigma2_from_snr_db(cfg.snr_db[0], cfg.p_d, cfg.m)
    csi = synthesize_batch(geom, cfg.theta_d, resolve_h_s(cfg), d, phi, sigma2, noise)
    est = estimate_batch(csi, geom)
    assert est.errors == (None,) * 8
    _assert_zero_sum(est.d_hat, est.phi_hat)


def test_project_constraints_constant_gains():
    # constant gains d = 2 + 1j (scale sqrt(p_d / 2) = 1) project to zero
    constant = gains_from_normals(np.array([[2.0] * 4, [1.0] * 4]), GainDistribution(2.0),
                                  constrained=True)
    np.testing.assert_allclose(constant, 0, atol=1e-15)


def test_project_constraints_idempotent_and_preserving():
    # the constrained draw is the unconstrained draw of the same stream with only
    # its mean removed, and removing the mean again changes nothing
    z = np.random.default_rng(1).standard_normal((3, 2, 5))
    dist = GainDistribution(0.7)
    free = gains_from_normals(z, dist)
    q = gains_from_normals(z, dist, constrained=True)
    np.testing.assert_allclose(q, free - free.mean(axis=-1, keepdims=True), atol=1e-15)
    np.testing.assert_allclose(q - q.mean(axis=-1, keepdims=True), q, atol=1e-15)
    z4 = np.random.default_rng(4).standard_normal((2, 5))
    np.testing.assert_array_equal(draw_dynamic_gains(5, dist, 4, constrained=True),
                                  gains_from_normals(z4, dist, constrained=True))
    _assert_zero_sum(q)


def test_project_constraints_hand_value():
    # the estimator's phase and gain steps remove the mean by hand:
    # [1, 2, 3] -> [-1, 0, 1]
    h = np.zeros((1, 2, 3), dtype=complex)
    h[0, 0] = np.exp(1j * np.array([1.0, 2.0, 3.0]))
    phi, degenerate = _phase_offsets(h, np.array([[[1.0], [0.0]]]))
    np.testing.assert_allclose(phi, [[-1.0, 0.0, 1.0]], atol=1e-15)
    assert not degenerate[0]
    d_hat = _gains(np.array([[[1.0, 2.0, 3.0]]]), np.ones((1, 1)), np.zeros((1, 3)))
    np.testing.assert_allclose(d_hat, [[-1.0, 0.0, 1.0]], atol=1e-15)


def test_gain_power_law_of_large_numbers():
    d = draw_dynamic_gains(10 ** 6, GainDistribution(2.5), seed=3)
    assert abs(np.mean(np.abs(d) ** 2) - 2.5) / 2.5 < 0.01


def test_gain_circular_symmetry():
    # E[d^2] (unconjugated) = 0; real/imag parts each have std p_d/sqrt(n)
    n, p_d = 10 ** 6, 1.7
    d = draw_dynamic_gains(n, GainDistribution(p_d), seed=4)
    second = np.mean(d ** 2)
    bound = 3 * p_d / np.sqrt(n)
    assert abs(second.real) < bound and abs(second.imag) < bound


def test_gain_constrained_zero_sum():
    d = draw_dynamic_gains(64, GainDistribution(1.0), seed=5, constrained=True)
    assert abs(d.sum()) < 1e-12


def test_gain_validation_and_determinism():
    with pytest.raises(ValueError):
        draw_dynamic_gains(1, GainDistribution(1.0), seed=0)
    with pytest.raises(ValueError):
        GainDistribution(0.0)
    a = draw_dynamic_gains(8, GainDistribution(1.0), seed=11)
    b = draw_dynamic_gains(8, GainDistribution(1.0), seed=11)
    np.testing.assert_array_equal(a, b)


def _scenario(m=3, t=4, sigma2=0.0, h_s=None, d=None, phi=None, theta=0.25):
    h_s = np.zeros(m) if h_s is None else h_s
    d = np.zeros(t) if d is None else d
    phi = np.zeros(t) if phi is None else phi
    return ScenarioParams(theta, h_s, d, phi, sigma2)


def test_synthesize_noiseless_static_only():
    h_s = np.array([1 + 1j, 0.5, -0.2j])
    p = _scenario(h_s=h_s)
    csi = synthesize_csi(ArrayGeometry(3), p, seed=0)
    for t in range(4):
        np.testing.assert_allclose(csi.data[:, t], h_s, atol=1e-15)


def test_synthesize_noiseless_dynamic_only():
    geom = ArrayGeometry(3)
    d = np.array([0.3 + 0.1j, -0.2j, 0.1, 0.4])
    p = _scenario(d=d)
    csi = synthesize_csi(geom, p, seed=0)
    a = steering_vector(geom, 0.25)
    np.testing.assert_allclose(csi.data, np.outer(a, d), atol=1e-15)


def test_synthesize_noise_variance():
    # per-real-component convention: complex entries have variance 2*sigma2
    sigma2 = 0.8
    geom = ArrayGeometry(4)
    p = _scenario(m=4, t=25, sigma2=sigma2)
    samples = np.concatenate([
        synthesize_csi(geom, p, seed=s).data.ravel() for s in range(1000)
    ])
    assert samples.size == 10 ** 5
    emp = np.mean(np.abs(samples) ** 2)
    assert abs(emp - 2 * sigma2) / (2 * sigma2) < 0.02


def test_synthesize_noise_covariance_white():
    sigma2 = 0.5
    geom = ArrayGeometry(4)
    p = _scenario(m=4, t=500, sigma2=sigma2)
    cols = np.concatenate([synthesize_csi(geom, p, seed=s).data for s in range(50)], axis=1)
    cov = cols @ cols.conj().T / cols.shape[1]
    n = cols.shape[1]
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 5 * (2 * sigma2) / np.sqrt(n)


def test_synthesize_seed_determinism():
    geom = ArrayGeometry(3)
    p = _scenario(sigma2=1.0)
    a = synthesize_csi(geom, p, seed=7).data
    b = synthesize_csi(geom, p, seed=7).data
    c = synthesize_csi(geom, p, seed=8).data
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioParams(2.0, np.ones(3), np.zeros(4), np.zeros(4), 1.0)   # theta range
    with pytest.raises(ValueError):
        ScenarioParams(0.0, np.ones(3), np.zeros(4), np.zeros(3), 1.0)   # T mismatch
    with pytest.raises(ValueError):
        ScenarioParams(0.0, np.ones(3), np.zeros(4), np.zeros(4), -1.0)  # sigma2
    with pytest.raises(ValueError):
        ScenarioParams(0.0, np.array([np.nan, 0, 0]), np.zeros(4), np.zeros(4), 1.0)


def test_csi_block_shape():
    with pytest.raises(ValueError):
        CsiBlock(np.zeros(3))
    blk = CsiBlock(np.zeros((3, 5)))
    assert blk.data.shape == (3, 5) and blk.data.dtype == complex
