import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from asyncsense import (ArrayGeometry, BoundReport, ChainCheckReport, CollinearityError,
                        GainDistribution, ScenarioParams, ahrcrb_cgs, finite_t_hrcrb_cgs,
                        hrcrb_theta, reordered_blocks, rho_theta, steering_vector,
                        verify_hrcrb_chain)
import asyncsense.bounds as bounds_mod
from asyncsense.array_model import _steering_pair, gains_from_normals
from asyncsense.bounds import _cgs_trace_draws, _separated_h_s
from asyncsense.campaign import RHO_BLOCK, check_rho_range, random_scenario
from asyncsense.fisher import _efim_theta, _reordered, steering_geometry


def _orthogonal_h(geom, theta, rng, span_b=True):
    a = steering_vector(geom, theta)
    cols = [a, _steering_pair(geom, theta)[1]] if span_b else [a]
    q, _ = np.linalg.qr(np.column_stack(cols))
    h = rng.standard_normal(geom.m) + 1j * rng.standard_normal(geom.m)
    h -= q @ (q.conj().T @ h)
    return h


def test_rho_is_one_for_orthogonal_static_channel():
    rng = np.random.default_rng(0)
    for m in (3, 5, 9, 16):
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.2, 1.2))
        dec = rho_theta(geom, theta, _orthogonal_h(geom, theta, rng))
        assert abs(dec.rho - 1.0) < 1e-10
        assert dec.xi < 1e-12 * dec.gamma * dec.delta


def test_rho_is_always_between_one_and_two():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        m = int(rng.integers(2, 17))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        h_s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dec = rho_theta(geom, theta, h_s)
        assert dec.xi <= dec.gamma * dec.delta * (1 + 1e-12)
        assert 1.0 - 1e-12 <= dec.rho <= 2.0 + 1e-12


def test_rho_binet_cauchy_wedge_identity():
    # Gamma equals |vec(a b^T - b a^T)|^2 / 2 (and likewise for Delta), and
    # Xi = |<vec(a h_s^T - h_s a^T), vec(b a^T - a b^T)>|^2 / 4
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(2, 12))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        h_s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dec = rho_theta(geom, theta, h_s)
        a = steering_vector(geom, theta)
        b = _steering_pair(geom, theta)[1]
        lam_ab = (np.outer(a, b) - np.outer(b, a)).ravel()
        lam_ah = (np.outer(a, h_s) - np.outer(h_s, a)).ravel()
        assert dec.gamma == pytest.approx(0.5 * np.vdot(lam_ab, lam_ab).real, rel=1e-12)
        assert dec.delta == pytest.approx(0.5 * np.vdot(lam_ah, lam_ah).real, rel=1e-12)
        xi_wedge = 0.25 * abs(np.vdot(lam_ah, -lam_ab)) ** 2
        # Xi may vanish, so the floor is at rounding level of Gamma Delta
        assert abs(dec.xi - xi_wedge) <= 1e-10 * max(dec.xi, xi_wedge,
                                                     1e-14 * dec.gamma * dec.delta)


def test_rho_range_check_equals_the_per_draw_evaluation(monkeypatch):
    # grouping by M and blocking neither skips nor changes any draw's value
    import asyncsense.campaign as campaign_mod
    trials = RHO_BLOCK + 300
    rng = np.random.default_rng(31)
    blocks = [(rng.integers(2, 17, n), rng.uniform(-1.4, 1.4, n), rng.standard_normal((n, 2, 16)))
              for n in (RHO_BLOCK, 300)]
    draws = [np.concatenate(part) for part in zip(*blocks)]
    worst = 0.0
    for m, theta, z in zip(*draws):
        dec = rho_theta(ArrayGeometry(int(m)), float(theta), z[0, :m] + 1j * z[1, :m])
        gd = dec.gamma * dec.delta
        worst = max(worst, (dec.xi - gd) / gd, 1.0 - dec.rho, dec.rho - 2.0)
    for _ in range(max(10, trials // 100)):
        m = int(rng.integers(3, 17))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        worst = max(worst, abs(rho_theta(geom, theta, _orthogonal_h(geom, theta, rng)).rho - 1))
    seen = []

    def recording(geom, theta, h_s):
        if np.ndim(theta):
            seen.extend(zip(theta, map(complex, h_s[:, 0])))
        return rho_theta(geom, theta, h_s)

    monkeypatch.setattr(campaign_mod, "rho_theta", recording)
    check = check_rho_range(trials, 31)
    assert check.passed and check.threshold == 1e-12
    assert check.worst == worst
    assert sorted(seen) == sorted(zip(draws[1], draws[2][:, 0, 0] + 1j * draws[2][:, 1, 0]))


def test_rho_collinear_raises():
    geom = ArrayGeometry(4)
    a = steering_vector(geom, 0.5)
    with pytest.raises(CollinearityError):
        rho_theta(geom, 0.5, 1.7 * a)


def test_hrcrb_closed_form_equals_rho_expression():
    rng = np.random.default_rng(3)
    geom = ArrayGeometry(6)
    theta = 0.4
    h_s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    dist = GainDistribution(1.3)
    rep = hrcrb_theta(geom, theta, h_s, sigma2=0.7, t=32, dist=dist)
    dec = rho_theta(geom, theta, h_s)
    expected = dec.rho * 0.7 * 6 / (32 * 1.3 * dec.gamma)
    assert rep.value == pytest.approx(expected, rel=1e-12)
    assert rep.method == "closed-form" and rep.mc_stderr is None


def test_hrcrb_orthogonal_floor():
    rng = np.random.default_rng(4)
    geom = ArrayGeometry(5)
    theta = -0.3
    h_s = _orthogonal_h(geom, theta, rng)
    dec = rho_theta(geom, theta, h_s)
    rep = hrcrb_theta(geom, theta, h_s, sigma2=1.1, t=16, dist=GainDistribution(2.0))
    assert rep.value == pytest.approx(1.1 * 5 / (16 * 2.0 * dec.gamma), rel=1e-10)


def test_hrcrb_halves_when_t_doubles():
    rng = np.random.default_rng(5)
    geom = ArrayGeometry(4)
    h_s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dist = GainDistribution(1.0)
    r1 = hrcrb_theta(geom, 0.2, h_s, 1.0, 8, dist).value
    r2 = hrcrb_theta(geom, 0.2, h_s, 1.0, 16, dist).value
    assert r1 == pytest.approx(2 * r2, rel=1e-12)


def test_hrcrb_monte_carlo_validates_closed_form():
    # the closed-form expectation is never trusted untested: 20 random scenarios
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(3, 7))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.0, 1.0))
        h_s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dist = GainDistribution(float(rng.uniform(0.5, 2.0)))
        t = int(rng.integers(4, 16))
        closed = hrcrb_theta(geom, theta, h_s, 0.9, t, dist).value
        mc = hrcrb_theta(geom, theta, h_s, 0.9, t, dist, mode="monte-carlo",
                         trials=20000, seed=rng)
        assert abs(mc.value - closed) < 3 * mc.mc_stderr
        assert mc.discard_rate <= 1e-3


def test_monte_carlo_bounds_do_not_depend_on_chunk_size(reference_scenario, monkeypatch):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    dist, t = GainDistribution(p_d), 24

    def both():
        return (hrcrb_theta(geom, theta, h_s, sigma2, t, dist, mode="monte-carlo",
                            trials=1001, seed=11),
                finite_t_hrcrb_cgs(geom, theta, h_s, sigma2, t, dist, trials=1001, seed=12))

    reports = []
    for elements in (1, 7 * t, bounds_mod._CHUNK_ELEMENTS):
        monkeypatch.setattr(bounds_mod, "_CHUNK_ELEMENTS", elements)
        reports.append(both())
    assert reports[0] == reports[1] == reports[2]
    for rep in reports[0]:
        assert type(rep.value) is float and type(rep.mc_stderr) is float
        assert rep.mc_trials == 1001 and rep.mc_stderr > 0


def test_hrcrb_monte_carlo_draws_real_then_imaginary_parts(reference_scenario):
    # the stream is that of drawing Re d and then Im d as two (trials, T) arrays
    geom, theta, h_s, sigma2, p_d = reference_scenario
    dist = GainDistribution(p_d)
    for t, trials, seed in ((16, 3000, 0), (128, 700, 21), (3, 50000, 4)):
        rng = np.random.default_rng(seed)
        re, im = rng.standard_normal((trials, t)), rng.standard_normal((trials, t))
        info = _efim_theta(steering_geometry(geom, theta, h_s), np.sqrt(p_d / 2.0)
                           * (re + 1j * im), sigma2)
        kept = info[info > 0]
        mean = math.fsum(kept) / kept.size
        stderr = float(np.std(kept, ddof=1)) / math.sqrt(kept.size)
        mc = hrcrb_theta(geom, theta, h_s, sigma2, t, dist, mode="monte-carlo",
                         trials=trials, seed=seed)
        assert mc.value == 1.0 / mean
        assert mc.mc_stderr == stderr / mean ** 2
        assert mc.mc_trials == kept.size


def test_separated_h_s_redraws_from_one_stream():
    # the static-channel redraw shared by random_scenario and verify_hrcrb_chain:
    # CN(0, I) draws, Re then Im, until Delta exceeds the margin
    geom = ArrayGeometry(3)
    redraws = 0
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        h_s, g = _separated_h_s(rng, geom, 0.4, 0.5)
        while True:
            want = (ref.standard_normal(3) + 1j * ref.standard_normal(3)) / np.sqrt(2)
            g_want = steering_geometry(geom, 0.4, want)
            if g_want.delta > 0.5 * g_want.scale:
                break
            redraws += 1
        np.testing.assert_array_equal(h_s, want)
        assert g.delta == g_want.delta and g.delta > 0.5 * g.scale
        assert rng.standard_normal() == ref.standard_normal()
    assert redraws > 0


def test_hrcrb_validation():
    geom = ArrayGeometry(4)
    h = np.array([1, 1j, -1, 2.0])
    with pytest.raises(ValueError):
        hrcrb_theta(geom, 0.1, h, 1.0, 0, GainDistribution(1.0))
    with pytest.raises(ValueError):
        hrcrb_theta(geom, 0.1, h, 1.0, 4, GainDistribution(1.0), mode="bogus")


def test_ahrcrb_hand_value():
    # M=4, sigma2=1, P_d=1, |h_s|^2=4, a^H h_s=0 -> 2/4 + (1/4)*16/16 = 0.75
    geom = ArrayGeometry(4)
    h_s = np.array([1, -1, 1, -1], dtype=complex)
    rep = ahrcrb_cgs(geom, 0.0, h_s, 1.0, 1.0)
    assert rep.value == pytest.approx(0.75, abs=1e-12)


def test_ahrcrb_orthogonal_reduction():
    # a^H h_s = 0 collapses to 2 sigma2/M + sigma2 p_d / |h_s|^2
    rng = np.random.default_rng(7)
    geom = ArrayGeometry(6)
    theta = 0.2
    h_s = _orthogonal_h(geom, theta, rng, span_b=False)
    sigma2, p_d = 0.8, 1.7
    rep = ahrcrb_cgs(geom, theta, h_s, sigma2, p_d)
    expected = 2 * sigma2 / 6 + sigma2 * p_d / np.vdot(h_s, h_s).real
    assert rep.value == pytest.approx(expected, rel=1e-12)


def test_ahrcrb_diverges_near_collinearity():
    geom = ArrayGeometry(4)
    a = steering_vector(geom, 0.3)
    perp = np.array([1.0, -1.0, 1.0, -1.0]) * np.exp(1j * 2 * np.pi * 0.5
                                                     * np.arange(4) * np.sin(0.3))
    small = ahrcrb_cgs(geom, 0.3, a + 1e-3 * perp, 1.0, 1.0).value
    tiny = ahrcrb_cgs(geom, 0.3, a + 1e-5 * perp, 1.0, 1.0).value
    assert tiny > 1e3 * small / 1e4 and tiny > small * 100
    with pytest.raises(CollinearityError):
        ahrcrb_cgs(geom, 0.3, a, 1.0, 1.0)


def test_finite_t_is_seed_deterministic_and_reports_stderr():
    geom = ArrayGeometry(4)
    h_s = np.array([1, -1, 1, -1], dtype=complex)
    dist = GainDistribution(1.0)
    a = finite_t_hrcrb_cgs(geom, 0.0, h_s, 1.0, 2, dist, trials=500, seed=3)
    b = finite_t_hrcrb_cgs(geom, 0.0, h_s, 1.0, 2, dist, trials=500, seed=3)
    assert a.value == b.value and a.mc_stderr == b.mc_stderr
    assert a.method == "monte-carlo" and a.mc_stderr > 0
    assert a.discard_rate <= 1e-3


def test_finite_t_decreases_toward_asymptote(reference_scenario):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    dist = GainDistribution(p_d)
    asym = ahrcrb_cgs(geom, theta, h_s, sigma2, p_d).value
    values = [finite_t_hrcrb_cgs(geom, theta, h_s, sigma2, t, dist, trials=4000, seed=9).value
              for t in (16, 64, 256)]
    assert values[0] > values[1] > values[2] > asym
    assert values[2] / asym < 1.02


@pytest.mark.parametrize("bound", ["hrcrb_theta", "ahrcrb_cgs", "finite_t_hrcrb_cgs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bounds_reject_non_finite_sigma2(reference_scenario, bound, bad):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    dist = GainDistribution(p_d)
    calls = {
        "hrcrb_theta": lambda s2: hrcrb_theta(geom, theta, h_s, s2, 8, dist),
        "ahrcrb_cgs": lambda s2: ahrcrb_cgs(geom, theta, h_s, s2, p_d),
        "finite_t_hrcrb_cgs": lambda s2: finite_t_hrcrb_cgs(geom, theta, h_s, s2, 8, dist,
                                                            trials=10, seed=0),
    }
    with pytest.raises(ValueError):
        calls[bound](bad)
    if bound == "ahrcrb_cgs":
        with pytest.raises(ValueError):
            ahrcrb_cgs(geom, theta, h_s, sigma2, bad)


def _dense_inverse_trace(geom, params):
    """mean_t Tr([J^-1]_{psi_t psi_t, 1:2}) of the dense reordered FIM J, and whether J > 0.

    [J^-1]_{psi_t psi_t} is the inverse of the EFIM of psi_t, with theta_d and every
    other snapshot eliminated, so no leave-one-out algebra is needed.
    """
    full = reordered_blocks(geom, params).assemble()
    try:
        np.linalg.cholesky(full)
    except np.linalg.LinAlgError:
        return None, False
    diag = np.diagonal(np.linalg.inv(full))[1:].reshape(params.t, 3)
    return float(np.mean(diag[:, 0] + diag[:, 1])), True


@pytest.mark.parametrize("t", [2, 3, 8, 32])
def test_cgs_trace_closed_form_matches_the_per_block_efim(t):
    rng = np.random.default_rng(100 + t)
    for _ in range(25):
        geom, params = random_scenario(rng, m_range=(2, 12), t_range=(t, t))
        g = steering_geometry(geom, params.theta_d, params.h_s).checked()
        d = np.stack([params.d, rng.uniform(0.05, 3.0) * params.d[::-1]])
        values, valid = _cgs_trace_draws(g, params.sigma2, d)
        for row, value, ok in zip(d, values, valid):
            want, pd = _dense_inverse_trace(geom, ScenarioParams(
                params.theta_d, params.h_s, row, params.phi_o, params.sigma2))
            assert ok == pd
            if pd:
                assert value == pytest.approx(want, rel=1e-10)


def test_cgs_trace_flags_zero_gains_invalid(reference_scenario):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    g = steering_geometry(geom, theta, h_s).checked()
    rng = np.random.default_rng(12)
    d = np.stack([rng.standard_normal(6) + 1j * rng.standard_normal(6), np.zeros(6)])
    values, valid = _cgs_trace_draws(g, sigma2, d)
    assert valid.tolist() == [True, False]
    assert np.all(np.isfinite(values))


def _cgs_trace_mpmath(a, b, h_s, d, sigma2, dps=50):
    """The leave-one-out definition of the per-snapshot trace, in dps-digit arithmetic."""
    with mpmath.workdps(dps):
        a, b, h_s, d = ([mpmath.mpc(complex(z)) for z in v] for v in (a, b, h_s, d))
        m, s2 = len(a), mpmath.mpf(sigma2)
        ab = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b))
        ah = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, h_s))
        bh = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(b, h_s))
        j_psi, v = [], []
        for dt in d:
            chi = ah + m * dt
            q = mpmath.fsum(abs(h + x * dt) ** 2 for h, x in zip(h_s, a))
            j_psi.append(mpmath.matrix([[m, 0, -chi.imag], [0, m, chi.real],
                                        [-chi.imag, chi.real, q]]) / s2)
            v.append(mpmath.matrix([[(ab * dt).real, (ab * dt).imag,
                                     -(mpmath.conj(ab) * abs(dt) ** 2
                                       + bh * mpmath.conj(dt)).imag]]) / s2)
        j_tt = mpmath.fsum(abs(x) ** 2 for x in b) * mpmath.fsum(abs(x) ** 2 for x in d) / s2
        corr = [(vt * mpmath.inverse(jp) * vt.T)[0, 0] for vt, jp in zip(v, j_psi)]
        traces = []
        for t, (vt, jp) in enumerate(zip(v, j_psi)):
            loo = j_tt - mpmath.fsum(corr) + corr[t]
            inv = mpmath.inverse(jp - vt.T * vt / loo)
            traces.append(inv[0, 0] + inv[1, 1])
        return float(mpmath.fsum(traces) / len(traces))


def test_cgs_trace_near_collinear_matches_mpmath():
    # theta = 0 makes a exactly all-ones, so a^H a = M holds in both arithmetics
    geom = ArrayGeometry(6)
    rng = np.random.default_rng(13)
    a = steering_vector(geom, 0.0)
    e = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    e -= a * np.vdot(a, e) / 6
    e /= np.linalg.norm(e)
    h_s = 0.7 * a + np.sqrt(3e-9 * 0.49 * 6) * e
    g = steering_geometry(geom, 0.0, h_s).checked()
    assert 2e-9 < g.delta / g.scale < 4e-9
    d = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    values, valid = _cgs_trace_draws(g, 0.4, d)
    want = _cgs_trace_mpmath(g.a, g.b, h_s, d[0], 0.4)
    assert valid[0]
    assert abs(values[0] - want) <= 1e-12 * want


def test_hrcrb_monte_carlo_memory_stays_chunked():
    # 20000 trials x T=128: the two normal draws are 41 MB, the chunk temporaries a few MB
    geom = ArrayGeometry(8)
    rng = np.random.default_rng(14)
    h_s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    tracemalloc.start()
    try:
        hrcrb_theta(geom, 0.35, h_s, 0.1, 128, GainDistribution(1.0), "monte-carlo",
                    trials=20000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_verify_hrcrb_chain_clean(reference_scenario):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    rep = verify_hrcrb_chain(geom, t=4, dist=GainDistribution(p_d), sigma2=1.0,
                             trials=2000, seed=0, scenarios=10)
    assert rep.max_floor_violation <= 1e-10
    assert rep.max_jensen_violation <= 1e-10
    assert rep.max_schur_rel_error <= 1e-9
    assert rep.draws == 2000


def test_verify_hrcrb_chain_spreads_the_remainder(reference_scenario):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    rep = verify_hrcrb_chain(geom, t=3, dist=GainDistribution(p_d), sigma2=1.0,
                             trials=2001, seed=0, scenarios=20)
    assert rep.draws == 2001
    assert rep.scenarios == 20
    assert rep.max_floor_violation <= 1e-10
    assert rep.max_jensen_violation <= 1e-10


def _chain_oracle(geom, t, dist, sigma2, trials, seed, scenarios):
    """verify_hrcrb_chain with one reordered_blocks(...).assemble() per gain draw."""
    rng = np.random.default_rng(seed)
    draws_per, extra = divmod(trials, scenarios)
    dim = 1 + 3 * t
    max_floor = max_jensen = -np.inf
    max_schur = 0.0
    total_draws = 0
    for k in range(scenarios):
        draws = draws_per + (k < extra)
        theta = rng.uniform(-1.2, 1.2)
        while True:
            h_s = (rng.standard_normal(geom.m) + 1j * rng.standard_normal(geom.m)) / np.sqrt(2)
            g = steering_geometry(geom, theta, h_s)
            if g.delta > 1e-3 * g.scale:
                break
        js = np.empty((draws, dim, dim))
        for i in range(draws):
            d = np.sqrt(dist.p_d / 2.0) * (rng.standard_normal(t) + 1j * rng.standard_normal(t))
            params = ScenarioParams(theta, h_s, d, np.zeros(t), sigma2)
            js[i] = reordered_blocks(geom, params).assemble()
        total_draws += draws

        j_mean = js.mean(axis=0)
        inv_mean = np.linalg.inv(js).mean(axis=0)
        mid = np.linalg.inv(j_mean)[0, 0]
        floor = 1.0 / j_mean[0, 0]
        jensen_rhs = inv_mean[0, 0]
        schur_rhs = 1.0 / (
            j_mean[0, 0] - j_mean[0, 1:] @ np.linalg.solve(j_mean[1:, 1:], j_mean[1:, 0])
        )
        max_floor = max(max_floor, (floor - mid) / abs(mid))
        max_jensen = max(max_jensen, (mid - jensen_rhs) / abs(jensen_rhs))
        max_schur = max(max_schur, abs(mid - schur_rhs) / abs(schur_rhs))
    return ChainCheckReport(scenarios, total_draws, float(max_floor), float(max_jensen),
                            float(max_schur))


@pytest.mark.parametrize("t, trials, scenarios", [(2, 203, 4), (3, 400, 8), (4, 301, 6),
                                                  (8, 157, 5)])
def test_verify_hrcrb_chain_matches_the_per_draw_oracle(reference_scenario, t, trials,
                                                        scenarios):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    args = (geom, t, GainDistribution(p_d), 1.0, trials, 42 + t, scenarios)
    got, want = verify_hrcrb_chain(*args), _chain_oracle(*args)
    assert (got.draws, got.scenarios) == (want.draws, want.scenarios) == (trials, scenarios)
    for field in ("max_floor_violation", "max_jensen_violation", "max_schur_rel_error"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field


def test_batched_gain_draw_matches_interleaved_per_draw_draws():
    dist = GainDistribution(1.7)
    one, per = np.random.default_rng(5), np.random.default_rng(5)
    batched = gains_from_normals(one.standard_normal((9, 2, 6)), dist)
    looped = np.stack([np.sqrt(dist.p_d / 2.0) * (per.standard_normal(6)
                                                   + 1j * per.standard_normal(6))
                       for _ in range(9)])
    np.testing.assert_array_equal(batched.view(np.int64), looped.view(np.int64))
    assert one.standard_normal() == per.standard_normal()


def test_reordered_batch_equals_the_stack_of_single_scenarios(reference_scenario):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    g = steering_geometry(geom, theta, h_s)
    rng = np.random.default_rng(6)
    d = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    batch = _reordered(g, h_s, d, sigma2)
    singles = [_reordered(g, h_s, row, sigma2) for row in d]
    for field in ("j_theta_theta", "j_psi", "j_theta_psi"):
        want = np.stack([getattr(s, field) for s in singles])
        np.testing.assert_allclose(getattr(batch, field), want, rtol=1e-15,
                                   atol=1e-15 * np.max(np.abs(want)))
    full = batch.assemble()
    assert full.shape == (7, 16, 16)
    np.testing.assert_allclose(full, np.stack([s.assemble() for s in singles]), rtol=1e-15,
                               atol=1e-15 * np.max(np.abs(full)))


def test_bound_report_invariants():
    with pytest.raises(ValueError):
        BoundReport(1.0, "monte-carlo")                     # missing stderr/trials
    with pytest.raises(ValueError):
        BoundReport(1.0, "closed-form", mc_trials=5, mc_stderr=0.1)
    with pytest.raises(ValueError):
        BoundReport(1.0, "guesswork")
