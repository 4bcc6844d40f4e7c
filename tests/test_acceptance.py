"""Acceptance gate: every criterion at its stated tolerance, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
as they complete (they are also shown on failure without -s).
"""

import numpy as np

from asyncsense import (ArrayGeometry, CampaignConfig, EstimatorConfig, GainDistribution,
                        ScenarioParams, ahrcrb_cgs, constraint_basis, draw_dynamic_gains,
                        efim_theta_closed, efim_theta_schur, emit_csv, fim_numeric_oracle,
                        finite_t_hrcrb_cgs, joint_fim, psi_block_inverse, reordered_blocks,
                        rho_theta, run_campaign, run_estimator, steering_derivative,
                        steering_vector, sufficiency_check, synthesize_csi,
                        verify_hrcrb_chain)
import asyncsense.campaign as campaign_mod
from asyncsense.fisher import ParamLayout
from asyncsense.ofdm import make_reference_signal

from conftest import random_scenario

CAMPAIGN_SEED = 20240817


def _report(num, name, passed, detail=""):
    line = f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if passed else 'FAIL'} {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_fim_oracle_equivalence():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        geom, params = random_scenario(rng, m_range=(2, 6), t_range=(2, 8))
        closed = joint_fim(geom, params).data
        oracle = fim_numeric_oracle(geom, params).data
        scale = np.max(np.abs(closed))
        # entrywise relative error with an absolute floor at the matrix scale
        err = np.abs(closed - oracle) / (np.abs(closed) + scale)
        worst = max(worst, float(err.max()))
    _report(1, "FIM oracle equivalence", worst < 1e-6,
            f"worst entrywise rel err {worst:.2e} over 50 scenarios")


def test_criterion_2_schur_inverse_consistency():
    rng = np.random.default_rng(1002)
    worst_eq = 0.0
    worst_res = 0.0
    for _ in range(100):
        geom, params = random_scenario(rng, m_range=(3, 6), t_range=(2, 8))
        schur = efim_theta_schur(geom, params)
        closed = efim_theta_closed(geom, params)
        full = reordered_blocks(geom, params).assemble()
        via_inv = 1.0 / np.linalg.inv(full)[0, 0]
        worst_eq = max(worst_eq, abs(schur - closed) / abs(schur),
                       abs(schur - via_inv) / abs(schur))
        ro = reordered_blocks(geom, params)
        for t in range(params.t):
            inv = psi_block_inverse(ro.blocks[t], geom, params, t)
            worst_res = max(worst_res,
                            float(np.max(np.abs(inv @ ro.blocks[t].j_psi - np.eye(3)))))
    _report(2, "Schur/inverse consistency",
            worst_eq < 1e-10 and worst_res < 1e-10,
            f"equalities {worst_eq:.2e}, inverse residual {worst_res:.2e}")


def test_criterion_3_rho_range():
    rng = np.random.default_rng(1003)
    worst_excess = -np.inf
    worst_range = 0.0
    for _ in range(10 ** 4):
        m = int(rng.integers(2, 17))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        h_s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dec = rho_theta(geom, theta, h_s)
        worst_excess = max(worst_excess, (dec.xi - dec.gamma * dec.delta)
                           / (dec.gamma * dec.delta))
        worst_range = max(worst_range, 1.0 - dec.rho, dec.rho - 2.0)
    worst_rho1 = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 17))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        a = steering_vector(geom, theta)
        b = steering_derivative(geom, theta)
        q, _ = np.linalg.qr(np.column_stack([a, b]))
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h -= q @ (q.conj().T @ h)
        worst_rho1 = max(worst_rho1, abs(rho_theta(geom, theta, h).rho - 1.0))
    _report(3, "rho penalty within [1, 2]",
            worst_excess <= 1e-12 and worst_range <= 1e-12 and worst_rho1 <= 1e-10,
            f"Xi excess {worst_excess:.2e}, range violation {worst_range:.2e}, "
            f"|rho-1| at Xi=0 {worst_rho1:.2e}")


def test_criterion_4_constraint_basis():
    worst_gram = 0.0
    worst_ann = 0.0
    for t in (2, 3, 8, 64):
        basis = constraint_basis(4, t)
        u = basis.u
        worst_gram = max(worst_gram, float(np.max(np.abs(u.T @ u - np.eye(u.shape[1])))))
        lay = ParamLayout(4, t)
        for block in (lay.d_re, lay.d_im, lay.phi):
            g = np.zeros(u.shape[0])
            g[block] = 1.0
            worst_ann = max(worst_ann, float(np.max(np.abs(g @ u))))
    lay4 = ParamLayout(2, 4)
    u_sub = constraint_basis(2, 4).u[lay4.d_re, 1 + 4: 1 + 4 + 3]
    expected = np.array([-5 / 6, 1 / 6, 1 / 6, 1 / 2])
    hand = float(np.max(np.abs(u_sub[:, 0] - expected)))
    _report(4, "constraint basis",
            worst_gram < 1e-12 and worst_ann < 1e-12 and hand == 0.0,
            f"gram {worst_gram:.2e}, annihilation {worst_ann:.2e}, hand column {hand:.2e}")


def test_criterion_5_hrcrb_chain():
    geom = ArrayGeometry(4)
    rep = verify_hrcrb_chain(geom, t=4, dist=GainDistribution(1.0), sigma2=1.0,
                             trials=10 ** 4, seed=1005, scenarios=20)
    ok = (rep.max_floor_violation <= 1e-10 and rep.max_jensen_violation <= 1e-10
          and rep.scalar_jensen_violation <= 1e-10 and rep.max_schur_rel_error <= 1e-9
          and rep.draws == 10 ** 4)
    _report(5, "HRCRB inequality chain", ok,
            f"floor {rep.max_floor_violation:.2e}, jensen {rep.max_jensen_violation:.2e}, "
            f"schur {rep.max_schur_rel_error:.2e} over {rep.draws} draws")


def test_criterion_6_ahrcrb_convergence(reference_scenario):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    dist = GainDistribution(p_d)
    closed = ahrcrb_cgs(geom, theta, h_s, sigma2, p_d).value
    ft = finite_t_hrcrb_cgs(geom, theta, h_s, sigma2, 512, dist, trials=10 ** 4, seed=5)
    ref_gap = abs(ft.value - closed) / closed

    geom4 = ArrayGeometry(4)
    h4 = np.array([1, -1, 1, -1], dtype=complex)
    hand_closed = ahrcrb_cgs(geom4, 0.0, h4, 1.0, 1.0).value
    hand_err = abs(hand_closed - 0.75)
    hand_mc = finite_t_hrcrb_cgs(geom4, 0.0, h4, 1.0, 512, GainDistribution(1.0),
                                 trials=10 ** 4, seed=6)
    hand_gap = abs(hand_mc.value - 0.75) / 0.75

    _report(6, "AHRCRB convergence",
            ref_gap < 0.02 and hand_err < 1e-12 and hand_gap < 0.02,
            f"reference gap {ref_gap:.4%}, hand value err {hand_err:.1e}, "
            f"hand MC gap {hand_gap:.4%}")


def test_criterion_7_estimator_vs_bounds():
    cfg = CampaignConfig(m=8, t=128, snr_db=[0.0, 10.0, 20.0], trials=10 ** 4,
                         seed=CAMPAIGN_SEED)
    res = run_campaign(cfg)
    vals = {(r.snr_db, r.metric): (r.value, r.stderr) for r in res.rows}
    ok = True
    details = []
    for snr in cfg.snr_db:
        mt, st = vals[(snr, "mse_theta")]
        md, sd = vals[(snr, "mse_d")]
        ht = vals[(snr, "hrcrb_theta")][0]
        ad = vals[(snr, "ahrcrb_d")][0]
        ok &= mt >= ht - 3 * st
        ok &= md >= ad - 3 * sd
        ok &= vals[(snr, "estimator_fail_rate")][0] <= 0.05
        details.append(f"{snr:g}dB theta x{mt / ht:.2f} d x{md / ad:.4f}")

    # noiseless recovery: theta on a grid node -> full 1e-10 recovery of phi, d;
    # off-grid theta still lands within one refined grid step
    geom = ArrayGeometry(8)
    rng = np.random.default_rng(1007)
    ecfg = EstimatorConfig()
    step = np.pi / ecfg.grid_points
    theta_on = -np.pi / 2 + (1200 + 0.5) * step
    h_s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    d = draw_dynamic_gains(128, GainDistribution(1.0), rng, constrained=True)
    phi = rng.normal(0, 0.4, 128).cumsum()
    phi -= phi.mean()
    blk = synthesize_csi(geom, ScenarioParams(theta_on, h_s, d, phi, 0.0), rng)
    est = run_estimator(blk, geom, ecfg)
    rec_ok = (abs(est.theta_hat - theta_on) <= step
              and np.max(np.abs(est.phi_hat - phi)) < 1e-10
              and np.max(np.abs(est.d_hat - d)) < 1e-10)
    blk_off = synthesize_csi(geom, ScenarioParams(0.3317, h_s, d, phi, 0.0), rng)
    est_off = run_estimator(blk_off, geom, ecfg)
    rec_ok &= abs(est_off.theta_hat - 0.3317) <= step

    _report(7, "estimator vs bounds", ok and rec_ok,
            "; ".join(details) + f"; noiseless recovery ok={rec_ok}")


def test_criterion_8_sufficiency():
    # whiteness of the LS estimation noise
    m_r, m_t, n, k, sigma2, trials = 2, 2, 4, 2, 1.0, 10 ** 4
    ref = make_reference_signal(m_t, n, k, seed=1008)
    rng = np.random.default_rng(1009)
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((trials, k, m_r, n)) + 1j * rng.standard_normal((trials, k, m_r, n))
    )
    h_hat = noise @ np.swapaxes(ref.x.conj(), 1, 2)[None]
    vec = h_hat.reshape(trials, -1)
    cov = vec.conj().T @ vec / trials
    diag = np.diag(cov).real
    var_err = abs(diag.mean() - sigma2) / sigma2
    off = np.max(np.abs(cov - np.diag(np.diag(cov)))) / sigma2
    off_limit = 5 / np.sqrt(trials)

    rep = sufficiency_check(m_r, m_t, n, k, sigma2=0.8, trials=10 ** 4, seed=1010)
    ratio_err = abs(rep.ratio - 1.0)

    _report(8, "sufficiency of LS CSI",
            var_err < 0.02 and off < off_limit and ratio_err < 0.05,
            f"variance err {var_err:.3%}, max off-diag corr {off:.4f} "
            f"(limit {off_limit:.4f}), MSE ratio err {ratio_err:.2e}")


def test_criterion_9_reproducibility(tmp_path, monkeypatch):
    # 50 trials: a partial last chunk at chunk sizes 7 and the default
    cfg = CampaignConfig(m=8, t=64, snr_db=[10.0], trials=50, seed=CAMPAIGN_SEED,
                         finite_t=True, finite_t_trials=300)
    default_chunk = campaign_mod.CHUNK_TRIALS
    paths = []
    for i, chunk in enumerate((default_chunk, default_chunk, 1, 7)):
        monkeypatch.setattr(campaign_mod, "CHUNK_TRIALS", chunk)
        p = tmp_path / f"run{i}.csv"
        emit_csv(run_campaign(cfg).rows, str(p))
        paths.append(p.read_bytes())
    _report(9, "byte-identical reproducibility",
            paths[0] == paths[1] == paths[2] == paths[3],
            f"{len(paths[0])} bytes, rerun and chunk sizes 1 and 7 identical")
