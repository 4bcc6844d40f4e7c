"""Acceptance gate: every criterion at its stated tolerance, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
as they complete (they are also shown on failure without -s).
"""

import numpy as np

from asyncsense import (ArrayGeometry, CampaignConfig, GainDistribution,
                        ScenarioParams, ahrcrb_cgs, draw_dynamic_gains, emit_csv,
                        finite_t_hrcrb_cgs, run_campaign, run_estimator, sufficiency_check,
                        synthesize_csi)
import asyncsense.campaign as campaign_mod
from asyncsense.estimator import GRID_POINTS
from asyncsense.ofdm import make_reference_signal

CAMPAIGN_SEED = 20240817


def _report(num, name, passed, detail=""):
    line = f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if passed else 'FAIL'} {detail}"
    print(line, flush=True)
    assert passed, line


def _report_check(num, name, check, detail=""):
    _report(num, name, check.passed,
            f"{detail}worst {check.worst:.2e} (limit {check.threshold:.0e})")


def test_criterion_1_fim_oracle_equivalence():
    # entrywise relative error with an absolute floor at the matrix scale
    _report_check(1, "FIM oracle equivalence", campaign_mod.check_fim_oracle(50, 1001),
                  "50 scenarios, ")


def test_criterion_2_schur_inverse_consistency():
    _report_check(2, "Schur/inverse consistency",
                  campaign_mod.check_schur_consistency(100, 1002), "100 scenarios, ")


def test_criterion_3_rho_range():
    # 10**4 random draws, then 100 with h_s orthogonal to span{a, b}; at this
    # seed the Xi excess and the rho range stay within 1e-12
    check = campaign_mod.check_rho_range(10 ** 4, 1003)
    _report(3, "rho penalty within [1, 2]", check.passed and check.worst <= 1e-12,
            f"worst {check.worst:.2e} (limit 1e-12)")


def test_criterion_4_constraint_basis():
    _report_check(4, "constraint basis", campaign_mod.check_constraint_basis())


def test_criterion_5_hrcrb_chain():
    # M=4, T=4, 10**4 draws over 20 scenarios
    orderings, schur = campaign_mod.check_hrcrb_chain(10 ** 4, 1005)
    _report(5, "HRCRB inequality chain", orderings.passed and schur.passed,
            f"orderings {orderings.worst:.2e}, schur {schur.worst:.2e}")


def test_criterion_6_ahrcrb_convergence(reference_scenario):
    geom, theta, h_s, sigma2, p_d = reference_scenario
    dist = GainDistribution(p_d)
    closed = ahrcrb_cgs(geom, theta, h_s, sigma2, p_d).value
    ft = finite_t_hrcrb_cgs(geom, theta, h_s, sigma2, 512, dist)
    ref_gap = abs(ft.value - closed) / closed

    geom4 = ArrayGeometry(4)
    h4 = np.array([1, -1, 1, -1], dtype=complex)
    hand_closed = ahrcrb_cgs(geom4, 0.0, h4, 1.0, 1.0).value
    hand_err = abs(hand_closed - 0.75)
    hand_ft = finite_t_hrcrb_cgs(geom4, 0.0, h4, 1.0, 512, GainDistribution(1.0))
    hand_gap = abs(hand_ft.value - 0.75) / 0.75

    _report(6, "AHRCRB convergence",
            ref_gap < 0.02 and hand_err < 1e-12 and hand_gap < 0.02,
            f"reference gap {ref_gap:.4%}, hand value err {hand_err:.1e}, "
            f"hand finite-T gap {hand_gap:.4%}")


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
    step = np.pi / GRID_POINTS
    theta_on = -np.pi / 2 + (1200 + 0.5) * step
    h_s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    d = draw_dynamic_gains(128, GainDistribution(1.0), rng, constrained=True)
    phi = rng.normal(0, 0.4, 128).cumsum()
    phi -= phi.mean()
    blk = synthesize_csi(geom, ScenarioParams(theta_on, h_s, d, phi, 0.0), rng)
    est = run_estimator(blk, geom)
    rec_ok = (abs(est.theta_hat - theta_on) <= step
              and np.max(np.abs(est.phi_hat - phi)) < 1e-10
              and np.max(np.abs(est.d_hat - d)) < 1e-10)
    blk_off = synthesize_csi(geom, ScenarioParams(0.3317, h_s, d, phi, 0.0), rng)
    est_off = run_estimator(blk_off, geom)
    rec_ok &= abs(est_off.theta_hat - 0.3317) <= step

    _report(7, "estimator vs bounds", ok and rec_ok,
            "; ".join(details) + f"; noiseless recovery ok={rec_ok}")


def test_criterion_8_sufficiency():
    # whiteness of the LS estimation noise
    m_r, m_t, n, k, sigma2, trials = 2, 2, 4, 2, 1.0, 10 ** 4
    x = make_reference_signal(m_t, n, k, seed=1008)
    rng = np.random.default_rng(1009)
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((trials, k, m_r, n)) + 1j * rng.standard_normal((trials, k, m_r, n))
    )
    h_hat = noise @ np.swapaxes(x.conj(), 1, 2)[None]
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
