"""Seeded Monte Carlo orchestration: bounds vs estimator MSE over an SNR grid.

Seed derivation (counter-based, so adding trials or SNR points never perturbs
existing streams):

    SeedSequence(master, spawn_key=(0, point, trial))  per-trial synthesis
    SeedSequence(master, spawn_key=(1, 0))             campaign-level h_s draw
    SeedSequence(master, spawn_key=(2, point))         Monte Carlo AoA bound
    SeedSequence(master, spawn_key=(3, point))         finite-T CGS bound
    SeedSequence(master, spawn_key=(4, 0)), (4, 1)     verification suites (`verify`)
    SeedSequence(master, spawn_key=(5, 0))             noise of a synthesized `estimate` block

Estimator trials run in chunks of CHUNK_TRIALS stacked blocks.  Each trial
draws from its own stream in its own order and the stacked arithmetic is per
trial, and reductions over trials run through math.fsum, so the CSV is
byte-stable for a given (config, seed) whatever the chunk size.

SNR convention: SNR_dB = 10 log10(p_d * M / sigma2), the dynamic-path array
SNR (|a|^2 = M), with sigma2 the per-real-component noise variance.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .array_model import (ArrayGeometry, GainDistribution, ScenarioParams, _steering_pair,
                          gains_from_normals, synthesize_batch)
from .bounds import (_separated_h_s, ahrcrb_cgs, finite_t_hrcrb_cgs, hrcrb_theta, rho_theta,
                     verify_hrcrb_chain)
from .config import CampaignConfig
from .csvio import ResultRow
from .estimator import EstimatorConfig, estimate_batch
from .exceptions import ConfigError
from .fisher import (ParamLayout, constraint_basis, efim_theta_closed,
                     fim_numeric_oracle, joint_fim, psi_block_inverse, reordered_blocks)
from .rng import as_rng

MAX_FAILURE_RATE = 0.05

# Estimator trials stacked per chunk: large enough to amortise per-call
# overhead, small enough that the real (chunk, 2(M-2), grid) MUSIC projection
# stays a few MB.  Results do not depend on it.
CHUNK_TRIALS = 32

# Random draws per batched evaluation in check_rho_range (at most 16 antennas).
RHO_BLOCK = 1024

# Largest accepted probability that an estimator trial's phase walk holds a step
# beyond pi (check_estimator_inputs).
PHASE_WRAP_LIMIT = 1e-6


@dataclass(frozen=True)
class TrialResult:
    trial: int
    theta_sq_err: float
    d_mse: float               # per-snapshot |d_hat - d|^2
    phi_mse: float
    stage: str | None = None   # the estimator stage that failed, or None

    @property
    def failed(self) -> bool:
        return self.stage is not None


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    worst: float
    threshold: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    ok: bool


@dataclass(frozen=True)
class CampaignResult:
    rows: tuple
    trial_results: dict = None


def sigma2_from_snr_db(snr_db: float, p_d: float, m: int) -> float:
    """Invert SNR_dB = 10 log10(p_d * M / sigma2)."""
    return p_d * m / 10.0 ** (snr_db / 10.0)


def _trial_stream(master: int, point: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(0, point, trial))


def _campaign_stream(master: int, kind: int, index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(kind, index))


def resolve_h_s(cfg: CampaignConfig) -> np.ndarray:
    """Campaign-level static channel: fixed vector or one seeded draw per campaign."""
    if cfg.h_s.mode == "fixed":
        return np.array(cfg.h_s.re) + 1j * np.array(cfg.h_s.im)
    rng = np.random.default_rng(_campaign_stream(cfg.seed, 1))
    scale = np.sqrt(cfg.h_s.power / 2.0)
    return scale * (rng.standard_normal(cfg.m) + 1j * rng.standard_normal(cfg.m))


def _trial_draws(cfg: CampaignConfig, point: int, trials: range):
    """Gains d (n, T), phases phi (n, T) and noise normals (n, 2, M, T).

    Each trial draws from its own stream in a fixed order: Re d, Im d, the
    phase-walk steps, Re noise, Im noise.
    """
    t, m = cfg.t, cfg.m
    z = np.empty((len(trials), 3 * t + 2 * m * t))
    for k, trial in enumerate(trials):
        np.random.default_rng(_trial_stream(cfg.seed, point, trial)).standard_normal(out=z[k])
    d = gains_from_normals(z[:, :2 * t].reshape(-1, 2, t), GainDistribution(cfg.p_d),
                           constrained=True)
    phi = (cfg.phi_walk_std * z[:, 2 * t:3 * t]).cumsum(axis=1)
    phi -= phi.mean(axis=1, keepdims=True)
    return d, phi, z[:, 3 * t:].reshape(-1, 2, m, t)


def check_estimator_inputs(cfg: CampaignConfig):
    """Raise ConfigError on an input the estimator would silently get wrong.

    Grating lobes: a(theta') = a(theta_d) whenever sin(theta') = sin(theta_d) + k / spacing
    for an integer k != 0, so MUSIC cannot tell theta' from theta_d.  The nearest
    alias lies inside (-pi/2, pi/2) exactly when spacing > 1 / (1 + |sin(theta_d)|).

    Phase wraps: the phase walk steps are N(0, phi_walk_std^2), and unwrapping slips
    by 2 pi where a true step passes pi.  By the union bound over the T - 1 steps a
    trial holds such a step with probability at most
    (T - 1) erfc(pi / (phi_walk_std sqrt 2)), which must not exceed PHASE_WRAP_LIMIT.

    The bounds are local and still hold for either input; only the estimator fails.
    """
    s = math.sin(cfg.theta_d)
    alias = s - math.copysign(1.0 / cfg.spacing, s)
    if abs(alias) < 1.0:
        raise ConfigError(
            f"field 'spacing': {cfg.spacing:g} puts a grating-lobe alias of theta_d="
            f"{cfg.theta_d:g} at {math.asin(alias):.3f} rad, which the MUSIC estimator "
            f"cannot tell apart (it needs spacing <= 1 / (1 + |sin theta_d|) = "
            f"{1.0 / (1.0 + abs(s)):.6g})"
        )
    wrap = (cfg.t - 1) * math.erfc(math.pi / (cfg.phi_walk_std * math.sqrt(2.0)))
    if wrap > PHASE_WRAP_LIMIT:
        raise ConfigError(
            f"field 'phi_walk_std': {cfg.phi_walk_std:g} gives a phase step beyond pi, "
            f"which the estimator unwraps wrongly, with probability up to {wrap:.3g} per "
            f"trial of T={cfg.t} (limit {PHASE_WRAP_LIMIT:g})"
        )


def scenario_from_config(cfg: CampaignConfig, point: int = 0, trial: int = 0) -> ScenarioParams:
    """A concrete scenario draw (used by the fim/estimate CLI paths)."""
    h_s = resolve_h_s(cfg)
    sigma2 = sigma2_from_snr_db(cfg.snr_db[point], cfg.p_d, cfg.m)
    d, phi, _ = _trial_draws(cfg, point, range(trial, trial + 1))
    return ScenarioParams(cfg.theta_d, h_s, d[0], phi[0], sigma2)


def _run_chunk(cfg: CampaignConfig, geom: ArrayGeometry, h_s: np.ndarray, sigma2: float,
               ecfg: EstimatorConfig, point: int, trials: range) -> list:
    d, phi, noise = _trial_draws(cfg, point, trials)
    csi = synthesize_batch(geom, cfg.theta_d, h_s, d, phi, sigma2, noise)
    est = estimate_batch(csi, geom, ecfg)
    theta_sq = (est.theta_hat - cfg.theta_d) ** 2
    d_mse = np.mean(np.abs(est.d_hat - d) ** 2, axis=1)
    # phase error blind to 2 pi slips and to a common rotation: wrapped to within
    # pi of its circular mean, then measured about its own mean.  phi and phi_hat
    # are zero-mean, so a trial without a slip keeps the bytes of mean(e^2).
    e = est.phi_hat - phi
    circ = np.angle(np.exp(1j * e).mean(axis=1, keepdims=True))
    e -= 2 * np.pi * np.round((e - circ) / (2 * np.pi))
    phi_mse = np.mean(e ** 2, axis=1) - np.mean(e, axis=1) ** 2
    results = []
    for k, trial in enumerate(trials):
        err = est.errors[k]
        if err is not None:
            results.append(TrialResult(trial, math.nan, math.nan, math.nan, stage=err.stage))
        else:
            results.append(TrialResult(trial, float(theta_sq[k]), float(d_mse[k]),
                                       float(phi_mse[k])))
    return results


def _mean_and_stderr(values) -> tuple:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def run_campaign(cfg: CampaignConfig, keep_trials: bool = False) -> CampaignResult:
    """Execute the configured campaign; deterministic for fixed (config, seed)."""
    if cfg.mode == "estimator":
        check_estimator_inputs(cfg)
    geom = ArrayGeometry(cfg.m, cfg.spacing)
    h_s = resolve_h_s(cfg)
    dist = GainDistribution(cfg.p_d)
    ecfg = EstimatorConfig(grid_points=cfg.grid_points)
    rows = []
    trial_map = {}

    for point, snr in enumerate(cfg.snr_db):
        sigma2 = sigma2_from_snr_db(snr, cfg.p_d, cfg.m)
        hb = hrcrb_theta(geom, cfg.theta_d, h_s, sigma2, cfg.t, dist, mode="closed-form")
        ab = ahrcrb_cgs(geom, cfg.theta_d, h_s, sigma2, cfg.p_d)
        rows.append(ResultRow(snr, "hrcrb_theta", hb.value, None, 0, cfg.seed))
        rows.append(ResultRow(snr, "ahrcrb_d", ab.value, None, 0, cfg.seed))

        if cfg.mode == "bounds-only":
            mc = hrcrb_theta(geom, cfg.theta_d, h_s, sigma2, cfg.t, dist,
                             mode="monte-carlo", trials=cfg.mc_bound_trials,
                             seed=_campaign_stream(cfg.seed, 2, point))
            rows.append(ResultRow(snr, "hrcrb_theta_mc", mc.value, mc.mc_stderr,
                                  mc.mc_trials, cfg.seed))
        if cfg.finite_t:
            ft = finite_t_hrcrb_cgs(geom, cfg.theta_d, h_s, sigma2, cfg.t, dist,
                                    trials=cfg.finite_t_trials,
                                    seed=_campaign_stream(cfg.seed, 3, point))
            rows.append(ResultRow(snr, "finite_t_hrcrb_d", ft.value, ft.mc_stderr,
                                  ft.mc_trials, cfg.seed))

        if cfg.mode == "estimator":
            results = []
            for start in range(0, cfg.trials, CHUNK_TRIALS):
                trials = range(start, min(start + CHUNK_TRIALS, cfg.trials))
                results += _run_chunk(cfg, geom, h_s, sigma2, ecfg, point, trials)
            ok = [r for r in results if not r.failed]
            fail_rate = 1.0 - len(ok) / cfg.trials
            if fail_rate > MAX_FAILURE_RATE:
                stages = sorted(Counter(r.stage for r in results if r.failed).items())
                by_stage = ", ".join(f"{stage}: {count}" for stage, count in stages)
                raise RuntimeError(
                    f"estimator failed on {fail_rate:.1%} of trials at SNR point {point} "
                    f"({snr} dB), failures by stage: {by_stage}; aborting"
                )
            for metric, attr in (("mse_theta", "theta_sq_err"),
                                 ("mse_d", "d_mse"),
                                 ("mse_phi", "phi_mse")):
                mean, stderr = _mean_and_stderr([getattr(r, attr) for r in ok])
                rows.append(ResultRow(snr, metric, mean, stderr, len(ok), cfg.seed))
            rows.append(ResultRow(snr, "estimator_fail_rate", fail_rate, None,
                                  cfg.trials, cfg.seed))
            if keep_trials:
                trial_map[point] = results

    return CampaignResult(rows=tuple(rows), trial_results=trial_map if keep_trials else None)


# ---------------------------------------------------------------------------
# property checks: the `verify` command runs them at desk scale, the
# acceptance tests at full scale (trials=10**4 is full scale for every count)

def random_scenario(rng, m_range=(2, 6), t_range=(2, 8)):
    """Random admissible scenario; h_s is redrawn until Delta exceeds 5% of its scale.

    The Delta margin keeps the per-snapshot blocks well conditioned, matching
    the preconditions of the closed forms under test.
    """
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    t = int(rng.integers(t_range[0], t_range[1] + 1))
    geom = ArrayGeometry(m)
    theta = float(rng.uniform(-1.3, 1.3))
    h_s, _ = _separated_h_s(rng, geom, theta, 0.05)
    d = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2)
    phi = rng.uniform(-np.pi / 3, np.pi / 3, t)
    sigma2 = float(rng.uniform(0.2, 2.0))
    return geom, ScenarioParams(theta, h_s, d, phi, sigma2)


def check_rho_range(trials: int, seed) -> VerifyCheck:
    """Xi <= Gamma Delta and 1 <= rho <= 2 over random draws; rho = 1 at Xi = 0.

    The worst is the largest of the relative Xi excess, the unnormalised range
    violation and |rho - 1| at Xi = 0.  The random draws come in blocks of
    RHO_BLOCK, each drawn as three array calls (every M, every theta, then
    normals z of shape (n, 2, 16); h_s of draw i is z[i, 0, :M] + 1j z[i, 1, :M])
    and evaluated in one batched call per M.  Delta and Xi are free of
    cancellation (``fisher.steering_geometry``), so every violation stays at
    the rounding level of the ratios and the allowance is 1e-12.  A draw that
    raises fails the check, and a NaN fails the verdict; none is skipped.
    """
    rng = as_rng(seed)
    worst = 0.0
    for lo in range(0, trials, RHO_BLOCK):
        n = min(RHO_BLOCK, trials - lo)
        ms, thetas = rng.integers(2, 17, n), rng.uniform(-1.4, 1.4, n)
        z = rng.standard_normal((n, 2, 16))
        for m in np.unique(ms):
            rows = np.flatnonzero(ms == m)
            dec = rho_theta(ArrayGeometry(int(m)), thetas[rows],
                            z[rows, 0, :m] + 1j * z[rows, 1, :m])
            gd = dec.gamma * dec.delta
            excess = np.maximum((dec.xi - gd) / gd, np.maximum(1.0 - dec.rho, dec.rho - 2.0))
            worst = np.maximum(worst, excess.max())
    for _ in range(max(10, trials // 100)):
        # h_s orthogonal to span{a, b}: the Xi = 0 configuration
        m = int(rng.integers(3, 17))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        q, _ = np.linalg.qr(np.column_stack(_steering_pair(geom, theta)))
        h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h -= q @ (q.conj().T @ h)
        worst = np.maximum(worst, abs(rho_theta(geom, theta, h).rho - 1.0))
    return VerifyCheck("rho_range", bool(worst < 1e-12), float(worst), 1e-12)


def check_fim_oracle(scenarios: int, seed) -> VerifyCheck:
    """Closed-form joint FIM vs finite-difference oracle, entrywise relative to the matrix scale."""
    rng = as_rng(seed)
    worst = 0.0
    for _ in range(scenarios):
        geom, params = random_scenario(rng)
        closed = joint_fim(geom, params).data
        oracle = fim_numeric_oracle(geom, params).data
        scale = np.max(np.abs(closed))
        worst = max(worst, float(np.max(np.abs(closed - oracle) / (np.abs(closed) + scale))))
    return VerifyCheck("fim_oracle", worst < 1e-6, worst, 1e-6)


def check_schur_consistency(scenarios: int, seed) -> VerifyCheck:
    """EFIM of theta: Schur sum == closed form == 1/[J^-1]_00; exact block inverse.

    The Schur sum and the dense inverse read the same reordered FIM.
    """
    rng = as_rng(seed)
    worst = 0.0
    for _ in range(scenarios):
        geom, params = random_scenario(rng, m_range=(3, 6))
        ro = reordered_blocks(geom, params)
        schur = float(ro.efim_theta())
        closed = efim_theta_closed(geom, params)
        via_inverse = 1.0 / np.linalg.inv(ro.assemble())[0, 0]
        inv = psi_block_inverse(geom, params, np.arange(params.t))
        worst = max(worst, abs(schur - closed) / abs(schur),
                    abs(schur - via_inverse) / abs(schur),
                    float(np.max(np.abs(inv @ ro.j_psi - np.eye(3)))))
    return VerifyCheck("schur_consistency", worst < 1e-10, worst, 1e-10)


def check_constraint_basis() -> VerifyCheck:
    """U^T U = I, all-ones rows annihilated, and the hand-derived T=4 column exactly."""
    worst = 0.0
    for t in (2, 3, 8, 64):
        u = constraint_basis(4, t).u
        worst = max(worst, float(np.max(np.abs(u.T @ u - np.eye(u.shape[1])))))
        lay = ParamLayout(4, t)
        for block in (lay.d_re, lay.d_im, lay.phi):
            ones = np.zeros(u.shape[0])
            ones[block] = 1.0
            worst = max(worst, float(np.max(np.abs(ones @ u))))
    column = constraint_basis(2, 4).u[ParamLayout(2, 4).d_re, 1 + 4]
    hand = float(np.max(np.abs(column - np.array([-5 / 6, 1 / 6, 1 / 6, 1 / 2]))))
    return VerifyCheck("constraint_basis", worst < 1e-12 and hand == 0.0,
                       max(worst, hand), 1e-12)


def check_hrcrb_chain(m: int, t: int, p_d: float, trials: int, seed,
                      spacing: float = 0.5) -> tuple:
    """Floor and Jensen orderings, and the Schur identity, of the HRCRB chain."""
    geom = ArrayGeometry(m, spacing)
    report = verify_hrcrb_chain(geom, t, GainDistribution(p_d), sigma2=1.0,
                                trials=trials, seed=seed,
                                scenarios=max(2, min(20, trials // 100)))
    order_worst = max(report.max_floor_violation, report.max_jensen_violation)
    schur_worst = report.max_schur_rel_error
    return (VerifyCheck("chain_orderings", order_worst < 1e-10, order_worst, 1e-10),
            VerifyCheck("chain_schur_identity", schur_worst < 1e-9, schur_worst, 1e-9))


def run_verification(m: int = 4, t: int = 4, p_d: float = 1.0, trials: int = 2000,
                     seed: int = 0, spacing: float = 0.5) -> VerificationReport:
    """Every property check; trials=10**4 gives the acceptance tests' counts."""
    sub = _campaign_stream(seed, 4).spawn(3)
    checks = (
        check_rho_range(trials, sub[0]),
        check_fim_oracle(max(5, trials // 200), sub[1]),
        check_schur_consistency(max(10, trials // 100), sub[2]),
        check_constraint_basis(),
        *check_hrcrb_chain(m, t, p_d, trials, _campaign_stream(seed, 4, 1), spacing=spacing),
    )
    return VerificationReport(checks=checks, ok=all(c.passed for c in checks))
