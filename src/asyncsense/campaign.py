"""Seeded Monte Carlo orchestration: bounds vs estimator MSE over an SNR grid.

Seed derivation (counter-based, so adding trials or SNR points never perturbs
existing streams):

    SeedSequence(master, spawn_key=(0, point, trial))  per-trial synthesis
    SeedSequence(master, spawn_key=(1, 0))             campaign-level h_s draw
    SeedSequence(master, spawn_key=(2, 0))             Monte Carlo AoA bound
    SeedSequence(master, spawn_key=(4, 0)), (4, 1)     verification suites (`verify`)
    SeedSequence(master, spawn_key=(5, 0))             noise of the block estimate_input synthesizes

The finite-T bound (finite_t, exact) and the hrcrb_theta Monte Carlo
(bounds-only, on stream (2, 0)) are sigma2 times a sigma2-free number: each runs
once, at point 0's sigma2, and is scaled to every point.  The finite-T bound runs
inline; the rest is one list of tasks, run on the calling thread and up to
CHUNK_HELPERS helper threads, largest first: the Monte Carlo (a bounds-only
campaign's only task, so it starts no helper), then the estimator trials in
chunks of CHUNK_TRIALS stacked blocks, through MUSIC on the one angle grid of
estimator.GRID_POINTS.  Each task draws from its own streams in its own order,
the stacked arithmetic is per trial, and reductions over trials run in trial
order through math.fsum, so the CSV is byte-stable for a given (config, seed)
whatever the chunk size and the helper count.

SNR convention: SNR_dB = 10 log10(p_d * M / sigma2), the dynamic-path array
SNR (|a|^2 = M), with sigma2 the per-real-component noise variance.  The config
refuses an SNR whose sigma2 is not a finite positive float.
"""

import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .array_model import (ArrayGeometry, CsiBlock, GainDistribution, ScenarioParams,
                          _steering_pair, gains_from_normals, synthesize_batch, synthesize_csi)
from .bounds import (_separated_h_s, ahrcrb_cgs, finite_t_hrcrb_cgs, hrcrb_theta, rho_theta,
                     verify_hrcrb_chain)
from .config import CampaignConfig, sigma2_from_snr_db
from .csvio import ResultRow
from .estimator import estimate_batch
from .exceptions import ConfigError
from .fisher import (ParamLayout, constraint_basis, efim_theta_closed,
                     fim_numeric_oracle, joint_fim, psi_block_inverse, reordered_blocks)

MAX_FAILURE_RATE = 0.05

# Estimator trials stacked per chunk: large enough to amortise per-call
# overhead, small enough that each of a chunk's stacked arrays stays about a MB
# while every thread holds a chunk.  Results do not depend on it.
CHUNK_TRIALS = 32

# Threads that run a campaign's tasks (the bound Monte Carlo and estimator chunks)
# beside the calling one: one per extra usable CPU.  A task's time goes to numpy,
# BLAS/LAPACK and the normal draws, which release the GIL.  Results do not
# depend on it.
CHUNK_HELPERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1) - 1

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
class CampaignResult:
    rows: tuple
    trial_results: dict = None


def _stream(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=key)


def resolve_h_s(cfg: CampaignConfig) -> np.ndarray:
    """Campaign-level static channel: fixed vector or one seeded draw per campaign."""
    if cfg.h_s.mode == "fixed":
        return np.array(cfg.h_s.re) + 1j * np.array(cfg.h_s.im)
    z = np.random.default_rng(_stream(cfg.seed, 1, 0)).standard_normal((2, cfg.m))
    return gains_from_normals(z, GainDistribution(cfg.h_s.power))


def _trial_draws(cfg: CampaignConfig, point: int, trials: range):
    """Gains d (n, T), phases phi (n, T) and noise normals (n, 2, M, T).

    Each trial draws from its own stream in a fixed order: Re d, Im d, the
    phase-walk steps, Re noise, Im noise.
    """
    t, m = cfg.t, cfg.m
    z = np.empty((len(trials), 3 * t + 2 * m * t))
    for k, trial in enumerate(trials):
        np.random.default_rng(_stream(cfg.seed, 0, point, trial)).standard_normal(out=z[k])
    d = gains_from_normals(z[:, :2 * t].reshape(-1, 2, t), GainDistribution(cfg.p_d),
                           constrained=True)
    phi = (cfg.phi_walk_std * z[:, 2 * t:3 * t]).cumsum(axis=1)
    phi -= phi.mean(axis=1, keepdims=True)
    return d, phi, z[:, 3 * t:].reshape(-1, 2, m, t)


def check_grating_lobe(spacing: float, theta: float, name: str):
    """Raise ConfigError if the angle `name` = theta has a grating-lobe alias in (-pi/2, pi/2).

    a(theta') = a(theta) whenever sin(theta') = sin(theta) + k / spacing for an
    integer k != 0, so MUSIC cannot tell theta' from theta.  The nearest alias
    lies inside (-pi/2, pi/2) exactly when spacing > 1 / (1 + |sin(theta)|).
    """
    s = math.sin(theta)
    alias = s - math.copysign(1.0 / spacing, s)
    if abs(alias) < 1.0:
        raise ConfigError(
            f"field 'spacing': {spacing:g} puts a grating-lobe alias of {name}="
            f"{theta:g} at {math.asin(alias):.3f} rad, which the MUSIC estimator "
            f"cannot tell apart (it needs spacing <= 1 / (1 + |sin {name}|) = "
            f"{1.0 / (1.0 + abs(s)):.6g})"
        )


def check_estimator_inputs(cfg: CampaignConfig):
    """Raise ConfigError on an input the estimator would silently get wrong.

    Grating lobes: theta_d must pass check_grating_lobe.

    Phase wraps: the phase walk steps are N(0, phi_walk_std^2), and unwrapping slips
    by 2 pi where a true step passes pi.  By the union bound over the T - 1 steps a
    trial holds such a step with probability at most
    (T - 1) erfc(pi / (phi_walk_std sqrt 2)), which must not exceed PHASE_WRAP_LIMIT.

    The bounds are local and still hold for either input; only the estimator fails.
    """
    check_grating_lobe(cfg.spacing, cfg.theta_d, "theta_d")
    wrap = (cfg.t - 1) * math.erfc(math.pi / (cfg.phi_walk_std * math.sqrt(2.0)))
    if wrap > PHASE_WRAP_LIMIT:
        raise ConfigError(
            f"field 'phi_walk_std': {cfg.phi_walk_std:g} gives a phase step beyond pi, "
            f"which the estimator unwraps wrongly, with probability up to {wrap:.3g} per "
            f"trial of T={cfg.t} (limit {PHASE_WRAP_LIMIT:g})"
        )


def scenario_from_config(cfg: CampaignConfig) -> ScenarioParams:
    """Trial 0 of SNR point 0 as a concrete scenario (the fim/estimate CLI paths)."""
    h_s = resolve_h_s(cfg)
    sigma2 = sigma2_from_snr_db(cfg.snr_db[0], cfg.p_d, cfg.m)
    d, phi, _ = _trial_draws(cfg, 0, range(1))
    return ScenarioParams(cfg.theta_d, h_s, d[0], phi[0], sigma2)


def estimate_input(cfg: CampaignConfig) -> CsiBlock:
    """The block `estimate` runs on without --csi: that scenario plus noise from (5, 0)."""
    check_estimator_inputs(cfg)
    return synthesize_csi(ArrayGeometry(cfg.m, cfg.spacing), scenario_from_config(cfg),
                          _stream(cfg.seed, 5, 0))


def _run_chunk(cfg: CampaignConfig, h_s: np.ndarray, point: int, trials: range) -> list:
    geom = ArrayGeometry(cfg.m, cfg.spacing)
    sigma2 = sigma2_from_snr_db(cfg.snr_db[point], cfg.p_d, cfg.m)
    d, phi, noise = _trial_draws(cfg, point, trials)
    csi = synthesize_batch(geom, cfg.theta_d, h_s, d, phi, sigma2, noise)
    est = estimate_batch(csi, geom)
    theta_sq = (est.theta_hat - cfg.theta_d) ** 2
    d_mse = np.mean(np.abs(est.d_hat - d) ** 2, axis=1)
    # phase error blind to 2 pi slips and to a common rotation: wrapped to within
    # pi of its circular mean, then measured about its own mean.  phi and phi_hat
    # are zero-mean, so a trial without a slip keeps the bytes of mean(e^2).
    e = est.phi_hat - phi
    circ = np.angle(np.exp(1j * e).mean(axis=1, keepdims=True))
    e -= 2 * np.pi * np.round((e - circ) / (2 * np.pi))
    phi_mse = np.mean(e ** 2, axis=1) - np.mean(e, axis=1) ** 2
    return [TrialResult(trial, math.nan, math.nan, math.nan, stage=err.stage) if err is not None
            else TrialResult(trial, float(theta_sq[k]), float(d_mse[k]), float(phi_mse[k]))
            for k, (trial, err) in enumerate(zip(trials, est.errors))]


def _run_tasks(tasks: list) -> list:
    """``[task() for task in tasks]`` on this thread and CHUNK_HELPERS helpers.

    Each thread claims the lowest unclaimed task until none is left, so the
    tasks start in list order and a caller lists its largest first.  Once a
    task has raised no thread claims another, and the error of the lowest-index
    task that raised is re-raised: every task below it was claimed before it,
    so which error surfaces does not depend on timing.
    """
    # The calling thread claims tasks too, rather than waiting on a pool of
    # CHUNK_HELPERS + 1 threads.  ThreadPoolExecutor.map in its place (6 pairs of
    # 20 s `campaign` benchmark runs, 2 CPUs) added a malloc arena, raising peak
    # RSS from about 67 to 72-73 MB, and ran about 3% fewer trials per second.
    results = [None] * len(tasks)
    errors = {}
    lock = threading.Lock()
    claimed = 0

    def claim_and_run():
        nonlocal claimed
        while True:
            with lock:
                if errors or claimed == len(tasks):
                    return
                k, claimed = claimed, claimed + 1
            try:
                results[k] = tasks[k]()
            except Exception as err:
                with lock:
                    errors[k] = err
                return

    helpers = [threading.Thread(target=claim_and_run)
               for _ in range(min(CHUNK_HELPERS, len(tasks) - 1))]
    for helper in helpers:
        helper.start()
    try:
        claim_and_run()
    finally:
        with lock:
            claimed = len(tasks)   # an interrupt here stops the helpers after their task
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _mean_and_stderr(values) -> tuple:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def run_campaign(cfg: CampaignConfig, keep_trials: bool = False) -> CampaignResult:
    """Execute the configured campaign; deterministic for fixed (config, seed).

    The finite-T bound runs inline, then the Monte Carlo and the estimator chunks
    as one task list on _run_tasks, in the module docstring's order; the rows are
    built from their results in point order.
    """
    geom = ArrayGeometry(cfg.m, cfg.spacing)
    h_s = resolve_h_s(cfg)
    dist = GainDistribution(cfg.p_d)
    points = range(len(cfg.snr_db))
    sigma2 = [sigma2_from_snr_db(snr, cfg.p_d, cfg.m) for snr in cfg.snr_db]
    ft = (finite_t_hrcrb_cgs(geom, cfg.theta_d, h_s, sigma2[0], cfg.t, dist)
          if cfg.finite_t else None)
    mc = ([partial(hrcrb_theta, geom, cfg.theta_d, h_s, sigma2[0], cfg.t, dist,
                   mode="monte-carlo", trials=cfg.mc_bound_trials, seed=_stream(cfg.seed, 2, 0))]
          if cfg.mode == "bounds-only" else [])
    chunks = []
    if cfg.mode == "estimator":
        check_estimator_inputs(cfg)
        chunks = [partial(_run_chunk, cfg, h_s, point,
                          range(start, min(start + CHUNK_TRIALS, cfg.trials)))
                  for point in points for start in range(0, cfg.trials, CHUNK_TRIALS)]
    done = _run_tasks(mc + chunks)
    mc_report = done[0] if mc else None
    trial_results = [r for chunk in done[len(mc):] for r in chunk]
    rows = []
    trial_map = {}

    for point, snr in enumerate(cfg.snr_db):
        hb = hrcrb_theta(geom, cfg.theta_d, h_s, sigma2[point], cfg.t, dist, mode="closed-form")
        ab = ahrcrb_cgs(geom, cfg.theta_d, h_s, sigma2[point], cfg.p_d)
        rows.append(ResultRow(snr, "hrcrb_theta", hb.value, None, 0, cfg.seed))
        rows.append(ResultRow(snr, "ahrcrb_d", ab.value, None, 0, cfg.seed))
        scale = sigma2[point] / sigma2[0]
        if mc_report is not None:
            rows.append(ResultRow(snr, "hrcrb_theta_mc", mc_report.value * scale,
                                  mc_report.mc_stderr * scale, mc_report.mc_trials, cfg.seed))
        if ft is not None:
            rows.append(ResultRow(snr, "finite_t_hrcrb_d", ft.value * scale, None, 0, cfg.seed))

        if cfg.mode == "estimator":
            results = trial_results[point * cfg.trials:(point + 1) * cfg.trials]
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
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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


def check_hrcrb_chain(trials: int, seed) -> tuple:
    """Floor and Jensen orderings, and the Schur identity, of the HRCRB chain at M=T=4, p_d=1."""
    report = verify_hrcrb_chain(ArrayGeometry(4), 4, GainDistribution(1.0), sigma2=1.0,
                                trials=trials, seed=seed,
                                scenarios=max(2, min(20, trials // 100)))
    order_worst = max(report.max_floor_violation, report.max_jensen_violation)
    schur_worst = report.max_schur_rel_error
    return (VerifyCheck("chain_orderings", order_worst < 1e-10, order_worst, 1e-10),
            VerifyCheck("chain_schur_identity", schur_worst < 1e-9, schur_worst, 1e-9))


def run_verification(trials: int = 2000, seed: int = 0) -> tuple:
    """Every property check's VerifyCheck; trials=10**4 gives the acceptance tests' counts."""
    sub = _stream(seed, 4, 0).spawn(3)
    return (
        check_rho_range(trials, sub[0]),
        check_fim_oracle(max(5, trials // 200), sub[1]),
        check_schur_consistency(max(10, trials // 100), sub[2]),
        check_constraint_basis(),
        *check_hrcrb_chain(trials, _stream(seed, 4, 1)),
    )
