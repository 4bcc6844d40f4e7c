"""Performance bounds and inequality verifiers for the asynchronous sensing model.

Closed forms, their Monte Carlo validators, and the inequality chain that
justifies exchanging expectation and inversion:

* rho factor: asynchrony penalty on the AoA bound, provably in [1, 2].
* HRCRB_theta = 1 / E_d{J_theta^equ} with the expectation in closed form
  (E|d|^2 = T p_d, E[Im{c d^*}^2] = |c|^2 p_d / 2 for circular gains), which
  collapses to rho * sigma2 * M / (T * p_d * Gamma).
* AHRCRB_d: large-T per-snapshot bound on the complex gain sequence.
* finite-T Monte Carlo counterpart converging to AHRCRB_d from above.

Bound expectations use UNCONSTRAINED circular gain draws (faithful to the
expectation algebra); estimator simulations use mean-removed draws.  The
difference decays as O(1/T).
"""

import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, GainDistribution, gains_from_normals
from .exceptions import DegenerateBoundError
from .fisher import SteeringGeometry, _efim_theta, _reordered, steering_geometry
from .rng import as_rng

# Monte Carlo runs tolerate at most this fraction of discarded (singular or
# non-positive-information) trials before the whole run is reported bad.
MAX_DISCARD_RATE = 1e-3

_CHUNK_ELEMENTS = 2 ** 21


@dataclass(frozen=True)
class RhoDecomposition:
    """The quantities behind the asynchrony penalty rho = (1 - Xi/(2 Gamma Delta))^-1."""

    gamma: float
    delta: float
    xi: float
    rho: float


@dataclass(frozen=True)
class BoundReport:
    """A scalar bound with its provenance; stderr/trials only for Monte Carlo."""

    value: float
    method: str
    mc_trials: int = None
    mc_stderr: float = None
    discard_rate: float = None

    def __post_init__(self):
        if self.method not in ("closed-form", "monte-carlo"):
            raise ValueError(f"unknown bound method {self.method!r}")
        if self.method == "monte-carlo" and (self.mc_trials is None or self.mc_stderr is None):
            raise ValueError("monte-carlo reports need mc_trials and mc_stderr")
        if self.method == "closed-form" and self.mc_stderr is not None:
            raise ValueError("closed-form reports carry no stderr")


@dataclass(frozen=True)
class ChainCheckReport:
    """Worst-case violations of the expectation/inversion inequality chain.

    Violations are signed: positive means the inequality failed by that
    relative amount; values at rounding level (<= ~1e-12) are expected.
    """

    scenarios: int
    draws: int
    max_floor_violation: float
    max_jensen_violation: float
    max_schur_rel_error: float


def rho_theta(geom: ArrayGeometry, theta: float, h_s: np.ndarray) -> RhoDecomposition:
    """Gamma, Delta, Xi and rho = (1 - Xi / (2 Gamma Delta))^-1.

    Gamma = |a|^2|b|^2 - |a^H b|^2,  Delta = |a|^2|h_s|^2 - |a^H h_s|^2,
    Xi = |(b^H a a^H - a^H a b^H) h_s|^2.
    """
    g = steering_geometry(geom, theta, h_s).checked()
    rho = 1.0 / (1.0 - g.xi / (2.0 * g.gamma * g.delta))
    return RhoDecomposition(gamma=g.gamma, delta=g.delta, xi=g.xi, rho=rho)


def hrcrb_theta(geom: ArrayGeometry, theta: float, h_s: np.ndarray, sigma2: float,
                t: int, dist: GainDistribution, mode: str = "closed-form",
                trials: int = 100_000, seed=None) -> BoundReport:
    """Hybrid relaxed CRB on the dynamic-path AoA: 1 / E_d{J_theta^equ}.

    closed-form:  sigma2 * M / (T p_d (Gamma - Xi / (2 Delta)))
                  = rho * sigma2 * M / (T p_d Gamma).
    monte-carlo:  1 / mean(J_theta^equ) over circular gain draws, validating
                  the closed-form expectation algebra.
    """
    if t < 1:
        raise ValueError(f"need T >= 1, got {t}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    g = steering_geometry(geom, theta, h_s).checked()

    if mode == "closed-form":
        expected_info = t * dist.p_d * (g.gamma - g.xi / (2 * g.delta)) / (sigma2 * geom.m)
        if expected_info <= 0:
            raise DegenerateBoundError(
                f"expected information of theta_d is not positive ({expected_info:.3e})"
            )
        return BoundReport(value=1.0 / expected_info, method="closed-form")

    if mode != "monte-carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 2:
        raise ValueError("monte-carlo mode needs at least 2 trials")
    rng = as_rng(seed)
    d = np.sqrt(dist.p_d / 2.0) * (
        rng.standard_normal((trials, t)) + 1j * rng.standard_normal((trials, t))
    )
    info = _efim_theta(g, d, sigma2)
    good = info > 0
    discard_rate = 1.0 - good.sum() / trials
    if discard_rate > MAX_DISCARD_RATE:
        raise DegenerateBoundError(
            f"{discard_rate:.2%} of gain draws yielded non-positive information"
        )
    kept = info[good]
    mean_info = math.fsum(kept) / kept.size
    if mean_info <= 0:
        raise DegenerateBoundError("mean information is not positive")
    stderr = float(np.std(kept, ddof=1)) / np.sqrt(kept.size) / mean_info ** 2
    return BoundReport(value=1.0 / mean_info, method="monte-carlo",
                       mc_trials=int(kept.size), mc_stderr=stderr,
                       discard_rate=float(discard_rate))


def ahrcrb_cgs(geom: ArrayGeometry, theta: float, h_s: np.ndarray,
               sigma2: float, p_d: float) -> BoundReport:
    """Asymptotic (large-T) per-snapshot bound on the complex gain sequence.

        AHRCRB_d = 2 sigma2 / M + (sigma2 / M) (|a^H h_s|^2 + M^2 p_d) / Delta
    """
    if sigma2 <= 0 or p_d <= 0:
        raise ValueError("sigma2 and p_d must be positive")
    g = steering_geometry(geom, theta, h_s).checked()
    m = geom.m
    value = 2.0 * sigma2 / m + sigma2 / m * (abs(g.ah) ** 2 + m * m * p_d) / g.delta
    return BoundReport(value=float(value), method="closed-form")


def _cgs_trace_draws(g: SteeringGeometry, h_s: np.ndarray, sigma2: float, d: np.ndarray):
    """Per-trial (1/T) sum_t Tr([J_psi_t^equ^-1]_{1:2,1:2}) for draws d of shape (n, T).

    Vectorized over trials and snapshots; the 3x3 inverses use cofactor
    expansion so singular trials can be flagged instead of raising.
    Returns (values, valid_mask).
    """
    ab, ah, bh, delta = g.ab, g.ah, g.bh, g.delta
    m = h_s.size
    s2 = sigma2

    chi = ah + m * d
    q = float(np.vdot(h_s, h_s).real) + m * np.abs(d) ** 2 + 2 * np.real(np.conj(ah) * d)
    v1 = np.real(ab * d) / s2
    v2 = np.imag(ab * d) / s2
    v3 = -np.imag(np.conj(ab) * np.abs(d) ** 2 + bh * np.conj(d)) / s2

    # correction v J_psi^-1 v^T via the closed-form inverse (w = (Im, -Re, M))
    vw = v1 * chi.imag - v2 * chi.real + v3 * m
    corr = s2 / (m * delta) * vw ** 2 + s2 / m * (v1 ** 2 + v2 ** 2)

    j_tt = float(np.vdot(g.b, g.b).real) / s2 * np.sum(np.abs(d) ** 2, axis=1)
    loo = j_tt[:, None] - (np.sum(corr, axis=1)[:, None] - corr)
    valid = np.all(loo > 0, axis=1)
    loo_safe = np.where(loo > 0, loo, 1.0)

    a00 = m / s2 - v1 ** 2 / loo_safe
    a01 = -v1 * v2 / loo_safe
    a02 = -chi.imag / s2 - v1 * v3 / loo_safe
    a11 = m / s2 - v2 ** 2 / loo_safe
    a12 = chi.real / s2 - v2 * v3 / loo_safe
    a22 = q / s2 - v3 ** 2 / loo_safe

    det = (a00 * (a11 * a22 - a12 ** 2)
           - a01 * (a01 * a22 - a12 * a02)
           + a02 * (a01 * a12 - a11 * a02))
    det_scale = np.maximum((m / s2) ** 2 * np.abs(a22), np.finfo(float).tiny)
    valid &= np.all(det > 1e-14 * det_scale, axis=1)
    det_safe = np.where(det > 0, det, 1.0)

    trace = ((a11 * a22 - a12 ** 2) + (a00 * a22 - a02 ** 2)) / det_safe
    return trace.mean(axis=1), valid


def finite_t_hrcrb_cgs(geom: ArrayGeometry, theta: float, h_s: np.ndarray, sigma2: float,
                       t: int, dist: GainDistribution, trials: int, seed) -> BoundReport:
    """Finite-T Monte Carlo per-snapshot CGS bound, converging to AHRCRB_d from above."""
    if t < 2:
        raise ValueError(f"need T >= 2, got {t}")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    h_s = np.asarray(h_s, dtype=complex)
    g = steering_geometry(geom, theta, h_s).checked()

    d = gains_from_normals(np.moveaxis(as_rng(seed).standard_normal((2, trials, t)), 0, -2),
                           dist)
    chunk = max(1, _CHUNK_ELEMENTS // t)
    values = np.empty(trials)
    valid = np.empty(trials, dtype=bool)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        values[lo:hi], valid[lo:hi] = _cgs_trace_draws(g, h_s, sigma2, d[lo:hi])

    discard_rate = 1.0 - valid.sum() / trials
    if discard_rate > MAX_DISCARD_RATE:
        raise DegenerateBoundError(
            f"{discard_rate:.2%} of gain draws hit a singular per-snapshot EFIM"
        )
    kept = values[valid]
    mean = math.fsum(kept) / kept.size
    stderr = float(np.std(kept, ddof=1)) / np.sqrt(kept.size)
    return BoundReport(value=mean, method="monte-carlo", mc_trials=int(kept.size),
                       mc_stderr=stderr, discard_rate=float(discard_rate))


def verify_hrcrb_chain(geom: ArrayGeometry, t: int, dist: GainDistribution, sigma2: float,
                       trials: int, seed, scenarios: int = 20) -> ChainCheckReport:
    """Numerically check the inequality chain behind the HRCRB on the theta coordinate.

    For each random scenario (theta, h_s) and a batch of random gain draws:

        1 / E{J_tt}  <=  [E{J}^-1]_tt  <=  [E{J^-1}]_tt        (floor, Jensen)
        [E{J}^-1]_tt == (E{J_tt} - E{J_tb} E{J_bb}^-1 E{J_tb}^T)^-1   (Schur identity)

    with J the reordered (theta, psi_1..psi_T) information matrix and the
    expectations realized as sample means (the orderings are exact for any
    finite mixture, so violations beyond rounding indicate a defect).  Each
    scenario's draws are built in one array pass and inverted densely.
    """
    if trials < scenarios:
        raise ValueError("need at least one draw per scenario")
    rng = as_rng(seed)
    draws_per, extra = divmod(trials, scenarios)

    max_floor = -np.inf
    max_jensen = -np.inf
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
        d = gains_from_normals(rng.standard_normal((draws, 2, t)), dist)
        js = _reordered(g, h_s, d, sigma2).assemble()
        total_draws += draws

        j_mean = js.mean(axis=0)
        inv_mean = np.linalg.inv(js).mean(axis=0)
        del js                      # free this scenario's stack before the next is built
        mid = np.linalg.inv(j_mean)[0, 0]
        floor = 1.0 / j_mean[0, 0]
        jensen_rhs = inv_mean[0, 0]
        schur_rhs = 1.0 / (
            j_mean[0, 0] - j_mean[0, 1:] @ np.linalg.solve(j_mean[1:, 1:], j_mean[1:, 0])
        )

        max_floor = max(max_floor, (floor - mid) / abs(mid))
        max_jensen = max(max_jensen, (mid - jensen_rhs) / abs(jensen_rhs))
        max_schur = max(max_schur, abs(mid - schur_rhs) / abs(schur_rhs))

    return ChainCheckReport(
        scenarios=scenarios,
        draws=total_draws,
        max_floor_violation=float(max_floor),
        max_jensen_violation=float(max_jensen),
        max_schur_rel_error=float(max_schur),
    )
