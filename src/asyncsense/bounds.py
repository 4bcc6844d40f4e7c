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
from .fisher import (SteeringGeometry, _check_sigma2, _efim_theta, _reordered,
                     steering_geometry)
from .rng import as_rng

# Monte Carlo runs tolerate at most this fraction of discarded trials (gain
# draws with non-positive equivalent information of theta_d) before the whole
# run is reported bad.
MAX_DISCARD_RATE = 1e-3

# Gains per Monte Carlo chunk: a few MB of temporaries at any trial count.
_CHUNK_ELEMENTS = 2 ** 16


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


def rho_theta(geom: ArrayGeometry, theta, h_s: np.ndarray) -> SteeringGeometry:
    """The checked geometry record of theta (...) and h_s (..., M), whose Gamma, Delta,
    Xi and rho = (1 - Xi / (2 Gamma Delta))^-1 have shape (...); one collinear row raises.
    """
    return steering_geometry(geom, theta, h_s).checked()


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
    _check_sigma2(sigma2)
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

    def per_draw(d):
        info = _efim_theta(g, d, sigma2)
        return info, info > 0

    kept, mean_info, stderr, discard_rate = _monte_carlo(per_draw, dist, trials, t, seed)
    if mean_info <= 0:
        raise DegenerateBoundError("mean information is not positive")
    return BoundReport(value=1.0 / mean_info, method="monte-carlo", mc_trials=kept,
                       mc_stderr=stderr / mean_info ** 2, discard_rate=discard_rate)


def ahrcrb_cgs(geom: ArrayGeometry, theta: float, h_s: np.ndarray,
               sigma2: float, p_d: float) -> BoundReport:
    """Asymptotic (large-T) per-snapshot bound on the complex gain sequence.

        AHRCRB_d = 2 sigma2 / M + (sigma2 / M) (|a^H h_s|^2 + M^2 p_d) / Delta
    """
    _check_sigma2(sigma2)
    if not 0 < p_d < np.inf:
        raise ValueError(f"need 0 < p_d < inf, got {p_d}")
    g = steering_geometry(geom, theta, h_s).checked()
    m = geom.m
    value = 2.0 * sigma2 / m + sigma2 / m * (abs(g.ah) ** 2 + m * m * p_d) / g.delta
    return BoundReport(value=float(value), method="closed-form")


def _cgs_trace_draws(g: SteeringGeometry, sigma2: float, d: np.ndarray):
    """Per-trial (1/T) sum_t Tr([J_psi_t^equ^-1]_{1:2,1:2}) for draws d of shape (n, T).

    J_psi_t^equ = J_psi_t - v_t v_t^T / L_t, with v_t = J_theta,psi_t and L_t the
    leave-one-out information of theta_d, is the EFIM of psi_t; its inverse is the
    psi_t diagonal block of the inverse of ``ReorderedFim.assemble()``.  It is a
    rank-one update of J_psi_t, whose inverse is closed-form (``fisher.psi_block_inverse``).
    By Sherman-Morrison, with chi_t = a^H h_s + M d_t and c = ``SteeringGeometry.c``:

        Tr([J_psi_t^equ^-1]_{1:2,1:2}) = sigma2 (|chi_t|^2 / Delta + 2) / M + |u_t|^2 / J,
        u_t = (a^H b d_t - j chi_t Im{c d_t^*} / Delta) / M,

    where J = L_t - v_t^T J_psi_t^-1 v_t is the full equivalent information of
    theta_d (``fisher._efim_theta``), the same for every t.  With Delta > 0,
    every J_psi_t^equ is positive definite exactly when J > 0, which is the
    returned validity mask.  The first term has expectation AHRCRB_d under
    unconstrained draws and the second is >= 0, which is why the finite-T bound
    converges to AHRCRB_d from above.  Returns (values, valid_mask).
    """
    m, t = g.a.shape[-1], d.shape[-1]
    chi = g.ah + m * d
    u = (g.ab * d - 1j * chi * np.imag(g.c * np.conj(d)) / g.delta) / m
    info = _efim_theta(g, d, sigma2)
    valid = info > 0
    values = (sigma2 * np.mean(np.abs(chi) ** 2 / g.delta + 2, axis=-1) / m
              + np.sum(np.abs(u) ** 2, axis=-1) / (t * np.where(valid, info, 1.0)))
    return values, valid


def finite_t_hrcrb_cgs(geom: ArrayGeometry, theta: float, h_s: np.ndarray, sigma2: float,
                       t: int, dist: GainDistribution, trials: int, seed) -> BoundReport:
    """Finite-T Monte Carlo per-snapshot CGS bound, converging to AHRCRB_d from above."""
    if t < 2:
        raise ValueError(f"need T >= 2, got {t}")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    _check_sigma2(sigma2)
    g = steering_geometry(geom, theta, h_s).checked()
    kept, mean, stderr, discard_rate = _monte_carlo(
        lambda d: _cgs_trace_draws(g, sigma2, d), dist, trials, t, seed)
    return BoundReport(value=mean, method="monte-carlo", mc_trials=kept,
                       mc_stderr=stderr, discard_rate=discard_rate)


def _monte_carlo(per_draw, dist: GainDistribution, trials: int, t: int, seed):
    """Mean over the valid trials of ``per_draw(d) -> (values, valid)``, d the circular
    gain draws (rows, T) of one chunk.

    The normals are drawn once as (2, trials, T), so the stream is that of drawing
    the real parts of every trial and then the imaginary parts.  Each chunk holds
    about ``_CHUNK_ELEMENTS`` gains.  Returns (kept, mean, stderr of the mean,
    discard rate); more than MAX_DISCARD_RATE discarded trials raise.
    """
    normals = as_rng(seed).standard_normal((2, trials, t))
    values = np.empty(trials)
    valid = np.empty(trials, dtype=bool)
    step = max(1, _CHUNK_ELEMENTS // t)
    for lo in range(0, trials, step):
        rows = slice(lo, min(lo + step, trials))
        values[rows], valid[rows] = per_draw(
            gains_from_normals(np.moveaxis(normals[:, rows], 0, -2), dist))
    discard_rate = 1.0 - valid.sum() / trials
    if discard_rate > MAX_DISCARD_RATE:
        raise DegenerateBoundError(
            f"{discard_rate:.2%} of gain draws gave non-positive equivalent information "
            f"of theta_d"
        )
    kept = values[valid]
    mean = math.fsum(kept) / kept.size
    stderr = float(np.std(kept, ddof=1)) / math.sqrt(kept.size)
    return int(kept.size), mean, stderr, float(discard_rate)


def _separated_h_s(rng, geom: ArrayGeometry, theta, margin: float):
    """Draw CN(0, I) static channels until Delta > margin * scale; returns (h_s, geometry)."""
    while True:
        h_s = (rng.standard_normal(geom.m) + 1j * rng.standard_normal(geom.m)) / np.sqrt(2)
        g = steering_geometry(geom, theta, h_s)
        if g.delta > margin * g.scale:
            return h_s, g


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

    max_floor = max_jensen = -np.inf
    max_schur = 0.0

    for k in range(scenarios):
        draws = draws_per + (k < extra)
        h_s, g = _separated_h_s(rng, geom, rng.uniform(-1.2, 1.2), 1e-3)
        d = gains_from_normals(rng.standard_normal((draws, 2, t)), dist)
        js = _reordered(g, h_s, d, sigma2).assemble()

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

    return ChainCheckReport(scenarios, trials, float(max_floor), float(max_jensen),
                            float(max_schur))
