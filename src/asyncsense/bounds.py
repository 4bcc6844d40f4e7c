"""Performance bounds and inequality verifiers for the asynchronous sensing model.

Closed forms, exact expectations, their Monte Carlo validators, and the
inequality chain that justifies exchanging expectation and inversion:

* rho factor: asynchrony penalty on the AoA bound, provably in [1, 2].
* HRCRB_theta = 1 / E_d{J_theta^equ} with the expectation in closed form
  (E|d|^2 = T p_d, E[Im{c d^*}^2] = |c|^2 p_d / 2 for circular gains), which
  collapses to rho * sigma2 * M / (T * p_d * Gamma).
* AHRCRB_d: large-T per-snapshot bound on the complex gain sequence.
* finite-T counterpart, an exact quadrature over the gains, converging to
  AHRCRB_d from above.

Bound expectations are over UNCONSTRAINED circular gains (faithful to the
expectation algebra); estimator simulations use mean-removed draws.  The
difference decays as O(1/T).
"""

import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, GainDistribution, gains_from_normals
from .exceptions import DegenerateBoundError
from .fisher import (COLLINEARITY_RTOL, SteeringGeometry, _check_sigma2, _efim_theta,
                     _reordered, steering_geometry)

# Monte Carlo runs tolerate at most this fraction of discarded trials (gain
# draws with non-positive equivalent information of theta_d) before the whole
# run is reported bad.
MAX_DISCARD_RATE = 1e-3

# Gains per Monte Carlo chunk: each of a chunk's complex (rows, T) temporaries
# is 256 kB and stays in cache, at any trial count.
_CHUNK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class BoundReport:
    """A scalar bound with its provenance; stderr/trials only for Monte Carlo.

    closed-form and quadrature values are exact up to rounding.
    """

    value: float
    method: str
    mc_trials: int = None
    mc_stderr: float = None
    discard_rate: float = None

    def __post_init__(self):
        if self.method not in ("closed-form", "quadrature", "monte-carlo"):
            raise ValueError(f"unknown bound method {self.method!r}")
        if self.method == "monte-carlo" and (self.mc_trials is None or self.mc_stderr is None):
            raise ValueError("monte-carlo reports need mc_trials and mc_stderr")
        if self.method != "monte-carlo" and self.mc_stderr is not None:
            raise ValueError(f"{self.method} reports carry no stderr")


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
                  the closed-form expectation algebra; it needs an explicit seed.
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


def _cgs_u(g: SteeringGeometry, d: np.ndarray) -> np.ndarray:
    """u_t of the per-snapshot trace of the finite-T gain bound, for gains d of any shape.

    The bound averages (1/T) sum_t Tr([J_psi_t^equ^-1]_{1:2,1:2}).  J_psi_t^equ =
    J_psi_t - v_t v_t^T / L_t, with v_t = J_theta,psi_t and L_t the leave-one-out
    information of theta_d, is the EFIM of psi_t; its inverse is the psi_t diagonal
    block of the inverse of ``ReorderedFim.assemble()``.  It is a rank-one update of
    J_psi_t, whose inverse is closed-form (``fisher.psi_block_inverse``).  By
    Sherman-Morrison, with chi_t = a^H h_s + M d_t and c = ``SteeringGeometry.c``:

        Tr([J_psi_t^equ^-1]_{1:2,1:2}) = sigma2 (|chi_t|^2 / Delta + 2) / M + |u_t|^2 / J,
        u_t = (a^H b d_t - j chi_t Im{c d_t^*} / Delta) / M,

    where J = L_t - v_t^T J_psi_t^-1 v_t is the full equivalent information of
    theta_d (``fisher._efim_theta``), the same for every t.  With Delta > 0, every
    J_psi_t^equ is positive definite exactly when J > 0.
    """
    m = g.a.shape[-1]
    chi = g.ah + m * d
    return (g.ab * d - 1j * chi * np.imag(g.c * np.conj(d)) / g.delta) / m


# Gauss-Hermite rule for E f(z), z ~ N(0, 1): exact up to degree 5, so for |u_t|^2,
# a quartic in (Re d_t, Im d_t).
_HERMITE_NODES = np.array([-math.sqrt(3.0), 0.0, math.sqrt(3.0)])
_HERMITE_WEIGHTS = np.array([1.0, 4.0, 1.0]) / 6.0

# Step of finite_t_hrcrb_cgs's trapezoid rule in x = ln(s A).  Its integrand is
# analytic and bounded for |Im x| < pi / 2, so the rule's error falls like exp(-pi^2 / step):
# 7e-18 relative at 1/4.
_LOG_STEP = 0.25


def finite_t_hrcrb_cgs(geom: ArrayGeometry, theta: float, h_s: np.ndarray, sigma2: float,
                       t: int, dist: GainDistribution) -> BoundReport:
    """Finite-T per-snapshot CGS bound, by exact quadrature; it converges to AHRCRB_d from above.

    The expectation over circular gains of (1/T) sum_t Tr([J_psi_t^equ^-1]_{1:2,1:2})
    (see ``_cgs_u``).  Its first term averages to AHRCRB_d.  With 1/J = int_0^inf
    e^{-sJ} ds and independent d_t, its second is

        int_0^inf E_s{|u|^2} [(1 + s A)(1 + s B)]^{-T/2} ds,
        A = p_d Gamma / (sigma2 M),   B = p_d (Gamma - Xi / Delta) / (sigma2 M),

    where E_s is over the tilted Gaussian d ~ N(0, (2/p_d I + 2 s Q)^-1), Q the
    quadratic form of J in (Re d, Im d): variance p_d / (2 (1 + s A)) along c and
    p_d / (2 (1 + s B)) along -j c.  E_s takes a 3 x 3 Gauss-Hermite rule, exact
    for the quartic |u|^2.  The s integral takes the trapezoid rule in x = ln(s A),
    z = e^x.  Against a whole of order E_0 / (T A), E_0 = E_0{|u|^2}, the integrand
    is at most z E_0 / A, and above x = 0 at most z^{1 - T/2} min(1, (r z)^{-T/2})
    E_0 / A with r = B / A, so the rule runs from x = -(40 + ln T) to where that
    bound falls to e^-40 / T: each end cuts about e^-40 of the whole.  The nodes do
    not depend on sigma2, and the integral scales as sigma2.  With Xi = Gamma Delta
    to rounding (B = 0, rho = 2) J keeps one direction per snapshot and E{|u|^2 / J}
    diverges for T <= 2, which raises DegenerateBoundError.
    """
    if t < 2:
        raise ValueError(f"need T >= 2, got {t}")
    _check_sigma2(sigma2)
    g = steering_geometry(geom, theta, h_s).checked()
    info = dist.p_d * g.gamma / (sigma2 * geom.m)                  # A
    r = g.gamma_perp / g.gamma                                     # B / A, in [0, 1]
    if r <= COLLINEARITY_RTOL:
        r = 0.0
    # upper end: the smallest x with (T/2 - 1) x + (T/2) max(0, x + ln r) >= 40 + ln T
    edge = 40.0 + math.log(t)
    x_hi = min(edge / (t / 2 - 1) if t > 2 else math.inf,
               (edge - t / 2 * math.log(r)) / (t - 1) if r > 0 else math.inf)
    if x_hi == math.inf:
        raise DegenerateBoundError(
            f"the finite-T gain bound diverges at T={t}: Xi = Gamma Delta (rho = 2) leaves "
            f"the information of theta_d one direction per snapshot, and T <= 2")
    z = np.exp(np.arange(-edge, x_hi + _LOG_STEP, _LOG_STEP))     # s A
    k = _HERMITE_NODES
    unit = g.c / abs(g.c) if g.c != 0 else 1.0
    d = unit * math.sqrt(dist.p_d / 2) * (k[:, None] / np.sqrt(1 + z)[:, None, None]
                                          - 1j * k / np.sqrt(1 + r * z)[:, None, None])
    e_u2 = np.sum(np.abs(_cgs_u(g, d)) ** 2 * np.outer(_HERMITE_WEIGHTS, _HERMITE_WEIGHTS),
                  axis=(1, 2))
    integrand = z * e_u2 * np.exp(-t / 2 * (np.log1p(z) + np.log1p(r * z))) / info
    excess = _LOG_STEP * math.fsum(integrand)
    return BoundReport(value=ahrcrb_cgs(geom, theta, h_s, sigma2, dist.p_d).value + excess,
                       method="quadrature")


def _monte_carlo(per_draw, dist: GainDistribution, trials: int, t: int, seed):
    """Mean over the valid trials of ``per_draw(d) -> (values, valid)``, d the circular
    gain draws (rows, T) of one chunk.

    Each chunk of about ``_CHUNK_ELEMENTS`` gains draws its own (rows, 2, T)
    normals, so the stream is that of one (trials, 2, T) draw at any chunk size.
    Returns (kept, mean, stderr of the mean, discard rate); more than
    MAX_DISCARD_RATE discarded trials raise, and so does seed=None, which would
    draw from OS entropy.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 Monte Carlo trials, got {trials}")
    if seed is None:
        raise ValueError("a Monte Carlo bound needs an explicit seed, got None")
    rng = np.random.default_rng(seed)
    values = np.empty(trials)
    valid = np.empty(trials, dtype=bool)
    step = max(1, _CHUNK_ELEMENTS // t)
    for lo in range(0, trials, step):
        rows = slice(lo, min(lo + step, trials))
        values[rows], valid[rows] = per_draw(
            gains_from_normals(rng.standard_normal((rows.stop - lo, 2, t)), dist))
    # the count is divided last, so a rate exactly at the limit is not rounded past it
    discard_rate = (trials - int(valid.sum())) / trials
    if discard_rate > MAX_DISCARD_RATE:
        raise DegenerateBoundError(
            f"{discard_rate:.2%} of gain draws gave non-positive equivalent information "
            f"of theta_d"
        )
    kept = values[valid]
    mean = math.fsum(kept) / kept.size
    stderr = float(np.std(kept, ddof=1)) / math.sqrt(kept.size)
    return int(kept.size), mean, stderr, discard_rate


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
    rng = np.random.default_rng(seed)
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
