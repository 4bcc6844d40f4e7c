import numpy as np
import pytest

from asyncsense import (ArrayGeometry, BoundReport, ChainCheckReport, CollinearityError,
                        GainDistribution, ScenarioParams, ahrcrb_cgs, finite_t_hrcrb_cgs,
                        hrcrb_theta, reordered_blocks, rho_theta, steering_derivative,
                        steering_vector, verify_hrcrb_chain)
from asyncsense.array_model import gains_from_normals
from asyncsense.fisher import _reordered, steering_geometry


def _orthogonal_h(geom, theta, rng, span_b=True):
    a = steering_vector(geom, theta)
    cols = [a, steering_derivative(geom, theta)] if span_b else [a]
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
        b = steering_derivative(geom, theta)
        lam_ab = (np.outer(a, b) - np.outer(b, a)).ravel()
        lam_ah = (np.outer(a, h_s) - np.outer(h_s, a)).ravel()
        assert dec.gamma == pytest.approx(0.5 * np.vdot(lam_ab, lam_ab).real, rel=1e-12)
        assert dec.delta == pytest.approx(0.5 * np.vdot(lam_ah, lam_ah).real, rel=1e-12)
        xi_wedge = 0.25 * abs(np.vdot(lam_ah, -lam_ab)) ** 2
        # Xi may vanish, so the floor is at rounding level of Gamma Delta
        assert abs(dec.xi - xi_wedge) <= 1e-10 * max(dec.xi, xi_wedge,
                                                     1e-14 * dec.gamma * dec.delta)


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
