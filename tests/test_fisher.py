import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsense import (ArrayGeometry, CollinearityError, ScenarioParams,
                        SingularMatrixError, constrained_crb, constraint_basis,
                        efim_theta_closed, efim_theta_schur, fim_numeric_oracle, joint_fim,
                        psi_block_inverse, reordered_blocks, steering_vector)
from asyncsense.array_model import _steering_pair
from asyncsense.campaign import random_scenario
from asyncsense.fisher import ParamLayout, steering_geometry


def _assert_fim_close(a, b, rtol):
    scale = np.max(np.abs(a))
    np.testing.assert_allclose(b, a, rtol=rtol, atol=rtol * scale)


def test_layout_roundtrip():
    lay = ParamLayout(3, 4)
    assert lay.dim == 1 + 6 + 12
    rng = np.random.default_rng(0)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = rng.standard_normal(4)
    v = lay.pack(0.3, h, d, phi)
    theta2, h2, d2, phi2 = lay.unpack(v)
    assert theta2 == 0.3
    np.testing.assert_array_equal(h2, h)
    np.testing.assert_array_equal(d2, d)
    np.testing.assert_array_equal(phi2, phi)
    # psi indices pick (Re d_t, Im d_t, phi_t)
    psi = lay.psi_indices()
    assert psi.shape == (4, 3)
    np.testing.assert_array_equal(v[psi], np.column_stack([d.real, d.imag, phi]))


def test_layout_unpacks_rows_like_single_vectors():
    lay = ParamLayout(3, 4)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((2, 5, lay.dim))
    batched = lay.unpack(v)
    for i, j in np.ndindex(2, 5):
        for got, want in zip(batched, lay.unpack(v[i, j])):
            np.testing.assert_array_equal(got[i, j], want)


def _params(seed=7, m=3, t=4, sigma2=0.6):
    rng = np.random.default_rng(seed)
    h_s = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
    d = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2)
    phi = rng.uniform(-1, 1, t)
    return ArrayGeometry(m), ScenarioParams(0.37, h_s, d, phi, sigma2)


def test_joint_fim_identity_blocks():
    geom, params = _params()
    lay = ParamLayout(params.m, params.t)
    j = joint_fim(geom, params).data
    np.testing.assert_allclose(j[lay.h_re, lay.h_re], params.t / params.sigma2 * np.eye(3),
                               atol=1e-12)
    np.testing.assert_allclose(j[lay.h_im, lay.h_im], params.t / params.sigma2 * np.eye(3),
                               atol=1e-12)
    np.testing.assert_allclose(j[lay.d_re, lay.d_re], params.m / params.sigma2 * np.eye(4),
                               atol=1e-12)
    np.testing.assert_allclose(j[lay.d_im, lay.d_im], params.m / params.sigma2 * np.eye(4),
                               atol=1e-12)
    np.testing.assert_allclose(j, j.T, atol=1e-14)


def test_joint_fim_zero_gains_kills_theta_information():
    geom, params0 = _params()
    params = ScenarioParams(params0.theta_d, params0.h_s, np.zeros(4), params0.phi_o, 0.6)
    j = joint_fim(geom, params).data
    assert j[0, 0] == 0.0


def test_joint_fim_requires_positive_sigma2():
    geom, params0 = _params()
    bad = ScenarioParams(params0.theta_d, params0.h_s, params0.d, params0.phi_o, 0.0)
    with pytest.raises(ValueError):
        joint_fim(geom, bad)


def test_joint_fim_matches_numeric_oracle_reference_case():
    # the (M=3, T=4, seed 7) pin
    geom, params = _params(seed=7, m=3, t=4)
    closed = joint_fim(geom, params).data
    oracle = fim_numeric_oracle(geom, params).data
    _assert_fim_close(closed, oracle, rtol=1e-6)


def test_joint_fim_matches_numeric_oracle_random_scenarios():
    rng = np.random.default_rng(42)
    for _ in range(10):
        geom, params = random_scenario(rng)
        _assert_fim_close(joint_fim(geom, params).data,
                          fim_numeric_oracle(geom, params).data, rtol=1e-6)


def test_numeric_oracle_equals_one_step_at_a_time():
    # the batched central differences against a loop over single steps, bit for bit
    rng = np.random.default_rng(8)
    step = 1e-6
    for _ in range(20):
        geom, params = random_scenario(rng, m_range=(2, 8), t_range=(2, 12))
        lay = ParamLayout(params.m, params.t)
        v0 = lay.pack(params.theta_d, params.h_s, params.d, params.phi_o)

        def mean(v):
            theta_d, h_s, d, phi_o = lay.unpack(v)
            a = steering_vector(geom, theta_d)
            return ((h_s[:, None] + np.outer(a, d)) * np.exp(1j * phi_o)[None, :]).ravel()

        jac = np.empty((params.m * params.t, lay.dim), dtype=complex)
        for i in range(lay.dim):
            vp, vm = v0.copy(), v0.copy()
            vp[i] += step
            vm[i] -= step
            jac[:, i] = (mean(vp) - mean(vm)) / (2 * step)
        want = (2.0 / (2.0 * params.sigma2)) * np.real(jac.conj().T @ jac)
        np.testing.assert_array_equal(fim_numeric_oracle(geom, params, step).data, want)


def test_numeric_oracle_uses_no_closed_form(monkeypatch):
    import asyncsense.fisher as fisher_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not read a closed form")

    geom, params = _params(seed=3, m=4, t=5)
    want = fim_numeric_oracle(geom, params).data
    for name in ("joint_fim", "_reordered", "steering_geometry", "_steering_pair"):
        monkeypatch.setattr(fisher_mod, name, forbidden)
    np.testing.assert_array_equal(fim_numeric_oracle(geom, params).data, want)


def test_numeric_oracle_zero_gains_and_symmetry():
    geom, params0 = _params()
    params = ScenarioParams(params0.theta_d, params0.h_s, np.zeros(4), params0.phi_o, 0.6)
    o = fim_numeric_oracle(geom, params).data
    assert abs(o[0, 0]) < 1e-10
    assert np.max(np.abs(o - o.T)) < 1e-10 * np.max(np.abs(o))


def test_joint_fim_symmetric_psd_bulk():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        geom, params = random_scenario(rng)
        j = joint_fim(geom, params).data
        assert np.max(np.abs(j - j.T)) <= 1e-10 * np.max(np.abs(j))
        eig = np.linalg.eigvalsh(j)
        assert eig[0] >= -1e-8 * eig[-1]


def test_joint_fim_known_nullspace():
    # the three identifiability ambiguities are exact null directions
    rng = np.random.default_rng(3)
    for _ in range(50):
        geom, params = random_scenario(rng)
        lay = ParamLayout(params.m, params.t)
        j = joint_fim(geom, params).data
        eig = np.linalg.eigvalsh(j)
        assert eig[0] >= -1e-8 * eig[-1]
        a = steering_vector(geom, params.theta_d)
        ones = np.ones(params.t)
        # common phase: (h_s, d) rotate while phi shifts; the mean is unchanged
        v_phase = np.concatenate([[0.0], np.imag(params.h_s), -np.real(params.h_s),
                                  np.imag(params.d), -np.real(params.d), ones])
        v_re = np.concatenate([[0.0], -np.real(a), -np.imag(a), ones, np.zeros(params.t),
                               np.zeros(params.t)])
        v_im = np.concatenate([[0.0], np.imag(a), -np.real(a), np.zeros(params.t), ones,
                               np.zeros(params.t)])
        scale = np.max(np.abs(j))
        for v in (v_phase, v_re, v_im):
            assert np.max(np.abs(j @ v)) < 1e-9 * scale * max(1.0, np.linalg.norm(v))


def test_constraint_basis_orthonormal_and_annihilating():
    for t in (2, 3, 8, 64):
        basis = constraint_basis(5, t)
        u = basis.u
        assert u.shape == (1 + 10 + 3 * t, 1 + 10 + 3 * (t - 1))
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        lay = ParamLayout(5, t)
        for block in (lay.d_re, lay.d_im, lay.phi):
            g = np.zeros(u.shape[0])
            g[block] = 1.0
            assert np.max(np.abs(g @ u)) < 1e-12


def test_constraint_basis_hand_column_t4():
    # hand expansion: column = permutations of (-5/6, 1/6, 1/6, 1/2)
    basis = constraint_basis(2, 4)
    lay = ParamLayout(2, 4)
    u_sub = basis.u[lay.d_re, 1 + 4: 1 + 4 + 3]
    col0 = u_sub[:, 0]
    np.testing.assert_allclose(col0, [-5 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-15)
    assert abs(np.dot(col0, col0) - 1.0) < 1e-15
    assert abs(np.dot(u_sub[:, 0], u_sub[:, 1])) < 1e-15
    assert abs(col0.sum()) < 1e-15


def test_constraint_basis_needs_two_snapshots():
    with pytest.raises(ValueError):
        constraint_basis(3, 1)


def test_constrained_crb_leaves_the_dense_basis_unbuilt():
    rng = np.random.default_rng(8)
    geom, params = random_scenario(rng, m_range=(3, 3), t_range=(6, 6))
    basis = constraint_basis(params.m, params.t)
    constrained_crb(joint_fim(geom, params), basis)
    assert "u" not in basis.__dict__
    assert basis.u is basis.u          # built once, on first access


def test_constrained_crb_projector_for_identity():
    from asyncsense.fisher import FimMatrix
    lay = ParamLayout(2, 3)
    basis = constraint_basis(2, 3)
    crb = constrained_crb(FimMatrix(np.eye(lay.dim), lay), basis)
    np.testing.assert_allclose(crb, basis.u @ basis.u.T, atol=1e-12)


def test_constrained_crb_annihilates_constraint_gradients_and_is_psd():
    rng = np.random.default_rng(5)
    geom, params = random_scenario(rng, m_range=(3, 3), t_range=(4, 4))
    fim = joint_fim(geom, params)
    basis = constraint_basis(params.m, params.t)
    crb = constrained_crb(fim, basis)
    lay = fim.layout
    for block in (lay.d_re, lay.d_im, lay.phi):
        g = np.zeros(lay.dim)
        g[block] = 1.0
        assert np.max(np.abs(crb @ g)) < 1e-9 * np.max(np.abs(crb))
    eig = np.linalg.eigvalsh(crb)
    assert eig[0] >= -1e-8 * eig[-1]


def test_constrained_crb_singularity_error_names_eigenvalue():
    from asyncsense.fisher import FimMatrix
    lay = ParamLayout(2, 3)
    basis = constraint_basis(2, 3)
    with pytest.raises(SingularMatrixError, match="eigenvalue"):
        constrained_crb(FimMatrix(np.zeros((lay.dim, lay.dim)), lay), basis)


def _dense_constrained_crb(fim, basis):
    """Oracle: U (U^T J U)^{-1} U^T with dense products and a dense solve."""
    u = basis.u
    core = u.T @ fim.data @ u
    core = 0.5 * (core + core.T)
    crb = u @ np.linalg.solve(core, u.T)
    return 0.5 * (crb + crb.T)


def _assert_crb_matches_dense(fim):
    basis = constraint_basis(fim.layout.m, fim.layout.t)
    crb = constrained_crb(fim, basis)
    ref = _dense_constrained_crb(fim, basis)
    assert np.max(np.abs(crb - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.array_equal(crb, crb.T)
    assert crb[0, 0] >= 1.0 / fim.data[0, 0]


def test_constrained_crb_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for t in (2, 3, 4, 8, 64):
        for _ in range(5):
            geom, params = random_scenario(rng, m_range=(2, 6), t_range=(t, t))
            _assert_crb_matches_dense(joint_fim(geom, params))


def test_constrained_crb_matches_dense_oracle_on_numeric_fim():
    rng = np.random.default_rng(14)
    for _ in range(5):
        geom, params = random_scenario(rng)
        _assert_crb_matches_dense(fim_numeric_oracle(geom, params))


def test_constrained_crb_rejects_coupling_across_snapshots():
    from asyncsense.fisher import FimMatrix
    geom, params = _params()
    fim = joint_fim(geom, params)
    lay = fim.layout
    data = fim.data.copy()
    row, col = lay.psi_indices()[1, 2], lay.psi_indices()[3, 0]
    data[row, col] = data[col, row] = 1e-3
    with pytest.raises(ValueError, match=rf"J\[{min(row, col)}, {max(row, col)}\]"):
        constrained_crb(FimMatrix(data, lay), constraint_basis(lay.m, lay.t))


class _SnapshotMajorLayout(ParamLayout):
    """psi stored snapshot by snapshot: (Re d_0, Im d_0, phi_0, Re d_1, ...)."""

    def psi_indices(self) -> np.ndarray:
        return 1 + 2 * self.m + np.arange(3 * self.t).reshape(self.t, 3)


def test_constrained_crb_reads_the_psi_order_from_the_layout():
    # the same J in another psi order gives the same CRB in that order
    from asyncsense.fisher import FimMatrix
    rng = np.random.default_rng(15)
    for t in (2, 3, 8, 64):
        for _ in range(4):
            geom, params = random_scenario(rng, m_range=(2, 6), t_range=(t, t))
            fim = joint_fim(geom, params)
            lay = _SnapshotMajorLayout(params.m, params.t)
            order = np.empty(lay.dim, dtype=int)
            order[lay.psi_indices()] = fim.layout.psi_indices()
            order[:1 + 2 * lay.m] = np.arange(1 + 2 * lay.m)
            want = constrained_crb(fim, constraint_basis(lay.m, t))[np.ix_(order, order)]
            got = constrained_crb(FimMatrix(fim.data[np.ix_(order, order)], lay),
                                  constraint_basis(lay.m, t))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_constrained_crb_near_collinear_as_accurate_as_dense():
    # Delta/scale ~ 1e-6: the snapshot blocks have condition ~ 1e8, and a
    # Schur complement built from explicit D_t^-1 is off by ~1e-5 here
    geom, params0 = _params()
    rng = np.random.default_rng(8)
    nudge = rng.standard_normal(params0.m) + 1j * rng.standard_normal(params0.m)
    h_s = (0.8 - 0.3j) * steering_vector(geom, params0.theta_d) + 1e-3 * nudge
    params = ScenarioParams(params0.theta_d, h_s, params0.d, params0.phi_o, params0.sigma2)
    fim = joint_fim(geom, params)
    basis = constraint_basis(params.m, params.t)
    crb = constrained_crb(fim, basis)
    ref = _dense_constrained_crb(fim, basis)
    assert np.max(np.abs(crb - ref)) <= 1e-8 * np.max(np.abs(ref))
    assert abs(crb[0, 0] - ref[0, 0]) <= 1e-8 * ref[0, 0]


def test_constrained_crb_collinear_static_channel_is_singular():
    geom, params0 = _params()
    h_s = (0.8 - 0.3j) * steering_vector(geom, params0.theta_d)
    params = ScenarioParams(params0.theta_d, h_s, params0.d, params0.phi_o, params0.sigma2)
    with pytest.raises(SingularMatrixError, match="smallest eigenvalue"):
        constrained_crb(joint_fim(geom, params), constraint_basis(params.m, params.t))


def test_reordered_blocks_structure():
    geom, params = _params()
    ro = reordered_blocks(geom, params)
    m, s2 = geom.m, params.sigma2
    for j_psi in ro.j_psi:
        assert j_psi[0, 0] == pytest.approx(m / s2)
        assert j_psi[1, 1] == pytest.approx(m / s2)
        np.testing.assert_allclose(j_psi, j_psi.T, atol=1e-14)


def test_reordered_blocks_zero_signal_phi_entry():
    geom = ArrayGeometry(3)
    params = ScenarioParams(0.2, np.zeros(3), np.zeros(4), np.zeros(4), 1.0)
    ro = reordered_blocks(geom, params)
    assert ro.j_psi[0][2, 2] == 0.0


def test_reordered_blocks_match_oracle_submatrix():
    # conditioning on h_s = dropping its rows/cols from the joint oracle
    rng = np.random.default_rng(9)
    for _ in range(5):
        geom, params = random_scenario(rng, m_range=(3, 5), t_range=(2, 5))
        lay = ParamLayout(params.m, params.t)
        oracle = fim_numeric_oracle(geom, params).data
        ro = reordered_blocks(geom, params)
        scale = np.max(np.abs(oracle))
        for t in range(params.t):
            idx = lay.psi_indices()[t]
            np.testing.assert_allclose(ro.j_psi[t], oracle[np.ix_(idx, idx)],
                                       rtol=1e-6, atol=1e-6 * scale)
            np.testing.assert_allclose(ro.j_theta_psi[t], oracle[0, idx],
                                       rtol=1e-6, atol=1e-6 * scale)
        assert ro.j_theta_theta == pytest.approx(oracle[0, 0], rel=1e-6)


def test_assemble_matches_joint_reordering():
    # the theta and psi entries of the joint FIM are the reordered blocks, bit for bit
    rng = np.random.default_rng(16)
    for geom, params in [_params()] + [random_scenario(rng, m_range=(2, 8), t_range=(2, 9))
                                       for _ in range(50)]:
        lay = ParamLayout(params.m, params.t)
        ri = np.concatenate([[lay.theta], lay.psi_indices().ravel()])
        assert np.array_equal(joint_fim(geom, params).data[np.ix_(ri, ri)],
                              reordered_blocks(geom, params).assemble())


def test_psi_block_inverse_is_exact_inverse():
    geom, params = _params()
    ro = reordered_blocks(geom, params)
    for t in range(params.t):
        inv = psi_block_inverse(geom, params, t)
        np.testing.assert_allclose(inv @ ro.j_psi[t], np.eye(3), atol=1e-10)


def test_psi_block_inverse_matches_generic_inverse():
    rng = np.random.default_rng(10)
    for _ in range(100):
        geom, params = random_scenario(rng, t_range=(2, 4))
        ro = reordered_blocks(geom, params)
        t = int(rng.integers(params.t))
        closed = psi_block_inverse(geom, params, t)
        generic = np.linalg.inv(ro.j_psi[t])
        np.testing.assert_allclose(closed, generic, rtol=1e-8,
                                   atol=1e-10 * np.max(np.abs(generic)))


def test_psi_block_inverse_collinear_raises():
    geom = ArrayGeometry(4)
    a = steering_vector(geom, 0.3)
    params = ScenarioParams(0.3, 2.0 * a, np.full(3, 0.1 + 0.1j), np.zeros(3), 1.0)
    reordered_blocks(geom, params)          # the blocks themselves accept collinear input
    with pytest.raises(CollinearityError):
        psi_block_inverse(geom, params, 0)


def test_efim_theta_three_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(25):
        geom, params = random_scenario(rng, m_range=(3, 6), t_range=(2, 6))
        schur = efim_theta_schur(geom, params)
        closed = efim_theta_closed(geom, params)
        full = reordered_blocks(geom, params).assemble()
        via_inv = 1.0 / np.linalg.inv(full)[0, 0]
        assert schur == pytest.approx(closed, rel=1e-10)
        assert schur == pytest.approx(via_inv, rel=1e-10)


def test_efim_theta_zero_gains():
    geom = ArrayGeometry(3)
    rng = np.random.default_rng(12)
    h_s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    params = ScenarioParams(0.1, h_s, np.zeros(4), np.zeros(4), 0.5)
    assert efim_theta_schur(geom, params) == pytest.approx(0.0, abs=1e-12)
    assert efim_theta_closed(geom, params) == pytest.approx(0.0, abs=1e-12)


def test_efim_theta_closed_orthogonal_static_channel():
    # h_s orthogonal to both a and b: the correction term vanishes
    geom = ArrayGeometry(5)
    theta = 0.4
    a = steering_vector(geom, theta)
    b = _steering_pair(geom, theta)[1]
    q, _ = np.linalg.qr(np.column_stack([a, b]))
    rng = np.random.default_rng(13)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h -= q @ (q.conj().T @ h)
    d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    params = ScenarioParams(theta, h, d, np.zeros(6), 0.7)
    gamma = 5 * np.vdot(b, b).real - abs(np.vdot(a, b)) ** 2
    expected = np.vdot(d, d).real * gamma / (0.7 * 5)
    assert efim_theta_closed(geom, params) == pytest.approx(expected, rel=1e-12)


def test_efim_theta_scales_inversely_with_sigma2():
    geom, params = _params(sigma2=1.0)
    hot = ScenarioParams(params.theta_d, params.h_s, params.d, params.phi_o, 4.0)
    assert efim_theta_closed(geom, hot) == pytest.approx(efim_theta_closed(geom, params) / 4.0,
                                                         rel=1e-12)


_GEOMETRY_FIELDS = ("a", "b", "ab", "ah", "bh", "c", "gamma", "delta", "xi", "scale")


def _row(g, field, i=()):
    return np.asarray(getattr(g, field))[i].tobytes()


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 16), spacing=st.sampled_from([0.5, 0.23, 0.71, 1.3]),
       n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1), offset=st.integers(0, 7))
def test_steering_geometry_rows_equal_unbatched_calls(m, spacing, n, seed, offset):
    # bit for bit: no field of a row may depend on the other rows of its batch
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(m, spacing)
    theta = rng.uniform(-1.5, 1.5, n)
    h_s = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    h_s[::2] = 0.9 * steering_vector(geom, theta[::2]) + 10.0 ** -offset * h_s[::2]
    g = steering_geometry(geom, theta, h_s)
    assert g.a.shape == g.b.shape == (n, m) and g.delta.shape == g.c.shape == (n,)
    for i in range(n):
        one = steering_geometry(geom, float(theta[i]), h_s[i])
        assert _row(one, "a") == steering_vector(geom, float(theta[i])).tobytes()
        for field in _GEOMETRY_FIELDS:
            assert _row(g, field, i) == _row(one, field), field


def test_steering_geometry_takes_any_leading_axes():
    rng = np.random.default_rng(21)
    geom = ArrayGeometry(5, 0.37)
    theta = rng.uniform(-1.4, 1.4, (2, 3))
    h_s = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
    grid = steering_geometry(geom, theta, h_s)
    flat = steering_geometry(geom, theta.ravel(), h_s.reshape(6, 5))
    for field in _GEOMETRY_FIELDS:
        assert getattr(grid, field).shape[:2] == (2, 3)
        assert getattr(grid, field).tobytes() == getattr(flat, field).tobytes(), field
    with pytest.raises(ValueError, match="does not match geometry m=5"):
        steering_geometry(geom, theta, h_s[..., :4])
    with pytest.raises(ValueError, match="theta must lie"):
        steering_geometry(geom, np.array([0.2, np.pi / 2, 0.1]), h_s[0])


def test_checked_batch_raises_on_any_collinear_row_and_drops_none():
    rng = np.random.default_rng(22)
    geom = ArrayGeometry(6, 0.4)
    theta = rng.uniform(-1.2, 1.2, 5)
    h_s = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    g = steering_geometry(geom, theta, h_s)
    assert g.checked() is g and g.delta.shape == (5,)
    h_s[3] = (0.8 - 0.2j) * steering_vector(geom, theta[3])
    g = steering_geometry(geom, theta, h_s)
    ratio = g.delta / g.scale
    assert np.argmin(ratio) == 3 and ratio[3] < 1e-15
    with pytest.raises(CollinearityError, match=r"in 1 of 5 row\(s\)") as err:
        g.checked()
    assert f"smallest Delta/scale {ratio.min():.3e}" in str(err.value)
    h_s[3] = np.nan
    with pytest.raises(CollinearityError, match=r"in 1 of 5 row\(s\)"):
        steering_geometry(geom, theta, h_s).checked()


def _mp_dot(x, y):
    return mpmath.fsum(mpmath.conj(p) * q for p, q in zip(x, y))


def _geometry_mpmath(geom, theta, h_s, dps=50):
    """Delta, c and Xi by their definitions in dps-digit arithmetic, a(theta) exact."""
    with mpmath.workdps(dps):
        k = range(geom.m)
        phase = 2 * mpmath.pi * mpmath.mpf(geom.spacing)
        a = [mpmath.expj(phase * i * mpmath.sin(theta)) for i in k]
        b = [1j * phase * i * mpmath.cos(theta) * a[i] for i in k]
        h = [mpmath.mpc(complex(x)) for x in h_s]
        delta = _mp_dot(a, a).real * _mp_dot(h, h).real - abs(_mp_dot(a, h)) ** 2
        c = _mp_dot(b, a) * _mp_dot(a, h) - _mp_dot(a, a) * _mp_dot(b, h)
        return delta, c, abs(c) ** 2


@pytest.mark.parametrize("ratio", [4e-12, 2e-8])
def test_steering_geometry_near_collinear_matches_mpmath(ratio):
    # theta = 0 makes a exactly all-ones, so the double and the 50-digit a agree
    geom = ArrayGeometry(8)
    a = steering_vector(geom, 0.0)
    rng = np.random.default_rng(23)
    for _ in range(5):
        e = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        e -= a * np.vdot(a, e) / 8
        e /= np.linalg.norm(e)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        h_s = alpha * a + abs(alpha) * np.sqrt(ratio * 8) * e
        g = steering_geometry(geom, 0.0, h_s).checked()
        assert 0.5 * ratio < g.delta / g.scale < 2 * ratio
        delta, c, xi = _geometry_mpmath(geom, 0, h_s)
        assert abs(g.delta - delta) <= 1e-10 * delta
        assert abs(g.xi - xi) <= 1e-10 * xi
        assert abs(g.c - complex(c)) <= 1e-10 * abs(c)


def test_gamma_closed_form_matches_its_definition():
    rng = np.random.default_rng(24)
    for m in range(2, 17):
        for spacing in (0.5, 0.23, 1.3):
            geom = ArrayGeometry(m, spacing)
            theta = float(rng.uniform(-1.5, 1.5))
            g = steering_geometry(geom, theta, np.ones(m))
            with mpmath.workdps(30):
                a = [mpmath.mpc(complex(x)) for x in g.a]
                b = [mpmath.mpc(complex(x)) for x in g.b]
                ab = _mp_dot(a, b)
                gamma = _mp_dot(a, a).real * _mp_dot(b, b).real - abs(ab) ** 2
                assert abs(g.gamma - gamma) <= 1e-13 * gamma
                assert abs(g.ab - complex(ab)) <= 1e-13 * abs(ab)
