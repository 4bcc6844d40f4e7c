import numpy as np
import pytest

from asyncsense import ls_estimate, make_reference_signal, simulate_received, sufficiency_check


def test_reference_signal_scalar_case():
    x = make_reference_signal(1, 1, 1, seed=0)
    assert x.shape == (1, 1, 1) and x.dtype == complex
    assert abs(abs(x[0, 0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("m_t,n,k", [(1, 1, 1), (2, 4, 3), (4, 8, 2), (3, 3, 1)])
def test_reference_signal_semi_unitary(m_t, n, k):
    x = make_reference_signal(m_t, n, k, seed=1)
    for i in range(k):
        gram = x[i] @ x[i].conj().T
        assert np.max(np.abs(gram - np.eye(m_t))) < 1e-12


def test_reference_signal_dimension_error():
    with pytest.raises(ValueError):
        make_reference_signal(4, 3, 1, seed=0)


def test_reference_signal_deterministic():
    a = make_reference_signal(2, 4, 2, seed=9)
    b = make_reference_signal(2, 4, 2, seed=9)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("m_t,n,k", [(2, 4, 2), (3, 7, 5), (4, 16, 64)])
def test_reference_signal_matches_the_per_subcarrier_loop(m_t, n, k):
    # the stream: per subcarrier, the (N, M_T) real parts, then the imaginary parts
    rng = np.random.default_rng(11)
    expected = []
    for _ in range(k):
        g = rng.standard_normal((n, m_t)) + 1j * rng.standard_normal((n, m_t))
        expected.append(np.linalg.qr(g)[0].conj().T)
    x = make_reference_signal(m_t, n, k, seed=11)
    assert x.flags.c_contiguous
    np.testing.assert_array_equal(x, np.array(expected))


def test_simulate_received_noiseless_and_deterministic():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x = make_reference_signal(2, 5, 1, seed=0)[0]
    y = simulate_received(h, x, 0.0, seed=0)
    np.testing.assert_allclose(y, h @ x, atol=1e-15)
    y1 = simulate_received(h, x, 0.3, seed=4)
    y2 = simulate_received(h, x, 0.3, seed=4)
    np.testing.assert_array_equal(y1, y2)
    with pytest.raises(ValueError):
        simulate_received(h, np.zeros((3, 5)), 0.1, seed=0)


def test_simulate_received_noise_variance():
    # pure-noise received block: per-entry complex variance equals sigma2
    x = make_reference_signal(2, 5, 1, seed=0)[0]
    h0 = np.zeros((4, 2))
    samples = np.concatenate([
        simulate_received(h0, x, 1.3, seed=s).ravel() for s in range(5000)
    ])
    assert samples.size == 10 ** 5
    emp = np.mean(np.abs(samples) ** 2)
    assert abs(emp - 1.3) / 1.3 < 0.02


def test_ls_estimate_noiseless_identity():
    # ls_estimate o simulate_received at sigma2=0 is the identity on H
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x = make_reference_signal(2, 6, 1, seed=1)[0]
    h_hat = ls_estimate(simulate_received(h, x, 0.0, seed=0), x)
    assert np.max(np.abs(h_hat - h)) < 1e-12


def test_ls_estimate_is_a_pure_function():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = make_reference_signal(2, 4, 1, seed=2)[0]
    y = simulate_received(h, x, 0.5, seed=3)
    np.testing.assert_array_equal(ls_estimate(y, x), ls_estimate(y.copy(), x))
    # adding and subtracting the clean signal only moves the estimate at rounding level
    np.testing.assert_allclose(ls_estimate(y + h @ x - h @ x, x), ls_estimate(y, x),
                               atol=1e-12)


def test_ls_noise_is_white():
    # cov(vec(Hhat - H)) ~= sigma2 * I for semi-unitary training
    m_r, m_t, n, sigma2, trials = 2, 2, 4, 1.0, 20000
    x = make_reference_signal(m_t, n, 1, seed=5)[0]
    rng = np.random.default_rng(6)
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((trials, m_r, n)) + 1j * rng.standard_normal((trials, m_r, n))
    )
    h_hat = noise @ x.conj().T
    vec = h_hat.reshape(trials, -1)
    cov = vec.conj().T @ vec / trials
    diag = np.diag(cov).real
    assert abs(diag.mean() - sigma2) / sigma2 < 0.02
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 5 * sigma2 / np.sqrt(trials)


def test_ls_entry_variance_many_repetitions():
    m_r, m_t, n = 1, 2, 4
    x = make_reference_signal(m_t, n, 1, seed=7)[0]
    rng = np.random.default_rng(8)
    trials = 10 ** 5
    noise = np.sqrt(0.5) * (
        rng.standard_normal((trials, m_r, n)) + 1j * rng.standard_normal((trials, m_r, n))
    )
    h_hat = noise @ x.conj().T
    emp = np.mean(np.abs(h_hat) ** 2, axis=0)
    assert np.max(np.abs(emp - 1.0)) < 0.02


def test_sufficiency_noiseless():
    rep = sufficiency_check(2, 2, 4, 2, sigma2=0.0, trials=1000, seed=0)
    assert rep.mse_raw <= 1e-27 and rep.mse_csi <= 1e-27
    assert rep.ratio == 1.0


def test_sufficiency_ratio_near_one():
    rep = sufficiency_check(2, 2, 4, 3, sigma2=0.8, trials=10 ** 4, seed=1)
    assert abs(rep.ratio - 1.0) < 0.05
    assert rep.mse_raw > 0 and rep.mse_csi > 0


def test_sufficiency_single_carrier():
    rep = sufficiency_check(2, 2, 4, 1, sigma2=0.5, trials=5000, seed=2)
    assert abs(rep.ratio - 1.0) < 0.05


def test_sufficiency_trial_floor():
    with pytest.raises(ValueError):
        sufficiency_check(2, 2, 4, 1, sigma2=0.5, trials=10, seed=0)


def test_received_block_stacks_subcarriers():
    rng = np.random.default_rng(9)
    x = make_reference_signal(2, 5, 3, seed=8)
    h = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    y = np.stack([simulate_received(h[i], x[i], 0.2, seed=i) for i in range(3)])
    assert y.shape == (3, 4, 5)
    # the stacked LS estimate is the stack of per-subcarrier estimates
    np.testing.assert_array_equal(ls_estimate(y, x),
                                  np.stack([ls_estimate(y[i], x[i]) for i in range(3)]))
