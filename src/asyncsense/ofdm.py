"""Raw-signal training layer: semi-unitary reference signals and LS CSI extraction.

Per subcarrier k the receiver observes

    Y_k = H_k @ X_k + N_k

with a semi-unitary training matrix (X_k X_k^H = I), and extracts the CSI by
least squares, Hhat_k = Y_k X_k^H.  Semi-unitarity makes the LS estimation
noise white with the same per-entry variance as the raw noise, which is what
makes the CSI a lossless (sufficient) summary of Y for the channel parameters.

Note: in this module sigma2 is the variance of a complex noise ENTRY (the raw
receiver noise floor), unlike the per-component convention of the CSI-domain
modules; the two layers have independent noise parameters.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SufficiencyReport:
    """Raw-vs-CSI matched-estimator comparison; lossless CSI predicts ratio ~ 1."""

    mse_raw: float
    mse_csi: float
    ratio: float
    trials: int


def make_reference_signal(m_t: int, n: int, k: int, seed) -> np.ndarray:
    """K random semi-unitary training matrices (orthonormal rows, via QR) as one
    C-contiguous complex stack of shape (K, M_T, N)."""
    if n < m_t:
        raise ValueError(f"need N >= M_T, got N={n}, M_T={m_t}")
    if k < 1:
        raise ValueError(f"subcarrier count must be >= 1, got {k}")
    z = np.random.default_rng(seed).standard_normal((k, 2, n, m_t))
    q, _ = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    return np.ascontiguousarray(q.conj().swapaxes(1, 2))


def simulate_received(h_k: np.ndarray, x_k: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """One subcarrier: Y_k = H_k X_k + noise, noise variance sigma2 per complex entry."""
    h_k = np.asarray(h_k, dtype=complex)
    x_k = np.asarray(x_k, dtype=complex)
    if h_k.shape[1] != x_k.shape[0]:
        raise ValueError(f"channel {h_k.shape} incompatible with training {x_k.shape}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    rng = np.random.default_rng(seed)
    shape = (h_k.shape[0], x_k.shape[1])
    noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return h_k @ x_k + noise


def ls_estimate(y_k: np.ndarray, x_k: np.ndarray) -> np.ndarray:
    """LS CSI estimate Hhat_k = Y_k X_k^H (exact inverse for semi-unitary X_k).

    Leading axes of Y_k and X_k broadcast, so stacks of subcarriers (and trials)
    are estimated in one call.
    """
    x_k = np.asarray(x_k, dtype=complex)
    return np.asarray(y_k, dtype=complex) @ np.swapaxes(x_k.conj(), -1, -2)


def sufficiency_check(m_r: int, m_t: int, n: int, k: int, sigma2: float,
                      trials: int, seed) -> SufficiencyReport:
    """Compare matched estimation of a scalar channel gain from raw Y and from LS CSI.

    The channel is s * H_dir with known direction H_dir and unknown real gain s.
    Both estimators are the matched (ML) projections in their respective
    domains; with semi-unitary training the CSI route preserves the full
    information of the raw route, so the MSE ratio concentrates at 1.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a stable ratio, got {trials}")
    rng = np.random.default_rng(seed)
    x = make_reference_signal(m_t, n, k, rng)
    h_dir = rng.standard_normal((k, m_r, m_t)) + 1j * rng.standard_normal((k, m_r, m_t))
    h_dir /= np.sqrt(np.sum(np.abs(h_dir) ** 2))
    s_true = 1.0

    hx = h_dir @ x                                       # (K, M_R, N)
    e_raw = np.sum(np.abs(hx) ** 2)                      # equals |H_dir|^2 for semi-unitary X
    e_csi = np.sum(np.abs(h_dir) ** 2)

    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal((trials, k, m_r, n)) + 1j * rng.standard_normal((trials, k, m_r, n))
    )
    y = s_true * hx[None] + noise                        # (trials, K, M_R, N)

    # matched/ML estimate straight from the raw received block
    s_raw = np.real(np.sum(hx.conj()[None] * y, axis=(1, 2, 3))) / e_raw
    # matched/ML estimate from the LS CSI, computed through its own route
    h_hat = ls_estimate(y, x)                            # (trials, K, M_R, M_T)
    s_csi = np.real(np.sum(h_dir.conj()[None] * h_hat, axis=(1, 2, 3))) / e_csi

    mse_raw = float(np.mean((s_raw - s_true) ** 2))
    mse_csi = float(np.mean((s_csi - s_true) ** 2))
    # noiseless blocks leave only rounding residue in both routes
    floor = (100 * np.finfo(float).eps * abs(s_true)) ** 2
    if mse_raw <= floor and mse_csi <= floor:
        ratio = 1.0
    else:
        ratio = mse_raw / mse_csi
    return SufficiencyReport(mse_raw=mse_raw, mse_csi=mse_csi, ratio=float(ratio), trials=trials)
