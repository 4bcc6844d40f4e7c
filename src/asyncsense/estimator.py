"""Reference dynamic-path estimation pipeline.

Six stages applied to one CSI block H (M x T):

1. AoA by spectral MUSIC on the sample covariance H H^H / T (two-dimensional
   signal subspace: static channel plus dynamic steering vector): a^H P_n a scanned
   over GRID_POINTS cell-centre angles, then Newton steps to its minimiser.
2. Beamspace split: A = a(theta_hat)/|a(theta_hat)|, B = orthonormal basis of
   its nullspace (the last M-1 columns of the Householder reflector that maps
   A to -e_0).
3. Nullspace projection H_p = B^H H removes the dynamic component.
4. Phase offsets: maximal-ratio combining of H_p with its principal left
   singular vector (the top eigenvector of H_p H_p^H), angles unwrapped along
   time, mean removed.
5. Phase compensation H_c = H diag(exp(-j phi_hat)).
6. Gain combining d_hat = A^H H_c / |a(theta_hat)| followed by DC removal, so
   d_hat carries the model's units (the sqrt(M) combining gain is divided out).

The pseudospectrum peak is disambiguated between the dynamic and static
directions by the temporal magnitude variance of the beam series: under pure
phase offsets the static projection has constant magnitude while the dynamic
path modulates it.

Every stage works on a stack of n blocks, shape (n, M, T), with per-block
LAPACK and BLAS calls, so a block's result does not depend on which other
blocks share its stack.  :func:`estimate_batch` runs the pipeline on a stack;
:func:`run_estimator` and the four stage functions run it as a stack of one.
"""

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .array_model import ArrayGeometry, CsiBlock, _steering_pair, steering_vector
from .exceptions import DegenerateProjectionError, EstimationStageError

# The model has exactly a static and a dynamic path, so the signal subspace
# has two dimensions and the disambiguation step picks between two peaks.
_SOURCES = 2

# Diagnostic-only threshold on mean(signal eigenvalues) / mean(noise
# eigenvalues) below which the block is flagged as having no dominant gap.
_EIGEN_GAP_THRESHOLD = 2.0

# The phase stage fails when the projection's largest singular value is at
# most this fraction of |H|_F.
_DEGENERATE_PROJECTION = 1e-10
_DEGENERATE_MESSAGE = ("nullspace projection carries no static-path energy "
                       "(static channel parallel to the estimated beam?)")

_TINY = np.finfo(float).tiny

# The MUSIC angle grid's size.
GRID_POINTS = 2048


@dataclass(frozen=True)
class MusicDiagnostics:
    """MUSIC's outcome for a stack of n blocks, one row per block; ``diag[k]`` is block k's.

    The peak columns hold the two highest maxima, highest first; a block with
    one maximum repeats it in the second column with variance -inf.
    """

    eigenvalues: np.ndarray          # (n, M), ascending
    peak_angles: np.ndarray          # (n, 2)
    peak_heights: np.ndarray         # (n, 2)
    peak_variances: np.ndarray       # (n, 2) beam-magnitude variance used to disambiguate
    eigen_gap_ratio: np.ndarray      # (n,)
    refined: np.ndarray              # (n,) False where Newton ended on its window's edge

    @property
    def has_dominant_gap(self):
        return self.eigen_gap_ratio > _EIGEN_GAP_THRESHOLD

    def __getitem__(self, k):
        return MusicDiagnostics(*(getattr(self, f.name)[k] for f in fields(self)))


@dataclass(frozen=True)
class EstimateResult:
    """Pipeline output; phi_hat and d_hat are zero-mean by construction."""

    theta_hat: float
    phi_hat: np.ndarray
    d_hat: np.ndarray
    diagnostics: MusicDiagnostics = field(repr=False, default=None)


@dataclass(frozen=True)
class BatchEstimate:
    """Pipeline output for a stack of n blocks, one row per block.

    ``errors[k]`` is the stage-tagged failure of block k, or None.  Rows of
    failed blocks hold NaN in ``phi_hat`` and ``d_hat``; when a stage raised,
    they hold NaN in ``theta_hat`` and in the ``diagnostics`` arrays too.
    """

    theta_hat: np.ndarray            # (n,)
    phi_hat: np.ndarray              # (n, T)
    d_hat: np.ndarray                # (n, T)
    diagnostics: MusicDiagnostics
    errors: tuple

    def result(self, k: int) -> EstimateResult:
        return EstimateResult(theta_hat=float(self.theta_hat[k]), phi_hat=self.phi_hat[k],
                              d_hat=self.d_hat[k], diagnostics=self.diagnostics[k])


@functools.lru_cache(maxsize=8)
def _aoa_grid(m: int, spacing: float):
    """Cell-centre angle grid on (-pi/2, pi/2), its steering vectors (grid, M) and the scan's
    table [Re; -Im] of their columns 1..M-1 (2(M-1) x grid); read-only."""
    step = np.pi / GRID_POINTS
    grid = -np.pi / 2 + (np.arange(GRID_POINTS) + 0.5) * step
    manifold = steering_vector(ArrayGeometry(m, spacing), grid)
    table = np.concatenate([manifold[:, 1:].real, -manifold[:, 1:].imag], axis=1).T.copy()
    for arr in (grid, manifold, table):
        arr.setflags(write=False)
    return grid, manifold, table


def _hermitian(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return x.conj().transpose(0, 2, 1)


def _local_maxima(spectrum: np.ndarray):
    """(row, column) of every local maximum of the spectrum rows, in row-major order.

    A local maximum is a sample, or the middle (rounded down) of a run of equal
    samples, that rises from the sample before it and falls to the sample after
    it.  The first and last samples never count; a NaN neighbour breaks a maximum.
    """
    # the rows as one sequence, each closed by a NaN that neither rises nor falls
    x = np.concatenate([spectrum, np.full((len(spectrum), 1), np.nan)], axis=1).ravel()
    up = x[:-1] < x[1:]
    top = np.flatnonzero(up[:-1] & ~up[1:]) + 1
    # a top followed by equal samples jumps to the last sample of its flat run
    flat = np.flatnonzero(x[:-1] == x[1:])
    run_end = flat[np.diff(flat, append=x.size) != 1] + 1
    right = top.copy()
    plateau = x[top] == x[top + 1]
    right[plateau] = run_end[np.searchsorted(run_end, top[plateau])]
    falls = x[right] > x[right + 1]
    return np.divmod((top[falls] + right[falls]) // 2, spectrum.shape[1] + 1)


def _select_peaks(spectrum: np.ndarray):
    """(index, valid), both (n, 2): the two highest local maxima of each row, highest
    first, equal heights lower index first.  ``valid`` is True on a prefix of each
    row; a row with one maximum repeats it, and a row with none takes its argmax.
    """
    n = len(spectrum)
    row, col = _local_maxima(spectrum)
    order = np.lexsort((-spectrum[row, col], row))     # stable: ties keep index order
    row, col = row[order], col[order]
    count = np.bincount(row, minlength=n)
    first = np.cumsum(count) - count
    some, two = count > 0, count > 1
    index = np.empty((n, _SOURCES), dtype=np.intp)
    index[some, 0] = col[first[some]]
    index[~some, 0] = np.argmax(spectrum[~some], axis=1)
    index[:, 1] = index[:, 0]
    index[two, 1] = col[first[two] + 1]
    return index, np.stack([np.ones(n, dtype=bool), two], axis=1)


def _newton(e_n: np.ndarray, geom: ArrayGeometry, grid: np.ndarray, best: np.ndarray):
    """Three Newton steps on f = |E_n^H a(theta)|^2 from the nodes ``best``: (theta, refined).

    With v = E_n^H a, f'/2 = Re(v'^H v) and f''/2 = |v'|^2 + Re(v''^H v), and no step
    where f'' <= 0.  Iterates are clipped to one grid step either side of the node and to
    [grid[0], grid[-1]]; refined is False where the last one is on that window's edge.
    """
    theta, step, e_conj = grid[best], grid[1] - grid[0], e_n.conj()
    lo, hi = np.maximum(theta - step, grid[0]), np.minimum(theta + step, grid[-1])
    for _ in range(3):
        a, da = _steering_pair(geom, theta)
        dda = geom.phase_ramp * (np.cos(theta)[:, None] * da - np.sin(theta)[:, None] * a)
        # rows (E_n^H a, E_n^H a', E_n^H a''), real and imaginary parts interleaved
        v, dv, ddv = np.moveaxis((np.stack([a, da, dda], axis=1) @ e_conj).view(float), 1, 0)
        grad, curv = np.add.reduce(dv * v, axis=-1), np.add.reduce(dv * dv + ddv * v, axis=-1)
        theta = np.clip(theta - np.where(curv > 0, grad, 0.0) / np.where(curv > 0, curv, 1.0),
                        lo, hi)
    return theta, (theta > lo) & (theta < hi)


def _music(h: np.ndarray, geom: ArrayGeometry):
    """MUSIC on a stack of blocks; returns (theta_hat (n,), MusicDiagnostics)."""
    n, m, t = h.shape
    if m != geom.m:
        raise ValueError(f"CSI has {m} rows but geometry says m={geom.m}")
    if m <= _SOURCES:
        raise ValueError(f"need m > {_SOURCES} antennas for a noise subspace, got m={m}")
    if t < 3:
        raise ValueError(f"need at least 3 snapshots, got {t}")
    cov = h @ _hermitian(h) / t
    eigval, eigvec = np.linalg.eigh(cov)
    noise_dim = m - _SOURCES

    noise_floor = np.maximum(eigval[:, :noise_dim].mean(axis=1), _TINY)
    with np.errstate(over="ignore"):
        gap_ratio = eigval[:, noise_dim:].mean(axis=1) / noise_floor

    grid, manifold, table = _aoa_grid(geom.m, geom.spacing)
    # a^H P_n a = tr P_n + 2 Re sum_{k=1}^{M-1} c_k e^{jk omega}, c_k the k-th superdiagonal
    # sum of P_n = E_n E_n^H: one (1, 2(M-1)) x (2(M-1), grid) product per block
    e_n = eigvec[:, :, :noise_dim]
    proj = e_n @ _hermitian(e_n)
    c = np.stack([np.trace(proj, k, axis1=1, axis2=2) for k in range(1, m)], axis=1)
    power = (np.concatenate([c.real, c.imag], axis=1)[:, None, :] @ table)[:, 0, :]
    power *= 2                      # in place: each (n, grid) temporary costs page faults
    power += np.trace(proj, axis1=1, axis2=2).real[:, None]
    spectrum = 1.0 / np.maximum(power, _TINY, out=power)

    peaks, valid = _select_peaks(spectrum)
    # dynamic-vs-static disambiguation: the dynamic beam modulates |a^H h_t|
    beams = manifold[peaks].conj()
    variances = np.where(valid, (np.abs(beams @ h) / m).var(axis=2), -np.inf)
    best = peaks[np.arange(n), np.argmax(variances, axis=1)]

    # the polynomial cancels near a noiseless null, so Newton reads f from E_n itself
    theta_hat, refined = _newton(e_n, geom, grid, best)
    return theta_hat, MusicDiagnostics(eigval, grid[peaks],
                                       np.take_along_axis(spectrum, peaks, axis=1),
                                       variances, gap_ratio, refined)


def _beamspace(theta_hat: np.ndarray, geom: ArrayGeometry):
    """Unit beams A (n, M) and nullspace bases B (n, M, M-1) by Householder reflection."""
    a = steering_vector(geom, theta_hat)
    a_unit = a / np.linalg.norm(a, axis=1, keepdims=True)
    # a_0 = 1 at the phase reference, so A_0 = 1/sqrt(M) is real and positive and
    # v = A + e_0 gives the reflector I - v v^H / (1 + A_0) with A -> -e_0
    v = a_unit.copy()
    v[:, 0] += 1.0
    b = np.eye(geom.m)[:, 1:] - v[:, :, None] * (a_unit[:, None, 1:].conj()
                                                 / (1.0 + a_unit[:, :1, None]))
    return a_unit, b


def _phase_offsets(h: np.ndarray, b: np.ndarray):
    """Phase offsets (n, T) and the mask of blocks whose projection is degenerate."""
    h_p = _hermitian(b) @ h
    lam, vec = np.linalg.eigh(h_p @ _hermitian(h_p))
    norm = np.linalg.norm(h.reshape(h.shape[0], -1), axis=1)
    degenerate = lam[:, -1] <= (_DEGENERATE_PROJECTION * norm) ** 2
    h_q = (vec[:, None, :, -1].conj() @ h_p)[:, 0, :]
    phi = np.unwrap(np.angle(h_q), axis=1)
    return phi - phi.mean(axis=1, keepdims=True), degenerate


def _gains(h: np.ndarray, a_unit: np.ndarray, phi_hat: np.ndarray):
    """Phase-compensated dynamic-beam gains (n, T), DC removed."""
    m = h.shape[1]
    beam = (a_unit[:, None, :].conj() @ h)[:, 0, :]
    d_hat = beam * np.exp(-1j * phi_hat) / np.sqrt(m)
    return d_hat - d_hat.mean(axis=1, keepdims=True)


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        raise EstimationStageError(name, err) from err


def _estimate_stack(h: np.ndarray, geom: ArrayGeometry) -> BatchEstimate:
    theta_hat, diags = _stage("music", _music, h, geom)
    a_unit, b = _stage("beamspace", _beamspace, theta_hat, geom)
    phi_hat, degenerate = _stage("phase", _phase_offsets, h, b)
    d_hat = _stage("cgs", _gains, h, a_unit, phi_hat)
    errors = [None] * len(h)
    for k in np.flatnonzero(degenerate):
        errors[k] = EstimationStageError("phase",
                                         DegenerateProjectionError(_DEGENERATE_MESSAGE))
        phi_hat[k] = d_hat[k] = np.nan
    return BatchEstimate(theta_hat, phi_hat, d_hat, diags, tuple(errors))


def estimate_batch(h: np.ndarray, geom: ArrayGeometry) -> BatchEstimate:
    """Run the pipeline on a stack of CSI blocks, shape (n, M, T).

    A failure in one block is reported on its own row and leaves the other
    rows as they are when each block runs alone.  When a stacked LAPACK call
    fails as a whole, the stack is re-run one block at a time.
    """
    # one memory layout for every stack, so BLAS takes the same path for a
    # block whatever its neighbours
    h = np.ascontiguousarray(h, dtype=complex)
    if h.ndim != 3:
        raise ValueError("CSI stack must be 3-D (blocks x antennas x snapshots)")
    try:
        return _estimate_stack(h, geom)
    except EstimationStageError as err:
        if len(h) > 1:
            parts = [estimate_batch(h[k:k + 1], geom) for k in range(len(h))]
            diags = MusicDiagnostics(*(np.concatenate([getattr(p.diagnostics, f.name)
                                                           for p in parts])
                                       for f in fields(MusicDiagnostics)))
            return BatchEstimate(*(np.concatenate([getattr(p, name) for p in parts])
                                   for name in ("theta_hat", "phi_hat", "d_hat")),
                                 diags, sum((p.errors for p in parts), ()))
        nan, peaks = np.full((1, h.shape[2]), np.nan), np.full((1, _SOURCES), np.nan)
        diag = MusicDiagnostics(np.full(h.shape[:2], np.nan), peaks, peaks.copy(), peaks.copy(),
                                np.full(1, np.nan), np.zeros(1, dtype=bool))
        return BatchEstimate(np.full(1, np.nan), nan, nan.copy(), diag, (err,))


def _stack_of_one(csi: CsiBlock) -> np.ndarray:
    return np.ascontiguousarray(csi.data[None])


def music_aoa(csi: CsiBlock, geom: ArrayGeometry):
    """MUSIC AoA estimate with peak disambiguation; returns (theta_hat, diagnostics)."""
    theta_hat, diag = _music(_stack_of_one(csi), geom)
    return float(theta_hat[0]), diag[0]


def beamspace_basis(theta_hat: float, geom: ArrayGeometry):
    """Unit dynamic-beam vector A and the orthonormal nullspace basis B (M x (M-1))."""
    a_unit, b = _beamspace(np.array([theta_hat], dtype=float), geom)
    return a_unit[0], b[0]


def estimate_phase_offsets(csi: CsiBlock, b: np.ndarray) -> np.ndarray:
    """Per-snapshot phase offsets from the nullspace projection, mean removed.

    H_p = B^H H, maximal-ratio combining with the principal left singular
    vector, then unwrapped angles.  Valid while consecutive offsets differ by
    less than pi (unwrap assumption).
    """
    phi, degenerate = _phase_offsets(_stack_of_one(csi), np.asarray(b, dtype=complex)[None])
    if degenerate[0]:
        raise DegenerateProjectionError(_DEGENERATE_MESSAGE)
    return phi[0]


def estimate_cgs(csi: CsiBlock, a_unit: np.ndarray, phi_hat: np.ndarray) -> np.ndarray:
    """Compensate phases, combine along the dynamic beam, remove DC.

    The combining gain |a| = sqrt(M) is divided out so d_hat estimates the
    gain sequence in the model's units.
    """
    return _gains(_stack_of_one(csi), np.asarray(a_unit, dtype=complex)[None],
                  np.asarray(phi_hat, dtype=float)[None])[0]


def run_estimator(csi: CsiBlock, geom: ArrayGeometry) -> EstimateResult:
    """Full pipeline; numerical failures are re-raised tagged with their stage."""
    est = estimate_batch(_stack_of_one(csi), geom)
    err = est.errors[0]
    if err is not None:
        raise err from err.original
    return est.result(0)
