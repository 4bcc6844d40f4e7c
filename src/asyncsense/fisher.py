"""Exact Fisher information machinery for the single-carrier asynchronous model.

Joint FIM over the real parameter vector

    [theta_d | Re h_s (M) | Im h_s (M) | Re d (T) | Im d (T) | phi_o (T)]

of dimension 1 + 2M + 3T, every block scaled by 1/sigma2.  Under the
per-real-component noise convention of :mod:`asyncsense.array_model` this is
exactly the Fisher information of the synthesized CSI block: the textbook
circular-Gaussian FIM is (2 / complex_variance) * Re{Jmu^H Jmu} and the
complex entry variance is 2*sigma2, so the prefactor reduces to 1/sigma2.

The reordered per-snapshot machinery treats h_s as known and orders the
parameters (theta_d, psi_0, ..., psi_{T-1}) with psi_t = (Re d_t, Im d_t, phi_t).
:class:`ReorderedFim` holds it as arrays: the theta-theta entry (...), the
snapshot blocks J_psi_t (..., T, 3, 3) and the cross rows J_theta,psi_t
(..., T, 3), where the optional leading axes batch gain draws of one scenario.
These blocks are the one home of the theta and psi_t entries: :func:`joint_fim`
places them at ``ParamLayout.psi_indices()`` and writes only the h_s rows.  The
equivalent Fisher information of theta_d follows by Schur complements over all
T blocks at once, next to its closed form.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .array_model import ArrayGeometry, ScenarioParams, _steering_pair, steering_vector
from .exceptions import CollinearityError, SingularMatrixError

# Delta below this fraction of its natural scale |a|^2 |h_s|^2 is treated as
# exact collinearity of h_s and a (the bounds genuinely diverge there).
COLLINEARITY_RTOL = 1e-12

# Condition number beyond which a constrained information matrix is reported
# singular instead of being silently regularized.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ParamLayout:
    """Index map of the joint parameter ordering; all index arithmetic lives here."""

    m: int
    t: int

    @property
    def dim(self) -> int:
        return 1 + 2 * self.m + 3 * self.t

    @property
    def theta(self) -> int:
        return 0

    @property
    def h_re(self) -> slice:
        return slice(1, 1 + self.m)

    @property
    def h_im(self) -> slice:
        return slice(1 + self.m, 1 + 2 * self.m)

    @property
    def d_re(self) -> slice:
        return slice(1 + 2 * self.m, 1 + 2 * self.m + self.t)

    @property
    def d_im(self) -> slice:
        return slice(1 + 2 * self.m + self.t, 1 + 2 * self.m + 2 * self.t)

    @property
    def phi(self) -> slice:
        return slice(1 + 2 * self.m + 2 * self.t, self.dim)

    def psi_indices(self) -> np.ndarray:
        """(T, 3) joint indices of the snapshot triples psi_t = (Re d_t, Im d_t, phi_t)."""
        return 1 + 2 * self.m + np.arange(self.t)[:, None] + self.t * np.arange(3)

    def pack(self, theta_d, h_s, d, phi_o) -> np.ndarray:
        v = np.empty(self.dim)
        v[self.theta] = theta_d
        v[self.h_re] = np.real(h_s)
        v[self.h_im] = np.imag(h_s)
        v[self.d_re] = np.real(d)
        v[self.d_im] = np.imag(d)
        v[self.phi] = phi_o
        return v

    def unpack(self, v: np.ndarray):
        """(theta_d, h_s, d, phi_o) from v of shape (..., dim), each with those leading axes."""
        theta_d = v[..., self.theta]
        h_s = v[..., self.h_re] + 1j * v[..., self.h_im]
        d = v[..., self.d_re] + 1j * v[..., self.d_im]
        phi_o = v[..., self.phi]
        return theta_d, h_s, d, phi_o


@dataclass(frozen=True)
class FimMatrix:
    """Real symmetric joint FIM with the fixed parameter ordering of ParamLayout."""

    data: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        if self.data.shape != (self.layout.dim, self.layout.dim):
            raise ValueError(
                f"FIM shape {self.data.shape} does not match layout dim {self.layout.dim}"
            )


@dataclass(frozen=True)
class ReorderedFim:
    """Reordered FIM with h_s known, over optional leading batch axes.

    j_theta_theta (...), j_psi (..., T, 3, 3), j_theta_psi (..., T, 3).
    """

    j_theta_theta: np.ndarray
    j_psi: np.ndarray
    j_theta_psi: np.ndarray

    def efim_theta(self) -> np.ndarray:
        """Equivalent Fisher information of theta_d by the per-snapshot Schur complement."""
        sol = np.linalg.solve(self.j_psi, self.j_theta_psi[..., None])[..., 0]
        return self.j_theta_theta - np.sum(np.sum(self.j_theta_psi * sol, axis=-1), axis=-1)

    def assemble(self) -> np.ndarray:
        """Dense (..., 1 + 3T, 1 + 3T) matrices over (theta, psi_0, ..., psi_{T-1})."""
        *batch, t, _ = self.j_theta_psi.shape
        full = np.zeros((*batch, 1 + 3 * t, 1 + 3 * t))
        full[..., 0, 0] = self.j_theta_theta
        full[..., 0, 1:] = full[..., 1:, 0] = self.j_theta_psi.reshape(*batch, 3 * t)
        # full[..., 1 + 3i + c, 1 + 3k + e] as a strided view [..., i, c, k, e]
        blocks = full[..., 1:, 1:].reshape(*batch, t, 3, t, 3)
        snaps = np.arange(t)
        blocks[..., snaps, :, snaps, :] = np.moveaxis(self.j_psi, -3, 0)
        return full


@dataclass(frozen=True)
class ConstraintBasis:
    """Orthonormal basis U of the zero-sum constraint tangent space, built on first use."""

    m: int
    t: int

    def __post_init__(self):
        if self.t < 2:
            raise ValueError(f"constraint basis needs T >= 2, got {self.t}")
        if self.m < 1:
            raise ValueError(f"antenna count must be >= 1, got {self.m}")

    @cached_property
    def u(self) -> np.ndarray:
        """Block-diagonal dense U, n x (n - 3); ``constrained_crb`` never reads it.

        U_sub is T x (T-1): off-diagonal 1/(T+sqrt(T)), diagonal 1/(T+sqrt(T)) - 1,
        last row 1/sqrt(T); identity on the 2M+1 unconstrained coordinates.
        """
        m, t = self.m, self.t
        u_sub = np.full((t, t - 1), 1.0 / (t + np.sqrt(t)))
        u_sub[np.arange(t - 1), np.arange(t - 1)] -= 1.0
        u_sub[t - 1, :] = 1.0 / np.sqrt(t)

        lay = ParamLayout(m, t)
        u = np.zeros((lay.dim, 1 + 2 * m + 3 * (t - 1)))
        u[: 1 + 2 * m, : 1 + 2 * m] = np.eye(1 + 2 * m)
        for i, block in enumerate((lay.d_re, lay.d_im, lay.phi)):
            cols = slice(1 + 2 * m + i * (t - 1), 1 + 2 * m + (i + 1) * (t - 1))
            u[block, cols] = u_sub
        return u


@dataclass(frozen=True)
class SteeringGeometry:
    """The steering pair, its inner products with h_s, and the scalars the bounds use.

        c = b^H a a^H h_s - a^H a b^H h_s,   Xi = |c|^2,
        Gamma = |a|^2 |b|^2 - |a^H b|^2,   Delta = |a|^2 |h_s|^2 - |a^H h_s|^2,
        scale = |a|^2 |h_s|^2,   rho = (1 - Xi / (2 Gamma Delta))^-1 (asynchrony penalty).

    For a batch, a and b have shape (..., M) and every scalar shape (...).
    """

    a: np.ndarray
    b: np.ndarray
    ab: complex
    ah: complex
    bh: complex
    c: complex
    gamma: float
    delta: float
    xi: float
    scale: float

    def checked(self) -> "SteeringGeometry":
        """This record, or CollinearityError unless Delta exceeds rounding level of its scale.

        On a batch one collinear (or NaN) row fails the whole record; no row is dropped.
        """
        separated = self.delta > COLLINEARITY_RTOL * self.scale
        if not separated.all():
            ratio = self.delta / np.maximum(self.scale, np.finfo(float).tiny)
            raise CollinearityError(
                f"static channel is collinear with the steering vector in "
                f"{separated.size - np.count_nonzero(separated)} of {separated.size} row(s) "
                f"(smallest Delta/scale {np.min(ratio):.3e})"
            )
        return self

    @property
    def rho(self):
        return 1.0 / (1.0 - self.xi / (2.0 * self.gamma * self.delta))


def steering_geometry(geom: ArrayGeometry, theta, h_s) -> SteeringGeometry:
    """Gamma, Delta, Xi and the inner products behind them; collinear h_s is allowed here.

    theta has shape (...) and h_s shape (..., M).  With |a_k| = 1, projecting
    h_s off a is removing the mean of u = conj(a) h_s.  With w = u - a^H h_s / M,
    kappa = 2 pi spacing cos(theta), kbar = (M - 1) / 2 and s = sum_k (k - kbar) w_k:

        Delta = M sum |w_k|^2,   c = j kappa M s,   Xi = |c|^2,
        Gamma = kappa^2 M^2 (M^2 - 1) / 12,   scale = Delta + |a^H h_s|^2,
        a^H h_s = sum u_k,   a^H b = j kappa M kbar,   b^H h_s = -j kappa (s + kbar a^H h_s),

    none of which cancels near collinearity: the rounding of a^H h_s / M shifts
    every w_k alike, and sum_k (k - kbar) = 0.  Only elementwise operations and
    last-axis sums are used, and no two scalars are multiplied as full complex
    numbers, so row i of a batch equals the unbatched call on row i bit for bit.
    """
    h_s = np.asarray(h_s, dtype=complex)
    m = geom.m
    if h_s.shape[-1:] != (m,):
        raise ValueError(f"h_s of shape {h_s.shape} does not match geometry m={m}")
    a, b = _steering_pair(geom, theta)
    kappa = 2 * np.pi * geom.spacing * np.cos(theta)
    kbar = (m - 1) / 2
    u = a.conj() * h_s
    ah = np.add.reduce(u, axis=-1)
    w = u - ah[..., None] / m
    s = np.add.reduce((np.arange(m) - kbar) * w, axis=-1)
    wf = w.view(float)
    delta = m * np.add.reduce(wf * wf, axis=-1)
    c = 1j * kappa * m * s
    return SteeringGeometry(a=a, b=b, ab=1j * kappa * (m * kbar), ah=ah,
                            bh=-1j * kappa * (s + kbar * ah), c=c,
                            gamma=kappa * kappa * (m * m * (m * m - 1) // 12),
                            delta=delta, xi=c.real * c.real + c.imag * c.imag,
                            scale=delta + ah.real * ah.real + ah.imag * ah.imag)


def _check_sigma2(sigma2: float):
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"Fisher information needs 0 < sigma2 < inf, got {sigma2}")


def joint_fim(geom: ArrayGeometry, params: ScenarioParams) -> FimMatrix:
    """Closed-form joint FIM, every submatrix scaled by 1/sigma2.

    The theta and psi_t entries are the blocks of :func:`_reordered`; only the
    h_s rows are written here.
    """
    _check_sigma2(params.sigma2)
    g = steering_geometry(geom, params.theta_d, params.h_s)
    m, t = params.m, params.t
    lay = ParamLayout(m, t)
    a, b, d, h_s = g.a, g.b, params.d, params.h_s
    ro = _reordered(g, h_s, d, 1.0)

    j = np.zeros((lay.dim, lay.dim))
    psi = lay.psi_indices()
    j[lay.theta, lay.theta] = ro.j_theta_theta
    j[lay.theta, psi] = j[psi, lay.theta] = ro.j_theta_psi
    j[psi[:, :, None], psi[:, None, :]] = ro.j_psi

    def put(rows, cols, block):
        j[rows, cols] = block
        j[cols, rows] = np.transpose(block)

    diag = j.reshape(-1)[:: lay.dim + 1]
    diag[lay.h_re] = diag[lay.h_im] = t
    put(lay.theta, lay.h_re, np.real(d.conj().sum() * b.conj()))
    put(lay.theta, lay.h_im, -np.imag(d.conj().sum() * b.conj()))
    put(lay.h_re, lay.d_re, np.real(a)[:, None])
    put(lay.h_re, lay.d_im, -np.imag(a)[:, None])
    put(lay.h_im, lay.d_re, np.imag(a)[:, None])
    put(lay.h_im, lay.d_im, np.real(a)[:, None])
    col = h_s[:, None] + np.outer(a, d)          # per-snapshot noiseless mean / phase factor
    put(lay.h_re, lay.phi, -np.imag(col))
    put(lay.h_im, lay.phi, np.real(col))

    j /= params.sigma2
    j += 0.0                                     # -0.0 -> +0.0, so written bytes never show a sign
    return FimMatrix(j, lay)


def fim_numeric_oracle(geom: ArrayGeometry, params: ScenarioParams, step: float = 1e-6) -> FimMatrix:
    """Finite-difference FIM: no closed-form block is referenced.

    Textbook circular complex Gaussian FIM, (2 / complex_variance) *
    Re{Jmu^H Jmu}, with the mean Jacobian by central differences.  The model's
    complex entry variance is 2*sigma2, so the prefactor is 1/sigma2 and the
    result is directly comparable to :func:`joint_fim`.
    """
    _check_sigma2(params.sigma2)
    m, t = params.m, params.t
    lay = ParamLayout(m, t)

    # row i of each half steps parameter i alone
    v0 = lay.pack(params.theta_d, params.h_s, params.d, params.phi_o)
    v = np.repeat(v0[None], lay.dim, axis=0)
    diag = np.arange(lay.dim)
    means = []
    for sign in (1.0, -1.0):
        v[diag, diag] = v0 + sign * step
        theta_d, h_s, d, phi_o = lay.unpack(v)
        a = steering_vector(geom, theta_d)
        means.append((h_s[:, :, None] + a[:, :, None] * d[:, None, :])
                     * np.exp(1j * phi_o)[:, None, :])
    jac = ((means[0] - means[1]) / (2 * step)).reshape(lay.dim, m * t).T

    complex_var = 2.0 * params.sigma2
    data = (2.0 / complex_var) * np.real(jac.conj().T @ jac)
    return FimMatrix(data, lay)


def constraint_basis(m: int, t: int) -> ConstraintBasis:
    """Zero-sum constraint basis for M antennas and T >= 2 snapshots; U is built lazily."""
    return ConstraintBasis(m, t)


def constrained_crb(fim: FimMatrix, basis: ConstraintBasis) -> np.ndarray:
    """Constrained CRB U (U^T J U)^{-1} U^T (Stoica & Ng 1998) by block elimination.

    U spans the zero-sum tangent space of d and phi (``constraint_basis``).  J
    is bordered block-diagonal: a head A over (theta, h_s) of size p = 1 + 2M,
    cross blocks B_t = J_{h, psi_t} (p x 3) and snapshot blocks
    D_t = J_{psi_t psi_t} = V_t W_t V_t^T = L_t L_t^T (3 x 3, L_t = V_t W_t^1/2);
    every other entry of J_psipsi must be exactly 0.  The rank-3 Woodbury step
    for the all-ones constraints goes through the QR factor Q of the stacked
    L_t^-1 / sqrt(T):

        K = L^-T (I - Q Q^T) L^-1      (= U_psi (U_psi^T D U_psi)^-1 U_psi^T)
        S = A - B K B^T = A - Y^T Y,   Y = (I - Q Q^T) L^-1 B^T
        CRB = [[S^-1, -S^-1 B K], [-K B^T S^-1, K + K B^T S^-1 B K]].

    S subtracts no term larger than A, so the result is as accurate as a dense
    solve of U^T J U; explicit D_t^-1 would lose digits in proportion to
    cond(D_t) too (near-collinear h_s).  Cost is O(T p^2) plus the n x n
    output, with J read symmetrised; the result is exactly symmetric.

    Two layout facts are used: the p head coordinates come first, and the
    joint indices of psi_t are ``fim.layout.psi_indices()[t]``.
    """
    lay = fim.layout
    if (basis.m, basis.t) != (lay.m, lay.t):
        raise ValueError("constraint basis does not match the FIM layout")
    t, p = lay.t, 1 + 2 * lay.m
    j = fim.data
    psi = lay.psi_indices()
    blocks = psi[:, :, None], psi[:, None, :]
    d_up = j[blocks]
    # nonzeros of J_psipsi, counted over whole (contiguous) rows
    if np.count_nonzero(j[p:]) - np.count_nonzero(j[p:, :p]) != np.count_nonzero(d_up):
        snap = np.empty(lay.dim, dtype=int)
        snap[psi] = np.arange(t)[:, None]
        rows, cols = np.nonzero((j[p:, p:] != 0) & (snap[p:, None] != snap[None, p:]))
        row, col = p + rows[0], p + cols[0]
        raise ValueError(f"J_psipsi is not block-diagonal over snapshots: "
                         f"J[{row}, {col}] = {j[row, col]!r}")
    d = 0.5 * (d_up + d_up.transpose(0, 2, 1))
    a = 0.5 * (j[:p, :p] + j[:p, :p].T)
    b = 0.5 * (j[:p, psi.T] + j[psi.T, :p].transpose(2, 0, 1))     # (p, 3, T), B_t = b[..., t]
    w, vecs = np.linalg.eigh(d)
    _require_positive(w, "snapshot blocks J_psi_t")

    l_inv = vecs.transpose(0, 2, 1) / np.sqrt(w)[:, :, None]        # L_t^-1 = W_t^-1/2 V_t^T
    y = (l_inv @ b.transpose(2, 1, 0)).reshape(3 * t, p)            # snapshot-major
    q = np.linalg.qr((l_inv / np.sqrt(t)).reshape(3 * t, 3))[0]
    y -= q @ (q.T @ y)
    s = a - y.T @ y
    s = 0.5 * (s + s.T)
    _require_positive(np.linalg.eigvalsh(s), "Schur complement S")
    s_inv = np.linalg.inv(s)

    # rows [L^-T Q, (B K)^T] with (B K)^T = L^-T Y, placed at the psi rows
    l_inv_t = l_inv.transpose(0, 2, 1)
    vbk = np.empty((lay.dim - p, 3 + p))
    vbk[psi - p] = l_inv_t @ np.concatenate([q, y], axis=1).reshape(t, 3, 3 + p)
    cross = -s_inv @ np.ascontiguousarray(vbk[:, 3:].T)
    crb = np.empty((lay.dim, lay.dim))
    crb[:p, :p] = s_inv
    crb[:p, p:] = cross
    crb[p:, :p] = cross.T
    # K + K B^T S^-1 B K = blkdiag(D_t^-1) - [L^-T Q, (BK)^T] [(L^-T Q)^T; -S^-1 B K]
    np.matmul(vbk, -np.vstack([vbk[:, :3].T, cross]), out=crb[p:, p:])
    crb[blocks] += l_inv_t @ l_inv
    crb = 0.5 * (crb + crb.T)

    # cond(U^T J U) <= lambda_max(J) lambda_max(CRB), each bounded by its
    # largest absolute row sum (Gershgorin); J's row sums come from its blocks
    abs_b = np.abs(b)
    j_rows = np.empty(lay.dim)
    j_rows[:p] = np.abs(a).sum(axis=1) + abs_b.sum(axis=(1, 2))
    j_rows[psi] = abs_b.sum(axis=0).T + np.abs(d).sum(axis=2)
    crb_norm = np.linalg.norm(crb, np.inf)
    cond = j_rows.max() * crb_norm
    if not cond <= CONDITION_LIMIT:
        raise SingularMatrixError(
            f"U^T J U is singular at the working condition limit (condition bound "
            f"{cond:.3e}, smallest eigenvalue >= {1.0 / crb_norm:.6e})"
        )
    return crb


def _require_positive(eigvals: np.ndarray, what: str):
    smallest = eigvals.min()
    if not smallest > 0:
        raise SingularMatrixError(
            f"U^T J U is singular: {what} not positive definite "
            f"(smallest eigenvalue {smallest:.6e})"
        )


def reordered_blocks(geom: ArrayGeometry, params: ScenarioParams) -> ReorderedFim:
    """Per-snapshot 3x3 nuisance blocks and 1x3 cross blocks, h_s treated as known."""
    g = steering_geometry(geom, params.theta_d, params.h_s)
    return _reordered(g, params.h_s, params.d, params.sigma2)


def _reordered(g: SteeringGeometry, h_s: np.ndarray, d: np.ndarray, sigma2: float) -> ReorderedFim:
    """The block formulas for gains d of shape (..., T), all sharing g and h_s.

        J_psi_t = [[M, 0, -Im chi_t], [0, M, Re chi_t], [-Im chi_t, Re chi_t, |h_s + a d_t|^2]],
        J_theta,psi_t = (Re a^H b d_t, Im a^H b d_t, -Im(b^H a |d_t|^2 + b^H h_s d_t^*)),
        J_theta_theta = |b|^2 |d|^2,   chi_t = a^H h_s + M d_t,   all over sigma2.
    """
    _check_sigma2(sigma2)
    m = h_s.size
    ab, ah, bh = g.ab, g.ah, g.bh
    chi = ah + m * d
    abs2 = np.abs(d) ** 2
    q = np.sum(np.abs(h_s[:, None] + g.a[:, None] * d[..., None, :]) ** 2, axis=-2)

    j_psi = np.zeros((*d.shape, 3, 3))
    j_psi[..., 0, 0] = j_psi[..., 1, 1] = m
    j_psi[..., 0, 2] = j_psi[..., 2, 0] = -chi.imag
    j_psi[..., 1, 2] = j_psi[..., 2, 1] = chi.real
    j_psi[..., 2, 2] = q
    j_psi /= sigma2
    j_theta_psi = np.stack([np.real(ab * d), np.imag(ab * d),
                            -np.imag(np.conj(ab) * abs2 + bh * np.conj(d))], axis=-1) / sigma2
    j_tt = np.vdot(g.b, g.b).real * np.sum(abs2, axis=-1) / sigma2
    return ReorderedFim(j_theta_theta=j_tt, j_psi=j_psi, j_theta_psi=j_theta_psi)


def psi_block_inverse(geom: ArrayGeometry, params: ScenarioParams, t) -> np.ndarray:
    """Closed-form inverse of the snapshot-t nuisance block J_psi; t may be an index array.

    With chi = a^H h_s + M d_t, Delta = |a|^2 |h_s|^2 - |a^H h_s|^2 and
    w = (Im chi, -Re chi, M):

        J_psi^{-1} = sigma2/(M Delta) * w w^T + sigma2/M * diag(1, 1, 0)

    The result has shape (3, 3), or (*t.shape, 3, 3) for an index array.
    """
    _check_sigma2(params.sigma2)
    m = geom.m
    g = steering_geometry(geom, params.theta_d, params.h_s).checked()
    chi = g.ah + m * params.d[t]
    w = np.stack([chi.imag, -chi.real, np.full(np.shape(chi), float(m))], axis=-1)
    outer = w[..., :, None] * w[..., None, :]
    return params.sigma2 / (m * g.delta) * outer + params.sigma2 / m * np.diag([1.0, 1.0, 0.0])


def efim_theta_schur(geom: ArrayGeometry, params: ScenarioParams) -> float:
    """Equivalent Fisher information of theta_d by the per-snapshot Schur complement."""
    # the snapshot blocks are singular when collinear
    g = steering_geometry(geom, params.theta_d, params.h_s).checked()
    return float(_reordered(g, params.h_s, params.d, params.sigma2).efim_theta())


def _efim_theta(g: SteeringGeometry, d: np.ndarray, sigma2: float) -> np.ndarray:
    """Equivalent Fisher information of theta_d for gain sequences d of shape (..., T).

        J_theta^equ = |d|^2 Gamma / (sigma2 M) - sum_t Im{c d_t^*}^2 / (sigma2 M Delta),
        c = b^H a a^H h_s - a^H a b^H h_s   (SteeringGeometry.c)
    """
    m = g.a.shape[-1]
    return (np.sum(np.abs(d) ** 2, axis=-1) * g.gamma / (sigma2 * m)
            - np.sum(np.imag(g.c * np.conj(d)) ** 2, axis=-1) / (sigma2 * m * g.delta))


def efim_theta_closed(geom: ArrayGeometry, params: ScenarioParams) -> float:
    """Closed-form equivalent Fisher information of theta_d (see :func:`_efim_theta`)."""
    _check_sigma2(params.sigma2)
    g = steering_geometry(geom, params.theta_d, params.h_s).checked()
    return float(_efim_theta(g, params.d, params.sigma2))
