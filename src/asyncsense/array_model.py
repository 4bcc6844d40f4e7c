"""Physical scenario: antenna array, parameter vector, CSI snapshot synthesis.

Signal model per snapshot t (t = 0..T-1):

    h_t = (h_s + a(theta_d) * d_t) * exp(j * phi_t) + n_t

where h_s is the static channel, a(theta) the steering vector of the single
dynamic path, d_t its complex gain, phi_t the random per-snapshot phase
offset of the asynchronous receiver, and n_t white circular Gaussian noise.

Array convention: uniform linear array, element m at m * spacing wavelengths,
phase reference at element 0, so

    a_m(theta) = exp(j * 2*pi * spacing * m * sin(theta)),   |a(theta)|^2 = M.

Noise convention: sigma2 is the noise variance PER REAL COMPONENT, i.e. each
complex CSI entry has total variance 2*sigma2.  With this convention the
closed-form information matrices in :mod:`asyncsense.fisher` (scaled 1/sigma2)
are exactly the Fisher information of the synthesized observations, and the
performance bounds are true lower bounds for the simulated estimators.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import as_rng


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    m: int
    spacing: float = 0.5

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"antenna count m must be an integer >= 2, got {self.m}")
        if not (self.spacing > 0 and np.isfinite(self.spacing)):
            raise ValueError(f"element spacing must be positive, got {self.spacing}")

    @cached_property
    def phase_ramp(self) -> np.ndarray:
        """j 2 pi spacing m for m = 0..M-1 (read-only): a(theta) = exp(ramp sin(theta))."""
        ramp = 1j * 2 * np.pi * self.spacing * np.arange(self.m)
        ramp.flags.writeable = False
        return ramp


@dataclass(frozen=True)
class GainDistribution:
    """Circularly symmetric dynamic-path gain distribution, E|d_t|^2 = p_d."""

    p_d: float

    def __post_init__(self):
        if not (self.p_d > 0 and np.isfinite(self.p_d)):
            raise ValueError(f"per-snapshot power p_d must be positive, got {self.p_d}")


@dataclass(frozen=True)
class ScenarioParams:
    """Full parameter vector (theta_d, h_s, d, phi_o) plus noise variance.

    theta_d : dynamic-path AoA in radians, inside (-pi/2, pi/2)
    h_s     : complex static channel, length M
    d       : complex dynamic gain sequence, length T
    phi_o   : real phase offsets in radians, length T
    sigma2  : noise variance per real component (complex entry variance 2*sigma2)

    The zero-sum identifiability constraints on d and phi_o are not enforced
    here.  The campaign's trial draws, ``gains_from_normals(constrained=True)``
    and the estimator's outputs remove the means; bound computations
    deliberately use unconstrained gain draws (see module docs in
    :mod:`asyncsense.bounds`).
    """

    theta_d: float
    h_s: np.ndarray
    d: np.ndarray
    phi_o: np.ndarray
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "h_s", np.asarray(self.h_s, dtype=complex))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        object.__setattr__(self, "phi_o", np.asarray(self.phi_o, dtype=float))
        if not -np.pi / 2 < self.theta_d < np.pi / 2:
            raise ValueError(f"theta_d must lie in (-pi/2, pi/2), got {self.theta_d}")
        if self.h_s.ndim != 1 or self.d.ndim != 1 or self.phi_o.ndim != 1:
            raise ValueError("h_s, d and phi_o must be one-dimensional")
        if self.d.size != self.phi_o.size:
            raise ValueError(
                f"d and phi_o must share length T, got {self.d.size} and {self.phi_o.size}"
            )
        for name in ("h_s", "d", "phi_o"):
            if not np.all(np.isfinite(getattr(self, name).view(float))):
                raise ValueError(f"{name} contains non-finite entries")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")

    @property
    def m(self) -> int:
        return self.h_s.size

    @property
    def t(self) -> int:
        return self.d.size


@dataclass(frozen=True)
class CsiBlock:
    """Complex M x T snapshot matrix; column t is the CSI vector h_t."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=complex))
        if self.data.ndim != 2:
            raise ValueError("CSI block must be a 2-D matrix (antennas x snapshots)")

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def t(self) -> int:
        return self.data.shape[1]


def _check_theta(theta):
    """Raise unless theta, one angle or an ndarray of them, lies in (-pi/2, pi/2)."""
    inside = (np.all(np.abs(theta) < np.pi / 2) if isinstance(theta, np.ndarray)
              else -np.pi / 2 < theta < np.pi / 2)
    if not inside:
        raise ValueError(f"theta must lie in the open interval (-pi/2, pi/2), got {theta}")


def steering_vector(geom: ArrayGeometry, theta) -> np.ndarray:
    """ULA steering vectors a(theta), shape (..., M) for theta of shape (...); |a|^2 = M."""
    _check_theta(theta)
    return np.exp(geom.phase_ramp * np.sin(theta)[..., None])


def _steering_pair(geom: ArrayGeometry, theta) -> tuple:
    """(a(theta), b(theta) = da/dtheta) with a evaluated once; theta of shape (...)."""
    a = steering_vector(geom, theta)
    return a, geom.phase_ramp * np.cos(theta)[..., None] * a


def gains_from_normals(z: np.ndarray, dist: GainDistribution,
                       constrained: bool = False) -> np.ndarray:
    """Gains d = sqrt(p_d/2) (z_re + j z_im) from standard normals z of shape (..., 2, T).

    constrained=True removes the mean over the last axis.
    """
    scale = np.sqrt(dist.p_d / 2.0)
    d = scale * (z[..., 0, :] + 1j * z[..., 1, :])
    if constrained:
        d = d - d.mean(axis=-1, keepdims=True)
    return d


def draw_dynamic_gains(t: int, dist: GainDistribution, seed, constrained: bool = False) -> np.ndarray:
    """Draw T i.i.d. circularly symmetric complex Gaussian gains, E|d_t|^2 = p_d.

    constrained=True additionally removes the mean, matching the estimator's
    identifiability model.  Bound expectations use unconstrained draws.
    """
    if t < 2:
        raise ValueError(f"need at least 2 snapshots, got {t}")
    return gains_from_normals(as_rng(seed).standard_normal((2, t)), dist, constrained)


def synthesize_batch(geom: ArrayGeometry, theta_d: float, h_s: np.ndarray, d: np.ndarray,
                     phi_o: np.ndarray, sigma2: float, noise: np.ndarray) -> np.ndarray:
    """Noisy CSI blocks (n, M, T) for n gain and phase sequences sharing theta_d and h_s.

    d and phi_o are (n, T); noise holds standard normals (n, 2, M, T), real
    parts first, scaled to variance sigma2 per real component.
    """
    a = steering_vector(geom, theta_d)
    clean = (h_s[None, :, None] + a[None, :, None] * d[:, None, :]) \
        * np.exp(1j * phi_o)[:, None, :]
    return clean + np.sqrt(sigma2) * (noise[:, 0] + 1j * noise[:, 1])


def synthesize_csi(geom: ArrayGeometry, params: ScenarioParams, seed) -> CsiBlock:
    """Synthesize a noisy CSI block for the scenario; deterministic given the seed.

    Noise is i.i.d. across entries and snapshots with variance sigma2 per real
    component (2*sigma2 per complex entry).
    """
    if params.m != geom.m:
        raise ValueError(f"h_s length {params.m} does not match geometry m={geom.m}")
    noise = as_rng(seed).standard_normal((1, 2, geom.m, params.t))
    return CsiBlock(synthesize_batch(geom, params.theta_d, params.h_s, params.d[None],
                                     params.phi_o[None], params.sigma2, noise)[0])
