"""SO(3) rotations and Haar-weighted quadrature grids on S^2 = SO(3)/SO(2)
and SO(3).

Conventions used throughout the package:

* SO(3) rotations are stored as Z-Y-Z Euler triples (alpha, beta, gamma) with
  alpha, gamma in [0, 2pi) and beta in [0, pi].  The associated matrix is
  Rz(alpha) Ry(beta) Rz(gamma).
* The Haar measure is normalized to total volume 1 on every space (SO(3),
  S^2).  All quadrature weights sum to 1.
* At the gimbal degeneracies beta in {0, pi} the stored gamma is 0 and the
  angle sum/difference is folded into alpha, so equal rotations compare equal.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi

# below this, sin(beta) is treated as exactly zero when extracting Euler angles
_GIMBAL_EPS = 1e-10


def _wrap(angle):
    a = np.mod(angle, TAU)
    # map values within rounding of 2pi back to 0
    return np.where(TAU - a < 1e-15, 0.0, a)


def _zyz_matrix(alpha, beta, gamma) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma) for broadcast arrays of angles: [..., 3, 3]."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rows = np.broadcast_arrays(ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb,
                               sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb,
                               -sb * cg, sb * sg, cb)
    return np.stack(rows, axis=-1).reshape(rows[0].shape + (3, 3))


def _zyz_angles(M: np.ndarray) -> tuple:
    """Canonical ZYZ Euler angles (alpha, beta, gamma) of rotation matrices
    [..., 3, 3], arrays over the leading axes.  Where sin(beta) is below
    _GIMBAL_EPS, gamma is 0 and alpha carries alpha + gamma (beta = 0) or
    alpha - gamma (beta = pi)."""
    cb = np.clip(M[..., 2, 2], -1.0, 1.0)
    sb = np.hypot(M[..., 0, 2], M[..., 1, 2])
    gimbal, up = sb < _GIMBAL_EPS, cb > 0.0
    alpha = np.where(gimbal, np.where(up, np.arctan2(M[..., 1, 0], M[..., 0, 0]),
                                      np.arctan2(-M[..., 0, 1], M[..., 1, 1])),
                     np.arctan2(M[..., 1, 2], M[..., 0, 2]))
    beta = np.where(gimbal, np.where(up, 0.0, np.pi), np.arctan2(sb, cb))
    gamma = np.where(gimbal, 0.0, np.arctan2(M[..., 2, 1], -M[..., 2, 0]))
    return _wrap(alpha), beta, _wrap(gamma)


# ---------------------------------------------------------------------------
# SO(3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rotation3:
    """Rotation in SO(3) as a canonical Z-Y-Z Euler triple."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (-1e-12 <= self.beta <= np.pi + 1e-12):
            raise ValueError(f"beta must lie in [0, pi], got {self.beta}")

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(0.0, 0.0, 0.0)

    @staticmethod
    def rz(angle: float) -> "Rotation3":
        return Rotation3(float(_wrap(angle)), 0.0, 0.0)

    @staticmethod
    def ry(angle: float) -> "Rotation3":
        a = float(np.mod(angle, TAU))
        if a <= np.pi:
            return Rotation3(0.0, a, 0.0)
        # Ry(a) = Rz(pi) Ry(2pi - a) Rz(pi)
        return Rotation3(np.pi, TAU - a, np.pi)

    def matrix(self) -> np.ndarray:
        return _zyz_matrix(self.alpha, self.beta, self.gamma)

    @staticmethod
    def from_matrix(M: np.ndarray) -> "Rotation3":
        return Rotation3(*map(float, _zyz_angles(np.asarray(M, dtype=float))))

    def compose(self, other: "Rotation3") -> "Rotation3":
        return Rotation3.from_matrix(self.matrix() @ other.matrix())

    def inverse(self) -> "Rotation3":
        return Rotation3.from_matrix(self.matrix().T)


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Equiangular sampling grid with Haar weights normalized to sum 1.

    The grid is the value (space, bandwidth), checked on construction (B an
    integer >= 1, a NumPy integer stored as int): it stores nothing else and
    compares by value.  nodes and weights are built on each access, one
    coordinate tuple and one weight per sample:
      S2     -> (alpha, beta), 2B x 2B samples
      SO3    -> (alpha, beta, gamma), 2B x 2B x 2B samples

    Node ordering is row-major over (alpha, beta[, gamma]), the axes of
    shape: samples [channels, n_nodes] reshape to [channels, *shape].
    """

    space: str
    bandwidth: int

    def __post_init__(self):
        B = self.bandwidth
        if isinstance(B, bool) or not isinstance(B, numbers.Integral) or B < 1:
            raise ValueError(f"bandwidth must be an integer >= 1, got {B!r}")
        object.__setattr__(self, "bandwidth", int(B))
        if self.space not in ("S2", "SO3"):
            raise ValueError(f"unknown space {self.space!r}")

    @property
    def shape(self) -> tuple:
        """The node axes: (2B, 2B) on S2, (2B, 2B, 2B) on SO3."""
        return (2 * self.bandwidth,) * (2 if self.space == "S2" else 3)

    @property
    def n_nodes(self) -> int:
        return (2 * self.bandwidth) ** len(self.shape)

    @property
    def nodes(self) -> np.ndarray:
        """[n_nodes, 2 or 3] angles, built on each access."""
        axes = [self.alphas, self.betas] + [self.gammas] * (self.space == "SO3")
        return np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")],
                        axis=1)

    @property
    def weights(self) -> np.ndarray:
        """[n_nodes] Haar weights, built on each access: 1/2B per alpha
        (and per gamma) times the colatitude weight."""
        n, wb = 2 * self.bandwidth, self.beta_weights
        if self.space == "S2":
            return (np.full((n, 1), 1.0 / n) * wb[None, :]).ravel()
        return (np.full((n, 1, 1), 1.0 / n) * wb[None, :, None]
                * np.full((1, 1, n), 1.0 / n)).ravel()

    @property
    def alphas(self) -> np.ndarray:
        B = self.bandwidth
        return np.pi * np.arange(2 * B) / B

    @property
    def betas(self) -> np.ndarray:
        B = self.bandwidth
        return np.pi * np.arange(2 * B) / (2 * B)

    @property
    def gammas(self) -> np.ndarray:
        return self.alphas

    @property
    def beta_weights(self) -> np.ndarray:
        """Colatitude weights, normalized so they sum to 1 (read-only)."""
        return _beta_weights(self.bandwidth)


@functools.lru_cache(maxsize=None)
def _beta_weights(B: int) -> np.ndarray:
    """Equiangular colatitude weights exact for Legendre degrees < 2B,
    normalized to sum 1 (read-only).

    Sum over nodes beta_j = pi j / (2B) of w_j P_n(cos beta_j) equals
    delta(n) for all n < 2B.
    """
    j = np.arange(2 * B)
    theta = np.pi * j / (2 * B)
    k = np.arange(B)
    # 2 w_j = (2/B) sin(theta_j) * sum_k sin((2k+1) theta_j) / (2k+1)
    S = np.sin(np.outer(theta, 2 * k + 1)) @ (1.0 / (2 * k + 1))
    w = (2.0 / B) * np.sin(theta) * S / 2.0
    w.setflags(write=False)
    return w


def quadrature_grid(space: str, bandwidth: int) -> QuadratureGrid:
    """Equiangular quadrature grid with degree-exact beta weights."""
    return QuadratureGrid(space, bandwidth)
