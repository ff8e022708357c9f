"""SO(3) rotations, the coset section, projection and twist of
S^2 = SO(3)/SO(2), and Haar-weighted quadrature grids.

Conventions used throughout the package:

* SO(3) rotations are stored as Z-Y-Z Euler triples (alpha, beta, gamma) with
  alpha, gamma in [0, 2pi) and beta in [0, pi].  The associated matrix is
  Rz(alpha) Ry(beta) Rz(gamma).
* The Haar measure is normalized to total volume 1 on every space (SO(3),
  S^2, the circle).  All quadrature weights sum to 1.
* At the gimbal degeneracies beta in {0, pi} the stored gamma is 0 and the
  angle sum/difference is folded into alpha, so equal rotations compare equal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi

# below this, sin(beta) is treated as exactly zero when extracting Euler angles
_GIMBAL_EPS = 1e-10


def _wrap(angle: float) -> float:
    a = float(np.mod(angle, TAU))
    # map values within rounding of 2pi back to 0
    if TAU - a < 1e-15:
        a = 0.0
    return a


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
        return Rotation3(_wrap(angle), 0.0, 0.0)

    @staticmethod
    def ry(angle: float) -> "Rotation3":
        a = float(np.mod(angle, TAU))
        if a <= np.pi:
            return Rotation3(0.0, a, 0.0)
        # Ry(a) = Rz(pi) Ry(2pi - a) Rz(pi)
        return Rotation3(np.pi, TAU - a, np.pi)

    def matrix(self) -> np.ndarray:
        ca, sa = np.cos(self.alpha), np.sin(self.alpha)
        cb, sb = np.cos(self.beta), np.sin(self.beta)
        cg, sg = np.cos(self.gamma), np.sin(self.gamma)
        return np.array([
            [ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb],
            [sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb],
            [-sb * cg, sb * sg, cb],
        ])

    @staticmethod
    def from_matrix(M: np.ndarray) -> "Rotation3":
        M = np.asarray(M, dtype=float)
        cb = min(1.0, max(-1.0, M[2, 2]))
        sb = float(np.hypot(M[0, 2], M[1, 2]))
        if sb < _GIMBAL_EPS:
            if cb > 0.0:
                # pure z-rotation by alpha + gamma; store it all in alpha
                return Rotation3(_wrap(np.arctan2(M[1, 0], M[0, 0])), 0.0, 0.0)
            # beta = pi: z-rotation by alpha - gamma composed with Ry(pi)
            return Rotation3(_wrap(np.arctan2(-M[0, 1], M[1, 1])), np.pi, 0.0)
        alpha = np.arctan2(M[1, 2], M[0, 2])
        gamma = np.arctan2(M[2, 1], -M[2, 0])
        beta = np.arctan2(sb, cb)
        return Rotation3(_wrap(alpha), float(beta), _wrap(gamma))

    def compose(self, other: "Rotation3") -> "Rotation3":
        return Rotation3.from_matrix(self.matrix() @ other.matrix())

    def inverse(self) -> "Rotation3":
        return Rotation3.from_matrix(self.matrix().T)

    def apply(self, xyz: np.ndarray) -> np.ndarray:
        return self.matrix() @ np.asarray(xyz, dtype=float)


# ---------------------------------------------------------------------------
# The S^2 section, coset projection and twist
# ---------------------------------------------------------------------------

def section_s2(alpha: float, beta: float) -> Rotation3:
    """Coset section for S^2 = SO(3)/SO(2): the gamma = 0 representative."""
    return Rotation3(_wrap(alpha), float(beta), 0.0)


def project_s2(g: Rotation3) -> tuple[float, float]:
    """Coset projection SO(3) -> S^2 (image of the north pole); gamma drops."""
    return g.alpha, g.beta


def twist_s2(g: Rotation3, x: tuple[float, float]) -> float:
    """Twist angle h(g, x) in SO(2), defined by g s(x) = s(g x) h(g, x).

    Returned as the rotation angle about the z axis.
    """
    gs = g.compose(section_s2(*x))
    gx = project_s2(gs)
    h = section_s2(*gx).inverse().compose(gs)
    # h must be a z-rotation; after canonicalization its angle sits in alpha
    if h.beta > 1e-9 and np.pi - h.beta > 1e-9:
        raise ValueError("twist did not land in the stabilizer")
    return _wrap(h.alpha + h.gamma)


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Equiangular sampling grid with Haar weights normalized to sum 1.

    nodes holds one coordinate tuple per sample:
      S2     -> (alpha, beta), 2B x 2B samples
      SO3    -> (alpha, beta, gamma), 2B x 2B x 2B samples
      Circle -> (angle,), 2B samples

    Node ordering is row-major over (alpha, beta[, gamma]).
    """

    space: str
    bandwidth: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

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


def _dh_beta_weights(B: int) -> np.ndarray:
    """Equiangular colatitude weights exact for Legendre degrees < 2B.

    Sum over nodes beta_j = pi j / (2B) of w_j P_n(cos beta_j) equals
    2*delta(n) for all n < 2B; the weights sum to 2 (the measure of [-1,1]).
    """
    j = np.arange(2 * B)
    theta = np.pi * j / (2 * B)
    k = np.arange(B)
    # w_j = (2/B) sin(theta_j) * sum_k sin((2k+1) theta_j) / (2k+1)
    S = np.sin(np.outer(theta, 2 * k + 1)) @ (1.0 / (2 * k + 1))
    return (2.0 / B) * np.sin(theta) * S


@functools.lru_cache(maxsize=None)
def _beta_weights(B: int) -> np.ndarray:
    w = _dh_beta_weights(B) / 2.0
    w.setflags(write=False)
    return w


def quadrature_grid(space: str, bandwidth: int) -> QuadratureGrid:
    """Equiangular quadrature grid with degree-exact beta weights.

    Built once per (space, bandwidth): repeated calls return the same grid,
    whose node and weight arrays are read-only.
    """
    if bandwidth < 1:
        raise ValueError("bandwidth must be >= 1")
    if space not in ("Circle", "S2", "SO3"):
        raise ValueError(f"unknown space {space!r}")
    return _grid(space, bandwidth)


@functools.lru_cache(maxsize=32)
def _grid(space: str, B: int) -> QuadratureGrid:
    n = 2 * B
    alphas = np.pi * np.arange(n) / B
    betas = np.pi * np.arange(n) / n
    wb = _beta_weights(B)
    if space == "Circle":
        nodes = alphas[:, None]
        weights = np.full(n, 1.0 / n)
    elif space == "S2":
        A, Bt = np.meshgrid(alphas, betas, indexing="ij")
        nodes = np.stack([A.ravel(), Bt.ravel()], axis=1)
        weights = (np.full((n, 1), 1.0 / n) * wb[None, :]).ravel()
    else:
        A, Bt, G = np.meshgrid(alphas, betas, alphas, indexing="ij")
        nodes = np.stack([A.ravel(), Bt.ravel(), G.ravel()], axis=1)
        weights = (np.full((n, 1, 1), 1.0 / n) * wb[None, :, None]
                   * np.full((1, 1, n), 1.0 / n)).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureGrid(space, B, nodes, weights)
