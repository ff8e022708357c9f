"""Group elements for SO(3), SE(2), SE(3), coset sections, twist functions,
and Haar-weighted quadrature grids.

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
# SE(2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SE2Element:
    """Rigid motion of the plane, translation in polar form plus rotation.

    The translation is a*(cos phi, sin phi); theta is the rotation angle.
    """

    a: float
    phi: float
    theta: float

    def __post_init__(self):
        if self.a < 0.0:
            raise ValueError("radius a must be nonnegative")

    @staticmethod
    def identity() -> "SE2Element":
        return SE2Element(0.0, 0.0, 0.0)

    @staticmethod
    def from_xy(x: float, y: float, theta: float) -> "SE2Element":
        a = float(np.hypot(x, y))
        phi = _wrap(np.arctan2(y, x)) if a > 0.0 else 0.0
        return SE2Element(a, phi, _wrap(theta))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.a * np.cos(self.phi), self.a * np.sin(self.phi)])

    def matrix(self) -> np.ndarray:
        c, s = np.cos(self.theta), np.sin(self.theta)
        x, y = self.xy
        return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])

    @staticmethod
    def from_matrix(M: np.ndarray) -> "SE2Element":
        M = np.asarray(M, dtype=float)
        theta = np.arctan2(M[1, 0], M[0, 0])
        return SE2Element.from_xy(M[0, 2], M[1, 2], theta)

    def compose(self, other: "SE2Element") -> "SE2Element":
        return SE2Element.from_matrix(self.matrix() @ other.matrix())

    def inverse(self) -> "SE2Element":
        c, s = np.cos(self.theta), np.sin(self.theta)
        x, y = self.xy
        return SE2Element.from_xy(-(c * x + s * y), -(-s * x + c * y), -self.theta)


# ---------------------------------------------------------------------------
# SE(3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SE3Element:
    """Rigid motion of 3-space: translation x followed by rotation R."""

    x: np.ndarray
    R: Rotation3

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))

    @staticmethod
    def identity() -> "SE3Element":
        return SE3Element(np.zeros(3), Rotation3.identity())

    def matrix(self) -> np.ndarray:
        M = np.eye(4)
        M[:3, :3] = self.R.matrix()
        M[:3, 3] = self.x
        return M

    @staticmethod
    def from_matrix(M: np.ndarray) -> "SE3Element":
        M = np.asarray(M, dtype=float)
        return SE3Element(M[:3, 3], Rotation3.from_matrix(M[:3, :3]))

    def compose(self, other: "SE3Element") -> "SE3Element":
        return SE3Element(self.x + self.R.apply(other.x), self.R.compose(other.R))

    def inverse(self) -> "SE3Element":
        Rinv = self.R.inverse()
        return SE3Element(-Rinv.apply(self.x), Rinv)


GroupElement = Rotation3 | SE2Element | SE3Element


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product g1 * g2, canonicalized to the stored parameter ranges."""
    if type(g1) is not type(g2):
        raise TypeError(f"cannot compose {type(g1).__name__} with {type(g2).__name__}")
    return g1.compose(g2)


def inverse(g: GroupElement) -> GroupElement:
    return g.inverse()


# ---------------------------------------------------------------------------
# Sections, coset projections and twists
# ---------------------------------------------------------------------------

def section_s2(alpha: float, beta: float) -> Rotation3:
    """Coset section for S^2 = SO(3)/SO(2): the gamma = 0 representative."""
    return Rotation3(_wrap(alpha), float(beta), 0.0)


def project_s2(g: Rotation3) -> tuple[float, float]:
    """Coset projection SO(3) -> S^2 (image of the north pole); gamma drops."""
    return g.alpha, g.beta


def section_r2(x: np.ndarray) -> SE2Element:
    """Coset section for R^2 = SE(2)/SO(2): translation with zero rotation."""
    x = np.asarray(x, dtype=float)
    return SE2Element.from_xy(x[0], x[1], 0.0)


def section_r3(x: np.ndarray) -> SE3Element:
    """Coset section for R^3 = SE(3)/SO(3): translation with identity rotation."""
    return SE3Element(np.asarray(x, dtype=float), Rotation3.identity())


def section(space: str, x) -> GroupElement:
    if space == "S2":
        return section_s2(x[0], x[1])
    if space == "R2":
        return section_r2(x)
    if space == "R3":
        return section_r3(x)
    raise ValueError(f"unknown homogeneous space {space!r}")


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


def twist_se2(g: SE2Element, x=None) -> float:
    """Twist of SE(2) acting on R^2; independent of the base point."""
    return g.theta


def twist_se3(g: SE3Element, x=None) -> Rotation3:
    """Twist of SE(3) acting on R^3; independent of the base point."""
    return g.R


def twist(g: GroupElement, x=None):
    if isinstance(g, Rotation3):
        return twist_s2(g, x)
    if isinstance(g, SE2Element):
        return twist_se2(g, x)
    if isinstance(g, SE3Element):
        return twist_se3(g, x)
    raise TypeError(f"unsupported group element {type(g).__name__}")


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
