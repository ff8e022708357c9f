"""Closed-form steerable kernel bases for SE(2) and SE(3), and a point-cloud
convolution built from the SE(3) basis.

SE(2) kernels mapping order m_in to order m_out features factor into a free
radial profile and the fixed phase e^{i (m_out - m_in) phi}.  SE(3) kernels
between degree-l_in and degree-l_out features decompose over an intertwiner
degree t in |l_in - l_out| .. l_in + l_out, each term a free radial profile
times a fixed angular matrix.  This module works in the real representation:
features are real vectors and kernels real matrices, rotating by
wigner_D_real blocks.  The angular matrix of a term is sum_nu S^t_nu(x) G[nu]
with S^t the real harmonics of degree t and G a real coupling tensor, the
Clebsch-Gordan coupling moved to the real bases; G is built once per
(t, l_in, l_out) and cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .harmonics import cg_matrix, real_basis_change, real_sph_harm_matrix
from .nonlin import point_sphere_nonlin

__all__ = [
    "SE2KernelBasis", "se2_kernel_eval", "SE3KernelBasis", "se3_kernel_eval",
    "se3_kernel_eval_many", "PointCloud", "tfn_point_conv", "se3_layer",
]


# ---------------------------------------------------------------------------
# SE(2)
# ---------------------------------------------------------------------------


@dataclass
class SE2KernelBasis:
    """Steerable SE(2) kernel: radial profile times e^{i(m_out - m_in) phi}."""

    m_in: int
    m_out: int
    radii: np.ndarray
    values: np.ndarray    # real R(a) sampled at radii

    def __post_init__(self):
        _check_profile(self)


def _check_profile(basis) -> None:
    """Store basis.radii/values as floats; they must be matching 1-d arrays
    with strictly increasing radii."""
    basis.radii = np.asarray(basis.radii, dtype=float)
    basis.values = np.asarray(basis.values, dtype=float)
    if basis.radii.ndim != 1 or basis.radii.shape != basis.values.shape:
        raise ValueError("radii and values must be matching 1-d arrays")
    if np.any(np.diff(basis.radii) <= 0):
        raise ValueError("radii must be strictly increasing")


def se2_kernel_eval(basis: SE2KernelBasis, x) -> complex:
    """e^{i(m_out - m_in) phi(x)} R(|x|), radial profile linearly interpolated."""
    x = np.asarray(x, dtype=float)
    a = float(np.hypot(x[0], x[1]))
    phi = float(np.arctan2(x[1], x[0]))
    r = float(np.interp(a, basis.radii, basis.values))
    return np.exp(1j * (basis.m_out - basis.m_in) * phi) * r


# ---------------------------------------------------------------------------
# SE(3)
# ---------------------------------------------------------------------------


@dataclass
class SE3KernelBasis:
    """One intertwiner term of the SE(3) kernel between degrees l_in, l_out.

    The angular matrix couples the input degree to the output degree through
    spherical harmonics of degree t; the radial profile C_t is free.
    """

    l_in: int
    l_out: int
    t: int
    radii: np.ndarray
    values: np.ndarray    # real C_t(r) sampled at radii

    def __post_init__(self):
        if self.l_in < 0 or self.l_out < 0:
            raise ValueError("degrees must be nonnegative")
        if not abs(self.l_in - self.l_out) <= self.t <= self.l_in + self.l_out:
            raise ValueError(f"t={self.t} outside |l_in-l_out|..l_in+l_out")
        _check_profile(self)


@functools.lru_cache(maxsize=None)
def _coupling(t: int, l_in: int, l_out: int) -> np.ndarray:
    """Real coupling tensor G[nu, a, b], read-only, shape
    [2t+1, 2l_out+1, 2l_in+1].

    The complex angular matrix sum_mu <l_out i | t mu, l_in j> conj(Y^t_mu),
    moved to the real bases as U_out . U_in^H and written with
    conj(Y^t) = S^t U_t, is sum_nu S^t_nu H[nu].  G = Re(i^p H) with
    p = (t + l_in + l_out) mod 2: H is real for even p and imaginary for
    odd p, to rounding.
    """
    H = np.einsum("ai,imj,bj,nm->nab", real_basis_change(l_out),
                  cg_matrix(t, l_in, l_out), np.conj(real_basis_change(l_in)),
                  real_basis_change(t), optimize=True)
    G = np.ascontiguousarray(-H.imag if (t + l_in + l_out) % 2 else H.real)
    G.setflags(write=False)
    return G


def se3_kernel_eval_many(basis: SE3KernelBasis, X: np.ndarray) -> np.ndarray:
    """Kernel matrices at offsets X [n, 3]: C_t(|x|) sum_nu S^t_nu(x/|x|) G[nu].

    The origin maps to zero for t > 0 (the angular factor has no limit
    there) and to C_t(0) times G[0], the identity to rounding, for t = 0.
    """
    X = np.asarray(X, dtype=float)
    t = basis.t
    r = np.linalg.norm(X, axis=1)
    at_origin = r < 1e-15
    prof = np.interp(r, basis.radii, basis.values)
    prof[at_origin & (t > 0)] = 0.0
    betas = np.arccos(np.clip(X[:, 2] / np.where(at_origin, 1.0, r), -1.0, 1.0))
    alphas = np.arctan2(X[:, 1], X[:, 0])
    S = real_sph_harm_matrix(t, alphas, betas)[:, t * t:]     # [n, 2t+1]
    return np.tensordot(prof[:, None] * S, _coupling(t, basis.l_in, basis.l_out),
                        axes=1)


def se3_kernel_eval(basis: SE3KernelBasis, x) -> np.ndarray:
    """Single-point kernel matrix, shape (2 l_out + 1, 2 l_in + 1)."""
    return se3_kernel_eval_many(basis, np.asarray(x, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# Point clouds and TFN-style convolution
# ---------------------------------------------------------------------------


@dataclass
class PointCloud:
    """Point positions with real features per rotation order.

    features[l] is a real array [n_points, 2l+1, channels] or None.
    """

    positions: np.ndarray
    features: list = field(default_factory=list)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be an [n, 3] array")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        feats = []
        for l, f in enumerate(self.features):
            if f is None:
                feats.append(None)
                continue
            f = np.asarray(f, dtype=float)
            if f.shape[:2] != (self.n_points, 2 * l + 1):
                raise ValueError(f"features[{l}] must be [n, {2*l+1}, channels]")
            if not np.all(np.isfinite(f)):
                raise ValueError("features must be finite")
            feats.append(f)
        self.features = feats

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


def tfn_point_conv(cloud: PointCloud, terms: list, radius: float) -> list:
    """Point convolution: f_out^{l_out}(x_i) = sum over neighbors j != i
    within the radius of K(x_j - x_i) f_in^{l_in}(x_j), per basis term,
    channel-mixed and accumulated over terms sharing an output order.

    terms is a list of (SE3KernelBasis, weight) with weight a real
    [c_out, c_in] channel-mixing matrix.  The edges (i, j) form one flat
    list sorted by i, then j; each term is evaluated once on all edges and
    scatter-added to the points i in that order, so accumulation is
    deterministic.  Points with no neighbors produce zeros.
    """
    if radius <= 0:
        raise ValueError("neighbor radius must be positive")
    weights = []
    for basis, weight in terms:
        weight = np.asarray(weight, dtype=float)
        fin = cloud.features[basis.l_in]
        if fin is None:
            raise ValueError(f"input features of order {basis.l_in} missing")
        if weight.ndim != 2 or weight.shape[1] != fin.shape[2]:
            raise ValueError("channel-mixing matrix shape mismatch")
        weights.append(weight)
    out: list = [None] * (max(t[0].l_out for t in terms) + 1)
    n = cloud.n_points
    pos = cloud.positions
    dist = np.linalg.norm(pos[None, :, :] - pos[:, None, :], axis=2)
    i, j = np.nonzero((dist < radius) & ~np.eye(n, dtype=bool))   # row-major
    offsets = pos[j] - pos[i]
    for (basis, _), weight in zip(terms, weights):
        K = se3_kernel_eval_many(basis, offsets)            # [edge, out, in]
        msg = np.einsum("eij,ejc,oc->eio", K, cloud.features[basis.l_in][j],
                        weight)
        acc = np.zeros((n, 2 * basis.l_out + 1, weight.shape[0]))
        np.add.at(acc, i, msg)
        out[basis.l_out] = acc if out[basis.l_out] is None else out[basis.l_out] + acc
    return out


def se3_layer(cloud: PointCloud, terms: list, radius: float, spec,
              bandwidth: int) -> list:
    """tfn_point_conv followed by the per-point sphere nonlinearity."""
    return point_sphere_nonlin(tfn_point_conv(cloud, terms, radius), spec,
                               bandwidth)
