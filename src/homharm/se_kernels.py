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
(t, l_in, l_out) and cached.  The point convolution evaluates its edge
geometry (neighbour list, radii, real harmonics up to the largest t) once
per call and shares it across all terms; se3_kernel_eval_many and the
convolution build kernel matrices with the same private helper.
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


def _edge_geometry(X: np.ndarray, t_max: int):
    """Radii, origin mask and real harmonics S [n, (t_max+1)^2] of the
    directions of offsets X [n, 3]; the origin gets the +z direction."""
    r = np.linalg.norm(X, axis=1)
    at_origin = r < 1e-15
    betas = np.arccos(np.clip(X[:, 2] / np.where(at_origin, 1.0, r), -1.0, 1.0))
    alphas = np.arctan2(X[:, 1], X[:, 0])
    return r, at_origin, real_sph_harm_matrix(t_max, alphas, betas)


def _kernel(basis: SE3KernelBasis, r, at_origin, S) -> np.ndarray:
    """Kernel matrices [n, 2l_out+1, 2l_in+1] of one term on the geometry
    of _edge_geometry (any t_max >= basis.t)."""
    t = basis.t
    prof = np.interp(r, basis.radii, basis.values)
    if t > 0:
        prof[at_origin] = 0.0
    G = _coupling(t, basis.l_in, basis.l_out)
    return (prof[:, None] * S[:, t * t:(t + 1) * (t + 1)]
            @ G.reshape(2 * t + 1, -1)).reshape(len(r), *G.shape[1:])


def se3_kernel_eval_many(basis: SE3KernelBasis, X: np.ndarray) -> np.ndarray:
    """Kernel matrices at offsets X [n, 3]: C_t(|x|) sum_nu S^t_nu(x/|x|) G[nu].

    The origin maps to zero for t > 0 (the angular factor has no limit
    there) and to C_t(0) times G[0], the identity to rounding, for t = 0.
    """
    return _kernel(basis, *_edge_geometry(np.asarray(X, dtype=float), basis.t))


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


_ROW_BLOCK = 256      # rows of the distance matrix held at once in _edges


def _edges(pos: np.ndarray, radius: float):
    """Ordered pairs (i, j), j != i, with |x_j - x_i| < radius, sorted by i
    and then j; the distances are computed _ROW_BLOCK rows at a time."""
    ii, jj = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(pos), _ROW_BLOCK):
        rows = pos[start:start + _ROW_BLOCK]
        sq = np.zeros((len(rows), len(pos)))
        for k in range(3):               # summed in np.linalg.norm's order
            diff = pos[:, k] - rows[:, k, None]
            sq += diff * diff
        i, j = np.nonzero(np.sqrt(sq) < radius)                # row-major
        i += start
        keep = i != j
        ii.append(i[keep])
        jj.append(j[keep])
    return np.concatenate(ii), np.concatenate(jj)


def tfn_point_conv(cloud: PointCloud, terms: list, radius: float) -> list:
    """Point convolution: f_out^{l_out}(x_i) = sum over neighbors j != i
    within the radius of K(x_j - x_i) f_in^{l_in}(x_j), per basis term,
    channel-mixed and accumulated over terms sharing an output order.

    terms is a list of (SE3KernelBasis, weight) with weight a real
    [c_out, c_in] channel-mixing matrix.  The edges (i, j) form one flat
    list sorted by i, then j, found _ROW_BLOCK rows of distances at a time.
    Their geometry (radii and the real harmonics up to the largest t of the
    terms) is evaluated once per call, and the input features are gathered
    once per input order.  A term's messages are its kernel matrices on the
    edges times the channel-mixed gathered features; they are summed per
    output order over the edges and then into the points i in edge order
    (one reduction per output order), so accumulation is deterministic.
    Points with no neighbors produce zeros.
    """
    if radius <= 0:
        raise ValueError("neighbor radius must be positive")
    if not terms:
        raise ValueError("point convolution needs at least one kernel term")
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
    pos = cloud.positions
    i, j = _edges(pos, radius)
    geometry = _edge_geometry(pos[j] - pos[i], max(t[0].t for t in terms))
    gathered = {l: cloud.features[l][j] for l in {b.l_in for b, _ in terms}}
    msgs: dict = {}
    for (basis, _), weight in zip(terms, weights):
        fj = gathered[basis.l_in]                            # [edge, in, c]
        mixed = (fj.reshape(-1, fj.shape[2]) @ weight.T).reshape(
            *fj.shape[:2], len(weight))
        msg = _kernel(basis, *geometry) @ mixed              # [edge, out, c_out]
        if basis.l_out in msgs:
            msgs[basis.l_out] += msg
        else:
            msgs[basis.l_out] = msg
    first = np.flatnonzero(np.diff(i, prepend=-1))         # each i's first edge
    for lo, msg in msgs.items():
        out[lo] = np.zeros((cloud.n_points,) + msg.shape[1:])
        if len(i):
            out[lo][i[first]] = np.add.reduceat(msg, first, axis=0)
    return out


def se3_layer(cloud: PointCloud, terms: list, radius: float, spec,
              bandwidth: int) -> list:
    """tfn_point_conv followed by the per-point sphere nonlinearity."""
    return point_sphere_nonlin(tfn_point_conv(cloud, terms, radius), spec,
                               bandwidth)
