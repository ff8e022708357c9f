"""Equivariant nonlinearities: lift mixed-order fields to the group, apply a
pointwise activation there, and project back to chosen output orders.

Pointwise activation commutes with the regular representation because the
action on group samples is a pure index permutation for grid-aligned
elements.  The activation is not bandlimited, so projection after activation
carries aliasing error for non-grid-aligned rotations; callers control it
with the oversampling factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import quadrature_grid
from .fields import (FieldType, GroupFunction, TensorField,
                     field_from_spin_coeffs, lift, resample, spin_coeffs)
from .harmonics import real_sph_harm_matrix
from .spectral_conv import kernel_to_spatial, spectral_identity_kernel
from .transforms import fiber_dft, so3_ft_forward

__all__ = [
    "ActivationSpec", "lift_sum", "activate", "project_column",
    "project_kernel", "delta_projection_kernel", "nonlinearity",
    "point_sphere_nonlin",
]


@dataclass
class ActivationSpec:
    """Pointwise activation: relu, gelu, tanh, or a small per-point MLP.

    MLP weights act across channels at each node: layers alternate
    x -> relu(W x + b) with the last layer linear.
    """

    kind: str = "relu"
    weights: list = field(default_factory=list)   # [(W, b), ...] real arrays

    def __post_init__(self):
        if self.kind not in ("relu", "gelu", "tanh", "per_point_mlp"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "per_point_mlp" and not self.weights:
            raise ValueError("per_point_mlp requires weight matrices")
        self.weights = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
                        for W, b in self.weights]

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        """Apply the activation to a real array [channels, nodes]."""
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "tanh":
            return np.tanh(x)
        if self.kind == "gelu":
            return 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)))
        out = x
        for i, (W, b) in enumerate(self.weights):
            out = W @ out + b[:, None]
            if i + 1 < len(self.weights):
                out = np.maximum(out, 0.0)
        return out


_erf = np.vectorize(math.erf)


# ---------------------------------------------------------------------------
# Lift-sum and activation
# ---------------------------------------------------------------------------


def lift_sum(fields: list) -> GroupFunction:
    """Sum of the Mackey lifts of mixed-order fields sharing one grid."""
    if not fields:
        raise ValueError("need at least one field")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid is not grid and (f.grid.space != grid.space
                                   or f.grid.bandwidth != grid.bandwidth):
            raise ValueError("all fields must share a grid")
    total = None
    for f in fields:
        m = lift(f)
        total = m.samples if total is None else total + m.samples
    return GroupFunction(m.grid, total)


def activate(gf: GroupFunction, spec: ActivationSpec) -> GroupFunction:
    """Apply the activation at every node, to real and imaginary parts.

    A node-wise map commutes bitwise with any sample permutation, hence with
    all grid-aligned regular-representation shifts.
    """
    x = gf.flat()
    out = spec.apply_real(x.real) + 1j * spec.apply_real(x.imag)
    return GroupFunction(gf.grid, out)


# ---------------------------------------------------------------------------
# Projections back to the sphere
# ---------------------------------------------------------------------------


def project_column(gf: GroupFunction, out_order: int) -> TensorField:
    """Average over the stabilizer fiber against e^{i m gamma}.

    Inverts the lift on order-m components: project_column(lift(f), k) = f.
    """
    B = gf.grid.bandwidth
    if abs(out_order) >= B:
        raise ValueError("output order must satisfy |m| < bandwidth")
    samples = fiber_dft(gf.flat(), gf.grid, out_order)
    return TensorField(quadrature_grid("S2", B), FieldType("SO2", out_order),
                       samples)


def delta_projection_kernel(out_order: int, bandwidth: int) -> GroupFunction:
    """Mackey kernel whose projection reproduces column extraction:
    kappa(g) = sum_l (2l+1) D^l_{mm}(g), the bandlimited delta of order m.
    """
    return GroupFunction(quadrature_grid("SO3", bandwidth), kernel_to_spatial(
        spectral_identity_kernel(out_order, bandwidth)))


def project_kernel(gf: GroupFunction, kernel: GroupFunction,
                   out_order: int) -> TensorField:
    """Project with a group-convolution kernel: f(x) = integral of
    kappa(g^{-1} s(x)) l(g) dg, evaluated spectrally and restricted to the
    gamma = 0 section.

    The kernel must satisfy the one-sided Mackey constraint for the output
    order (its spectrum column-sparse at n = out_order); a relative
    off-column norm above 1e-8 is an error.
    """
    B = gf.grid.bandwidth
    if kernel.grid.bandwidth != B:
        raise ValueError("kernel and input grids differ")
    if kernel.channels != 1:
        raise ValueError("projection kernel must be single-channel")
    k_hat = so3_ft_forward(kernel.flat(), kernel.grid)
    total = k_hat.norm_squared()
    off = k_hat.off_column_energy(out_order)
    if total > 0 and off / total > 1e-8 ** 2:
        raise ValueError("kernel violates the Mackey constraint for order "
                         f"{out_order} (relative residual {off / total:.3e})")
    l_hat = so3_ft_forward(gf.flat(), gf.grid)
    coeffs: list = [None] * B
    for l in range(abs(out_order), B):
        kcol = k_hat.blocks[l][0, :, out_order + l]          # [2l+1]
        # out_hat^l_{m, m_out} = sum_j l_hat^l_{mj} k_hat^l_{j, m_out}
        coeffs[l] = np.einsum("cmj,j->cm", l_hat.blocks[l], kcol)
    return field_from_spin_coeffs(coeffs, out_order, quadrature_grid("S2", B))


# ---------------------------------------------------------------------------
# The composite nonlinearity
# ---------------------------------------------------------------------------


def nonlinearity(fields_in: list, spec: ActivationSpec, out_orders: list,
                 oversample: int = 2) -> list:
    """Lift-sum, pointwise activation, column projection per output order.

    The activation runs on a grid oversampled by the given integer factor
    (>= 1); inputs are resampled up and outputs truncated back to the
    original bandwidth, which bounds aliasing from the non-bandlimited
    activation.
    """
    if oversample < 1:
        raise ValueError("oversample factor must be a positive integer")
    B = fields_in[0].grid.bandwidth
    B_work = B * oversample
    work = [resample(f, B_work) if B_work != B else f for f in fields_in]
    acted = activate(lift_sum(work), spec)
    out = []
    for m in out_orders:
        proj = project_column(acted, m)
        out.append(resample(proj, B) if B_work != B else proj)
    return out


# ---------------------------------------------------------------------------
# Per-point sphere nonlinearity for SE(3) features
# ---------------------------------------------------------------------------


def point_sphere_nonlin(features: list, spec: ActivationSpec,
                        bandwidth: int) -> list:
    """Per-point nonlinearity on SE(3) features in the real basis.

    features[l] is a real array [n_points, 2l+1, channels] (None for absent
    orders), the layout of PointCloud.features and of tfn_point_conv's
    output; the result has the same layout and orders.  Each point's
    feature stack is synthesized as channels of a function on the sphere
    using real orthonormal harmonics, the activation is applied on the
    sphere grid (a per-point MLP mixes channels), and the result is
    analyzed back to the same orders.
    """
    lmax = max(l for l, f in enumerate(features) if f is not None)
    if lmax >= bandwidth:
        raise ValueError("feature order reaches the sphere bandwidth")
    grid = quadrature_grid("S2", bandwidth)
    Y = real_sph_harm_matrix(lmax, grid.nodes[:, 0], grid.nodes[:, 1])
    n_pts, _, n_ch = next(f.shape for f in features if f is not None)
    dim = (lmax + 1) ** 2
    coeff = np.zeros((n_pts, dim, n_ch))
    for l, f in enumerate(features):
        if f is None:
            continue
        coeff[:, l * l:(l + 1) * (l + 1)] = f
    vals = np.einsum("pdc,nd->pcn", coeff, Y)            # sphere samples
    acted = np.stack([spec.apply_real(v) for v in vals])
    w = grid.weights
    back = np.einsum("pcn,nd,n->pdc", acted, Y, w)
    out: list = [None] * len(features)
    for l, f in enumerate(features):
        if f is None:
            continue
        out[l] = back[:, l * l:(l + 1) * (l + 1)]
    return out
