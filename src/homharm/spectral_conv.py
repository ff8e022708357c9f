"""Fourier-domain convolution with column-constrained sparse kernels.

A kernel mapping order m_in fields to order m_out fields is determined by
one scalar c^l per degree l >= max(|m_in|, |m_out|): its Mackey function on
SO(3) is

    kappa(g) = sum_l c^l D^l_{m_in, m_out}(g)

and convolution acts on the lifted spectrum blockwise as
out_hat^l = in_hat^l @ kappa_hat^l.  The input is column-sparse at n = m_in
and kappa_hat^l is nonzero only at entry (m_in, m_out), where it equals
c^l / (2l+1) under our forward-transform normalization (the Plancherel
weight lives in the inverse transform).  The whole operation therefore
collapses to scaling the input column by c^l / (2l+1) and relabelling it as
column m_out.  conv_spatial_oracle checks this in direct space, with kappa's
beta profile folded from Delta^l = d^l(pi/2): it shares no Wigner recursion
with the transforms it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import _zyz_angles, _zyz_matrix, quadrature_grid
from .harmonics import _delta, _fold, _fold_basis
from .fields import (FieldType, TensorField, field_from_spin_coeffs, lift,
                     spin_coeffs)
from .transforms import SpectralBlocks

__all__ = [
    "SparseKernelSpec", "kernel_degrees", "conv_spectral", "conv_field",
    "kernel_to_spatial", "conv_spatial_oracle", "conv_vjp",
    "spectral_identity_kernel",
]


def kernel_degrees(m_in: int, m_out: int, bandwidth: int) -> range:
    """Degrees carrying kernel coefficients: max(|m_in|,|m_out|) .. B-1."""
    return range(max(abs(m_in), abs(m_out)), bandwidth)


@dataclass
class SparseKernelSpec:
    """Sparse spectral kernel: one complex scalar per degree and channel pair.

    coeffs has shape [c_out, c_in, n_l] where n_l covers the degrees
    l = max(|m_in|, |m_out|) .. bandwidth-1 in order.
    """

    m_in: int
    m_out: int
    bandwidth: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim == 1:
            arr = arr[None, None, :]
        n_l = len(kernel_degrees(self.m_in, self.m_out, self.bandwidth))
        if n_l <= 0:
            raise ValueError("kernel orders exceed the bandwidth")
        if arr.ndim != 3 or arr.shape[2] != n_l:
            raise ValueError(f"coeffs must have shape [c_out, c_in, {n_l}], "
                             f"got {np.asarray(self.coeffs).shape}")
        self.coeffs = arr

    @property
    def c_out(self) -> int:
        return self.coeffs.shape[0]

    @property
    def c_in(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degrees(self) -> range:
        return kernel_degrees(self.m_in, self.m_out, self.bandwidth)

    def coeff(self, l: int) -> np.ndarray:
        """[c_out, c_in] coefficient matrix of degree l."""
        lo = self.degrees.start
        if not lo <= l < self.bandwidth:
            raise ValueError(f"degree {l} outside kernel range")
        return self.coeffs[:, :, l - lo]


def spectral_identity_kernel(m: int, bandwidth: int) -> SparseKernelSpec:
    """Single-channel kernel acting as identity on order-m fields:
    c^l = 2l+1."""
    degs = kernel_degrees(m, m, bandwidth)
    return SparseKernelSpec(m, m, bandwidth,
                            np.array([2 * l + 1 for l in degs], dtype=complex))


# ---------------------------------------------------------------------------
# Spectral convolution
# ---------------------------------------------------------------------------


def _scale_degrees(kernel: SparseKernelSpec, cols) -> list:
    """out[l] = (c^l / (2l+1)) @ cols[l] on the kernel degrees: the whole
    convolution, acting on one column of the lifted spectrum."""
    out: list = [None] * kernel.bandwidth
    for l in kernel.degrees:
        out[l] = np.einsum("oi,im->om", kernel.coeff(l) / (2 * l + 1), cols[l])
    return out


def conv_spectral(blocks: SpectralBlocks, kernel: SparseKernelSpec) -> SpectralBlocks:
    """Convolve column-sparse spectral blocks with a sparse kernel.

    The input must be column-sparse at n = m_in (an off-column amplitude
    above OFF_COLUMN_TOL is an error); the output is column-sparse at
    n = m_out with

        out_hat^l_{m, m_out} = sum_{c_in} (c^l / (2l+1)) in_hat^l_{m, m_in}.
    """
    if blocks.bandwidth != kernel.bandwidth:
        raise ValueError("kernel and input bandwidths differ")
    if blocks.channels != kernel.c_in:
        raise ValueError(f"kernel expects {kernel.c_in} input channels, "
                         f"got {blocks.channels}")
    blocks.require_column(kernel.m_in, "input spectrum")
    out = SpectralBlocks.zeros(blocks.bandwidth, kernel.c_out)
    out.set_column(kernel.m_out,
                   _scale_degrees(kernel, blocks.column(kernel.m_in)))
    return out


def conv_field(field: TensorField, kernel: SparseKernelSpec) -> TensorField:
    """Convolve an order-m_in field on S^2, producing an order-m_out field."""
    if field.grid.bandwidth != kernel.bandwidth:
        raise ValueError("kernel and grid bandwidths differ")
    if field.field_type.order != kernel.m_in:
        raise ValueError(f"kernel expects input order {kernel.m_in}, "
                         f"field has order {field.field_type.order}")
    if field.channels != kernel.c_in:
        raise ValueError("channel mismatch between field and kernel")
    return field_from_spin_coeffs(_scale_degrees(kernel, spin_coeffs(field)),
                                  kernel.m_out, field.grid)


# ---------------------------------------------------------------------------
# Spatial views and the direct-space oracle
# ---------------------------------------------------------------------------


def kernel_to_spatial(kernel: SparseKernelSpec) -> np.ndarray:
    """Sample the kernel's Mackey function kappa(g) = sum_l c^l D^l_{m_in,m_out}(g)
    on the SO(3) grid of the kernel's bandwidth.  Channel pairs are flattened
    row-major to [c_out * c_in, n_nodes].

    kappa is the lift of the order-m_out field whose only spin coefficients
    are a^l_{m_in} = c^l / (2l+1).
    """
    coeffs: list = [None] * kernel.bandwidth
    for l in kernel.degrees:
        coeffs[l] = np.zeros((kernel.c_out * kernel.c_in, 2 * l + 1), dtype=complex)
        coeffs[l][:, kernel.m_in + l] = kernel.coeff(l).reshape(-1) / (2 * l + 1)
    s2_grid = quadrature_grid("S2", kernel.bandwidth)
    return lift(field_from_spin_coeffs(coeffs, kernel.m_out, s2_grid)).flat()


_ORACLE_FLOATS = 2 ** 21   # values of _fold_basis per block of conv_spatial_oracle: 16 MiB


def conv_spatial_oracle(field: TensorField, kernel: SparseKernelSpec) -> TensorField:
    """Direct-space convolution on S^2, quadratic in the number of nodes.

    For each output node x with section s(x) = R(alpha, beta, 0),

        f_out(x) = sum_{x'} w' exp(-i m_in alpha_Q) kappa'(beta_Q)
                   exp(-i m_out gamma_Q) f_in(x')

    where Q = s(x')^{-1} s(x) with Euler angles (alpha_Q, beta_Q, gamma_Q),
    and kappa'(b) = sum_l c^l d^l_{m_in, m_out}(b) is the kernel's beta
    profile: one trigonometric polynomial of degree B-1, summed once from the
    folds _fold(Delta^l, m_out) of the cached Delta^l = d^l(pi/2).  The
    twist phase on gamma_Q carries the output order.  Each block of output
    nodes (one block up to B = 9) takes one product of _fold_basis(beta_Q)
    with the profile; no Wigner recursion runs once Delta^l is cached.
    Used only as an independent check on conv_spectral.
    """
    if field.field_type.order != kernel.m_in:
        raise ValueError("field order does not match the kernel input order")
    if field.channels != kernel.c_in:
        raise ValueError("channel mismatch between field and kernel")
    grid, n, L = field.grid, field.grid.n_nodes, kernel.bandwidth - 1
    profile = np.zeros((2 * L + 2, kernel.c_out * kernel.c_in), dtype=complex)
    deltas = _delta(L)
    for l in kernel.degrees:
        col = _fold(deltas[l][0], kernel.m_out)[:, kernel.m_in + l]
        profile[:2 * l + 2] += np.multiply.outer(col, kernel.coeff(l).ravel())
    s = _zyz_matrix(*grid.nodes.T, 0.0)                           # s(x)
    fw = field.flat() * grid.weights
    rows = max(1, _ORACLE_FLOATS // (n * (2 * L + 2)))
    out = np.empty((kernel.c_out, n), dtype=complex)
    for i in range(0, n, rows):
        a_q, b_q, g_q = _zyz_angles(np.swapaxes(s, 1, 2) @ s[i:i + rows, None])
        # an einsum, not BLAS: each output node's bits do not depend on the block
        kap = np.einsum("xpq,qk->xpk", _fold_basis(b_q, L), profile.view(float))
        kap = kap.view(complex).reshape(len(a_q), n, kernel.c_out, kernel.c_in)
        phase = np.exp(-1j * (kernel.m_in * a_q + kernel.m_out * g_q))
        out[:, i:i + rows] = np.einsum("xpoi,xp,ip->ox", kap, phase, fw)
    return TensorField(grid, FieldType("SO2", kernel.m_out), out)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def conv_vjp(blocks: SpectralBlocks, kernel: SparseKernelSpec,
             cotangent: SpectralBlocks) -> tuple:
    """Vector-Jacobian products of conv_spectral under the plain real pairing
    Re<u, v> = Re sum conj(u) v over all block entries (no Plancherel weight).

    Returns (vjp_blocks, vjp_coeffs) with vjp_coeffs shaped like
    kernel.coeffs.
    """
    if cotangent.bandwidth != kernel.bandwidth:
        raise ValueError("cotangent bandwidth mismatch")
    adjoint = SparseKernelSpec(kernel.m_out, kernel.m_in, kernel.bandwidth,
                               np.conj(kernel.coeffs).transpose(1, 0, 2))
    u, col = cotangent.column(kernel.m_out), blocks.column(kernel.m_in)
    vjp_in = SpectralBlocks.zeros(blocks.bandwidth, kernel.c_in)
    vjp_in.set_column(kernel.m_in, _scale_degrees(adjoint, u))
    vjp_c = np.stack([np.einsum("im,om->oi", np.conj(col[l]), u[l]) / (2 * l + 1)
                      for l in kernel.degrees], axis=2)
    return vjp_in, vjp_c
