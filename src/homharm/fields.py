"""Typed tensor fields on homogeneous spaces, the induced group action, and
the lifting/projection isomorphism to Mackey functions on the group.

The S^2 pipeline represents an order-k field (SO(2) irrep e^{ik theta}) by
its samples on an equiangular grid.  Its "spin coefficients" are the SO(3)
Fourier coefficients of the lift, which occupy column n = k only:

    a^l_m = f_hat^l_{mk} = integral f(alpha, beta) e^{i m alpha}
                           d^l_{mk}(beta) dmu(alpha, beta)

with synthesis f(alpha, beta) = sum_l (2l+1) sum_m a^l_m e^{-i m alpha}
d^l_{mk}(beta).  Group actions are applied spectrally (harmonics._rotate applies
conj(D^l(g)) without forming it), which is exact for bandlimited fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import QuadratureGrid, Rotation3, quadrature_grid
from .harmonics import _rotate
from .transforms import (SpectralBlocks, _degrees, _flat, _on_axes,
                         _require_grid, _spin_analysis, _spin_synthesis,
                         so3_ft_forward, so3_ft_inverse)

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldType:
    """Field type: the SO(2) irrep of order k labelling the field's fiber."""

    stabilizer: str   # "SO2"
    order: int

    def __post_init__(self):
        if self.stabilizer != "SO2":
            raise ValueError("stabilizer must be SO2")


def _samples(samples, grid: QuadratureGrid, space: str) -> np.ndarray:
    """The field contract: samples [channels, n_nodes] or
    [channels, n_nodes, 1] on a grid of the given space, all finite, as
    complex [channels, n_nodes, 1]."""
    _require_grid(grid, space)
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[1:] != (grid.n_nodes, 1):
        raise ValueError(f"samples of shape {np.shape(samples)} must hold one "
                         f"value per node of the grid ({grid.n_nodes} nodes)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field samples must be finite")
    return arr


@dataclass
class TensorField:
    """Channelled samples of an order-k field on an S2 quadrature grid."""

    grid: QuadratureGrid
    field_type: FieldType
    samples: np.ndarray   # [channels, n_nodes, 1]

    def __post_init__(self):
        self.samples = _samples(self.samples, self.grid, "S2")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    def flat(self) -> np.ndarray:
        """Samples as [channels, n_nodes]."""
        return self.samples[:, :, 0]


@dataclass
class GroupFunction:
    """Channelled samples of a function on an SO(3) quadrature grid."""

    grid: QuadratureGrid
    samples: np.ndarray   # [channels, n_nodes, 1]

    def __post_init__(self):
        self.samples = _samples(self.samples, self.grid, "SO3")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    def flat(self) -> np.ndarray:
        """Samples as [channels, n_nodes]."""
        return self.samples[:, :, 0]


# ---------------------------------------------------------------------------
# Lifting and projection (S^2 / SO(3))
# ---------------------------------------------------------------------------


def _check_s2_order(field: TensorField):
    if abs(field.field_type.order) >= field.grid.bandwidth:
        raise ValueError("field order must satisfy |k| < grid bandwidth")


def lift(field: TensorField) -> GroupFunction:
    """Lift an order-k field on S^2 to its Mackey function on SO(3):
    f_up(alpha, beta, gamma) = exp(-i k gamma) f(alpha, beta).
    """
    _check_s2_order(field)
    group_grid = quadrature_grid("SO3", field.grid.bandwidth)
    phase = np.exp(-1j * field.field_type.order * group_grid.gammas)
    vals = _on_axes(field.samples, field.grid)[..., None] * phase
    return GroupFunction(group_grid, vals.reshape(-1, group_grid.n_nodes))


def project(gf: GroupFunction, field_type: FieldType) -> TensorField:
    """Restrict a (near-)Mackey function to the gamma = 0 slice."""
    grid = quadrature_grid("S2", gf.grid.bandwidth)
    vals = _on_axes(gf.samples, gf.grid)[..., 0]
    return TensorField(grid, field_type, vals.reshape(-1, grid.n_nodes))


def is_mackey(gf: GroupFunction, field_type: FieldType,
              tol: float = 1e-10) -> tuple[bool, float]:
    """Check the Mackey property m(g h) = rho(h^{-1}) m(g) on grid-aligned h.

    Grid-aligned stabilizer elements are the gamma shifts by multiples of
    pi/B, all powers of the generator h_1, the shift by pi/B; the residual
    is the max norm of the generator's defect over all nodes, relative to
    the largest sample (at least 1).  This bounds every shift: the defect
    of h_1^s at g is a sum of the generator's defects at g, g h_1, ...,
    g h_1^{s-1}, each times a unit phase, so it is at most s times the
    residual.  One roll of the grid, O(B^3), where testing every shift
    would take 2B - 1.
    """
    vals = _on_axes(gf.samples, gf.grid)
    scale = max(1.0, float(np.abs(vals).max()))
    theta = gf.grid.gammas[1]
    shifted = np.roll(vals, -1, axis=3)   # m(g * h_theta)
    expected = np.exp(-1j * field_type.order * theta) * vals
    residual = float(np.abs(shifted - expected).max()) / scale
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# Spin coefficients (column view of the lifted spectrum)
# ---------------------------------------------------------------------------


def spin_coeffs(field: TensorField) -> list:
    """Spectral coefficients a^l_m = f_hat^l_{mk} for l = |k|..B-1.

    Returns a list indexed by l (entries below |k| are None) of arrays
    [channels, 2l+1].
    """
    _check_s2_order(field)
    grid, k = field.grid, field.field_type.order
    return _degrees(_spin_analysis(_on_axes(field.samples, grid), grid, k), k)


def spin_synthesis(coeffs: list, order: int, grid: QuadratureGrid) -> np.ndarray:
    """Synthesize samples of an order-k field from its spin coefficients.

    coeffs may come from a grid of different bandwidth; degrees above the
    target grid's resolvable range must be absent, and at least one degree
    must be present (it sets the channel count).
    """
    present = [l for l, c in enumerate(coeffs) if c is not None]
    if not present:
        raise ValueError("no spin coefficients to synthesize")
    if present[-1] >= grid.bandwidth:
        raise ValueError("coefficients exceed the target grid bandwidth")
    channels = coeffs[present[0]].shape[0]
    f = _spin_synthesis(_flat(coeffs[:present[-1] + 1], order, channels), grid,
                        order)
    return f.reshape(channels, grid.n_nodes)


def field_from_spin_coeffs(coeffs: list, order: int,
                           grid: QuadratureGrid) -> TensorField:
    samples = spin_synthesis(coeffs, order, grid)
    return TensorField(grid, FieldType("SO2", order), samples)


def resample(field: TensorField, new_bandwidth: int) -> TensorField:
    """Bandlimited resampling of an order-k field onto a finer/coarser grid.

    Coarsening silently truncates degrees >= new bandwidth: only the degrees
    kept are analysed, from the plan of those degrees.
    """
    _check_s2_order(field)
    grid, k = field.grid, field.field_type.order
    a = _spin_analysis(_on_axes(field.samples, grid), grid, k,
                       min(grid.bandwidth, new_bandwidth))
    coeffs = _degrees(a, k)
    return field_from_spin_coeffs(coeffs, k, quadrature_grid("S2", new_bandwidth))


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


def induced_action(g: Rotation3, field: TensorField) -> TensorField:
    """Induced-representation action on an order-k field:
    (L_g f)(x) = rho(h(g^{-1}, x)^{-1}) f(g^{-1} x).

    Implemented spectrally: the lifted spectrum transforms by left
    multiplication with conj(D^l(g)), which preserves the Mackey column.
    Exact for bandlimited fields.
    """
    return _induced_actions([g], field)


def _induced_actions(rotations, field: TensorField) -> TensorField:
    """L_g f for R rotations g at once, as one field of R * C channels:
    channel r * C + c is channel c of L_{g_r} f.  One analysis, one
    _rotate over all the rotations and one synthesis."""
    coeffs = [None if a is None else a[:, :, None] for a in spin_coeffs(field)]
    out = [None if a is None else a.reshape(-1, a.shape[2])
           for a in _rotate(rotations, coeffs)]
    return field_from_spin_coeffs(out, field.field_type.order, field.grid)


def regular_action(g: Rotation3, gf: GroupFunction) -> GroupFunction:
    """Left regular action (L'_g m)(k) = m(g^{-1} k), applied spectrally.

    Exact for functions bandlimited below the grid bandwidth.
    """
    blocks = so3_ft_forward(gf.flat(), gf.grid)
    rotated = [b[0] for b in _rotate([g], blocks.blocks)]
    out = so3_ft_inverse(SpectralBlocks(blocks.bandwidth, rotated), gf.grid)
    return GroupFunction(gf.grid, out)


def lift_spectrum(field: TensorField) -> SpectralBlocks:
    """SO(3) Fourier blocks of the lifted field: spin_coeffs as column k."""
    coeffs = spin_coeffs(field)
    blocks = SpectralBlocks.zeros(field.grid.bandwidth, field.channels)
    blocks.set_column(field.field_type.order, coeffs)
    return blocks
