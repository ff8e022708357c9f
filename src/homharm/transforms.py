"""Discrete transforms on the sphere and the rotation group.

All transforms use the normalized Haar measure (total volume 1) carried by
the quadrature grids from :mod:`homharm.groups`, and are exact for inputs
bandlimited below the grid bandwidth B.

Normalization: the forward transforms are plain weighted inner products with
the conjugated basis functions (matching the integral definition verbatim);
the (2l+1) plancherel weight sits in the inverse transforms.  Consequently
the forward SO(3) transform of D^l_{mn} itself is 1/(2l+1) at (l, m, n).

Every grid transform runs one spin transform pair (``_spin_analysis`` /
``_spin_synthesis``): an FFT along alpha, then the weighted sum over beta of
the columns d^l_{mk}(beta_j).  An order-k field's spin coefficients a^l_m
are column n = k of its lift's SO(3) spectrum, so its transform reads only
the columns n = k of the small-d matrices.

Plan cache: ``_spin_columns(grid, k)`` holds d^l_{mk}(beta_j) for
l = |k|..B-1 on a bandwidth-B grid's betas, built once per key (B, k) by
``wigner_d_column`` and stored as read-only arrays.  It holds at most
``_PLAN_BYTES`` (64 MiB) and evicts the least recently used plan; a plan
larger than the bound is returned without being stored (at B = 256 one plan
is about 256 MiB).  Callers needing fewer degrees take a prefix, since
upward recursion makes degree l independent of the top degree.
``spin_coeffs``, ``spin_synthesis``, ``resample``, the SHT and SO(3)
transform pairs and everything built on them read this cache.
``_plan_cache_info()`` reports its hits, misses and bytes held.  Building
a plan reads ``harmonics._interior_constants``, the beta-independent
recursion constants of each (degree l, column range), which keeps its most
recent 4096 keys, O(l) floats per column: every column up to B = 64
(7.5 MiB there).

The SO(3) transform is an FFT along gamma, then the pair at k = n on each
gamma frequency n (the Kostelec-Rockmore layout on the Driscoll-Healy grid),
each reading the cached plan of its column n.  No transform builds a full
``wigner_d_stack``; only the rotations in ``fields.induced_action`` and
``fields.regular_action`` do, one d-table at a single beta per call.  The
SHT is the k = 0 pair relabelled: sht.data[l][m] = sqrt(2l+1) (-1)^m a^l_{-m}.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .groups import QuadratureGrid
from .harmonics import wigner_d_column

# ---------------------------------------------------------------------------
# Coefficient containers
# ---------------------------------------------------------------------------


@dataclass
class ShtCoeffs:
    """Spherical-harmonic coefficients, one (2l+1)-vector per degree l < B.

    data[l] has shape [channels, 2l+1] with m indexed as m + l.
    """

    bandwidth: int
    data: list

    @property
    def channels(self) -> int:
        return self.data[0].shape[0]

    def copy(self) -> "ShtCoeffs":
        return ShtCoeffs(self.bandwidth, [b.copy() for b in self.data])


@dataclass
class SpectralBlocks:
    """Block Fourier coefficients of a function on SO(3).

    blocks[l] has shape [channels, 2l+1, 2l+1] with row m and column n
    indexed as m + l, n + l, for every degree l < bandwidth.
    """

    bandwidth: int
    blocks: list

    @property
    def channels(self) -> int:
        return self.blocks[0].shape[0]

    def copy(self) -> "SpectralBlocks":
        return SpectralBlocks(self.bandwidth, [b.copy() for b in self.blocks])

    @staticmethod
    def zeros(bandwidth: int, channels: int) -> "SpectralBlocks":
        return SpectralBlocks(bandwidth, [
            np.zeros((channels, 2 * l + 1, 2 * l + 1), dtype=complex)
            for l in range(bandwidth)])

    def norm_squared(self) -> float:
        """Plancherel norm: sum_l (2l+1) ||f_hat^l||_F^2 over all channels."""
        return float(sum((2 * l + 1) * np.sum(np.abs(b) ** 2)
                         for l, b in enumerate(self.blocks)))

    def column(self, n: int) -> list:
        """Column-sparse view: the n-column of every block with l >= |n|
        (the blocks of lower degree have no column n).

        Returns a list over l >= |n| of arrays [channels, 2l+1].
        """
        return [self.blocks[l][:, :, n + l]
                for l in range(abs(n), self.bandwidth)]

    def off_column_energy(self, n: int) -> float:
        """Energy (Plancherel-weighted) outside column n, for sparsity checks."""
        total = 0.0
        for l, b in enumerate(self.blocks):
            e = (2 * l + 1) * np.sum(np.abs(b) ** 2, axis=(0, 1))
            if abs(n) <= l:
                e = np.delete(e, n + l)
            total += float(np.sum(e))
        return total


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _require_grid(grid: QuadratureGrid, space: str):
    if grid.space != space:
        raise ValueError(f"expected a {space} grid, got {grid.space}")


def _as_channels(samples: np.ndarray, n_nodes: int) -> np.ndarray:
    """Coerce samples to complex [channels, n_nodes] (squeezing a unit dim)."""
    arr = np.asarray(samples)
    if arr.ndim == 3 and arr.shape[-1] == 1:
        arr = arr[..., 0]
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n_nodes:
        raise ValueError(f"samples must have {n_nodes} nodes per channel, "
                         f"got shape {np.asarray(samples).shape}")
    return arr.astype(complex, copy=False)


# ---------------------------------------------------------------------------
# The plan cache: d^l_{mk}(beta_j) columns per (B, k)
# ---------------------------------------------------------------------------

_PLAN_BYTES = 64 * 2 ** 20
_plans: OrderedDict = OrderedDict()
_plan_counts = {"hits": 0, "misses": 0, "bytes": 0}


def _plan_bytes(cols: tuple) -> int:
    return sum(c.nbytes for c in cols if c is not None)


def _spin_columns(grid: QuadratureGrid, k: int) -> tuple:
    """d^l_{mk}(beta_j) on the grid's betas for l < B, indexed by l (None
    below |k|), as read-only arrays [n_beta, 2l+1]; cached on (B, k).
    """
    key = (grid.bandwidth, k)
    cols = _plans.get(key)
    if cols is not None:
        _plans.move_to_end(key)
        _plan_counts["hits"] += 1
        return cols
    _plan_counts["misses"] += 1
    cols = tuple(wigner_d_column(grid.bandwidth - 1, grid.betas, k))
    for c in cols:
        if c is not None:
            c.setflags(write=False)
    size = _plan_bytes(cols)
    if size <= _PLAN_BYTES:
        _plans[key] = cols
        _plan_counts["bytes"] += size
        while _plan_counts["bytes"] > _PLAN_BYTES:
            _plan_counts["bytes"] -= _plan_bytes(_plans.popitem(last=False)[1])
    return cols


def _plan_cache_info() -> dict:
    """Hits, misses and bytes held by the plan cache, and its keys from
    least to most recently used."""
    return {**_plan_counts, "keys": list(_plans)}


# ---------------------------------------------------------------------------
# The spin transform pair: alpha FFT plus weighted d^l_{mk}(beta) sum
# ---------------------------------------------------------------------------


def _spin_analysis(f: np.ndarray, grid: QuadratureGrid, cols) -> list:
    """a^l_m = sum_{i,j} w_j e^{i m alpha_i} d^l_{mk}(beta_j) f[c, i, j] / 2B.

    f holds samples [channels, alpha, beta]; cols[l] holds d^l_{mk} on
    grid.betas (None below |k|) and sets the degrees computed,
    l = |k|..len(cols)-1.  Returns a list indexed by l (None below |k|) of
    arrays [channels, 2l+1].
    """
    B = grid.bandwidth
    # inverse FFT along alpha, frequency m moved to row B + m
    F = np.fft.fftshift(np.fft.ifft(f, axis=1), axes=1) * grid.beta_weights
    return [None if d is None else
            np.einsum("cmj,jm->cm", F[:, B - l:B + l + 1, :], d)
            for l, d in enumerate(cols)]


def _spin_synthesis(coeffs: list, grid: QuadratureGrid, cols,
                    channels: int) -> np.ndarray:
    """f[c, i, j] = sum_l (2l+1) sum_m a^l_m e^{-i m alpha_i} d^l_{mk}(beta_j).

    Degrees with a column in cols and an entry in coeffs are summed (None
    entries of either are skipped).  Returns samples [channels, alpha, beta].
    """
    B = grid.bandwidth
    F = np.zeros((channels, 2 * B, 2 * B), dtype=complex)   # row B + m: frequency m
    for l, (a, d) in enumerate(zip(coeffs, cols)):
        if a is not None and d is not None:
            F[:, B - l:B + l + 1, :] += (2 * l + 1) * np.einsum("cm,jm->cmj", a, d)
    return np.fft.fft(np.fft.ifftshift(F, axes=1), axis=1)


# ---------------------------------------------------------------------------
# Spherical harmonic transform
# ---------------------------------------------------------------------------


def sht_forward(samples, grid: QuadratureGrid) -> ShtCoeffs:
    """Forward SHT: coefficients <Y^l_m, f> by quadrature; exact for l < B."""
    _require_grid(grid, "S2")
    B = grid.bandwidth
    f = _as_channels(samples, 4 * B * B).reshape(-1, 2 * B, 2 * B)
    a = _spin_analysis(f, grid, _spin_columns(grid, 0))
    return ShtCoeffs(B, [np.sqrt(2 * l + 1) * (-1.0) ** np.arange(-l, l + 1)
                         * a[l][:, ::-1] for l in range(B)])


def sht_inverse(coeffs: ShtCoeffs, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise synthesis sum_{l,m} f^l_m Y^l_m on the grid nodes.

    Returns complex samples [channels, n_nodes].
    """
    _require_grid(grid, "S2")
    B = grid.bandwidth
    if coeffs.bandwidth > B:
        raise ValueError("coefficient bandwidth exceeds grid bandwidth")
    a = [(-1.0) ** np.arange(-l, l + 1) * c[:, ::-1] / np.sqrt(2 * l + 1)
         for l, c in enumerate(coeffs.data)]
    f = _spin_synthesis(a, grid, _spin_columns(grid, 0), coeffs.channels)
    return f.reshape(coeffs.channels, 4 * B * B)


# ---------------------------------------------------------------------------
# SO(3) Fourier transform
# ---------------------------------------------------------------------------


def so3_ft_forward(samples, grid: QuadratureGrid,
                   bandwidth: int | None = None) -> SpectralBlocks:
    """f_hat^l_{mn} = integral of f(g) conj(D^l_{mn}(g)) over normalized Haar.

    Separable evaluation: inverse FFT along gamma, then the spin analysis of
    each gamma frequency n as column n.
    """
    _require_grid(grid, "SO3")
    B = grid.bandwidth
    if bandwidth is None:
        bandwidth = B
    if bandwidth > B:
        raise ValueError("requested bandwidth exceeds grid bandwidth")
    n = 2 * B
    f = _as_channels(samples, n ** 3).reshape(-1, n, n, n)
    G = np.fft.ifft(f, axis=3)              # gamma frequency n at index n mod 2B
    blocks = SpectralBlocks.zeros(bandwidth, f.shape[0])
    for col in range(-(bandwidth - 1), bandwidth):
        a = _spin_analysis(G[..., col % n], grid,
                           _spin_columns(grid, col)[:bandwidth])
        for l in range(abs(col), bandwidth):
            blocks.blocks[l][:, :, col + l] = a[l]
    return blocks


def so3_ft_inverse(blocks: SpectralBlocks, grid: QuadratureGrid) -> np.ndarray:
    """f(g) = sum_l (2l+1) tr(f_hat^l.T D^l(g)); returns [channels, n_nodes].

    Each column n is a spin synthesis of order n; an FFT along gamma joins
    them.
    """
    _require_grid(grid, "SO3")
    B = grid.bandwidth
    L = blocks.bandwidth
    if L > B:
        raise ValueError("block bandwidth exceeds grid bandwidth")
    n = 2 * B
    C = blocks.channels
    G = np.zeros((n, C, n, n), dtype=complex)   # [n mod 2B, c, alpha, beta]
    for col in range(-(L - 1), L):
        G[col % n] = _spin_synthesis([None] * abs(col) + blocks.column(col),
                                     grid, _spin_columns(grid, col)[:L], C)
    f = np.moveaxis(np.fft.fft(G, axis=0), 0, -1)   # [c, alpha, beta, gamma]
    return f.reshape(C, n ** 3)


def fiber_dft(samples, grid: QuadratureGrid, order: int) -> np.ndarray:
    """Weighted DFT over the gamma fiber at each sphere point.

    out(alpha, beta) = sum_k w_k exp(i * order * gamma_k) f(alpha, beta, gamma_k);
    returns complex samples [channels, 4B^2] on the matching S^2 grid.
    """
    _require_grid(grid, "SO3")
    B = grid.bandwidth
    if abs(order) >= 2 * B:
        raise ValueError("fiber order outside the grid's resolvable range")
    n = 2 * B
    f = _as_channels(samples, n ** 3).reshape(-1, n, n, n)
    phase = np.exp(1j * order * grid.gammas) / n
    out = np.einsum("cijk,k->cij", f, phase)
    return out.reshape(-1, n * n)
