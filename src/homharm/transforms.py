"""Discrete transforms on the sphere and the rotation group.

All transforms use the normalized Haar measure (total volume 1) carried by
the quadrature grids from :mod:`homharm.groups`, and are exact for inputs
bandlimited below the grid bandwidth B.

Normalization: the forward transforms are plain weighted inner products with
the conjugated basis functions (matching the integral definition verbatim);
the (2l+1) plancherel weight sits in the inverse transforms.  Consequently
the forward SO(3) transform of D^l_{mn} itself is 1/(2l+1) at (l, m, n).

Every grid transform runs one spin transform pair (``_spin_analysis`` /
``_spin_synthesis``).  An order-k field's spin coefficients a^l_m are column
n = k of its lift's SO(3) spectrum, so its transform reads only the columns
d^l_{mk}(beta) of the small-d matrices: an FFT along alpha, then for each
alpha frequency m one weighted sum over beta (the Kostelec-Rockmore
separable scheme).  Each transform over the degrees l < L runs those sums as
one batched real GEMM, with no loop over l or m and no fftshift:

- an FFT along alpha, which leaves frequency m at index m mod 2B;
- a gather (scatter, for synthesis) of the 2L indices ``_freqs(B, L, k < 0)``
  that hold the frequencies |m| < L;
- one GEMM with the plan P (or its transpose, for synthesis) on the
  real-stacked matrix [L, 2B, 2 halves x C x (re, im)] of those rows;
- one gather (scatter) between the GEMM's output and the flat l-major
  coefficients, at index l^2 + l + m - k^2, through ``_slots(L, k)``;
- for synthesis, the inverse FFT along alpha.

Plan layout: ``_spin_plan(grid, k, L)`` is one read-only array P[p, r, j],
[L, L, 2B], per key (B, |k|, L), where L <= B is the number of degrees the
call reads.  Item p pairs the alpha frequencies m = p (half 0) and
m = p - L (half 1; item 0's second half, m = -L, is unused).  Row r of item
p holds d^l_{m|k|}(beta_j) for l = L-1-r of half 0 when r <= L-1-p and for
l = r of half 1 otherwise, so each row serves one half and the layout
depends on L alone.  Rows with l < |k| are zero: a plan has L^2 - k^2
nonzero rows, one per coefficient, and takes 16 B L^2 bytes (0.5 MiB at
B = L = 32, 1 MiB at B = 64, L = 32, 32 MiB at B = L = 128).  The rows of
degree l are the same bits at every L, so a transform over L < B degrees
gives the bits of the full one sliced.

The mirror: order -k reads the plan of |k| through
d^l_{m,-k} = (-1)^(m+k) d^l_{-m,k}.  Its alpha-frequency indices are
negated (i -> -i mod 2B), and (l, m) sits in the slot of (l, -m) with the
sign (-1)^(m+k).  So orders k and -k share one plan.

Plan cache: it holds at most ``_PLAN_BYTES`` (64 MiB) and evicts the least
recently used plan; only a plan smaller than the bound is stored, so one
plan never flushes all the others: a plan of 16 B L^2 >= 64 MiB (e.g.
B = L >= 162 or B = 256, L >= 128) is rebuilt on every call.  An SO(3)
transform at bandwidth L reads the L plans (B, |n|, L) of its columns n,
each once for both signs, 16 B L^3 bytes in all; unless they take less than
the bound together (up to B = L = 45), it builds them without storing them,
so the plans of other calls survive.  ``spin_coeffs``, ``spin_synthesis``,
``resample``, the SHT and SO(3) transform pairs and everything built on
them read this cache.  ``_plan_cache_info()`` reports its hits, misses,
bytes held and keys.  Building a plan runs the column recursion
``harmonics._wigner_d_columns`` and writes each degree into the plan as it
is yielded, so the build holds O(B L) floats beside the plan.  The
recursion reads ``harmonics._interior_constants``, the beta-independent
recursion constants of each (degree l, column range); that cache keeps its
most recent 4096 keys, O(l) floats per column: every column up to B = 64
(7.5 MiB there).

The SO(3) transform is an FFT along gamma, then the pair at k = n on each
gamma frequency n (the Kostelec-Rockmore layout on the Driscoll-Healy grid),
each reading the plan of its column n.  No transform builds a full
``wigner_d_stack``; rotations run ``harmonics._rotate`` on the cached Delta^l.
The SHT is the k = 0 pair relabelled: sht.data[l][m] = sqrt(2l+1) (-1)^m a^l_{-m}.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, sqrt

import numpy as np

from .groups import QuadratureGrid
from .harmonics import _wigner_d_columns

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


OFF_COLUMN_TOL = 1e-8   # the largest off_column amplitude of a column-sparse spectrum


@dataclass
class SpectralBlocks:
    """Block Fourier coefficients of a function on SO(3).

    blocks[l] has shape [channels, 2l+1, 2l+1] with row m and column n
    indexed as m + l, n + l, for every degree l < bandwidth.
    The lift of an order-k field is nonzero only in column n = k, which
    holds its spin coefficients; a column is a list indexed by l of
    [channels, 2l+1] arrays, None below |n|, as ``spin_coeffs`` returns it.
    """

    bandwidth: int
    blocks: list

    @property
    def channels(self) -> int:
        return self.blocks[0].shape[0]

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
        """Column n: views [channels, 2l+1] of each block, None below |n|."""
        return [None if l < abs(n) else b[:, :, n + l]
                for l, b in enumerate(self.blocks)]

    def set_column(self, n: int, coeffs: list):
        """Write column n from a list indexed by l, skipping None entries."""
        for l in range(abs(n), len(coeffs)):
            if coeffs[l] is not None:
                self.blocks[l][:, :, n + l] = coeffs[l]

    def off_column(self, n: int) -> float:
        """The amplitude outside column n: the square root of the off-column
        share of the Plancherel energy, 0 for all-zero blocks."""
        total, off = self.norm_squared(), 0.0
        for l, b in enumerate(self.blocks):
            e = (2 * l + 1) * np.sum(np.abs(b) ** 2, axis=(0, 1))
            if abs(n) <= l:
                e[n + l] = 0.0
            off += float(np.sum(e))
        return sqrt(off / total) if total > 0 else 0.0

    def require_column(self, n: int, what: str):
        """Raise ValueError if off_column(n) exceeds OFF_COLUMN_TOL."""
        off = self.off_column(n)
        if off > OFF_COLUMN_TOL:
            raise ValueError(f"{what} is not column-sparse at n = {n} "
                             f"(off-column amplitude {off:.3e})")


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _require_grid(grid: QuadratureGrid, space: str):
    if grid.space != space:
        raise ValueError(f"expected a {space} grid, got {grid.space}")


def _on_axes(samples: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Samples [n_nodes], [channels, n_nodes] or [channels, n_nodes, 1] as
    complex [channels, *grid.shape]."""
    arr = np.asarray(samples)
    if arr.ndim == 3 and arr.shape[-1] == 1:
        arr = arr[..., 0]
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != grid.n_nodes:
        raise ValueError(f"samples must have {grid.n_nodes} nodes per channel, "
                         f"got shape {np.asarray(samples).shape}")
    return arr.astype(complex, copy=False).reshape(-1, *grid.shape)


# ---------------------------------------------------------------------------
# The plan: d^l_{mk}(beta_j) paired by alpha frequency, cached per (B, |k|, L)
# ---------------------------------------------------------------------------

_PLAN_BYTES = 64 * 2 ** 20
_plans: OrderedDict = OrderedDict()
_plan_counts = {"hits": 0, "misses": 0, "bytes": 0}


@lru_cache(maxsize=64)
def _layout(L: int) -> tuple:
    """Where flat coefficient q = l^2 + l + m, l < L, sits in a plan of L
    degrees: read-only int arrays [L^2] of its slot, degree l and order m.

    Item p = m mod L pairs m = p (half h = 0) with m = p - L (h = 1).  Row
    r of item p is degree l = L-1-r of half 0 for r <= L-1-p and degree
    l = r of half 1 otherwise, so every row serves exactly one half and the
    layout does not depend on k or on the grid.  The slot 2(pL + r) + h
    indexes the [L, L, 2] (item, row, half) axes of the real-stacked
    coefficient matrix.
    """
    l = np.repeat(np.arange(L), 2 * np.arange(L) + 1)
    m = np.arange(L * L) - l * (l + 1)
    neg = m < 0
    slot = 2 * ((m % L) * L + np.where(neg, l, L - 1 - l)) + neg
    for arr in (slot, l, m):
        arr.setflags(write=False)
    return slot, l, m


@lru_cache(maxsize=256)
def _slots(L: int, k: int) -> tuple:
    """The plan slot of each flat coefficient l^2 + l + m - k^2, l = |k|..L-1,
    of an order-k transform, its sign and its synthesis weight (2l+1) times
    the sign.  Order -k reads the |k| plan through the mirror
    d^l_{m,-k} = (-1)^(m+k) d^l_{-m,k}: the slot of (l, -m) with the sign
    (-1)^(m+k), on the negated frequencies of _freqs; order k >= 0 has
    sign None (all +1).
    """
    slot, l, m = _layout(L)
    q = np.arange(k * k, L * L)
    sign = None
    if k < 0:
        sign = (-1.0) ** (m[q] + k)
        q = q - 2 * m[q]
    slot, weight = slot[q], 2.0 * l[q] + 1
    if sign is not None:
        weight *= sign
        sign.setflags(write=False)
    for arr in (slot, weight):
        arr.setflags(write=False)
    return slot, sign, weight


@lru_cache(maxsize=256)
def _freqs(B: int, L: int, reverse: bool) -> np.ndarray:
    """The alpha-FFT indices [2, L] (half, item) of the plan's frequencies
    m = p and m = p - L at m mod 2B, negated mod 2B when reverse (order -k);
    read-only."""
    index = (np.arange(L) + [[0], [2 * B - L]]) * (-1) ** reverse % (2 * B)
    index.setflags(write=False)
    return index


def _spin_plan(grid: QuadratureGrid, k: int, L: int | None = None,
               store: bool = True) -> np.ndarray:
    """The read-only plan P[p, r, j] = d^l_{m|k|}(beta_j), [L, L, 2B], of
    order |k| and degrees l < L (default B), with (l, m) of item p and row r
    as in _layout, zero where l < |k|; cached on (B, |k|, L) if store is
    true and it takes less than _PLAN_BYTES.  Each degree's rows are written
    as the recursion yields them.
    """
    B = grid.bandwidth
    k, L = abs(k), B if L is None else L
    key = (B, k, L)
    plan = _plans.get(key)
    if plan is not None:
        _plans.move_to_end(key)
        _plan_counts["hits"] += 1
        return plan
    _plan_counts["misses"] += 1
    rows = _layout(L)[0] // 2
    plan = np.zeros((L * L, 2 * B))
    for l, d in enumerate(_wigner_d_columns(L - 1, grid.betas, k, k)):
        if d is not None:
            plan[rows[l * l:(l + 1) ** 2]] = d[:, :, 0].T
    plan = plan.reshape(L, L, 2 * B)
    plan.setflags(write=False)
    if store and plan.nbytes < _PLAN_BYTES:
        _plans[key] = plan
        _plan_counts["bytes"] += plan.nbytes
        while _plan_counts["bytes"] > _PLAN_BYTES:
            _plan_counts["bytes"] -= _plans.popitem(last=False)[1].nbytes
    return plan


def _plan_cache_info() -> dict:
    """Hits, misses and bytes held by the plan cache, and its keys
    (B, |k|, L) from least to most recently used."""
    return {**_plan_counts, "keys": list(_plans)}


# ---------------------------------------------------------------------------
# The spin transform pair: alpha FFT plus one GEMM over the plan
# ---------------------------------------------------------------------------


def _spin_analysis(f: np.ndarray, grid: QuadratureGrid, k: int,
                   L: int | None = None, plan: np.ndarray | None = None
                   ) -> np.ndarray:
    """a^l_m = sum_{i,j} w_j e^{i m alpha_i} d^l_{mk}(beta_j) f[c, i, j] / 2B.

    f holds samples [channels, alpha, beta].  Returns the degrees
    l = |k|..L-1 (L <= B, default B) as flat coefficients
    [channels, L^2 - k^2] at l^2 + l + m - k^2.  plan, if given, is
    _spin_plan(grid, k, L).
    """
    B = grid.bandwidth
    L = B if L is None else L
    C = f.shape[0]
    F = np.fft.ifft(f, axis=1)                      # frequency m at m mod 2B
    # the plan's frequencies [c, h, p, j] -> [p, j, h, c], weighted by w_j
    X = np.multiply(F[:, _freqs(B, L, k < 0)].transpose(2, 3, 1, 0),
                    grid.beta_weights[:, None, None], order="C")
    if plan is None:
        plan = _spin_plan(grid, k, L)
    Y = np.matmul(plan, X.view(float).reshape(L, 2 * B, 4 * C))  # [p, r, (h, c)]
    slot, sign, _ = _slots(L, k)
    a = Y.view(complex).reshape(2 * L * L, C)[slot].T
    if sign is not None:
        a *= sign
    return a


def _spin_synthesis(a: np.ndarray, grid: QuadratureGrid, k: int,
                    plan: np.ndarray | None = None) -> np.ndarray:
    """f[c, i, j] = sum_l (2l+1) sum_m a^l_m e^{-i m alpha_i} d^l_{mk}(beta_j).

    a holds flat coefficients [channels, L^2 - k^2] for l = |k|..L-1, L <= B,
    as _spin_analysis returns them.  Returns samples [channels, alpha, beta].
    plan, if given, is _spin_plan(grid, k, L).
    """
    B = grid.bandwidth
    C = a.shape[0]
    L = isqrt(k * k + a.shape[1])
    slot, _, weight = _slots(L, k)
    X = np.zeros((2 * L * L, C), dtype=complex)     # [(p, r, h), c]
    X[slot] = (a * weight).T
    if plan is None:
        plan = _spin_plan(grid, k, L)
    Y = np.matmul(plan.transpose(0, 2, 1),
                  X.view(float).reshape(L, L, 4 * C))       # [p, j, (h, c)]
    # [p, j, h, c] -> [c, h, p, j] at the rows of its frequencies
    F = np.zeros((C, 2 * B, 2 * B), dtype=complex)
    F[:, _freqs(B, L, k < 0)] = Y.view(complex).reshape(
        L, 2 * B, 2, C).transpose(3, 2, 0, 1)
    return np.fft.fft(F, axis=1)


def _degrees(a: np.ndarray, k: int) -> list:
    """Flat coefficients [channels, L^2 - k^2] as a list indexed by l < L
    (None below |k|) of views [channels, 2l+1]."""
    L = isqrt(k * k + a.shape[1])
    return [None] * abs(k) + [a[:, l * l - k * k:(l + 1) ** 2 - k * k]
                              for l in range(abs(k), L)]


def _flat(coeffs: list, k: int, channels: int) -> np.ndarray:
    """A list indexed by l of [channels, 2l+1] arrays (None reads as zero)
    as flat coefficients [channels, L^2 - k^2] for l = |k|..len(coeffs)-1."""
    return np.concatenate(
        [np.zeros((channels, 0))] + [np.zeros((channels, 2 * l + 1))
                                     if c is None else c
                                     for l, c in enumerate(coeffs)
                                     if l >= abs(k)], axis=1)


def _so3_store(B: int, L: int) -> bool:
    """Whether the L plans (|k| < L) of one SO(3) transform at bandwidth L,
    16 B L^3 bytes, take less than the cache bound together; if not, they
    are built without being stored, so they do not evict the plans of other
    calls."""
    return 16 * B * L ** 3 < _PLAN_BYTES


# ---------------------------------------------------------------------------
# Spherical harmonic transform
# ---------------------------------------------------------------------------


def _sht_relabel(B: int) -> tuple:
    """Index of a^l_{-m} and the factor sqrt(2l+1) (-1)^m for each flat
    index l^2 + l + m, l < B."""
    _, l, m = _layout(B)
    return np.arange(B * B) - 2 * m, np.sqrt(2 * l + 1) * (-1.0) ** m


def sht_forward(samples, grid: QuadratureGrid) -> ShtCoeffs:
    """Forward SHT: coefficients <Y^l_m, f> by quadrature; exact for l < B."""
    _require_grid(grid, "S2")
    mirror, scale = _sht_relabel(grid.bandwidth)
    a = _spin_analysis(_on_axes(samples, grid), grid, 0)
    return ShtCoeffs(grid.bandwidth, _degrees(a[:, mirror] * scale, 0))


def sht_inverse(coeffs: ShtCoeffs, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise synthesis sum_{l,m} f^l_m Y^l_m on the grid nodes.

    Returns complex samples [channels, n_nodes].
    """
    _require_grid(grid, "S2")
    if coeffs.bandwidth > grid.bandwidth:
        raise ValueError("coefficient bandwidth exceeds grid bandwidth")
    mirror, scale = _sht_relabel(coeffs.bandwidth)
    a = np.concatenate(coeffs.data, axis=1)[:, mirror] / scale
    return _spin_synthesis(a, grid, 0).reshape(coeffs.channels, grid.n_nodes)


# ---------------------------------------------------------------------------
# SO(3) Fourier transform
# ---------------------------------------------------------------------------


def so3_ft_forward(samples, grid: QuadratureGrid) -> SpectralBlocks:
    """f_hat^l_{mn} = integral of f(g) conj(D^l_{mn}(g)) over normalized Haar,
    for every degree l < B.

    Separable evaluation: inverse FFT along gamma, then the spin analysis of
    each gamma frequency n as column n.
    """
    _require_grid(grid, "SO3")
    B, n = grid.bandwidth, grid.shape[2]
    # [c, alpha, beta, gamma frequency n at index n mod 2B]
    G = np.fft.ifft(_on_axes(samples, grid), axis=3)
    blocks = SpectralBlocks.zeros(B, G.shape[0])
    store = _so3_store(B, B)
    for k in range(B):
        plan = _spin_plan(grid, k, B, store)
        for col in sorted({k, -k}):
            blocks.set_column(col, _degrees(_spin_analysis(
                G[..., col % n], grid, col, B, plan), col))
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
    n = grid.shape[2]
    C = blocks.channels
    G = np.zeros((C, *grid.shape), dtype=complex)   # [c, alpha, beta, n mod 2B]
    store = _so3_store(B, L)
    for k in range(L):
        plan = _spin_plan(grid, k, L, store)
        for col in sorted({k, -k}):
            G[..., col % n] = _spin_synthesis(
                _flat(blocks.column(col), col, C), grid, col, plan)
    np.fft.fft(G, axis=-1, out=G)                   # [c, alpha, beta, gamma]
    return G.reshape(C, grid.n_nodes)


def fiber_dft(samples, grid: QuadratureGrid, order: int) -> np.ndarray:
    """Weighted DFT over the gamma fiber at each sphere point.

    out(alpha, beta) = sum_k w_k exp(i * order * gamma_k) f(alpha, beta, gamma_k);
    returns complex samples [channels, 4B^2] on the matching S^2 grid.
    """
    _require_grid(grid, "SO3")
    n = grid.shape[2]
    if abs(order) >= n:
        raise ValueError("fiber order outside the grid's resolvable range")
    phase = np.exp(1j * order * grid.gammas) / n
    out = np.einsum("cijk,k->cij", _on_axes(samples, grid), phase)
    return out.reshape(out.shape[0], n * n)
