"""Equivariant nonlinearities: lift mixed-order fields to the group, apply a
pointwise activation there, and project back to chosen output orders.

Pointwise activation commutes with the regular representation because the
action on group samples is a pure index permutation for grid-aligned
elements.  The activation is not bandlimited, so projection after activation
carries aliasing error for non-grid-aligned rotations; callers control it
with the oversampling factor.

The lift exp(-i k gamma) f_k(alpha, beta) and the projection (a weighted DFT
over gamma) both act along the gamma fiber only, so lift -> activate ->
project is local to each S^2 node.  ``nonlinearity`` uses this: it never
holds a function on the SO(3) grid, but runs blocks of S^2 nodes through one
real matrix product onto the gamma nodes, one activation call and one real
matrix product back to the output orders.  On the working grid it holds one
real rows array of the inputs, one projection array of the outputs and one
block buffer of lifted samples, which relu and tanh overwrite in place.
``lift_sum``, ``activate`` and ``project_column`` are the same steps on the
whole SO(3) grid.
``point_sphere_nonlin`` runs the same blocked map, ``_fiber_map``, with real
harmonics as its synthesis and analysis matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import quadrature_grid
from .fields import (FieldType, GroupFunction, TensorField, _check_s2_order,
                     field_from_spin_coeffs, lift, resample)
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
    _KINDS = ("relu", "gelu", "tanh", "per_point_mlp")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if (self.kind == "per_point_mlp") != bool(len(self.weights)):
            raise ValueError("weights are for per_point_mlp, which needs them")
        self.weights = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
                        for W, b in self.weights]
        for i, (W, b) in enumerate(self.weights):
            if W.ndim != 2 or b.shape != W.shape[:1] or (
                    i and W.shape[1] != len(self.weights[i - 1][1])):
                raise ValueError(f"MLP layer {i}: W must be a matrix, b a "
                                 f"vector of its rows, and W's columns the "
                                 f"rows of the layer before")

    def apply_real(self, x: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
        """Apply the activation to a real array [channels, nodes].

        relu and tanh write into out when it is given (out may be x); gelu
        and the MLP, which can change the channel count, return a new array
        whatever out is, so callers use the returned array.
        """
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=out)
        if self.kind == "tanh":
            return np.tanh(x, out=out)
        if self.kind == "gelu":
            return 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0)))
        out = x
        for i, (W, b) in enumerate(self.weights):
            out = W @ out + b[:, None]
            if i + 1 < len(self.weights):
                out = np.maximum(out, 0.0)
        return out


# erf after fdlibm's s_erf.c (Sun Microsystems, 1993): rational
# approximations in x^2 below 0.84375, in |x| - 1 up to 1.25, and in 1/x^2
# (one pair below 1/0.35, one up to 6) for erfc(|x|) = exp(-x^2 - 0.5625
# + R/S) / |x|.  Coefficients are listed constant term first.
_ERF_EFX = 1.28379167095512586316e-01
_ERF_EFX8 = 1.02703333676410069053e+00
_ERF_ERX = 8.45062911510467529297e-01
_ERF_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
           -2.84817495755985104766e-02, -5.77027029648944159157e-03,
           -2.37630166566501626084e-05)
_ERF_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
           5.08130628187576562776e-03, 1.32494738004321644526e-04,
           -3.96022827877536812320e-06)
_ERF_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
           -3.72207876035701323847e-01, 3.18346619901161753674e-01,
           -1.10894694282396677476e-01, 3.54783043256182359371e-02,
           -2.16637559486879084300e-03)
_ERF_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
           7.18286544141962662868e-02, 1.26171219808761642112e-01,
           1.36370839120290507362e-02, 1.19844998467991074170e-02)
_ERF_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
           -1.05586262253232909814e+01, -6.23753324503260060396e+01,
           -1.62396669462573470355e+02, -1.84605092906711035994e+02,
           -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_ERF_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
           4.34565877475229228821e+02, 6.45387271733267880336e+02,
           4.29008140027567833386e+02, 1.08635005541779435134e+02,
           6.57024977031928170135e+00, -6.04244152148580987438e-02)
_ERF_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
           -1.77579549177547519889e+01, -1.60636384855821916062e+02,
           -6.37566443368389627722e+02, -1.02509513161107724954e+03,
           -4.83519191608651397019e+02)
_ERF_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
           1.53672958608443695994e+03, 3.19985821950859553908e+03,
           2.55305040643316442583e+03, 4.74528541206955367215e+02,
           -2.24409524465858183362e+01)
# fdlibm tests |x| < 1/0.35 on the high 32 bits: 0x4006DB6E00000000
_ERF_B35 = 2.8571434020996094


def _horner(z: np.ndarray, coeffs: tuple) -> np.ndarray:
    out = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= z
        out += c
    return out


def _erf_tiny(x, ax):
    return np.where(ax < 2.0 ** -1015, 0.125 * (8.0 * x + _ERF_EFX8 * x),
                    x + _ERF_EFX * x)


def _erf_small(x, ax):
    z = x * x
    y = _horner(z, _ERF_PP)
    y /= _horner(z, _ERF_QQ)
    y *= x
    y += x
    return y


def _erf_mid(x, ax):
    s = ax - 1.0
    return np.copysign(_ERF_ERX + _horner(s, _ERF_PA) / _horner(s, _ERF_QA), x)


def _erf_tail(R, S):
    def piece(x, ax):
        s = 1.0 / (ax * ax)
        z = (ax.view(np.int64) & ~0xFFFFFFFF).view(float)   # low word cleared
        r = (np.exp(-z * z - 0.5625)
             * np.exp((z - ax) * (z + ax) + _horner(s, R) / _horner(s, S)))
        return np.copysign(1.0 - r / ax, x)
    return piece


# the formula used on each range [edge_{k-1}, edge_k) of |x|; |x| >= 6 rounds
# to +-1 and nan stays nan through the last, np.sign
_ERF_EDGES = np.array([2.0 ** -28, 0.84375, 1.25, _ERF_B35, 6.0])
_ERF_PIECES = (_erf_tiny, _erf_small, _erf_mid, _erf_tail(_ERF_RA, _ERF_SA),
               _erf_tail(_ERF_RB, _ERF_SB), lambda x, ax: np.sign(x))


def _erf(x) -> np.ndarray:
    """Elementwise erf of a float array, within an ulp of math.erf.  The
    piece holding most elements runs on the whole array; only the elements
    outside its range are gathered, searched and evaluated again."""
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).reshape(-1)
    ax = np.abs(x)
    # fmin skips nan and max keeps it, so a nan beside finite values is mixed
    lo, hi = np.searchsorted(_ERF_EDGES, [np.fmin.reduce(ax, initial=np.inf),
                                          ax.max(initial=0.0)], "right")
    if lo >= hi:                          # one piece, or an empty array
        return _ERF_PIECES[lo](x, ax).reshape(shape)
    # elements below each edge between the pieces lo..hi; nan is below none
    below = [np.count_nonzero(ax < e) for e in _ERF_EDGES[lo:hi]]
    k = lo + int(np.argmax(np.diff(below, prepend=0, append=x.size)))
    with np.errstate(all="ignore"):       # the values outside are replaced
        out = _ERF_PIECES[k](x, ax)
    lower, upper = np.r_[0.0, _ERF_EDGES, np.inf][[k, k + 1]]
    i = np.flatnonzero((ax < lower) | ~(ax < upper))   # nan and inf too
    piece = np.searchsorted(_ERF_EDGES, ax[i], "right")
    for j in range(lo, hi + 1):
        m = i[piece == j]
        out[m] = _ERF_PIECES[j](x[m], ax[m])
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# Lift-sum and activation
# ---------------------------------------------------------------------------


def _shared_grid(fields: list):
    """The grid every field sits on; ValueError if there is none or several,
    or if the fields' channel counts differ."""
    if not fields:
        raise ValueError("need at least one field")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("all fields must share a grid")
        if f.channels != fields[0].channels:
            raise ValueError("all fields must have the same channel count, "
                             f"got {f.channels} and {fields[0].channels}")
    return grid


def lift_sum(fields: list) -> GroupFunction:
    """Sum of the Mackey lifts of mixed-order fields sharing one grid."""
    _shared_grid(fields)
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
    _check_s2_order(out_order, gf.grid)
    samples = fiber_dft(gf.flat(), gf.grid, out_order)
    return TensorField(quadrature_grid("S2", gf.grid.bandwidth),
                       FieldType(out_order), samples)


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
    order (its spectrum column-sparse at n = out_order); an off-column
    amplitude above OFF_COLUMN_TOL is an error.
    """
    B = gf.grid.bandwidth
    if kernel.grid.bandwidth != B:
        raise ValueError("kernel and input grids differ")
    if kernel.channels != 1:
        raise ValueError("projection kernel must be single-channel")
    k_hat = so3_ft_forward(kernel.flat(), kernel.grid)
    k_hat.require_column(out_order, "projection kernel")
    l_hat = so3_ft_forward(gf.flat(), gf.grid)
    # out_hat^l_{m, m_out} = sum_j l_hat^l_{mj} k_hat^l_{j, m_out}
    coeffs = [None if c is None else np.einsum("cmj,j->cm", b, c[0])
              for b, c in zip(l_hat.blocks, k_hat.column(out_order))]
    return field_from_spin_coeffs(coeffs, out_order, quadrature_grid("S2", B))


# ---------------------------------------------------------------------------
# The composite nonlinearity
# ---------------------------------------------------------------------------


_FIBER_BLOCK = 32     # S^2 nodes or points per activation call


def _real_form(q: np.ndarray) -> np.ndarray:
    """The real matrix of x -> x q on row vectors split as [Re x, Im x]:
    [[Re q, Im q], [-Im q, Re q]], giving [Re(x q), Im(x q)]."""
    return np.block([[q.real, q.imag], [-q.imag, q.real]])


def _fiber_map(x: np.ndarray, synthesis: np.ndarray, spec: ActivationSpec,
               analysis: np.ndarray) -> np.ndarray:
    """spec(x @ synthesis) @ analysis for x [channels, rows, a], synthesis
    [a, s] and analysis [s, b], _FIBER_BLOCK rows at a time: one apply_real
    call per block on [channels, block * s] (an MLP mixes channels sample
    by sample), so the fiber samples held do not grow with the rows.  Each
    block is lifted into one buffer, which relu and tanh overwrite.
    Returns [channels', rows, b]."""
    C, rows, a = x.shape
    s, b = analysis.shape
    lifted = np.empty(C * min(rows, _FIBER_BLOCK) * s)
    out = None
    # one empty block when there are no rows, so the result has 0 rows
    for start in range(0, max(rows, 1), _FIBER_BLOCK):
        xb = x[:, start:start + _FIBER_BLOCK]
        r = xb.shape[1]
        buf = lifted[:C * r * s].reshape(C, r * s)
        np.matmul(xb.reshape(C * r, a), synthesis, out=buf.reshape(C * r, s))
        acted = spec.apply_real(buf, out=buf)
        y = acted.reshape(-1, s) @ analysis
        if out is None:     # an MLP may change the channel count
            out = np.empty((acted.shape[0], rows, b))
        out[:, start:start + r] = y.reshape(acted.shape[0], r, b)
    return out


def nonlinearity(fields_in: list, spec: ActivationSpec, out_orders: list,
                 oversample: int = 2) -> list:
    """Lift-sum, pointwise activation, column projection per output order.

    The activation runs on a grid oversampled by the given integer factor
    (>= 1); inputs are resampled up and outputs truncated back to the
    original bandwidth, which bounds aliasing from the non-bandlimited
    activation.

    The result is project_column(activate(lift_sum(work)), m) on the
    oversampled fields, evaluated by _fiber_map: the K inputs at each S^2
    node, as rows [Re f_k, Im f_k], times the real form of the lift phases
    exp(-i k gamma_j) give the lifted samples at the n = 2 B_work gamma
    nodes; the activation acts on them; times the real form of fiber_dft's
    phases exp(i m gamma_j) / n they give the output orders.  The inputs
    are resampled one at a time into the rows, and the projection's
    columns are ordered (order, re/im), so its result viewed as complex is
    the outputs [C', nodes, M].  The fields must have one channel count.
    """
    if not isinstance(oversample, (int, np.integer)) or oversample < 1:
        raise ValueError("oversample factor must be a positive integer")
    B = _shared_grid(fields_in).bandwidth
    for k in [f.field_type.order for f in fields_in] + list(out_orders):
        _check_s2_order(k, fields_in[0].grid)
    if not out_orders:
        return []
    B_work = B * oversample
    grid = quadrature_grid("S2", B_work)
    gammas = grid.alphas            # the SO(3) grid's gamma nodes
    n = gammas.size
    K = len(fields_in)
    orders_in = np.array([f.field_type.order for f in fields_in])
    E = _real_form(np.exp(-1j * np.outer(orders_in, gammas)))   # [2K, 2n]
    P = _real_form(np.exp(1j * np.outer(gammas, out_orders)) / n)   # [2n, 2M]
    # columns in (order, re/im) order, so the projections view as complex
    P = P.reshape(-1, 2, len(out_orders)).transpose(0, 2, 1).reshape(2 * n, -1)
    rows = np.empty((fields_in[0].channels, grid.n_nodes, 2 * K))
    for k, f in enumerate(fields_in):
        work = (resample(f, B_work) if B_work != B else f).flat()
        rows[:, :, k] = work.real
        rows[:, :, K + k] = work.imag
    del work                # the last input is not held through the map,
    proj = _fiber_map(rows, E, spec, P).view(complex)        # [C', nodes, M]
    del rows                # nor the rows through the output resampling
    fields_out = []
    for j, m in enumerate(out_orders):
        f = TensorField(grid, FieldType(m), proj[:, :, j])
        fields_out.append(resample(f, B) if B_work != B else f)
    return fields_out


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
    using real orthonormal harmonics Y, the activation is applied on the
    sphere grid (a per-point MLP mixes channels), and the result is
    analyzed back to the same orders with the quadrature weights w: the
    points run through _fiber_map with synthesis Y^T and analysis Y w.
    """
    orders = [l for l, f in enumerate(features) if f is not None]
    if not orders:
        raise ValueError("point nonlinearity needs at least one feature order")
    lmax = orders[-1]
    if lmax >= bandwidth:
        raise ValueError("feature order reaches the sphere bandwidth")
    grid = quadrature_grid("S2", bandwidth)
    Y = real_sph_harm_matrix(lmax, *grid.nodes.T)
    Yw = Y * grid.weights[:, None]
    dim = Y.shape[1]
    n_pts, _, n_ch = features[orders[0]].shape
    coeff = np.zeros((n_ch, n_pts, dim))
    for l in orders:
        f = features[l]
        if f.shape != (n_pts, 2 * l + 1, n_ch):
            raise ValueError(
                f"feature order {l} has shape {f.shape}, expected [points, "
                f"{2 * l + 1}, channels] with the {n_pts} points and {n_ch} "
                f"channels of order {orders[0]}")
        coeff[:, :, l * l:(l + 1) * (l + 1)] = f.transpose(2, 0, 1)
    back = _fiber_map(coeff, Y.T, spec, Yw)                  # [ch, point, d]
    out: list = [None] * len(features)
    for l, f in enumerate(features):
        if f is None:
            continue
        out[l] = np.ascontiguousarray(          # a next layer gathers rows
            back[:, :, l * l:(l + 1) * (l + 1)].transpose(1, 2, 0))
    return out
