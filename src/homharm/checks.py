"""Property-check suites behind the CLI: each check measures one numerical
invariant and compares it against a fixed tolerance.

Determinism contract: the same (seed, config) always produces byte-identical
reports.  Each check draws from its own generator seeded by (global seed,
crc32 of the check name), so adding or reordering checks never changes the
random draws of existing ones.  Wall times are printed for humans but
serialized as null so report bytes stay stable.

run_suite is the one gate for a configuration: it raises CheckConfigError
for an unknown suite, bandwidth < 2, trials < 1, oversample < 1 or seed < 0
before any check runs, so every check may assume B >= 2.  (At B = 1 every
S^2 field is a constant, so no order-1 field, kernel or cotangent exists.)
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .groups import Rotation3, quadrature_grid
from .fields import (FieldType, TensorField, field_from_spin_coeffs,
                     induced_action, is_mackey, lift, lift_spectrum, project,
                     regular_action, spin_coeffs)
from .harmonics import real_sph_harm_matrix, wigner_D_real
from .nonlin import (ActivationSpec, activate, delta_projection_kernel,
                     lift_sum, nonlinearity, point_sphere_nonlin,
                     project_column, project_kernel)
from .se_kernels import (PointCloud, SE2KernelBasis, SE3KernelBasis,
                         se2_kernel_eval, se3_kernel_eval,
                         se3_kernel_eval_many, se3_layer, tfn_point_conv)
from .spectral_conv import (SparseKernelSpec, conv_field, conv_spatial_oracle,
                            conv_spectral, conv_vjp, kernel_degrees)
from .transforms import (ShtCoeffs, SpectralBlocks, sht_forward, sht_inverse,
                         so3_ft_forward, so3_ft_inverse)

__all__ = ["CheckResult", "CheckReport", "CheckConfigError", "run_suite",
           "SUITES", "default_config"]


class CheckConfigError(ValueError):
    """A check configuration that run_suite rejects before any check runs."""


@dataclass
class CheckResult:
    name: str
    measured_error: float
    tolerance: float
    passed: bool
    seed: int
    wall_time_ms: float


@dataclass
class CheckReport:
    suite: str
    config: dict
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_bytes(self) -> bytes:
        doc = {
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "checks": [{
                "name": c.name,
                "measured_error": c.measured_error,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "seed": c.seed,
                "wall_time_ms": None,
            } for c in sorted(self.checks, key=lambda c: c.name)],
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()

    def to_csv_bytes(self) -> bytes:
        lines = ["name,measured_error,tolerance,passed,seed,wall_time_ms"]
        for c in sorted(self.checks, key=lambda c: c.name):
            lines.append(f"{c.name},{c.measured_error!r},{c.tolerance!r},"
                         f"{str(c.passed).lower()},{c.seed},")
        return ("\n".join(lines) + "\n").encode()


def default_config() -> dict:
    return {"bandwidth": 8, "seed": 42, "trials": 20, "oversample": 2,
            "tolerances": {}}


def _rng_for(cfg: dict, name: str):
    sub = zlib.crc32(name.encode())
    return np.random.default_rng([cfg["seed"], sub]), sub


def _cplx(rng, *shape) -> np.ndarray:
    """Complex standard-normal draw: real part first, then imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_field(rng, B: int, k: int, channels: int = 1,
                scale: float = 1.0) -> TensorField:
    coeffs = [None] * abs(k) + [scale * _cplx(rng, channels, 2 * l + 1)
                                for l in range(abs(k), B)]
    return field_from_spin_coeffs(coeffs, k, quadrature_grid("S2", B))


def _rand_blocks(rng, B: int) -> SpectralBlocks:
    return SpectralBlocks(B, [_cplx(rng, 3, 2 * l + 1, 2 * l + 1)
                              for l in range(B)])


def _rand_rotation(rng) -> Rotation3:
    return Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                     rng.uniform(-np.pi, np.pi))


def _rand_kernel(rng, B: int, m_in: int, m_out: int, c_out: int = 1,
                 c_in: int = 1) -> SparseKernelSpec:
    n = len(kernel_degrees(m_in, m_out, B))
    return SparseKernelSpec(m_in, m_out, B, _cplx(rng, c_out, c_in, n))


def _probe_kernel(m_in: int, m_out: int, B: int, i: int) -> SparseKernelSpec:
    """The kernel whose only nonzero coefficient is a 1 at degree index i."""
    c = np.zeros((1, 1, len(kernel_degrees(m_in, m_out, B))), dtype=complex)
    c[0, 0, i] = 1.0
    return SparseKernelSpec(m_in, m_out, B, c)


def _orders(B: int):
    """Orders -2..2, clipped to |k| < B."""
    lim = min(2, B - 1)
    return range(-lim, lim + 1)


def _worst_over_orders(rng, B: int, measure) -> float:
    """Largest measure(f) over random fields f of each order in _orders(B)."""
    return max(measure(_rand_field(rng, B, k)) for k in _orders(B))


def _rel(num: float, den: float) -> float:
    return float(num / den) if den > 0 else float(num)


def _rel_err(a: np.ndarray, ref: np.ndarray) -> float:
    """max|a - ref| relative to max|ref|."""
    return _rel(np.abs(a - ref).max(), np.abs(ref).max())


def _rel_blocks(a: list, ref: list) -> float:
    """_rel_err over paired lists of blocks, maxima taken over all blocks."""
    return _rel(max(np.abs(x - r).max() for x, r in zip(a, ref)),
                max(np.abs(r).max() for r in ref))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _check_sht_round_trip(rng, cfg):
    B = cfg["bandwidth"]
    grid = quadrature_grid("S2", B)
    data = [_cplx(rng, 3, 2 * l + 1) for l in range(B)]
    back = sht_forward(sht_inverse(ShtCoeffs(B, data), grid), grid)
    return _rel_blocks(back.data, data)


def _check_so3_round_trip(rng, cfg):
    B = cfg["bandwidth"]
    grid = quadrature_grid("SO3", B)
    blocks = _rand_blocks(rng, B)
    back = so3_ft_forward(so3_ft_inverse(blocks, grid), grid)
    return _rel_blocks(back.blocks, blocks.blocks)


def _check_parseval(rng, cfg):
    B = cfg["bandwidth"]
    grid = quadrature_grid("SO3", B)
    blocks = _rand_blocks(rng, B)
    samples = so3_ft_inverse(blocks, grid)
    spatial = float(np.sum(np.abs(samples) ** 2 * grid.weights[None, :]))
    spectral = blocks.norm_squared()
    return _rel(abs(spatial - spectral), spectral)


def _check_sht_aliasing(rng, cfg):
    """Above-bandlimit content must visibly alias while the bandlimited part
    stays exact; measured error is the bandlimited part's round-trip error,
    or 1.0 if aliasing went undetected.
    """
    B = cfg["bandwidth"]
    fine = quadrature_grid("S2", 2 * B)
    coarse = quadrature_grid("S2", B)
    idx = np.arange(fine.n_nodes).reshape(4 * B, 4 * B)[::2, ::2].ravel()
    low = [_cplx(rng, 1, 2 * l + 1) for l in range(B)]
    high = [_cplx(rng, 1, 2 * l + 1) for l in range(B, 2 * B)]
    zeros = [np.zeros((1, 2 * l + 1), dtype=complex) for l in range(B, 2 * B)]

    def on_coarse(data: list) -> list:
        samples = sht_inverse(ShtCoeffs(2 * B, data), fine)
        return sht_forward(samples[:, idx], coarse).data

    if _rel_blocks(on_coarse(low + high), low) <= 1e-3:
        return 1.0
    return _rel_blocks(on_coarse(low + zeros), low)


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------


def _check_lift_off_column(rng, cfg):
    B = cfg["bandwidth"]

    def off_column(f):
        k = f.field_type.order
        blocks = so3_ft_forward(lift(f).flat(), quadrature_grid("SO3", B))
        return blocks.off_column_energy(k) / blocks.norm_squared()

    return _worst_over_orders(rng, B, off_column)


def _check_lift_mackey(rng, cfg):
    return _worst_over_orders(rng, cfg["bandwidth"],
                              lambda f: is_mackey(lift(f), f.field_type)[1])


def _check_lift_project_round_trip(rng, cfg):
    """project(lift(f)) = f, and project(L'_g lift(f)) = L_g f: projection
    undoes the lift also after the regular action of a random rotation."""
    g = _rand_rotation(rng)

    def err(f):
        up = lift(f)
        moved = project(regular_action(g, up), f.field_type)
        return max(_rel_err(project(up, f.field_type).flat(), f.flat()),
                   _rel_err(moved.flat(), induced_action(g, f).flat()))

    return _worst_over_orders(rng, cfg["bandwidth"], err)


# ---------------------------------------------------------------------------
# conv-equivariance
# ---------------------------------------------------------------------------


def _check_conv_equivariance(rng, cfg):
    B = cfg["bandwidth"]
    worst = 0.0
    for m_in in _orders(B):
        for m_out in _orders(B):
            ker = _rand_kernel(rng, B, m_in, m_out)
            f = _rand_field(rng, B, m_in)
            base = conv_field(f, ker)
            scale = np.abs(base.flat()).max()
            for _ in range(cfg["trials"]):
                g = _rand_rotation(rng)
                lhs = conv_field(induced_action(g, f), ker)
                rhs = induced_action(g, base)
                worst = max(worst, _rel(
                    np.abs(lhs.flat() - rhs.flat()).max(), scale))
    return worst


def _check_dense_zeroed(rng, cfg):
    """A dense spectral kernel with entries outside (m_in, m_out) zeroed
    acts identically to the sparse kernel on column-sparse input.
    """
    B = cfg["bandwidth"]
    worst = 0.0
    for (m_in, m_out) in [(0, 0), (1, -1), (min(2, B - 1), 0)]:
        ker = _rand_kernel(rng, B, m_in, m_out)
        blocks = lift_spectrum(_rand_field(rng, B, m_in))
        sparse_out = conv_spectral(blocks, ker)
        # dense path: full block product with a dense kernel whose
        # off-(m_in, m_out) entries are zeroed
        dense = [np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
                 for l in range(B)]
        for l in kernel_degrees(m_in, m_out, B):
            dense[l][m_in + l, m_out + l] = ker.coeff(l)[0, 0] / (2 * l + 1)
        dense_out = [b[0] @ d for b, d in zip(blocks.blocks, dense)]
        worst = max(worst, _rel_blocks(dense_out, sparse_out.blocks))
    return worst


def _check_basis_independence(rng, cfg):
    """Outputs of the canonical single-coefficient kernels on one random
    input must be linearly independent; measured = threshold / sigma_min.
    """
    B = cfg["bandwidth"]
    f = _rand_field(rng, B, 1)
    rows = [conv_field(f, _probe_kernel(1, 1, B, i)).flat()[0]
            for i in range(len(kernel_degrees(1, 1, B)))]
    sv = np.linalg.svd(np.stack(rows), compute_uv=False)
    return float(1e-8 / sv[-1])


# ---------------------------------------------------------------------------
# conv-oracle
# ---------------------------------------------------------------------------


def _check_spectral_vs_spatial(rng, cfg):
    B = min(cfg["bandwidth"], 4)
    worst = 0.0
    for (m_in, m_out) in [(0, 0), (1, -1), (min(2, B - 1), 1)]:
        ker = _rand_kernel(rng, B, m_in, m_out)
        f = _rand_field(rng, B, m_in)
        worst = max(worst, _rel_err(conv_field(f, ker).flat(),
                                    conv_spatial_oracle(f, ker).flat()))
    return worst


def _check_identity_kernel(rng, cfg):
    """Solve numerically for the coefficients making conv act as identity,
    then verify the round trip.
    """
    B = cfg["bandwidth"]
    degs = list(kernel_degrees(1, 1, B))
    f = _rand_field(rng, B, 1)
    a_in = spin_coeffs(f)
    # one unit coefficient per degree; the response ratio gives the scale
    c = np.zeros((1, 1, len(degs)), dtype=complex)
    for i, l in enumerate(degs):
        out = conv_field(f, _probe_kernel(1, 1, B, i))
        c[0, 0, i] = 1.0 / (spin_coeffs(out)[l][0, 0] / a_in[l][0, 0])
    g = _rand_field(rng, B, 1)
    return _rel_err(conv_field(g, SparseKernelSpec(1, 1, B, c)).flat(),
                    g.flat())


# ---------------------------------------------------------------------------
# nonlin
# ---------------------------------------------------------------------------


def _relu_equivariance_err(f: TensorField, g: Rotation3, ov: int) -> float:
    """Relative error of nonlinearity(L_g f) against L_g nonlinearity(f)."""
    spec, k = ActivationSpec("relu"), [f.field_type.order]
    lhs = nonlinearity([induced_action(g, f)], spec, k, oversample=ov)[0]
    rhs = induced_action(g, nonlinearity([f], spec, k, oversample=ov)[0])
    return _rel_err(lhs.flat(), rhs.flat())


def _check_grid_aligned_nonlin(rng, cfg):
    B = cfg["bandwidth"]
    f = _rand_field(rng, B, 1, scale=0.5)
    return _relu_equivariance_err(f, Rotation3(np.pi / B, 0.0, 0.0),
                                  cfg["oversample"])


def _check_oversampling_monotone(rng, cfg):
    """Random-rotation equivariance error must shrink as the activation grid
    is oversampled x1 -> x2 -> x4; measured is the largest error ratio.
    """
    f = _rand_field(rng, min(cfg["bandwidth"], 4), 0, scale=0.5)
    g = _rand_rotation(rng)
    errs = [_relu_equivariance_err(f, g, ov) for ov in (1, 2, 4)]
    return float(max(errs[1] / errs[0], errs[2] / errs[1]))


def _check_delta_kernel_projection(rng, cfg):
    B = cfg["bandwidth"]
    # bandlimited, so both projections agree
    lifted = lift_sum([_rand_field(rng, B, k, scale=0.5) for k in (0, 1)])
    col = project_column(lifted, 1)
    ker = project_kernel(lifted, delta_projection_kernel(1, B), 1)
    return _rel_err(ker.flat(), col.flat())


def _check_prior_pipeline(rng, cfg):
    """The per-point sphere nonlinearity must match the group-lift pipeline
    restricted to the scalar column (synthesize, activate, re-analyze).
    """
    B = max(cfg["bandwidth"], 3)
    lmax = 2
    feats = [0.3 * rng.standard_normal((1, 2 * l + 1, 1))
             for l in range(lmax + 1)]
    out_point = point_sphere_nonlin(feats, ActivationSpec("relu"), B)
    # group path: the same signal as a scalar field, lifted and activated
    grid = quadrature_grid("S2", B)
    S = real_sph_harm_matrix(lmax, grid.nodes[:, 0], grid.nodes[:, 1])
    coeff_vec = np.concatenate([feats[l][0, :, 0] for l in range(lmax + 1)])
    f = TensorField(grid, FieldType("SO2", 0), (S @ coeff_vec)[None, :])
    acted = activate(lift(f), ActivationSpec("relu"))
    back = project_column(acted, 0).flat()[0]
    real_out = np.einsum("n,nd,n->d", back.real, S, grid.weights)
    imag_leak = np.abs(np.einsum("n,nd,n->d", back.imag, S, grid.weights)).max()
    point_vec = np.concatenate([out_point[l][0, :, 0] for l in range(lmax + 1)])
    worst = max(np.abs(real_out - point_vec).max(), imag_leak)
    return _rel(worst, np.abs(point_vec).max())


# ---------------------------------------------------------------------------
# se2 / se3
# ---------------------------------------------------------------------------


def _check_se2_steerability(rng, cfg):
    radii = np.linspace(0.0, 2.0, 9)
    worst = 0.0
    for m_in in range(-4, 5):
        for m_out in range(-4, 5):
            basis = SE2KernelBasis(m_in, m_out, radii,
                                   rng.standard_normal(9))
            for _ in range(max(1, cfg["trials"] // 10)):
                x = rng.standard_normal(2)
                th = rng.uniform(0, 2 * np.pi)
                R = np.array([[np.cos(th), -np.sin(th)],
                              [np.sin(th), np.cos(th)]])
                lhs = se2_kernel_eval(basis, R @ x)
                rhs = np.exp(1j * (m_out - m_in) * th) * se2_kernel_eval(basis, x)
                worst = max(worst, abs(lhs - rhs))
    return worst


def _check_se3_steerability(rng, cfg):
    radii = np.linspace(0.0, 2.0, 9)
    worst = 0.0
    for l_in in range(4):
        for l_out in range(4):
            for t in range(abs(l_in - l_out), l_in + l_out + 1):
                basis = SE3KernelBasis(l_in, l_out, t, radii,
                                       rng.standard_normal(9))
                for _ in range(3):
                    x = rng.standard_normal(3)
                    g = _rand_rotation(rng)
                    K0 = se3_kernel_eval(basis, x)
                    K1 = se3_kernel_eval(basis, g.matrix() @ x)
                    ref = wigner_D_real(l_out, g) @ K0 @ wigner_D_real(l_in, g).T
                    worst = max(worst, np.abs(K1 - ref).max())
    return worst


def _check_se3_orthogonality(rng, cfg):
    grid = quadrature_grid("S2", 8)
    dirs = np.stack([np.sin(grid.nodes[:, 1]) * np.cos(grid.nodes[:, 0]),
                     np.sin(grid.nodes[:, 1]) * np.sin(grid.nodes[:, 0]),
                     np.cos(grid.nodes[:, 1])], axis=1)
    radii = np.array([0.0, 2.0])
    flat = np.array([1.0, 1.0])
    worst = 0.0
    for (l_in, l_out) in [(2, 2), (1, 2), (3, 2)]:
        ts = range(abs(l_in - l_out), l_in + l_out + 1)
        Ks = {t: se3_kernel_eval_many(
            SE3KernelBasis(l_in, l_out, t, radii, flat), dirs) for t in ts}
        for t1 in ts:
            for t2 in range(t1 + 1, ts.stop):
                ip = np.einsum("nij,nij,n->", Ks[t1], Ks[t2], grid.weights)
                worst = max(worst, abs(float(ip)))
    return worst


def _tfn_setup(rng, n_points: int, lmax: int = 2, channels: int = 2):
    pos = rng.standard_normal((n_points, 3))
    feats = [rng.standard_normal((n_points, 2 * l + 1, channels)) * 0.02
             for l in range(lmax + 1)]
    radii = np.linspace(0.0, 3.0, 7)
    terms = []
    for l_in in range(lmax + 1):
        for l_out in range(lmax + 1):
            for t in range(abs(l_in - l_out), l_in + l_out + 1):
                terms.append((SE3KernelBasis(l_in, l_out, t, radii,
                                             rng.standard_normal(7)),
                              rng.standard_normal((channels, channels))))
    return PointCloud(pos, feats), terms


def _tame_terms(cloud: PointCloud, terms: list, radius: float,
                target: float = 0.02) -> list:
    """Rescale mixing weights so conv outputs stay in the near-linear range
    of the activation (keeps aliasing from the nonlinearity negligible).
    The single scale is fixed from the reference cloud and reused verbatim
    for transformed clouds, so it cannot mask an equivariance defect.
    """
    out = tfn_point_conv(cloud, terms, radius)
    amp = max(np.abs(f).max() for f in out if f is not None)
    s = target / amp if amp > 0 else 1.0
    return [(basis, np.asarray(w) * s) for basis, w in terms]


def _rototranslate(cloud: PointCloud, g: Rotation3, t: np.ndarray) -> PointCloud:
    feats = [None if f is None
             else np.einsum("ij,njc->nic", wigner_D_real(l, g), f)
             for l, f in enumerate(cloud.features)]
    return PointCloud(cloud.positions @ g.matrix().T + t, feats)


def _feat_err(a: list, b: list, g: Rotation3) -> float:
    worst, scale = 0.0, 0.0
    for l in range(len(a)):
        if a[l] is None:
            continue
        rot = np.einsum("ij,njc->nic", wigner_D_real(l, g), b[l])
        worst = max(worst, np.abs(a[l] - rot).max())
        scale = max(scale, np.abs(rot).max())
    return _rel(worst, scale)


def _check_tfn_equivariance(rng, cfg):
    cloud, terms = _tfn_setup(rng, 64)
    g = _rand_rotation(rng)
    moved = _rototranslate(cloud, g, rng.standard_normal(3))
    return _feat_err(tfn_point_conv(moved, terms, radius=2.0),
                     tfn_point_conv(cloud, terms, radius=2.0), g)


def _se3_layer_setup(rng, cfg):
    """A 16-point cloud, tamed terms, and the layer as a function of both."""
    cloud, terms = _tfn_setup(rng, 16)
    terms = _tame_terms(cloud, terms, 2.0)
    spec = ActivationSpec("tanh")
    sphere_bw = max(cfg["bandwidth"], 8)
    return cloud, terms, lambda c, ts: se3_layer(c, ts, 2.0, spec, sphere_bw)


def _check_layer_equivariance(rng, cfg):
    cloud, terms, layer = _se3_layer_setup(rng, cfg)
    g = _rand_rotation(rng)
    moved = _rototranslate(cloud, g, rng.standard_normal(3))
    return _feat_err(layer(moved, terms), layer(cloud, terms), g)


def _check_two_layer_equivariance(rng, cfg):
    cloud, terms, layer = _se3_layer_setup(rng, cfg)
    mid = layer(cloud, terms)
    terms2 = _tame_terms(PointCloud(cloud.positions, mid), terms, 2.0)
    g = _rand_rotation(rng)
    moved = _rototranslate(cloud, g, rng.standard_normal(3))

    def two(c: PointCloud) -> list:
        return layer(PointCloud(c.positions, layer(c, terms)), terms2)

    return _feat_err(two(moved), two(cloud), g)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _pairing(a: list, b: list) -> float:
    return float(sum(np.sum(np.conj(x) * y).real for x, y in zip(a, b)))


def _vjp_setup(rng, B: int):
    """A 2x2-channel (1 -> -1) kernel, the lifted spectrum of a random order-1
    field, and a random cotangent on the output column n = -1.
    """
    ker = _rand_kernel(rng, B, 1, -1, c_out=2, c_in=2)
    blocks = lift_spectrum(_rand_field(rng, B, 1, channels=2))
    cot = SpectralBlocks.zeros(B, 2)
    for l in kernel_degrees(1, -1, B):
        cot.blocks[l][:, :, l - 1] = _cplx(rng, 2, 2 * l + 1)
    return ker, blocks, cot


def _check_vjp_adjoint(rng, cfg):
    ker, blocks, cot = _vjp_setup(rng, cfg["bandwidth"])
    vin, _ = conv_vjp(blocks, ker, cot)
    lhs = _pairing(cot.blocks, conv_spectral(blocks, ker).blocks)
    rhs = _pairing(vin.blocks, blocks.blocks)
    return _rel(abs(lhs - rhs), abs(lhs))


def _check_vjp_finite_difference(rng, cfg):
    B = cfg["bandwidth"]
    ker, blocks, cot = _vjp_setup(rng, B)
    _, vc = conv_vjp(blocks, ker, cot)
    step = 1e-5
    worst = 0.0
    scale = np.abs(vc).max()

    def paired(c: np.ndarray) -> float:
        out = conv_spectral(blocks, SparseKernelSpec(1, -1, B, c))
        return _pairing(cot.blocks, out.blocks)

    picks = [(o, i, li) for o in range(2) for i in range(2)
             for li in range(min(3, ker.coeffs.shape[2]))]
    for (o, i, li) in picks:
        # gradient convention: dP = Re<vc, dc>, so the real direction probes
        # Re(vc) and the imaginary direction +Im(vc)
        for direction, grad in ((1.0, vc[o, i, li].real),
                                (1j, vc[o, i, li].imag)):
            cp = ker.coeffs.copy()
            cm = ker.coeffs.copy()
            cp[o, i, li] += direction * step
            cm[o, i, li] -= direction * step
            fd = (paired(cp) - paired(cm)) / (2 * step)
            worst = max(worst, abs(fd - grad))
    return _rel(worst, scale)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "transforms": [
        ("parseval", _check_parseval, 1e-10),
        ("sht-aliasing-detection", _check_sht_aliasing, 1e-10),
        ("sht-round-trip", _check_sht_round_trip, 1e-10),
        ("so3-round-trip", _check_so3_round_trip, 1e-10),
    ],
    "sparsity": [
        ("lift-mackey-residual", _check_lift_mackey, 1e-10),
        ("lift-off-column-energy", _check_lift_off_column, 1e-10),
        ("lift-project-round-trip", _check_lift_project_round_trip, 1e-12),
    ],
    "conv-equivariance": [
        ("conv-commutes-with-action", _check_conv_equivariance, 1e-8),
        ("dense-zeroed-equivalence", _check_dense_zeroed, 1e-12),
        ("kernel-basis-independence", _check_basis_independence, 1.0),
    ],
    "conv-oracle": [
        ("identity-kernel-round-trip", _check_identity_kernel, 1e-12),
        ("spectral-vs-spatial", _check_spectral_vs_spatial, 1e-6),
    ],
    "nonlin": [
        ("delta-kernel-projection", _check_delta_kernel_projection, 1e-10),
        ("grid-aligned-equivariance", _check_grid_aligned_nonlin, 1e-12),
        ("oversampling-monotone", _check_oversampling_monotone, 1.0),
        ("prior-pipeline-equivalence", _check_prior_pipeline, 1e-10),
    ],
    "se2": [
        ("se2-steerability", _check_se2_steerability, 1e-12),
    ],
    "se3": [
        ("layer-equivariance", _check_layer_equivariance, 1e-8),
        ("se3-steerability", _check_se3_steerability, 1e-10),
        ("se3-t-orthogonality", _check_se3_orthogonality, 1e-11),
        ("tfn-equivariance", _check_tfn_equivariance, 1e-9),
        ("two-layer-equivariance", _check_two_layer_equivariance, 1e-7),
    ],
    "gradients": [
        ("vjp-adjoint-identity", _check_vjp_adjoint, 1e-12),
        ("vjp-finite-difference", _check_vjp_finite_difference, 1e-8),
    ],
}


def run_suite(suite: str, config: dict | None = None) -> CheckReport:
    """Run one named suite (or 'all') and return its report."""
    cfg = default_config()
    if config:
        cfg.update(config)
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise CheckConfigError(f"unknown suite {suite!r}; choose from "
                               f"{', '.join(list(SUITES) + ['all'])}")
    for key, least in (("bandwidth", 2), ("trials", 1), ("oversample", 1),
                       ("seed", 0)):
        if cfg[key] < least:
            raise CheckConfigError(f"{key} must be at least {least}, "
                                   f"got {cfg[key]}")
    echo = {k: v for k, v in cfg.items() if k != "tolerances"}
    echo["suites"] = names
    report = CheckReport(suite, echo)
    for name in names:
        for check_name, fn, tol in SUITES[name]:
            rng, sub = _rng_for(cfg, check_name)
            tol = cfg["tolerances"].get(check_name, tol)
            t0 = time.perf_counter()
            measured = float(fn(rng, cfg))
            dt = (time.perf_counter() - t0) * 1e3
            report.checks.append(CheckResult(
                check_name, measured, float(tol), measured <= tol, sub, dt))
    return report
