"""Property-check suites behind the CLI: each check measures one numerical
invariant and compares it against a fixed tolerance.

Determinism contract: the same (seed, config) always produces byte-identical
reports.  Each check draws from its own generator seeded by (global seed,
crc32 of the check name), so adding or reordering checks never changes the
random draws of existing ones.  Wall times are printed for humans but
serialized as null so report bytes stay stable.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .groups import Rotation3, quadrature_grid
from .fields import (FieldType, GroupFunction, TensorField,
                     field_from_spin_coeffs, induced_action, is_mackey, lift,
                     lift_spectrum, project, spin_coeffs)
from .harmonics import real_basis_change, real_sph_harm_matrix, wigner_D_real
from .nonlin import (ActivationSpec, activate, delta_projection_kernel,
                     lift_sum, nonlinearity, point_sphere_nonlin,
                     project_column, project_kernel)
from .se_kernels import (PointCloud, SE2KernelBasis, SE3KernelBasis,
                         se2_kernel_eval, se3_kernel_eval,
                         se3_kernel_eval_many, se3_layer, tfn_point_conv)
from .spectral_conv import (SparseKernelSpec, conv_field, conv_spectral,
                            conv_vjp, kernel_degrees)
from .transforms import (SpectralBlocks, sht_forward, sht_inverse,
                         so3_ft_forward, so3_ft_inverse)

__all__ = ["CheckResult", "CheckReport", "run_suite", "SUITES",
           "default_config"]


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


def _rand_field(rng, B: int, k: int, channels: int = 1,
                scale: float = 1.0) -> TensorField:
    grid = quadrature_grid("S2", B)
    coeffs: list = [None] * B
    for l in range(abs(k), B):
        coeffs[l] = scale * (rng.standard_normal((channels, 2 * l + 1))
                             + 1j * rng.standard_normal((channels, 2 * l + 1)))
    return field_from_spin_coeffs(coeffs, k, grid)


def _rand_rotation(rng) -> Rotation3:
    return Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                     rng.uniform(-np.pi, np.pi))


def _rand_kernel(rng, B: int, m_in: int, m_out: int, c_out: int = 1,
                 c_in: int = 1) -> SparseKernelSpec:
    n = len(kernel_degrees(m_in, m_out, B))
    c = rng.standard_normal((c_out, c_in, n)) + 1j * rng.standard_normal(
        (c_out, c_in, n))
    return SparseKernelSpec(m_in, m_out, B, c)


def _orders(B: int, max_order: int = 2):
    lim = min(max_order, B - 1)
    return range(-lim, lim + 1)


def _rel(num: float, den: float) -> float:
    return float(num / den) if den > 0 else float(num)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _check_sht_round_trip(rng, cfg):
    B = cfg["bandwidth"]
    grid = quadrature_grid("S2", B)
    from .transforms import ShtCoeffs
    data = [rng.standard_normal((3, 2 * l + 1))
            + 1j * rng.standard_normal((3, 2 * l + 1)) for l in range(B)]
    coeffs = ShtCoeffs(B, data)
    samples = sht_inverse(coeffs, grid)
    back = sht_forward(samples, grid)
    err = max(np.abs(back.data[l] - data[l]).max() for l in range(B))
    scale = max(np.abs(d).max() for d in data)
    return _rel(err, scale)


def _check_so3_round_trip(rng, cfg):
    B = cfg["bandwidth"]
    grid = quadrature_grid("SO3", B)
    blocks = SpectralBlocks(B, [
        rng.standard_normal((3, 2 * l + 1, 2 * l + 1))
        + 1j * rng.standard_normal((3, 2 * l + 1, 2 * l + 1))
        for l in range(B)])
    samples = so3_ft_inverse(blocks, grid)
    back = so3_ft_forward(samples, grid)
    err = max(np.abs(back.blocks[l] - blocks.blocks[l]).max()
              for l in range(B))
    scale = max(np.abs(b).max() for b in blocks.blocks)
    return _rel(err, scale)


def _check_parseval(rng, cfg):
    B = cfg["bandwidth"]
    grid = quadrature_grid("SO3", B)
    blocks = SpectralBlocks(B, [
        rng.standard_normal((3, 2 * l + 1, 2 * l + 1))
        + 1j * rng.standard_normal((3, 2 * l + 1, 2 * l + 1))
        for l in range(B)])
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
    from .transforms import ShtCoeffs
    data = [np.zeros((1, 2 * l + 1), dtype=complex) for l in range(2 * B)]
    for l in range(B):
        data[l] = (rng.standard_normal((1, 2 * l + 1))
                   + 1j * rng.standard_normal((1, 2 * l + 1)))
    low = sht_inverse(ShtCoeffs(2 * B, [d.copy() for d in data]), fine)
    for l in range(B, 2 * B):
        data[l] = (rng.standard_normal((1, 2 * l + 1))
                   + 1j * rng.standard_normal((1, 2 * l + 1)))
    full = sht_inverse(ShtCoeffs(2 * B, data), fine)
    idx = np.arange(fine.n_nodes).reshape(4 * B, 4 * B)[::2, ::2].ravel()
    low_coeffs = sht_forward(low[:, idx], coarse)
    full_coeffs = sht_forward(full[:, idx], coarse)
    exact_err = max(np.abs(low_coeffs.data[l] - data[l][:, :]).max()
                    if l < B else 0.0 for l in range(B))
    aliased_err = max(np.abs(full_coeffs.data[l] - data[l]).max()
                      for l in range(B))
    scale = max(np.abs(data[l]).max() for l in range(B))
    if aliased_err / scale <= 1e-3:
        return 1.0
    return _rel(exact_err, scale)


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------


def _check_lift_off_column(rng, cfg):
    B = cfg["bandwidth"]
    worst = 0.0
    for k in _orders(B):
        f = _rand_field(rng, B, k)
        blocks = so3_ft_forward(lift(f).flat(), quadrature_grid("SO3", B))
        worst = max(worst, blocks.off_column_energy(k) / blocks.norm_squared())
    return worst


def _check_lift_mackey(rng, cfg):
    B = cfg["bandwidth"]
    worst = 0.0
    for k in _orders(B):
        f = _rand_field(rng, B, k)
        _, res = is_mackey(lift(f), f.field_type)
        worst = max(worst, res)
    return worst


def _check_lift_project_round_trip(rng, cfg):
    B = cfg["bandwidth"]
    worst = 0.0
    for k in _orders(B):
        f = _rand_field(rng, B, k)
        back = project(lift(f), f.field_type)
        worst = max(worst, _rel(np.abs(back.flat() - f.flat()).max(),
                                np.abs(f.flat()).max()))
    return worst


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
        f = _rand_field(rng, B, m_in)
        blocks = lift_spectrum(f)
        sparse_out = conv_spectral(blocks, ker)
        # dense path: full block product with a dense kernel whose
        # off-(m_in, m_out) entries are zeroed
        dense_out = SpectralBlocks.zeros(B, 1)
        lo = max(abs(m_in), abs(m_out))
        for l in range(B):
            dense = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
            if l >= lo:
                dense[m_in + l, m_out + l] = ker.coeff(l)[0, 0] / (2 * l + 1)
            dense_out.blocks[l][0] = blocks.blocks[l][0] @ dense
        num = max(np.abs(dense_out.blocks[l] - sparse_out.blocks[l]).max()
                  for l in range(B))
        scale = max(np.abs(b).max() for b in sparse_out.blocks)
        worst = max(worst, _rel(num, scale))
    return worst


def _check_basis_independence(rng, cfg):
    """Outputs of the canonical single-coefficient kernels on one random
    input must be linearly independent; measured = threshold / sigma_min.
    """
    B = cfg["bandwidth"]
    m_in, m_out = min(1, B - 1), min(1, B - 1)
    f = _rand_field(rng, B, m_in)
    degs = list(kernel_degrees(m_in, m_out, B))
    rows = []
    for i in range(len(degs)):
        c = np.zeros((1, 1, len(degs)), dtype=complex)
        c[0, 0, i] = 1.0
        out = conv_field(f, SparseKernelSpec(m_in, m_out, B, c))
        rows.append(out.flat()[0])
    sv = np.linalg.svd(np.stack(rows), compute_uv=False)
    return float(1e-8 / sv[-1])


# ---------------------------------------------------------------------------
# conv-oracle
# ---------------------------------------------------------------------------


def _check_spectral_vs_spatial(rng, cfg):
    from .spectral_conv import conv_spatial_oracle
    B = min(cfg["bandwidth"], 4)
    worst = 0.0
    for (m_in, m_out) in [(0, 0), (1, -1), (min(2, B - 1), 1 if B > 1 else 0)]:
        ker = _rand_kernel(rng, B, m_in, m_out)
        f = _rand_field(rng, B, m_in)
        spectral = conv_field(f, ker)
        spatial = conv_spatial_oracle(f, ker)
        worst = max(worst, _rel(
            np.abs(spectral.flat() - spatial.flat()).max(),
            np.abs(spatial.flat()).max()))
    return worst


def _check_identity_kernel(rng, cfg):
    """Solve numerically for the coefficients making conv act as identity,
    then verify the round trip.
    """
    B = cfg["bandwidth"]
    m = min(1, B - 1)
    degs = list(kernel_degrees(m, m, B))
    f = _rand_field(rng, B, m)
    a_in = spin_coeffs(f)
    # one unit coefficient per degree; the response ratio gives the scale
    c = np.zeros((1, 1, len(degs)), dtype=complex)
    for i, l in enumerate(degs):
        probe = np.zeros((1, 1, len(degs)), dtype=complex)
        probe[0, 0, i] = 1.0
        out = conv_field(f, SparseKernelSpec(m, m, B, probe))
        ratio = spin_coeffs(out)[l][0, 0] / a_in[l][0, 0]
        c[0, 0, i] = 1.0 / ratio
    g = _rand_field(rng, B, m)
    out = conv_field(g, SparseKernelSpec(m, m, B, c))
    return _rel(np.abs(out.flat() - g.flat()).max(), np.abs(g.flat()).max())


# ---------------------------------------------------------------------------
# nonlin
# ---------------------------------------------------------------------------


def _check_grid_aligned_nonlin(rng, cfg):
    B = cfg["bandwidth"]
    k = min(1, B - 1)
    f = _rand_field(rng, B, k, scale=0.5)
    g = Rotation3(np.pi / B, 0.0, 0.0)
    spec = ActivationSpec("relu")
    ov = cfg["oversample"]
    lhs = nonlinearity([induced_action(g, f)], spec, [k], oversample=ov)[0]
    rhs = induced_action(g, nonlinearity([f], spec, [k], oversample=ov)[0])
    return _rel(np.abs(lhs.flat() - rhs.flat()).max(),
                np.abs(rhs.flat()).max())


def _check_oversampling_monotone(rng, cfg):
    """Random-rotation equivariance error must shrink as the activation grid
    is oversampled x1 -> x2 -> x4; measured is the largest error ratio.
    """
    B = min(cfg["bandwidth"], 4)
    f = _rand_field(rng, B, 0, scale=0.5)
    g = _rand_rotation(rng)
    spec = ActivationSpec("relu")
    errs = []
    for ov in (1, 2, 4):
        lhs = nonlinearity([induced_action(g, f)], spec, [0], oversample=ov)[0]
        rhs = induced_action(g, nonlinearity([f], spec, [0], oversample=ov)[0])
        errs.append(_rel(np.abs(lhs.flat() - rhs.flat()).max(),
                         np.abs(rhs.flat()).max()))
    return float(max(errs[1] / errs[0], errs[2] / errs[1]))


def _check_delta_kernel_projection(rng, cfg):
    B = cfg["bandwidth"]
    k = min(1, B - 1)
    fields = [_rand_field(rng, B, 0, scale=0.5),
              _rand_field(rng, B, k, scale=0.5)]
    lifted = lift_sum(fields)    # bandlimited, so both projections agree
    col = project_column(lifted, k)
    ker = project_kernel(lifted, delta_projection_kernel(k, B), k)
    return _rel(np.abs(col.flat() - ker.flat()).max(),
                np.abs(col.flat()).max())


def _check_prior_pipeline(rng, cfg):
    """The per-point sphere nonlinearity must match the group-lift pipeline
    restricted to the scalar column (synthesize, activate, re-analyze).
    """
    B = max(cfg["bandwidth"], 3)
    lmax = min(2, B - 1)
    feats = [0.3 * rng.standard_normal((1, 1, 2 * l + 1))
             for l in range(lmax + 1)]
    out_point = point_sphere_nonlin(feats, ActivationSpec("relu"), B)
    # group path: the same signal as a scalar field, lifted and activated
    grid = quadrature_grid("S2", B)
    S = real_sph_harm_matrix(lmax, grid.nodes[:, 0], grid.nodes[:, 1])
    coeff_vec = np.concatenate([feats[l][0, 0] for l in range(lmax + 1)])
    f = TensorField(grid, FieldType("SO2", 0), (S @ coeff_vec)[None, :])
    acted = activate(lift(f), ActivationSpec("relu"))
    back = project_column(acted, 0).flat()[0]
    real_out = np.einsum("n,nd,n->d", back.real, S, grid.weights)
    imag_leak = np.abs(np.einsum("n,nd,n->d", back.imag, S, grid.weights)).max()
    point_vec = np.concatenate([out_point[l][0, 0] for l in range(lmax + 1)])
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
            for t2 in ts:
                if t2 <= t1:
                    continue
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
    R = g.matrix()
    feats = []
    for l, f in enumerate(cloud.features):
        if f is None:
            feats.append(None)
            continue
        feats.append(np.einsum("ij,njc->nic", wigner_D_real(l, g), f))
    return PointCloud(cloud.positions @ R.T + t, feats)


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
    t = rng.standard_normal(3)
    out = tfn_point_conv(cloud, terms, radius=2.0)
    out_t = tfn_point_conv(_rototranslate(cloud, g, t), terms, radius=2.0)
    return _feat_err(out_t, out, g)


def _check_layer_equivariance(rng, cfg):
    cloud, terms = _tfn_setup(rng, 16)
    terms = _tame_terms(cloud, terms, 2.0)
    g = _rand_rotation(rng)
    t = rng.standard_normal(3)
    spec = ActivationSpec("tanh")
    sphere_bw = max(cfg["bandwidth"], 8)
    out = se3_layer(cloud, terms, 2.0, spec, sphere_bw)
    out_t = se3_layer(_rototranslate(cloud, g, t), terms, 2.0, spec, sphere_bw)
    return _feat_err(out_t, out, g)


def _check_two_layer_equivariance(rng, cfg):
    cloud, terms = _tfn_setup(rng, 16)
    terms = _tame_terms(cloud, terms, 2.0)
    spec = ActivationSpec("tanh")
    sphere_bw = max(cfg["bandwidth"], 8)
    mid = se3_layer(cloud, terms, 2.0, spec, sphere_bw)
    terms2 = _tame_terms(PointCloud(cloud.positions, mid), terms, 2.0)
    g = _rand_rotation(rng)
    t = rng.standard_normal(3)

    def two(c: PointCloud) -> list:
        first = se3_layer(c, terms, 2.0, spec, sphere_bw)
        return se3_layer(PointCloud(c.positions, first), terms2, 2.0, spec,
                         sphere_bw)

    return _feat_err(two(_rototranslate(cloud, g, t)), two(cloud), g)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _pairing(a: list, b: list) -> float:
    return float(sum(np.sum(np.conj(x) * y).real for x, y in zip(a, b)))


def _check_vjp_adjoint(rng, cfg):
    B = cfg["bandwidth"]
    m_in, m_out = min(1, B - 1), -min(1, B - 1)
    ker = _rand_kernel(rng, B, m_in, m_out, c_out=2, c_in=2)
    f = _rand_field(rng, B, m_in, channels=2)
    blocks = lift_spectrum(f)
    out = conv_spectral(blocks, ker)
    cot = SpectralBlocks.zeros(B, 2)
    for l in kernel_degrees(m_in, m_out, B):
        cot.blocks[l][:, :, m_out + l] = (
            rng.standard_normal((2, 2 * l + 1))
            + 1j * rng.standard_normal((2, 2 * l + 1)))
    vin, _ = conv_vjp(blocks, ker, cot)
    lhs = _pairing(cot.blocks, out.blocks)
    rhs = _pairing(vin.blocks, blocks.blocks)
    return _rel(abs(lhs - rhs), abs(lhs))


def _check_vjp_finite_difference(rng, cfg):
    B = cfg["bandwidth"]
    m_in, m_out = min(1, B - 1), -min(1, B - 1)
    ker = _rand_kernel(rng, B, m_in, m_out, c_out=2, c_in=2)
    f = _rand_field(rng, B, m_in, channels=2)
    blocks = lift_spectrum(f)
    cot = SpectralBlocks.zeros(B, 2)
    for l in kernel_degrees(m_in, m_out, B):
        cot.blocks[l][:, :, m_out + l] = (
            rng.standard_normal((2, 2 * l + 1))
            + 1j * rng.standard_normal((2, 2 * l + 1)))
    _, vc = conv_vjp(blocks, ker, cot)
    step = 1e-5
    worst = 0.0
    scale = np.abs(vc).max()
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
            up = conv_spectral(blocks, SparseKernelSpec(m_in, m_out, B, cp))
            dn = conv_spectral(blocks, SparseKernelSpec(m_in, m_out, B, cm))
            fd = (_pairing(cot.blocks, up.blocks)
                  - _pairing(cot.blocks, dn.blocks)) / (2 * step)
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
        raise KeyError(f"unknown suite {suite!r}; choose from "
                       f"{', '.join(list(SUITES) + ['all'])}")
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
