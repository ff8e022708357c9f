"""End-to-end acceptance gate: one test per verified claim, each printing a
single PASS/FAIL line with the measured error and its pinned tolerance.

Run with -s to see the lines as they happen; they are also shown for any
failure via the assertion message.
"""

import json
import math
import time

import numpy as np
import pytest

from homharm.cli import main as cli_main
from homharm.fields import (field_from_spin_coeffs, induced_action, lift,
                            lift_spectrum)
from homharm.groups import Rotation3, quadrature_grid
from homharm.harmonics import (clebsch_gordan, wigner_D_matrix,
                               wigner_d_stack)
from homharm.nonlin import (ActivationSpec, activate, lift_sum, nonlinearity,
                            project_column)
from homharm.se_kernels import (PointCloud, SE2KernelBasis, SE3KernelBasis,
                                se2_kernel_eval, se3_kernel_eval, se3_layer,
                                tfn_point_conv)
from homharm.spectral_conv import (SparseKernelSpec, conv_field,
                                   conv_spatial_oracle, conv_spectral,
                                   conv_vjp, kernel_degrees)
from homharm.transforms import (SpectralBlocks, sht_forward, sht_inverse,
                                so3_ft_forward, so3_ft_inverse)
from homharm.harmonics import wigner_D_real

rng = np.random.default_rng(90210)


def report(name, measured, tolerance, extra=""):
    passed = measured <= tolerance
    line = (f"{'PASS' if passed else 'FAIL'}  {name}: measured "
            f"{measured:.3e}  tolerance {tolerance:.1e} {extra}")
    print(line)
    assert passed, line


def random_field(B, order, channels=1, scale=1.0):
    grid = quadrature_grid("S2", B)
    coeffs = [None] * B
    for l in range(abs(order), B):
        coeffs[l] = scale * (rng.standard_normal((channels, 2 * l + 1))
                             + 1j * rng.standard_normal((channels, 2 * l + 1)))
    return field_from_spin_coeffs(coeffs, order, grid)


def random_rotation():
    return Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                     rng.uniform(0, 2 * np.pi))


def test_01_transform_exactness():
    t0 = time.perf_counter()
    B, C = 8, 3
    s2 = quadrature_grid("S2", B)
    so3 = quadrature_grid("SO3", B)
    sht_c = [rng.standard_normal((C, 2 * l + 1))
             + 1j * rng.standard_normal((C, 2 * l + 1)) for l in range(B)]
    from homharm.transforms import ShtCoeffs
    coeffs = ShtCoeffs(B, sht_c)
    f = sht_inverse(coeffs, s2)
    back = sht_forward(f, s2)
    err = max(np.abs(back.data[l] - sht_c[l]).max()
              / max(1.0, np.abs(sht_c[l]).max()) for l in range(B))

    blocks = SpectralBlocks(B, [
        rng.standard_normal((C, 2 * l + 1, 2 * l + 1))
        + 1j * rng.standard_normal((C, 2 * l + 1, 2 * l + 1))
        for l in range(B)])
    g = so3_ft_inverse(blocks, so3)
    back3 = so3_ft_forward(g, so3)
    err = max(err, max(np.abs(back3.blocks[l] - blocks.blocks[l]).max()
                       / max(1.0, np.abs(blocks.blocks[l]).max())
                       for l in range(B)))

    spatial = float(np.einsum("cn,n->", np.abs(g) ** 2, so3.weights))
    err = max(err, abs(spatial - blocks.norm_squared()) / blocks.norm_squared())
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"transform criterion took {dt:.2f}s (limit 2s)"
    report("transform-exactness", err, 1e-10, f"({dt:.2f}s)")


def test_02_lift_off_column_amplitude():
    B = 8
    worst = 0.0
    for k in (-2, -1, 0, 1, 2):
        field = random_field(B, k)
        blocks = so3_ft_forward(lift(field).flat(), quadrature_grid("SO3", B))
        worst = max(worst, blocks.off_column(k))
    report("lifted-field-column-sparsity", worst, 1e-10)


def test_03_dense_kernel_sufficiency():
    B = 8
    worst = 0.0
    for (m_in, m_out) in [(0, 0), (1, -1), (-2, 2)]:
        field = random_field(B, m_in)
        blocks = lift_spectrum(field)
        n_l = len(kernel_degrees(m_in, m_out, B))
        kernel = SparseKernelSpec(
            m_in, m_out, B, rng.standard_normal(n_l)
            + 1j * rng.standard_normal(n_l))
        dense = SpectralBlocks.zeros(B, 1)
        for l in range(B):
            K = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
            if l >= max(abs(m_in), abs(m_out)):
                K[m_in + l, m_out + l] = kernel.coeff(l)[0, 0] / (2 * l + 1)
            dense.blocks[l][0] = blocks.blocks[l][0] @ K
        sparse = conv_spectral(blocks, kernel)
        worst = max(worst, max(
            np.abs(dense.blocks[l] - sparse.blocks[l]).max()
            / max(1.0, np.abs(sparse.blocks[l]).max()) for l in range(B)))
    report("dense-kernel-off-entry-zeroing", worst, 1e-12)


def test_04_convolution_equivariance():
    t0 = time.perf_counter()
    B = 8
    worst = 0.0
    pairs = [(mi, mo) for mi in range(-2, 3) for mo in range(-2, 3)]
    fields = {mi: random_field(B, mi) for mi in range(-2, 3)}
    kernels = {}
    for mi, mo in pairs:
        n_l = len(kernel_degrees(mi, mo, B))
        kernels[(mi, mo)] = SparseKernelSpec(
            mi, mo, B,
            rng.standard_normal(n_l) + 1j * rng.standard_normal(n_l))
    rotations = [random_rotation() for _ in range(20)]
    for g in rotations:
        rotated = {mi: induced_action(g, f) for mi, f in fields.items()}
        for (mi, mo), kernel in kernels.items():
            a = conv_field(rotated[mi], kernel).samples
            b = induced_action(g, conv_field(fields[mi], kernel)).samples
            worst = max(worst,
                        np.abs(a - b).max() / max(1.0, np.abs(b).max()))
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"equivariance criterion took {dt:.2f}s (limit 10s)"
    report("conv-equivariance", worst, 1e-8, f"({dt:.2f}s)")


def test_05_spectral_spatial_agreement():
    # the one documented global scalar between the spectral path and the
    # direct-space correlation oracle is 1.0 under volume-1 normalization
    t0 = time.perf_counter()
    B = 4
    worst = 0.0
    for (m_in, m_out) in [(0, 0), (1, 0), (0, -1), (1, -1), (-2, 2), (2, 1)]:
        field = random_field(B, m_in)
        n_l = len(kernel_degrees(m_in, m_out, B))
        kernel = SparseKernelSpec(
            m_in, m_out, B,
            rng.standard_normal(n_l) + 1j * rng.standard_normal(n_l))
        fast = conv_field(field, kernel).samples
        slow = conv_spatial_oracle(field, kernel).samples
        worst = max(worst,
                    np.abs(fast - slow).max() / max(1.0, np.abs(slow).max()))
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"oracle criterion took {dt:.2f}s (limit 30s)"
    report("spectral-vs-spatial-oracle", worst, 1e-6, f"({dt:.2f}s)")


def test_06_nonlinearity():
    # (a) grid-aligned equivariance is exact
    B = 4
    spec = ActivationSpec("relu")
    f = random_field(B, 1)
    g = Rotation3.rz(np.pi / B)
    a = nonlinearity([induced_action(g, f)], spec, [1], oversample=2)[0]
    b = induced_action(g, nonlinearity([f], spec, [1], oversample=2)[0])
    err_aligned = np.abs(a.samples - b.samples).max() / np.abs(b.samples).max()

    # (b) oversampling 1 -> 2 -> 4 strictly reduces random-rotation error
    f0 = random_field(B, 0, scale=0.5)
    gr = random_rotation()
    errs = []
    for ov in (1, 2, 4):
        x = nonlinearity([induced_action(gr, f0)], spec, [0], oversample=ov)[0]
        y = induced_action(gr, nonlinearity([f0], spec, [0], oversample=ov)[0])
        errs.append(np.abs(x.samples - y.samples).max()
                    / np.abs(y.samples).max())
    monotone = max(errs[1] / errs[0], errs[2] / errs[1])

    # (c) equivalence with the classic sample-activate-resample pipeline
    fields = [random_field(B, 0), random_field(B, 1)]
    fused = nonlinearity(fields, ActivationSpec("gelu"), [0, 1], oversample=1)
    manual = [project_column(activate(lift_sum(fields),
                                      ActivationSpec("gelu")), m)
              for m in (0, 1)]
    err_equiv = max(np.abs(x.samples - y.samples).max()
                    / max(1.0, np.abs(y.samples).max())
                    for x, y in zip(fused, manual))

    report("nonlin-grid-aligned", err_aligned, 1e-12)
    report("nonlin-oversampling-monotone", monotone, 1.0,
           f"(errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e})")
    report("nonlin-prior-equivalence", err_equiv, 1e-10)


def test_07_se2_se3_kernels():
    radii = np.linspace(0.0, 3.0, 16)

    # SE(2) steerability phase identity, |m| <= 4
    worst2 = 0.0
    for m_in in range(-4, 5):
        for m_out in range(-4, 5):
            basis = SE2KernelBasis(m_in, m_out, radii,
                                   rng.standard_normal(radii.shape))
            x = rng.uniform(-2, 2, 2)
            theta = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            xr = np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])
            lhs = se2_kernel_eval(basis, xr)
            rhs = (np.exp(1j * m_out * theta) * se2_kernel_eval(basis, x)
                   * np.exp(-1j * m_in * theta))
            worst2 = max(worst2, abs(lhs - rhs))
    report("se2-steerability", worst2, 1e-12)

    # SE(3) basis steerability, l <= 3
    worst3 = 0.0
    for li in range(4):
        for lo in range(4):
            for t in range(abs(li - lo), li + lo + 1):
                basis = SE3KernelBasis(li, lo, t, radii,
                                       rng.standard_normal(radii.shape))
                x = rng.uniform(-1.5, 1.5, 3)
                g = random_rotation()
                lhs = se3_kernel_eval(basis, g.matrix() @ x)
                rhs = (wigner_D_real(lo, g) @ se3_kernel_eval(basis, x)
                       @ wigner_D_real(li, g).T)
                worst3 = max(worst3, np.abs(lhs - rhs).max())
    report("se3-steerability", worst3, 1e-10)

    # TFN point convolution equivariance under a random rototranslation
    n = 64
    pos = rng.uniform(-2, 2, (n, 3))
    feats = [0.1 * rng.standard_normal((n, 2 * l + 1, 2)) for l in range(3)]
    cloud = PointCloud(pos, feats)
    terms = []
    for li in range(3):
        for lo in range(3):
            for t in range(abs(li - lo), li + lo + 1):
                basis = SE3KernelBasis(li, lo, t, radii,
                                       0.2 * rng.standard_normal(radii.shape))
                terms.append((basis, 0.2 * rng.standard_normal((2, 2))))
    g = random_rotation()
    shift = rng.uniform(-5, 5, 3)
    moved = PointCloud(pos @ g.matrix().T + shift,
                       [np.einsum("mn,pnc->pmc", wigner_D_real(l, g), f)
                        for l, f in enumerate(feats)])
    a = tfn_point_conv(moved, terms, radius=1.5)
    b = tfn_point_conv(cloud, terms, radius=1.5)
    scale = max(np.abs(f).max() for f in b)
    worst_tfn = max(
        np.abs(a[l] - np.einsum("mn,pnc->pmc", wigner_D_real(l, g),
                                b[l])).max()
        for l in range(3)) / scale
    report("tfn-equivariance", worst_tfn, 1e-9)

    # composed conv + per-point nonlinearity layer
    small = PointCloud(pos[:24],
                       [0.05 * rng.standard_normal((24, 2 * l + 1, 2))
                        for l in range(2)])
    terms_small = []
    for li in range(2):
        for lo in range(2):
            for t in range(abs(li - lo), li + lo + 1):
                basis = SE3KernelBasis(li, lo, t, radii,
                                       0.05 * rng.standard_normal(radii.shape))
                terms_small.append((basis,
                                    0.05 * rng.standard_normal((2, 2))))
    spec = ActivationSpec("tanh")
    moved_small = PointCloud(
        small.positions @ g.matrix().T + shift,
        [np.einsum("mn,pnc->pmc", wigner_D_real(l, g), f)
         for l, f in enumerate(small.features)])
    la = se3_layer(moved_small, terms_small, 1.5, spec, bandwidth=8)
    lb = se3_layer(small, terms_small, 1.5, spec, bandwidth=8)
    scale = max(np.abs(f).max() for f in lb)
    worst_layer = max(
        np.abs(la[l] - np.einsum("mn,pnc->pmc", wigner_D_real(l, g),
                                 lb[l])).max()
        for l in range(2)) / scale
    report("se3-layer-equivariance", worst_layer, 1e-8)


def _racah_cg(l1, m1, l2, m2, l, m):
    """Independent Racah-formula oracle, plain factorials."""
    if m != m1 + m2 or not abs(l1 - l2) <= l <= l1 + l2 or abs(m) > l:
        return 0.0
    fact = math.factorial
    pref = math.sqrt(
        (2 * l + 1) * fact(l + l1 - l2) * fact(l - l1 + l2)
        * fact(l1 + l2 - l) / fact(l1 + l2 + l + 1)
        * fact(l + m) * fact(l - m) * fact(l1 - m1) * fact(l1 + m1)
        * fact(l2 - m2) * fact(l2 + m2))
    total = 0.0
    for k in range(0, l1 + l2 - l + 1):
        denoms = [k, l1 + l2 - l - k, l1 - m1 - k, l2 + m2 - k,
                  l - l2 + m1 + k, l - l1 - m2 + k]
        if any(d < 0 for d in denoms):
            continue
        total += (-1) ** k / np.prod([float(fact(d)) for d in denoms])
    return pref * total


def test_08_representation_golden_values():
    # (a) Wigner d, l = 1 closed form (rows/columns m = -1, 0, 1)
    worst = 0.0
    for beta in rng.uniform(0, np.pi, 8):
        c, s = np.cos(beta), np.sin(beta)
        ref = np.array([
            [(1 + c) / 2, s / np.sqrt(2), (1 - c) / 2],
            [-s / np.sqrt(2), c, s / np.sqrt(2)],
            [(1 - c) / 2, -s / np.sqrt(2), (1 + c) / 2],
        ])
        worst = max(worst, np.abs(wigner_d_stack(1, [beta])[1][0] - ref).max())
    report("wigner-d-l1-closed-form", worst, 1e-14)

    # (b) CG values against the Racah oracle, l <= 4
    worst_cg = 0.0
    for l1 in range(5):
        for l2 in range(5):
            for l in range(abs(l1 - l2), min(l1 + l2, 4) + 1):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        if abs(m1 + m2) > l:
                            continue
                        a = clebsch_gordan(l1, m1, l2, m2, l, m1 + m2)
                        b = _racah_cg(l1, m1, l2, m2, l, m1 + m2)
                        worst_cg = max(worst_cg, abs(a - b))
    report("clebsch-gordan-vs-racah", worst_cg, 1e-12)

    # (c) trivial-rep dual-pair condition: exact zero off the dual pairs
    worst_zero = 0.0
    for l1 in range(5):
        for l2 in range(5):
            for m1 in range(-l1, l1 + 1):
                m2 = -m1
                if abs(m2) > l2:
                    continue
                v = clebsch_gordan(l1, m1, l2, m2, 0, 0)
                if l1 != l2:
                    worst_zero = max(worst_zero, abs(v))
    report("trivial-rep-selection-rule", worst_zero, 1e-14)

    # (d) restriction of D^l to z-rotations is diagonal e^{-im theta}
    worst_diag = 0.0
    theta = 0.6180339887
    for l in (1, 2, 3, 5):
        D = wigner_D_matrix(l, Rotation3.rz(theta))
        m = np.arange(-l, l + 1)
        worst_diag = max(worst_diag, np.abs(
            D - np.diag(np.exp(-1j * m * theta))).max())
    report("stabilizer-restriction-diagonal", worst_diag, 1e-14)


def test_09_gradient_correctness():
    B = 5
    m_in, m_out = 1, -1
    n_l = len(kernel_degrees(m_in, m_out, B))
    kernel = SparseKernelSpec(m_in, m_out, B,
                              rng.standard_normal((2, 3, n_l))
                              + 1j * rng.standard_normal((2, 3, n_l)))
    blocks = lift_spectrum(random_field(B, m_in, channels=3))
    out = conv_spectral(blocks, kernel)
    cot = SpectralBlocks(B, [
        rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        for b in out.blocks])
    vjp_in, vjp_c = conv_vjp(blocks, kernel, cot)

    tangent = lift_spectrum(random_field(B, m_in, channels=3))
    jv = conv_spectral(tangent, kernel)
    lhs = sum(np.sum(np.conj(cot.blocks[l]) * jv.blocks[l]).real
              for l in range(B))
    rhs = sum(np.sum(np.conj(vjp_in.blocks[l]) * tangent.blocks[l]).real
              for l in range(B))
    adjoint_err = abs(lhs - rhs) / max(1.0, abs(lhs))
    report("vjp-adjoint-identity", adjoint_err, 1e-12)

    def loss(coeffs):
        o = conv_spectral(blocks, SparseKernelSpec(m_in, m_out, B, coeffs))
        return sum(np.sum(np.conj(cot.blocks[l]) * o.blocks[l]).real
                   for l in range(B))

    h = 1e-5
    worst_fd = 0.0
    for idx in [(0, 0, 0), (1, 2, n_l - 1)]:
        for direction, grad in ((1.0, vjp_c[idx].real),
                                (1.0j, vjp_c[idx].imag)):
            cp, cm = kernel.coeffs.copy(), kernel.coeffs.copy()
            cp[idx] += h * direction
            cm[idx] -= h * direction
            fd = (loss(cp) - loss(cm)) / (2 * h)
            worst_fd = max(worst_fd,
                           abs(fd - grad) / max(1.0, abs(grad)))
    report("vjp-finite-difference", worst_fd, 1e-8)


def test_10_harness_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["check", "--suite", "all", "--bandwidth", "8", "--seed", "42"]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(args + ["--report", str(p1)])
    code2 = cli_main(args + ["--report", str(p2)])
    dt = time.perf_counter() - t0
    assert code1 == 0 and code2 == 0, "full check suite reported a failure"
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    identical = b1 == b2
    doc = json.loads(b1)
    assert dt < 120.0, f"two full-suite runs took {dt:.1f}s (limit 120s)"
    report("report-determinism", 0.0 if identical else 1.0, 0.5,
           f"({len(doc['checks'])} checks, {dt:.1f}s for two runs)")
