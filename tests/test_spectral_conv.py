import tracemalloc

import numpy as np
import pytest

from homharm import harmonics, spectral_conv
from homharm.fields import (FieldType, GroupFunction, field_from_spin_coeffs,
                            induced_action, lift, lift_spectrum, spin_coeffs)
from homharm.groups import Rotation3, _zyz_angles, quadrature_grid
from homharm.spectral_conv import (SparseKernelSpec, conv_field,
                                   conv_spatial_oracle, conv_spectral,
                                   conv_vjp, kernel_degrees,
                                   kernel_to_spatial,
                                   spectral_identity_kernel)
from homharm.harmonics import _wigner_d_columns
from homharm.nonlin import delta_projection_kernel, project_kernel
from homharm.transforms import SpectralBlocks, so3_ft_forward, so3_ft_inverse

rng = np.random.default_rng(505)


def random_field(B, order, channels=1):
    grid = quadrature_grid("S2", B)
    coeffs = [None] * B
    for l in range(abs(order), B):
        coeffs[l] = (rng.standard_normal((channels, 2 * l + 1))
                     + 1j * rng.standard_normal((channels, 2 * l + 1)))
    return field_from_spin_coeffs(coeffs, order, grid)


def random_kernel(m_in, m_out, B, c_out=1, c_in=1):
    n_l = len(kernel_degrees(m_in, m_out, B))
    c = (rng.standard_normal((c_out, c_in, n_l))
         + 1j * rng.standard_normal((c_out, c_in, n_l)))
    return SparseKernelSpec(m_in, m_out, B, c)


def leak(blocks, n, amp):
    """Raise one entry outside column n of column-sparse blocks, in place,
    so that their off-column amplitude becomes amp."""
    l = blocks.bandwidth - 1
    on = blocks.norm_squared()
    blocks.blocks[l][0, 0, (n + l + 1) % (2 * l + 1)] = amp * np.sqrt(
        on / ((1 - amp ** 2) * (2 * l + 1)))
    return blocks


class TestOffColumnBound:
    """conv_spectral and project_kernel share one column-sparsity bound,
    1e-8 on the off-column amplitude: 5e-9 passes, 2e-8 fails."""

    @pytest.mark.parametrize("amp,ok", [(5e-9, True), (2e-8, False)])
    def test_conv_spectral(self, amp, ok):
        B, m_in = 4, 1
        blocks = leak(lift_spectrum(random_field(B, m_in)), m_in, amp)
        assert blocks.off_column(m_in) == pytest.approx(amp, rel=1e-6)
        kernel = random_kernel(m_in, 0, B)
        if ok:
            conv_spectral(blocks, kernel)
        else:
            with pytest.raises(ValueError, match="off-column amplitude"):
                conv_spectral(blocks, kernel)

    @pytest.mark.parametrize("amp,ok", [(5e-9, True), (2e-8, False)])
    def test_project_kernel(self, amp, ok):
        B, m = 4, 1
        delta = delta_projection_kernel(m, B)
        k_hat = leak(so3_ft_forward(delta.flat(), delta.grid), m, amp)
        kernel = GroupFunction(delta.grid, so3_ft_inverse(k_hat, delta.grid))
        assert so3_ft_forward(kernel.flat(), kernel.grid).off_column(
            m) == pytest.approx(amp, rel=1e-6)
        gf = lift(random_field(B, m))
        if ok:
            project_kernel(gf, kernel, m)
        else:
            with pytest.raises(ValueError, match="off-column amplitude"):
                project_kernel(gf, kernel, m)

class TestKernelSpec:
    def test_degree_range(self):
        assert list(kernel_degrees(-2, 1, 5)) == [2, 3, 4]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SparseKernelSpec(0, 0, 4, np.ones(3))   # needs 4 degrees
        with pytest.raises(ValueError):
            SparseKernelSpec(3, 0, 3, np.ones(0))   # no degrees at all
        k = SparseKernelSpec(0, 1, 4, np.ones(3))
        assert k.coeffs.shape == (1, 1, 3)
        assert k.coeff(2) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            k.coeff(0)


class TestConvSpectral:
    def test_identity_kernel_is_found_numerically(self):
        """Solve for the per-degree scalars that reproduce the input, and
        confirm they match the closed-form identity kernel 2l+1."""
        B = 6
        field = random_field(B, 1)
        blocks = lift_spectrum(field)
        solved = []
        for l in range(1, B):
            col = blocks.blocks[l][0, :, 1 + l]
            # out = (c/(2l+1)) col must equal the input column; least-squares
            # solve for c against the target
            target = col
            c = (2 * l + 1) * np.vdot(col, target) / np.vdot(col, col)
            solved.append(c)
        ident = spectral_identity_kernel(1, B)
        assert np.abs(np.array(solved) - ident.coeffs[0, 0]).max() < 1e-12

        out = conv_spectral(blocks, ident)
        for l in range(1, B):
            assert np.abs(out.blocks[l] - blocks.blocks[l]).max() < 1e-12

    def test_matches_conv_field(self):
        B = 5
        field = random_field(B, -1, channels=2)
        kernel = random_kernel(-1, 2, B, c_out=3, c_in=2)
        a = lift_spectrum(conv_field(field, kernel))
        b = conv_spectral(lift_spectrum(field), kernel)
        for l in range(B):
            assert np.abs(a.blocks[l] - b.blocks[l]).max() < 1e-12

    def test_rejects_non_sparse_input(self):
        B = 4
        blocks = SpectralBlocks(B, [
            rng.standard_normal((1, 2 * l + 1, 2 * l + 1)) + 0j
            for l in range(B)])
        with pytest.raises(ValueError):
            conv_spectral(blocks, random_kernel(0, 0, B))

    def test_rejects_mismatches(self):
        field = random_field(4, 0)
        with pytest.raises(ValueError):
            conv_field(field, random_kernel(0, 0, 5))
        with pytest.raises(ValueError):
            conv_field(field, random_kernel(1, 0, 4))
        with pytest.raises(ValueError):
            conv_field(field, random_kernel(0, 0, 4, c_in=2))

    def test_zero_kernel(self):
        B = 4
        field = random_field(B, 0)
        k = SparseKernelSpec(0, 1, B, np.zeros(3))
        out = conv_field(field, k)
        assert np.abs(out.samples).max() == 0.0
        assert out.field_type.order == 1


class TestSpatialViews:
    def test_zonal_kernel_matches_legendre(self):
        # m_in = m_out = 0: kappa(g) = sum_l c^l d^l_{00}(beta) = sum c^l P_l(cos beta)
        B = 4
        c = rng.standard_normal(B)
        kernel = SparseKernelSpec(0, 0, B, c.astype(complex))
        grid = quadrature_grid("SO3", B)
        vals = kernel_to_spatial(kernel)
        x = np.cos(grid.nodes[:, 1])
        P = [np.ones_like(x), x, (3 * x ** 2 - 1) / 2,
             (5 * x ** 3 - 3 * x) / 2]
        expect = sum(c[l] * P[l] for l in range(B))
        assert np.abs(vals[0] - expect).max() < 1e-13

    def test_ft_recovers_scaled_coefficients(self):
        B = 5
        kernel = random_kernel(1, -2, B)
        vals = kernel_to_spatial(kernel)
        blocks = so3_ft_forward(vals, quadrature_grid("SO3", B))
        for l in range(B):
            expect = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
            if l >= 2:
                expect[1 + l, -2 + l] = kernel.coeffs[0, 0, l - 2] / (2 * l + 1)
            assert np.abs(blocks.blocks[l][0] - expect).max() < 1e-12

    def test_spectral_matches_spatial_oracle(self):
        B = 4
        for (m_in, m_out) in [(0, 0), (1, 0), (0, 1), (1, -1), (-2, 2)]:
            field = random_field(B, m_in)
            kernel = random_kernel(m_in, m_out, B)
            fast = conv_field(field, kernel)
            slow = conv_spatial_oracle(field, kernel)
            scale = max(1.0, np.abs(slow.samples).max())
            err = np.abs(fast.samples - slow.samples).max() / scale
            assert err < 1e-6, (m_in, m_out, err)


def per_node_relative_euler(alpha_out, beta_out, alphas_in, betas_in):
    """Euler angles of R(a', b', 0)^{-1} R(a, b, 0) for one output node
    against every input node."""
    ca, sa = np.cos(alpha_out), np.sin(alpha_out)
    cb, sb = np.cos(beta_out), np.sin(beta_out)
    R = np.array([[ca * cb, -sa, ca * sb],
                  [sa * cb, ca, sa * sb],
                  [-sb, 0.0, cb]])
    cap, sap = np.cos(alphas_in), np.sin(alphas_in)
    cbp, sbp = np.cos(betas_in), np.sin(betas_in)
    Rp = np.empty((len(alphas_in), 3, 3))
    Rp[:, 0, 0] = cap * cbp
    Rp[:, 0, 1] = sap * cbp
    Rp[:, 0, 2] = -sbp
    Rp[:, 1, 0] = -sap
    Rp[:, 1, 1] = cap
    Rp[:, 1, 2] = 0.0
    Rp[:, 2, 0] = cap * sbp
    Rp[:, 2, 1] = sap * sbp
    Rp[:, 2, 2] = cbp
    Q = Rp @ R
    sin_b = np.hypot(Q[:, 0, 2], Q[:, 1, 2])
    beta = np.arctan2(sin_b, Q[:, 2, 2])
    alpha = np.where(sin_b > 1e-12, np.arctan2(Q[:, 1, 2], Q[:, 0, 2]), 0.0)
    gamma = np.where(sin_b > 1e-12, np.arctan2(Q[:, 2, 1], -Q[:, 2, 0]), 0.0)
    gimbal = sin_b <= 1e-12
    if np.any(gimbal):
        flip = Q[:, 2, 2] < 0
        sum_ang = np.arctan2(Q[:, 1, 0], Q[:, 0, 0])
        diff_ang = np.arctan2(-Q[:, 0, 1], Q[:, 1, 1])
        alpha = np.where(gimbal, np.where(flip, diff_ang, 0.0), alpha)
        gamma = np.where(gimbal, np.where(flip, 0.0, sum_ang), gamma)
        beta = np.where(gimbal, np.where(flip, np.pi, 0.0), beta)
    return alpha, beta, gamma


def per_node_oracle(field, kernel):
    """The direct-space convolution one output node at a time."""
    grid = field.grid
    alphas, betas = grid.nodes[:, 0], grid.nodes[:, 1]
    fin = field.flat()
    out = np.zeros((kernel.c_out, grid.n_nodes), dtype=complex)
    for node in range(grid.n_nodes):
        a_q, b_q, g_q = per_node_relative_euler(alphas[node], betas[node],
                                                alphas, betas)
        d_cols = list(_wigner_d_columns(kernel.bandwidth - 1, b_q,
                                        kernel.m_out, kernel.m_out))
        kap = np.zeros((kernel.c_out, kernel.c_in, grid.n_nodes), dtype=complex)
        phase_a = np.exp(-1j * kernel.m_in * a_q)
        for l in kernel.degrees:
            d = d_cols[l][:, kernel.m_in + l, 0]
            kap += kernel.coeff(l)[:, :, None] * (phase_a * d)[None, None, :]
        integrand = kap * np.exp(-1j * kernel.m_out * g_q)[None, None, :]
        out[:, node] = np.einsum("oip,ip,p->o", integrand, fin, grid.weights)
    return out


class TestOnePassOracle:
    @pytest.mark.parametrize("B", [2, 3, 4, 5])
    def test_matches_the_per_node_loop(self, B):
        """The folded Delta^l profile against the recursion, node by node;
        the two share no arithmetic."""
        for (m_in, m_out) in [(0, 0), (1, -1), (min(2, B - 1), 1)]:
            field = random_field(B, m_in, channels=2)
            kernel = random_kernel(m_in, m_out, B, c_out=3, c_in=2)
            got = conv_spatial_oracle(field, kernel).flat()
            want = per_node_oracle(field, kernel)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_blocks_of_output_nodes_keep_the_bits(self, monkeypatch):
        """A bound of 1000 basis values splits B = 3 (36 nodes, 6 values per
        pair) into 9 blocks of 4 output nodes."""
        field = random_field(3, 1, channels=2)
        kernel = random_kernel(1, -1, 3, c_out=3, c_in=2)
        whole = conv_spatial_oracle(field, kernel).flat()
        calls = []
        monkeypatch.setattr(spectral_conv, "_zyz_angles",
                            lambda M: calls.append(M.shape) or _zyz_angles(M))
        monkeypatch.setattr(spectral_conv, "_ORACLE_FLOATS", 1000)
        got = conv_spatial_oracle(field, kernel).flat()
        assert calls == [(4, 36, 3, 3)] * 9
        assert np.array_equal(got, whole)

    def test_runs_no_wigner_recursion_once_delta_is_cached(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the oracle ran the Wigner recursion")

        field = random_field(4, 1, channels=2)
        kernel = random_kernel(1, 2, 4, c_out=2, c_in=2)
        harmonics._delta(3)
        want = conv_spatial_oracle(field, kernel).flat()
        monkeypatch.setattr(harmonics, "_wigner_d_columns", fail)
        monkeypatch.setattr(harmonics, "wigner_d_stack", fail)
        assert np.array_equal(conv_spatial_oracle(field, kernel).flat(), want)

    def test_memory_at_bandwidth_8(self):
        """The d values of every node pair (B^2 of them) are never held: one
        call at B = 8 peaked at 82.7 MiB traced with them, 21.5 MiB without."""
        field = random_field(8, 1, channels=2)
        kernel = random_kernel(1, -1, 8, c_out=2, c_in=2)
        conv_spatial_oracle(field, kernel)
        tracemalloc.start()
        try:
            conv_spatial_oracle(field, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20, peak / 2 ** 20


class TestEquivariance:
    def test_conv_commutes_with_rotations(self):
        B = 6
        field = random_field(B, 1, channels=2)
        kernel = random_kernel(1, -1, B, c_out=2, c_in=2)
        for _ in range(5):
            g = Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                          rng.uniform(0, 2 * np.pi))
            a = conv_field(induced_action(g, field), kernel).samples
            b = induced_action(g, conv_field(field, kernel)).samples
            scale = max(1.0, np.abs(b).max())
            assert np.abs(a - b).max() / scale < 1e-8

    def test_dense_kernel_with_off_column_zeroed(self):
        """A dense spectral multiplier whose off-column entries are zeroed
        acts identically to the sparse path."""
        B = 5
        m_in, m_out = 1, 0
        field = random_field(B, m_in)
        kernel = random_kernel(m_in, m_out, B)
        blocks = lift_spectrum(field)
        # dense route: full matrix product in_hat^l @ K^l with K^l dense
        # except that sparsifying keeps only entry (m_in, m_out)
        out_dense = SpectralBlocks.zeros(B, 1)
        for l in range(B):
            K = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
            if l >= max(abs(m_in), abs(m_out)):
                K[m_in + l, m_out + l] = kernel.coeff(l)[0, 0] / (2 * l + 1)
            out_dense.blocks[l][0] = blocks.blocks[l][0] @ K
        out_sparse = conv_spectral(blocks, kernel)
        for l in range(B):
            assert np.abs(out_dense.blocks[l] - out_sparse.blocks[l]).max() <= 1e-12

    def test_basis_independence(self):
        # the per-degree scalars solved from input/output columns are
        # independent of the random field used to probe them
        B = 5
        kernel = random_kernel(2, 0, B)
        recovered = []
        for _ in range(3):
            field = random_field(B, 2)
            a_in = spin_coeffs(field)
            a_out = spin_coeffs(conv_field(field, kernel))
            recovered.append([
                (2 * l + 1) * np.vdot(a_in[l][0], a_out[l][0])
                / np.vdot(a_in[l][0], a_in[l][0])
                for l in range(2, B)])
        recovered = np.array(recovered)
        assert np.abs(recovered - kernel.coeffs[0, 0]).max() < 1e-10


class TestVjp:
    def test_adjoint_identity(self):
        """Re<u, J v> = Re<J^T u, v> for both input and coefficient tangents."""
        B = 5
        kernel = random_kernel(1, -1, B, c_out=2, c_in=3)
        field = random_field(B, 1, channels=3)
        blocks = lift_spectrum(field)
        out = conv_spectral(blocks, kernel)
        cot = SpectralBlocks(B, [
            rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
            for b in out.blocks])
        vjp_in, vjp_c = conv_vjp(blocks, kernel, cot)

        tangent = lift_spectrum(random_field(B, 1, channels=3))
        jv = conv_spectral(tangent, kernel)
        lhs = sum(np.sum(np.conj(cot.blocks[l]) * jv.blocks[l]).real
                  for l in range(B))
        rhs = sum(np.sum(np.conj(vjp_in.blocks[l]) * tangent.blocks[l]).real
                  for l in range(B))
        assert lhs == pytest.approx(rhs, rel=1e-12)

        dc = (rng.standard_normal(kernel.coeffs.shape)
              + 1j * rng.standard_normal(kernel.coeffs.shape))
        k2 = SparseKernelSpec(1, -1, B, dc)
        jv_c = conv_spectral(blocks, k2)
        lhs_c = sum(np.sum(np.conj(cot.blocks[l]) * jv_c.blocks[l]).real
                    for l in range(B))
        rhs_c = np.sum(np.conj(vjp_c) * dc).real
        assert lhs_c == pytest.approx(rhs_c, rel=1e-12)

    def test_finite_difference(self):
        B = 4
        kernel = random_kernel(0, 1, B)
        blocks = lift_spectrum(random_field(B, 0))
        cot = SpectralBlocks(B, [
            rng.standard_normal((1, 2 * l + 1, 2 * l + 1))
            + 1j * rng.standard_normal((1, 2 * l + 1, 2 * l + 1))
            for l in range(B)])
        _, vjp_c = conv_vjp(blocks, kernel, cot)

        def loss(coeffs):
            out = conv_spectral(blocks, SparseKernelSpec(0, 1, B, coeffs))
            return sum(np.sum(np.conj(cot.blocks[l]) * out.blocks[l]).real
                       for l in range(B))

        h = 1e-6
        for i in range(kernel.coeffs.shape[2]):
            for direction, grad in ((1.0, vjp_c[0, 0, i].real),
                                    (1.0j, vjp_c[0, 0, i].imag)):
                c_plus = kernel.coeffs.copy()
                c_plus[0, 0, i] += h * direction
                c_minus = kernel.coeffs.copy()
                c_minus[0, 0, i] -= h * direction
                fd = (loss(c_plus) - loss(c_minus)) / (2 * h)
                assert fd == pytest.approx(grad, abs=1e-7)
