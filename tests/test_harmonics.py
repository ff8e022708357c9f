import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from homharm import harmonics
from homharm.checks import run_suite
from homharm.groups import Rotation3, quadrature_grid
from homharm.harmonics import (_fold, _fold_basis, _rotate, _wigner_D_blocks,
                               _wigner_d_columns, cg_matrix, clebsch_gordan,
                               real_basis_change, real_sph_harm_matrix,
                               sph_harm_matrix, wigner_D_matrix, wigner_D_real,
                               wigner_d_stack)

rng = np.random.default_rng(202)


def wigner_d(l, beta):
    """Real orthogonal d^l(beta) from the recursion, indices m, n in -l..l."""
    return wigner_d_stack(l, [beta])[l][0]


def d_column(lmax, betas, k):
    """Column n = k of d^l(beta), l = 0..lmax: [n_beta, 2l+1] per degree,
    None below |k|; the column view of the recursion."""
    return [None if d is None else d[:, :, 0]
            for d in _wigner_d_columns(lmax, betas, k, k)]


def sph_harm(l, m, alpha, beta):
    """Y^l_m = sqrt(2l+1) exp(i m alpha) d^l_{m0}(beta), with d^l_{m0} from
    the recursion's column n = 0; a complex scalar for scalar angles."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = d_column(l, np.ravel(beta), 0)[l][:, l + m]
    val = np.sqrt(2 * l + 1) * np.exp(1j * m * alpha) * d.reshape(beta.shape)
    return val if val.shape else complex(val)


def d_matrix_oracle(l, beta):
    """Independent small-d via the matrix exponential of i beta J_y."""
    m = np.arange(-l, l + 1)
    Jy = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
    for i, mm in enumerate(m[:-1]):
        c = 0.5 * np.sqrt(l * (l + 1) - mm * (mm + 1))
        Jy[i + 1, i] = c       # raising, in the -l..l index ordering
        Jy[i, i + 1] = -c
    return expm(-beta * Jy).real


class TestWignerD:
    def test_l1_closed_form(self):
        for beta in rng.uniform(0, np.pi, 12):
            c, s = np.cos(beta), np.sin(beta)
            # rows/columns indexed m = -1, 0, 1
            ref = np.array([
                [(1 + c) / 2, s / np.sqrt(2), (1 - c) / 2],
                [-s / np.sqrt(2), c, s / np.sqrt(2)],
                [(1 - c) / 2, -s / np.sqrt(2), (1 + c) / 2],
            ])
            assert np.abs(wigner_d(1, beta) - ref).max() <= 1e-14

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 10, 24, 48, 64])
    def test_against_matrix_exponential(self, l):
        beta = rng.uniform(0.05, np.pi - 0.05)
        assert np.abs(wigner_d(l, beta) - d_matrix_oracle(l, beta)).max() < 5e-13

    def test_orthogonality(self):
        d = wigner_d(7, 1.234)
        assert np.allclose(d @ d.T, np.eye(15), atol=1e-12)

    def test_homomorphism(self):
        """D^l(g1 g2) = D^l(g1) D^l(g2)."""
        for l in (1, 3, 6):
            g1 = Rotation3(0.4, 1.0, -0.3)
            g2 = Rotation3(2.2, 2.5, 1.7)
            lhs = wigner_D_matrix(l, g1.compose(g2))
            rhs = wigner_D_matrix(l, g1) @ wigner_D_matrix(l, g2)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_stabilizer_restriction_is_diagonal(self):
        # restricting D^l to z-rotations gives diag(e^{-i m theta})
        theta = 0.813
        for l in (1, 2, 5):
            D = wigner_D_matrix(l, Rotation3.rz(theta))
            m = np.arange(-l, l + 1)
            expect = np.diag(np.exp(-1j * m * theta))
            assert np.abs(D - expect).max() <= 1e-14

    @pytest.mark.parametrize("lmax", [0, 1, 7, 15, 16, 31])
    def test_batched_blocks_equal_single_rotations_bit_for_bit(self, lmax):
        """One recursion over the betas of many rotations gives each D^l
        exactly as a call for that rotation alone: at the poles, at pi/2
        and on both sides of the reflection there."""
        betas = [0.0, 0.3, 1.2, np.pi / 2, 1.6, 2.5, 3.1, np.pi]
        rots = [Rotation3(rng.uniform(0, 2 * np.pi), b, rng.uniform(-np.pi, np.pi))
                for b in betas]
        batched = _wigner_D_blocks(lmax, rots)
        assert [D.shape for D in batched] == [(len(rots), 2 * l + 1, 2 * l + 1)
                                              for l in range(lmax + 1)]
        for r, g in enumerate(rots):
            for D, single in zip(batched, _wigner_D_blocks(lmax, [g])):
                assert np.array_equal(D[r], single[0])
            assert np.array_equal(batched[lmax][r], wigner_D_matrix(lmax, g))

    def test_group_orthogonality_relations(self):
        """Integral of D^l_{mn} conj(D^l'_{m'n'}) over normalized Haar is
        delta(l,l') delta(m,m') delta(n,n') / (2l+1).
        """
        B = 5
        grid = quadrature_grid("SO3", B)
        stacks = {}
        for l in (1, 3):
            al, be, ga = grid.nodes[:, 0], grid.nodes[:, 1], grid.nodes[:, 2]
            d = wigner_d_stack(l, be)[l]
            m = np.arange(-l, l + 1)
            stacks[l] = (np.exp(-1j * np.outer(al, m))[:, :, None] * d
                         * np.exp(-1j * np.outer(ga, m))[:, None, :])
        for (l1, l2) in [(1, 1), (3, 3), (1, 3)]:
            ip = np.einsum("kmn,kuv,k->mnuv", stacks[l1],
                           np.conj(stacks[l2]), grid.weights)
            if l1 != l2:
                assert np.abs(ip).max() < 1e-13
            else:
                eye = np.eye(2 * l1 + 1)
                expect = np.einsum("mu,nv->mnuv", eye, eye) / (2 * l1 + 1)
                assert np.abs(ip - expect).max() < 1e-13


class TestDeltaTables:
    """Every rotation runs one chain through the cached Delta^l = d^l(pi/2)
    and every harmonic reads the zonal fold Z^l beside it, at any degree;
    these tests hold them to references that do not."""

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 10, 15, 20, 31])
    def test_against_matrix_exponential(self, l):
        m = np.arange(-l, l + 1)
        for beta in [0.0, 1e-9, np.pi / 2, np.pi - 1e-9, np.pi]:
            a, c = rng.uniform(0, 2 * np.pi, 2)
            ref = (np.exp(-1j * m * a)[:, None] * d_matrix_oracle(l, beta)
                   * np.exp(-1j * m * c)[None, :])
            got = wigner_D_matrix(l, Rotation3(a, beta, c))
            assert np.abs(got - ref).max() < 5e-13, beta

    def test_rotate_is_unitary(self):
        rots = [Rotation3(*rng.uniform(0, np.pi, 3)) for _ in range(6)]
        for l in (15, 16, 127):
            eye = [None] * l + [np.eye(2 * l + 1)[None]]
            cols = _rotate(rots, eye)[l][:, 0]            # conj(D^l(g_r))
            gram = cols @ np.conj(cols).transpose(0, 2, 1)
            assert np.abs(gram - np.eye(2 * l + 1)).max() < 1e-13, l

    def test_rotate_holds_no_wigner_blocks(self):
        """32 rotations at degree 127 hold the rotated coefficients (8 MiB)
        and a few degree-sized temporaries, not the D^l blocks (2 GiB)."""
        lmax, rots = 127, [Rotation3(*rng.uniform(0, np.pi, 3)) for _ in range(32)]
        coeffs = [rng.standard_normal((1, 2 * l + 1, 1)) + 0j for l in range(lmax + 1)]
        _rotate(rots[:1], coeffs)                         # fills the cache
        tracemalloc.start()
        try:
            _rotate(rots, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_harmonics_against_the_recursion(self):
        """Y^l and U Y^l against sph_harm, which runs the recursion."""
        lmax = 17
        alphas = rng.uniform(0, 2 * np.pi, 7)
        betas = np.concatenate([[0.0, np.pi], rng.uniform(0, np.pi, 5)])
        S = real_sph_harm_matrix(lmax, alphas, betas)
        Y = sph_harm_matrix(lmax, alphas, betas)
        for l in range(lmax + 1):
            ref = np.stack([sph_harm(l, m, alphas, betas)
                            for m in range(-l, l + 1)], axis=1)
            assert np.abs(Y[:, l * l:(l + 1) ** 2] - ref).max() < 1e-13
            ref = (ref @ real_basis_change(l).T).real
            assert np.abs(S[:, l * l:(l + 1) ** 2] - ref).max() < 1e-13

    def test_zonal_fold_is_the_fold_of_column_zero(self):
        stack = wigner_d_stack(20, [np.pi / 2])
        for l, (D, Z) in enumerate(harmonics._delta(20)):
            assert np.array_equal(_fold(stack[l][0], 0), Z)
            assert np.array_equal(_fold(D, 0), Z)

    def test_fold_matches_the_stack(self):
        """[cos q beta, sin q beta] @ _fold(Delta^l, n) against the
        recursion's column n, both poles and pi/2 included."""
        lmax = 20
        betas = np.concatenate([[0.0, 1e-9, np.pi / 2, np.pi - 1e-9, np.pi],
                                rng.uniform(0, np.pi, 6)])
        stack, basis = wigner_d_stack(lmax, betas), _fold_basis(betas, lmax)
        for l, (D, _) in enumerate(harmonics._delta(lmax)):
            for n in range(-l, l + 1):
                got = basis[:, :2 * l + 2] @ _fold(D, n)
                assert np.abs(got - stack[l][:, :, l + n]).max() <= 1e-14, (l, n)

    def test_cache_holds_delta_and_zonal_fold_per_degree(self, monkeypatch):
        """The B = 16 suite reads degrees 0..15: (2l+1)^2 floats of Delta^l
        and (2l+2)(2l+1) of Z^l each, 0.09 MiB in all."""
        monkeypatch.setattr(harmonics, "_deltas", [])
        assert run_suite("all", {"bandwidth": 16, "seed": 1}).passed
        info = harmonics._delta_cache_info()
        assert info["degrees"] == list(range(16))
        assert info["bytes"] == 8 * sum((2 * l + 1) ** 2 + (2 * l + 2) * (2 * l + 1)
                                        for l in range(16)) == 89344


class TestWignerDColumn:
    @pytest.mark.parametrize("l", [0, 1, 2, 5, 24, 48, 64])
    def test_against_matrix_exponential(self, l):
        betas = rng.uniform(0.05, np.pi - 0.05, 2)
        for k in sorted({-l, -1, 0, 1, l}):
            if abs(k) > l:
                continue
            col = d_column(l, betas, k)[l]
            for j, beta in enumerate(betas):
                ref = d_matrix_oracle(l, beta)[:, l + k]
                assert np.abs(col[j] - ref).max() < 5e-13

    def test_matches_the_stack(self):
        # both poles, points near them and both sides of pi/2, where the
        # reflection starts; at lmax = 31 the betas of the B = 32 grid
        edges = np.array([0.0, 0.004, np.pi / 2, 1.7, np.pi - 0.01, np.pi])
        for lmax, betas in ((7, edges), (31, quadrature_grid("S2", 32).betas),
                            (64, edges)):
            stack = wigner_d_stack(lmax, betas)
            for k in range(-lmax, lmax + 1):
                cols = d_column(lmax, betas, k)
                assert all(c is None for c in cols[:abs(k)])
                for l in range(abs(k), lmax + 1):
                    assert np.array_equal(cols[l], stack[l][:, :, l + k]), (lmax, k, l)

    def test_prefix(self):
        betas = rng.uniform(0, np.pi, 5)
        for k in (-3, 0, 2):
            short = d_column(10, betas, k)
            long = d_column(20, betas, k)
            assert len(short) == 11
            for a, b in zip(short, long[:11]):
                assert (a is None and b is None) or np.array_equal(a, b)

    def test_unit_norm_at_degree_200(self):
        # both poles, points near them and interior points: the recursion
        # runs on the difference d^l - d^{l-1}, so no region loses accuracy
        betas = np.array([0.0, 0.004, 0.05, 0.9, 1.7, 2.6, np.pi - 0.01, np.pi])
        for k in (-200, -57, -1, 0, 3, 150, 200):
            cols = d_column(200, betas, k)
            for l in range(abs(k), 201):
                norms = np.sum(cols[l] ** 2, axis=1)
                assert np.abs(norms - 1.0).max() <= 1e-13, (k, l)


class TestSphericalHarmonics:
    def test_orthonormal_under_normalized_measure(self):
        B = 6
        grid = quadrature_grid("S2", B)
        Y = sph_harm_matrix(B - 1, grid.nodes[:, 0], grid.nodes[:, 1])
        gram = np.einsum("nd,ne,n->de", np.conj(Y), Y, grid.weights)
        assert np.abs(gram - np.eye(B * B)).max() < 1e-12

    def test_addition_theorem(self):
        # sum_m |Y^l_m|^2 = 2l+1 with this normalization
        for l in (0, 2, 4):
            vals = [sph_harm(l, m, 0.7, 1.1) for m in range(-l, l + 1)]
            total = sum(abs(v) ** 2 for v in vals)
            assert total == pytest.approx(2 * l + 1, abs=1e-12)

    def test_zonal_value_at_pole(self):
        assert sph_harm(3, 0, 0.0, 0.0) == pytest.approx(np.sqrt(7))
        assert abs(sph_harm(3, 2, 0.123, 0.0)) < 1e-14

    def test_real_harmonics_are_real_and_orthonormal(self):
        B = 5
        grid = quadrature_grid("S2", B)
        S = real_sph_harm_matrix(B - 1, grid.nodes[:, 0], grid.nodes[:, 1])
        assert S.dtype == float
        gram = np.einsum("nd,ne,n->de", S, S, grid.weights)
        assert np.abs(gram - np.eye(B * B)).max() < 1e-12


class TestClebschGordan:
    def test_selection_rules_give_exact_zero(self):
        assert clebsch_gordan(1, 0, 1, 0, 2, 1) == 0.0
        assert clebsch_gordan(1, 1, 1, 1, 3, 2) == 0.0

    def test_trivial_rep_dual_pair(self):
        """Coupling to the trivial representation forces l1 = l2, m2 = -m1,
        with value (-1)^(l1-m1)/sqrt(2 l1 + 1).
        """
        for l1 in range(5):
            for l2 in range(5):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        if m1 + m2 != 0:
                            # |m| > 0 is out of range for l = 0 and rejected
                            with pytest.raises(ValueError):
                                clebsch_gordan(l1, m1, l2, m2, 0, m1 + m2)
                            continue
                        v = clebsch_gordan(l1, m1, l2, m2, 0, 0)
                        if l1 == l2 and m2 == -m1:
                            expect = (-1) ** (l1 - m1) / math.sqrt(2 * l1 + 1)
                            assert abs(v - expect) <= 1e-14
                        else:
                            assert v == 0.0

    def test_golden_values(self):
        # 1/2-integer-free table entries worked out by hand
        assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(
            1 / math.sqrt(3), abs=1e-15)
        assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(
            math.sqrt(2 / 3), abs=1e-15)
        assert clebsch_gordan(1, 1, 1, 0, 2, 1) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15)
        assert clebsch_gordan(2, 0, 2, 0, 0, 0) == pytest.approx(
            1 / math.sqrt(5), abs=1e-15)

    def test_orthogonality_rows(self):
        # sum over (m1, m2) of C(l m) C(l' m') = delta
        l1, l2 = 2, 3
        for l in range(1, 6):
            for lp in range(1, 6):
                for m in range(-min(l, lp, 2), min(l, lp, 2) + 1):
                    total = sum(
                        clebsch_gordan(l1, m1, l2, m - m1, l, m)
                        * clebsch_gordan(l1, m1, l2, m - m1, lp, m)
                        for m1 in range(-l1, l1 + 1)
                        if abs(m - m1) <= l2)
                    expect = 1.0 if (l == lp and abs(m) <= min(l, lp)) else 0.0
                    assert total == pytest.approx(expect, abs=1e-12)

    def test_table_and_matrix(self):
        C = cg_matrix(1, 1, 2)
        assert C.shape == (5, 3, 3)
        assert C[4, 2, 2] == pytest.approx(clebsch_gordan(1, 1, 1, 1, 2, 2))


class TestRealBasis:
    @pytest.mark.parametrize("l", [0, 1, 2, 4])
    def test_change_of_basis_is_unitary(self, l):
        U = real_basis_change(l)
        assert np.allclose(U @ U.conj().T, np.eye(2 * l + 1), atol=1e-14)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_real_wigner_blocks_are_orthogonal(self, l):
        g = Rotation3(1.3, 0.8, -2.1)
        U = real_basis_change(l)
        M = U @ wigner_D_matrix(l, g) @ U.conj().T
        assert np.abs(M.imag).max() < 1e-12
        R = wigner_D_real(l, g)
        assert np.allclose(R @ R.T, np.eye(2 * l + 1), atol=1e-12)

    def test_real_blocks_form_a_representation(self):
        g1 = Rotation3(0.2, 1.5, 0.9)
        g2 = Rotation3(2.8, 0.4, -1.2)
        for l in (1, 2):
            lhs = wigner_D_real(l, g1.compose(g2))
            rhs = wigner_D_real(l, g1) @ wigner_D_real(l, g2)
            assert np.abs(lhs - rhs).max() < 1e-12
