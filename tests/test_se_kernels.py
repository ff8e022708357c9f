import numpy as np
import pytest

from homharm import harmonics, se_kernels
from homharm.groups import Rotation3
from homharm.harmonics import (cg_matrix, real_basis_change, sph_harm_matrix,
                               wigner_D_real)
from homharm.nonlin import ActivationSpec
from homharm.se_kernels import (PointCloud, SE2KernelBasis, SE3KernelBasis,
                                se2_kernel_eval, se3_kernel_eval,
                                se3_kernel_eval_many, se3_layer,
                                tfn_point_conv)

rng = np.random.default_rng(707)

RADII = np.linspace(0.0, 3.0, 16)


def random_profile():
    return rng.standard_normal(RADII.shape)


def random_rotation():
    return Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                     rng.uniform(0, 2 * np.pi))


class TestSE2:
    def test_equal_orders_give_real_isotropic_kernel(self):
        basis = SE2KernelBasis(2, 2, RADII, random_profile())
        for _ in range(5):
            x = rng.uniform(-2, 2, 2)
            v = se2_kernel_eval(basis, x)
            assert v.imag == pytest.approx(0.0, abs=1e-15)
            assert v.real == pytest.approx(
                np.interp(np.hypot(*x), RADII, basis.values))

    def test_unit_order_gap_phase(self):
        basis = SE2KernelBasis(0, 1, RADII, np.ones_like(RADII))
        # along +y the angular phase is e^{i pi/2} = i
        assert se2_kernel_eval(basis, [0.0, 1.5]) == pytest.approx(1j)

    def test_steerability(self):
        """K(R_theta x) = e^{-i m_out theta} K(x) e^{i m_in theta}."""
        for m_in in range(-4, 5):
            for m_out in range(-4, 5):
                basis = SE2KernelBasis(m_in, m_out, RADII, random_profile())
                x = rng.uniform(-2, 2, 2)
                theta = rng.uniform(0, 2 * np.pi)
                c, s = np.cos(theta), np.sin(theta)
                xr = np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])
                lhs = se2_kernel_eval(basis, xr)
                rhs = (np.exp(1j * m_out * theta) * se2_kernel_eval(basis, x)
                       * np.exp(-1j * m_in * theta))
                assert abs(lhs - rhs) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SE2KernelBasis(0, 0, RADII[::-1], random_profile())
        with pytest.raises(ValueError):
            SE2KernelBasis(0, 0, RADII, np.ones(3))


class TestSE3Basis:
    def test_intertwiner_count(self):
        # degrees t run over |l1 - l2| .. l1 + l2, one term each
        for l1, l2 in [(0, 0), (1, 1), (1, 2), (2, 3)]:
            ts = [t for t in range(0, l1 + l2 + 1)
                  if abs(l1 - l2) <= t]
            assert len(ts) == min(l1, l2) * 2 + 1
            for t in ts:
                SE3KernelBasis(l1, l2, t, RADII, random_profile())

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            SE3KernelBasis(1, 2, 0, RADII, random_profile())
        with pytest.raises(ValueError):
            SE3KernelBasis(1, 1, 3, RADII, random_profile())

    def test_scalar_to_scalar_is_isotropic(self):
        basis = SE3KernelBasis(0, 0, 0, RADII, random_profile())
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 3)
            K = se3_kernel_eval(basis, x)
            assert K.shape == (1, 1)
            assert K[0, 0] == pytest.approx(
                np.interp(np.linalg.norm(x), RADII, basis.values), abs=1e-12)

    def test_kernels_are_real(self):
        for (li, lo, t) in [(1, 1, 1), (1, 2, 2), (2, 2, 3), (0, 3, 3)]:
            basis = SE3KernelBasis(li, lo, t, RADII, random_profile())
            K = se3_kernel_eval_many(basis, rng.uniform(-2, 2, (6, 3)))
            assert K.dtype == float and np.all(np.isfinite(K))

    def test_steerability(self):
        """K(R x) = D_real^{l_out}(R) K(x) D_real^{l_in}(R)^T."""
        cases = [(li, lo, t)
                 for li in range(4) for lo in range(4)
                 for t in range(abs(li - lo), li + lo + 1)]
        for li, lo, t in cases:
            basis = SE3KernelBasis(li, lo, t, RADII, random_profile())
            x = rng.uniform(-1.5, 1.5, 3)
            g = random_rotation()
            lhs = se3_kernel_eval(basis, g.matrix() @ x)
            rhs = (wigner_D_real(lo, g) @ se3_kernel_eval(basis, x)
                   @ wigner_D_real(li, g).T)
            assert np.abs(lhs - rhs).max() <= 1e-10, (li, lo, t)

    def test_terms_are_orthogonal_across_t(self):
        """Angular matrices of different t are orthogonal under the
        rotation-invariant inner product tr(A B^T) averaged over directions."""
        li, lo = 2, 2
        n = 4096
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        flat = np.ones_like(RADII)
        mats = {}
        for t in range(0, 5):
            basis = SE3KernelBasis(li, lo, t, RADII, flat)
            mats[t] = se3_kernel_eval_many(basis, u)
        for t1 in range(0, 5):
            for t2 in range(t1 + 1, 5):
                ip = np.mean(np.einsum("nij,nij->n", mats[t1], mats[t2]))
                # Monte-Carlo average: exact orthogonality is spectral, the
                # sampling error is O(1/sqrt(n)); the angular matrices also
                # satisfy it exactly on a quadrature grid (covered by the
                # check suite), here we only need a clear separation
                norm = np.sqrt(np.mean(np.einsum("nij,nij->n", mats[t1], mats[t1]))
                               * np.mean(np.einsum("nij,nij->n", mats[t2], mats[t2])))
                assert abs(ip) / norm < 0.1

    def test_origin_handling(self):
        prof = np.linspace(1.0, 0.0, len(RADII))
        iso = SE3KernelBasis(1, 1, 0, RADII, prof)
        K0 = se3_kernel_eval(iso, np.zeros(3))
        assert np.allclose(K0, prof[0] * np.eye(3))
        aniso = SE3KernelBasis(1, 1, 2, RADII, prof)
        assert np.abs(se3_kernel_eval(aniso, np.zeros(3))).max() == 0.0


def complex_assembly(basis, X):
    """The kernel assembled in the complex basis, away from the origin:
    A_ij = sum_mu <l_out i | t mu, l_in j> conj(Y^t_mu), moved to the real
    bases as U_out A U_in^H, times i when t + l_in + l_out is odd."""
    t, li, lo = basis.t, basis.l_in, basis.l_out
    r = np.linalg.norm(X, axis=1)
    Yt = sph_harm_matrix(t, np.arctan2(X[:, 1], X[:, 0]),
                         np.arccos(X[:, 2] / r))[:, t * t:]
    A = np.einsum("imj,nm->nij", cg_matrix(t, li, lo), np.conj(Yt))
    M = np.einsum("ab,nbc,dc->nad", real_basis_change(lo), A,
                  np.conj(real_basis_change(li)))
    if (t + li + lo) % 2 == 1:
        M = 1j * M
    return np.interp(r, basis.radii, basis.values)[:, None, None] * M.real


class TestSE3Coupling:
    def test_matches_complex_assembly(self):
        X = rng.uniform(-2, 2, (500, 3))
        for li in range(4):
            for lo in range(4):
                for t in range(abs(li - lo), li + lo + 1):
                    basis = SE3KernelBasis(li, lo, t, RADII, random_profile())
                    want = complex_assembly(basis, X)
                    err = np.abs(se3_kernel_eval_many(basis, X) - want).max()
                    assert err <= 1e-14 * np.abs(want).max(), (li, lo, t)

    def test_cached_tensor_is_read_only(self):
        G = se_kernels._coupling(2, 1, 2)
        assert G.shape == (5, 5, 3)
        with pytest.raises(ValueError):
            G[0, 0, 0] = 1.0

    def test_second_evaluation_computes_no_clebsch_gordan(self, monkeypatch):
        calls = []
        cg = harmonics.clebsch_gordan
        monkeypatch.setattr(harmonics, "clebsch_gordan",
                            lambda *args: calls.append(args) or cg(*args))
        se_kernels._coupling.cache_clear()
        basis = SE3KernelBasis(2, 3, 3, RADII, random_profile())
        X = rng.uniform(-2, 2, (10, 3))
        first = se3_kernel_eval_many(basis, X)
        assert calls                          # the first evaluation builds G
        del calls[:]
        assert np.array_equal(se3_kernel_eval_many(basis, X), first)
        assert calls == []


def random_cloud(n, lmax=1, channels=2, scale=1.0, spread=2.0):
    pos = rng.uniform(-spread, spread, (n, 3))
    feats = [scale * rng.standard_normal((n, 2 * l + 1, channels))
             for l in range(lmax + 1)]
    return PointCloud(pos, feats)


def rotate_cloud(cloud, g):
    pos = cloud.positions @ g.matrix().T
    feats = [None if f is None else
             np.einsum("mn,pnc->pmc", wigner_D_real(l, g), f)
             for l, f in enumerate(cloud.features)]
    return PointCloud(pos, feats)


def make_terms(lmax_in, lmax_out, channels, c_out=2, scale=0.2):
    terms = []
    for li in range(lmax_in + 1):
        for lo in range(lmax_out + 1):
            for t in range(abs(li - lo), li + lo + 1):
                basis = SE3KernelBasis(li, lo, t, RADII,
                                       scale * random_profile())
                W = scale * rng.standard_normal((c_out, channels))
                terms.append((basis, W))
    return terms


class TestTfnConv:
    def test_zero_features_give_zero(self):
        cloud = random_cloud(8, lmax=1, scale=0.0)
        out = tfn_point_conv(cloud, make_terms(1, 1, 2), radius=2.0)
        for f in out:
            assert np.abs(f).max() == 0.0

    def test_scalar_kernel_is_weighted_graph_sum(self):
        n = 6
        cloud = random_cloud(n, lmax=0, channels=1)
        flat = np.ones_like(RADII)
        basis = SE3KernelBasis(0, 0, 0, RADII, flat)
        out = tfn_point_conv(cloud, [(basis, np.eye(1))], radius=100.0)
        f = cloud.features[0][:, 0, 0]
        expect = f.sum() - f                 # all neighbors except self
        assert np.abs(out[0][:, 0, 0] - expect).max() < 1e-12

    def test_isolated_point_gets_zeros(self):
        pos = np.array([[0.0, 0, 0], [0.1, 0, 0], [50.0, 0, 0]])
        feats = [rng.standard_normal((3, 1, 1))]
        cloud = PointCloud(pos, feats)
        basis = SE3KernelBasis(0, 0, 0, RADII, np.ones_like(RADII))
        out = tfn_point_conv(cloud, [(basis, np.eye(1))], radius=1.0)
        assert np.abs(out[0][2]).max() == 0.0
        assert np.abs(out[0][0]).max() > 0.0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            tfn_point_conv(random_cloud(3), [], radius=0.0)

    def test_equivariance(self):
        cloud = random_cloud(64, lmax=2, channels=2)
        terms = make_terms(2, 2, 2)
        g = random_rotation()
        a = tfn_point_conv(rotate_cloud(cloud, g), terms, radius=1.5)
        b = tfn_point_conv(cloud, terms, radius=1.5)
        scale = max(np.abs(f).max() for f in b if f is not None)
        for l, (x, y) in enumerate(zip(a, b)):
            y_rot = np.einsum("mn,pnc->pmc", wigner_D_real(l, g), y)
            assert np.abs(x - y_rot).max() / scale < 1e-9, l


class TestSe3Layer:
    def test_layer_equivariance(self):
        cloud = random_cloud(24, lmax=1, channels=2, scale=0.05, spread=1.0)
        terms = make_terms(1, 1, 2, scale=0.05)
        spec = ActivationSpec("tanh")
        g = random_rotation()
        a = se3_layer(rotate_cloud(cloud, g), terms, 1.5, spec, bandwidth=8)
        b = se3_layer(cloud, terms, 1.5, spec, bandwidth=8)
        scale = max(np.abs(f).max() for f in b if f is not None)
        for l, (x, y) in enumerate(zip(a, b)):
            y_rot = np.einsum("mn,pnc->pmc", wigner_D_real(l, g), y)
            assert np.abs(x - y_rot).max() / scale < 1e-8, l

    def test_two_layer_equivariance(self):
        cloud = random_cloud(16, lmax=1, channels=2, scale=0.05, spread=1.0)
        terms1 = make_terms(1, 1, 2, scale=0.05)
        terms2 = make_terms(1, 1, 2, scale=0.05)
        spec = ActivationSpec("tanh")
        g = random_rotation()

        def two_layers(c):
            mid = se3_layer(c, terms1, 1.5, spec, bandwidth=8)
            return se3_layer(PointCloud(c.positions, mid), terms2, 1.5,
                             spec, bandwidth=8)

        a = two_layers(rotate_cloud(cloud, g))
        b = two_layers(cloud)
        scale = max(np.abs(f).max() for f in b if f is not None)
        for l, (x, y) in enumerate(zip(a, b)):
            y_rot = np.einsum("mn,pnc->pmc", wigner_D_real(l, g), y)
            assert np.abs(x - y_rot).max() / scale < 1e-7, l


def brute_force_conv(cloud, terms, radius):
    """tfn_point_conv as a double loop over (i, j) with se3_kernel_eval."""
    n = cloud.n_points
    out = [None] * (max(basis.l_out for basis, _ in terms) + 1)
    for basis, W in terms:
        acc = np.zeros((n, 2 * basis.l_out + 1, W.shape[0]))
        for i in range(n):
            for j in range(n):
                x = cloud.positions[j] - cloud.positions[i]
                if j != i and np.linalg.norm(x) < radius:
                    acc[i] += (se3_kernel_eval(basis, x)
                               @ cloud.features[basis.l_in][j] @ W.T)
        out[basis.l_out] = acc if out[basis.l_out] is None else out[basis.l_out] + acc
    return out


class TestTfnConvAgainstDoubleLoop:
    @pytest.mark.parametrize("case", ["duplicate", "isolated", "no-edges"])
    def test_matches_double_loop(self, case):
        cloud = random_cloud(7, lmax=2, channels=2, spread=1.0)
        pos = cloud.positions.copy()
        if case == "duplicate":
            pos[4] = pos[1]                   # an r = 0 edge, both ways
        elif case == "isolated":
            pos[6] = [50.0, 0.0, 0.0]
        else:
            pos = np.arange(7)[:, None] * np.array([5.0, 0.0, 0.0])
        cloud = PointCloud(pos, cloud.features)
        terms = make_terms(2, 2, 2, c_out=3)
        got = tfn_point_conv(cloud, terms, radius=1.5)
        want = brute_force_conv(cloud, terms, radius=1.5)
        for l, (a, b) in enumerate(zip(got, want)):
            assert a.shape == (7, 2 * l + 1, 3)
            assert np.abs(a - b).max() <= 1e-12, l
        if case == "isolated":
            assert all(np.abs(a[6]).max() == 0.0 for a in got)
        if case == "no-edges":
            assert all(np.abs(a).max() == 0.0 for a in got)
