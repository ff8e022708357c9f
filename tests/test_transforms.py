import numpy as np
import pytest

from homharm import transforms
from homharm.fields import FieldType, TensorField, spin_coeffs, spin_synthesis
from homharm.groups import Rotation3, quadrature_grid
from homharm.harmonics import sph_harm_matrix, wigner_D_matrix
from homharm.transforms import (_PLAN_BYTES, ShtCoeffs, SpectralBlocks,
                                _plan_cache_info, _spin_columns, fiber_dft,
                                sht_forward, sht_inverse, so3_ft_forward,
                                so3_ft_inverse)

rng = np.random.default_rng(303)


def random_sht_coeffs(B, channels=1):
    return ShtCoeffs(B, [
        (rng.standard_normal((channels, 2 * l + 1))
         + 1j * rng.standard_normal((channels, 2 * l + 1)))
        for l in range(B)])


def random_blocks(B, channels=1):
    return SpectralBlocks(B, [
        (rng.standard_normal((channels, 2 * l + 1, 2 * l + 1))
         + 1j * rng.standard_normal((channels, 2 * l + 1, 2 * l + 1)))
        for l in range(B)])


class TestSht:
    def test_round_trip_from_spectrum(self):
        B = 8
        grid = quadrature_grid("S2", B)
        coeffs = random_sht_coeffs(B, channels=3)
        f = sht_inverse(coeffs, grid)
        back = sht_forward(f, grid)
        for l in range(B):
            assert np.abs(back.data[l] - coeffs.data[l]).max() < 1e-12

    def test_forward_of_single_harmonic(self):
        B = 6
        grid = quadrature_grid("S2", B)
        Y = sph_harm_matrix(B - 1, grid.nodes[:, 0], grid.nodes[:, 1])
        coeffs = sht_forward(Y[:, 2 * 2 + 2 + 1].copy(), grid)  # Y^2_1
        for l in range(B):
            expect = np.zeros(2 * l + 1)
            if l == 2:
                expect[1 + l] = 1.0
            assert np.abs(coeffs.data[l][0] - expect).max() < 1e-13

    def test_linearity(self):
        B = 5
        grid = quadrature_grid("S2", B)
        f = rng.standard_normal((2, grid.n_nodes))
        g = rng.standard_normal((2, grid.n_nodes))
        a = sht_forward(2.0 * f - 3.0 * g, grid)
        b1, b2 = sht_forward(f, grid), sht_forward(g, grid)
        for l in range(B):
            assert np.allclose(a.data[l], 2.0 * b1.data[l] - 3.0 * b2.data[l],
                               atol=1e-13)

    def test_bandwidth_mismatch_rejected(self):
        grid = quadrature_grid("S2", 4)
        with pytest.raises(ValueError):
            sht_inverse(random_sht_coeffs(6), grid)

    def test_wrong_grid_space(self):
        grid = quadrature_grid("SO3", 3)
        with pytest.raises(ValueError):
            sht_forward(np.zeros(grid.n_nodes), grid)

    def test_aliasing_of_above_band_content(self):
        # a degree-B harmonic sampled on a bandwidth-B grid does not survive
        # a round trip, while bandlimited content is reproduced exactly
        B = 4
        grid = quadrature_grid("S2", B)
        fine = quadrature_grid("S2", B + 1)
        Yf = sph_harm_matrix(B, fine.nodes[:, 0], fine.nodes[:, 1])
        hi = Yf[:, B * B + B + 2]          # degree B, m = 2, above band
        # evaluate the same harmonic on the coarse grid
        Yc = sph_harm_matrix(B, grid.nodes[:, 0], grid.nodes[:, 1])
        hi_coarse = Yc[:, B * B + B + 2]
        coeffs = sht_forward(hi_coarse, grid)
        total = sum(float(np.abs(c).max()) for c in coeffs.data)
        recon = sht_inverse(sht_forward(hi_coarse, grid), grid)
        err = np.abs(recon[0] - hi_coarse).max()
        assert err > 1e-3 or total > 1e-3  # visibly wrong, one way or another

        lo = Yc[:, 2 * 2 + 2]              # degree 2 zonal: bandlimited
        recon = sht_inverse(sht_forward(lo, grid), grid)
        assert np.abs(recon[0] - lo).max() < 1e-12


class TestSo3Ft:
    def test_round_trip_from_spectrum(self):
        B = 5
        grid = quadrature_grid("SO3", B)
        blocks = random_blocks(B, channels=2)
        f = so3_ft_inverse(blocks, grid)
        back = so3_ft_forward(f, grid)
        for l in range(B):
            assert np.abs(back.blocks[l] - blocks.blocks[l]).max() < 1e-11

    def test_forward_of_wigner_matrix_entry(self):
        # the transform of D^1_{01} itself is 1/3 at (l,m,n) = (1,0,1)
        B = 4
        grid = quadrature_grid("SO3", B)
        vals = np.array([wigner_D_matrix(1, Rotation3(*node))[1, 2]
                         for node in grid.nodes])
        blocks = so3_ft_forward(vals, grid)
        for l in range(B):
            expect = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
            if l == 1:
                expect[1, 2] = 1.0 / 3.0
            assert np.abs(blocks.blocks[l][0] - expect).max() < 1e-13

    def test_parseval(self):
        B = 5
        grid = quadrature_grid("SO3", B)
        blocks = random_blocks(B)
        f = so3_ft_inverse(blocks, grid)
        spatial = float(np.sum(grid.weights * np.abs(f[0]) ** 2))
        assert spatial == pytest.approx(blocks.norm_squared(), rel=1e-12)

    def test_truncated_forward(self):
        B = 5
        grid = quadrature_grid("SO3", B)
        blocks = random_blocks(B)
        f = so3_ft_inverse(blocks, grid)
        low = so3_ft_forward(f, grid, bandwidth=3)
        assert low.bandwidth == 3
        for l in range(3):
            assert np.allclose(low.blocks[l], blocks.blocks[l], atol=1e-12)
        with pytest.raises(ValueError):
            so3_ft_forward(f, grid, bandwidth=B + 1)


class TestSynthesisAgainstDirectSums:
    """Every grid synthesis runs through one spin transform pair; check it at
    a few nodes against sums of Wigner-D entries and harmonics evaluated
    directly at each node."""

    B = 5

    def nodes(self, grid):
        return rng.choice(grid.n_nodes, 10, replace=False)

    @pytest.mark.parametrize("k", [-2, 1])
    def test_spin_synthesis(self, k):
        grid = quadrature_grid("S2", self.B)
        coeffs = [None] * abs(k) + [
            rng.standard_normal((2, 2 * l + 1))
            + 1j * rng.standard_normal((2, 2 * l + 1))
            for l in range(abs(k), self.B)]
        f = spin_synthesis(coeffs, k, grid)
        for p in self.nodes(grid):
            g = Rotation3(*grid.nodes[p], 0.0)
            want = sum((2 * l + 1) * coeffs[l] @ wigner_D_matrix(l, g)[:, l + k]
                       for l in range(abs(k), self.B))
            assert np.abs(f[:, p] - want).max() < 1e-12 * np.abs(want).max()

    def test_so3_inverse(self):
        grid = quadrature_grid("SO3", self.B)
        blocks = random_blocks(self.B, channels=2)
        f = so3_ft_inverse(blocks, grid)
        for p in self.nodes(grid):
            g = Rotation3(*grid.nodes[p])
            want = sum((2 * l + 1) * np.einsum("cmn,mn->c", b, wigner_D_matrix(l, g))
                       for l, b in enumerate(blocks.blocks))
            assert np.abs(f[:, p] - want).max() < 1e-12 * np.abs(want).max()

    def test_sht_inverse(self):
        grid = quadrature_grid("S2", self.B)
        coeffs = random_sht_coeffs(self.B, channels=2)
        Y = sph_harm_matrix(self.B - 1, grid.nodes[:, 0], grid.nodes[:, 1])
        want = np.concatenate(coeffs.data, axis=1) @ Y.T
        got = sht_inverse(coeffs, grid)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestPlanCache:
    """Spin-column plans and quadrature grids are built once and shared, so
    they must be read-only, and the plan cache must keep its byte bound."""

    def test_repeated_spin_coeffs_is_a_hit(self):
        grid = quadrature_grid("S2", 7)
        f = TensorField(grid, FieldType("SO2", 2),
                        rng.standard_normal((1, grid.n_nodes)))
        first = spin_coeffs(f)
        before = _plan_cache_info()
        again = spin_coeffs(f)
        after = _plan_cache_info()
        assert (after["hits"], after["misses"]) == (before["hits"] + 1,
                                                    before["misses"])
        assert after["keys"][-1] == (7, 2)
        for a, b in zip(first, again):
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_cached_arrays_are_read_only(self):
        grid = quadrature_grid("S2", 4)
        assert quadrature_grid("S2", 4) is grid
        cols = _spin_columns(grid, 1)
        assert cols[0] is None
        for arr in (cols[2], grid.nodes, grid.weights, grid.beta_weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_byte_bound_evicts_the_least_recently_used(self):
        grid = quadrature_grid("S2", 128)
        for k in (0, 1, 2):                   # about 32 MiB each
            _spin_columns(grid, k)
            info = _plan_cache_info()
            assert info["bytes"] <= _PLAN_BYTES
        assert (128, 0) not in info["keys"]
        assert info["keys"][-2:] == [(128, 1), (128, 2)]
        assert info["bytes"] == sum(c.nbytes for key in info["keys"]
                                    for c in transforms._plans[key]
                                    if c is not None)

    def test_plan_over_the_bound_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(transforms, "_PLAN_BYTES", 1000)
        grid = quadrature_grid("S2", 6)
        before = _plan_cache_info()
        cols = _spin_columns(grid, -5)        # 2B * 11 * 8 = 1056 bytes
        after = _plan_cache_info()
        assert cols[5].shape == (12, 11)
        assert (6, -5) not in after["keys"]
        assert after["bytes"] == before["bytes"]
        assert after["misses"] == before["misses"] + 1


class TestSpectralBlocks:
    def test_norm_and_column_helpers(self):
        B = 3
        blocks = SpectralBlocks.zeros(B, 1)
        blocks.blocks[1][0, :, 2] = [1.0, 2.0, 3.0]   # column n = 1
        assert blocks.norm_squared() == pytest.approx(3 * 14.0)
        col = blocks.column(1)
        assert len(col) == B - 1
        assert np.allclose(col[0][0], [1.0, 2.0, 3.0])
        assert blocks.off_column_energy(1) == pytest.approx(0.0)
        assert blocks.off_column_energy(0) == pytest.approx(3 * 14.0)


class TestFiberDft:
    def test_extracts_the_matching_order(self):
        B = 4
        grid = quadrature_grid("SO3", B)
        s2 = quadrature_grid("S2", B)
        base = rng.standard_normal(s2.n_nodes)
        n = 2 * B
        for k in (-2, 0, 3):
            vals = (base.reshape(n, n, 1)
                    * np.exp(-1j * k * grid.gammas)).reshape(-1)
            got = fiber_dft(vals, grid, k)
            assert np.abs(got[0] - base).max() < 1e-13
            other = fiber_dft(vals, grid, k + 1)
            assert np.abs(other).max() < 1e-13

    def test_order_out_of_range(self):
        grid = quadrature_grid("SO3", 2)
        with pytest.raises(ValueError):
            fiber_dft(np.zeros(grid.n_nodes), grid, 4)
