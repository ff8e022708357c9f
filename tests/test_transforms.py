import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from homharm import transforms
from homharm.fields import (FieldType, TensorField, resample, spin_coeffs,
                            spin_synthesis)
from homharm.groups import Rotation3, quadrature_grid
from homharm.harmonics import _wigner_d_column, sph_harm_matrix, wigner_D_matrix
from homharm.transforms import (_PLAN_BYTES, ShtCoeffs, SpectralBlocks,
                                _plan_cache_info, _spin_analysis, _spin_plan,
                                fiber_dft,
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

    def test_inverse_holds_one_grid_array(self):
        # the gamma FFT runs in place on the array the columns fill
        B, C = 16, 2
        grid = quadrature_grid("SO3", B)
        blocks = random_blocks(B, channels=C)
        so3_ft_inverse(blocks, grid)            # warm the plan cache
        tracemalloc.start()
        try:
            f = so3_ft_inverse(blocks, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.shape == (C, (2 * B) ** 3)
        assert peak < 1.5 * f.nbytes


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
    they must be read-only, and the plan cache must keep its byte bound.
    Plans are keyed on (B, |k|, L)."""

    def test_repeated_spin_coeffs_is_a_hit(self):
        grid = quadrature_grid("S2", 7)
        f = TensorField(grid, FieldType(2),
                        rng.standard_normal((1, grid.n_nodes)))
        first = spin_coeffs(f)
        before = _plan_cache_info()
        again = spin_coeffs(f)
        after = _plan_cache_info()
        assert (after["hits"], after["misses"]) == (before["hits"] + 1,
                                                    before["misses"])
        assert after["keys"][-1] == (7, 2, 7)
        for a, b in zip(first, again):
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_order_minus_k_reads_the_plan_of_k(self):
        grid = quadrature_grid("S2", 7)
        samples = rng.standard_normal((1, grid.n_nodes))
        spin_coeffs(TensorField(grid, FieldType(2), samples))
        before = _plan_cache_info()
        spin_coeffs(TensorField(grid, FieldType(-2), samples))
        after = _plan_cache_info()
        assert (after["hits"], after["misses"]) == (before["hits"] + 1,
                                                    before["misses"])
        assert after["keys"][-1] == (7, 2, 7)
        assert after["bytes"] == before["bytes"]

    def test_cached_arrays_are_read_only(self):
        grid = quadrature_grid("S2", 4)
        assert quadrature_grid("S2", 4) == grid
        plan = _spin_plan(grid, 1)
        assert plan.shape == (4, 4, 8)
        assert not plan[0, 3].any()           # (l, m) = (0, 0): below |k|
        for arr in (plan, grid.beta_weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_byte_bound_evicts_the_least_recently_used(self):
        grid = quadrature_grid("S2", 128)
        for k in (0, 1, 2):                   # 32 MiB each
            _spin_plan(grid, k)
            info = _plan_cache_info()
            assert info["bytes"] <= _PLAN_BYTES
        assert (128, 0, 128) not in info["keys"]
        assert info["keys"][-2:] == [(128, 1, 128), (128, 2, 128)]
        assert info["bytes"] == sum(transforms._plans[key].nbytes
                                    for key in info["keys"])

    def test_plan_over_the_bound_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(transforms, "_PLAN_BYTES", 1000)
        grid = quadrature_grid("S2", 6)
        before = _plan_cache_info()
        plan = _spin_plan(grid, -5)           # 16 B L^2 = 16 * 6^3 = 3456 bytes
        after = _plan_cache_info()
        assert plan.shape == (6, 6, 12)
        assert (6, 5, 6) not in after["keys"]
        assert after["bytes"] == before["bytes"]
        assert after["misses"] == before["misses"] + 1

    def test_so3_transform_over_the_bound_keeps_other_plans(self, monkeypatch):
        # the 6 plans of a B = 6 SO(3) transform (3456 bytes each) do not fit
        # in 8 KiB together, so they are built without evicting the S2 plan;
        # columns -k and k share one plan
        monkeypatch.setattr(transforms, "_PLAN_BYTES", 8192)
        monkeypatch.setattr(transforms, "_plans", OrderedDict())
        monkeypatch.setattr(transforms, "_plan_counts",
                            {"hits": 0, "misses": 0, "bytes": 0})
        s2 = quadrature_grid("S2", 4)         # its plan takes 1024 bytes
        f = TensorField(s2, FieldType(0),
                        rng.standard_normal((1, s2.n_nodes)))
        spin_coeffs(f)
        so3 = quadrature_grid("SO3", 6)
        for _ in range(2):
            before = _plan_cache_info()
            so3_ft_forward(rng.standard_normal(so3.n_nodes), so3)
            after = _plan_cache_info()
            assert after["keys"] == before["keys"]
            assert after["misses"] - before["misses"] == 6
        spin_coeffs(f)
        assert _plan_cache_info()["hits"] == after["hits"] + 1
        assert _plan_cache_info()["keys"] == [(4, 0, 4)]

    def test_so3_transform_stores_one_plan_per_order(self, monkeypatch):
        monkeypatch.setattr(transforms, "_plans", OrderedDict())
        monkeypatch.setattr(transforms, "_plan_counts",
                            {"hits": 0, "misses": 0, "bytes": 0})
        so3 = quadrature_grid("SO3", 6)
        blocks = so3_ft_forward(rng.standard_normal(so3.n_nodes), so3)
        so3_ft_inverse(blocks, so3)
        info = _plan_cache_info()
        assert (info["misses"], info["hits"]) == (6, 6)
        assert info["keys"] == [(6, k, 6) for k in range(6)]
        assert info["bytes"] == 6 * 16 * 6 * 6 * 6      # 16 B L^2 each

    def test_plan_is_built_in_place(self):
        # the recursion's degrees are written into the plan as they come, so
        # the build holds only O(B^2) temporaries beside the plan (the whole
        # column list alone would take as many bytes as the plan)
        grid = quadrature_grid("S2", 64)
        tracemalloc.start()
        try:
            plan = _spin_plan(grid, 1, store=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * plan.nbytes


class TestWindowedPlans:
    """A transform reading the degree window l < L < B uses the [L, L, 2B]
    plan of the L-degree layout on the grid's betas; its coefficients are
    the full analysis sliced, bit for bit."""

    @pytest.mark.parametrize("B, L", [(64, 32), (32, 16), (16, 8)])
    def test_coarsening_resample_reads_the_window(self, B, L):
        grid = quadrature_grid("S2", B)
        samples = (rng.standard_normal((2, grid.n_nodes))
                   + 1j * rng.standard_normal((2, grid.n_nodes)))
        for k in (0, 1, -1):
            f = TensorField(grid, FieldType(k), samples)
            full = spin_coeffs(f)
            before = _plan_cache_info()
            resample(f, L)                    # then synthesis on (L, |k|, L)
            assert _plan_cache_info()["keys"][-2] == (B, abs(k), L)
            assert transforms._plans[(B, abs(k), L)].nbytes == 16 * B * L * L
            window = _spin_analysis(f.flat().reshape(2, 2 * B, 2 * B), grid,
                                    k, L)
            assert np.array_equal(window, np.concatenate(full[abs(k):L], axis=1))
            if k < 0:                         # order -1 reads the plans of 1
                assert _plan_cache_info()["misses"] == before["misses"]

    def test_window_rows_are_the_full_plan_rows(self):
        grid = quadrature_grid("S2", 16)
        full_rows = transforms._layout(16)[0][:36] // 2        # degrees < 6
        rows = transforms._layout(6)[0] // 2
        for k in (0, 3):
            full = _spin_plan(grid, k).reshape(-1, 32)
            window = _spin_plan(grid, k, 6).reshape(-1, 32)
            assert window.shape == (6 * 6, 32)
            for l in range(6):                # degree l at its own slots
                q = slice(l * l, (l + 1) ** 2)
                assert np.array_equal(window[rows[q]], full[full_rows[q]])

    @pytest.mark.parametrize("B, L, k", [(8, 8, 0), (8, 8, 3), (16, 5, 4),
                                         (16, 9, 0), (16, 9, 1)])
    def test_one_nonzero_row_per_coefficient(self, B, L, k):
        # the rows of degrees |k| <= l < L, L^2 - k^2 of them, and no item
        # of the plan is all zeros
        plan = _spin_plan(quadrature_grid("S2", B), k, L)
        nonzero = plan.any(axis=2)
        assert plan.shape == (L, L, 2 * B)
        assert nonzero.sum() == L * L - k * k
        assert nonzero.any(axis=1).all()
        rows = transforms._layout(L)[0][k * k:] // 2
        assert np.array_equal(np.flatnonzero(nonzero), np.sort(rows))

    def test_plan_of_exactly_the_bound_is_not_stored(self, monkeypatch):
        # storing a plan of the bound would flush every other plan
        monkeypatch.setattr(transforms, "_PLAN_BYTES", 16 * 8 * 4 * 4)
        monkeypatch.setattr(transforms, "_plans", OrderedDict())
        monkeypatch.setattr(transforms, "_plan_counts",
                            {"hits": 0, "misses": 0, "bytes": 0})
        grid = quadrature_grid("S2", 8)
        _spin_plan(grid, 0, 2)                # 512 bytes: stored
        plan = _spin_plan(grid, 1, 4)         # 16 B L^2 = 2048 bytes
        assert plan.nbytes == transforms._PLAN_BYTES
        info = _plan_cache_info()
        assert (info["keys"], info["bytes"]) == ([(8, 0, 2)], 512)
        assert info["misses"] == 2


def reference_spin_analysis(f, grid, k):
    """The per-degree formula: alpha FFT, then for each l one weighted sum
    over beta against d^l_{mk}(beta_j); returns a list indexed by l."""
    B = grid.bandwidth
    n = 2 * B
    F = np.fft.fftshift(np.fft.ifft(f.reshape(-1, n, n), axis=1),
                        axes=1) * grid.beta_weights
    return [None if d is None else
            np.einsum("cmj,jm->cm", F[:, B - l:B + l + 1, :], d)
            for l, d in enumerate(_wigner_d_column(B - 1, grid.betas, k))]


def reference_spin_synthesis(coeffs, grid, k):
    B = grid.bandwidth
    n = 2 * B
    F = np.zeros((coeffs[-1].shape[0], n, n), dtype=complex)
    for l, d in enumerate(_wigner_d_column(len(coeffs) - 1, grid.betas, k)):
        if d is not None:
            F[:, B - l:B + l + 1, :] += (2 * l + 1) * np.einsum(
                "cm,jm->cmj", coeffs[l], d)
    return np.fft.fft(np.fft.ifftshift(F, axes=1), axis=1).reshape(-1, n * n)


class TestSpinPairAgainstPerDegreeSums:
    """The plan-and-GEMM spin pair against the per-degree formula it
    replaces, at orders from 0 to the largest |k| < B."""

    @pytest.mark.parametrize("B", [2, 3, 8, 33])
    def test_pair(self, B):
        grid = quadrature_grid("S2", B)
        for k in sorted({0, 1, -1, B - 1, -(B - 1)}):
            f = TensorField(grid, FieldType(k),
                            rng.standard_normal((2, grid.n_nodes))
                            + 1j * rng.standard_normal((2, grid.n_nodes)))
            got, want = spin_coeffs(f), reference_spin_analysis(f.flat(), grid, k)
            scale = max(np.abs(w).max() for w in want if w is not None)
            for g, w in zip(got, want, strict=True):
                assert (g is None) == (w is None)
                if w is not None:
                    assert np.abs(g - w).max() <= 1e-14 * scale

            for L in (B, max(abs(k) + 1, B // 2)):
                coeffs = [None] * abs(k) + [
                    rng.standard_normal((2, 2 * l + 1))
                    + 1j * rng.standard_normal((2, 2 * l + 1))
                    for l in range(abs(k), L)]
                got = spin_synthesis(coeffs, k, grid)
                want = reference_spin_synthesis(coeffs, grid, k)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert _spin_plan(grid, k).nbytes <= 16 * B ** 3


class TestAccuracyAtB128:
    B = 128

    def test_sht_round_trip(self):
        grid = quadrature_grid("S2", self.B)
        coeffs = random_sht_coeffs(self.B)
        back = sht_forward(sht_inverse(coeffs, grid), grid)
        for l in range(self.B):
            assert np.abs(back.data[l] - coeffs.data[l]).max() < 1e-12

    @pytest.mark.parametrize("k", [1, -1])
    def test_spin_round_trip(self, k):
        grid = quadrature_grid("S2", self.B)
        coeffs = [None] * abs(k) + [
            rng.standard_normal((1, 2 * l + 1))
            + 1j * rng.standard_normal((1, 2 * l + 1))
            for l in range(abs(k), self.B)]
        f = TensorField(grid, FieldType(k),
                        spin_synthesis(coeffs, k, grid))
        back = spin_coeffs(f)
        for l in range(abs(k), self.B):
            assert np.abs(back[l] - coeffs[l]).max() < 1e-12
        again = spin_synthesis(back, k, grid)
        assert np.abs(again - f.flat()).max() < 1e-12 * np.abs(f.flat()).max()


class TestAccuracyAtB256:
    """Degrees below 64 on the B = 256 grid: each plan (256, |k|, 64) takes
    16 B L^2 = 16 MiB, a quarter of _PLAN_BYTES, so it is stored, and order
    -1 reads that of 1."""

    B, L = 256, 64

    def test_spin_round_trip(self):
        grid = quadrature_grid("S2", self.B)
        n = 2 * self.B
        for k in (0, 1, -1):
            coeffs = [None] * abs(k) + [
                rng.standard_normal((1, 2 * l + 1))
                + 1j * rng.standard_normal((1, 2 * l + 1))
                for l in range(abs(k), self.L)]
            before = _plan_cache_info()
            f = spin_synthesis(coeffs, k, grid)
            back = _spin_analysis(f.reshape(1, n, n), grid, k, self.L)
            after = _plan_cache_info()
            assert after["keys"][-1] == (self.B, abs(k), self.L)
            assert (transforms._plans[after["keys"][-1]].nbytes
                    == 16 * self.B * self.L ** 2 == _PLAN_BYTES // 4)
            assert after["misses"] == before["misses"] + (k >= 0)
            want = np.concatenate(coeffs[abs(k):], axis=1)
            assert np.abs(back - want).max() < 1e-12


class TestSpectralBlocks:
    def test_norm_column_and_off_column(self):
        B = 3
        blocks = SpectralBlocks.zeros(B, 1)
        blocks.blocks[1][0, :, 2] = [1.0, 2.0, 3.0]   # column n = 1
        assert blocks.norm_squared() == pytest.approx(3 * 14.0)
        col = blocks.column(1)
        assert len(col) == B and col[0] is None
        assert np.allclose(col[1][0], [1.0, 2.0, 3.0])
        assert blocks.off_column(1) == 0.0
        assert blocks.off_column(0) == pytest.approx(1.0)
        assert SpectralBlocks.zeros(B, 1).off_column(0) == 0.0

    def test_set_column_round_trips(self):
        B, n = 4, -2
        blocks = SpectralBlocks.zeros(B, 2)
        coeffs = [None] * abs(n) + [rng.standard_normal((2, 2 * l + 1))
                                    + 1j * rng.standard_normal((2, 2 * l + 1))
                                    for l in range(abs(n), B)]
        blocks.set_column(n, coeffs)
        col = blocks.column(n)
        assert col[:abs(n)] == [None] * abs(n)
        for l in range(abs(n), B):
            assert np.array_equal(col[l], coeffs[l])
            assert np.array_equal(blocks.blocks[l][:, :, n + l], coeffs[l])
        assert blocks.off_column(n) == 0.0

    def test_set_column_skips_none(self):
        B = 4
        blocks = SpectralBlocks(B, [rng.standard_normal((1, 2 * l + 1, 2 * l + 1))
                                    + 0j for l in range(B)])
        before = [b.copy() for b in blocks.blocks]
        blocks.set_column(1, [None] * B)
        new = np.ones((1, 5))
        blocks.set_column(1, [None, None, new, None])
        for l in (0, 1, 3):
            assert np.array_equal(blocks.blocks[l], before[l])
        assert np.array_equal(blocks.blocks[2][:, :, 3], new)
        rest = np.delete(blocks.blocks[2], 3, axis=2)
        assert np.array_equal(rest, np.delete(before[2], 3, axis=2))


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
