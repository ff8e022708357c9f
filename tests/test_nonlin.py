import math
import tracemalloc

import numpy as np
import pytest

from homharm.fields import (FieldType, GroupFunction, TensorField,
                            field_from_spin_coeffs, induced_action, lift,
                            project, resample)
from homharm.groups import Rotation3, quadrature_grid
from homharm.harmonics import real_sph_harm_matrix, wigner_D_real
from homharm.nonlin import _ERF_EDGES, _ERF_PIECES, _FIBER_BLOCK, _erf
from homharm.nonlin import (ActivationSpec, activate, delta_projection_kernel,
                            lift_sum, nonlinearity, point_sphere_nonlin,
                            project_column, project_kernel)

rng = np.random.default_rng(606)


def random_field(B, order, channels=1, scale=1.0, gen=rng):
    grid = quadrature_grid("S2", B)
    coeffs = [None] * B
    for l in range(abs(order), B):
        coeffs[l] = scale * (gen.standard_normal((channels, 2 * l + 1))
                             + 1j * gen.standard_normal((channels, 2 * l + 1)))
    return field_from_spin_coeffs(coeffs, order, grid)


class TestActivationSpec:
    def test_kinds(self):
        x = np.array([[-1.0, 0.5, 2.0]])
        assert np.allclose(ActivationSpec("relu").apply_real(x),
                           [[0.0, 0.5, 2.0]])
        assert np.allclose(ActivationSpec("tanh").apply_real(x), np.tanh(x))
        g = ActivationSpec("gelu").apply_real(x)
        assert g[0, 0] < 0 and g[0, 2] > 1.9   # smooth relu-like

    def test_gelu_matches_math_erf(self):
        x = np.random.default_rng(12).uniform(-6, 6, (3, 50))
        want = [[0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in row]
                for row in x]
        # an ulp of erf moves 1 + erf by at most an ulp of 2, times x / 2
        assert np.abs(ActivationSpec("gelu").apply_real(x) - want).max() <= 2e-15

    def test_mlp(self):
        W1, b1 = np.array([[1.0, -1.0], [0.0, 2.0]]), np.zeros(2)
        W2, b2 = np.eye(2), np.array([0.5, 0.0])
        spec = ActivationSpec("per_point_mlp", [(W1, b1), (W2, b2)])
        x = np.array([[1.0], [2.0]])
        # relu(W1 x) = [0, 4]; W2 . + b2 = [0.5, 4]
        assert np.allclose(spec.apply_real(x), [[0.5], [4.0]])

    @pytest.mark.parametrize("kind", ["relu", "tanh"])
    def test_in_place(self, kind):
        spec = ActivationSpec(kind)
        x = np.random.default_rng(19).standard_normal((3, 40))
        want = spec.apply_real(x)
        assert spec.apply_real(x, out=x) is x
        assert np.array_equal(x, want)

    def test_gelu_and_mlp_return_a_new_array(self):
        x = np.random.default_rng(20).standard_normal((2, 7))
        kept = x.copy()
        mlp = ActivationSpec("per_point_mlp", [(np.ones((3, 2)), np.zeros(3))])
        for spec, channels in ((ActivationSpec("gelu"), 2), (mlp, 3)):
            got = spec.apply_real(x, out=x)
            assert got is not x and got.shape == (channels, 7)
            assert np.array_equal(x, kept)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ActivationSpec("sigmoid")
        with pytest.raises(ValueError):
            ActivationSpec("per_point_mlp")
        with pytest.raises(ValueError, match="weights are for per_point_mlp"):
            ActivationSpec("tanh", weights=[(np.ones((1, 1)), np.zeros(1))])


class TestLiftSumActivate:
    def test_single_field_equals_lift(self):
        f = random_field(4, 1)
        assert np.allclose(lift_sum([f]).samples, lift(f).samples)

    def test_sum_formula(self):
        B = 4
        f0 = random_field(B, 0)
        f1 = random_field(B, 1)
        total = lift_sum([f0, f1]).flat()
        grid = quadrature_grid("SO3", B)
        n = 2 * B
        expect = (f0.flat().reshape(1, n, n, 1)
                  + f1.flat().reshape(1, n, n, 1)
                  * np.exp(-1j * grid.gammas)[None, None, None, :])
        assert np.abs(total - expect.reshape(1, -1)).max() < 1e-13

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            lift_sum([random_field(4, 0), random_field(5, 0)])

    def test_activation_commutes_with_grid_shift(self):
        # node-wise maps commute bitwise with sample permutations
        B = 3
        gf = lift_sum([random_field(B, 0), random_field(B, 1)])
        n = 2 * B
        spec = ActivationSpec("relu")
        rolled = GroupFunction(gf.grid, np.roll(
            gf.flat().reshape(-1, n, n, n), 2, axis=3).reshape(1, -1))
        a = activate(rolled, spec).flat().reshape(-1, n, n, n)
        b = np.roll(activate(gf, spec).flat().reshape(-1, n, n, n), 2, axis=3)
        assert np.array_equal(a, b)


class TestProjection:
    def test_project_column_inverts_lift(self):
        for k in (-2, 0, 1):
            f = random_field(5, k, channels=2)
            back = project_column(lift(f), k)
            assert np.abs(back.samples - f.samples).max() < 1e-12

    def test_cross_order_projection_vanishes(self):
        f = random_field(5, 1)
        other = project_column(lift(f), 0)
        assert np.abs(other.samples).max() < 1e-12

    def test_linearity_over_a_mixed_lift(self):
        B = 4
        f0, f1 = random_field(B, 0), random_field(B, 1)
        gf = lift_sum([f0, f1])
        p0 = project_column(gf, 0)
        p1 = project_column(gf, 1)
        assert np.abs(p0.samples - f0.samples).max() < 1e-12
        assert np.abs(p1.samples - f1.samples).max() < 1e-12

    def test_delta_kernel_matches_column_projection(self):
        B = 4
        gf = lift_sum([random_field(B, 0), random_field(B, 1)])
        for m in (0, 1):
            a = project_kernel(gf, delta_projection_kernel(m, B), m)
            b = project_column(gf, m)
            assert np.abs(a.samples - b.samples).max() < 1e-10

    def test_kernel_must_satisfy_mackey_constraint(self):
        B = 3
        gf = lift(random_field(B, 0))
        grid = quadrature_grid("SO3", B)
        bad = GroupFunction(grid, rng.standard_normal((1, grid.n_nodes)))
        with pytest.raises(ValueError):
            project_kernel(gf, bad, 1)

    def test_zero_kernel_projects_to_zero(self):
        B = 3
        gf = lift(random_field(B, 0))
        grid = quadrature_grid("SO3", B)
        zero = GroupFunction(grid, np.zeros((1, grid.n_nodes)))
        out = project_kernel(gf, zero, 0)
        assert np.abs(out.samples).max() == 0.0


class TestNonlinearity:
    def test_identity_like_path(self):
        # tanh(x) = x - x^3/3 + ...: at a peak sample of 1e-4 the relative
        # error is near (1e-4)^2, whatever the draw (2.0e-9 at worst over
        # seeds 0-39)
        B = 4
        f = random_field(B, 1, gen=np.random.default_rng(139))
        f = TensorField(f.grid, f.field_type,
                        f.samples * (1e-4 / np.abs(f.samples).max()))
        (out,) = nonlinearity([f], ActivationSpec("tanh"), [1], oversample=2)
        rel = (np.abs(out.samples - f.samples).max()
               / np.abs(f.samples).max())
        assert rel < 1e-6

    def test_grid_aligned_equivariance_is_exact(self):
        """For grid-aligned z-rotations of a pure-order field the pipeline
        commutes with the action to machine precision (the output stays
        bandlimited, so the spectral action is a pure sample permutation).
        Order 0 is excluded: relu of a real scalar field generates a full
        spectrum, and the exactness argument needs bandlimited output."""
        B = 4
        for k in (1, -1):
            f = random_field(B, k)
            spec = ActivationSpec("relu")
            g = Rotation3.rz(2 * np.pi * 3 / (2 * B))
            a = nonlinearity([induced_action(g, f)], spec, [k],
                             oversample=1)[0]
            b = induced_action(g, nonlinearity([f], spec, [k],
                                               oversample=1)[0])
            scale = max(1.0, np.abs(b.samples).max())
            assert np.abs(a.samples - b.samples).max() / scale < 1e-12

    def test_oversampling_reduces_aliasing(self):
        B = 4
        f = random_field(B, 0, scale=0.3)
        spec = ActivationSpec("relu")
        g = Rotation3(0.83, 0.41, 1.77)             # generic rotation
        errs = []
        for ov in (1, 2, 4):
            a = nonlinearity([induced_action(g, f)], spec, [0], oversample=ov)
            b = induced_action(g, nonlinearity([f], spec, [0],
                                               oversample=ov)[0])
            errs.append(np.abs(a[0].samples - b.samples).max()
                        / np.abs(b.samples).max())
        assert errs[0] > errs[1] > errs[2]

    def test_matches_prior_lift_project_pipeline(self):
        """The fused entry point equals composing lift_sum, activate and
        project_column by hand."""
        B = 4
        fields = [random_field(B, 0), random_field(B, -1)]
        spec = ActivationSpec("gelu")
        fused = nonlinearity(fields, spec, [0, -1], oversample=1)
        manual = [project_column(activate(lift_sum(fields), spec), m)
                  for m in (0, -1)]
        for x, y in zip(fused, manual):
            assert np.abs(x.samples - y.samples).max() < 1e-10

    def test_bad_oversample(self):
        with pytest.raises(ValueError):
            nonlinearity([random_field(3, 0)], ActivationSpec("relu"), [0],
                         oversample=0)

    def test_fractional_oversample(self):
        f = field_from_spin_coeffs([np.ones((1, 1)), np.ones((1, 3))], 0,
                                   quadrature_grid("S2", 2))
        with pytest.raises(ValueError, match="must be a positive integer"):
            nonlinearity([f], ActivationSpec("relu"), [0], oversample=1.5)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="need at least one field"):
            nonlinearity([], ActivationSpec("relu"), [0])

    @pytest.mark.parametrize("oversample", [1, 2])
    def test_inputs_on_different_grids(self, oversample):
        with pytest.raises(ValueError, match="share a grid"):
            nonlinearity([random_field(4, 0), random_field(3, 1)],
                         ActivationSpec("relu"), [0], oversample=oversample)

    @pytest.mark.parametrize("oversample", [1, 2])
    def test_orders_must_fit_bandwidth(self, oversample):
        spec = ActivationSpec("relu")
        with pytest.raises(ValueError, match="bandwidth"):
            nonlinearity([random_field(3, 0)], spec, [3], oversample=oversample)
        with pytest.raises(ValueError, match="bandwidth"):
            nonlinearity([random_field(3, 0)], spec, [-3], oversample=oversample)
        bad = TensorField(quadrature_grid("S2", 3), FieldType(3),
                          np.zeros((1, 36)))
        with pytest.raises(ValueError, match="bandwidth"):
            nonlinearity([bad], spec, [0], oversample=oversample)


def full_grid_nonlinearity(fields, spec, out_orders, oversample):
    """nonlinearity on the whole SO(3) grid: resample up, lift_sum, activate,
    project_column per output order, resample down (no resampling when
    oversample is 1, so outputs keep their degrees >= B)."""
    if oversample == 1:
        acted = activate(lift_sum(fields), spec)
        return [project_column(acted, m) for m in out_orders]
    B = fields[0].grid.bandwidth
    acted = activate(lift_sum([resample(f, B * oversample) for f in fields]),
                     spec)
    return [resample(project_column(acted, m), B) for m in out_orders]


class TestFiberLocalNonlinearity:
    """nonlinearity never holds the SO(3) grid, but equals the full-grid
    lift_sum -> activate -> project_column composition."""

    gen = np.random.default_rng(15)     # the MLP weights only
    SPECS = {
        "relu": ActivationSpec("relu"),
        "gelu": ActivationSpec("gelu"),
        "tanh": ActivationSpec("tanh"),
        # three channels in, two out
        "per_point_mlp": ActivationSpec("per_point_mlp", [
            (gen.standard_normal((5, 3)), gen.standard_normal(5)),
            (gen.standard_normal((2, 5)), gen.standard_normal(2))]),
    }

    @staticmethod
    def fields(B, orders, seed=16):
        gen = np.random.default_rng([seed, B])
        return [random_field(B, k, channels=3, gen=gen) for k in orders]

    def assert_matches(self, fields, spec, out_orders, oversample):
        got = nonlinearity(fields, spec, out_orders, oversample=oversample)
        want = full_grid_nonlinearity(fields, spec, out_orders, oversample)
        assert len(got) == len(want)
        scale = max(np.abs(w.samples).max() for w in want)
        for g, w, m in zip(got, want, out_orders):
            assert g.field_type == FieldType(m)
            assert g.grid == w.grid and g.samples.shape == w.samples.shape
            assert np.abs(g.samples - w.samples).max() <= 1e-14 * scale

    @pytest.mark.parametrize("oversample", [1, 2])
    @pytest.mark.parametrize("B", [3, 5])
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_matches_full_grid(self, kind, B, oversample):
        # the working grid's node count leaves a partial last block
        assert (2 * B * oversample) ** 2 % _FIBER_BLOCK != 0
        # order 0 twice; output order 2 is in no input
        self.assert_matches(self.fields(B, (0, -1, 0, 1), oversample),
                            self.SPECS[kind], [1, 2, 0, -2], oversample)

    def test_matches_full_grid_whole_blocks(self):
        assert (2 * 4 * 2) ** 2 % _FIBER_BLOCK == 0
        self.assert_matches(self.fields(4, (-1, 0, 1)), self.SPECS["relu"],
                            [-1, 0, 1], 2)

    def test_mixed_channel_counts_are_rejected(self):
        # a one-channel field is not broadcast against C-channel fields
        fields = [random_field(3, 0, gen=np.random.default_rng(17))
                  ] + self.fields(3, (1,))
        assert fields[0].channels != fields[1].channels
        with pytest.raises(ValueError, match="channel count"):
            lift_sum(fields)
        with pytest.raises(ValueError, match="channel count"):
            nonlinearity(fields, self.SPECS["tanh"], [0, 1])

    def test_no_output_orders(self):
        assert nonlinearity(self.fields(3, (0,)), self.SPECS["relu"], []) == []

    @staticmethod
    def traced_peak(B, ov, C, orders):
        gen = np.random.default_rng(18)
        fields = [random_field(B, k, channels=C, gen=gen) for k in orders]
        spec = ActivationSpec("relu")
        nonlinearity(fields, spec, orders, oversample=ov)  # warm caches
        tracemalloc.start()
        try:
            nonlinearity(fields, spec, orders, oversample=ov)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_holds_no_lifted_grid(self):
        B, ov, C = 16, 2, 4
        peak = self.traced_peak(B, ov, C, [-1, 0, 1])
        lifted_grid = (2 * B * ov) ** 3 * C * 16      # complex samples
        assert peak < lifted_grid / 4

    def test_holds_one_rows_and_one_projection_array(self):
        # the real rows [C, nodes, 2K] and the projections [C, nodes, 2M]
        # on the working grid, and little beside them: no second copy of
        # either, one block buffer
        B, ov, C, orders = 16, 2, 4, [-1, 0, 1]
        peak = self.traced_peak(B, ov, C, orders)
        nodes = (2 * B * ov) ** 2
        rows_and_proj = 2 * (C * nodes * 2 * len(orders) * 8)
        assert peak <= 1.25 * rows_and_proj


class TestPointSphereNonlin:
    def _features(self, n_pts, n_ch, lmax, scale):
        return [scale * rng.standard_normal((n_pts, 2 * l + 1, n_ch))
                for l in range(lmax + 1)]

    def test_near_linear_limit(self):
        feats = self._features(3, 2, 2, 1e-5)
        out = point_sphere_nonlin(feats, ActivationSpec("tanh"), 8)
        for f, o in zip(feats, out):
            assert np.abs(o - f).max() / np.abs(f).max() < 1e-8

    def test_per_point_equivariance(self):
        """Rotating every point's feature stack commutes with the
        nonlinearity (up to activation aliasing, small at this amplitude)."""
        lmax, Bs = 2, 8
        feats = self._features(4, 1, lmax, 0.02)
        spec = ActivationSpec("tanh")
        g = Rotation3(1.1, 0.7, -0.4)
        D = [wigner_D_real(l, g) for l in range(lmax + 1)]
        rotated = [np.einsum("mn,pnc->pmc", D[l], feats[l])
                   for l in range(lmax + 1)]
        a = point_sphere_nonlin(rotated, spec, Bs)
        b = point_sphere_nonlin(feats, spec, Bs)
        b_rot = [np.einsum("mn,pnc->pmc", D[l], b[l])
                 for l in range(lmax + 1)]
        scale = max(np.abs(x).max() for x in b_rot)
        err = max(np.abs(x - y).max() for x, y in zip(a, b_rot)) / scale
        assert err < 1e-8

    def test_absent_orders_stay_absent(self):
        feats = [rng.standard_normal((2, 1, 1)), None,
                 rng.standard_normal((2, 5, 1))]
        out = point_sphere_nonlin(feats, ActivationSpec("relu"), 6)
        assert out[1] is None and out[0].shape == (2, 1, 1)

    def test_no_points(self):
        feats = [np.zeros((0, 1, 2)), None, np.zeros((0, 5, 2))]
        out = point_sphere_nonlin(feats, ActivationSpec("gelu"), 4)
        assert out[0].shape == (0, 1, 2) and out[1] is None
        assert out[2].shape == (0, 5, 2)

    def test_no_feature_orders(self):
        with pytest.raises(ValueError, match="at least one feature order"):
            point_sphere_nonlin([None, None], ActivationSpec("relu"), 4)

    @pytest.mark.parametrize("shapes", [
        [(5, 1, 4), (5, 3, 1)],       # one channel would be broadcast
        [(5, 1, 2), (1, 3, 2)],       # one point would be broadcast
        [(5, 1, 2), (5, 1, 2)],       # order 1 with one component
    ])
    def test_feature_shapes_must_agree(self, shapes):
        feats = [rng.standard_normal(s) for s in shapes]
        (p0, _, c0), (p1, d1, c1) = shapes
        with pytest.raises(ValueError) as err:
            point_sphere_nonlin(feats, ActivationSpec("relu"), 4)
        assert str((p1, d1, c1)) in str(err.value)
        assert f"{p0} points and {c0} channels" in str(err.value)

    def test_order_must_fit_bandwidth(self):
        feats = [None, None, rng.standard_normal((1, 5, 1))]
        with pytest.raises(ValueError):
            point_sphere_nonlin(feats, ActivationSpec("relu"), 2)


class TestErf:
    TOL = 2.3e-16

    def check(self, x):
        got = _erf(x)
        want = np.array([math.erf(v) for v in x])
        assert got.shape == x.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= self.TOL
        return got

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                      1e-310, -2.2e-308, np.finfo(float).tiny])
        got = self.check(x)
        assert np.array_equal(np.signbit(got[:2]), [False, True])
        assert list(got[2:4]) == [1.0, -1.0]

    def test_breakpoints(self):
        b = np.array([2.0 ** -1015, 2.0 ** -28, 0.84375, 1.25, 1 / 0.35,
                      2.8571434020996094, 6.0])
        x = np.concatenate([b, np.nextafter(b, 0), np.nextafter(b, np.inf)])
        self.check(np.concatenate([x, -x]))

    def test_random(self):
        self.check(np.random.default_rng(11).uniform(-7, 7, 10 ** 6))

    def test_keeps_shape(self):
        x = np.random.default_rng(13).uniform(-2, 2, (2, 3, 4))
        assert _erf(x).shape == (2, 3, 4)
        assert _erf(0.5) == math.erf(0.5)

    def test_equals_one_mask_per_piece_bit_for_bit(self):
        """The bulk-piece dispatch against a mask, gather and scatter per
        piece, on arrays mixing pieces and on single-piece arrays."""
        def masked(x):
            ax, out = np.abs(x), np.sign(x)
            for lo, hi, piece in zip([0.0, *_ERF_EDGES[:-1]], _ERF_EDGES,
                                     _ERF_PIECES):
                m = (ax >= lo) & (ax < hi)
                if m.any():
                    out[m] = piece(x[m], ax[m])
            return out

        e = np.array([2.0 ** -1015, *_ERF_EDGES, 5e-324])
        e = np.concatenate([e, np.nextafter(e, 0), np.nextafter(e, np.inf)])
        special = np.array([0.0, -0.0, 6.0, -6.0, np.inf, -np.inf, np.nan, -np.nan])
        rng = np.random.default_rng(17)
        arrays = [np.concatenate([e, -e, special]),
                  rng.permutation(np.concatenate([e, -e, special,
                                                  rng.uniform(-7, 7, 500)])),
                  rng.uniform(-0.8, 0.8, 300), rng.uniform(7, 9, 5),
                  np.array([np.nan, 0.1]), np.array([np.nan, np.inf]),
                  np.array([-np.nan]), np.array([0.1, 2.0]),
                  np.array([np.nan, 7.0, -np.nan, 0.1]),
                  np.array([1e-30, -2e-29, 0.5, -0.0])]
        # shaped like a 32,768-sample GELU block of the point-cloud layer's
        # second nonlinearity: all below 0.84375 but for a few values below
        # 2^-28, +-0.0 among them
        block = rng.uniform(-0.8, 0.8, 32 * 1024)
        block[rng.choice(block.size, 6, replace=False)] = [
            0.0, -0.0, 3e-9, -1e-12, 5e-324, -2.0 ** -29]
        arrays.append(block)
        for x in arrays:
            assert np.array_equal(_erf(x).view(np.int64), masked(x).view(np.int64))


def per_point_oracle(features, spec, bandwidth):
    """point_sphere_nonlin as one einsum synthesis, one activation call per
    point and one einsum analysis."""
    lmax = max(l for l, f in enumerate(features) if f is not None)
    grid = quadrature_grid("S2", bandwidth)
    Y = real_sph_harm_matrix(lmax, grid.nodes[:, 0], grid.nodes[:, 1])
    n_pts, _, n_ch = next(f.shape for f in features if f is not None)
    coeff = np.zeros((n_pts, (lmax + 1) ** 2, n_ch))
    for l, f in enumerate(features):
        if f is not None:
            coeff[:, l * l:(l + 1) * (l + 1)] = f
    vals = np.einsum("pdc,nd->pcn", coeff, Y)
    acted = np.stack([spec.apply_real(v) for v in vals])
    back = np.einsum("pcn,nd,n->pdc", acted, Y, grid.weights)
    return [None if f is None else back[:, l * l:(l + 1) * (l + 1)]
            for l, f in enumerate(features)]


class TestPointSphereNonlinBlocks:
    rng = np.random.default_rng(14)
    SPECS = {
        "relu": ActivationSpec("relu"),
        "gelu": ActivationSpec("gelu"),
        "tanh": ActivationSpec("tanh"),
        "per_point_mlp": ActivationSpec("per_point_mlp", [
            (rng.standard_normal((5, 3)), rng.standard_normal(5)),
            (rng.standard_normal((2, 5)), rng.standard_normal(2))]),
    }

    @pytest.mark.parametrize("n_points", [1, 31, 33, 70])
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_matches_per_point_loop(self, kind, n_points):
        spec = self.SPECS[kind]
        feats = [self.rng.standard_normal((n_points, 1, 3)), None,
                 self.rng.standard_normal((n_points, 5, 3))]
        got = point_sphere_nonlin(feats, spec, 6)
        want = per_point_oracle(feats, spec, 6)
        assert got[1] is None
        scale = max(np.abs(w).max() for w in want if w is not None)
        for g, w in zip(got, want):
            if w is not None:
                assert g.shape == w.shape
                assert np.abs(g - w).max() <= 1e-14 * scale
