import numpy as np
import pytest

from homharm import fields, harmonics
from homharm.checks import _ROTATION_BLOCK
from homharm.fields import (FieldType, GroupFunction, TensorField,
                            _induced_actions, field_from_spin_coeffs, induced_action,
                            is_mackey, lift, lift_spectrum, project,
                            regular_action, resample, spin_coeffs,
                            spin_synthesis)
from homharm.groups import Rotation3, quadrature_grid
from homharm.harmonics import _wigner_d_columns

rng = np.random.default_rng(404)


def random_field(B, order, channels=1, scale=1.0):
    """Bandlimited order-k field synthesized from random spin coefficients."""
    grid = quadrature_grid("S2", B)
    coeffs = [None] * B
    for l in range(abs(order), B):
        coeffs[l] = scale * (rng.standard_normal((channels, 2 * l + 1))
                             + 1j * rng.standard_normal((channels, 2 * l + 1)))
    return field_from_spin_coeffs(coeffs, order, grid)


def random_rotation():
    return Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                     rng.uniform(0, 2 * np.pi))


def sph_harm(l, m, alpha, beta):
    """Y^l_m = sqrt(2l+1) exp(i m alpha) d^l_{m0}(beta) at one point, with
    d^l_{m0} from the recursion's column n = 0."""
    d = list(_wigner_d_columns(l, [beta], 0, 0))[l][0, l + m, 0]
    return np.sqrt(2 * l + 1) * np.exp(1j * m * alpha) * d


class TestFieldTypes:
    def test_invalid(self):
        with pytest.raises(ValueError):
            FieldType("SO4", 0)
        with pytest.raises(ValueError):
            FieldType("SO3", -1)

    def test_only_so2_fibers(self):
        # one value per node: an SO(3)-stabilizer fiber has no field here
        assert FieldType("SO2", -3) == FieldType("SO2", -3)
        with pytest.raises(ValueError):
            FieldType("SO3", 1)

    def test_sample_shape_checked(self):
        grid = quadrature_grid("S2", 3)
        with pytest.raises(ValueError):
            TensorField(grid, FieldType("SO2", 0),
                        np.zeros((1, grid.n_nodes + 1)))
        with pytest.raises(ValueError):
            TensorField(grid, FieldType("SO2", 0),
                        np.full((1, grid.n_nodes), np.nan))


def _tensor_field(samples, B=2):
    return TensorField(quadrature_grid("S2", B), FieldType("SO2", 1), samples)


def _group_function(samples, B=2):
    return GroupFunction(quadrature_grid("SO3", B), samples)


class TestFieldContract:
    """Both field types hold one finite complex value per grid node, as
    [channels, n_nodes, 1], through the one check fields._samples."""

    @pytest.mark.parametrize("make, n", [(_tensor_field, 16),
                                         (_group_function, 64)])
    def test_both_types_store_one_value_per_node(self, make, n):
        real = np.random.default_rng(5).standard_normal((2, n))
        for samples in (real, real[:, :, None], real + 0j):
            f = make(samples)
            assert f.samples.shape == (2, n, 1)
            assert f.samples.dtype == complex
            assert np.array_equal(f.flat(), real)

    @pytest.mark.parametrize("make, n", [(_tensor_field, 16),
                                         (_group_function, 64)])
    @pytest.mark.parametrize("bad", ["nan", "inf", "dim-2", "nodes+1",
                                     "one-axis", "four-axes"])
    def test_both_types_reject_the_same_samples(self, make, n, bad):
        samples = {"nan": np.full((1, n), np.nan),
                   "inf": np.full((1, n, 1), np.inf),
                   "dim-2": np.zeros((1, n, 2)),
                   "nodes+1": np.zeros((1, n + 1)),
                   "one-axis": np.zeros(n),
                   "four-axes": np.zeros((1, n, 1, 1))}[bad]
        with pytest.raises(ValueError):
            make(samples)

    def test_each_type_on_its_space(self):
        with pytest.raises(ValueError, match="S2 grid"):
            TensorField(quadrature_grid("SO3", 2), FieldType("SO2", 0),
                        np.zeros((1, 64)))
        with pytest.raises(ValueError, match="SO3 grid"):
            GroupFunction(quadrature_grid("S2", 2), np.zeros((1, 16)))

    @pytest.mark.parametrize("fields", [
        [_tensor_field(np.arange(32.0).reshape(2, 16) / 7)],
        [_tensor_field(np.zeros((0, 16))), _tensor_field(np.zeros((0, 16, 1)))],
        [_tensor_field(np.ones((1, 16)) * (1 + 2j)),
         TensorField(quadrature_grid("S2", 2), FieldType("SO2", -1),
                     np.zeros((1, 16)))],
        [_group_function(np.sin(np.arange(192.0)).reshape(3, 64))],
        [_group_function(np.zeros((0, 64))), _group_function(np.ones((0, 64)))],
    ], ids=["s2", "s2-no-channels", "s2-two-orders", "so3", "so3-no-channels"])
    def test_every_field_saved_loads_back(self, tmp_path, fields):
        from homharm.io import load_fields, save_fields
        path = tmp_path / "f.json"
        save_fields(path, fields)
        back = load_fields(path)
        assert [type(f) for f in back] == [type(f) for f in fields]
        for a, b in zip(back, fields):
            assert a.grid == b.grid
            assert getattr(a, "field_type", None) == getattr(b, "field_type", None)
            assert np.array_equal(a.samples, b.samples)

    def test_one_file_holds_one_grid(self, tmp_path):
        from homharm.io import save_fields
        with pytest.raises(ValueError, match="one grid"):
            save_fields(tmp_path / "f.json", [_tensor_field(np.zeros((1, 16))),
                                              _tensor_field(np.zeros((1, 36)), 3)])
        with pytest.raises(ValueError, match="one grid"):
            save_fields(tmp_path / "g.json", [_tensor_field(np.zeros((1, 16))),
                                              _group_function(np.zeros((1, 64)))])


class TestLiftProject:
    def test_lift_is_mackey(self):
        for k in (-2, -1, 0, 1, 2):
            gf = lift(random_field(8, k))
            ok, residual = is_mackey(gf, FieldType("SO2", k))
            assert ok and residual <= 1e-10

    def test_lift_spectrum_off_column_amplitude(self):
        for k in (-2, -1, 0, 1, 2):
            blocks = lift_spectrum(random_field(8, k))
            assert blocks.off_column(k) <= 1e-10

    def test_lift_spectrum_column_is_spin_coeffs(self):
        for k in (-2, -1, 0, 1, 2):
            field = random_field(6, k, channels=2)
            col, want = lift_spectrum(field).column(k), spin_coeffs(field)
            assert len(col) == len(want) == 6
            for l, (a, b) in enumerate(zip(col, want)):
                assert (a is None) == (b is None) == (l < abs(k))
                assert a is None or np.array_equal(a, b)

    def test_non_mackey_function_fails_residual_and_amplitude(self):
        grid = quadrature_grid("SO3", 4)
        vals = rng.standard_normal((1, grid.n_nodes))
        gf = GroupFunction(grid, vals)
        ok, residual = is_mackey(gf, FieldType("SO2", 1))
        assert not ok and residual > 1e-2
        from homharm.transforms import so3_ft_forward
        blocks = so3_ft_forward(gf.flat(), gf.grid)
        assert blocks.off_column(1) > 1e-1

    def test_project_after_lift_is_identity(self):
        field = random_field(6, 2, channels=3)
        back = project(lift(field), field.field_type)
        assert np.abs(back.samples - field.samples).max() < 1e-12

    def test_order_must_fit_bandwidth(self):
        grid = quadrature_grid("S2", 3)
        field = TensorField(grid, FieldType("SO2", 3),
                            np.zeros((1, grid.n_nodes)))
        with pytest.raises(ValueError):
            lift(field)


class TestSpinCoefficients:
    def test_analysis_synthesis_round_trip(self):
        field = random_field(7, -1, channels=2)
        coeffs = spin_coeffs(field)
        again = field_from_spin_coeffs(coeffs, -1, field.grid)
        assert np.abs(again.samples - field.samples).max() < 1e-12

    def test_coeffs_match_lift_spectrum(self):
        field = random_field(5, 2)
        coeffs = spin_coeffs(field)
        blocks = lift_spectrum(field)
        for l in range(2, 5):
            assert np.allclose(blocks.blocks[l][:, :, 2 + l], coeffs[l],
                               atol=1e-14)

    def test_resample_round_trip(self):
        field = random_field(4, 1)
        fine = resample(field, 7)
        back = resample(fine, 4)
        assert np.abs(back.samples - field.samples).max() < 1e-12

    def test_coarsening_equals_truncated_full_analysis(self):
        # resample analyses only the degrees it keeps; the result must be
        # bitwise the truncation of the full analysis
        field = random_field(9, -2, channels=2)
        coarse = quadrature_grid("S2", 5)
        full = field_from_spin_coeffs(spin_coeffs(field)[:5], -2, coarse)
        assert np.array_equal(resample(field, 5).samples, full.samples)

    def test_synthesis_needs_a_coefficient_block(self):
        with pytest.raises(ValueError, match="no spin coefficients"):
            spin_synthesis([None] * 3, 0, quadrature_grid("S2", 3))


class TestActions:
    def test_lift_intertwines_the_actions(self):
        """lift(L_g f) equals the left-regular action on lift(f)."""
        field = random_field(6, 1)
        g = random_rotation()
        a = lift(induced_action(g, field)).flat()
        b = regular_action(g, lift(field)).flat()
        assert np.abs(a - b).max() < 1e-10

    @pytest.mark.parametrize("n_rot", [5, _ROTATION_BLOCK + 1])
    def test_batched_actions_match_single_rotations(self, n_rot):
        """Channel r * C + c of the batched action is channel c of L_{g_r} f."""
        field = random_field(6, 1, channels=3)
        rots = [random_rotation() for _ in range(n_rot)]
        out = _induced_actions(rots, field)
        assert out.samples.shape == (3 * n_rot,) + field.samples.shape[1:]
        for r, g in enumerate(rots):
            ref = induced_action(g, field).samples
            err = np.abs(out.samples[3 * r:3 * r + 3] - ref).max()
            assert err <= 1e-14 * np.abs(ref).max()

    def test_actions_never_form_wigner_blocks(self, monkeypatch):
        """Both actions rotate through _rotate; neither builds D^l."""
        def forbidden(*args):
            raise AssertionError("_wigner_D_blocks called")

        monkeypatch.setattr(harmonics, "_wigner_D_blocks", forbidden)
        monkeypatch.setattr(fields, "_wigner_D_blocks", forbidden, raising=False)
        field, g = random_field(6, 1, channels=2), random_rotation()
        a = lift(_induced_actions([g], field)).flat()
        assert np.abs(a - regular_action(g, lift(field)).flat()).max() < 1e-10

    def test_action_is_a_homomorphism(self):
        field = random_field(6, -2)
        g1, g2 = random_rotation(), random_rotation()
        a = induced_action(g1, induced_action(g2, field)).samples
        b = induced_action(g1.compose(g2), field).samples
        assert np.abs(a - b).max() < 1e-9

    def test_identity_acts_trivially(self):
        field = random_field(5, 0, channels=2)
        out = induced_action(Rotation3.identity(), field)
        assert np.abs(out.samples - field.samples).max() < 1e-12

    def test_scalar_action_moves_points(self):
        # for k = 0 the action is just composition with g^{-1} on the sphere:
        # g^{-1} x is the (alpha, beta) of g^{-1} times x's gamma = 0 rotation
        field = random_field(8, 0)
        g = random_rotation()
        moved = induced_action(g, field)
        from homharm.fields import spin_coeffs as sc
        # compare at grid points via synthesis of the original at g^{-1} x
        coeffs = sc(field)
        grid = field.grid
        gi = g.inverse()
        errs = []
        for idx in rng.integers(0, grid.n_nodes, 10):
            alpha, beta = grid.nodes[idx]
            h = gi.compose(Rotation3(alpha, beta, 0.0))
            y = (h.alpha, h.beta)
            val = 0.0
            for l in range(8):
                for m in range(-l, l + 1):
                    val += ((2 * l + 1) * coeffs[l][0, m + l]
                            * np.conj(sph_harm(l, m, *y))
                            / np.sqrt(2 * l + 1))
            errs.append(abs(moved.flat()[0, idx] - val))
        assert max(errs) < 1e-9

    def test_mackey_preserved_by_action(self):
        field = random_field(6, 2)
        gf = regular_action(random_rotation(), lift(field))
        ok, residual = is_mackey(gf, FieldType("SO2", 2), tol=1e-9)
        assert ok, residual
