import dataclasses
import tracemalloc

import numpy as np
import pytest

from homharm.groups import (QuadratureGrid, Rotation3, _beta_weights,
                            _zyz_angles, _zyz_matrix, quadrature_grid)

rng = np.random.default_rng(101)


def random_rotation():
    return Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                     rng.uniform(0, 2 * np.pi))


class TestRotation3:
    def test_matrix_is_orthogonal(self):
        for _ in range(20):
            M = random_rotation().matrix()
            assert np.allclose(M @ M.T, np.eye(3), atol=1e-14)
            assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)

    def test_euler_round_trip(self):
        for _ in range(50):
            g = random_rotation()
            h = Rotation3.from_matrix(g.matrix())
            assert np.allclose(h.matrix(), g.matrix(), atol=1e-12)

    def test_compose_matches_matrix_product(self):
        for _ in range(20):
            a, b = random_rotation(), random_rotation()
            assert np.allclose(a.compose(b).matrix(), a.matrix() @ b.matrix(),
                               atol=1e-12)

    def test_inverse(self):
        g = random_rotation()
        assert np.allclose(g.compose(g.inverse()).matrix(), np.eye(3),
                           atol=1e-12)

    def test_gimbal_beta_zero(self):
        g = Rotation3.from_matrix(Rotation3.rz(1.2).matrix())
        assert g.beta == 0.0 and g.gamma == 0.0
        assert g.alpha == pytest.approx(1.2)

    def test_gimbal_beta_pi(self):
        M = (Rotation3.rz(0.7).compose(Rotation3.ry(np.pi))
             .compose(Rotation3.rz(0.2))).matrix()
        g = Rotation3.from_matrix(M)
        assert g.beta == pytest.approx(np.pi)
        assert np.allclose(g.matrix(), M, atol=1e-12)

    def test_ry_wraps_large_angles(self):
        g = Rotation3.ry(4.0)  # beyond pi
        ref = np.array([[np.cos(4.0), 0, np.sin(4.0)],
                        [0, 1, 0],
                        [-np.sin(4.0), 0, np.cos(4.0)]])
        assert np.allclose(g.matrix(), ref, atol=1e-12)

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Rotation3(0.0, -0.5, 0.0)


class TestVectorizedZYZ:
    """_zyz_matrix and _zyz_angles on arrays give, entry for entry, the bits
    of Rotation3.matrix and Rotation3.from_matrix on one rotation."""

    def test_matrices_and_angles_equal_the_scalar_methods(self):
        a = np.concatenate([rng.uniform(0, 2 * np.pi, 20), [0.0, 1.0, 5.0, 2.5]])
        b = np.concatenate([rng.uniform(0, np.pi, 20), [0.0, np.pi, 0.0, np.pi]])
        g = np.concatenate([rng.uniform(0, 2 * np.pi, 20), [0.0, 0.0, 0.0, 3.0]])
        M = _zyz_matrix(a, b, g)
        assert M.shape == (24, 3, 3)
        # products land off the canonical triples, at and near the gimbal
        M = np.concatenate([M, M @ M[::-1], M @ _zyz_matrix(0.3, np.pi, 0.4)])
        angles = _zyz_angles(M)
        for i in range(len(a)):
            assert np.array_equal(M[i], Rotation3(a[i], b[i], g[i]).matrix())
        for i in range(len(M)):
            h = Rotation3.from_matrix(M[i])
            assert [x[i] for x in angles] == [h.alpha, h.beta, h.gamma]
        assert set(angles[1][[20, 21, 22, 23]]) == {0.0, np.pi}
        assert np.all(angles[2][[20, 21, 22, 23]] == 0.0)


class TestQuadratureGrid:
    @pytest.mark.parametrize("space", ["S2", "SO3"])
    def test_weights_sum_to_one(self, space):
        grid = quadrature_grid(space, 6)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_node_counts(self):
        B = 5
        assert quadrature_grid("S2", B).n_nodes == (2 * B) ** 2
        assert quadrature_grid("SO3", B).n_nodes == (2 * B) ** 3

    @pytest.mark.parametrize("space", ["S2", "SO3"])
    def test_shape_is_the_node_axes(self, space):
        # nodes are row-major over (alpha, beta[, gamma]): reshaped to
        # shape, axis i runs over the i-th angle alone
        grid = quadrature_grid(space, 3)
        assert grid.shape == (6,) * (2 if space == "S2" else 3)
        nodes = grid.nodes.reshape(*grid.shape, -1)
        for i, angles in enumerate([grid.alphas, grid.betas, grid.gammas]
                                   [:len(grid.shape)]):
            view = np.moveaxis(nodes[..., i], i, 0).reshape(len(angles), -1)
            assert np.array_equal(view, np.repeat(angles[:, None],
                                                  view.shape[1], axis=1))

    def test_beta_weights_integrate_legendre(self):
        """The colatitude weights integrate Legendre polynomials of degree
        below 2B exactly (zero for degree >= 1 under normalized measure).
        """
        B = 6
        grid = quadrature_grid("S2", B)
        x = np.cos(grid.betas)
        wb = grid.beta_weights
        polys = [np.ones_like(x), x]
        for l in range(2, 2 * B):
            polys.append(((2 * l - 1) * x * polys[-1]
                          - (l - 1) * polys[-2]) / l)
        assert np.dot(wb, polys[0]) == pytest.approx(1.0, abs=1e-13)
        for l in range(1, 2 * B):
            assert np.dot(wb, polys[l]) == pytest.approx(0.0, abs=1e-13)

    def test_grid_is_its_space_and_bandwidth(self):
        grid = quadrature_grid("SO3", 4)
        assert [f.name for f in dataclasses.fields(grid)] == ["space",
                                                              "bandwidth"]
        assert grid == quadrature_grid("SO3", 4) == QuadratureGrid("SO3", 4)
        assert grid != quadrature_grid("S2", 4)
        assert len({grid, quadrature_grid("SO3", 4)}) == 1

    @staticmethod
    def stored_arrays(space, B):
        """The node and weight arrays as grids stored them before they were
        built on access: the expressions of that build, verbatim."""
        n = 2 * B
        alphas = np.pi * np.arange(n) / B
        betas = np.pi * np.arange(n) / n
        wb = _beta_weights(B)
        if space == "S2":
            A, Bt = np.meshgrid(alphas, betas, indexing="ij")
            nodes = np.stack([A.ravel(), Bt.ravel()], axis=1)
            weights = (np.full((n, 1), 1.0 / n) * wb[None, :]).ravel()
        else:
            A, Bt, G = np.meshgrid(alphas, betas, alphas, indexing="ij")
            nodes = np.stack([A.ravel(), Bt.ravel(), G.ravel()], axis=1)
            weights = (np.full((n, 1, 1), 1.0 / n) * wb[None, :, None]
                       * np.full((1, 1, n), 1.0 / n)).ravel()
        return nodes, weights

    @pytest.mark.parametrize("space", ["S2", "SO3"])
    @pytest.mark.parametrize("B", [1, 3, 4, 7])
    def test_nodes_and_weights_keep_their_bits(self, space, B):
        grid = quadrature_grid(space, B)
        nodes, weights = self.stored_arrays(space, B)
        assert grid.nodes.tobytes() == nodes.tobytes()
        assert grid.weights.tobytes() == weights.tobytes()
        assert nodes.shape == (grid.n_nodes, 2 if space == "S2" else 3)

    def test_large_grid_holds_nothing(self):
        # no per-node array is built: 897 MiB traced when SO(3) grids at
        # B = 128 stored their nodes and weights
        tracemalloc.start()
        try:
            assert quadrature_grid("SO3", 128).n_nodes == 256 ** 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            quadrature_grid("S2", 0)

    @pytest.mark.parametrize("space, B", [("S3", 4), ("SO3", 0), ("S2", -1),
                                          ("S2", 2.5), ("SO3", 4.0),
                                          ("S2", True), ("S2", "4")])
    def test_constructor_validates(self, space, B):
        with pytest.raises(ValueError):
            QuadratureGrid(space, B)

    def test_numpy_integer_bandwidth_is_an_int(self):
        grid = quadrature_grid("S2", np.int64(3))
        assert grid == quadrature_grid("S2", 3)
        assert type(grid.bandwidth) is int
