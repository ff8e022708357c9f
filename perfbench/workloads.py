"""The benchmark's workloads.

Each workload is built from its parameters (spec.json) and the run's seed;
the library receives only the inputs generated here.  ``op(i)`` runs op
number i (op 0 is the untimed warm-up) and returns its output;
``verify(i, output)`` checks that output outside the timed region and
returns an error message, or None when it is correct; ``op_counts(output)``
gives the per-op numbers the benchmark counts itself rather than traces;
``facts`` describes the generated inputs, and the worst verification error
seen, for the result file.
"""

from __future__ import annotations

import math

import numpy as np

# ops call the library through its module attributes, which the traced run
# rebinds to span-recording wrappers
from homharm import checks, nonlin, se_kernels, spectral_conv
from homharm.fields import TensorField, field_from_spin_coeffs
from homharm.groups import Rotation3, quadrature_grid
from homharm.harmonics import wigner_D_real
from homharm.nonlin import ActivationSpec
from homharm.se_kernels import PointCloud, SE3KernelBasis, tfn_point_conv
from homharm.spectral_conv import SparseKernelSpec, kernel_degrees


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    if not np.all(np.isfinite(got)):
        return math.inf
    scale = float(np.abs(want).max())
    err = float(np.abs(got - want).max())
    return err / scale if scale > 0 else err


class CheckSuite:
    """One op is the whole property-check suite, as ``homharm check`` runs it."""

    def __init__(self, params: dict, seed: int):
        self.suite = params["suite"]
        self.config = {"bandwidth": params["bandwidth"], "seed": seed}
        self.reference = None
        self.facts = {}

    def op(self, i: int):
        return checks.run_suite(self.suite, dict(self.config))

    def verify(self, i: int, report) -> str | None:
        if not report.passed:
            bad = [c.name for c in report.checks if not c.passed]
            return f"checks failed: {', '.join(bad)}"
        data = report.to_json_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            return "report bytes differ from the warm-up op's"
        return None

    def op_counts(self, report) -> dict:
        return {f"checks.{c.name}.s": c.wall_time_ms / 1e3 for c in report.checks}


def _roll_alpha(samples: np.ndarray, bandwidth: int, shift: int) -> np.ndarray:
    """Rotate S^2 grid samples by Rz(shift * pi / B): a roll of the alpha axis
    (nodes are row-major over (alpha, beta))."""
    n = 2 * bandwidth
    c, _, d = samples.shape
    return np.roll(samples.reshape(c, n, n, d), shift, axis=1).reshape(c, n * n, d)


class S2Layer:
    """One op is an S^2 layer forward: conv_field with one sparse kernel per
    output order, then the lift-activate-project nonlinearity."""

    def __init__(self, params: dict, seed: int):
        rng = np.random.default_rng(seed)
        B = self.bandwidth = params["bandwidth"]
        C = params["channels"]
        k = params["in_order"]
        self.out_orders = list(params["out_orders"])
        self.oversample = params["oversample"]
        self.spec = ActivationSpec(params["activation"])
        self.tol = params["tolerances"]
        grid = quadrature_grid("S2", B)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        coeffs = [None] * B
        for l in range(abs(k), B):
            coeffs[l] = cplx(C, 2 * l + 1)
        f = field_from_spin_coeffs(coeffs, k, grid)
        self.kernels = [SparseKernelSpec(k, m, B, cplx(C, C, len(kernel_degrees(k, m, B))))
                        for m in self.out_orders]
        # orientation 0 is f, orientation 1 its rotation by one alpha node
        self.inputs = [f, TensorField(grid, f.field_type, _roll_alpha(f.samples, B, 1))]
        # the conv stage's exact answer: a^l scaled by c^l / (2l+1)
        self.expected_conv = []
        for ker in self.kernels:
            scaled = [None] * B
            for l in ker.degrees:
                scaled[l] = (ker.coeff(l) / (2 * l + 1)) @ coeffs[l]
            want = field_from_spin_coeffs(scaled, ker.m_out, grid).samples
            self.expected_conv.append([want, _roll_alpha(want, B, 1)])
        self.last = [None, None]
        self.facts = {"conv_stage": 0.0, "rotation_pair": 0.0}   # worst errors

    def _record(self, key: str, err: float) -> bool:
        self.facts[key] = max(self.facts[key], err)
        return err <= self.tol[key]

    def op(self, i: int):
        f = self.inputs[i % 2]
        conv = [spectral_conv.conv_field(f, ker) for ker in self.kernels]
        out = nonlin.nonlinearity(conv, self.spec, self.out_orders,
                                  oversample=self.oversample)
        return conv, out

    def verify(self, i: int, output) -> str | None:
        conv, out = output
        side = i % 2
        for m, got, want in zip(self.out_orders, conv, self.expected_conv):
            err = _rel_err(got.samples, want[side])
            if not self._record("conv_stage", err):
                return f"conv 0->{m} differs from c^l/(2l+1) a^l: {err:.3e}"
        other = self.last[1 - side]
        self.last[side] = out
        if other is None:
            return None
        shift = 1 if side == 1 else -1
        for m, got, ref in zip(self.out_orders, out, other):
            err = _rel_err(got.samples, _roll_alpha(ref.samples, self.bandwidth, shift))
            if not self._record("rotation_pair", err):
                return f"order {m} output not equivariant under Rz(pi/B): {err:.3e}"
        return None

    def op_counts(self, output) -> dict:
        return {}


def cube_side(n: int, radius: float, mean_neighbours: float) -> float:
    """Side L of a cube in which n uniform points have the given expected
    neighbour count within the radius, loss at the faces included.

    For radius <= L the probability that two uniform points lie within the
    radius is the integral over the ball of prod_k (1 - |d_k| / L), divided
    by L^3; its terms integrate in closed form.
    """
    r = radius

    def expected(L: float) -> float:
        overlap = (4 * math.pi * r ** 3 / 3 - 1.5 * math.pi * r ** 4 / L
                   + 1.6 * r ** 5 / L ** 2 - r ** 6 / (6 * L ** 3))
        return (n - 1) * overlap / L ** 3

    lo, hi = r, r * (n / mean_neighbours + 1) ** (1 / 3) * 4
    if expected(lo) <= mean_neighbours:
        raise ValueError("too few points for that neighbour count")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if expected(mid) > mean_neighbours else (lo, mid)
    return 0.5 * (lo + hi)


class SE3Cloud:
    """One op is a two-layer SE(3) pass (se3_layer twice) over a point cloud."""

    def __init__(self, params: dict, seed: int):
        rng = np.random.default_rng(seed)
        n = params["n_points"]
        C = params["channels"]
        lmax = params["lmax"]
        self.radius = params["radius"]
        self.bandwidth = params["sphere_bandwidth"]
        self.spec = ActivationSpec(params["activation"])
        self.tol = params["tolerances"]
        self.side = cube_side(n, self.radius, params["mean_neighbours"])
        pos = rng.uniform(0.0, self.side, (n, 3))
        feats = [rng.standard_normal((n, 2 * l + 1, C)) for l in range(lmax + 1)]
        radii = np.linspace(0.0, self.radius, params["radial_samples"])
        terms = []
        for l_in in range(lmax + 1):
            for l_out in range(lmax + 1):
                for t in range(abs(l_in - l_out), l_in + l_out + 1):
                    terms.append((SE3KernelBasis(l_in, l_out, t, radii,
                                                 rng.standard_normal(radii.size)),
                                  rng.standard_normal((C, C))))
        cloud = PointCloud(pos, feats)
        # one weight scale, fixed from the untransformed cloud, keeps conv
        # outputs in the activation's near-linear range so the pair check
        # measures equivariance rather than aliasing
        amp = max(np.abs(f).max() for f in tfn_point_conv(cloud, terms, self.radius)
                  if f is not None)
        scale = params["tame_target"] / amp if amp > 0 else 1.0
        self.terms = [(basis, w * scale) for basis, w in terms]
        g = Rotation3(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                      rng.uniform(-np.pi, np.pi))
        shift = rng.standard_normal(3) * self.side
        self.D = [wigner_D_real(l, g) for l in range(lmax + 1)]
        moved = PointCloud(pos @ g.matrix().T + shift, self._rotate(feats))
        self.clouds = [cloud, moved]
        dist = np.linalg.norm(pos[None, :, :] - pos[:, None, :], axis=2)
        self.pairs = int(np.count_nonzero(dist < self.radius)) - n
        self.facts = {"cube_side": self.side, "neighbour_pairs": self.pairs,
                      "mean_neighbours": self.pairs / n, "rototranslation_pair": 0.0}
        self.last = [None, None]

    def _rotate(self, feats: list) -> list:
        return [None if f is None else np.einsum("ij,njc->nic", self.D[l], f)
                for l, f in enumerate(feats)]

    def op(self, i: int):
        cloud = self.clouds[i % 2]
        mid = se_kernels.se3_layer(cloud, self.terms, self.radius, self.spec,
                                   self.bandwidth)
        return se_kernels.se3_layer(PointCloud(cloud.positions, mid), self.terms,
                                    self.radius, self.spec, self.bandwidth)

    def verify(self, i: int, out: list) -> str | None:
        side = i % 2
        other = self.last[1 - side]
        self.last[side] = out
        if other is None:
            return None
        plain, moved = (other, out) if side == 1 else (out, other)
        want = np.concatenate([f.ravel() for f in self._rotate(plain) if f is not None])
        got = np.concatenate([f.ravel() for f in moved if f is not None])
        err = _rel_err(got, want)
        self.facts["rototranslation_pair"] = max(self.facts["rototranslation_pair"], err)
        if not err <= self.tol["rototranslation_pair"]:
            return f"output not equivariant under the rototranslation: {err:.3e}"
        return None

    def op_counts(self, out) -> dict:
        # two layers, each visiting every ordered neighbour pair once
        return {"se_kernels.edges": 2 * self.pairs}


WORKLOADS = {
    "check-b8": CheckSuite,
    "s2-layer-b32": S2Layer,
    "se3-cloud-n256": SE3Cloud,
}
