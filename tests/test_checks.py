"""The conv-commutes-with-action check, which applies the induced action to
a block of rotations at once: it still fails on a convolution that is not
equivariant, sends every drawn rotation through both sides in bounded
blocks, draws them block by block, and runs no Wigner-d recursion once
Delta = d(pi/2) is cached; a wrong quarter-turn phase in the rotation chain
or a wrong quadrature weight fails the suite."""

import tracemalloc

import numpy as np
import pytest

from homharm import checks, groups, harmonics, spectral_conv

NAME = "conv-commutes-with-action"


def conv_check(B: int, trials: int) -> float:
    cfg = checks.default_config()
    cfg.update(bandwidth=B, trials=trials, seed=1)
    return checks._check_conv_equivariance(checks._rng_for(cfg, NAME)[0], cfg)


def test_non_equivariant_conv_fails(monkeypatch):
    """Scaling output row m by a factor that depends on m keeps the output
    column-sparse but breaks equivariance; the check must report it."""
    scale_degrees = spectral_conv._scale_degrees

    def skewed(kernel, cols):
        return [None if c is None else c * (1.0 + 0.1 * np.arange(c.shape[-1]))
                for c in scale_degrees(kernel, cols)]

    def conv_result():
        report = checks.run_suite("conv-equivariance", {"bandwidth": 4})
        return next(c for c in report.checks if c.name == NAME)

    assert conv_result().passed
    monkeypatch.setattr(spectral_conv, "_scale_degrees", skewed)
    result = conv_result()
    assert result.error is None
    assert not result.passed and result.measured_error > 1e-3


def test_rotations_go_through_both_sides_in_bounded_blocks(monkeypatch):
    blocks = []
    batched = checks._induced_actions

    def recorded(rotations, field):
        blocks.append([(g.alpha, g.beta, g.gamma) for g in rotations])
        return batched(rotations, field)

    monkeypatch.setattr(checks, "_induced_actions", recorded)
    trials = checks._ROTATION_BLOCK + 3
    conv_check(2, trials)
    pairs = len(checks._orders(2)) ** 2
    full = checks._ROTATION_BLOCK
    assert [len(b) for b in blocks] == [full, full, 3, 3] * pairs
    assert blocks[0::2] == blocks[1::2]          # f and conv(f) see the same g
    drawn = [g for b in blocks[0::2] for g in b]
    assert len(set(drawn)) == trials * pairs
    # the draws of one list of all trials per order pair, drawn up front:
    # drawing block by block leaves the report bytes as they were
    rng = checks._rng_for(checks.default_config() | {"seed": 1}, NAME)[0]
    want = []
    for m_in in checks._orders(2):
        for m_out in checks._orders(2):
            checks._rand_kernel(rng, 2, m_in, m_out)
            checks._rand_field(rng, 2, m_in)
            want += [checks._rand_rotation(rng) for _ in range(trials)]
    assert drawn == [(g.alpha, g.beta, g.gamma) for g in want]


def test_one_wigner_recursion_builds_delta_and_none_follows(monkeypatch):
    calls = []
    stack = harmonics.wigner_d_stack

    def counted(lmax, betas):
        calls.append(lmax)
        return stack(lmax, betas)

    monkeypatch.setattr(harmonics, "wigner_d_stack", counted)
    monkeypatch.setattr(harmonics, "_deltas", [])
    assert conv_check(4, 20) <= 1e-8
    assert calls == [3]                          # Delta^l for l <= B - 1
    assert conv_check(4, 20) <= 1e-8
    assert calls == [3]


def test_conjugated_quarter_turns_fail_the_suite(monkeypatch):
    """Conjugating i^n in the rotation chain turns each rotation g into
    (alpha + pi, beta, gamma + pi).  The S^2 checks that rotate both sides
    with the same chain cannot see it; the checks that compare with rotated
    points must."""
    cfg = {"bandwidth": 4, "seed": 1}
    assert checks.run_suite("all", cfg).passed
    monkeypatch.setattr(harmonics, "_I_POWERS", np.conj(harmonics._I_POWERS))
    report = checks.run_suite("all", cfg)
    failed = {c.name for c in report.checks if not c.passed}
    assert not report.passed and "se3-steerability" in failed


def test_wrong_quadrature_weight_fails_the_suite(monkeypatch):
    """One colatitude weight off by a relative 1e-6 breaks every quadrature:
    the transform checks, which read 0 or about 1e-15 on the true weights,
    each measure above 1e-8 against their 1e-10 tolerance."""
    cfg = {"bandwidth": 8, "seed": 1}
    names = {"parseval", "sht-round-trip", "so3-round-trip",
             "sht-aliasing-detection", "delta-kernel-projection"}
    report = checks.run_suite("all", cfg)
    assert report.passed
    assert {c.name: c.measured_error for c in report.checks}["parseval"] == 0.0
    true_weights = groups._beta_weights

    def wrong_weights(B):
        w = true_weights(B).copy()
        w[1] *= 1 + 1e-6           # w[0] is 0 (beta = 0), so scale the next
        w.setflags(write=False)
        return w

    monkeypatch.setattr(groups, "_beta_weights", wrong_weights)
    report = checks.run_suite("all", cfg)
    failed = {c.name: c.measured_error for c in report.checks if not c.passed}
    assert names <= set(failed)
    assert min(failed[name] for name in names) > 1e-8


def test_rotations_are_drawn_block_by_block():
    """--trials does not build a list of all its rotations: the check's
    peak traced memory at ten times the trials stays flat."""
    conv_check(2, 32)                            # warm the caches

    def peak(trials):
        tracemalloc.start()
        try:
            conv_check(2, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(320) <= 1.25 * peak(32)


def test_off_column_amplitude_of_1e_6_fails(monkeypatch):
    """lift-off-column-energy compares an amplitude with its tolerance: a
    lift whose spectrum leaks 1e-6 of its amplitude outside column k fails,
    where the energy ratio (1e-12) would pass a 1e-10 tolerance."""
    forward = checks.so3_ft_forward

    def leaky(samples, grid):
        blocks = forward(samples, grid)
        top = blocks.blocks[-1]                     # degree B - 1
        col = np.argmax(np.sum(np.abs(top) ** 2, axis=(0, 1)))  # column k
        top[0, 0, (col + 1) % top.shape[2]] += 1e-6 * np.sqrt(
            blocks.norm_squared() / top.shape[2])
        return blocks

    def off_column():
        report = checks.run_suite("all", {"bandwidth": 4, "seed": 1})
        return next(c for c in report.checks
                    if c.name == "lift-off-column-energy")

    assert off_column().passed
    monkeypatch.setattr(checks, "so3_ft_forward", leaky)
    result = off_column()
    assert result.error is None and not result.passed
    assert result.measured_error == pytest.approx(1e-6, rel=1e-3)
