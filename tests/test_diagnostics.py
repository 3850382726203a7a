from __future__ import annotations

import math
import re

import numpy as np
import pytest

from adaedit.diagnostics import (SSIM_SIGMA, _gaussian_kernel, psnr, ssim, velocity_jump,
                                 velocity_jump_between)
from adaedit.errors import CacheMissError
from adaedit.latent import Latent, SeededRng, sample_gaussian
from adaedit.models import (Conditioning, InjectionHooks, KVCache, ToyAttentionFlow,
                            mix_rows)
from adaedit.solvers import TimeGrid, integrate_forward

from reference_edit import reference_psnr, reference_ssim

COND = Conditioning((1, 2, 3, 4), 2)


# ----------------------------------------------------------------------- psnr

def test_psnr_identity_is_infinite():
    z = sample_gaussian(SeededRng(1), 1, 16, 2)
    assert psnr(z, z, peak=1.0) == math.inf


def test_psnr_exact_twenty_db():
    a = Latent(np.zeros((1, 4, 2)))
    b = Latent(np.full((1, 4, 2), 0.1))
    assert psnr(a, b, peak=1.0) == 20.0


def test_psnr_zero_db():
    a = Latent(np.zeros((1, 4, 2)))
    b = Latent(np.ones((1, 4, 2)))
    assert psnr(a, b, peak=1.0) == 0.0


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(Latent(np.zeros((1, 4, 2))), Latent(np.zeros((1, 4, 3))), peak=1.0)


def test_psnr_symmetric_with_fixed_peak():
    a = sample_gaussian(SeededRng(1), 1, 16, 2)
    b = sample_gaussian(SeededRng(2), 1, 16, 2)
    assert psnr(a, b, peak=2.0) == psnr(b, a, peak=2.0)


def test_psnr_default_peak_from_reference():
    a = sample_gaussian(SeededRng(1), 1, 16, 2)
    b = sample_gaussian(SeededRng(2), 1, 16, 2)
    assert psnr(a, b) == psnr(a, b, peak=float(np.ptp(a.data)))


@pytest.mark.parametrize("peak", (-1.0, 0.0, math.nan, -math.inf))
def test_psnr_rejects_a_bad_explicit_peak_even_when_the_latents_match(peak):
    z = sample_gaussian(SeededRng(1), 1, 16, 2)
    with pytest.raises(ValueError, match="peak must be positive"):
        psnr(z, z, peak=peak)
    with pytest.raises(ValueError, match="peak must be positive"):
        psnr(z, Latent(np.concatenate([z.data, z.data])), peak=peak, rows=2)
    with pytest.raises(ValueError, match="peak must be positive"):
        ssim(z, z, peak=peak)


def test_psnr_of_a_constant_reference_with_itself_is_infinite_without_a_peak():
    c = Latent(np.full((1, 16, 2), 0.5))
    assert psnr(c, c) == math.inf
    assert psnr(c, Latent(np.concatenate([c.data, c.data])), rows=2) == [math.inf] * 2
    with pytest.raises(ValueError, match="constant"):
        psnr(c, Latent(np.full((1, 16, 2), 0.25)))
    with pytest.raises(ValueError, match="constant"):
        psnr(c, Latent(np.concatenate([c.data, np.zeros((1, 16, 2))])), rows=2)


def refuse_a_reference_of_entries(metric, a, rows):
    """metric (psnr or ssim) refuses a reference of more than one entry,
    however the rows are stacked."""
    stack = Latent(np.concatenate(rows))
    message = re.escape(f"shape mismatch: one-entry {a.shape}")
    for scored, count in ((stack, len(rows)), (Latent(rows[0]), None)):
        with pytest.raises(ValueError, match=message):
            metric(Latent(a), scored, peak=0.7, rows=count)


@pytest.mark.parametrize("tokens,channels", ((1, 1), (16, 8), (64, 3), (1024, 16)))
@pytest.mark.parametrize("batch", (1, 2))
def test_stacked_psnr_equals_one_call_per_row_bitwise(tokens, channels, batch):
    # each of ``batch`` one-entry references scores its own stack of rows;
    # the reference of all of them is refused
    rng = SeededRng(31 * tokens + channels + batch)
    shape = (batch, tokens, channels)
    a = rng.standard_normal(shape)
    # the second row equals the reference (+inf), the third differs in one entry
    rows = [a + 0.3 * rng.standard_normal(shape), a.copy(), a.copy(),
            a + 2.0 * rng.standard_normal(shape)]
    for row in rows[2]:
        row[0, 0] += 1e-9
    for entry in range(batch):
        ref = Latent(a[entry:entry + 1])
        own = [row[entry:entry + 1] for row in rows]
        stack = Latent(np.concatenate(own))
        # a one-token, one-channel reference is constant and has no default peak
        for peak in (None, 0.7) if np.ptp(ref.data) > 0.0 else (0.7,):
            scores = psnr(ref, stack, peak=peak, rows=len(own))
            expected = [reference_psnr(ref, Latent(row), peak) for row in own]
            assert scores == expected
            assert [psnr(ref, Latent(row), peak=peak) for row in own] == expected
            assert scores[1] == math.inf
            assert psnr(ref, Latent(own[3]), peak=peak, rows=1) == expected[3:]
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr(ref, stack, rows=3)
    if batch > 1:
        refuse_a_reference_of_entries(psnr, a, rows)


# ----------------------------------------------------------------------- ssim

def test_ssim_identity():
    z = sample_gaussian(SeededRng(4), 1, 64, 2)
    assert abs(ssim(z, z) - 1.0) < 1e-9


def test_ssim_anticorrelated_is_negative():
    # alternating-row stripes: local means nearly vanish, so the negated
    # image flips the sign of the structure term
    g = 8
    stripes = np.tile(np.array([1.0, -1.0]), (g // 2,))[:, None] * np.ones((1, g))
    a = Latent(stripes.reshape(1, g * g, 1))
    b = Latent(-stripes.reshape(1, g * g, 1))
    assert ssim(a, b) < 0.0


def test_ssim_noise_ladder_monotone():
    a = sample_gaussian(SeededRng(42), 1, 64, 2)
    noise = SeededRng(7).standard_normal((1, 64, 2))
    mid = ssim(a, Latent(a.data + 0.1 * noise))
    far = ssim(a, Latent(a.data + 0.5 * noise))
    assert far < mid < 1.0


def test_ssim_symmetric():
    a = sample_gaussian(SeededRng(1), 1, 64, 2)
    b = sample_gaussian(SeededRng(2), 1, 64, 2)
    assert abs(ssim(a, b, peak=3.0) - ssim(b, a, peak=3.0)) < 1e-9


def test_ssim_requires_square_grid():
    with pytest.raises(ValueError):
        ssim(Latent(np.zeros((1, 12, 1))), Latent(np.zeros((1, 12, 1))), peak=1.0)


@pytest.mark.parametrize("g", (1, 2, 3, 4, 16))
@pytest.mark.parametrize("batch", (1, 2))
@pytest.mark.parametrize("channels", (1, 3, 8))
def test_ssim_equals_the_per_plane_reference_bitwise(g, batch, channels):
    # ``batch`` one-entry pairs, each scored alone; their stack as a
    # reference is refused
    rng = SeededRng(1000 * g + 10 * batch + channels)
    shape = (batch, g * g, channels)
    a = rng.standard_normal(shape)
    b = a + 0.3 * rng.standard_normal(shape)
    # constant planes: the first channel of a, the last of b
    a[:, :, 0] = 0.5
    b[:, :, -1] = -1.25
    for entry in range(batch):
        x, y = Latent(a[entry:entry + 1]), Latent(b[entry:entry + 1])
        for peak in (float(np.ptp(a)) or 1.0, 0.7):
            assert ssim(x, y, peak=peak) == reference_ssim(x, y, peak)
            assert ssim(y, x, peak=peak) == reference_ssim(y, x, peak)
    if batch > 1:
        refuse_a_reference_of_entries(ssim, a, [b])


@pytest.mark.parametrize("g", (1, 3, 4, 16))
@pytest.mark.parametrize("batch", (1, 2))
def test_stacked_ssim_equals_one_call_per_row_bitwise(g, batch):
    # each of ``batch`` one-entry references scores its own stack of rows;
    # the reference of all of them is refused
    rng = SeededRng(7 * g + batch)
    shape = (batch, g * g, 3)
    a = rng.standard_normal(shape)
    rows = [a + scale * rng.standard_normal(shape) for scale in (0.0, 0.1, 0.5, 2.0)]
    rows[2][:, :, 1] = -1.25  # a constant plane
    for entry in range(batch):
        ref = Latent(a[entry:entry + 1])
        own = [row[entry:entry + 1] for row in rows]
        stack = Latent(np.concatenate(own))
        for peak in (float(np.ptp(ref.data)), 0.7):
            scores = ssim(ref, stack, peak=peak, rows=len(own))
            assert scores == [ssim(ref, Latent(row), peak=peak) for row in own]
            assert scores == [reference_ssim(ref, Latent(row), peak) for row in own]
            # a stack of one is one value in a list
            assert ssim(ref, Latent(own[3]), peak=peak, rows=1) == scores[3:]
        with pytest.raises(ValueError, match="shape mismatch"):
            ssim(ref, stack, rows=3)
    if batch > 1:
        refuse_a_reference_of_entries(ssim, a, rows)


@pytest.mark.parametrize("window", (1, 3, 5, 7))
def test_gaussian_kernel_is_built_once_and_read_only(window):
    kernel = _gaussian_kernel(window)
    assert _gaussian_kernel(window) is kernel
    assert not kernel.flags.writeable
    x = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(x ** 2) / (2.0 * SSIM_SIGMA ** 2))
    fresh = np.outer(g, g)
    assert np.array_equal(kernel, fresh / fresh.sum())


# -------------------------------------------------------------- velocity jump

def recorded_state(seed=0):
    flow = ToyAttentionFlow(seed=seed)
    z = sample_gaussian(SeededRng(50 + seed), 1, 16, 8)
    cache = KVCache()
    flow.evaluate(z, 0.25, COND, InjectionHooks("record", cache=cache, step=3))
    return flow, z, cache


def test_velocity_jump_zero_delta_is_exactly_zero():
    flow, z, cache = recorded_state()
    for t in (0.0, 0.25, 0.8):
        assert velocity_jump(flow, z, t, COND, cache, 3, 0.0) == 0.0


def test_velocity_jump_self_injection_noop():
    flow, z, cache = recorded_state()
    assert velocity_jump(flow, z, 0.25, COND, cache, 3, 1.0, global_mix=True) < 1e-6


def test_velocity_jump_positive_on_other_state():
    flow, z, cache = recorded_state()
    other = sample_gaussian(SeededRng(99), 1, 16, 8)
    assert velocity_jump(flow, other, 0.25, COND, cache, 3, 0.9, global_mix=True) > 0.0


def test_velocity_jump_cache_miss():
    flow, z, cache = recorded_state()
    with pytest.raises(CacheMissError):
        velocity_jump(flow, z, 0.25, COND, cache, 7, 0.5)


def test_velocity_jump_takes_one_latent_entry():
    flow, z, cache = recorded_state()
    pair = Latent(np.concatenate([z.data, z.data]))
    with pytest.raises(ValueError, match="2 latent entries take one Conditioning each, got 1"):
        velocity_jump(flow, pair, 0.25, COND, cache, 3, 0.5)


def test_velocity_jump_between_equal_profiles_zero():
    flow, z, cache = recorded_state()
    (mixes,) = mix_rows([[[0.4], [0.4]]], [None], [True], flow.text_tokens + flow.img_tokens)
    assert velocity_jump_between(flow, z, 0.25, [COND], cache, 3, mixes, mixes) == [0.0]


def test_velocity_jump_matches_two_explicit_calls_bitwise():
    flow, z, cache = recorded_state()
    hooks = InjectionHooks("inject", cache=cache, step=3,
                           mix_ratios=(0.9, 0.9), global_mix=True)
    direct = float(np.linalg.norm(
        flow.evaluate(z, 0.25, COND, hooks).data
        - flow.evaluate(z, 0.25, COND, None).data))
    assert velocity_jump(flow, z, 0.25, COND, cache, 3, 0.9, global_mix=True) == direct


def test_deviation_between_schedules_localizes_after_cutoff():
    # binary and sigmoid sampling runs from one inversion: their largest
    # per-step distance accumulates at or after the binary cutoff step
    from adaedit.pipeline import EditConfig, build_model, build_schedule, generate_source_latent
    from adaedit.schedules import effective_ratio, is_active
    from adaedit.solvers import integrate_backward

    cfg = EditConfig(seed=2, alpha=0.0)
    src = generate_source_latent(cfg)
    model = build_model(cfg)
    grid = TimeGrid.uniform(cfg.total_steps)
    cache = KVCache()

    def record_hooks(i):
        return InjectionHooks("record", cache=cache, step=i)

    z_inv = integrate_backward(model, src, grid, cfg.solver,
                               cfg.source_conditioning(), record_hooks).final

    def sampling(schedule_family):
        schedule = build_schedule(
            EditConfig(seed=2, schedule=schedule_family, alpha=0.0))

        def hooks(i):
            if not is_active(schedule, i):
                return None
            delta = effective_ratio(schedule, cfg.delta_base, i)
            return InjectionHooks("inject", cache=cache, step=i,
                                  mix_ratios=(delta, delta), global_mix=True)

        return integrate_forward(model, z_inv, grid, cfg.solver,
                                 cfg.target_conditioning(), hooks)

    tr_binary = sampling("binary")
    tr_sigmoid = sampling("sigmoid")
    dists = [np.linalg.norm(a.data - b.data)
             for a, b in zip(tr_binary.states, tr_sigmoid.states)]
    assert int(np.argmax(dists)) >= cfg.injection_steps
