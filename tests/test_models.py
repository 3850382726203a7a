from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest

from adaedit import models
from adaedit.diagnostics import velocity_jump_between
from adaedit.errors import CacheMissError
from adaedit.latent import Latent, SeededRng, sample_gaussian
from adaedit.models import (SCORE_BLOCK_BYTES, AnalyticLinearFlow, AttentionRecord,
                            Conditioning, EditMask, InjectionHooks, KVCache,
                            ToyAttentionFlow, extract_mask, kv_mix, mix_rows)

COND = Conditioning((1, 2, 3, 4), 2)


def default_flow(seed=0, **kw):
    return ToyAttentionFlow(seed=seed, **kw)


def default_latent(seed=3):
    return sample_gaussian(SeededRng(seed), 1, 16, 8)


# ---------------------------------------------------------------- conditioning

def test_conditioning_validation():
    with pytest.raises(ValueError):
        Conditioning((), 0)
    with pytest.raises(ValueError):
        Conditioning((1, 2), 2)
    with pytest.raises(ValueError):
        Conditioning((1, -2), 0)


# ---------------------------------------------------------------------- cache

def test_kv_cache_round_trip_and_misses():
    cache = KVCache()
    k = np.ones((1, 4, 8))
    v = np.zeros((1, 4, 8))
    cache.put(3, 0, k, v)
    assert cache.has(3, 0)
    assert not cache.has(3, 1)
    got_k, got_v = cache.get(3, 0)
    assert np.array_equal(got_k, k)
    with pytest.raises(ValueError):
        cache.put(3, 0, k, v)
    with pytest.raises(CacheMissError):
        cache.get(4, 0)


# ----------------------------------------------------------------------- mask

def test_edit_mask_hard_derivation():
    mask = EditMask(np.array([0.2, 0.5, 0.9, 0.49]))
    assert mask.hard == (1, 2)


def test_edit_mask_validation():
    with pytest.raises(ValueError):
        EditMask(np.array([0.2, 1.3]))
    with pytest.raises(ValueError):
        EditMask(np.zeros((2, 2)))


# -------------------------------------------------------------- analytic flow

def test_analytic_flow_evaluation():
    flow = AnalyticLinearFlow(decay=-1.0, drift=np.zeros(2))
    z = Latent(np.ones((1, 4, 2)))
    assert np.array_equal(flow.evaluate(z, 0.3).data, -np.ones((1, 4, 2)))

    drift_flow = AnalyticLinearFlow(decay=0.0, drift=np.array([2.0, 0.0]))
    v = drift_flow.evaluate(z, 0.9)
    assert np.all(v.data[:, :, 0] == 2.0)
    assert np.all(v.data[:, :, 1] == 0.0)


def test_analytic_flow_closed_form():
    flow = AnalyticLinearFlow(decay=-1.0, drift=np.zeros(1))
    z0 = Latent(np.ones((1, 1, 1)))
    z1 = flow.closed_form(z0, 0.0, 1.0)
    assert abs(z1.data[0, 0, 0] - math.exp(-1.0)) < 1e-15


# --------------------------------------------------------------------- kv_mix

def reference_kv_mix(k_src, v_src, k_tgt, v_tgt, ratio, mask=None, global_mix=False):
    """One row's blend ratio*src + (1-ratio)*tgt, written out plainly: with
    global_mix (or no mask) every K/V row mixes at ratio, and ratio 1 returns
    the source; otherwise the image rows -- the trailing len(mask.soft) rows --
    mix at ratio * (1 - soft) and the text rows keep the target. All-zero
    weights return the target arrays themselves."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    n = k_tgt.shape[-2]
    base = np.ones(n)
    if not (global_mix or mask is None):
        base[:n - mask.soft.size] = 0.0
        base[n - mask.soft.size:] = 1.0 - mask.soft
    elif ratio == 1.0:
        return k_src, v_src
    w = (ratio * base)[:, None]
    if not w.any():
        return k_tgt, v_tgt
    return w * k_src + (1.0 - w) * k_tgt, w * v_src + (1.0 - w) * v_tgt


def blend(k_src, v_src, k_tgt, v_tgt, ratio, mask=None, global_mix=False):
    """kv_mix at one row's ratio, through mix_rows."""
    (mix,), = mix_rows([[[ratio]]], [mask], [global_mix], k_tgt.shape[-2])
    return kv_mix(k_src, v_src, k_tgt, v_tgt, mix, np.empty_like(k_tgt))


def test_kv_mix_ratio_zero_returns_target_bitwise():
    rng = SeededRng(1)
    k_src, v_src = rng.standard_normal((1, 6, 4)), rng.standard_normal((1, 6, 4))
    k_tgt, v_tgt = rng.standard_normal((1, 6, 4)), rng.standard_normal((1, 6, 4))
    k_was, v_was = k_tgt.copy(), v_tgt.copy()
    k, v = blend(k_src, v_src, k_tgt, v_tgt, 0.0)
    assert k is k_tgt and v is v_tgt
    assert np.array_equal(k, k_was) and np.array_equal(v, v_was)


def test_kv_mix_ratio_one_global_returns_source():
    rng = SeededRng(2)
    arrs = [rng.standard_normal((1, 6, 4)) for _ in range(4)]
    k, v = blend(*arrs, 1.0, global_mix=True)
    assert np.array_equal(k, arrs[0])
    assert np.array_equal(v, arrs[1])


def test_kv_mix_midpoint_blend():
    k_src = np.full((1, 6, 4), 2.0)
    k, _ = blend(k_src, k_src, np.zeros((1, 6, 4)), np.zeros((1, 6, 4)), 0.5,
                 global_mix=True)
    assert np.all(k == 1.0)


def test_kv_mix_ratio_domain_error():
    a = np.zeros((1, 2, 2))
    with pytest.raises(ValueError):
        blend(a, a, a, a, 1.5)


def test_kv_mix_background_rows_only():
    # 2 text rows + 4 image rows; mask marks image rows 1, 2 as edit region
    mask = EditMask(np.array([0.0, 1.0, 1.0, 0.0]))
    k_src = np.full((1, 6, 3), 2.0)
    k, _ = blend(k_src, k_src, np.zeros((1, 6, 3)), np.zeros((1, 6, 3)), 1.0, mask=mask)
    assert np.all(k[0, 0:2] == 0.0)      # text rows stay target
    assert np.all(k[0, 2] == 2.0)        # background image row fully source
    assert np.all(k[0, 3:5] == 0.0)      # edit rows stay target
    assert np.all(k[0, 5] == 2.0)


def test_kv_mix_soft_mask_partial_rows():
    mask = EditMask(np.array([0.25]))
    k_src = np.full((1, 1, 2), 4.0)
    k, _ = blend(k_src, k_src, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), 1.0, mask=mask)
    # row ratio = 1 * (1 - 0.25) = 0.75 -> 3.0
    assert np.allclose(k, 3.0, atol=0, rtol=0)


def test_kv_mix_keeps_a_ratio_zero_row_of_a_mixed_stack_bitwise():
    # rows: blend at 0.5 under a mask, ratio 0, ratio 1 applied globally,
    # ratio 0.3 under a mask that leaves no background row; a target entry of
    # -0.0 would turn +0.0 in any sum with a +0.0 source term
    n, d, b = 6, 3, 2
    rng = SeededRng(4)
    k_src, v_src = np.abs(rng.standard_normal((b, n, d))), rng.standard_normal((b, n, d))
    k_tgt, v_tgt = rng.standard_normal((4 * b, n, d)), rng.standard_normal((4 * b, n, d))
    k_tgt[:, 0, 0] = -0.0
    v_tgt[:, 1, :] = -0.0
    masks = [EditMask(np.array([0.0, 0.5, 1.0, 0.25])), None, None,
             EditMask(np.ones(4))]
    (mix,), = mix_rows([[[0.5, 0.0, 1.0, 0.3]]], masks, [False, False, True, False], n)
    k, v = k_tgt.copy(), v_tgt.copy()
    got = kv_mix(k_src, v_src, k, v, mix, scratch=np.empty_like(k))
    assert got[0] is k and got[1] is v
    for row, (ratio, mask, flag) in enumerate(zip((0.5, 0.0, 1.0, 0.3), masks,
                                                  (False, False, True, False))):
        rows = slice(row * b, (row + 1) * b)
        want = reference_kv_mix(k_src, v_src, k_tgt[rows], v_tgt[rows], ratio, mask, flag)
        for mixed, expected in zip((k[rows], v[rows]), want):
            assert np.array_equal(mixed, expected)
            assert np.array_equal(np.signbit(mixed), np.signbit(expected))
    for row in (1, 3):  # the rows that keep their K/V
        rows = slice(row * b, (row + 1) * b)
        assert np.signbit(k[rows, 0, 0]).all() and np.signbit(v[rows, 1]).all()


@pytest.mark.parametrize("stack_rows", (2, 4))
def test_kv_mix_keeps_every_row_from_the_mix_end_on_bitwise(stack_rows):
    # three rows of weights of which only the first blends, so the runs end
    # at row 1: a stack of fewer rows than the weights (a velocity-jump
    # pair's planned rows) or of more is blended alike, and its rows from 1
    # on keep their signed zeros
    n, d, b = 5, 2, 2
    rng = SeededRng(9)
    k_src, v_src = rng.standard_normal((b, n, d)), rng.standard_normal((b, n, d))
    mask = EditMask(np.array([0.0, 0.5, 1.0]))
    (mix,), = mix_rows([[[0.5, 0.0, 0.0]]], [mask, None, None], [False] * 3, n)
    assert mix.end == 1
    k_tgt, v_tgt = (rng.standard_normal((stack_rows * b, n, d)) for _ in range(2))
    k_tgt[b:, 0] = -0.0
    v_tgt[b:, :, 1] = -0.0
    k, v = k_tgt.copy(), v_tgt.copy()
    kv_mix(k_src, v_src, k, v, mix, scratch=np.empty_like(k))
    want = reference_kv_mix(k_src, v_src, k_tgt[:b], v_tgt[:b], 0.5, mask)
    for mixed, kept, expected in zip((k, v), (k_tgt, v_tgt), want):
        assert np.array_equal(mixed[:b], expected)
        assert np.array_equal(mixed[b:], kept[b:])
        assert np.array_equal(np.signbit(mixed[b:]), np.signbit(kept[b:]))
    assert np.signbit(k[b:, 0]).all() and np.signbit(v[b:, :, 1]).all()


def test_kv_mix_rejects_a_stack_its_mix_does_not_fit():
    n, d, b = 5, 2, 2
    a = np.zeros((b, n, d))
    (mix,), = mix_rows([[[0.0, 0.5]]], [None, None], [False, False], n)
    assert mix.end == 2
    for k_tgt in (np.zeros((b, n, d)),          # runs reach past a stack of one row
                  np.zeros((3, n, d)),          # not a whole number of source batches
                  np.zeros((2 * b, n, d + 1))):  # trailing shapes differ
        with pytest.raises(ValueError, match="shape mismatch"):
            kv_mix(a, a, k_tgt, k_tgt.copy(), mix, np.empty_like(k_tgt))


# ------------------------------------------------------------------ toy model

def test_toy_flow_deterministic():
    flow = default_flow()
    z = default_latent()
    a = flow.evaluate(z, 0.4, COND)
    b = flow.evaluate(z, 0.4, COND)
    assert np.array_equal(a.data, b.data)


def test_toy_flow_same_seed_same_weights():
    a = default_flow(seed=5)
    b = default_flow(seed=5)
    assert np.array_equal(a.w_out, b.w_out)
    assert np.array_equal(a.layers[1]["wq"], b.layers[1]["wq"])


def test_toy_flow_seeds_differ():
    z = default_latent()
    va = default_flow(seed=0).evaluate(z, 0.4, COND)
    vb = default_flow(seed=1).evaluate(z, 0.4, COND)
    assert float(np.max(np.abs(va.data - vb.data))) > 1e-6


def test_record_then_inject_ratio_one_is_noop():
    flow = default_flow()
    z = default_latent()
    cache = KVCache()
    rec = flow.evaluate(z, 0.3, COND, InjectionHooks("record", cache=cache, step=5))
    inj = flow.evaluate(z, 0.3, COND, InjectionHooks(
        "inject", cache=cache, step=5, mix_ratios=(1.0, 1.0), global_mix=True))
    assert float(np.max(np.abs(rec.data - inj.data))) < 1e-6


def test_record_then_inject_property_over_seeds():
    for seed in range(10):
        flow = default_flow(seed=seed)
        z = sample_gaussian(SeededRng(100 + seed), 1, 16, 8)
        cache = KVCache()
        rec = flow.evaluate(z, 0.6, COND, InjectionHooks("record", cache=cache, step=0))
        inj = flow.evaluate(z, 0.6, COND, InjectionHooks(
            "inject", cache=cache, step=0, mix_ratios=(1.0, 1.0), global_mix=True))
        assert float(np.max(np.abs(rec.data - inj.data))) < 1e-6


def test_inject_missing_entry_raises_cache_miss():
    flow = default_flow()
    z = default_latent()
    cache = KVCache()
    hooks = InjectionHooks("inject", cache=cache, step=9, mix_ratios=(0.5, 0.5))
    with pytest.raises(CacheMissError):
        flow.evaluate(z, 0.3, COND, hooks)


def test_record_keeps_first_stage():
    flow = default_flow()
    cache = KVCache()
    hooks = InjectionHooks("record", cache=cache, step=2)
    z1 = default_latent(1)
    z2 = default_latent(2)
    flow.evaluate(z1, 0.3, COND, hooks)
    k_first, _ = cache.get(2, 0)
    flow.evaluate(z2, 0.3, COND, hooks)  # same step: must not overwrite
    k_again, _ = cache.get(2, 0)
    assert np.array_equal(k_first, k_again)


def test_toy_flow_shape_errors():
    flow = default_flow()
    with pytest.raises(ValueError):
        flow.evaluate(sample_gaussian(SeededRng(1), 1, 9, 8), 0.1, COND)
    with pytest.raises(ValueError):
        flow.evaluate(sample_gaussian(SeededRng(1), 1, 16, 4), 0.1, COND)
    with pytest.raises(ValueError):
        flow.evaluate(default_latent(), 0.1, Conditioning((1, 2, 3), 0))


def test_bad_prompts_raise_on_every_call_after_a_good_one():
    flow = default_flow()
    z = default_latent()
    good = flow.evaluate(z, 0.1, COND)
    for bad in (Conditioning((1, 2, 3), 0), Conditioning((1, 2, 3, 64), 0)):
        for _ in range(2):
            with pytest.raises(ValueError, match="prompt"):
                flow.evaluate(z, 0.1, bad)
        assert bad.prompt_token_ids not in flow._prompt_memo
    assert np.array_equal(flow.evaluate(z, 0.1, COND).data, good.data)


def test_overflowing_output_of_a_finite_latent_raises():
    flow = default_flow()
    z = Latent(np.full((1, 16, 8), 1e300))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="finite"):
            flow.evaluate(z, 0.3, COND)


def test_output_is_read_only():
    out = default_flow().evaluate(default_latent(), 0.3, COND)
    assert not out.data.flags.writeable


def test_memoized_inputs_equal_fresh_ones_bitwise(monkeypatch):
    # memos of two entries have to evict; -0.0 finds the entry of 0.0, whose
    # +0.0 sines change no sum that also holds the cosines' nonzero terms.
    # The reference makes its prompt rows and time features afresh.
    monkeypatch.setattr(models, "PROMPT_MEMO_LIMIT", 2)
    time_memo = functools.lru_cache(maxsize=2)(models._time_features.__wrapped__)
    monkeypatch.setattr(models, "_time_features", time_memo)
    flow = default_flow()
    z = default_latent()
    c1, c2 = Conditioning((5, 6, 7, 8), 1), Conditioning((9, 9, 9, 9), 1)
    for t, cond in ((0.0, COND), (-0.0, c1), (0.25, c2), (0.5, COND), (0.25, c1),
                    (0.0, c2), (-0.0, COND)):
        got = flow.evaluate(z, t, cond)
        assert np.array_equal(got.data, default_flow().evaluate(z, t, cond).data)
        assert np.array_equal(got.data, stacked_evaluate(default_flow(), z, t, cond))
        assert time_memo.cache_info().currsize <= 2 and len(flow._prompt_memo) <= 2
    assert time_memo.cache_info().misses > 3  # more than the distinct times: it evicted


def test_models_share_one_bounded_time_feature_memo(monkeypatch):
    memo, seen = models._time_features, []

    def spy(t):
        seen.append(memo(t))
        return seen[-1]

    monkeypatch.setattr(models, "_time_features", spy)
    z = default_latent()
    default_flow(seed=1).evaluate(z, 0.37, COND)
    default_flow(seed=2).evaluate(z, 0.37, COND)
    assert seen[0] is seen[1] and not seen[0].flags.writeable
    assert memo.cache_info().maxsize == models.TIME_MEMO_LIMIT

    # fill the memo past its limit: it evicts 0.37 and stays bounded, and
    # the evaluation that makes 0.37's features again is bitwise unchanged
    flow = default_flow(seed=1)
    first = flow.evaluate(z, 0.37, COND).data
    for i in range(models.TIME_MEMO_LIMIT + 3):
        memo(1.0 + i / 8192)
        assert memo.cache_info().currsize <= models.TIME_MEMO_LIMIT
    misses = memo.cache_info().misses
    assert np.array_equal(flow.evaluate(z, 0.37, COND).data, first)
    assert memo.cache_info().misses == misses + 1


def test_lipschitz_smoke():
    flow = default_flow()
    z = default_latent()
    base = flow.evaluate(z, 0.3, COND)
    bumped = z.data.copy()
    bumped[0, 3, 2] += 1e-6
    out = flow.evaluate(Latent(bumped), 0.3, COND)
    assert float(np.max(np.abs(out.data - base.data))) < 1e-2


# ------------------------------------------------- per-head attention loop

def stacked_evaluate(flow, z, t, cond, hooks=None):
    """ToyAttentionFlow.evaluate with all heads stacked as (B, H, n, dh) and
    one (B, H, n, n) score array per layer: the arithmetic that the per-head
    loop must match bit for bit."""
    b, n_txt, d = z.b, flow.text_tokens, flow.embed_dim
    x = np.empty((b, n_txt + flow.img_tokens, d + 2 * flow.time_freqs))
    x[:, :n_txt, :d] = flow.token_table[list(cond.prompt_token_ids)]
    x[:, n_txt:, :d] = z.data @ flow.w_in
    angles = math.pi * t * 2.0 ** np.arange(flow.time_freqs)
    x[:, :, d:] = np.concatenate([np.sin(angles), np.cos(angles)])
    h = x @ flow.w_time
    dh = d // flow.heads
    split = lambda a: a.reshape(b, -1, flow.heads, dh).transpose(0, 2, 1, 3)
    scale = 1.0 / math.sqrt(dh)
    for layer_idx, layer in enumerate(flow.layers):
        q, k, v = h @ layer["wq"], h @ layer["wk"], h @ layer["wv"]
        if hooks is not None and hooks.mode == "record":
            if not hooks.cache.has(hooks.step, layer_idx):
                hooks.cache.put(hooks.step, layer_idx, k, v)
        elif hooks is not None:
            k_src, v_src = hooks.cache.get(hooks.step, layer_idx)
            k, v = reference_kv_mix(k_src, v_src, k, v, hooks.mix_ratios[layer_idx],
                                    hooks.background_mask, hooks.global_mix)
        scores = scale * (split(q) @ split(k).transpose(0, 1, 3, 2))
        scores -= scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        if hooks is not None and hooks.mode == "record" and hooks.attn_sink is not None:
            hooks.attn_sink.put(hooks.step, layer_idx, attn[:, :, :n_txt, n_txt:])
        h = h + (attn @ split(v)).transpose(0, 2, 1, 3).reshape(h.shape) @ layer["wo"]
    return h[:, n_txt:] @ flow.w_out


def assert_same_records(cache_a, sink_a, cache_b, sink_b, step, layers):
    for layer in range(layers):
        for got, want in zip(cache_a.get(step, layer), cache_b.get(step, layer)):
            assert np.array_equal(got, want)
    assert np.array_equal(sink_a.stacked(step + 1), sink_b.stacked(step + 1))


@pytest.mark.parametrize("img_tokens", (16, 100))
@pytest.mark.parametrize("heads", (1, 2, 4))
@pytest.mark.parametrize("batch", (1, 2))
@pytest.mark.parametrize("hooks", ("none", "record", "inject-mask", "inject-global"))
def test_evaluate_equals_the_stacked_heads_reference_bitwise(img_tokens, heads, batch, hooks):
    flow = ToyAttentionFlow(seed=heads, layer_count=3, img_tokens=img_tokens, heads=heads)
    rng = SeededRng(10 * img_tokens + batch)
    z_src = sample_gaussian(rng, batch, img_tokens, 8)
    z = sample_gaussian(rng, batch, img_tokens, 8)
    cache, sink = KVCache(), AttentionRecord()
    flow.evaluate(z_src, 0.8, COND, InjectionHooks("record", cache=cache, step=0, attn_sink=sink))
    if hooks == "none":
        made = (None, None)
    elif hooks == "record":
        made = [InjectionHooks("record", cache=KVCache(), step=4, attn_sink=AttentionRecord())
                for _ in range(2)]
    else:
        # ratios 0, 0.5 and 1 in one evaluation, one per layer
        soft = np.linspace(0.0, 1.0, img_tokens)
        made = [InjectionHooks("inject", cache=cache, step=0, mix_ratios=(0.0, 0.5, 1.0),
                               background_mask=EditMask(soft),
                               global_mix=hooks == "inject-global")] * 2
    got = flow.evaluate(z, 0.4, COND, made[0])
    want = stacked_evaluate(flow, z, 0.4, COND, made[1])
    assert np.array_equal(got.data, want)
    if hooks == "record":
        assert_same_records(made[0].cache, made[0].attn_sink, made[1].cache,
                            made[1].attn_sink, 4, flow.layer_count)
    ref_cache, ref_sink = KVCache(), AttentionRecord()
    stacked_evaluate(flow, z_src, 0.8, COND,
                     InjectionHooks("record", cache=ref_cache, step=0, attn_sink=ref_sink))
    assert_same_records(cache, sink, ref_cache, ref_sink, 0, flow.layer_count)


def test_reused_buffers_leave_outputs_and_records_alone():
    flow = ToyAttentionFlow(seed=3, layer_count=2, heads=2)
    cache, sink = KVCache(), AttentionRecord()
    z1, z2 = default_latent(1), default_latent(2)
    first = flow.evaluate(z1, 0.3, COND, InjectionHooks(
        "record", cache=cache, step=0, attn_sink=sink))
    first_copy = first.data.copy()
    kv = [tuple(a.copy() for a in cache.get(0, layer)) for layer in range(2)]
    blocks = sink.stacked(1)
    second = flow.evaluate(z2, 0.6, COND, InjectionHooks(
        "record", cache=cache, step=1, attn_sink=sink))
    flow.evaluate(z2, 0.9, COND, InjectionHooks(
        "inject", cache=cache, step=0, mix_ratios=(0.5, 1.0)))
    flow.evaluate(default_latent(4), 0.1, COND)
    assert second is not first and not np.shares_memory(first.data, second.data)
    assert np.array_equal(first.data, first_copy)
    for layer in range(2):
        for got, want in zip(cache.get(0, layer), kv[layer]):
            assert np.array_equal(got, want)
    assert np.array_equal(sink.stacked(1), blocks)

    # another batch size gets arrays of its own shape, and back again
    z_pair = sample_gaussian(SeededRng(8), 2, 16, 8)
    assert np.array_equal(flow.evaluate(z_pair, 0.3, COND).data,
                          stacked_evaluate(flow, z_pair, 0.3, COND))
    assert np.array_equal(flow.evaluate(z1, 0.3, COND).data, first_copy)

    # velocity_jump_between holds the first output while it computes the
    # second; an output that aliased a buffer would make the jump 0
    (mixes,) = mix_rows([[[0.0], [1.0]]], [None], [False], flow.text_tokens + flow.img_tokens)
    (jump,) = velocity_jump_between(flow, z2, 0.5, [COND], cache, 0, mixes, None)
    hooks = InjectionHooks("inject", cache=cache, step=0, mix_ratios=(0.0, 1.0))
    want = float(np.linalg.norm(stacked_evaluate(flow, z2, 0.5, COND, hooks)
                                - stacked_evaluate(flow, z2, 0.5, COND)))
    assert want > 0.0
    assert jump == want


def stack_cases(flow, rows, batch, seed):
    """Per-row latents, prompts and inject hooks that differ row by row:
    ratios, masks, global_mix, and a row that injects nothing."""
    rng = SeededRng(seed)
    n_img = flow.img_tokens
    z_src = sample_gaussian(rng, batch, n_img, 8)
    cache = KVCache()
    flow.evaluate(z_src, 0.7, COND, InjectionHooks("record", cache=cache, step=0))
    latents = [sample_gaussian(rng, batch, n_img, 8) for _ in range(rows)]
    prompts = [Conditioning((1 + r % 3, 2, 3, 4 + r), 1) for r in range(rows)]
    layers = flow.layer_count
    ratios = [tuple((0.2 + 0.1 * r + 0.05 * layer) % 1.0 for layer in range(layers))
              for r in range(rows)]
    ratios[1 % rows] = (0.0,) * layers
    masks = [EditMask(np.linspace(0.0, 1.0, n_img)[::1 if r % 2 else -1]) for r in range(rows)]
    flags = [r % 3 == 2 for r in range(rows)]
    return cache, latents, prompts, ratios, masks, flags


@pytest.mark.parametrize("dims,rows,batch", (
    ({}, 5, 1), ({"heads": 2}, 4, 2),
    ({"img_tokens": 256, "embed_dim": 128, "layer_count": 4, "heads": 4}, 4, 1)))
def test_a_stacked_evaluation_equals_each_row_alone_bitwise(dims, rows, batch):
    # the mid size holds 3 entries per score block, so 4 rows take two blocks
    flow = ToyAttentionFlow(seed=2, **dims)
    cache, latents, prompts, ratios, masks, flags = stack_cases(flow, rows, batch, 6)
    n = flow.text_tokens + flow.img_tokens
    stacked = np.array(ratios).T[None]  # (1, layers, rows)
    hooks = InjectionHooks("inject", cache=cache, step=0,
                           mixes=mix_rows(stacked, masks, flags, n)[0])
    z = Latent(np.concatenate([lat.data for lat in latents]))
    for stack_hooks in (None, hooks):
        got = flow.evaluate(z, 0.4, prompts, stack_hooks).data
        for r in range(rows):
            alone = None if stack_hooks is None else InjectionHooks(
                "inject", cache=cache, step=0, mix_ratios=ratios[r],
                background_mask=masks[r], global_mix=flags[r])
            want = default_flow(seed=2, **dims).evaluate(latents[r], 0.4, prompts[r], alone)
            assert np.array_equal(got[r * batch:(r + 1) * batch], want.data)


@pytest.mark.parametrize("mode", ("record", "inject"))
def test_the_cached_views_follow_the_scratch_as_it_regrows(monkeypatch, mode):
    # two entries per score block: a stack of 5 runs blocks of 2, 2 and 1
    n = 4 + 16
    monkeypatch.setattr(models, "SCORE_BLOCK_BYTES", 2 * n * n * 8)
    flow = ToyAttentionFlow(seed=4, heads=2)
    for rows in (1, 5, 2):
        # a model of the same seed records the source K/V, so that only the
        # stacks below pass through flow's scratch
        cache, latents, prompts, ratios, masks, flags = stack_cases(
            ToyAttentionFlow(seed=4, heads=2), rows, 1, rows)
        z = Latent(np.concatenate([lat.data for lat in latents]))
        if mode == "record":
            hooks = InjectionHooks("record", cache=KVCache(), step=3,
                                   attn_sink=AttentionRecord())
        else:
            stacked = np.array(ratios).T[None]  # (1, layers, rows)
            hooks = InjectionHooks("inject", cache=cache, step=0,
                                   mixes=mix_rows(stacked, masks, flags, n)[0])
        got = flow.evaluate(z, 0.6, prompts, hooks).data
        for r in range(rows):
            if mode == "record":
                alone = InjectionHooks("record", cache=KVCache(), step=3,
                                       attn_sink=AttentionRecord())
            else:
                alone = InjectionHooks("inject", cache=cache, step=0, mix_ratios=ratios[r],
                                       background_mask=masks[r], global_mix=flags[r])
            want = stacked_evaluate(flow, latents[r], 0.6, prompts[r], alone)
            assert np.array_equal(got[r:r + 1], want)
            if mode == "record":
                row_cache, row_sink = KVCache(), AttentionRecord()
                blocks = hooks.attn_sink.stacked(4)  # (layers, rows, heads, ...)
                for layer in range(flow.layer_count):
                    k, v = hooks.cache.get(3, layer)
                    row_cache.put(3, layer, k[r:r + 1], v[r:r + 1])
                    row_sink.put(3, layer, blocks[layer, r:r + 1])
                assert_same_records(row_cache, row_sink, alone.cache, alone.attn_sink, 3,
                                    flow.layer_count)
    assert flow._scratch.b == 5 and flow._scratch.scores.shape[1] == 2


def test_a_stack_must_split_evenly_into_rows():
    z = sample_gaussian(SeededRng(1), 3, 16, 8)
    with pytest.raises(ValueError, match="do not split into 2 rows"):
        default_flow().evaluate(z, 0.1, [COND, COND])


def test_a_warm_stacked_evaluation_holds_no_score_block_above_the_l2_bound():
    # 1000 default-size entries would need a 3.2 MB score block at once
    flow = default_flow()
    z = sample_gaussian(SeededRng(5), 1000, 16, 8)
    n = flow.text_tokens + flow.img_tokens
    flow.evaluate(z, 0.3, COND)
    tracemalloc.start()
    try:
        flow.evaluate(z, 0.3, COND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < z.b * n * n * 8
    assert flow._scratch.scores.nbytes <= SCORE_BLOCK_BYTES


def test_a_warm_injecting_evaluation_blends_without_allocating():
    # kv_mix blends into the model's K/V arrays, so a warm evaluation that
    # injects at every layer allocates less than one (n, d) K array
    flow = ToyAttentionFlow(seed=0, layer_count=4, embed_dim=128, img_tokens=256, heads=4)
    z = sample_gaussian(SeededRng(5), 1, 256, 8)
    cache = KVCache()
    flow.evaluate(z, 0.3, COND, InjectionHooks("record", cache=cache, step=0))
    n = flow.text_tokens + flow.img_tokens
    mixes = mix_rows([[[0.5]] * flow.layer_count], [EditMask(np.linspace(0.0, 1.0, 256))],
                     [False], n)[0]
    hooks = InjectionHooks("inject", cache=cache, step=0, mixes=mixes)
    flow.evaluate(z, 0.6, COND, hooks)
    tracemalloc.start()
    try:
        flow.evaluate(z, 0.6, COND, hooks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * flow.embed_dim * 8  # 266,240 B


def test_a_warm_evaluation_allocates_less_than_one_stacked_score_array():
    flow = ToyAttentionFlow(seed=0, layer_count=4, embed_dim=128, img_tokens=256, heads=4)
    z = sample_gaussian(SeededRng(5), 1, 256, 8)
    flow.evaluate(z, 0.3, COND)
    tracemalloc.start()
    try:
        flow.evaluate(z, 0.3, COND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = flow.text_tokens + flow.img_tokens
    assert peak < z.b * flow.heads * n * n * 8  # 2,163,200 B


# ----------------------------------------------------------- evaluation lanes

MID = {"img_tokens": 256, "embed_dim": 128, "layer_count": 4, "heads": 4}


def force_lanes(monkeypatch, lanes):
    """Models made from now on run on ``lanes`` lanes at every size, on any
    number of CPUs."""
    monkeypatch.setattr(models, "evaluation_lanes", lambda: 2)
    monkeypatch.setattr(models, "LANE_SCORE_BYTES", 0 if lanes == 2 else 2**62)


def two_lane(flow, b):
    return len(flow._scratch.views(b)[-1]) == 2


@pytest.mark.parametrize("heads", (2, 3, 4))
@pytest.mark.parametrize("rows", (1, 2, 3))
@pytest.mark.parametrize("block", ("one", "several"))
def test_two_lanes_equal_one_lane_bitwise(monkeypatch, heads, rows, block):
    # n = 40; a score block of one entry, or of all of a stack's entries. A
    # two-share model runs on both lanes, and, while this thread holds the
    # helper, both shares here one after the other
    dims = dict(img_tokens=36, embed_dim=48, layer_count=3, heads=heads)
    n = 4 + 36
    if block == "one":
        monkeypatch.setattr(models, "SCORE_BLOCK_BYTES", n * n * 8)
    results = []
    for lanes, held in ((1, False), (2, False), (2, True)):
        force_lanes(monkeypatch, lanes)
        flow = ToyAttentionFlow(seed=heads, **dims)
        cache, latents, prompts, ratios, masks, flags = stack_cases(flow, rows, 1, rows)
        z = Latent(np.concatenate([lat.data for lat in latents]))
        record = InjectionHooks("record", cache=KVCache(), step=2, attn_sink=AttentionRecord())
        inject = InjectionHooks("inject", cache=cache, step=0,
                                mixes=mix_rows(np.array(ratios).T[None], masks, flags, n)[0])
        lane = models._claim_lane() if held else None
        assert (lane is not None) == held
        try:
            got = [flow.evaluate(z, 0.4, prompts, hooks).data
                   for hooks in (None, record, inject)]
        finally:
            if lane is not None:
                lane.release()
        got += [a for layer in range(3) for a in record.cache.get(2, layer)]
        got.append(record.attn_sink.stacked())
        assert two_lane(flow, rows) == (lanes == 2)
        results.append(got)
    for serial, *split in zip(*results):
        for other in split:
            assert np.array_equal(serial, other)


def test_the_default_and_grid_shapes_take_one_lane(monkeypatch):
    # n = 20 and one head: one unit per layer, whatever the stack size
    monkeypatch.setattr(models, "evaluation_lanes", lambda: 2)
    flow = default_flow()
    for b in (1, 2, 36):
        flow.evaluate(sample_gaussian(SeededRng(b), b, 16, 8), 0.5, COND)
        assert not two_lane(flow, b)
    assert flow._scratch.scores.shape[0] == 1


def test_a_process_that_runs_only_small_edits_starts_no_thread(tmp_path):
    import subprocess
    import sys

    code = ("import threading; from adaedit import cli, pipeline; "
            "cfg = pipeline.EditConfig(); "
            "pipeline.run_edit(pipeline.generate_source_latent(cfg), "
            "cfg.source_conditioning(), cfg.target_conditioning(), cfg); "
            f"cli.main(['ablate', '--out', {str(tmp_path)!r}, '--axis', 'alpha=0.1,0.2']); "
            "print(threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "1"


@pytest.mark.parametrize("lanes", (1, 2))
def test_an_overflow_under_errstate_raises_on_either_path(monkeypatch, lanes):
    force_lanes(monkeypatch, lanes)
    flow = ToyAttentionFlow(seed=0, **MID)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            flow.evaluate(Latent(np.full((1, 256, 8), 1e160)), 0.3, COND)
    assert two_lane(flow, 1) == (lanes == 2)
    z = sample_gaussian(SeededRng(2), 1, 256, 8)
    assert np.array_equal(flow.evaluate(z, 0.3, COND).data,
                          ToyAttentionFlow(seed=0, **MID).evaluate(z, 0.3, COND).data)


def test_the_helper_lane_runs_in_the_callers_errstate():
    def square(a):
        np.multiply(a, a)

    lane = models._claim_lane()
    assert lane is not None
    try:
        with np.errstate(over="raise"):
            # only the helper's half overflows
            with pytest.raises(FloatingPointError):
                lane.both(square, (np.ones(4), np.full(4, 1e300)))
        with np.errstate(over="ignore"):
            lane.both(square, (np.ones(4), np.full(4, 1e300)))
    finally:
        lane.release()


def test_an_interrupt_while_the_helper_works_waits_for_it():
    import signal
    import threading
    import time

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    def work(done):
        if done is not None:  # the helper's half
            time.sleep(0.3)
            done.append(True)

    done = []
    previous = signal.signal(signal.SIGUSR1, interrupt)
    lane = models._claim_lane()
    assert lane is not None
    try:
        threading.Timer(0.05, signal.pthread_kill,
                        (threading.main_thread().ident, signal.SIGUSR1)).start()
        with pytest.raises(KeyboardInterrupt):
            lane.both(work, (None, done))
        assert done == [True]
        lane.both(work, (None, None))
    finally:
        lane.release()
        signal.signal(signal.SIGUSR1, previous)


def test_timer_signals_wait_while_the_helper_lane_is_held():
    import signal
    import time

    working, seen = [], []

    def work(flag):
        if flag is not None:  # the helper's half
            flag.append(True)
            time.sleep(0.3)
            flag.clear()

    # the timer fires while the helper sleeps and this thread waits for it;
    # its handler runs only once the helper is done
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: seen.append(bool(working)))
    lane = models._claim_lane()
    assert lane is not None
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        lane.both(work, (None, working))
    finally:
        lane.release()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert seen == [False]


def _evaluate_mid(conn):
    z = sample_gaussian(SeededRng(2), 1, 256, 8)
    conn.send(ToyAttentionFlow(seed=1, **MID).evaluate(z, 0.3, COND).data)
    conn.close()


@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_a_forked_child_evaluates_on_a_lane_of_its_own(monkeypatch):
    import multiprocessing

    force_lanes(monkeypatch, 2)
    flow = ToyAttentionFlow(seed=1, **MID)
    want = flow.evaluate(sample_gaussian(SeededRng(2), 1, 256, 8), 0.3, COND).data
    assert two_lane(flow, 1) and models._lane is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_evaluate_mid, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(120), "the forked child's evaluation hung"
        got = receive.recv()
    finally:
        child.join(30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert np.array_equal(got, want)


def test_concurrent_evaluations_share_one_helper_and_keep_their_bits(monkeypatch):
    # more threads than cores, switching often: whichever holds the helper
    # runs on two lanes and the others on one, and each keeps its bits
    import sys
    import threading

    times = (0.2, 0.5, 0.8)
    latents = [sample_gaussian(SeededRng(seed), 1, 256, 8) for seed in (3, 4, 5)]
    force_lanes(monkeypatch, 1)
    want = [[ToyAttentionFlow(seed=seed, **MID).evaluate(z, t, COND).data for t in times]
            for seed, z in enumerate(latents)]
    force_lanes(monkeypatch, 2)
    flows = [ToyAttentionFlow(seed=seed, **MID) for seed in range(3)]
    got = [[] for _ in flows]
    start = threading.Barrier(len(flows))

    def run(i):
        start.wait()
        for _ in range(3):
            got[i].extend(flows[i].evaluate(latents[i], t, COND).data for t in times)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(flows))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(len(flows)):
        assert len(got[i]) == 9
        for k, out in enumerate(got[i]):
            assert np.array_equal(out, want[i][k % 3])
    assert [t.name for t in threading.enumerate()].count("adaedit-lane") == 1


# ------------------------------------------------------------ mask extraction

def make_record(flow, z, cond, steps=(0,), t=0.9):
    cache = KVCache()
    sink = AttentionRecord()
    for step in steps:
        flow.evaluate(z, t, cond, InjectionHooks(
            "record", cache=cache, step=step, attn_sink=sink))
    return sink


def test_extract_mask_constant_attention():
    sink = AttentionRecord()
    sink.put(0, 0, np.full((1, 1, 4, 16), 0.25))
    mask = extract_mask(sink, COND, gamma=10.0)
    assert np.all(mask.soft == 0.5)
    assert mask.hard == tuple(range(16))


def test_extract_mask_sharp_limit_matches_indicator():
    sink = make_record(default_flow(), default_latent(), COND)
    sharp = extract_mask(sink, COND, gamma=1e4)
    indicator = extract_mask(sink, COND, gamma=None)
    # normalized statistic and threshold recomputed identically; compare off-tie
    ties = indicator.soft == 0.5
    assert np.max(np.abs(sharp.soft[~ties] - indicator.soft[~ties])) < 1e-3


def test_extract_mask_gamma_controls_saturation():
    sink = make_record(default_flow(), default_latent(), COND)
    soft5 = extract_mask(sink, COND, gamma=5.0).soft
    soft15 = extract_mask(sink, COND, gamma=15.0).soft
    sat5 = int(np.sum((soft5 < 0.01) | (soft5 > 0.99)))
    sat15 = int(np.sum((soft15 < 0.01) | (soft15 > 0.99)))
    assert sat15 > sat5


def test_extract_mask_requires_recordings():
    with pytest.raises(RuntimeError):
        extract_mask(AttentionRecord(), COND, gamma=5.0)


def test_extract_mask_output_domains():
    for seed in range(5):
        sink = make_record(default_flow(seed=seed), default_latent(seed), COND)
        mask = extract_mask(sink, COND, gamma=7.0)
        assert np.all(mask.soft >= 0.0) and np.all(mask.soft <= 1.0)
        assert all(0 <= i < 16 for i in mask.hard)


def test_extract_mask_rejects_bad_gamma():
    sink = make_record(default_flow(), default_latent(), COND)
    with pytest.raises(ValueError):
        extract_mask(sink, COND, gamma=0.0)
