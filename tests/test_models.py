from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaedit import models, pipeline
from adaedit.diagnostics import velocity_jump_between
from adaedit.errors import CacheMissError
from adaedit.latent import Latent, SeededRng, sample_gaussian
from adaedit.models import (SCORE_BLOCK_BYTES, AnalyticLinearFlow, AttentionRecord,
                            Conditioning, EditMask, InjectionHooks, KVCache,
                            ToyAttentionFlow, extract_mask, kv_mix, mix_rows)

from reference_edit import (reference_attend, reference_kv_mix, reference_weights,
                            stacked_evaluate)

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


RECORD_ONE = "record mode takes one latent entry, got 2"


def test_record_mode_refuses_a_stack_before_storing_anything():
    one, two = np.zeros((1, 4, 8)), np.zeros((2, 4, 8))
    cache, sink = KVCache(), AttentionRecord()
    for k, v in ((two, one), (one, two)):
        with pytest.raises(ValueError, match=RECORD_ONE):
            cache.put(0, 0, k, v)
    with pytest.raises(ValueError, match=RECORD_ONE):
        sink.put(0, 0, np.zeros((2, 1, 4, 16)))
    assert not cache.has(0, 0) and not sink.has(0, 0)
    # a two-entry latent, on a fresh step and on one that a one-entry
    # evaluation recorded already
    flow, pair = default_flow(), sample_gaussian(SeededRng(2), 2, 16, 8)
    hooks = InjectionHooks("record", cache=cache, step=1, attn_sink=sink)
    with pytest.raises(ValueError, match=RECORD_ONE):
        flow.evaluate(pair, 0.3, COND, hooks)
    assert not any(cache.has(1, layer) or sink.has(1, layer) for layer in range(2))
    with pytest.raises(RuntimeError, match="no attention maps recorded"):
        sink.stacked()
    flow.evaluate(default_latent(), 0.3, COND, hooks)
    kept = sink.stacked(), [cache.get(1, layer) for layer in range(2)]
    with pytest.raises(ValueError, match=RECORD_ONE):
        flow.evaluate(pair, 0.3, COND, hooks)
    assert np.array_equal(sink.stacked(), kept[0])
    assert all(cache.get(1, layer) is kept[1][layer] for layer in range(2))
    # the one-entry record keeps (heads, L_txt, L_img) blocks
    assert kept[0].shape == (2, 1, 4, 16)


# ----------------------------------------------------------------------- mask

def test_edit_mask_hard_derivation():
    mask = EditMask(np.array([0.2, 0.5, 0.9, 0.49]))
    assert mask.hard == (1, 2)


def test_edit_mask_validation():
    with pytest.raises(ValueError):
        EditMask(np.array([0.2, 1.3]))
    with pytest.raises(ValueError):
        EditMask(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_edit_mask_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match=r"mask weights must lie in \[0, 1\]"):
        EditMask(np.array([0.2, bad, 0.9]))


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


def test_analytic_flow_drift_matches_the_latent_s_channels():
    with pytest.raises(ValueError, match="length-C vector"):
        AnalyticLinearFlow(decay=-1.0, drift=np.zeros(0))
    flow = AnalyticLinearFlow(decay=-1.0, drift=np.zeros(1))
    z = Latent(np.ones((1, 4, 2)))
    with pytest.raises(ValueError, match="drift has 1 channels, the latent 2"):
        flow.evaluate(z, 0.0)
    with pytest.raises(ValueError, match="drift has 1 channels, the latent 2"):
        flow.closed_form(z, 0.0, 1.0)


# --------------------------------------------------------------------- kv_mix

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
    # mix_rows takes one mask and one global_mix flag per row, and a mask
    # no longer than the K/V rows
    with pytest.raises(ValueError, match="2 rows of ratios, 1 masks, 2 global_mix flags"):
        mix_rows([[[0.5, 0.5]]], [None], [False, False], 2)
    with pytest.raises(ValueError, match="mask covers 3 rows but K/V have only 2"):
        mix_rows([[[0.5]]], [EditMask(np.ones(3))], [False], 2)


@pytest.mark.parametrize("mode, kwargs, message", (
    ("replay", {"cache": KVCache()}, "hook mode must be one of"),
    ("record", {}, "record mode requires a cache"),
    ("inject", {"cache": KVCache()}, "inject mode requires per-layer mix ratios"),
    # a field the mode would ignore
    ("record", {"cache": KVCache(), "mix_ratios": (0.5, 0.5)}, "record mode takes no mix_ratios"),
    ("record", {"cache": KVCache(), "mixes": ()}, "record mode takes no mixes"),
    ("record", {"cache": KVCache(), "mix_ratios": (0.5,), "mixes": ()},
     "record mode takes no mix_ratios or mixes"),
    ("inject", {"cache": KVCache(), "mix_ratios": (0.5, 0.5), "attn_sink": AttentionRecord()},
     "inject mode takes no attn_sink"),
    ("inject", {"cache": KVCache(), "mix_ratios": (0.5, 0.5), "mixes": ()},
     "inject mode takes mix_ratios or mixes, not both"),
))
def test_injection_hooks_reject_a_bad_mode_a_missing_cache_or_ratios(mode, kwargs, message):
    with pytest.raises(ValueError, match=message):
        InjectionHooks(mode, **kwargs)


@pytest.mark.parametrize("layers", (1, 3))
def test_inject_hooks_must_hold_one_blend_per_model_layer(layers):
    # a two-layer model: one blend too few used to end in an IndexError, one
    # too many was ignored; either is refused before any layer runs
    flow, z = default_flow(), default_latent()
    n = flow.text_tokens + flow.img_tokens
    (mixes,) = mix_rows([[[0.5]] * layers], [None], [False], n)
    for name, value in (("mix_ratios", (0.5,) * layers), ("mixes", mixes)):
        hooks = InjectionHooks("inject", cache=KVCache(), step=0, **{name: value})
        with pytest.raises(ValueError, match=f"{name} holds {layers} layers, the model 2"):
            flow.evaluate(z, 0.5, COND, hooks)


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
    n, d = 6, 3
    rng = SeededRng(4)
    k_src, v_src = np.abs(rng.standard_normal((1, n, d))), rng.standard_normal((1, n, d))
    k_tgt, v_tgt = rng.standard_normal((4, n, d)), rng.standard_normal((4, n, d))
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
        rows = slice(row, row + 1)
        want = reference_kv_mix(k_src, v_src, k_tgt[rows], v_tgt[rows], ratio, mask, flag)
        for mixed, expected in zip((k[rows], v[rows]), want):
            assert np.array_equal(mixed, expected)
            assert np.array_equal(np.signbit(mixed), np.signbit(expected))
    for row in (1, 3):  # the rows that keep their K/V
        assert np.signbit(k[row, 0, 0]) and np.signbit(v[row, 1]).all()


@pytest.mark.parametrize("stack_rows", (2, 4))
def test_kv_mix_keeps_every_row_from_the_mix_end_on_bitwise(stack_rows):
    # three rows of weights of which only the first blends, so the runs end
    # at row 1: a stack of fewer rows than the weights (a velocity-jump
    # pair's planned rows) or of more is blended alike, and its rows from 1
    # on keep their signed zeros
    n, d = 5, 2
    rng = SeededRng(9)
    k_src, v_src = rng.standard_normal((1, n, d)), rng.standard_normal((1, n, d))
    mask = EditMask(np.array([0.0, 0.5, 1.0]))
    (mix,), = mix_rows([[[0.5, 0.0, 0.0]]], [mask, None, None], [False] * 3, n)
    assert mix.end == 1
    k_tgt, v_tgt = (rng.standard_normal((stack_rows, n, d)) for _ in range(2))
    k_tgt[1:, 0] = -0.0
    v_tgt[1:, :, 1] = -0.0
    k, v = k_tgt.copy(), v_tgt.copy()
    kv_mix(k_src, v_src, k, v, mix, scratch=np.empty_like(k))
    want = reference_kv_mix(k_src, v_src, k_tgt[:1], v_tgt[:1], 0.5, mask)
    for mixed, kept, expected in zip((k, v), (k_tgt, v_tgt), want):
        assert np.array_equal(mixed[:1], expected)
        assert np.array_equal(mixed[1:], kept[1:])
        assert np.array_equal(np.signbit(mixed[1:]), np.signbit(kept[1:]))
    assert np.signbit(k[1:, 0]).all() and np.signbit(v[1:, :, 1]).all()


# rows 0-2 share a mask and a ratio (one weight row), row 3 has their ratio
# under another mask and row 4 another ratio under it, row 5 keeps its K/V,
# rows 6-7 take the source whole, rows 8-9 mix globally at one ratio, row 10
# blends alone and row 11 keeps
FIRST, SECOND = EditMask(np.array([0.0, 0.5, 1.0, 0.25])), EditMask(np.full(4, 0.5))
HAND_ROWS = ([(0.5, FIRST, False)] * 3
             + [(0.5, SECOND, False), (0.3, SECOND, False), (0.0, None, False),
                (1.0, None, True), (1.0, None, True), (0.5, None, True), (0.5, None, True),
                (0.7, FIRST, False), (0.0, FIRST, False)])


def drawn_rows(seed):
    """A seeded stack of 4-15 rows, each of a ratio in {0, 0.3, 0.5, 1}, one
    of the two masks or none, and a drawn global_mix flag; half the rows
    repeat the row before, so runs of several rows are common, and 0-3 rows
    past the weights are stacked too."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(rng.integers(4, 16)):
        if rows and rng.random() < 0.5:
            rows.append(rows[-1])
        else:
            rows.append((float(rng.choice([0.0, 0.3, 0.5, 1.0])),
                         (FIRST, SECOND, None)[rng.integers(3)], bool(rng.integers(2))))
    return rows, len(rows) + int(rng.integers(4))


@pytest.mark.parametrize("rows,stack_rows", (
    *(pytest.param(HAND_ROWS, size, id=str(size)) for size in (11, 14)),
    *(pytest.param(*drawn_rows(seed), id=f"drawn-{seed}") for seed in range(8))))
def test_kv_mix_shares_the_source_term_of_rows_with_one_weight_row_bitwise(rows, stack_rows):
    # each run is the maximal block of consecutive mixing rows of one weight
    # row, bit for bit, and the runs cover exactly the mixing rows; the
    # hand-written stack's runs end at row 11, and a stack of 11 rows (fewer
    # than the weights) or 14 is blended alike; signed zeros in the source
    # and the targets show the order of each sum
    n, d = 6, 3
    rng = SeededRng(12)
    ratios, masks, flags = zip(*rows)
    (mix,), = mix_rows([[list(ratios)]], masks, flags, n)
    if rows is HAND_ROWS:
        assert mix.runs == ((0, 3, models.BLEND), (3, 4, models.BLEND), (4, 5, models.BLEND),
                            (6, 8, models.WHOLE), (8, 10, models.BLEND),
                            (10, 11, models.BLEND))
        assert mix.end == 11
    weights = [reference_weights(n, *row).tobytes() for row in rows]
    mixing = [r for r, row in enumerate(rows) if reference_weights(n, *row).any()]
    assert [r for lo, hi, _ in mix.runs for r in range(lo, hi)] == mixing
    assert mix.end == (mix.runs[-1][1] if mixing else 0)
    for lo, hi, how in mix.runs:
        assert all(weights[r] == weights[lo] for r in range(lo, hi)), (lo, hi)
        for edge in (lo - 1, hi):  # a neighbour that mixes has another weight row
            assert edge not in mixing or weights[edge] != weights[lo], (lo, hi)
        assert (how == models.WHOLE) == (reference_weights(n, *rows[lo]) == 1.0).all()
    k_src, v_src = rng.standard_normal((1, n, d)), rng.standard_normal((1, n, d))
    k_src[:, 2, 0] = -0.0
    k_tgt, v_tgt = (rng.standard_normal((stack_rows, n, d)) for _ in range(2))
    k_tgt[:, :, 1] = -0.0
    v_tgt[:, 3, :] = -0.0
    k, v = k_tgt.copy(), v_tgt.copy()
    kv_mix(k_src, v_src, k, v, mix, scratch=np.empty_like(k))
    for row in range(stack_rows):
        at = slice(row, row + 1)
        if row < len(rows):
            want = reference_kv_mix(k_src, v_src, k_tgt[at], v_tgt[at], *rows[row])
        else:
            want = k_tgt[at], v_tgt[at]
        for mixed, expected in zip((k[at], v[at]), want):
            assert np.array_equal(mixed, expected), row
            assert np.array_equal(np.signbit(mixed), np.signbit(expected)), row


def test_kv_mix_rejects_a_stack_its_mix_does_not_fit():
    n, d = 5, 2
    a = np.zeros((1, n, d))
    (mix,), = mix_rows([[[0.0, 0.5]]], [None, None], [False, False], n)
    assert mix.end == 2
    for k_tgt in (np.zeros((1, n, d)),       # runs reach past a stack of one row
                  np.zeros((2, n, d + 1))):  # trailing shapes differ
        with pytest.raises(ValueError, match="shape mismatch"):
            kv_mix(a, a, k_tgt, k_tgt.copy(), mix, np.empty_like(k_tgt))
    # a source of two entries, which no KVCache holds
    two, k_tgt = np.zeros((2, n, d)), np.zeros((2, n, d))
    with pytest.raises(ValueError, match=r"shape mismatch: one-entry source \(2, 5, 2\)"):
        kv_mix(two, two, k_tgt, k_tgt.copy(), mix, np.empty_like(k_tgt))


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
    # a one-entry source, as a cache must hold to inject from; one set of
    # inject hooks blends every entry of z alike, and record hooks, which
    # take one entry, record each entry of z alone
    flow = ToyAttentionFlow(seed=heads, layer_count=3, img_tokens=img_tokens, heads=heads)
    rng = SeededRng(10 * img_tokens + batch)
    z_src = sample_gaussian(rng, 1, img_tokens, 8)
    z = sample_gaussian(rng, batch, img_tokens, 8)
    cache, sink = KVCache(), AttentionRecord()
    flow.evaluate(z_src, 0.8, COND, InjectionHooks("record", cache=cache, step=0, attn_sink=sink))
    parts = [z]
    if hooks == "none":
        made = (None, None)
    elif hooks == "record":
        parts = [Latent(z.data[e:e + 1]) for e in range(batch)]
    else:
        # ratios 0, 0.5 and 1 in one evaluation, one per layer
        soft = np.linspace(0.0, 1.0, img_tokens)
        made = [InjectionHooks("inject", cache=cache, step=0, mix_ratios=(0.0, 0.5, 1.0),
                               background_mask=EditMask(soft),
                               global_mix=hooks == "inject-global")] * 2
    for part in parts:
        if hooks == "record":
            made = [InjectionHooks("record", cache=KVCache(), step=4,
                                   attn_sink=AttentionRecord()) for _ in range(2)]
        got = flow.evaluate(part, 0.4, COND, made[0])
        want = stacked_evaluate(flow, part, 0.4, COND, made[1])
        assert np.array_equal(got.data, want)
        if hooks == "record":
            assert_same_records(made[0].cache, made[0].attn_sink, made[1].cache,
                                made[1].attn_sink, 4, flow.layer_count)
    ref_cache, ref_sink = KVCache(), AttentionRecord()
    stacked_evaluate(flow, z_src, 0.8, COND,
                     InjectionHooks("record", cache=ref_cache, step=0, attn_sink=ref_sink))
    assert_same_records(cache, sink, ref_cache, ref_sink, 0, flow.layer_count)


@pytest.mark.parametrize("global_mix", (False, True))
def test_one_set_of_inject_hooks_blends_every_entry_alike_bitwise(global_mix):
    # single-row hooks on a two-entry latent under one Conditioning: each
    # entry gets its own one-entry result, entry 1 included
    flow = default_flow()
    cache = KVCache()
    flow.evaluate(default_latent(), 0.7, COND, InjectionHooks("record", cache=cache, step=0))
    pair = sample_gaussian(SeededRng(21), 2, 16, 8)
    hooks = InjectionHooks("inject", cache=cache, step=0, mix_ratios=(0.5, 1.0),
                           background_mask=EditMask(np.linspace(0.0, 1.0, 16)),
                           global_mix=global_mix)
    got = flow.evaluate(pair, 0.4, COND, hooks).data
    for entry in range(2):
        alone = Latent(pair.data[entry:entry + 1])
        assert np.array_equal(got[entry:entry + 1], flow.evaluate(alone, 0.4, COND, hooks).data)
        assert not np.array_equal(got[entry:entry + 1], flow.evaluate(alone, 0.4, COND).data)


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
    """A cache of one recorded entry, and per-row latents of ``batch``
    entries, prompts and inject hooks that differ row by row: ratios, masks,
    global_mix, and a row that injects nothing."""
    rng = SeededRng(seed)
    n_img = flow.img_tokens
    z_src = sample_gaussian(rng, 1, n_img, 8)
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
    ({"img_tokens": 256, "embed_dim": 128, "layer_count": 4, "heads": 4}, 4, 1),
    ({"heads": 2}, 3, 1), ({"heads": 3, "embed_dim": 48}, 3, 1)))
def test_a_stacked_evaluation_equals_each_row_alone_bitwise(dims, rows, batch):
    # the mid size holds 3 entries per score block, so 4 rows take two blocks.
    # The stack repeats each case's plan, mask and prompt over its batch
    # entries, one row each (one run), and its entries alone take one
    # Conditioning and one set of inject hooks
    flow = ToyAttentionFlow(seed=2, **dims)
    cache, latents, prompts, ratios, masks, flags = stack_cases(flow, rows, batch, 6)
    n = flow.text_tokens + flow.img_tokens
    each = lambda per_case: [item for item in per_case for _ in range(batch)]
    stacked = np.array(each(ratios)).T[None]  # (1, layers, rows * batch)
    hooks = InjectionHooks("inject", cache=cache, step=0,
                           mixes=mix_rows(stacked, each(masks), each(flags), n)[0])
    z = Latent(np.concatenate([lat.data for lat in latents]))
    for stack_hooks in (None, hooks):
        got = flow.evaluate(z, 0.4, each(prompts), stack_hooks).data
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
        hooks = None  # record mode grows the scratch with a plain stack
        if mode == "inject":
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
                # each row recorded alone on the regrown scratch's views
                row = InjectionHooks("record", cache=KVCache(), step=3,
                                     attn_sink=AttentionRecord())
                assert np.array_equal(flow.evaluate(latents[r], 0.6, prompts[r], row).data,
                                      want)
                assert_same_records(row.cache, row.attn_sink, alone.cache, alone.attn_sink, 3,
                                    flow.layer_count)
    assert flow._scratch.b == 5 and flow._scratch.scores.shape[1] == 2


def test_a_stack_must_split_evenly_into_rows():
    # a stack is one entry per row, so a list of conditionings has one per entry
    z = sample_gaussian(SeededRng(1), 3, 16, 8)
    for conds in ([COND, COND], [COND], []):
        message = f"3 latent entries take one Conditioning each, got {len(conds)}"
        with pytest.raises(ValueError, match=message):
            default_flow().evaluate(z, 0.1, conds)


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
        # record mode takes one entry: each row is recorded alone
        records = [InjectionHooks("record", cache=KVCache(), step=2, attn_sink=AttentionRecord())
                   for _ in range(rows)]
        inject = InjectionHooks("inject", cache=cache, step=0,
                                mixes=mix_rows(np.array(ratios).T[None], masks, flags, n)[0])
        lane = models._claim_lane() if held else None
        assert (lane is not None) == held
        try:
            got = [flow.evaluate(z, 0.4, prompts, hooks).data for hooks in (None, inject)]
            got += [flow.evaluate(*row).data
                    for row in zip(latents, [0.4] * rows, prompts, records)]
        finally:
            if lane is not None:
                lane.release()
        for record in records:
            got += [a for layer in range(3) for a in record.cache.get(2, layer)]
            got.append(record.attn_sink.stacked())
        assert two_lane(flow, rows) == (lanes == 2)
        results.append(got)
    for serial, *split in zip(*results):
        for other in split:
            assert np.array_equal(serial, other)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_entry_equals_row_0_of_a_pair_bitwise(data):
    # one entry's products run through np.dot on 2-d rows (np.matmul on 2-d
    # row halves on two lanes), a pair's through np.matmul on 3-d stacks:
    # the same gemm on the same operands, so the same bits for the output
    # and a blend. A pair is not recorded: one entry recorded on the views
    # of a scratch grown to hold the pair records the bits a fresh model
    # records
    heads = data.draw(st.integers(1, 3), label="heads")
    dims = dict(heads=heads, embed_dim=heads * data.draw(st.integers(1, 40), label="dh"),
                img_tokens=data.draw(st.integers(1, 40), label="img_tokens"),
                text_tokens=data.draw(st.integers(1, 5), label="text_tokens"),
                layer_count=data.draw(st.integers(1, 3), label="layers"),
                channels=data.draw(st.integers(1, 6), label="channels"))
    lanes = data.draw(st.sampled_from((1, 2)), label="lanes")
    one_block = data.draw(st.booleans(), label="one entry per score block")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    n_txt, n_img, layers = dims["text_tokens"], dims["img_tokens"], dims["layer_count"]
    n = n_txt + n_img
    rng = np.random.default_rng(seed)
    z_src, z0, z1 = (sample_gaussian(SeededRng(seed + i), 1, n_img, dims["channels"])
                     for i in range(3))
    pair = Latent(np.concatenate([z0.data, z1.data]))
    conds = [Conditioning(tuple(int(i) for i in rng.integers(0, 64, n_txt)), 0)
             for _ in range(2)]
    ratios = rng.choice([0.0, 0.3, 1.0], size=(2, layers))
    masks = [EditMask(rng.random(n_img)) for _ in range(2)]
    flags = [bool(f) for f in rng.integers(0, 2, 2)]
    with pytest.MonkeyPatch.context() as mp:
        force_lanes(mp, lanes)
        if one_block:
            mp.setattr(models, "SCORE_BLOCK_BYTES", n * n * 8)
        flow = ToyAttentionFlow(seed=seed, **dims)
        cache = KVCache()
        flow.evaluate(z_src, 0.8, conds[0], InjectionHooks("record", cache=cache, step=0))
        records = [InjectionHooks("record", cache=KVCache(), step=1, attn_sink=AttentionRecord())
                   for _ in range(2)]
        inject_one = InjectionHooks("inject", cache=cache, step=0, mix_ratios=tuple(ratios[0]),
                                    background_mask=masks[0], global_mix=flags[0])
        inject_pair = InjectionHooks("inject", cache=cache, step=0,
                                     mixes=mix_rows(ratios.T[None], masks, flags, n)[0])
        for one_hooks, pair_hooks in ((None, None), (records[0], None), (inject_one, inject_pair)):
            one = flow.evaluate(z0, 0.4, conds[0], one_hooks).data
            both = flow.evaluate(pair, 0.4, conds, pair_hooks).data
            assert np.array_equal(one, both[:1])
        assert (flow._scratch.views(1)[5] is np.dot) == (not two_lane(flow, 1))
        ToyAttentionFlow(seed=seed, **dims).evaluate(z0, 0.4, conds[0], records[1])
    assert_same_records(records[0].cache, records[0].attn_sink, records[1].cache,
                        records[1].attn_sink, 1, layers)


def test_the_default_and_grid_shapes_take_one_lane():
    # n = 20: one share of the token rows and of the units, whatever the
    # stack size
    flow = default_flow()
    for b in (1, 2, 36):
        flow.evaluate(sample_gaussian(SeededRng(b), b, 16, 8), 0.5, COND)
        assert not two_lane(flow, b)
    assert flow._scratch.scores.shape[0] == 1


def layout(flow, b):
    """The shapes of the token-row shares in ``flow``'s views for b
    entries, the unit count of each unit share and the score array's shape."""
    *_, rows, units = flow._scratch.views(b)
    return ([tuple(a.shape for a in share[:-1]) for share in rows],
            [len(share) for share in units], flow._scratch.scores.shape)


@pytest.mark.parametrize("embed_dim, heads", ((2, 2), (3, 3)))
def test_the_cpu_count_changes_no_view_and_no_bit(monkeypatch, embed_dim, heads):
    # n = 260 splits the token rows in halves on any number of CPUs, which
    # only picks who runs the second half: the helper, or this thread after
    # the first. Row halves and whole rows differ in the last bit at
    # embedding widths below 4, so a split that followed the CPU count
    # would show here
    cfg = pipeline.EditConfig(img_tokens=256, embed_dim=embed_dim, heads=heads)
    src = pipeline.generate_source_latent(cfg)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(models, "evaluation_lanes", lambda cpus=cpus: cpus)
        flow = pipeline.build_model(cfg)
        flow.evaluate(src, 0.5, cfg.source_conditioning())
        result = pipeline.run_edit(src, cfg.source_conditioning(), cfg.target_conditioning(),
                                   cfg)
        runs.append((layout(flow, 1), result.diagnostics, result.edited.data,
                     result.reconstructed_source.data, result.mask.soft,
                     result.channel_weights.alpha, result.channel_gaps))
    (views, diagnostics, *arrays), (other_views, other_diagnostics, *others) = runs
    assert views == other_views and len(views[0]) == 2
    assert diagnostics == other_diagnostics
    for got, want in zip(arrays, others):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("lanes", (1, 2))
@pytest.mark.parametrize("heads", (1, 4))
@pytest.mark.parametrize("b, n_img, block", (
    (1, 16, None), (2, 16, None), (9, 16, None), (9, 16, 4), (36, 16, None), (36, 16, 4),
    (1, 256, None)))
def test_attend_equals_a_row_max_reduce_softmax_bitwise(monkeypatch, lanes, heads, b, n_img,
                                                        block):
    # _attend takes each row's max with a maximum.reduceat over the flat score
    # block. One row per entry and head is built so that its scaled scores
    # have max 0 with both +0 and -0 in it (dh = 4, scale 0.5: -5e-324 * 0.5
    # rounds to -0), the one case where order can change a max's bits
    n_txt, dh = 4, 4
    n, d = n_txt + n_img, heads * dh
    force_lanes(monkeypatch, lanes)
    if block is not None:
        monkeypatch.setattr(models, "SCORE_BLOCK_BYTES", block * n * n * 8)
    scratch = models._Scratch(b, n_txt, n_img, d, 2 * models.TIME_FREQS, heads)
    *_, unit_shares = scratch.views(b)
    rng = np.random.default_rng(b * 100 + heads)
    q, k, v = scratch.q[:b], scratch.k[:b], scratch.v[:b]
    for a in (q, k, v):
        a[...] = rng.standard_normal(a.shape)
    tiny = np.nextafter(0.0, 1.0)
    for e in range(b):
        for head in range(heads):
            at = (e + head) % n
            q[e, at, head * dh:(head + 1) * dh] = (tiny, 0.0, 0.0, 0.0)
            k[e, :, head * dh] = np.resize([-1.0, 0.0, -2.0], n)
            k[e, :, head * dh + 1:(head + 1) * dh] = np.abs(k[e, :, head * dh + 1:(head + 1) * dh])
            row = np.matmul(q[e, at, head * dh:(head + 1) * dh],
                            k[e, :, head * dh:(head + 1) * dh].T) * 0.5
            zeros = row[row == 0.0]
            assert row.max() == 0.0 and np.signbit(zeros).any() and not np.signbit(zeros).all()
    want_out, want_txt = reference_attend(q, k, v, heads, n_txt)
    for share in unit_shares:
        models._attend(share, 0.5, b == 1)  # only one entry is recorded
    assert np.array_equal(scratch.attn_out[:b], want_out)
    if b == 1:
        assert np.array_equal(scratch.attn_txt, want_txt)
    assert len(unit_shares) == lanes
    for unit in (u for share in unit_shares for u in share):
        scores, row, flat_scores, starts, flat_row = unit[4:9]
        assert np.shares_memory(flat_scores, scores) and np.shares_memory(flat_row, row)
        assert flat_scores.size == scores.size and len(starts) == flat_row.size == row.size
        assert np.array_equal(starts, np.arange(0, scores.size, n))


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


def _evaluate_and_count_lanes(conn, flow, z):
    import threading

    out = flow.evaluate(z, 0.3, COND).data
    conn.send((out, [t.name for t in threading.enumerate()].count("adaedit-lane")))
    conn.close()


@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_a_forked_child_evaluates_on_a_lane_of_its_own(monkeypatch):
    # the parent's helper thread does not survive a fork, so a child forgets
    # the parent's lane, free or held at the fork, and starts one of its own:
    # a child that took the parent's free lane would wait forever on a helper
    # it does not have, and one that found it held would run on one lane
    import multiprocessing

    force_lanes(monkeypatch, 2)
    flow = ToyAttentionFlow(seed=1, img_tokens=256, embed_dim=8, heads=2)
    z = sample_gaussian(SeededRng(2), 1, 256, 8)
    want = flow.evaluate(z, 0.3, COND).data
    assert two_lane(flow, 1)
    ctx = multiprocessing.get_context("fork")
    for held in (False, True):
        lane = models._claim_lane()
        assert lane is not None
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_evaluate_and_count_lanes, args=(send, flow, z))
        try:
            if not held:
                lane.release()
            child.start()
        finally:
            if held:
                lane.release()
        send.close()
        try:
            assert receive.poll(60), "the forked child's evaluation hung"
            got, lanes = receive.recv()
        finally:
            receive.close()
            child.join(30)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert np.array_equal(got, want) and lanes == 1, held


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
