from __future__ import annotations

import math

import numpy as np
import pytest

from adaedit import models
from adaedit.errors import CacheMissError
from adaedit.latent import Latent, SeededRng, sample_gaussian
from adaedit.models import (AnalyticLinearFlow, AttentionRecord, Conditioning,
                            EditMask, InjectionHooks, KVCache,
                            ToyAttentionFlow, extract_mask, kv_mix)

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

def test_kv_mix_ratio_zero_returns_target_bitwise():
    rng = SeededRng(1)
    k_src, v_src = rng.standard_normal((1, 6, 4)), rng.standard_normal((1, 6, 4))
    k_tgt, v_tgt = rng.standard_normal((1, 6, 4)), rng.standard_normal((1, 6, 4))
    k, v = kv_mix(k_src, v_src, k_tgt, v_tgt, 0.0)
    assert k is k_tgt and v is v_tgt


def test_kv_mix_ratio_one_global_returns_source():
    rng = SeededRng(2)
    arrs = [rng.standard_normal((1, 6, 4)) for _ in range(4)]
    k, v = kv_mix(*arrs, 1.0, global_mix=True)
    assert np.array_equal(k, arrs[0])
    assert np.array_equal(v, arrs[1])


def test_kv_mix_midpoint_blend():
    k_src = np.full((1, 6, 4), 2.0)
    k_tgt = np.zeros((1, 6, 4))
    k, _ = kv_mix(k_src, k_src, k_tgt, k_tgt, 0.5, global_mix=True)
    assert np.all(k == 1.0)


def test_kv_mix_ratio_domain_error():
    a = np.zeros((1, 2, 2))
    with pytest.raises(ValueError):
        kv_mix(a, a, a, a, 1.5)


def test_kv_mix_background_rows_only():
    # 2 text rows + 4 image rows; mask marks image rows 1, 2 as edit region
    mask = EditMask(np.array([0.0, 1.0, 1.0, 0.0]))
    k_src = np.full((6, 3), 2.0)
    k_tgt = np.zeros((6, 3))
    k, _ = kv_mix(k_src, k_src, k_tgt, k_tgt, 1.0, mask=mask)
    assert np.all(k[0:2] == 0.0)      # text rows stay target
    assert np.all(k[2] == 2.0)        # background image row fully source
    assert np.all(k[3:5] == 0.0)      # edit rows stay target
    assert np.all(k[5] == 2.0)


def test_kv_mix_soft_mask_partial_rows():
    mask = EditMask(np.array([0.25]))
    k_src = np.full((1, 2), 4.0)
    k_tgt = np.zeros((1, 2))
    k, _ = kv_mix(k_src, k_src, k_tgt, k_tgt, 1.0, mask=mask)
    # row ratio = 1 * (1 - 0.25) = 0.75 -> 3.0
    assert np.allclose(k, 3.0, atol=0, rtol=0)


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
    # a memo of two entries has to evict; -0.0 finds the entry of 0.0, whose
    # +0.0 sines change no sum that also holds the cosines' nonzero terms
    monkeypatch.setattr(models, "PROMPT_MEMO_LIMIT", 2)
    monkeypatch.setattr(models, "TIME_MEMO_LIMIT", 2)
    flow = default_flow()
    z = default_latent()
    c1, c2 = Conditioning((5, 6, 7, 8), 1), Conditioning((9, 9, 9, 9), 1)
    for t, cond in ((0.0, COND), (-0.0, c1), (0.25, c2), (0.5, COND), (0.25, c1),
                    (0.0, c2), (-0.0, COND)):
        got = flow.evaluate(z, t, cond)
        assert np.array_equal(got.data, default_flow().evaluate(z, t, cond).data)
        assert len(flow._time_memo) <= 2 and len(flow._prompt_memo) <= 2


def test_lipschitz_smoke():
    flow = default_flow()
    z = default_latent()
    base = flow.evaluate(z, 0.3, COND)
    bumped = z.data.copy()
    bumped[0, 3, 2] += 1e-6
    out = flow.evaluate(Latent(bumped), 0.3, COND)
    assert float(np.max(np.abs(out.data - base.data))) < 1e-2


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
