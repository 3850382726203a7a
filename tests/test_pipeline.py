from __future__ import annotations

import itertools
import json
import math
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaedit import models, pipeline, solvers
from adaedit.errors import ConfigError, DivergenceError
from adaedit.latent import Latent, SeededRng, sample_gaussian
from adaedit.models import (AttentionRecord, EditMask, InjectionHooks, KVCache,
                            ToyAttentionFlow, extract_mask)
from adaedit.perturbation import PERTURBATION_MODES
from adaedit.pipeline import (FIELD_SPECS, EditConfig, build_model, build_schedule,
                              config_hash, edit_grid, generate_source_latent,
                              inversion_key, invert, resolve_edit_tokens,
                              run_edit, run_reconstruction)
from adaedit.schedules import (SCHEDULE_FAMILIES, InjectionSchedule, is_active,
                               max_step_delta, schedule_weight)
from adaedit.solvers import (DIVERGENCE_LIMIT, SOLVER_KINDS, TimeGrid,
                             integrate_backward, integrate_forward)

from reference_edit import reference_source_latent


def run_default(seed=0, **overrides):
    cfg = EditConfig(seed=seed, **overrides)
    src = generate_source_latent(cfg)
    return cfg, src, run_edit(src, cfg.source_conditioning(), cfg.target_conditioning(), cfg)


# --------------------------------------------------------------------- config

def test_config_validation_names_fields():
    with pytest.raises(ConfigError) as exc:
        EditConfig(injection_steps=99).validate()
    assert "injection_steps" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        EditConfig(tau=0.0).validate()
    assert "tau" in str(exc.value)
    with pytest.raises(ConfigError):
        EditConfig(img_tokens=15).validate()  # not a square grid
    with pytest.raises(ConfigError):
        EditConfig(schedule="step").validate()


def test_config_is_checked_when_made_and_frozen():
    cfg = EditConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.injection_steps = 99
    with pytest.raises(ConfigError) as exc:
        replace(cfg, injection_steps=99)
    assert exc.value.field == "injection_steps"


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError) as exc:
        EditConfig.from_dict({"totle_steps": 10})
    assert "totle_steps" in str(exc.value)


def test_config_round_trip_and_hash_stability():
    cfg = EditConfig(seed=3, alpha=0.5)
    again = EditConfig.from_dict(json.loads(json.dumps(cfg.resolved_dict())))
    assert config_hash(cfg) == config_hash(again)
    assert config_hash(cfg) != config_hash(replace(cfg, seed=4))


def test_an_int_in_a_float_field_hashes_as_the_equal_float():
    ints = {"alpha": 1, "tau": 2, "sharpness": 5, "soft_mask_gamma": 3, "layer_ratio_beta": 0}
    floats = {name: float(value) for name, value in ints.items()}
    assert EditConfig.from_dict(ints) == EditConfig.from_dict(floats)
    assert config_hash(EditConfig.from_dict(ints)) == config_hash(EditConfig.from_dict(floats))
    assert config_hash(EditConfig(alpha=1)) == config_hash(EditConfig(alpha=1.0))
    # -0.0 equals 0.0 but is a value of its own
    assert config_hash(EditConfig(alpha=-0.0)) != config_hash(EditConfig(alpha=0.0))


def test_a_float_field_holds_a_float():
    for cfg in (EditConfig(alpha=1), EditConfig.from_dict({"alpha": 1}),
                EditConfig(alpha=np.float64(1.0))):
        assert cfg.alpha == 1.0 and type(cfg.alpha) is float
    assert type(EditConfig(soft_mask_gamma=2).soft_mask_gamma) is float
    assert EditConfig(soft_mask_gamma=None).soft_mask_gamma is None


def test_a_config_made_from_a_list_equals_and_hashes_like_its_tuple_twin():
    listed = EditConfig(source_prompt_ids=[1, 2, 3, 4], target_prompt_ids=[1, 2, 9, 4])
    twin = EditConfig(source_prompt_ids=(1, 2, 3, 4), target_prompt_ids=(1, 2, 9, 4))
    assert listed.source_prompt_ids == (1, 2, 3, 4)
    assert listed == twin and hash(listed) == hash(twin)
    assert config_hash(listed) == config_hash(twin)
    assert len({listed, twin, replace(listed, alpha=0.25)}) == 1


def test_the_caller_s_list_does_not_reach_the_config():
    ids = [1, 2, 3, 4]
    cfg = EditConfig(source_prompt_ids=ids)
    copy = replace(cfg, alpha=0.1)
    digest = config_hash(cfg)
    ids[0] = 63
    ids[1] = 500
    for held in (cfg, copy):
        assert held.source_prompt_ids == (1, 2, 3, 4)
        assert held.source_conditioning().prompt_token_ids == (1, 2, 3, 4)
    assert config_hash(cfg) == digest


def test_config_from_dict_types():
    cfg = EditConfig.from_dict({"total_steps": 8.0, "source_prompt_ids": [1, 2.0, 3, 4]})
    assert cfg.total_steps == 8 and type(cfg.total_steps) is int
    assert cfg.source_prompt_ids == (1, 2, 3, 4)
    assert config_hash(cfg) == config_hash(EditConfig(
        total_steps=8, source_prompt_ids=(1, 2, 3, 4)))
    for bad in ({"alpha": "0.5"}, {"global_mix": 0}, {"schedule": 3},
                {"tau": float("inf")}, {"heads": False}):
        with pytest.raises(ConfigError) as exc:
            EditConfig.from_dict(bad)
        assert exc.value.field == next(iter(bad))


def test_no_active_step_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        EditConfig(activity_threshold=0.99).validate()
    assert exc.value.field == "activity_threshold"
    EditConfig(activity_threshold=0.99, schedule="cosine").validate()


def test_memory_product_is_a_config_error():
    # construction only: no run is started, so nothing is allocated. An
    # evaluation holds one (n, n) score block per lane, not every head's
    # scores at once, so 16 heads over 4100 tokens need ~0.6 GB in all
    EditConfig(img_tokens=4096, embed_dim=256, heads=16)
    # at embed_dim=1024 and 4 layers the K/V cache of 6 active steps alone
    # is ~1.61 GB; the message names every part it counts
    with pytest.raises(ConfigError) as exc:
        EditConfig(heads=32, img_tokens=4096, embed_dim=1024, layer_count=4)
    assert exc.value.field == "img_tokens"
    message = str(exc.value)
    assert "2.4 GB" in message and "2 GB budget" in message
    for part in ("model weights 0.143 GB", "evaluation scratch 0.273 GB",
                 "K/V cache of 6 active steps 1.61 GB", "attention record 0.101 GB",
                 "its keyword rows for the mask 0.0252 GB", "one edit row 0.246 GB"):
        assert part in message, part
    # the K/V of 28 active steps at the stability envelope's size is ~0.94 GB;
    # with 20 layers instead of 8 it is ~2.36 GB
    envelope = dict(img_tokens=1024, embed_dim=256, layer_count=8, heads=4, channels=16,
                    total_steps=28, injection_steps=28, schedule="binary")
    EditConfig(**envelope)
    with pytest.raises(ConfigError):
        EditConfig(**dict(envelope, layer_count=20))
    # K/V ~0.29 GB and the evaluation scratch ~0.04 GB fit, but the attention
    # record of 28 active steps is ~3.76 GB; the mask stacks only its
    # keyword's rows, 1/text_tokens of it, so at 64 text tokens the run fits
    # (~1.24 GB, 0.94 GB of it the record)
    record = dict(img_tokens=1024, text_tokens=256, vocab_size=512, heads=8, layer_count=8,
                  embed_dim=64, total_steps=28, injection_steps=28, schedule="binary")
    with pytest.raises(ConfigError) as exc:
        EditConfig(**record)
    assert exc.value.field == "img_tokens"
    assert "attention record 3.76 GB, its keyword rows for the mask 0.0147 GB" in str(exc.value)
    EditConfig(**dict(record, text_tokens=64, vocab_size=128))
    # one active step's K/V, the record and its keyword rows, the scratch and
    # one row take ~0.84 GB, and the weights of 32 layers at embed_dim=1024
    # with a 65536-token table ~1.62 GB
    with pytest.raises(ConfigError) as exc:
        EditConfig(layer_count=32, embed_dim=1024, vocab_size=65536, img_tokens=1024,
                   text_tokens=256, total_steps=4, injection_steps=1, schedule="binary")
    assert exc.value.field == "img_tokens"
    assert "2.46 GB (model weights 1.62 GB" in str(exc.value)


# The arrays of a _Scratch that grow with its entries; scores and row grow up
# to a full block per lane, and attn_txt keeps the one recorded entry.
ENTRY_ARRAYS = ("x", "h", "q", "k", "v", "attn_out", "proj")


@pytest.mark.parametrize("dims", ({}, dict(img_tokens=64, embed_dim=64, heads=4, layer_count=3),
                                  dict(img_tokens=36, text_tokens=6, embed_dim=48, heads=3,
                                       channels=4, vocab_size=100),
                                  dict(img_tokens=256, embed_dim=128, heads=4, layer_count=4)),
                         ids=("default", "wide", "odd", "mid"))
def test_memory_budget_counts_the_models_arrays(dims):
    # the estimate follows the model's real arrays, so a change to the block
    # that adds a weight or a scratch array shows here
    cfg = EditConfig(**dims)
    model = build_model(cfg)
    params = [a for a in vars(model).values() if isinstance(a, np.ndarray)]
    params += [w for layer in model.layers for w in layer.values()]
    parts, per_row = pipeline._run_bytes(cfg, 1)
    assert parts["model weights"] == sum(a.nbytes for a in params)
    # the evaluation scratch holds a full score block on each lane from
    # _block_entries(n) entries on (at the mid size, 3 entries on each of two
    # lanes), and each entry adds ENTRY_ARRAYS; the estimate is exact there
    n = cfg.img_tokens + cfg.text_tokens
    block = models._block_entries(n)
    _, scratch, entry = ToyAttentionFlow.array_bytes(**pipeline._model_dims(cfg))
    assert parts["evaluation scratch"] == scratch
    for b in sorted({1, 2, block, block + 1}):
        made = models._Scratch(b, cfg.text_tokens, cfg.img_tokens, cfg.embed_dim,
                               2 * model.time_freqs, cfg.heads)
        held = sum(a.nbytes for a in vars(made).values() if isinstance(a, np.ndarray))
        assert sum(getattr(made, name).nbytes for name in ENTRY_ARRAYS) == b * entry
        assert held <= scratch + b * entry
        assert (held == scratch + b * entry) == (b >= block)
    # per row: its evaluation scratch, the K/V blends of every step and the
    # states and solver temporaries
    blends = 8 * 2 * cfg.total_steps * cfg.layer_count * n
    states = 8 * (cfg.total_steps + 8) * cfg.img_tokens * cfg.channels
    assert per_row - blends - states == entry


def traced_peak(cfg, rows=1):
    """The tracemalloc peak of run_edit under cfg, or of an edit_grid of
    ``rows`` alpha values in one stack, and the estimate of _run_bytes."""
    src = generate_source_latent(cfg)
    tracemalloc.start()
    try:
        if rows > 1:
            edit_grid(src, cfg, {"alpha": list(np.linspace(0.1, 0.9, rows))})
        else:
            run_edit(src, cfg.source_conditioning(), cfg.target_conditioning(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parts, per_row = pipeline._run_bytes(cfg, cfg.injection_schedule.active_count)
    return peak, sum(parts.values()) + rows * per_row


def assert_estimate_bounds_the_peak(dims, rows=1):
    """The estimate counts what a run holds: at least its traced peak, at
    most 1.3 times it plus 3 MB (the score blocks at their most entries,
    which a single small edit does not fill)."""
    peak, estimate = traced_peak(EditConfig(**dims), rows)
    assert peak <= estimate <= 1.3 * peak + 3e6, (peak, estimate)


MID = dict(img_tokens=256, embed_dim=128, layer_count=4, heads=4)


@pytest.mark.parametrize("dims,rows", (({}, 1), (MID, 1), (MID, 3),
                                       (dict(img_tokens=256, embed_dim=32, layer_count=2,
                                             heads=32), 1)),
                         ids=("default", "mid", "mid-grid", "heads-32"))
def test_the_memory_estimate_bounds_the_traced_peak(dims, rows):
    # at 32 heads the attention record is the largest part of the run; a
    # 3-row grid holds one larger scratch, which replaces the inversion's
    assert_estimate_bounds_the_peak(dims, rows)


def test_readme_config_section_lists_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Config\n"):readme.index("## Reproducibility notes")]
    for f in fields(EditConfig):
        row = f"| `{f.name}` | `{json.dumps(f.default)}` | {FIELD_SPECS[f.name].describe()} |"
        assert row in section, row


def test_config_prompt_defaults():
    cfg = EditConfig()
    assert cfg.resolved_source_prompt() == (1, 2, 3, 4)
    tgt = cfg.resolved_target_prompt()
    assert tgt != cfg.resolved_source_prompt()
    assert cfg.source_conditioning().keyword_index == cfg.target_conditioning().keyword_index


# ------------------------------------------------------------------- run_edit

def test_run_edit_deterministic():
    _, _, a = run_default(seed=9)
    _, _, b = run_default(seed=9)
    assert np.array_equal(a.edited.data, b.edited.data)
    assert np.array_equal(a.reconstructed_source.data, b.reconstructed_source.data)
    assert np.array_equal(a.mask.soft, b.mask.soft)
    assert a.diagnostics == b.diagnostics
    assert a.schedule_trace == b.schedule_trace


def test_run_edit_disabled_mechanism_reduces_to_plain_sampling():
    # alpha = 0 and delta_base = 0: the full pipeline must match a bare
    # inversion + resample under the target prompt, bitwise
    cfg = EditConfig(alpha=0.0, delta_base=0.0, seed=4)
    src = generate_source_latent(cfg)
    result = run_edit(src, cfg.source_conditioning(), cfg.target_conditioning(), cfg)

    model = build_model(cfg)
    grid = TimeGrid.uniform(cfg.total_steps)
    inv = integrate_backward(model, src, grid, cfg.solver, cfg.source_conditioning())
    plain = integrate_forward(model, inv.final, grid, cfg.solver,
                              cfg.target_conditioning())
    assert np.array_equal(result.edited.data, plain.final.data)


def test_run_edit_schedule_trace_matches_direct_calls():
    cfg, _, result = run_default(seed=2)
    schedule = build_schedule(cfg)
    assert len(result.schedule_trace) == cfg.total_steps
    for i, (w, active) in enumerate(result.schedule_trace):
        assert w == schedule_weight(schedule, i)
        assert active == is_active(schedule, i)


def test_run_edit_channel_weights_mean_one():
    _, _, result = run_default(seed=5)
    assert abs(result.channel_weights.alpha.mean() - 1.0) <= 1e-9
    assert np.all(result.channel_weights.alpha >= 0.0)


def test_run_edit_diagnostics_domains():
    cfg, _, result = run_default(seed=1)
    d = result.diagnostics
    assert d["psnr"] >= 0.0 or d["psnr"] == np.inf
    assert -1.0 <= d["ssim"] <= 1.0
    assert d["evals"] == d["eval_count_inversion"] + d["eval_count_sampling"]
    assert d["eval_count_inversion"] == cfg.total_steps + 1  # reuse_velocity
    assert d["empty_mask_fallback"] == 0.0


def test_run_edit_eval_counts_per_solver():
    for solver, expected in (("euler", 15), ("midpoint", 30), ("reuse_velocity", 16)):
        _, _, result = run_default(seed=1, solver=solver)
        assert result.diagnostics["eval_count_inversion"] == expected
        assert result.diagnostics["eval_count_sampling"] == expected


def test_run_edit_every_schedule_family_completes():
    # cache window == injection window: no cache miss for any family/solver
    for family in ("binary", "sigmoid", "cosine", "linear"):
        for solver in ("euler", "midpoint", "reuse_velocity"):
            run_default(seed=3, schedule=family, solver=solver, total_steps=6,
                        injection_steps=3)


def test_run_edit_injection_window_edge_configs():
    run_default(seed=1, injection_steps=15)  # T_inj == T
    run_default(seed=1, injection_steps=1)
    run_default(seed=1, total_steps=2, injection_steps=1)


def test_run_edit_multi_head_model():
    _, _, result = run_default(seed=4, heads=2, total_steps=6, injection_steps=2)
    assert np.all(np.isfinite(result.edited.data))


def test_run_edit_degenerate_dims():
    # one image token and one channel: mask and metrics stay defined
    _, _, result = run_default(seed=2, img_tokens=1, channels=1, embed_dim=8,
                               text_tokens=2, total_steps=4, injection_steps=2)
    assert result.edited.shape == (1, 1, 1)
    assert np.isfinite(result.diagnostics["ssim"])


def test_run_edit_single_step():
    _, _, result = run_default(seed=1, total_steps=1, injection_steps=1)
    assert result.diagnostics["max_step_delta"] == 0.0
    assert len(result.schedule_trace) == 1


def test_run_edit_mask_keyword_switch():
    cfg_t, _, res_target = run_default(seed=4)
    _, _, res_source = run_default(seed=4, mask_keyword_source="source")
    # both complete; the keyword position matches by default so the masks
    # coincide, but distinct keyword indices flow through to extraction
    _, _, res_kw = run_default(seed=4, mask_keyword_source="source",
                               source_keyword_index=0)
    assert np.all(res_kw.mask.soft >= 0.0)
    with pytest.raises(ConfigError):
        EditConfig(mask_keyword_source="both").validate()


def test_run_edit_uniform_mode_reports_unit_weights():
    _, _, result = run_default(seed=6, perturbation_mode="uniform")
    assert np.all(result.channel_weights.alpha == 1.0)


def test_run_edit_layer_profile_active():
    _, _, result = run_default(seed=6, layer_ratio_beta=0.4)
    assert result.diagnostics["velocity_jump"] > 0.0


def test_run_edit_source_shape_checked():
    # one source latent is one edit: a second entry is a wrong shape too
    cfg = EditConfig()
    for shape in ((1, 16, 4), (2, 16, 8)):
        bad = sample_gaussian(SeededRng(0), *shape)
        with pytest.raises(ValueError):
            run_edit(bad, cfg.source_conditioning(), cfg.target_conditioning(), cfg)


def test_self_reconstruction_error_decreases_with_steps():
    # full injection, no perturbation, source prompt on both sides: the edit
    # collapses to an inversion/resampling roundtrip whose error shrinks with T
    errs = []
    for total in (10, 20, 40):
        cfg = EditConfig(schedule="binary", total_steps=total, injection_steps=total,
                         delta_base=1.0, alpha=0.0, solver="midpoint",
                         global_mix=True, seed=0)
        src = generate_source_latent(cfg)
        result = run_edit(src, cfg.source_conditioning(), cfg.source_conditioning(), cfg)
        errs.append(float(np.max(np.abs(result.edited.data - src.data))
                          / np.max(np.abs(src.data))))
    assert errs[0] > errs[1] > errs[2]


def test_monotone_preservation_with_delta():
    # stronger injection anchors the edit toward the reconstructed source
    for seed in (1, 2, 3):
        dists = []
        for delta in (0.0, 0.45, 0.9):
            _, _, result = run_default(seed=seed, delta_base=delta)
            dists.append(float(np.linalg.norm(
                result.edited.data - result.reconstructed_source.data)))
        assert dists[0] >= dists[1] >= dists[2]


def test_binary_velocity_jump_matches_primitive():
    # for the binary family the max consecutive jump is the cutoff jump,
    # i.e. the velocity change of dropping delta_base to zero at the last
    # injected step
    from adaedit.diagnostics import velocity_jump

    cfg = EditConfig(schedule="binary", seed=8)
    src = generate_source_latent(cfg)
    result = run_edit(src, cfg.source_conditioning(), cfg.target_conditioning(), cfg)

    # replay phase 1 + 3 to capture the sampling trajectory and cache
    model = build_model(cfg)
    schedule = build_schedule(cfg)
    grid = TimeGrid.uniform(cfg.total_steps)
    cache = KVCache()
    attn = AttentionRecord()

    def record_hooks(i):
        if is_active(schedule, i):
            return InjectionHooks(mode="record", cache=cache, step=i, attn_sink=attn)
        return None

    inv_final = integrate_backward(model, src, grid, cfg.solver,
                                   cfg.source_conditioning(), record_hooks).final
    from adaedit.models import extract_mask
    from adaedit.perturbation import PerturbationConfig, latents_shift_channel_selective

    mask = extract_mask(attn, cfg.target_conditioning(), cfg.soft_mask_gamma)
    z_hat, _ = latents_shift_channel_selective(
        inv_final, sample_gaussian(SeededRng(cfg.seed), 1, 16, 8),
        PerturbationConfig(cfg.alpha, cfg.tau), mask.hard)

    def inject_hooks(i):
        if is_active(schedule, i):
            return InjectionHooks(mode="inject", cache=cache, step=i,
                                  mix_ratios=(cfg.delta_base, cfg.delta_base),
                                  background_mask=mask)
        return None

    sampling = integrate_forward(model, z_hat, grid, cfg.solver,
                                 cfg.target_conditioning(), inject_hooks)
    cut = cfg.injection_steps - 1
    jump = velocity_jump(model, sampling.states[cut], grid.times[cut],
                         cfg.target_conditioning(), cache, cut, cfg.delta_base, mask=mask)
    assert result.diagnostics["velocity_jump"] == jump


def test_resolve_edit_tokens_fallback():
    empty = EditMask(np.full(16, 0.2))
    tokens, fallback = resolve_edit_tokens(empty, 16)
    assert fallback
    assert tokens == tuple(range(16))
    nonempty = EditMask(np.array([0.9] + [0.0] * 15))
    tokens, fallback = resolve_edit_tokens(nonempty, 16)
    assert not fallback
    assert tokens == (0,)


# ------------------------------------------------------------------ inversion

def assert_same_result(a, b):
    assert np.array_equal(a.edited.data, b.edited.data)
    assert np.array_equal(a.reconstructed_source.data, b.reconstructed_source.data)
    assert np.array_equal(a.mask.soft, b.mask.soft)
    assert np.array_equal(a.channel_weights.alpha, b.channel_weights.alpha)
    assert np.array_equal(a.channel_gaps, b.channel_gaps)
    assert a.schedule_trace == b.schedule_trace
    # repr of every float, as the benchmark digests them
    assert json.dumps(a.diagnostics, sort_keys=True) == json.dumps(b.diagnostics,
                                                                   sort_keys=True)


def test_grid_rows_equal_standalone_edits_and_invert_once_per_key(monkeypatch):
    # sigmoid plans steps 0-3 and binary steps 0-2, so the binary rows run on
    # a record of more steps than they inject; the keyword indices differ, so
    # mask_keyword_source changes the mask
    cfg = EditConfig(seed=5, total_steps=6, injection_steps=3, source_keyword_index=0)
    axes = {"schedule": ["sigmoid", "binary"], "alpha": [0.1, 0.5], "tau": [0.5, 2.0],
            "soft_mask_gamma": [None, 8.0], "mask_keyword_source": ["source", "target"],
            "perturbation_mode": ["uniform", "channel_selective"],
            "solver": ["euler", "reuse_velocity"]}
    assert [build_schedule(replace(cfg, schedule=family)).active_count
            for family in axes["schedule"]] == [4, 3]
    src = generate_source_latent(cfg)
    backward = []
    real_backward = pipeline.integrate_backward

    def counted_backward(*args, **kwargs):
        backward.append(args[3])
        return real_backward(*args, **kwargs)

    monkeypatch.setattr(pipeline, "integrate_backward", counted_backward)
    rows = list(edit_grid(src, cfg, axes))
    assert len(rows) == 128
    keys = {inversion_key(row_cfg, row_cfg.source_conditioning()) for _, row_cfg, _ in rows}
    assert len(keys) == 2
    assert sorted(backward) == ["euler", "reuse_velocity"]
    for _, row_cfg, result in rows:
        alone = run_edit(src, row_cfg.source_conditioning(),
                         row_cfg.target_conditioning(), row_cfg)
        assert_same_result(result, alone)


def test_grid_rows_share_masks_token_sets_and_plans_by_key(monkeypatch):
    # one inversion group: the mask depends on the planned steps, the mask
    # prompt and gamma; the edit tokens on the planned steps and the mask
    # prompt only (gamma keeps the hard set); the plan on the schedule and
    # layer_ratio_beta; perturbation_mode and global_mix on none of them
    cfg = EditConfig(seed=7, total_steps=6, injection_steps=3, source_keyword_index=0)
    axes = {"schedule": ["sigmoid", "binary"], "soft_mask_gamma": [None, 8.0],
            "mask_keyword_source": ["source", "target"],
            "perturbation_mode": ["uniform", "channel_selective"],
            "global_mix": [False, True], "layer_ratio_beta": [0.0, 0.5]}
    src = generate_source_latent(cfg)
    made = {"extract_mask": 0, "channel_gap": 0, "_injection_plan": 0}
    for name in made:
        def counted(*args, _real=getattr(pipeline, name), _name=name, **kwargs):
            made[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    rows = list(edit_grid(src, cfg, axes))
    monkeypatch.undo()
    assert len(rows) == 64

    def mask_cond(row_cfg):
        return (row_cfg.target_conditioning() if row_cfg.mask_keyword_source == "target"
                else row_cfg.source_conditioning())

    masks = {(row_cfg.injection_schedule.active_count, mask_cond(row_cfg),
              row_cfg.soft_mask_gamma) for _, row_cfg, _ in rows}
    token_sets = {result.mask.hard or tuple(range(cfg.img_tokens))
                  for _, _, result in rows}
    plans = {(row_cfg.schedule, row_cfg.layer_ratio_beta) for _, row_cfg, _ in rows}
    assert made == {"extract_mask": len(masks), "channel_gap": len(token_sets),
                    "_injection_plan": len(plans)}
    assert len(plans) == 4 and len(token_sets) < len(masks) == 8
    for _, row_cfg, result in rows:
        alone = run_edit(src, row_cfg.source_conditioning(),
                         row_cfg.target_conditioning(), row_cfg)
        assert_same_result(result, alone)


def test_mask_of_a_superset_record_limited_to_the_planned_steps():
    cfg = EditConfig(seed=2)
    src = generate_source_latent(cfg)
    c_src = cfg.source_conditioning()
    superset = invert(src, c_src, cfg, cfg.total_steps)
    # recording leaves the trajectory and the reconstruction unchanged
    plain = invert(src, c_src, cfg)
    assert np.array_equal(superset.z_inv.data, plain.z_inv.data)
    assert np.array_equal(superset.reconstructed.data, plain.reconstructed.data)
    for count in (1, 3, 6):
        own = invert(src, c_src, cfg, count)
        for gamma in (None, 8.0):
            limited = extract_mask(superset.attn, c_src, gamma, count)
            exact = extract_mask(own.attn, c_src, gamma)
            assert np.array_equal(limited.soft, exact.soft)


def test_sample_edits_takes_edits_longest_plan_first():
    cfg = EditConfig(seed=3, total_steps=6, injection_steps=3)
    short = replace(cfg, schedule="binary")
    assert cfg.injection_schedule.active_count > short.injection_schedule.active_count
    src = generate_source_latent(cfg)
    inversion = invert(src, cfg.source_conditioning(), cfg, 6)
    edits = [(c.source_conditioning(), c.target_conditioning(), c) for c in (short, cfg)]
    with pytest.raises(ValueError, match="longest plan first"):
        pipeline._sample_edits(inversion, edits)
    # in that order the rows come back in the order given
    rows = pipeline._sample_edits(inversion, edits[::-1])
    assert [sum(active for *_, active in row.schedule_trace) for row in rows] == [4, 3]
    assert [row.diagnostics["max_step_delta"] for row in rows] == [
        max_step_delta(c.injection_schedule, c.delta_base) for c in (cfg, short)]


@pytest.mark.parametrize("steps", (1.5, True, -3, 99))
def test_invert_refuses_a_step_count_outside_its_grid(steps):
    # 1.5 used to record steps 0-1, True step 0, -3 nothing and 99 all 15
    cfg = EditConfig()
    with pytest.raises(ConfigError, match=r"steps: must be an integer in \[0, 15\]"):
        invert(generate_source_latent(cfg), cfg.source_conditioning(), cfg, steps)


@pytest.mark.parametrize("axes, field", (
    ({"schedule": "binary"}, "schedule"),  # used to run one row per character
    ({"alpha": 0.5}, "alpha"),             # used to end in a bare TypeError
))
def test_grid_refuses_an_axis_that_is_a_string_or_a_scalar(axes, field):
    cfg = EditConfig()
    with pytest.raises(ConfigError, match=f"{field}: axis must be a sequence of values") as exc:
        edit_grid(generate_source_latent(cfg), cfg, axes)
    assert exc.value.field == field


def test_grid_rows_of_one_token_set_cannot_write_their_shared_channel_gaps():
    cfg = EditConfig()
    src = generate_source_latent(cfg)
    (_, _, first), (_, _, second) = edit_grid(src, cfg, {"alpha": [0.1, 0.5]})
    before = second.channel_gaps.copy()
    with pytest.raises(ValueError, match="read-only"):
        first.channel_gaps[0] = 99.0
    assert np.array_equal(second.channel_gaps, before)


def test_grid_holds_one_inversion_at_a_time(monkeypatch):
    made = []
    real_invert = pipeline.invert

    def tracked_invert(*args, **kwargs):
        assert all(ref() is None for ref in made)  # the previous one is gone
        inversion = real_invert(*args, **kwargs)
        made.append(weakref.ref(inversion))
        return inversion

    monkeypatch.setattr(pipeline, "invert", tracked_invert)
    cfg = EditConfig(seed=1, total_steps=4, injection_steps=2)
    src = generate_source_latent(cfg)
    # the seed axis outermost and innermost: either way a row is handed out
    # only after its inversion is freed, and each seed inverts once
    for axes in ({"seed": [1, 2, 3], "alpha": [0.1, 0.5]},
                 {"alpha": [0.1, 0.5], "seed": [1, 2, 3]}):
        made.clear()
        grid = edit_grid(src, cfg, axes)
        # the results hold no Inversion: the last group's is gone too
        assert len(made) == 3 and made[-1]() is None
        rows = []
        for overrides, _, _ in grid:
            assert all(ref() is None for ref in made)
            rows.append(overrides)
        assert rows == [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


# ------------------------------------------------------------------- stacking

def count_sampling(monkeypatch):
    """Counts the sampling integrations that edits make from now on."""
    calls = []
    real_forward = pipeline.integrate_forward

    def counted_forward(*args, **kwargs):
        if kwargs.get("phase") == "sampling":
            calls.append(args[1].b)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(pipeline, "integrate_forward", counted_forward)
    return calls


@pytest.mark.parametrize("solver", ("euler", "midpoint", "reuse_velocity"))
def test_stacked_rows_equal_standalone_edits(monkeypatch, solver):
    # binary plans 3 steps and sigmoid 4, so at step 3 some rows inject and
    # others do not; global_mix at delta_base 1 blends every K/V row at
    # weight 1; the rows' target prompts differ
    cfg = EditConfig(seed=4, total_steps=6, injection_steps=3, heads=2, solver=solver)
    axes = {"schedule": ["binary", "sigmoid"], "global_mix": [False, True],
            "delta_base": [0.6, 1.0], "target_prompt_ids": [(1, 2, 9, 4), (5, 6, 7, 8)],
            "layer_ratio_beta": [0.0, 0.5]}
    assert [build_schedule(replace(cfg, schedule=family)).active_count
            for family in axes["schedule"]] == [3, 4]
    src = generate_source_latent(cfg)
    sampled = count_sampling(monkeypatch)
    rows = list(edit_grid(src, cfg, axes))
    assert len(rows) == 32
    assert sampled == [32]  # one stack for the whole group
    for _, row_cfg, result in rows:
        alone = run_edit(src, row_cfg.source_conditioning(),
                         row_cfg.target_conditioning(), row_cfg)
        assert_same_result(result, alone)
    assert sampled[1:] == [1] * 32


def stack_budget(cfg, active, rows):
    """The MEMORY_BUDGET at which edit_grid samples cfg's group, of
    ``active`` planned steps, in stacks of ``rows`` rows."""
    parts, per_row = pipeline._run_bytes(cfg, active)
    return sum(parts.values()) + rows * per_row


def test_stacks_are_sliced_to_the_memory_budget(monkeypatch):
    cfg = EditConfig(seed=6, total_steps=5, injection_steps=2)
    active = build_schedule(cfg).active_count
    budget = stack_budget(cfg, active, 2)
    src = generate_source_latent(cfg)
    axes = {"alpha": [0.1, 0.3, 0.5], "tau": [0.5, 2.0]}
    whole = list(edit_grid(src, cfg, axes))
    monkeypatch.setattr(pipeline, "MEMORY_BUDGET", budget)
    sampled = count_sampling(monkeypatch)
    sliced = list(edit_grid(src, cfg, axes))
    assert sampled == [2, 2, 2]
    for (_, _, a), (_, _, b) in zip(whole, sliced):
        assert_same_result(a, b)


# Axis values that keep every row valid at embed_dim=8, total_steps=5 and the
# default prompt size (text_tokens=4, vocab_size=64).
GRID_AXES = {
    "schedule": st.sampled_from(SCHEDULE_FAMILIES),
    "injection_steps": st.integers(1, 5),
    "solver": st.sampled_from(SOLVER_KINDS),
    "heads": st.sampled_from((1, 2, 4, 8)),
    "soft_mask_gamma": st.none() | st.floats(0.5, 16.0),
    "global_mix": st.booleans(),
    "layer_ratio_beta": st.floats(0.0, 1.9),
    "delta_base": st.floats(0.0, 1.0),
    "alpha": st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0)),
    "tau": st.sampled_from((0.5, 1.0, 2.0)),
    "perturbation_mode": st.sampled_from(PERTURBATION_MODES),
    "target_prompt_ids": st.lists(st.integers(0, 63), min_size=4, max_size=4).map(tuple),
}


# Axes over fields that no inversion reads, so every row of such a grid lands
# in one inversion group.
STACK_AXES = ("schedule", "alpha", "tau", "perturbation_mode")


@st.composite
def grid_axes(draw):
    """Up to three axes over GRID_AXES, or 3-8 rows in one inversion group:
    axes over STACK_AXES only, sampled as stacks of at least two rows."""
    if draw(st.booleans(), label="one stacked group"):
        names = draw(st.lists(st.sampled_from(STACK_AXES), min_size=2, max_size=4,
                              unique=True))
        axes = draw(st.fixed_dictionaries(
            {name: st.lists(GRID_AXES[name], min_size=1, max_size=3, unique=True)
             for name in names}).filter(
                 lambda axes: 3 <= math.prod(map(len, axes.values())) <= 8))
        # mostly one stack of the whole group, sometimes slices of 2 rows up
        return axes, 8 - draw(st.integers(0, 6))
    names = draw(st.lists(st.sampled_from(sorted(GRID_AXES)), min_size=1, max_size=3,
                          unique=True))
    axes = {name: draw(st.lists(GRID_AXES[name], min_size=1, max_size=2, unique=True))
            for name in names}
    return axes, draw(st.integers(0, 2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_grid_rows_equal_standalone_edits(data):
    # any grid over fields that do and do not split inversion groups, with
    # stacks sliced to the memory budget, gives each row its edit alone
    axes, extra = data.draw(grid_axes())
    cfg = EditConfig(seed=data.draw(st.integers(0, 2**16)), embed_dim=8, total_steps=5)
    split = data.draw(st.booleans(), label="token rows in halves")
    src = generate_source_latent(cfg)
    row_cfgs = [replace(cfg, **dict(zip(axes, combo)))
                for combo in itertools.product(*axes.values())]
    with pytest.MonkeyPatch.context() as mp:
        if split:  # n = 20 takes the two-lane layout, in the grid and alone
            mp.setattr(models, "LANE_SCORE_BYTES", 0)
        budget = pipeline.MEMORY_BUDGET
        try:
            # the heaviest row's group gets stacks of max(1, extra) rows; a
            # config needs a budget of one row at least
            pipeline.MEMORY_BUDGET = max(
                stack_budget(c, c.injection_schedule.active_count, max(1, extra))
                for c in row_cfgs)
            rows = edit_grid(src, cfg, axes)
        finally:
            pipeline.MEMORY_BUDGET = budget
        for _, row_cfg, result in rows:
            alone = run_edit(src, row_cfg.source_conditioning(),
                             row_cfg.target_conditioning(), row_cfg)
            assert_same_result(result, alone)


def test_grid_rows_that_share_perturbations_and_skip_jumps_equal_standalone_edits(
        monkeypatch):
    # sigmoid plans steps 0-4 and moves at each; binary and cosine plan 0-3,
    # and binary keeps its ratios over steps 0-2, so those steps evaluate the
    # 8 other rows gathered around the binary rows, step 3 the whole stack
    # and step 4 the sigmoid rows; binary and cosine rows of one mode and
    # alpha share one mask, so they share one perturbation
    cfg = EditConfig(seed=3, total_steps=5, embed_dim=8)
    axes = {"schedule": ["sigmoid", "binary", "cosine"], "alpha": [0.1, 0.5],
            "perturbation_mode": ["uniform", "channel_selective"]}
    src = generate_source_latent(cfg)
    jump_rows = []
    jump = pipeline.velocity_jump_between
    monkeypatch.setattr(pipeline, "velocity_jump_between",
                        lambda field, z, *args: jump_rows.append(z.b) or jump(field, z, *args))
    rows = edit_grid(src, cfg, axes)
    assert jump_rows == [8, 8, 8, 12, 4]
    assert len(rows) == 12
    for _, row_cfg, result in rows:
        alone = run_edit(src, row_cfg.source_conditioning(),
                         row_cfg.target_conditioning(), row_cfg)
        assert_same_result(result, alone)


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("embed_dim", (2, 3))
def test_grid_rows_at_the_two_lane_size_equal_standalone_edits(monkeypatch, embed_dim, cpus):
    # n = 260 and one head: a single entry has one attention unit and a
    # stack of 4 has two (score blocks of 3 entries and 1), and both split
    # their token rows in halves on any number of CPUs. Row halves and whole
    # rows differ in the last bit at embedding widths below 4, so a split
    # that followed the unit count would show here
    monkeypatch.setattr(models, "evaluation_lanes", lambda: cpus)
    cfg = EditConfig(img_tokens=256, heads=1, embed_dim=embed_dim, total_steps=5,
                     injection_steps=2)
    src = generate_source_latent(cfg)
    rows = edit_grid(src, cfg, {"alpha": [0.1, 0.5, 0.9, 0.3]})
    assert len(rows) == 4
    for _, row_cfg, result in rows:
        alone = run_edit(src, row_cfg.source_conditioning(),
                         row_cfg.target_conditioning(), row_cfg)
        assert_same_result(result, alone)


def sampling_limit(monkeypatch, limit):
    """Divergence at ``limit`` in the sampling phase only: the inversion's
    states are larger than some rows' sampling states."""
    real_forward = pipeline.integrate_forward

    def limited(*args, **kwargs):
        if kwargs.get("phase") != "sampling":
            return real_forward(*args, **kwargs)
        solvers.DIVERGENCE_LIMIT = limit
        try:
            return real_forward(*args, **kwargs)
        finally:
            solvers.DIVERGENCE_LIMIT = DIVERGENCE_LIMIT

    monkeypatch.setattr(pipeline, "integrate_forward", limited)


def grid_divergence(monkeypatch, extra=None):
    """The DivergenceError of a six-row grid sampled whole, or in stacks of
    ``extra`` rows, and the step at which each row diverges alone."""
    cfg = EditConfig(seed=1, total_steps=6, injection_steps=3)
    axes = {"alpha": [0.5, 1.0, 0.1], "schedule": ["binary", "sigmoid"]}
    src = generate_source_latent(cfg)
    if extra is not None:
        longest = replace(cfg, schedule="sigmoid")
        active = longest.injection_schedule.active_count
        monkeypatch.setattr(pipeline, "MEMORY_BUDGET", stack_budget(longest, active, extra))
    sampling_limit(monkeypatch, 3.5)
    alone = {}
    for index, combo in enumerate(itertools.product(*axes.values())):
        row_cfg = replace(cfg, **dict(zip(axes, combo)))
        try:
            run_edit(src, row_cfg.source_conditioning(), row_cfg.target_conditioning(),
                     row_cfg)
        except DivergenceError as exc:
            assert exc.row is None
            alone[index] = exc.step
    with pytest.raises(DivergenceError) as exc:
        edit_grid(src, cfg, axes)
    assert f"in row {exc.value.row}:" in str(exc.value)
    return exc.value, alone


def test_a_divergence_in_a_stack_names_its_row_and_the_standalone_step(monkeypatch):
    exc, alone = grid_divergence(monkeypatch)
    # some rows diverge, not the first, and not all at one step
    assert 0 not in alone and 0 < len(alone) < 6 and len(set(alone.values())) > 1
    assert exc.row in alone
    assert exc.step == alone[exc.row] == min(alone.values())


@pytest.mark.parametrize("extra,row", ((1, 3), (2, 3), (3, 5)))
def test_a_divergence_in_a_later_stack_slice_names_its_row(monkeypatch, extra, row):
    # the sigmoid rows 1, 3, 5 plan more steps and run first; row 3 diverges
    # alone at step 4 and row 5 at step 0, so in stacks of one row 3 fails in
    # the second stack, in stacks of two it is the second entry of the first
    exc, alone = grid_divergence(monkeypatch, extra)
    assert exc.row == row
    assert exc.step == alone[row]


# ------------------------------------------------------------- reconstruction

def test_run_reconstruction_deterministic():
    cfg = EditConfig(seed=2, solver="euler")
    src = generate_source_latent(cfg)
    a = run_reconstruction(src, cfg.source_conditioning(), cfg)
    b = run_reconstruction(src, cfg.source_conditioning(), cfg)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("dims", ({}, dict(img_tokens=64, embed_dim=32, layer_count=3, heads=2)),
                         ids=("default", "wide"))
def test_inversion_is_equivariant_under_a_permutation_of_the_image_tokens(dims):
    # the model has no positional encoding, so permuting the source's image
    # tokens permutes the inverted latent, the reconstruction, the image rows
    # of every cached K/V and the image axis of every recorded attention
    # block; to rounding only, since the permuted products sum in another
    # order (measured within 1.4e-15)
    cfg = EditConfig(seed=5, **dims)
    src, c_src = generate_source_latent(cfg), cfg.source_conditioning()
    perm = np.random.default_rng(3).permutation(cfg.img_tokens)
    plain = invert(src, c_src, cfg, cfg.total_steps)
    permuted = invert(Latent(src.data[:, perm]), c_src, cfg, cfg.total_steps)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    close(permuted.z_inv.data, plain.z_inv.data[:, perm])
    close(permuted.reconstructed.data, plain.reconstructed.data[:, perm])
    rows = np.concatenate([np.arange(cfg.text_tokens), cfg.text_tokens + perm])
    for step in range(cfg.total_steps):
        for layer in range(cfg.layer_count):
            for got, want in zip(permuted.cache.get(step, layer), plain.cache.get(step, layer)):
                close(got, want[:, rows])
    close(permuted.attn.stacked(), plain.attn.stacked()[..., perm])


@pytest.mark.parametrize("tokens,channels", ((1, 1), (16, 8), (64, 3), (1024, 16)))
@pytest.mark.parametrize("seed", (0, 1, 7, 2**64 - 1))
def test_source_latent_equals_the_channel_by_channel_reference_bitwise(seed, tokens, channels):
    cfg = EditConfig(seed=seed, img_tokens=tokens, channels=channels)
    made = generate_source_latent(cfg).data
    assert made.shape == (1, tokens, channels)
    assert made.tobytes() == reference_source_latent(cfg).tobytes()


# one value per schedule field, each different from its EditConfig default
SCHEDULE_CHANGES = {"schedule": "cosine", "total_steps": 20, "injection_steps": 5,
                    "sharpness": 7.0, "sigmoid_midpoint": 0.5, "activity_threshold": 0.1}


def test_equal_schedule_fields_share_one_schedule_and_any_other_value_makes_another():
    base = EditConfig(seed=1)
    schedule = build_schedule(base)
    # the fields outside the schedule's six do not matter
    other_run = EditConfig(seed=9, alpha=0.5, delta_base=0.3, layer_count=3)
    assert build_schedule(other_run) is schedule is base.injection_schedule
    assert other_run.injection_schedule is schedule
    with pytest.raises(FrozenInstanceError):
        schedule.weights = ()
    made = {id(schedule)}
    for name, value in SCHEDULE_CHANGES.items():
        changed = build_schedule(replace(base, **{name: value}))
        assert changed is build_schedule(replace(other_run, **{name: value}))
        made.add(id(changed))
    assert len(made) == 1 + len(SCHEDULE_CHANGES)
    assert pipeline._shared_schedule.cache_info().maxsize == pipeline.SCHEDULE_MEMO_LIMIT


def test_the_schedule_memo_merges_only_values_that_behave_alike():
    # -0.0 == 0.0 thresholds share a schedule: every weight compares alike to
    # both; an int sharpness is held as the equal float, so it shares one too
    def behaviour(s):
        return (s.weights, s.active_count, [is_active(s, i) for i in range(s.total_steps)],
                [max_step_delta(s, delta) for delta in (0.0, 0.9)])

    for family in SCHEDULE_FAMILIES:
        zero = build_schedule(EditConfig(schedule=family, activity_threshold=0.0))
        negative = build_schedule(EditConfig(schedule=family, activity_threshold=-0.0))
        assert negative is zero
        alone = InjectionSchedule(family, 15, 4, activity_threshold=-0.0)
        assert behaviour(alone) == behaviour(zero)
        whole = build_schedule(EditConfig(schedule=family, sharpness=5))
        assert whole is build_schedule(EditConfig(schedule=family, sharpness=5.0))
        assert type(whole.sharpness) is float


def test_grid_rows_have_the_schedule_trace_of_their_standalone_edits():
    # the trace and max_step_delta are made once per plan key, which 0.0 and
    # -0.0 share: both plans keep every K/V row
    cfg = EditConfig(seed=2, total_steps=6, embed_dim=8)
    axes = {"schedule": ["binary", "linear"], "delta_base": [0.0, -0.0, 0.6],
            "alpha": [0.1, 0.5]}
    src = generate_source_latent(cfg)
    rows = edit_grid(src, cfg, axes)
    assert len(rows) == 12
    for _, row_cfg, result in rows:
        alone = run_edit(src, row_cfg.source_conditioning(),
                         row_cfg.target_conditioning(), row_cfg)
        assert repr(result.schedule_trace) == repr(alone.schedule_trace)
        assert_same_result(result, alone)
    traces = {id(result.schedule_trace) for _, _, result in rows}
    assert len(traces) == 2 * 2


def test_generate_source_latent_deterministic_and_seed_sensitive():
    cfg = EditConfig(seed=5)
    a = generate_source_latent(cfg)
    b = generate_source_latent(cfg)
    assert np.array_equal(a.data, b.data)
    c = generate_source_latent(EditConfig(seed=6))
    assert np.any(a.data != c.data)
