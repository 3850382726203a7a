from __future__ import annotations

import itertools
import json
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaedit import models, pipeline, solvers
from adaedit.errors import ConfigError, DivergenceError
from adaedit.latent import SeededRng, sample_gaussian
from adaedit.models import (AttentionRecord, EditMask, InjectionHooks, KVCache,
                            extract_mask)
from adaedit.pipeline import (FIELD_SPECS, EditConfig, build_model, build_schedule,
                              config_hash, edit_grid, generate_source_latent,
                              inversion_key, invert, resolve_edit_tokens,
                              run_edit, run_reconstruction)
from adaedit.schedules import SCHEDULE_FAMILIES, is_active, schedule_weight
from adaedit.solvers import (DIVERGENCE_LIMIT, SOLVER_KINDS, TimeGrid,
                             integrate_backward, integrate_forward)


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
    # construction only: no run is started, so nothing is allocated
    with pytest.raises(ConfigError) as exc:
        EditConfig(heads=32, img_tokens=4096, embed_dim=1024)
    assert exc.value.field == "img_tokens"
    assert "5.24 GB" in str(exc.value) and "2 GB budget" in str(exc.value)
    # the K/V of 28 active steps at the stability envelope's size is ~0.94 GB;
    # with 20 layers instead of 8 it is ~2.4 GB
    envelope = dict(img_tokens=1024, embed_dim=256, layer_count=8, heads=4, channels=16,
                    total_steps=28, injection_steps=28, schedule="binary")
    EditConfig(**envelope)
    with pytest.raises(ConfigError):
        EditConfig(**dict(envelope, layer_count=20))
    # K/V ~0.29 GB and scores ~0.10 GB fit, but the attention record of 28
    # active steps is ~3.76 GB
    with pytest.raises(ConfigError) as exc:
        EditConfig(img_tokens=1024, text_tokens=256, vocab_size=512, heads=8, layer_count=8,
                   embed_dim=64, total_steps=28, injection_steps=28, schedule="binary")
    assert exc.value.field == "img_tokens"
    assert "attention record 3.76 GB" in str(exc.value)
    # one active step's K/V, two lanes' scores and the record take ~0.76 GB,
    # and the weights of 32 layers at embed_dim=1024 with a 65536-token table
    # ~1.62 GB
    with pytest.raises(ConfigError) as exc:
        EditConfig(layer_count=32, embed_dim=1024, vocab_size=65536, img_tokens=1024,
                   text_tokens=256, total_steps=4, injection_steps=1, schedule="binary")
    assert exc.value.field == "img_tokens"
    assert "2.38 GB (model weights 1.62 GB" in str(exc.value)


SCRATCH_ARRAYS = ("x", "h", "q", "k", "v", "attn_out", "proj", "attn_txt")


@pytest.mark.parametrize("dims", ({}, dict(img_tokens=64, embed_dim=64, heads=4, layer_count=3),
                                  dict(img_tokens=36, text_tokens=6, embed_dim=48, heads=3,
                                       channels=4, vocab_size=100),
                                  dict(img_tokens=256, embed_dim=128, heads=4, layer_count=4)),
                         ids=("default", "wide", "odd", "mid"))
def test_memory_budget_counts_the_models_arrays(monkeypatch, dims):
    # the estimates follow the model's real arrays, so a change to the block
    # that adds a weight or a scratch array shows here
    cfg = EditConfig(**dims)
    model = build_model(cfg)
    params = [a for a in vars(model).values() if isinstance(a, np.ndarray)]
    params += [w for layer in model.layers for w in layer.values()]
    assert pipeline._run_bytes(cfg, 1)[0] == sum(a.nbytes for a in params)
    one, two = (models._Scratch(b, cfg.text_tokens, cfg.img_tokens, cfg.embed_dim,
                                2 * model.time_freqs, cfg.heads) for b in (1, 2))
    growth = sum(getattr(two, name).nbytes - getattr(one, name).nbytes
                 for name in SCRATCH_ARRAYS)
    # _stack_row_bytes: the evaluate scratch, then the K/V blends of every
    # step and the states and solver temporaries
    n = cfg.img_tokens + cfg.text_tokens
    blends = pipeline.FLOAT64_BYTES * 2 * cfg.total_steps * cfg.layer_count * n
    states = pipeline.FLOAT64_BYTES * (cfg.total_steps + 8) * cfg.img_tokens * cfg.channels
    assert pipeline._stack_row_bytes(cfg) - blends - states == growth
    # the scores term bounds the score blocks and row sums of every lane at
    # any stack size: the largest are a full block on each lane (at the mid
    # size, 3 entries on each of two lanes)
    monkeypatch.setattr(models, "evaluation_lanes", lambda: 2)
    block = models._block_entries(n)
    live = max(s.scores.nbytes + s.row.nbytes
               for s in (models._Scratch(b, cfg.text_tokens, cfg.img_tokens, cfg.embed_dim,
                                         2 * model.time_freqs, cfg.heads)
                         for b in (1, 2, block, block + 1)))
    assert live == models.score_buffer_bytes(n)
    assert pipeline._run_bytes(cfg, 1)[1] == max(cfg.heads * n * n * 8, live)


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
    for i, (w, delta_eff, active) in enumerate(result.schedule_trace):
        assert w == schedule_weight(schedule, i)
        assert delta_eff == cfg.delta_base * w
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
    assert [row.cfg for row in rows] == [cfg, short]
    assert [len(row.plan) for row in rows] == [4, 3]


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
        rows = []
        for overrides, _, _ in edit_grid(src, cfg, axes):
            assert all(ref() is None for ref in made)
            rows.append(overrides)
        assert len(made) == 3
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
    # others do not; global_mix at delta_base 1 takes the source K/V whole;
    # the rows' target prompts differ
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


def test_stacks_are_sliced_to_the_memory_budget(monkeypatch):
    cfg = EditConfig(seed=6, total_steps=5, injection_steps=2)
    active = build_schedule(cfg).active_count
    budget = sum(pipeline._run_bytes(cfg, active)) + 2 * pipeline._stack_row_bytes(cfg)
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
    "target_prompt_ids": st.lists(st.integers(0, 63), min_size=4, max_size=4).map(tuple),
}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_grid_rows_equal_standalone_edits(data):
    # any grid over fields that do and do not split inversion groups, with
    # stacks sliced to the memory budget, gives each row its edit alone
    names = data.draw(st.lists(st.sampled_from(sorted(GRID_AXES)), min_size=1, max_size=3,
                               unique=True))
    axes = {name: data.draw(st.lists(GRID_AXES[name], min_size=1, max_size=2, unique=True))
            for name in names}
    cfg = EditConfig(seed=data.draw(st.integers(0, 2**16)), embed_dim=8, total_steps=5)
    extra = data.draw(st.integers(0, 2))
    src = generate_source_latent(cfg)
    row_cfgs = [replace(cfg, **dict(zip(axes, combo)))
                for combo in itertools.product(*axes.values())]
    budget = pipeline.MEMORY_BUDGET
    try:
        # the heaviest row's group gets stacks of max(1, extra) rows
        pipeline.MEMORY_BUDGET = max(
            sum(pipeline._run_bytes(c, c.injection_schedule.active_count))
            + extra * pipeline._stack_row_bytes(c) for c in row_cfgs)
        rows = edit_grid(src, cfg, axes)
    finally:
        pipeline.MEMORY_BUDGET = budget
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
        monkeypatch.setattr(pipeline, "MEMORY_BUDGET",
                            sum(pipeline._run_bytes(longest, active))
                            + extra * pipeline._stack_row_bytes(longest))
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


def test_generate_source_latent_deterministic_and_seed_sensitive():
    cfg = EditConfig(seed=5)
    a = generate_source_latent(cfg)
    b = generate_source_latent(cfg)
    assert np.array_equal(a.data, b.data)
    c = generate_source_latent(EditConfig(seed=6))
    assert np.any(a.data != c.data)
