"""The benchmark's layer trace (bench/spans.py) wraps program names where the
program looks them up. A renamed or removed name makes install() fail here,
in well under a second, instead of only in the benchmark's smoke run. A
traced ablation checks the invariants that keep the traced metrics defined:
one run_edit span per row, the evaluation counts each phase must make, and
every evaluation inside a phase or the velocity-jump diagnostic; and that
the rows of one inversion group are sampled as one stack. A traced
default edit checks that the solver and the model hand out their checked
arrays as Latents without constructing (copying and re-checking) them."""

from __future__ import annotations

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from adaedit import cli, models, perturbation, pipeline
from adaedit.latent import Latent
from adaedit.models import AttentionRecord, KVCache, ToyAttentionFlow
from adaedit.solvers import SOLVER_KINDS

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = (pipeline, perturbation, models, cli, Latent, ToyAttentionFlow, KVCache,
          AttentionRecord)


def test_tracer_install_wraps_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [(owner, name) for owner, names in zip(OWNERS, before)
                   for name, value in vars(owner).items() if names.get(name) is not value]
    finally:
        tracer.uninstall()
    assert (pipeline, "run_edit") in wrapped
    assert (pipeline, "is_active") in wrapped
    for owner, names in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys(), owner
        assert all(after[name] is value for name, value in names.items()), owner


def test_traced_ablation_counts_rows_and_inverts_once(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delenv("ADAEDIT_SEED", raising=False)
    spans = importlib.import_module("spans")
    axes = {"schedule": ("sigmoid", "binary"), "alpha": (0.1, 0.5),
            "soft_mask_gamma": (None, 8.0)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["ablate", "--out", str(tmp_path), "--axis", "schedule=sigmoid,binary",
                         "--axis", "alpha=0.1,0.5", "--axis", "soft_mask_gamma=none,8"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["pipeline.run_edit"] == 8
    assert tracer.mismatches == []
    assert tracer.ledger_balances()
    # one inversion group: inverted, reconstructed and sampled once, and its
    # velocity-jump pairs run once per planned step for all rows together
    assert tracer.calls["solvers.inversion"] == 1
    assert tracer.calls["solvers.reconstruction"] == 1
    assert tracer.calls["solvers.sampling"] == 1
    planned = max(pipeline.EditConfig(schedule=family).injection_schedule.active_count
                  for family in ("sigmoid", "binary"))
    assert tracer.calls["diagnostics.velocity_jump"] == planned
    # a stack masks once per (planned steps, mask prompt, gamma), takes the
    # token statistics once per edit-token set, shifts once per (mode,
    # alpha, tau when channel-selective, edit-token set) and scores PSNR and
    # SSIM once
    grid = list(pipeline.edit_grid(pipeline.generate_source_latent(pipeline.EditConfig()),
                                   pipeline.EditConfig(), axes))
    masks = {(cfg.injection_schedule.active_count, cfg.target_conditioning(),
              cfg.soft_mask_gamma) for _, cfg, _ in grid}
    token_sets = {result.mask.hard or tuple(range(16)) for _, _, result in grid}
    assert tracer.calls["models.extract_mask"] == len(masks) < len(grid)
    assert tracer.calls["perturbation.channel_gap"] == len(token_sets) < len(masks)
    assert tracer.calls["diagnostics.ssim"] == tracer.calls["solvers.sampling"]
    assert tracer.calls["diagnostics.psnr"] == tracer.calls["solvers.sampling"]
    shifts = {(cfg.perturbation_mode, cfg.alpha,
               cfg.tau if cfg.perturbation_mode == "channel_selective" else None,
               result.mask.hard or tuple(range(16))) for _, cfg, result in grid}
    assert tracer.calls["perturbation.shift"] == len(shifts) < len(grid)


@pytest.mark.parametrize("solver", SOLVER_KINDS)
def test_traced_default_edit_constructs_two_latents(monkeypatch, solver):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    cfg = replace(pipeline.EditConfig(), solver=solver)
    source = pipeline.generate_source_latent(cfg)
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_edit(source, cfg.source_conditioning(), cfg.target_conditioning(), cfg)
    finally:
        tracer.uninstall()
    # the noise latent and the perturbed latent
    assert tracer.calls["latent.construct"] <= 2
    assert tracer.calls["pipeline.run_edit"] == 1
    assert tracer.mismatches == []
    assert tracer.ledger_balances()


def test_traced_multi_head_edit_puts_one_attention_block_per_layer(monkeypatch):
    # models.attn_record.stored_ratio stays comparable only while each
    # record-mode evaluation makes one AttentionRecord.put per layer
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    cfg = replace(pipeline.EditConfig(), heads=2)
    source = pipeline.generate_source_latent(cfg)
    record_evals = [0]
    evaluate = ToyAttentionFlow.evaluate

    def counting(model, z, t, cond, hooks=None):
        if hooks is not None and hooks.mode == "record":
            record_evals[0] += 1
        return evaluate(model, z, t, cond, hooks)

    monkeypatch.setattr(ToyAttentionFlow, "evaluate", counting)
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_edit(source, cfg.source_conditioning(), cfg.target_conditioning(), cfg)
    finally:
        tracer.uninstall()
    assert tracer.mismatches == []
    assert tracer.ledger_balances()
    assert record_evals[0] > 0
    assert tracer.counts["attn_record.attempts"] == record_evals[0] * cfg.layer_count
