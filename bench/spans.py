"""Outside-in layer trace: spans around the program's public functions.

Each wrapper is installed where the caller looks the function up (the module
attribute or class attribute the caller resolves at call time), so the
program's own files stay untouched. A span records its name, start, end,
parent span and request id; spans stay in memory and are saved when the run
ends. A span's duration leaves out the host-speed ticks that ran inside it
and is scaled by its request's speed factor (see hostspeed.py). A span's self
time is its duration minus the time its direct children cover. Counts (model evaluations, cache puts and gets, computed FLOPs and
bytes) are taken at the same boundaries.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from adaedit import cli, models, perturbation, pipeline
from adaedit.latent import Latent
from adaedit.models import AttentionRecord, KVCache, ToyAttentionFlow

PHASES = ("inversion", "sampling", "reconstruction")
# Phases whose inputs are compared across calls to measure repeated work.
UNIQUE_PHASES = ("inversion", "reconstruction")

SCHEDULE_LOOKUPS = ("build_schedule", "is_active", "effective_ratio", "layer_ratios",
                    "max_step_delta", "LayerRatioProfile")
FLOAT_BYTES = 8


def expected_evals(kind: str, steps: int) -> int:
    """Model evaluations one integration must make: T, 2T or T+1."""
    return {"euler": steps, "midpoint": 2 * steps, "reuse_velocity": steps + 1}[kind]


def evaluate_flops(model: ToyAttentionFlow, batch: int) -> int:
    """Matmul FLOPs of one ToyAttentionFlow.evaluate, computed from its
    dimensions (2 per multiply-add; softmax and elementwise work excluded)."""
    n = model.text_tokens + model.img_tokens
    d = model.embed_dim
    io = 2 * model.img_tokens * model.channels * d            # w_in and w_out
    time_mix = n * (d + 2 * model.time_freqs) * d             # concat @ w_time
    per_layer = 4 * n * d * d + 2 * n * n * d                 # q,k,v,o + QK^T, AV
    return 2 * batch * (io + time_mix + model.layer_count * per_layer)


class Tracer:
    """Single-threaded span recorder; spans nest on one stack."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list = []  # [span index, name, start, ticked, child time]
        self.ticker = None  # the Ticker whose tick time spans leave out
        self._eval_sinks: list = []
        self.request = -1
        self.speed_request = array("i")
        self.speed_value = array("d")
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        # this request's span times, before its speed factor is known
        self._request_total = defaultdict(float)
        self._request_self = defaultdict(float)
        self.counts = Counter()
        self.inputs = {phase: set() for phase in UNIQUE_PHASES}
        self.mismatches: list = []
        self._patches: list = []

    def begin_request(self, request: int) -> None:
        """Tag later spans with ``request``."""
        self.request = request

    def end_request(self, speed: float) -> None:
        """Scale the request's span times by its ``speed`` factor
        (reference-host seconds per second, see hostspeed.py)."""
        for name, seconds in self._request_total.items():
            self.total[name] += seconds * speed
        for name, seconds in self._request_self.items():
            self.self_time[name] += seconds * speed
        self._request_total.clear()
        self._request_self.clear()
        self.speed_request.append(self.request)
        self.speed_value.append(speed)

    def _ticked(self) -> float:
        return self.ticker.spent if self.ticker else 0.0

    def open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1][0] if self._stack else -1)
        self.request_col.append(self.request)
        self.end_col.append(0.0)
        start = perf_counter()
        self.start_col.append(start)
        self._stack.append([index, name, start, self._ticked(), 0.0])

    def close(self) -> None:
        end = perf_counter()
        index, name, start, ticked, child = self._stack.pop()
        self.end_col[index] = end
        duration = end - start - (self._ticked() - ticked)
        self.calls[name] += 1
        self._request_total[name] += duration
        self._request_self[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def install(self) -> None:
        span = self._span
        self._patch(pipeline, "run_edit", span("pipeline.run_edit", pipeline.run_edit))
        self._patch(pipeline, "build_model", span("models.build_model", pipeline.build_model))
        self._patch(pipeline, "extract_mask", span("models.extract_mask", pipeline.extract_mask))
        self._patch(pipeline, "psnr", span("diagnostics.psnr", pipeline.psnr))
        self._patch(pipeline, "ssim", span("diagnostics.ssim", pipeline.ssim))
        for owner in (pipeline, perturbation):
            self._patch(owner, "channel_gap",
                        span("perturbation.channel_gap", owner.channel_gap))
        for fn in ("latents_shift_channel_selective", "latents_shift_uniform"):
            self._patch(pipeline, fn, span("perturbation.shift", getattr(pipeline, fn)))
        for fn in SCHEDULE_LOOKUPS:
            self._patch(pipeline, fn, span(f"schedules.{fn}", getattr(pipeline, fn)))
        self._patch(models, "kv_mix", span("models.kv_mix", models.kv_mix))
        self._patch(cli, "main", span("cli.main", cli.main))
        self._patch(cli, "run_ablation_grid",
                    span("pipeline.run_ablation_grid", cli.run_ablation_grid))
        self._patch(cli, "generate_source_latent",
                    span("pipeline.generate_source_latent", cli.generate_source_latent))
        self._patch(Latent, "__post_init__",
                    span("latent.construct", Latent.__post_init__))
        self._patch(ToyAttentionFlow, "evaluate", self._evaluate(ToyAttentionFlow.evaluate))
        self._patch(KVCache, "put", self._kv_put(KVCache.put))
        self._patch(KVCache, "get", self._counted("kvcache.gets", KVCache.get))
        self._patch(AttentionRecord, "put", self._attn_put(AttentionRecord.put))
        for fn in ("integrate_backward", "integrate_forward"):
            self._patch(pipeline, fn, self._integrate(getattr(pipeline, fn)))
        self._patch(pipeline, "velocity_jump_between",
                    self._velocity_jump(pipeline.velocity_jump_between))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers that also count ----------------------------------------

    def _counted(self, counter: str, fn):
        def traced(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return traced

    def _evaluate(self, fn):
        flops_memo = {}

        def traced(model, z, t, cond, hooks=None):
            key = (id(model), z.b)
            flops = flops_memo.get(key)
            if flops is None:
                flops = flops_memo[key] = evaluate_flops(model, z.b)
            self.counts["evaluate.flops"] += flops
            if self._eval_sinks:
                self._eval_sinks[-1][0] += 1
            self.open("models.evaluate")
            try:
                return fn(model, z, t, cond, hooks)
            finally:
                self.close()
        return traced

    def _kv_put(self, fn):
        def traced(cache, step, layer, k, v):
            self.counts["kvcache.puts"] += 1
            self.counts["kvcache.bytes"] += (np.size(k) + np.size(v)) * FLOAT_BYTES
            return fn(cache, step, layer, k, v)
        return traced

    def _attn_put(self, fn):
        def traced(record, step, layer, block):
            self.counts["attn_record.attempts"] += 1
            if not record.has(step, layer):
                self.counts["attn_record.stored"] += 1
            return fn(record, step, layer, block)
        return traced

    def _integrate(self, fn):
        def traced(field, z, grid, kind="euler", cond=None, hooks_fn=None, phase="forward"):
            if phase in UNIQUE_PHASES:
                digest = hashlib.sha1(z.data.tobytes() + grid.times.tobytes()).hexdigest()
                self.inputs[phase].add((
                    digest, kind, cond.prompt_token_ids, cond.keyword_index, field.seed,
                    field.layer_count, field.embed_dim, field.heads, field.img_tokens,
                    field.text_tokens, field.channels, field.vocab_size))
            sink = [0]
            self._eval_sinks.append(sink)
            self.open(f"solvers.{phase}")
            try:
                return fn(field, z, grid, kind, cond, hooks_fn, phase=phase)
            finally:
                self.close()
                self._eval_sinks.pop()
                self.counts[f"{phase}.evals"] += sink[0]
                if sink[0] != expected_evals(kind, grid.steps):
                    self.mismatches.append(
                        f"{phase} with {kind} made {sink[0]} evaluations, "
                        f"expected {expected_evals(kind, grid.steps)}")
        return traced

    def _velocity_jump(self, fn):
        def traced(*args, **kwargs):
            sink = [0]
            self._eval_sinks.append(sink)
            self.open("diagnostics.velocity_jump")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
                self._eval_sinks.pop()
                self.counts["velocity_jump.evals"] += sink[0]
                if sink[0] != 2:
                    self.mismatches.append(
                        f"velocity_jump_between made {sink[0]} evaluations, expected 2")
        return traced

    # -- output -------------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name_col, np.int32),
            parent=np.frombuffer(self.parent_col, np.int32),
            request=np.frombuffer(self.request_col, np.int32),
            start=np.frombuffer(self.start_col, np.float64),
            end=np.frombuffer(self.end_col, np.float64),
            speed_request=np.frombuffer(self.speed_request, np.int32),
            speed=np.frombuffer(self.speed_value, np.float64))

    def layer_metrics(self, edits: int, requests: int, cli_bytes: int) -> dict:
        """Per-layer metrics from the traced window, normalised per edit
        (one run_edit call) or per request; NaN where the base is 0."""
        def per(value, base):
            return value / base if base else math.nan

        ms = 1e3
        calls, total, own, counts = self.calls, self.total, self.self_time, self.counts
        evaluate_calls = calls["models.evaluate"]
        evaluate_time = total["models.evaluate"]
        schedule_spans = [f"schedules.{fn}" for fn in SCHEDULE_LOOKUPS]
        out = {
            "latent.constructions_per_edit": (per(calls["latent.construct"], edits), "count"),
            "latent.construct_ms_per_edit": (per(total["latent.construct"] * ms, edits), "ms"),
            "solvers.self_ms_per_edit": (
                per(sum(own[f"solvers.{p}"] for p in PHASES) * ms, edits), "ms"),
            "models.evaluate.us_per_call": (per(evaluate_time * 1e6, evaluate_calls), "us"),
            "models.evaluate.self_ms_per_edit": (per(own["models.evaluate"] * ms, edits), "ms"),
            "models.evaluate.calls_per_edit": (per(evaluate_calls, edits), "count"),
            "models.evaluate.flops_per_call": (
                per(counts["evaluate.flops"], evaluate_calls), "flop_computed"),
            "models.evaluate.gflops": (per(counts["evaluate.flops"] / 1e9, evaluate_time),
                                       "GFLOP/s"),
            "models.build_model.ms_per_edit": (per(total["models.build_model"] * ms, edits),
                                               "ms"),
            "models.kvcache.puts_per_edit": (per(counts["kvcache.puts"], edits), "count"),
            "models.kvcache.gets_per_edit": (per(counts["kvcache.gets"], edits), "count"),
            "models.kvcache.bytes_per_edit": (per(counts["kvcache.bytes"], edits),
                                              "bytes_computed"),
            "models.attn_record.stored_ratio": (
                per(counts["attn_record.stored"], counts["attn_record.attempts"]), "ratio"),
            "models.kv_mix.calls_per_edit": (per(calls["models.kv_mix"], edits), "count"),
            "models.kv_mix.ms_per_edit": (per(total["models.kv_mix"] * ms, edits), "ms"),
            "models.extract_mask.ms": (per(total["models.extract_mask"] * ms, edits), "ms"),
            "diagnostics.velocity_jump.calls_per_edit": (
                per(calls["diagnostics.velocity_jump"], edits), "count"),
            "diagnostics.velocity_jump.evals_per_edit": (
                per(counts["velocity_jump.evals"], edits), "count"),
            "diagnostics.velocity_jump.ms_per_edit": (
                per(total["diagnostics.velocity_jump"] * ms, edits), "ms"),
            "diagnostics.ssim.ms": (per(total["diagnostics.ssim"] * ms, edits), "ms"),
            "diagnostics.psnr.ms": (per(total["diagnostics.psnr"] * ms, edits), "ms"),
            "perturbation.channel_gap.ms": (
                per(total["perturbation.channel_gap"] * ms, edits), "ms"),
            "perturbation.shift.ms": (per(total["perturbation.shift"] * ms, edits), "ms"),
            "schedules.calls_per_edit": (per(sum(calls[s] for s in schedule_spans), edits),
                                         "count"),
            "schedules.ms_per_edit": (
                per(sum(total[s] for s in schedule_spans) * ms, edits), "ms"),
            "cli.self_ms_per_request": (per(own["cli.main"] * ms, requests), "ms"),
            "cli.bytes_written_per_request": (per(cli_bytes, requests), "bytes"),
        }
        for phase in PHASES:
            out[f"solvers.{phase}.ms"] = (per(total[f"solvers.{phase}"] * ms, edits), "ms")
            out[f"solvers.{phase}.evals"] = (per(counts[f"{phase}.evals"], edits), "count")
        for phase in UNIQUE_PHASES:
            out[f"solvers.{phase}.unique_ratio"] = (
                per(len(self.inputs[phase]), calls[f"solvers.{phase}"]), "ratio")
        return out

    def ledger_balances(self) -> bool:
        """Every model evaluation happened inside a solver phase or the
        velocity-jump diagnostic."""
        accounted = sum(self.counts[f"{p}.evals"] for p in PHASES)
        accounted += self.counts["velocity_jump.evals"]
        return accounted == self.calls["models.evaluate"]
