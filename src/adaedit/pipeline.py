"""The edit pipeline: inversion with feature caching, channel-selective
perturbation, and sampling with progressive injection.

A "source image" at this scale is a latent directly: seeded smooth fields
stand in for encoded images. One run owns its model, cache and RNG streams
and is fully determined by the config seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import psnr, ssim, velocity_jump_between
from .errors import (ConfigError, DivergenceError, Spec, field_specs, hold, knob,
                     split_items)
from .latent import (DIMENSION, SEED, STREAM_NOISE, STREAM_SOURCE, Latent,
                     SeededRng, grid_side, sample_gaussian)
from .models import (GAMMA, KEYWORD, PROMPT_IDS, AttentionRecord, Conditioning,
                     EditMask, InjectionHooks, KVCache, ToyAttentionFlow,
                     check_heads, check_keyword, check_prompt, extract_mask,
                     mix_rows)
from .perturbation import (ALPHA, PERTURBATION_MODES, TAU, ChannelWeights,
                           PerturbationConfig, channel_gap,
                           latents_shift_channel_selective,
                           latents_shift_uniform, shift_stats)
from .schedules import (DELTA, FAMILY, MIDPOINT, SHARPNESS, SLOPE, THRESHOLD,
                        InjectionSchedule, LayerRatioProfile, effective_ratio,
                        is_active, layer_ratios, max_step_delta)
from .solvers import (KIND, STEPS, TimeGrid, integrate_backward,
                      integrate_forward)

logger = logging.getLogger("adaedit.pipeline")

MASK_KEYWORD_SOURCES = ("source", "target")

# The fields that fix the source latent's shape (1, L, C): one latent, one
# edit. An ablation grid runs every row on one source latent, so none of them
# can be an axis.
SOURCE_SHAPE_FIELDS = ("img_tokens", "channels")

# The fields an inversion reads: the seed and the model dimensions, the time
# grid and solver, and the source prompt (resolved, as the Conditioning
# carries it). Edits of one source that agree on them can share one Inversion.
INVERSION_FIELDS = ("seed", "layer_count", "embed_dim", "img_tokens", "text_tokens",
                    "channels", "heads", "vocab_size", "total_steps", "solver",
                    "source_prompt_ids")

# The upper bounds on total_steps and the model dimensions stop one runaway
# value (total_steps=100000000 runs past 20 s holding every state) before
# any work starts. They admit the stability envelope img_tokens=1024,
# embed_dim=256, layer_count=8, heads=4, channels=16, total_steps=28.
MAX_STEPS = 1000
# Schedules the build_schedule memo keeps, the least recently used dropped
# first, beside the model's prompt and time memos (models.PROMPT_MEMO_LIMIT,
# TIME_MEMO_LIMIT). A grid needs one per distinct value of the six schedule
# fields, 4 for the four families; an entry holds at most MAX_STEPS weights,
# so the memo holds at most SCHEDULE_MEMO_LIMIT * MAX_STEPS of them.
SCHEDULE_MEMO_LIMIT = 64
# A run holds the model's weights and evaluation scratch, the K/V and the
# text-to-image attention of every active step until sampling ends, and
# extract_mask's stack of the keyword's rows of it while it makes the mask; each
# sampled row adds its own evaluation scratch, its states and solver
# temporaries, and the K/V blends of every step. _run_bytes counts each part
# from the arrays' shapes; validate holds one row to this budget, and
# edit_grid stacks as many rows as keep within it. The per-field bounds admit
# products far beyond any desk machine (layer_count=32, embed_dim=1024 and
# vocab_size=65536 take 1.62 GB of weights), which end in a MemoryError or an
# OOM kill mid-run; the budget stops them before any work starts. It admits
# the stability envelope above with a binary schedule and injection_steps=28
# (~1.04 GB).
MEMORY_BUDGET = 2 * 10**9


@dataclass(frozen=True)
class EditConfig:
    """Every knob of one edit run; JSON documents mirror these field names.

    Each field declares its type and range (a Spec, errors.knob) next to its
    default. A field whose value a library argument also takes reuses that
    argument's Spec, narrowed by an upper bound where the config bounds a
    resource. A config is checked when it is made (by the constructor,
    from_dict or dataclasses.replace), holds each field in the form its
    Spec's check returns (errors.hold), and cannot change afterwards, so
    every EditConfig in hand is valid and hashable.
    """

    total_steps: int = knob(replace(STEPS, hi=MAX_STEPS), 15)
    injection_steps: int = knob(replace(STEPS, hi=MAX_STEPS), 4)
    schedule: str = knob(FAMILY, "sigmoid")
    delta_base: float = knob(DELTA, 0.9)
    alpha: float = knob(ALPHA, 0.25)
    tau: float = knob(TAU, 1.0)
    solver: str = knob(KIND, "reuse_velocity")
    perturbation_mode: str = knob(Spec(str, choices=PERTURBATION_MODES), "channel_selective")
    soft_mask_gamma: Optional[float] = knob(GAMMA, None)
    layer_ratio_beta: float = knob(SLOPE, 0.0)
    seed: int = knob(SEED, 0)
    # schedule shape
    sharpness: float = knob(SHARPNESS, 5.0)
    sigmoid_midpoint: float = knob(MIDPOINT, 0.7)
    activity_threshold: float = knob(THRESHOLD, 0.05)
    # toy model dimensions
    layer_count: int = knob(replace(DIMENSION, hi=32), 2)
    embed_dim: int = knob(replace(DIMENSION, hi=1024), 32)
    img_tokens: int = knob(replace(DIMENSION, hi=4096), 16)
    text_tokens: int = knob(replace(DIMENSION, hi=256), 4)
    channels: int = knob(replace(DIMENSION, hi=64), 8)
    heads: int = knob(replace(DIMENSION, hi=32), 1)
    vocab_size: int = knob(replace(DIMENSION, hi=65536), 64)
    # conditioning; None picks deterministic defaults sized to text_tokens
    source_prompt_ids: Optional[Tuple[int, ...]] = knob(replace(PROMPT_IDS, optional=True), None)
    target_prompt_ids: Optional[Tuple[int, ...]] = knob(replace(PROMPT_IDS, optional=True), None)
    source_keyword_index: Optional[int] = knob(replace(KEYWORD, optional=True), None)
    target_keyword_index: Optional[int] = knob(replace(KEYWORD, optional=True), None)
    mask_keyword_source: str = knob(Spec(str, choices=MASK_KEYWORD_SOURCES), "target")
    global_mix: bool = knob(Spec(bool), False)

    def __post_init__(self):
        self.validate()

    def _keyword(self, index: Optional[int] = None) -> int:
        """index, or the default keyword position where it is None."""
        return max(0, self.text_tokens - 2) if index is None else index

    def resolved_source_prompt(self) -> Tuple[int, ...]:
        if self.source_prompt_ids is not None:
            return self.source_prompt_ids
        return tuple(range(1, self.text_tokens + 1))

    def resolved_target_prompt(self) -> Tuple[int, ...]:
        if self.target_prompt_ids is not None:
            return self.target_prompt_ids
        ids = list(self.resolved_source_prompt())
        ids[self._keyword()] = self.text_tokens + 5
        return tuple(ids)

    def source_conditioning(self) -> Conditioning:
        return Conditioning(self.resolved_source_prompt(),
                            self._keyword(self.source_keyword_index))

    def target_conditioning(self) -> Conditioning:
        return Conditioning(self.resolved_target_prompt(),
                            self._keyword(self.target_keyword_index))

    @cached_property
    def injection_schedule(self) -> InjectionSchedule:
        """The config's schedule, made once by build_schedule; validate, the
        grid and run_edit all read this one."""
        return build_schedule(self)

    def validate(self) -> "EditConfig":
        """Check every field against its Spec, holding what the check returns
        (errors.hold), then the rules that span fields."""
        hold(self)
        # the schedule checks injection_steps <= total_steps
        schedule = self.injection_schedule
        check_heads(self.embed_dim, self.heads)
        grid_side("img_tokens", self.img_tokens)
        # the default target prompt is built from the source, so check that first
        for side, resolve in (("source", self.resolved_source_prompt),
                              ("target", self.resolved_target_prompt)):
            prompt = resolve()
            check_prompt(f"{side}_prompt_ids", prompt, self.text_tokens, self.vocab_size)
            index = getattr(self, f"{side}_keyword_index")
            if index is not None:
                check_keyword(f"{side}_keyword_index", index, len(prompt))
        active = schedule.active_count
        if active == 0:
            raise ConfigError(
                "activity_threshold",
                f"no step is active: the first {self.schedule} weight does not "
                f"exceed {self.activity_threshold}")
        parts, row = _run_bytes(self, active)
        parts["one edit row"] = row
        total = sum(parts.values())
        if total > MEMORY_BUDGET:
            held = ", ".join(f"{name} {size / 1e9:.3g} GB" for name, size in parts.items())
            raise ConfigError(
                "img_tokens",
                f"the run needs about {total / 1e9:.3g} GB ({held}), "
                f"over the {MEMORY_BUDGET / 1e9:g} GB budget; "
                f"lower img_tokens, text_tokens, heads, layer_count, "
                f"embed_dim, vocab_size or the active steps")
        return self

    def resolved_dict(self) -> dict:
        """JSON-serializable dict of the held fields with prompt defaults
        materialized, so equal configs hash alike."""
        out = {name: getattr(self, name) for name in FIELD_SPECS}
        out["source_prompt_ids"] = list(self.resolved_source_prompt())
        out["target_prompt_ids"] = list(self.resolved_target_prompt())
        out["source_keyword_index"] = self.source_conditioning().keyword_index
        out["target_keyword_index"] = self.target_conditioning().keyword_index
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EditConfig":
        """Config from a JSON object; each value must fit its field's Spec."""
        return cls(**{name: _spec(name).from_json(value) for name, value in data.items()})


FIELD_SPECS: Dict[str, Spec] = field_specs(EditConfig)


def _run_bytes(cfg: EditConfig, active: int) -> Tuple[Dict[str, int], int]:
    """The bytes, by part, that a run recording ``active`` steps holds beside
    its sampled rows, and the bytes each sampled row adds (see MEMORY_BUDGET);
    like ToyAttentionFlow.array_bytes, 8 per float64."""
    n, recorded = cfg.img_tokens + cfg.text_tokens, active * cfg.layer_count
    weights, scratch, entry = ToyAttentionFlow.array_bytes(**_model_dims(cfg))
    keyword_rows = 8 * recorded * cfg.heads * cfg.img_tokens
    parts = {
        "model weights": weights,
        "evaluation scratch": scratch,
        f"K/V cache of {active} active steps": 8 * recorded * 2 * n * cfg.embed_dim,
        "attention record": keyword_rows * cfg.text_tokens,
        "its keyword rows for the mask": keyword_rows,
    }
    states = (cfg.total_steps + 8) * cfg.img_tokens * cfg.channels
    blends = 2 * cfg.total_steps * cfg.layer_count * n
    return parts, entry + 8 * (states + blends)


def _spec(name: str) -> Spec:
    if name not in FIELD_SPECS:
        raise ConfigError(name, "unknown config field")
    return FIELD_SPECS[name]


def parse_field(name: str, raw: str):
    """Value of config field ``name`` from its --set/--axis text."""
    return _spec(name).from_text(name, raw)


def parse_axis(name: str, raw: str) -> list:
    """Values of an axis over config field ``name``. Token-id lists separate
    their ids with ',' and so separate the values with ';'; every other
    field separates its values with ','."""
    sep = ";" if _spec(name).kind is tuple else ","
    return [parse_field(name, item) for item in split_items(name, raw, sep)]


def config_hash(cfg: EditConfig) -> str:
    canonical = json.dumps(cfg.resolved_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class EditResult:
    """Everything one edit run produced, for reporting and assertions."""

    edited: Latent
    reconstructed_source: Optional[Latent]
    mask: EditMask
    channel_weights: ChannelWeights
    schedule_trace: Tuple[Tuple[float, bool], ...]
    diagnostics: Dict[str, float]
    channel_gaps: np.ndarray


def _model_dims(cfg: EditConfig) -> dict:
    return dict(layer_count=cfg.layer_count, embed_dim=cfg.embed_dim,
                img_tokens=cfg.img_tokens, text_tokens=cfg.text_tokens,
                channels=cfg.channels, heads=cfg.heads, vocab_size=cfg.vocab_size)


def build_model(cfg: EditConfig) -> ToyAttentionFlow:
    return ToyAttentionFlow(seed=cfg.seed, **_model_dims(cfg))


_shared_schedule = lru_cache(maxsize=SCHEDULE_MEMO_LIMIT)(InjectionSchedule)


def build_schedule(cfg: EditConfig) -> InjectionSchedule:
    """The schedule of cfg's six schedule fields: one shared, frozen
    InjectionSchedule for every config with the same values (0.0 and -0.0
    thresholds share one; they compare every weight alike)."""
    return _shared_schedule(cfg.schedule, cfg.total_steps, cfg.injection_steps,
                            cfg.sharpness, cfg.sigmoid_midpoint, cfg.activity_threshold)


def generate_source_latent(cfg: EditConfig) -> Latent:
    """Seeded smooth per-channel fields on the token grid, standing in for an
    encoded image: per channel an offset plus three sinusoids of amplitude
    ~0.8/k. The scalars are drawn channel by channel, in stream order; then
    every channel's plane is made in one pass."""
    rng = SeededRng(cfg.seed, stream=STREAM_SOURCE)
    g = grid_side("img_tokens", cfg.img_tokens)
    offset = np.empty(cfg.channels)
    amp = np.empty((cfg.channels, 3))
    freq = np.empty((2, cfg.channels, 3), dtype=np.int64)
    phase = np.empty((cfg.channels, 3))
    for ci in range(cfg.channels):
        offset[ci] = rng.standard_normal(())
        for k in range(3):
            amp[ci, k] = rng.standard_normal(())
            freq[:, ci, k] = rng.integers(1, 4, (2,))
            phase[ci, k] = rng.uniform(0.0, 2.0 * math.pi, ())
    ys, xs = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    fx, fy = freq[..., None]
    # (channel, wave, token), each wave on the row-major token grid
    waves = np.sin(2.0 * math.pi * (fx * xs.reshape(-1) + fy * ys.reshape(-1)) / g
                   + phase[..., None])
    amp = amp * 0.8 / np.arange(1, 4)
    planes = 0.3 * offset[:, None]
    for k in range(3):  # summed wave by wave, in draw order
        planes = planes + amp[:, k, None] * waves[:, k]
    arr = np.empty((1, cfg.img_tokens, cfg.channels))
    arr[0] = planes.T
    return Latent(arr)


def resolve_edit_tokens(mask: EditMask, token_count: int) -> Tuple[Tuple[int, ...], bool]:
    """The hard edit set, substituting all tokens (with a warning) when empty.

    Mask extraction can degenerate on toy prompts; editing must not silently
    become a no-op, so an empty set falls back to every token.
    """
    if mask.hard:
        return mask.hard, False
    logger.warning(
        "edit mask selected no tokens; falling back to all %d tokens", token_count)
    return tuple(range(token_count)), True


def _check_source(source: Latent, cfg: EditConfig) -> None:
    expected = (1, cfg.img_tokens, cfg.channels)
    if source.shape != expected:
        raise ValueError(f"source latent shape {source.shape} != config {expected}")


_CONFIG_KEY = operator.attrgetter(*INVERSION_FIELDS[:-1])


def inversion_key(cfg: EditConfig, c_src: Conditioning) -> tuple:
    """The values of INVERSION_FIELDS, in order, that inverting under ``cfg``
    and ``c_src`` reads."""
    return _CONFIG_KEY(cfg) + (c_src.prompt_token_ids,)


@dataclass(frozen=True, eq=False)
class Inversion:
    """The source side of an edit: the model and grid, the inverted latent,
    the K/V cache and attention recorded on the steps invert was asked for,
    and the plain reconstruction of the inverted latent under the source
    prompt, with the evaluation counts of both. An edit of the same source
    whose config gives the same inversion_key, and that plans no more steps
    than were recorded, can run on it."""

    model: ToyAttentionFlow
    grid: TimeGrid
    z_inv: Latent
    cache: KVCache
    attn: AttentionRecord
    inversion_evals: int
    reconstructed: Latent
    reconstruction_evals: int


def invert(source: Latent, c_src: Conditioning, cfg: EditConfig,
           steps: int = 0) -> Inversion:
    """Integrate the source backward under the source prompt, caching K/V
    and attention on the first ``steps`` steps, then resample the inverted
    latent under the source prompt with no perturbation and no injection.
    steps is an integer in [0, cfg.total_steps], else a ConfigError.

    Recording does not change the trajectory, and an edit's planned steps
    are a leading prefix (schedule weights never increase), so one Inversion
    recorded on the longest of several edits' plans serves each of them
    exactly.
    """
    _check_source(source, cfg)
    Spec(int, 0, cfg.total_steps).check("steps", steps)
    model = build_model(cfg)
    grid = TimeGrid.uniform(cfg.total_steps)
    cache = KVCache()
    attn = AttentionRecord()

    def record_hooks(i):
        if i < steps:
            return InjectionHooks(mode="record", cache=cache, step=i, attn_sink=attn)
        return None

    inversion = integrate_backward(model, source, grid, cfg.solver, c_src,
                                   record_hooks, phase="inversion")
    reconstruction = integrate_forward(model, inversion.final, grid, cfg.solver,
                                       c_src, None, phase="reconstruction")
    return Inversion(
        model=model, grid=grid, z_inv=inversion.final, cache=cache, attn=attn,
        inversion_evals=inversion.velocity_evals, reconstructed=reconstruction.final,
        reconstruction_evals=reconstruction.velocity_evals)


def _injection_plan(schedule: InjectionSchedule, delta_base: float, layer_count: int,
                    slope: float) -> tuple:
    """The injection plan, the schedule trace and max_step_delta.

    The plan holds, per active step, the per-layer ratios at which cached
    source K/V are blended in. Schedule weights never increase, so the
    active steps are the first active_count; inversion caches them (at
    least), and sampling injects exactly them. The trace holds (weight,
    active) per step."""
    profile = LayerRatioProfile(layer_count, slope)
    plan = tuple(layer_ratios(profile, effective_ratio(schedule, delta_base, i))
                 for i in range(schedule.active_count))
    trace = tuple((weight, is_active(schedule, i)) for i, weight in enumerate(schedule.weights))
    return plan, trace, max_step_delta(schedule, delta_base)


def _sample_edits(inversion: Inversion,
                  edits: Sequence[Tuple[Conditioning, Conditioning, EditConfig]]
                  ) -> List[EditResult]:
    """Mask, perturb and sample edits that share ``inversion``, as one stack,
    in the order given, which must be longest plan first; each row's
    EditResult comes back in that order.

    What rows share is made once per distinct key: the injection plan, the
    schedule trace and max_step_delta per _injection_plan arguments (0.0 and
    -0.0 delta_base share one: both keep every K/V row); the mask and its
    edit tokens per planned step count, mask prompt and soft_mask_gamma; the
    channel gaps and the AdaIN target per edit-token set; the perturbed
    latent and its channel weights per perturbation mode, alpha, tau
    (channel-selective only) and edit-token set. The perturbed latents, one
    entry per row, are stacked along the batch axis and sampled by one
    integrate_forward call, each row under its own target prompt, mask,
    global_mix and per-layer ratios: the edits' INVERSION_FIELDS agree, so
    they share the grid, the solver and the steps, and no step pools over
    rows. Each step blends every row up to its last mixing row by one
    formula (mix_rows). Active steps form a prefix, so the rows planned at a
    step are a leading slice of the stack. A row's velocity jump at a step
    is exactly 0 when its per-layer ratios equal those of the next step (0
    past its plan), so one velocity_jump_between call runs over the leading
    slice when each of its rows moves, over the gathered moving rows under
    their own mix_rows pair when only some do, and none runs when no row
    moves; one psnr and one ssim call score the whole sampled stack. So
    every row equals the edit sampled alone, bitwise but for the signed zero
    of mix_rows. A divergence names the failing row of the stack as its
    entry. Rows with one edit-token set share one read-only channel_gaps
    array.
    """
    counts = [cfg.injection_schedule.active_count for _, _, cfg in edits]
    if counts != sorted(counts, reverse=True):
        raise ValueError(f"edits must come longest plan first, got plan lengths {counts}")
    model, grid, cache = inversion.model, inversion.grid, inversion.cache
    z_inv = inversion.z_inv
    # the seed and the latent's shape are INVERSION_FIELDS: one noise for all
    first = edits[0][2]
    z_rand = sample_gaussian(SeededRng(first.seed, stream=STREAM_NOISE),
                             1, first.img_tokens, first.channels)

    plans: Dict[tuple, tuple] = {}
    masks: Dict[tuple, tuple] = {}
    token_stats: Dict[Tuple[int, ...], tuple] = {}
    shifts: Dict[tuple, tuple] = {}
    stack = []  # per row: (plan, trace, max_step_delta, mask, fallback, gaps, shift)
    for c_src, c_tgt, cfg in edits:
        plan_key = (cfg.injection_schedule, cfg.delta_base, cfg.layer_count,
                    cfg.layer_ratio_beta)
        if plan_key not in plans:
            plans[plan_key] = _injection_plan(*plan_key)
        plan, trace, delta = plans[plan_key]
        mask_cond = c_tgt if cfg.mask_keyword_source == "target" else c_src
        mask_key = (len(plan), mask_cond, cfg.soft_mask_gamma)
        if mask_key not in masks:
            # The mask averages the planned steps' attention only, in the
            # order a record of exactly those steps would stack it.
            mask = extract_mask(inversion.attn, mask_cond, cfg.soft_mask_gamma, len(plan))
            edit_tokens, fallback = resolve_edit_tokens(mask, cfg.img_tokens)
            if edit_tokens not in token_stats:
                gaps = channel_gap(z_inv, z_rand, edit_tokens)
                gaps.flags.writeable = False  # every row of this token set holds it
                token_stats[edit_tokens] = (gaps, shift_stats(z_inv, z_rand, edit_tokens))
            masks[mask_key] = (mask, fallback, edit_tokens)
        mask, fallback, edit_tokens = masks[mask_key]
        gaps, stats = token_stats[edit_tokens]
        # Perturb the inverted latent toward noise on the edit tokens.
        selective = cfg.perturbation_mode == "channel_selective"
        shift_key = (cfg.perturbation_mode, cfg.alpha, cfg.tau if selective else None,
                     edit_tokens)
        if shift_key not in shifts:
            if selective:
                shifts[shift_key] = latents_shift_channel_selective(
                    z_inv, z_rand, PerturbationConfig(cfg.alpha, cfg.tau), stats.idx,
                    gaps=gaps, stats=stats)
            else:
                shifts[shift_key] = (
                    latents_shift_uniform(z_inv, z_rand, cfg.alpha, stats.idx, stats=stats),
                    ChannelWeights.uniform(cfg.channels))
        stack.append((plan, trace, delta, mask, fallback, gaps, shifts[shift_key]))

    conds = tuple(c_tgt for _, c_tgt, _ in edits)
    z = Latent._adopt(np.concatenate([z_hat.data for *_, (z_hat, _) in stack]))
    longest = counts[0]
    # each row's per-layer ratios per step, and 0 at the step after the last
    ratios = np.zeros((longest + 1, first.layer_count, len(stack)))
    for r, (plan, *_) in enumerate(stack):
        ratios[:counts[r], :, r] = plan
    n = first.text_tokens + first.img_tokens
    row_masks = [mask for _, _, _, mask, *_ in stack]
    row_global = [cfg.global_mix for *_, cfg in edits]
    mixes = mix_rows(ratios[:longest], row_masks, row_global, n)
    hooks = [InjectionHooks(mode="inject", cache=cache, step=i, mixes=mixes[i])
             for i in range(longest)]

    # Sample under the target prompts, injecting cached features at the
    # planned ratios.
    sampling = integrate_forward(model, z, grid, first.solver, conds,
                                 lambda i: hooks[i] if i < longest else None,
                                 phase="sampling")

    # Largest injected-velocity change between consecutive planned steps,
    # measured along the sampling trajectory (the binary cutoff jump for the
    # binary family). A row whose plan has ended has ratio 0, so a step's
    # blends end within the rows planned at that step; a row whose
    # ratios do not change at a step has the same blend on both sides and
    # jumps by exactly 0 there, so it is not evaluated.
    moves = (ratios[1:] != ratios[:-1]).any(axis=1)
    gathered: Dict[tuple, tuple] = {}  # the mixes of each set of moving rows
    jumps = [0.0] * len(stack)
    for i in range(longest):
        planned = sum(count > i for count in counts)
        moving = np.flatnonzero(moves[i, :planned])
        state = sampling.states[i]
        if len(moving) == planned:
            rows, own = range(planned), mixes
            if planned < len(stack):
                state = Latent._adopt(state.data[:planned])
        elif len(moving):
            rows = moving.tolist()
            own = gathered.get(tuple(rows))
            if own is None:
                own = gathered[tuple(rows)] = mix_rows(
                    ratios[:, :, rows], [row_masks[r] for r in rows],
                    [row_global[r] for r in rows], n)
            state = Latent._adopt(state.data[rows])
        else:
            continue
        got = velocity_jump_between(model, state, grid.times[i], [conds[r] for r in rows],
                                    cache, i, own[i], own[i + 1] if i + 1 < longest else None)
        for r, jump in zip(rows, got):
            jumps[r] = max(jumps[r], jump)

    # Only the final states are read from here on; the stacked SSIM's planes
    # take the place of the sampling's states.
    final, evals = sampling.final, sampling.velocity_evals
    del sampling
    recon = inversion.reconstructed
    # the reconstruction's value range; 1 for a degenerate constant one
    peak = float(np.ptp(recon.data)) or 1.0
    psnrs = psnr(recon, final, peak=peak, rows=len(stack))
    scores = ssim(recon, final, peak=peak, rows=len(stack))
    inverted, reconstructed = inversion.inversion_evals, inversion.reconstruction_evals
    return [EditResult(
        edited=Latent._adopt(final.data[r:r + 1]), reconstructed_source=recon, mask=mask,
        channel_weights=weights, schedule_trace=trace, channel_gaps=gaps,
        diagnostics={
            "max_step_delta": delta,
            "velocity_jump": jumps[r],
            "eval_count_inversion": float(inverted),
            "eval_count_sampling": float(evals),
            "eval_count_reconstruction": float(reconstructed),
            "evals": float(inverted + evals),
            "psnr": psnrs[r],
            "ssim": scores[r],
            "empty_mask_fallback": 1.0 if fallback else 0.0,
        })
        for r, (_, trace, delta, mask, fallback, gaps, (_, weights)) in enumerate(stack)]


def run_edit(source: Latent, c_src: Conditioning, c_tgt: Conditioning,
             cfg: EditConfig, sampled: Optional[EditResult] = None) -> EditResult:
    """Perturb the inverted source and resample it under the target prompt
    with progressive feature injection.

    ``sampled`` is this edit's finished row of a stack that _sample_edits ran
    (edit_grid runs its rows that way), and is returned as it is. Without it
    the edit inverts the source itself, recording its planned steps only, and
    is sampled as a stack of one.
    """
    if sampled is None:
        active = cfg.injection_schedule.active_count
        (sampled,) = _sample_edits(invert(source, c_src, cfg, active), [(c_src, c_tgt, cfg)])
    return sampled


def run_reconstruction(source: Latent, c_src: Conditioning,
                       cfg: EditConfig) -> Latent:
    """Inversion followed by plain re-sampling under the source prompt: no
    perturbation, no injection. The inversion-quality baseline."""
    return invert(source, c_src, cfg).reconstructed


def edit_grid(source: Latent, base_cfg: EditConfig, axes: Dict[str, Sequence]
              ) -> List[Tuple[Dict, EditConfig, EditResult]]:
    """One edit run per combination of axis values, in itertools.product order.

    Returns a list of (overrides, config, result). Each row runs on its
    own config, prompts included, and every row's config is made before the
    first run, so a bad axis value or name fails fast as a config error; so
    does an axis that is a string or no iterable of values.
    All rows share the one source latent, so an axis cannot change its
    shape; rows keep the base config's seed unless it is an axis.

    The rows that agree on INVERSION_FIELDS share one Inversion, recorded on
    the longest of their plans, so a grid inverts and reconstructs once
    per distinct value of those fields and holds one Inversion at a time.
    Each row's result equals a standalone run_edit bitwise.
    """
    values = {}
    for name, axis in axes.items():
        _spec(name)  # an unknown name is a config error
        if name in SOURCE_SHAPE_FIELDS:
            raise ConfigError(name, "cannot be an axis: every row shares one source latent")
        if isinstance(axis, str) or not isinstance(axis, Iterable):
            raise ConfigError(name, f"axis must be a sequence of values, got {axis!r}")
        values[name] = list(axis)
        if not values[name]:
            raise ConfigError(name, "axis has no values")
    combos = [dict(zip(values, combo)) for combo in itertools.product(*values.values())]
    runs = [(overrides, replace(base_cfg, **overrides)) for overrides in combos]
    # Rows run grouped by inversion key, each group on one Inversion that is
    # dropped before the next group inverts, so at most one K/V cache is
    # alive whatever the axis order. A group samples its rows longest plan
    # first, as stacks of as many rows as keep the run within MEMORY_BUDGET.
    every_edit = [(cfg.source_conditioning(), cfg.target_conditioning(), cfg)
                  for _, cfg in runs]
    groups: Dict[tuple, List[int]] = {}
    for index, (c_src, _, cfg) in enumerate(every_edit):
        groups.setdefault(inversion_key(cfg, c_src), []).append(index)
    results: List[Optional[EditResult]] = [None] * len(runs)
    for rows in groups.values():
        rows.sort(key=lambda index: runs[index][1].injection_schedule.active_count,
                  reverse=True)
        c_src, _, first = every_edit[rows[0]]
        longest = first.injection_schedule.active_count
        inversion = invert(source, c_src, first, longest)
        parts, per_row = _run_bytes(first, longest)
        size = max(1, (MEMORY_BUDGET - sum(parts.values())) // per_row)
        for lo in range(0, len(rows), size):
            part = rows[lo:lo + size]
            edits = [every_edit[index] for index in part]
            try:
                stack = _sample_edits(inversion, edits)
            except DivergenceError as exc:
                row = part[exc.entry]
                raise DivergenceError(exc.step, exc.detail, exc.phase, exc.entry, row) from exc
            for index, edit, result in zip(part, edits, stack):
                results[index] = run_edit(source, *edit, result)
        del inversion
    return [(overrides, cfg, result) for (overrides, cfg), result in zip(runs, results)]
