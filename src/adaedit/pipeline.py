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
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import psnr, ssim, velocity_jump_between
from .errors import ConfigError, DivergenceError
from .latent import STREAM_NOISE, STREAM_SOURCE, Latent, SeededRng, sample_gaussian
from .models import (AttentionRecord, Conditioning, EditMask, InjectionHooks,
                     KVCache, ToyAttentionFlow, extract_mask, mix_rows,
                     score_buffer_bytes)
from .perturbation import (PERTURBATION_MODES, ChannelWeights,
                           PerturbationConfig, channel_gap,
                           latents_shift_channel_selective,
                           latents_shift_uniform, shift_stats)
from .schedules import (SCHEDULE_FAMILIES, InjectionSchedule,
                        LayerRatioProfile, effective_ratio, is_active,
                        layer_ratios, max_step_delta)
from .solvers import (SOLVER_KINDS, TimeGrid, integrate_backward,
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
# A run keeps the model's weights, and the K/V and the text-to-image attention
# of every active step until sampling ends. The estimate also counts the
# attention scores: the larger of heads * n * n float64 scores, kept at what
# all heads' scores held when they were live at once, and the score blocks
# and row sums that evaluate's lanes hold at once (score_buffer_bytes, two
# lanes from n >= 210 tokens). The per-field bounds admit products far beyond
# any desk machine (heads=32, img_tokens=4096 counts 4.3 GB of scores;
# vocab_size=65536 and layer_count=32 at embed_dim=1024 take 1.62 GB of
# weights), which end in a MemoryError or an OOM kill mid-run. This budget
# stops them before any work starts; it admits the stability envelope above
# with a binary schedule and injection_steps=28 (~1.02 GB by the estimate in
# EditConfig.validate).
MEMORY_BUDGET = 2 * 10**9
FLOAT64_BYTES = 8
# At subnormal temperatures d / tau overflows and the channel weights turn
# NaN. At this floor, gaps 1e-4 apart already get weights exp(-100) apart.
MIN_TAU = 1e-6

_BOOL_TEXT = {"1": True, "true": True, "yes": True,
              "0": False, "false": False, "no": False}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integral(value):
    """JSON numbers such as 5.0 stand for the integer 5."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class Spec:
    """Type and allowed values of one EditConfig field.

    kind is int, float, bool, str (one of choices) or tuple (a list of integer
    token ids). Numbers lie between lo and hi, open at an end whose flag is
    set; floats must be finite, and an int given for one must lie within
    float range. optional admits None.
    """

    kind: type
    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False
    choices: Tuple[str, ...] = ()
    optional: bool = False

    def describe(self) -> str:
        if self.kind is bool:
            text = "true or false"
        elif self.kind is str:
            text = "one of " + ", ".join(self.choices)
        elif self.kind is tuple:
            text = "a list of integers"
        else:
            left = "(" if self.lo_open else "["
            right = ")" if self.hi_open or self.hi is None else "]"
            hi = "inf" if self.hi is None else self.hi
            noun = "an integer" if self.kind is int else "a finite number"
            text = f"{noun} in {left}{self.lo}, {hi}{right}"
        return text + " or null" if self.optional else text

    def accepts(self, value) -> bool:
        if value is None:
            return self.optional
        if self.kind is bool:
            return isinstance(value, bool)
        if self.kind is str:
            return isinstance(value, str) and value in self.choices
        if self.kind is tuple:
            return isinstance(value, (tuple, list)) and all(_is_int(v) for v in value)
        if self.kind is int:
            if not _is_int(value):
                return False
        elif (not isinstance(value, (int, float)) or isinstance(value, bool)
              or not abs(value) <= sys.float_info.max):  # NaN, inf, or an int past float
            return False
        above = value > self.lo if self.lo_open else value >= self.lo
        below = self.hi is None or (value < self.hi if self.hi_open else value <= self.hi)
        return above and below

    def check(self, name: str, value):
        if not self.accepts(value):
            raise ConfigError(name, f"must be {self.describe()}, got {value!r}")
        return value

    def from_json(self, value):
        """The value read from JSON in the field's own type; the config that
        receives it checks it."""
        if self.kind is int:
            return _integral(value)
        if self.kind is tuple and isinstance(value, list):
            return tuple(_integral(v) for v in value)
        return value

    def from_text(self, name: str, raw: str):
        """The value written as --set/--axis text: ints, floats, true/false
        (also 1/0, yes/no), comma-separated token ids, none/null if optional."""
        value = raw
        if self.optional and raw.lower() in ("none", "null"):
            value = None
        elif self.kind is bool:
            value = _BOOL_TEXT.get(raw.lower(), raw)
        elif self.kind is not str:
            try:
                if self.kind is tuple:
                    value = tuple(int(tok) for tok in raw.split(",") if tok)
                else:
                    value = self.kind(raw)
            except ValueError:
                pass
        return self.check(name, value)


def _knob(default, kind: type, **spec):
    return field(default=default, metadata={"spec": Spec(kind, **spec)})


@dataclass(frozen=True)
class EditConfig:
    """Every knob of one edit run; JSON documents mirror these field names.

    Each field declares its type and range (a Spec) next to its default. A
    config is checked when it is made (by the constructor, from_dict or
    dataclasses.replace) and cannot change afterwards, so every EditConfig in
    hand is valid.
    """

    total_steps: int = _knob(15, int, lo=1, hi=MAX_STEPS)
    injection_steps: int = _knob(4, int, lo=1, hi=MAX_STEPS)
    schedule: str = _knob("sigmoid", str, choices=SCHEDULE_FAMILIES)
    delta_base: float = _knob(0.9, float, lo=0.0, hi=1.0)
    alpha: float = _knob(0.25, float, lo=0.0, hi=1.0)
    tau: float = _knob(1.0, float, lo=MIN_TAU)
    solver: str = _knob("reuse_velocity", str, choices=SOLVER_KINDS)
    perturbation_mode: str = _knob("channel_selective", str, choices=PERTURBATION_MODES)
    soft_mask_gamma: Optional[float] = _knob(None, float, lo=0.0, lo_open=True,
                                             optional=True)
    layer_ratio_beta: float = _knob(0.0, float, lo=0.0, hi=2.0, hi_open=True)
    seed: int = _knob(0, int, lo=0, hi=2**64 - 1)
    # schedule shape
    sharpness: float = _knob(5.0, float, lo=0.0, lo_open=True)
    sigmoid_midpoint: float = _knob(0.7, float, lo=0.0, hi=1.0, lo_open=True,
                                    hi_open=True)
    activity_threshold: float = _knob(0.05, float, lo=0.0, hi=1.0, hi_open=True)
    # toy model dimensions
    layer_count: int = _knob(2, int, lo=1, hi=32)
    embed_dim: int = _knob(32, int, lo=1, hi=1024)
    img_tokens: int = _knob(16, int, lo=1, hi=4096)
    text_tokens: int = _knob(4, int, lo=1, hi=256)
    channels: int = _knob(8, int, lo=1, hi=64)
    heads: int = _knob(1, int, lo=1, hi=32)
    vocab_size: int = _knob(64, int, lo=1, hi=65536)
    # conditioning; None picks deterministic defaults sized to text_tokens
    source_prompt_ids: Optional[Tuple[int, ...]] = _knob(None, tuple, optional=True)
    target_prompt_ids: Optional[Tuple[int, ...]] = _knob(None, tuple, optional=True)
    source_keyword_index: Optional[int] = _knob(None, int, lo=0, optional=True)
    target_keyword_index: Optional[int] = _knob(None, int, lo=0, optional=True)
    mask_keyword_source: str = _knob("target", str, choices=MASK_KEYWORD_SOURCES)
    global_mix: bool = _knob(False, bool)

    def __post_init__(self):
        self.validate()

    def _default_keyword_position(self) -> int:
        return max(0, self.text_tokens - 2)

    def resolved_source_prompt(self) -> Tuple[int, ...]:
        if self.source_prompt_ids is not None:
            return tuple(int(t) for t in self.source_prompt_ids)
        return tuple(range(1, self.text_tokens + 1))

    def resolved_target_prompt(self) -> Tuple[int, ...]:
        if self.target_prompt_ids is not None:
            return tuple(int(t) for t in self.target_prompt_ids)
        ids = list(self.resolved_source_prompt())
        ids[self._default_keyword_position()] = self.text_tokens + 5
        return tuple(ids)

    def source_conditioning(self) -> Conditioning:
        kw = self.source_keyword_index
        if kw is None:
            kw = self._default_keyword_position()
        return Conditioning(self.resolved_source_prompt(), kw)

    def target_conditioning(self) -> Conditioning:
        kw = self.target_keyword_index
        if kw is None:
            kw = self._default_keyword_position()
        return Conditioning(self.resolved_target_prompt(), kw)

    @cached_property
    def injection_schedule(self) -> InjectionSchedule:
        """The config's schedule, made once by build_schedule; validate, the
        grid and run_edit all read this one."""
        return build_schedule(self)

    def validate(self) -> "EditConfig":
        """Check every field against its Spec, then the rules that span fields."""
        for name, spec in FIELD_SPECS.items():
            spec.check(name, getattr(self, name))
        if self.injection_steps > self.total_steps:
            raise ConfigError(
                "injection_steps",
                f"must lie in [1, total_steps={self.total_steps}], "
                f"got {self.injection_steps}")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                "heads", f"embed_dim {self.embed_dim} not divisible by {self.heads}")
        g = math.isqrt(self.img_tokens)
        if g * g != self.img_tokens:
            raise ConfigError(
                "img_tokens", f"must be a perfect square, got {self.img_tokens}")
        # the default target prompt is built from the source, so check that first
        for prompt_field, resolve in (("source_prompt_ids", self.resolved_source_prompt),
                                      ("target_prompt_ids", self.resolved_target_prompt)):
            prompt = resolve()
            if len(prompt) != self.text_tokens:
                raise ConfigError(
                    prompt_field,
                    f"length {len(prompt)} != text_tokens {self.text_tokens}")
            if any(t < 0 or t >= self.vocab_size for t in prompt):
                raise ConfigError(
                    prompt_field, f"token ids must lie in [0, {self.vocab_size})")
        for kw_field, kw in (("source_keyword_index", self.source_keyword_index),
                             ("target_keyword_index", self.target_keyword_index)):
            if kw is not None and kw >= self.text_tokens:
                raise ConfigError(
                    kw_field, f"must lie in [0, text_tokens={self.text_tokens}), got {kw}")
        active = self.injection_schedule.active_count
        if active == 0:
            raise ConfigError(
                "activity_threshold",
                f"no step is active: the first {self.schedule} weight does not "
                f"exceed {self.activity_threshold}")
        weights, scores, cache, record = _run_bytes(self, active)
        total = weights + scores + cache + record
        if total > MEMORY_BUDGET:
            raise ConfigError(
                "img_tokens",
                f"the run needs about {total / 1e9:.3g} GB (model weights "
                f"{weights / 1e9:.3g} GB, attention scores {scores / 1e9:.3g} GB, "
                f"K/V cache of {active} active steps {cache / 1e9:.3g} GB, "
                f"attention record {record / 1e9:.3g} GB), "
                f"over the {MEMORY_BUDGET / 1e9:g} GB budget; "
                f"lower img_tokens, text_tokens, heads, layer_count, "
                f"embed_dim, vocab_size or the active steps")
        return self

    def resolved_dict(self) -> dict:
        """JSON-serializable dict with prompt defaults materialized."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        out["source_prompt_ids"] = list(self.resolved_source_prompt())
        out["target_prompt_ids"] = list(self.resolved_target_prompt())
        out["source_keyword_index"] = self.source_conditioning().keyword_index
        out["target_keyword_index"] = self.target_conditioning().keyword_index
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EditConfig":
        """Config from a JSON object; each value must fit its field's Spec."""
        return cls(**{name: _spec(name).from_json(value) for name, value in data.items()})


FIELD_SPECS: Dict[str, Spec] = {f.name: f.metadata["spec"] for f in fields(EditConfig)}


def _run_bytes(cfg: EditConfig, active: int) -> Tuple[int, int, int, int]:
    """The model weights, the attention scores, the K/V cache and the
    attention record of ``active`` steps that one run holds, in bytes; the
    scores are an upper bound (see MEMORY_BUDGET)."""
    n, d = cfg.img_tokens + cfg.text_tokens, cfg.embed_dim
    weights = ToyAttentionFlow.array_bytes(**_model_dims(cfg))[0]
    scores = max(cfg.heads * n * n * FLOAT64_BYTES, score_buffer_bytes(n))
    cache = active * cfg.layer_count * 2 * n * d * FLOAT64_BYTES
    record = (active * cfg.layer_count * cfg.heads * cfg.text_tokens * cfg.img_tokens
              * FLOAT64_BYTES)
    return weights, scores, cache, record


def _stack_row_bytes(cfg: EditConfig) -> int:
    """The bytes one more row adds to a sampled stack: its evaluate scratch,
    states and solver temporaries, and its K/V blends of every step."""
    n = cfg.img_tokens + cfg.text_tokens
    states = (cfg.total_steps + 8) * cfg.img_tokens * cfg.channels
    blends = 2 * cfg.total_steps * cfg.layer_count * n
    return (ToyAttentionFlow.array_bytes(**_model_dims(cfg))[1]
            + FLOAT64_BYTES * (states + blends))


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
    return [parse_field(name, item) for item in raw.split(sep) if item]


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
    schedule_trace: Tuple[Tuple[float, float, bool], ...]
    diagnostics: Dict[str, float]
    channel_gaps: np.ndarray


def _model_dims(cfg: EditConfig) -> dict:
    return dict(layer_count=cfg.layer_count, embed_dim=cfg.embed_dim,
                img_tokens=cfg.img_tokens, text_tokens=cfg.text_tokens,
                channels=cfg.channels, heads=cfg.heads, vocab_size=cfg.vocab_size)


def build_model(cfg: EditConfig) -> ToyAttentionFlow:
    return ToyAttentionFlow(seed=cfg.seed, **_model_dims(cfg))


def build_schedule(cfg: EditConfig) -> InjectionSchedule:
    return InjectionSchedule(
        family=cfg.schedule, total_steps=cfg.total_steps,
        injection_steps=cfg.injection_steps, sharpness=cfg.sharpness,
        midpoint=cfg.sigmoid_midpoint,
        activity_threshold=cfg.activity_threshold)


def generate_source_latent(cfg: EditConfig) -> Latent:
    """Seeded smooth per-channel fields on the token grid, standing in for an
    encoded image."""
    rng = SeededRng(cfg.seed, stream=STREAM_SOURCE)
    g = math.isqrt(cfg.img_tokens)
    ys, xs = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    arr = np.empty((1, cfg.img_tokens, cfg.channels))
    for ci in range(cfg.channels):
        plane = 0.3 * rng.standard_normal(())
        for k in range(1, 4):
            amp = rng.standard_normal(()) * 0.8 / k
            fx, fy = rng.integers(1, 4, (2,))
            phase = rng.uniform(0.0, 2.0 * math.pi, ())
            plane = plane + amp * np.sin(
                2.0 * math.pi * (fx * xs + fy * ys) / g + phase)
        arr[0, :, ci] = plane.reshape(-1)
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

    @cached_property
    def peak(self) -> float:
        """The reconstruction's value range, the peak of every edit's PSNR
        and SSIM against it; 1 for a degenerate constant reconstruction."""
        return float(np.ptp(self.reconstructed.data)) or 1.0


def invert(source: Latent, c_src: Conditioning, cfg: EditConfig,
           steps: int = 0) -> Inversion:
    """Integrate the source backward under the source prompt, caching K/V
    and attention on the first ``steps`` steps, then resample the inverted
    latent under the source prompt with no perturbation and no injection.

    Recording does not change the trajectory, and an edit's planned steps
    are a leading prefix (schedule weights never increase), so one Inversion
    recorded on the longest of several edits' plans serves each of them
    exactly.
    """
    _check_source(source, cfg)
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


# The fields an injection plan reads: the schedule's, delta_base and the
# layer profile's. Edits that agree on them share one plan.
PLAN_FIELDS = ("schedule", "total_steps", "injection_steps", "sharpness",
               "sigmoid_midpoint", "activity_threshold", "delta_base",
               "layer_ratio_beta", "layer_count")
_PLAN_KEY = operator.attrgetter(*PLAN_FIELDS)


def _injection_plan(cfg: EditConfig) -> tuple:
    """The injection plan: per active step, the per-layer ratios at which
    cached source K/V are blended in. Schedule weights never increase, so the
    active steps are the first active_count; inversion caches them (at
    least), and sampling injects exactly them."""
    schedule = cfg.injection_schedule
    profile = LayerRatioProfile(cfg.layer_count, cfg.layer_ratio_beta)
    return tuple(layer_ratios(profile, effective_ratio(schedule, cfg.delta_base, i))
                 for i in range(schedule.active_count))


@dataclass(frozen=True, eq=False)
class SampledEdit:
    """One edit of a stack that _sample_edits ran: the Inversion it was
    sampled from, its injection plan, its mask, the perturbed latent with its
    channel gaps and weights, and the sampled latent with the sampling's
    evaluation count, the largest velocity jump between its consecutive
    planned steps and its SSIM against the inversion's reconstruction."""

    cfg: EditConfig
    c_tgt: Conditioning
    inversion: Inversion
    plan: tuple
    mask: EditMask
    fallback: bool
    gaps: np.ndarray
    weights: ChannelWeights
    z_hat: Latent
    edited: Optional[Latent] = None
    sampling_evals: int = 0
    velocity_jump: float = 0.0
    ssim: float = 0.0


def _sample_edits(inversion: Inversion,
                  edits: Sequence[Tuple[Conditioning, Conditioning, EditConfig]]
                  ) -> List[SampledEdit]:
    """Mask, perturb and sample edits that share ``inversion``, as one stack,
    in the order given, which must be longest plan first.

    What rows share is made once per distinct key: the injection plan per
    PLAN_FIELDS value; the mask and its edit tokens per planned step count,
    mask prompt and soft_mask_gamma; the channel gaps and the AdaIN target per
    edit-token set. Each edit (c_src, c_tgt, cfg) then makes only its own
    channel weights and blend. The perturbed latents, one entry per row, are
    stacked along the batch axis and sampled by one integrate_forward call,
    each row under its own target prompt, mask, global_mix and per-layer
    ratios: the edits' INVERSION_FIELDS agree, so they share the grid, the
    solver and the steps, and no step pools over rows. Active steps form a
    prefix, so the rows planned at a step are a leading slice of the stack,
    and the velocity-jump pairs of a step run as one velocity_jump_between
    call over them; one ssim call scores the whole sampled stack. So every
    row equals the edit sampled alone, bitwise. A divergence names the
    failing row of the stack as its entry.
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
    stack = []
    for c_src, c_tgt, cfg in edits:
        plan_key = _PLAN_KEY(cfg)
        if plan_key not in plans:
            plans[plan_key] = _injection_plan(cfg)
        plan = plans[plan_key]
        mask_cond = c_tgt if cfg.mask_keyword_source == "target" else c_src
        mask_key = (len(plan), mask_cond, cfg.soft_mask_gamma)
        if mask_key not in masks:
            # The mask averages the planned steps' attention only, in the
            # order a record of exactly those steps would stack it.
            mask = extract_mask(inversion.attn, mask_cond, cfg.soft_mask_gamma, len(plan))
            edit_tokens, fallback = resolve_edit_tokens(mask, cfg.img_tokens)
            if edit_tokens not in token_stats:
                token_stats[edit_tokens] = (channel_gap(z_inv, z_rand, edit_tokens),
                                            shift_stats(z_inv, z_rand, edit_tokens))
            masks[mask_key] = (mask, fallback) + token_stats[edit_tokens]
        mask, fallback, gaps, stats = masks[mask_key]
        # Perturb the inverted latent toward noise on the edit tokens.
        if cfg.perturbation_mode == "channel_selective":
            z_hat, weights = latents_shift_channel_selective(
                z_inv, z_rand, PerturbationConfig(cfg.alpha, cfg.tau), stats.idx,
                gaps=gaps, stats=stats)
        else:
            z_hat = latents_shift_uniform(z_inv, z_rand, cfg.alpha, stats.idx, stats=stats)
            weights = ChannelWeights.uniform(cfg.channels)
        stack.append(SampledEdit(cfg, c_tgt, inversion, plan, mask, fallback,
                                 gaps, weights, z_hat))

    conds = tuple(row.c_tgt for row in stack)
    z = Latent._adopt(np.concatenate([row.z_hat.data for row in stack]))
    longest = counts[0]
    ratios = np.zeros((longest, first.layer_count, len(stack)))
    for r, row in enumerate(stack):
        ratios[:counts[r], :, r] = row.plan
    mixes = mix_rows(ratios, [row.mask for row in stack],
                     [row.cfg.global_mix for row in stack],
                     first.text_tokens + first.img_tokens)
    hooks = [InjectionHooks(mode="inject", cache=cache, step=i, mixes=mixes[i])
             for i in range(longest)]

    # Sample under the target prompts, injecting cached features at the
    # planned ratios.
    sampling = integrate_forward(model, z, grid, first.solver, conds,
                                 lambda i: hooks[i] if i < longest else None,
                                 phase="sampling")

    # Largest injected-velocity change between consecutive planned steps,
    # measured along the sampling trajectory (the binary cutoff jump for the
    # binary family). A row whose plan has ended has ratio 0, so no run of a
    # step's blends reaches past the rows planned at that step.
    jumps = [0.0] * len(stack)
    for i in range(longest):
        planned = sum(count > i for count in counts)
        state = sampling.states[i]
        if planned < len(stack):
            state = Latent._adopt(state.data[:planned])
        got = velocity_jump_between(model, state, grid.times[i], conds[:planned], cache, i,
                                    mixes[i], mixes[i + 1] if i + 1 < longest else None)
        for r, jump in enumerate(got):
            jumps[r] = max(jumps[r], jump)

    # Only the final states are read from here on; the stacked SSIM's planes
    # take the place of the sampling's states.
    final, evals = sampling.final, sampling.velocity_evals
    del sampling
    scores = ssim(inversion.reconstructed, final, peak=inversion.peak, rows=len(stack))
    return [replace(row, edited=Latent._adopt(final.data[r:r + 1]),
                    sampling_evals=evals, velocity_jump=jumps[r], ssim=scores[r])
            for r, row in enumerate(stack)]


def run_edit(source: Latent, c_src: Conditioning, c_tgt: Conditioning,
             cfg: EditConfig, sampled: Optional[SampledEdit] = None) -> EditResult:
    """Perturb the inverted source and resample it under the target prompt
    with progressive feature injection.

    ``sampled`` is this edit's row of a stack that _sample_edits ran
    (edit_grid runs its rows that way); one sampled under another config is
    a ValueError. Without it the edit inverts the source itself, recording
    its planned steps only, and is sampled as a stack of one.
    """
    if sampled is None:
        active = cfg.injection_schedule.active_count
        (sampled,) = _sample_edits(invert(source, c_src, cfg, active), [(c_src, c_tgt, cfg)])
    elif sampled.cfg != cfg:
        raise ValueError("a sampled edit must be run under its own config")
    inversion = sampled.inversion
    schedule = cfg.injection_schedule
    edited = sampled.edited

    trace = tuple((weight, cfg.delta_base * weight, is_active(schedule, i))
                  for i, weight in enumerate(schedule.weights))

    diagnostics = {
        "max_step_delta": max_step_delta(schedule, cfg.delta_base),
        "velocity_jump": sampled.velocity_jump,
        "eval_count_inversion": float(inversion.inversion_evals),
        "eval_count_sampling": float(sampled.sampling_evals),
        "eval_count_reconstruction": float(inversion.reconstruction_evals),
        "evals": float(inversion.inversion_evals + sampled.sampling_evals),
        "psnr": psnr(inversion.reconstructed, edited, peak=inversion.peak),
        "ssim": sampled.ssim,
        "empty_mask_fallback": 1.0 if sampled.fallback else 0.0,
    }

    return EditResult(
        edited=edited, reconstructed_source=inversion.reconstructed, mask=sampled.mask,
        channel_weights=sampled.weights, schedule_trace=trace, diagnostics=diagnostics,
        channel_gaps=sampled.gaps)


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
    first run, so a bad axis value or name fails fast as a config error.
    All rows share the one source latent, so an axis cannot change its
    shape; rows keep the base config's seed unless it is an axis.

    The rows that agree on INVERSION_FIELDS share one Inversion, recorded on
    the longest of their plans, so a grid inverts and reconstructs once
    per distinct value of those fields and holds one Inversion at a time.
    Each row's result equals a standalone run_edit bitwise.
    """
    values = {name: list(axes[name]) for name in axes}
    for name in values:
        _spec(name)  # an unknown name is a config error
        if name in SOURCE_SHAPE_FIELDS:
            raise ConfigError(name, "cannot be an axis: every row shares one source latent")
        if not values[name]:
            raise ConfigError(name, "axis has no values")
    combos = [dict(zip(values, combo)) for combo in itertools.product(*values.values())]
    runs = [(overrides, replace(base_cfg, **overrides)) for overrides in combos]
    # Rows run grouped by inversion key, each group on one Inversion that is
    # dropped before the next group inverts, so at most one K/V cache is
    # alive whatever the axis order. A group samples its rows longest plan
    # first, as stacks of as many rows as keep the run within MEMORY_BUDGET.
    groups: Dict[tuple, List[int]] = {}
    for index, (_, cfg) in enumerate(runs):
        groups.setdefault(inversion_key(cfg, cfg.source_conditioning()), []).append(index)
    results: List[Optional[EditResult]] = [None] * len(runs)
    for rows in groups.values():
        rows.sort(key=lambda index: runs[index][1].injection_schedule.active_count,
                  reverse=True)
        first = runs[rows[0]][1]
        longest = first.injection_schedule.active_count
        inversion = invert(source, first.source_conditioning(), first, longest)
        spare = MEMORY_BUDGET - sum(_run_bytes(first, longest))
        size = max(1, spare // _stack_row_bytes(first))
        for lo in range(0, len(rows), size):
            part = rows[lo:lo + size]
            edits = [(cfg.source_conditioning(), cfg.target_conditioning(), cfg)
                     for cfg in (runs[index][1] for index in part)]
            try:
                stack = _sample_edits(inversion, edits)
            except DivergenceError as exc:
                row = part[exc.entry]
                raise DivergenceError(exc.step, exc.detail, exc.phase, exc.entry, row) from exc
            for index, edit, sampled in zip(part, edits, stack):
                results[index] = run_edit(source, *edit, sampled)
        # every SampledEdit holds the Inversion
        del inversion, stack, sampled
    return [(overrides, cfg, result) for (overrides, cfg), result in zip(runs, results)]
