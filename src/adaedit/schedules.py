"""Injection weight schedules over the denoising trajectory.

Four families: a hard binary cutoff (the baseline used by prior flow editors)
and three progressive decays (sigmoid, cosine, linear) that take the per-step
injection weight smoothly from 1 to 0. Weights are evaluated at discrete step
indices t = i and precomputed at construction; evaluation is a table lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, Spec, as_index, hold, knob
from .latent import DIMENSION
from .solvers import STEPS

SCHEDULE_FAMILIES = ("sigmoid", "cosine", "linear", "binary")
FAMILY = Spec(str, choices=SCHEDULE_FAMILIES)
SHARPNESS = Spec(float, lo=0.0, lo_open=True)
MIDPOINT = Spec(float, lo=0.0, hi=1.0, lo_open=True, hi_open=True)
THRESHOLD = Spec(float, lo=0.0, hi=1.0, hi_open=True)
# delta_base, the peak K/V mixing ratio
DELTA = Spec(float, lo=0.0, hi=1.0)
SLOPE = Spec(float, lo=0.0, hi=2.0, hi_open=True)


def _stable_logistic(t: float) -> float:
    # 1 / (1 + exp(t)) without overflow for large |t|
    if t >= 0.0:
        e = math.exp(-t)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(t))


def _raw_weight(family: str, step: int, injection_steps: int,
                sharpness: float, midpoint: float) -> float:
    ratio = step / injection_steps
    if family == "sigmoid":
        return _stable_logistic(sharpness * (ratio - midpoint))
    if family == "cosine":
        return 0.5 * (1.0 + math.cos(math.pi * min(ratio, 1.0)))
    if family == "linear":
        return max(1.0 - ratio, 0.0)
    return 1.0 if step < injection_steps else 0.0  # binary


@dataclass(frozen=True)
class InjectionSchedule:
    """Per-step injection weights w_0..w_{T-1}, all in [0, 1], non-increasing.

    sharpness and midpoint only affect the sigmoid family. activity_threshold
    is the soft cutoff: a step counts as active while its weight exceeds it.
    Binary weights are 1 before injection_steps and 0 from there on, and the
    threshold lies in [0, 1), so a binary schedule is active exactly on steps
    < injection_steps, reproducing the baseline for ablations. active_count,
    the number of active steps, is counted once at construction; weights
    never increase, so the active steps are the first active_count. Each
    field holds what its Spec's check returns (errors.hold): sharpness=5 as 5.0.
    """

    family: str = knob(FAMILY)
    total_steps: int = knob(STEPS)
    injection_steps: int = knob(STEPS)
    sharpness: float = knob(SHARPNESS, 5.0)
    midpoint: float = knob(MIDPOINT, 0.7)
    activity_threshold: float = knob(THRESHOLD, 0.05)
    weights: tuple = field(init=False, repr=False)
    active_count: int = field(init=False, repr=False)

    def __post_init__(self):
        hold(self)
        if self.injection_steps > self.total_steps:
            raise ConfigError(
                "injection_steps",
                f"must lie in [1, total_steps={self.total_steps}], got {self.injection_steps}")
        w = tuple(
            _raw_weight(self.family, i, self.injection_steps, self.sharpness, self.midpoint)
            for i in range(self.total_steps))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "active_count",
                           sum(weight > self.activity_threshold for weight in w))

    def _check_step(self, step: int) -> int:
        step = as_index("step", step)
        if not 0 <= step < self.total_steps:
            raise IndexError(f"step {step} out of range [0, {self.total_steps})")
        return step


def schedule_weight(s: InjectionSchedule, step: int) -> float:
    return s.weights[s._check_step(step)]


def effective_ratio(s: InjectionSchedule, delta_base: float, step: int) -> float:
    """Effective KV mixing ratio at a step: delta_base * w(step)."""
    DELTA.check("delta_base", delta_base)
    return delta_base * s.weights[s._check_step(step)]


def is_active(s: InjectionSchedule, step: int) -> bool:
    """Whether injection (and inversion-side caching) applies at this step."""
    return s.weights[s._check_step(step)] > s.activity_threshold


def max_step_delta(s: InjectionSchedule, delta_base: float) -> float:
    """Largest jump of the effective ratio between consecutive steps.

    The effective ratio counts as 0 on inactive steps, so the deactivation
    drop is included. This is the scalar discontinuity a binary schedule
    maximizes (the full delta_base at its cutoff) and progressive schedules
    are designed to shrink.
    """
    DELTA.check("delta_base", delta_base)
    deltas = [delta_base * w if w > s.activity_threshold else 0.0 for w in s.weights]
    if len(deltas) < 2:
        return 0.0
    return max(abs(b - a) for a, b in zip(deltas, deltas[1:]))


@dataclass(frozen=True)
class LayerRatioProfile:
    """Per-layer multiplier for the mixing ratio, affine in relative depth.

    w_layer(l) = 1 + slope * (l / (layer_count - 1) - 0.5); a single-layer
    model always gets 1. slope < 2 keeps every multiplier positive. Both
    fields hold what their Spec's check returns (errors.hold).
    """

    layer_count: int = knob(DIMENSION)
    slope: float = knob(SLOPE, 0.0)

    def __post_init__(self):
        hold(self)


def layer_multiplier(p: LayerRatioProfile, layer: int) -> float:
    layer = as_index("layer", layer)
    if not 0 <= layer < p.layer_count:
        raise IndexError(f"layer {layer} out of range [0, {p.layer_count})")
    if p.layer_count == 1:
        return 1.0
    return 1.0 + p.slope * (layer / (p.layer_count - 1) - 0.5)


def layer_ratios(p: LayerRatioProfile, delta_eff: float) -> tuple:
    """Per-layer injection ratios: clamp(delta_eff * w_layer(l), 0, 1)."""
    return tuple(
        min(max(delta_eff * layer_multiplier(p, l), 0.0), 1.0)
        for l in range(p.layer_count))
