"""Adaptive injection schedules and channel-selective latent perturbation for
flow-based editing, exercised at desk scale with seeded toy models."""

from .errors import CacheMissError, ConfigError, DivergenceError
from .latent import EPS_STD, Latent, SeededRng, sample_gaussian
from .models import (AnalyticLinearFlow, AttentionRecord, Conditioning,
                     EditMask, InjectionHooks, KVCache, ToyAttentionFlow,
                     extract_mask, kv_mix)
from .perturbation import (ChannelWeights, PerturbationConfig, channel_gap,
                           channel_weights, latents_shift_channel_selective,
                           latents_shift_uniform)
from .pipeline import (EditConfig, EditResult, Inversion, build_model,
                       build_schedule, config_hash, edit_grid,
                       generate_source_latent, invert, run_edit,
                       run_reconstruction)
from .schedules import (InjectionSchedule, LayerRatioProfile, effective_ratio,
                        is_active, layer_multiplier, max_step_delta,
                        schedule_weight)
from .solvers import TimeGrid, Trajectory, integrate_backward, integrate_forward
from .diagnostics import psnr, ssim, velocity_jump, velocity_jump_between

__version__ = "0.1.0"

__all__ = [
    "AnalyticLinearFlow", "AttentionRecord", "CacheMissError", "ChannelWeights",
    "Conditioning", "ConfigError", "DivergenceError", "EditConfig", "EditMask",
    "EditResult", "EPS_STD", "InjectionHooks", "InjectionSchedule", "Inversion", "KVCache",
    "Latent", "LayerRatioProfile", "PerturbationConfig", "SeededRng", "TimeGrid",
    "ToyAttentionFlow", "Trajectory", "build_model", "build_schedule",
    "channel_gap", "channel_weights", "config_hash", "edit_grid",
    "effective_ratio", "extract_mask", "generate_source_latent",
    "integrate_backward", "integrate_forward", "invert", "is_active", "kv_mix",
    "latents_shift_channel_selective", "latents_shift_uniform",
    "layer_multiplier", "max_step_delta", "psnr", "run_edit",
    "run_reconstruction", "sample_gaussian", "schedule_weight",
    "ssim", "velocity_jump", "velocity_jump_between",
]
