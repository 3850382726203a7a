"""Latent perturbation toward random noise, uniform or channel-selective.

The shift re-standardizes the inverted latent to the noise sample's
per-channel statistics (AdaIN) inside the edit region, blended with the
original at strength alpha. The channel-selective variant scales alpha per
channel by softmax importance weights derived from the per-channel gap
between the two latents' means over the edit tokens: channels whose
statistics differ most from noise carry the source-specific content and get
perturbed hardest, while near-noise channels (generic structure) are left
mostly intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import Spec, hold, knob
from .latent import EPS_STD, Latent, frozen, resolve_tokens

PERTURBATION_MODES = ("uniform", "channel_selective")
ALPHA = Spec(float, lo=0.0, hi=1.0)
# At subnormal temperatures d / tau overflows and the channel weights turn
# NaN. At this floor, gaps 1e-4 apart already get weights exp(-100) apart.
MIN_TAU = 1e-6
TAU = Spec(float, lo=MIN_TAU)


@dataclass(frozen=True)
class ChannelWeights:
    """Per-channel importance weights, nonnegative with mean 1."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = frozen(self.alpha)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"channel weights must be a length-C vector, got {arr.shape}")
        if not np.all(arr >= 0.0):  # NaN fails it
            raise ValueError("channel weights must be nonnegative")
        if abs(arr.mean() - 1.0) > 1e-9:
            raise ValueError(f"channel weights must have mean 1, got {arr.mean()!r}")
        object.__setattr__(self, "alpha", arr)

    @classmethod
    def uniform(cls, c: int) -> "ChannelWeights":
        return cls(np.ones(c))


@dataclass(frozen=True)
class PerturbationConfig:
    """Strength alpha and temperature tau, each held as checked (errors.hold)."""

    alpha: float = knob(ALPHA)
    tau: float = knob(TAU, 1.0)

    def __post_init__(self):
        hold(self)


def _adain_per_channel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x, y: (B, S, C), where an edit's latents hold one entry; per-channel
    # stats over every entry's tokens
    mx = x.mean(axis=(0, 1))
    sx = x.std(axis=(0, 1))
    my = y.mean(axis=(0, 1))
    sy = y.std(axis=(0, 1))
    return sy * (x - mx) / (sx + EPS_STD) + my


def _check_pair(z_inv: Latent, z_rand: Latent) -> None:
    if z_inv.shape != z_rand.shape:
        raise ValueError(f"latent shape mismatch: {z_inv.shape} vs {z_rand.shape}")


def _select(z: Latent, idx: np.ndarray) -> np.ndarray:
    # a C-contiguous copy of the resolved tokens: contiguity pins the
    # reduction order, so statistics over every token equal those of the
    # unsliced latent bitwise
    return np.ascontiguousarray(z.data[:, idx, :])


def channel_gap(z_inv: Latent, z_rand: Latent, tokens: Iterable[int]) -> np.ndarray:
    """Absolute per-channel gap of means over the edit tokens; length C."""
    _check_pair(z_inv, z_rand)
    idx = resolve_tokens(tokens, z_inv.l)
    return np.abs(_select(z_inv, idx).mean(axis=(0, 1)) - _select(z_rand, idx).mean(axis=(0, 1)))


def channel_weights(d: np.ndarray, tau: float) -> ChannelWeights:
    """Temperature-scaled softmax of the gap vector, rescaled to mean 1.

    Max-subtraction keeps the exponentials in range at any temperature. The
    (C * e) / sum(e) ordering makes a constant gap vector produce exactly 1.0
    per channel, so the uniform-recovery reduction is bitwise.
    """
    TAU.check("tau", tau)
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size < 1:
        raise ValueError(f"gap vector must be 1-d with length >= 1, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("gap vector must be finite")
    z = d / tau
    e = np.exp(z - z.max())
    alpha = (d.size * e) / e.sum()
    return ChannelWeights(alpha)


def blend_weights(cfg, weights: ChannelWeights) -> np.ndarray:
    """The clamped per-channel blend factors min(alpha * alpha_c, 1).

    cfg is any config with a checked alpha in [0, 1]: a PerturbationConfig, or
    the EditConfig of a run.
    """
    return np.minimum(cfg.alpha * weights.alpha, 1.0)


@dataclass(frozen=True, eq=False)
class ShiftStats:
    """What every shift of one (z_inv, z_rand) pair on one token set shares:
    the resolved tokens idx, z_inv on them (x) and the AdaIN of x to z_rand's
    statistics on them (target)."""

    idx: np.ndarray
    x: np.ndarray
    target: np.ndarray


def shift_stats(z_inv: Latent, z_rand: Latent, tokens: Iterable[int]) -> ShiftStats:
    """The ShiftStats of z_inv and z_rand on the edit tokens.

    AdaIN statistics are computed over the edit tokens only.
    """
    _check_pair(z_inv, z_rand)
    idx = resolve_tokens(tokens, z_inv.l)
    x = _select(z_inv, idx)
    return ShiftStats(idx, x, _adain_per_channel(x, _select(z_rand, idx)))


def _shift(z_inv: Latent, blend: np.ndarray, stats: ShiftStats) -> Latent:
    """Blend stats.target into z_inv on the tokens stats.idx, per channel at
    the strengths in blend.

    Tokens outside idx and channels whose blend is 0 are copied through
    bitwise.
    """
    out = z_inv.data.copy()
    if np.any(blend > 0.0):
        x = stats.x
        mixed = blend * stats.target + (1.0 - blend) * x
        out[:, stats.idx, :] = np.where(blend > 0.0, mixed, x)
    return Latent(out)


def latents_shift_uniform(z_inv: Latent, z_rand: Latent, alpha: float,
                          tokens: Iterable[int],
                          stats: Optional[ShiftStats] = None) -> Latent:
    """Blend AdaIN(z_inv, z_rand) into z_inv at strength alpha on the edit tokens.

    The channel-selective shift with every alpha_c = 1. alpha = 0 returns
    z_inv unchanged. stats is shift_stats(z_inv, z_rand, tokens) when the
    caller already has it.
    """
    _check_pair(z_inv, z_rand)
    ALPHA.check("alpha", alpha)
    if stats is None:
        stats = shift_stats(z_inv, z_rand, tokens)
    return _shift(z_inv, np.full(z_inv.c, alpha), stats)


def latents_shift_channel_selective(
        z_inv: Latent, z_rand: Latent, cfg: PerturbationConfig,
        tokens: Iterable[int],
        gaps: Optional[np.ndarray] = None,
        stats: Optional[ShiftStats] = None) -> Tuple[Latent, ChannelWeights]:
    """Per-channel blend at strength min(alpha * alpha_c, 1); returns weights used.

    gaps is channel_gap(z_inv, z_rand, tokens) and stats is
    shift_stats(z_inv, z_rand, tokens) when the caller already has them.
    alpha = 0 is the identity, and a constant gap vector reduces exactly to
    the uniform shift.
    """
    _check_pair(z_inv, z_rand)
    if stats is None:
        stats = shift_stats(z_inv, z_rand, tokens)
    if gaps is None:
        gaps = channel_gap(z_inv, z_rand, stats.idx)
    weights = channel_weights(gaps, cfg.tau)
    return _shift(z_inv, blend_weights(cfg, weights), stats), weights
