"""Quantitative diagnostics: velocity jump, PSNR, SSIM.

Latents are not pixel images, so PSNR peaks default to the value range of the
reference latent and SSIM treats the token axis as a g x g grid (a structural
proxy, not pixel SSIM). LPIPS/CLIP-style learned metrics are out of scope;
their CSV columns are emitted empty downstream.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np
from scipy import ndimage

from .latent import Latent
from .models import Conditioning, EditMask, InjectionHooks, KVCache

SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_SIGMA = 1.5


def _check_same_shape(a: Latent, b: Latent) -> None:
    if a.shape != b.shape:
        raise ValueError(f"latent shape mismatch: {a.shape} vs {b.shape}")


def _default_peak(reference: Latent) -> float:
    peak = float(np.ptp(reference.data))
    if peak <= 0.0:
        raise ValueError("reference latent is constant; pass an explicit peak")
    return peak


def psnr(a: Latent, b: Latent, peak: Optional[float] = None) -> float:
    """10*log10(peak^2 / MSE) in dB; +inf when the latents match exactly.

    peak defaults to the value range of the reference latent a.
    """
    _check_same_shape(a, b)
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return math.inf
    if peak is None:
        peak = _default_peak(a)
    if not peak > 0.0:
        raise ValueError(f"peak must be positive, got {peak}")
    return 20.0 * math.log10(peak) - 10.0 * math.log10(mse)


@functools.cache
def _gaussian_kernel(window: int) -> np.ndarray:
    """The normalized window x window Gaussian, built once per window size
    and read-only."""
    half = (window - 1) / 2.0
    x = np.arange(window) - half
    g = np.exp(-(x ** 2) / (2.0 * SSIM_SIGMA ** 2))
    k = np.outer(g, g)
    k /= k.sum()
    k.flags.writeable = False
    return k


def default_ssim_window(grid_side: int) -> int:
    """Largest odd window not exceeding min(7, grid side)."""
    w = min(7, grid_side)
    return w if w % 2 == 1 else w - 1


def ssim(a: Latent, b: Latent, peak: Optional[float] = None) -> float:
    """Gaussian-window SSIM per channel on the g x g token grid, averaged.

    Tokens must form a square grid (L = g^2). The window is the largest odd
    size not exceeding min(7, g), and the SSIM map is cropped to the
    window-valid interior before averaging. Population (divide-by-N) local
    statistics throughout.
    """
    _check_same_shape(a, b)
    g = math.isqrt(a.l)
    if g * g != a.l:
        raise ValueError(f"token count {a.l} is not a square grid")
    if peak is None:
        peak = _default_peak(a)
    if not peak > 0.0:
        raise ValueError(f"peak must be positive, got {peak}")
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    kernel = _gaussian_kernel(default_ssim_window(g))
    # every (batch, channel) plane at once: the kernel's two unit axes keep
    # each correlation inside its plane, and each output sums its window in
    # the same order as a 2-d correlation of the plane alone
    kernel = kernel[None, None]
    filt = lambda img: ndimage.correlate(img, kernel, mode="reflect")
    x = a.data.transpose(0, 2, 1).reshape(a.b, a.c, g, g)
    y = b.data.transpose(0, 2, 1).reshape(a.b, a.c, g, g)
    mu_x = filt(x)
    mu_y = filt(y)
    sxx = filt(x * x) - mu_x * mu_x
    syy = filt(y * y) - mu_y * mu_y
    sxy = filt(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * sxy + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (sxx + syy + c2)
    smap = num / den
    pad = (kernel.shape[-1] - 1) // 2
    if pad > 0:
        smap = smap[..., pad:-pad, pad:-pad]
    # per-plane means, then their mean in (batch, channel) order
    return float(smap.mean(axis=(-2, -1)).ravel().mean())


def velocity_jump_between(field, z: Latent, t: float, cond: Conditioning,
                          cache: KVCache, step: int,
                          ratios_a: Optional[Tuple[float, ...]],
                          ratios_b: Optional[Tuple[float, ...]],
                          mask: Optional[EditMask] = None,
                          global_mix: bool = False) -> float:
    """L2 norm of the velocity change between two injection ratio profiles.

    None means no injection at all. Identical profiles give 0 exactly because
    both evaluations follow the same arithmetic path.
    """
    def run(ratios):
        if ratios is None:
            return field.evaluate(z, t, cond, None)
        hooks = InjectionHooks(mode="inject", cache=cache, step=step,
                               mix_ratios=tuple(ratios), background_mask=mask,
                               global_mix=global_mix)
        return field.evaluate(z, t, cond, hooks)

    va = run(ratios_a)
    vb = run(ratios_b)
    return float(np.linalg.norm(va.data - vb.data))


def velocity_jump(field, z: Latent, t: float, cond: Conditioning, cache: KVCache,
                  step: int, delta: float, mask: Optional[EditMask] = None,
                  global_mix: bool = False) -> float:
    """L2 norm of [velocity with injection at ratio delta] - [plain velocity].

    delta = 0 yields 0 exactly: a zero mixing ratio leaves K/V bitwise
    untouched, so both evaluations coincide.
    """
    ratios = tuple(delta for _ in range(field.layer_count))
    return velocity_jump_between(field, z, t, cond, cache, step, ratios, None,
                                 mask=mask, global_mix=global_mix)
