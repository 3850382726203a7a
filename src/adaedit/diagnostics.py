"""Quantitative diagnostics: velocity jump, PSNR, SSIM.

Latents are not pixel images, so PSNR peaks default to the value range of the
reference latent and SSIM treats the token axis as a g x g grid (a structural
proxy, not pixel SSIM). LPIPS/CLIP-style learned metrics are out of scope;
their CSV columns are emitted empty downstream.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy import ndimage

from .errors import as_index
from .latent import Latent, grid_side
from .models import Conditioning, EditMask, InjectionHooks, KVCache, mix_rows

SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_SIGMA = 1.5


def _default_peak(reference: Latent) -> float:
    peak = float(np.ptp(reference.data))
    if peak <= 0.0:
        raise ValueError("reference latent is constant; pass an explicit peak")
    return peak


def _check_peak(peak: float) -> None:
    real = isinstance(peak, numbers.Real) and not isinstance(peak, bool)
    if not (real and 0.0 < peak < math.inf):  # NaN fails it
        raise ValueError(f"peak must be positive and finite, got {peak!r}")


def _scored_rows(a: Latent, b: Latent, rows: Optional[int]) -> int:
    count = 1 if rows is None else as_index("rows", rows)
    if a.b != 1 or b.shape != (count, a.l, a.c):
        raise ValueError(f"latent shape mismatch: one-entry {a.shape} x {count} vs {b.shape}")
    return count


def psnr(a: Latent, b: Latent, peak: Optional[float] = None,
         rows: Optional[int] = None) -> Union[float, List[float]]:
    """10*log10(peak^2 / MSE) in dB; +inf when the latents match exactly.

    peak defaults to the value range of the one-entry reference latent a,
    which is read only when some MSE is non-zero; an explicit peak must be
    positive and finite. With rows, b stacks that many entries and the
    result is one value per row, each equal to psnr(a, row) bitwise.
    """
    count = _scored_rows(a, b, rows)
    if peak is not None:
        _check_peak(peak)
    # each row's squares reduced along its fast axis alone, as np.mean of
    # the row by itself reduces them
    diff = b.data.reshape(count, -1) - a.data.reshape(1, -1)
    mses = np.mean(diff * diff, axis=1).tolist()
    if peak is None and any(mses):
        peak = _default_peak(a)
    scores = [20.0 * math.log10(peak) - 10.0 * math.log10(mse) if mse else math.inf
              for mse in mses]
    return scores[0] if rows is None else scores


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


def _planes(z: Latent, g: int) -> np.ndarray:
    """z's (entry, channel) planes on the g x g token grid, (B, C, g, g)."""
    return z.data.transpose(0, 2, 1).reshape(z.b, z.c, g, g)


def _filter(planes: np.ndarray) -> np.ndarray:
    # every (entry, channel) plane at once: the kernel's two unit axes keep
    # each correlation inside its plane, and each output sums its window in
    # the same order as a 2-d correlation of the plane alone
    kernel = _gaussian_kernel(default_ssim_window(planes.shape[-1]))[None, None]
    return ndimage.correlate(planes, kernel, mode="reflect")


def ssim(a: Latent, b: Latent, peak: Optional[float] = None,
         rows: Optional[int] = None) -> Union[float, List[float]]:
    """Gaussian-window SSIM per channel on the g x g token grid, averaged.

    Tokens must form a square grid (L = g^2, latent.grid_side). The window
    is the largest odd size not exceeding min(7, g), and the SSIM map is
    cropped to the window-valid interior before averaging. Population
    (divide-by-N) local statistics throughout. a holds one entry; with rows,
    b stacks that many and the result is one value per row, each equal to
    ssim(a, row) bitwise. One correlate call filters a's and the stack's
    planes, their squares and their products; a's broadcast over the rows.
    """
    _scored_rows(a, b, rows)
    g = grid_side("a", a.l)
    y = _planes(b, g)
    if peak is None:
        peak = _default_peak(a)
    _check_peak(peak)
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    x = _planes(a, g)
    # x, y, x^2, y^2 and xy filtered by one call, then split back
    planes = (x, y, x * x, y * y, x * y)
    ends = np.cumsum([len(p) for p in planes])[:-1]
    mu_x, mu_y, xx, yy, xy = np.split(_filter(np.concatenate(planes)), ends)
    sxx = xx - mu_x * mu_x
    syy = yy - mu_y * mu_y
    sxy = xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * sxy + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (sxx + syy + c2)
    smap = num / den
    pad = (default_ssim_window(g) - 1) // 2
    # per-plane means of the window-valid interior, then each row's mean of
    # them in channel order
    scores = smap[..., pad:g - pad, pad:g - pad].mean(axis=(-2, -1)).mean(axis=1)
    return float(scores[0]) if rows is None else [float(v) for v in scores]


def velocity_jump_between(field, z: Latent, t: float, conds: Sequence[Conditioning],
                          cache: KVCache, step: int, mixes_a, mixes_b) -> List[float]:
    """L2 norm of each row's velocity change between two injection profiles.

    z stacks one row per Conditioning in conds, and a profile is the tuple of
    per-layer LayerMix blends that mix_rows made for those rows, or None for
    no injection at all. Identical profiles give 0 exactly because both
    evaluations follow the same arithmetic path.
    """

    def run(mixes):
        hooks = None if mixes is None else InjectionHooks(
            mode="inject", cache=cache, step=step, mixes=mixes)
        return field.evaluate(z, t, conds, hooks)

    diff = run(mixes_a).data - run(mixes_b).data
    # sqrt(row . row) is np.linalg.norm's own formula for a 1-d float vector
    return [math.sqrt(row.dot(row)) for row in diff.reshape(len(conds), -1)]


def velocity_jump(field, z: Latent, t: float, cond: Conditioning, cache: KVCache,
                  step: int, delta: float, mask: Optional[EditMask] = None,
                  global_mix: bool = False) -> float:
    """L2 norm of [velocity with injection at ratio delta] - [plain velocity]
    at the one-entry z.

    delta = 0 yields 0 exactly: a zero mixing ratio leaves K/V bitwise
    untouched, so both evaluations coincide.
    """
    (mixes,) = mix_rows([[[delta]] * field.layer_count], [mask], [global_mix],
                        field.text_tokens + field.img_tokens)
    return velocity_jump_between(field, z, t, [cond], cache, step, mixes, None)[0]
