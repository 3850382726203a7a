"""Plain references for the test suite's bitwise checks, in one module.

Each reference writes one piece of an edit out in straight-line numpy: the
K/V blend, the model's evaluation with all heads stacked, the attention of
one entry and head at a time, PSNR, SSIM plane by plane, and the source
latent channel by channel. The tests
compare the optimized code with them bit for bit, so a change to the
arithmetic they follow edits this module alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from adaedit.diagnostics import SSIM_K1, SSIM_K2, _gaussian_kernel, default_ssim_window
from adaedit.latent import STREAM_SOURCE, SeededRng


def reference_weights(n, ratio, mask=None, global_mix=False):
    """One row's source share per K/V row, (n,): with global_mix (or no
    mask) ratio on every row; otherwise ratio * (1 - soft) on the image rows
    -- the trailing len(mask.soft) rows -- and 0 on the text rows."""
    base = np.ones(n)
    if not (global_mix or mask is None):
        base[:n - mask.soft.size] = 0.0
        base[n - mask.soft.size:] = 1.0 - mask.soft
    return ratio * base


def reference_kv_mix(k_src, v_src, k_tgt, v_tgt, ratio, mask=None, global_mix=False):
    """One row's blend ratio*src + (1-ratio)*tgt, written out plainly at
    reference_weights; with global_mix (or no mask) ratio 1 returns the
    source. All-zero weights return the target arrays themselves. The
    one-entry source broadcasts over the target's entries."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    if (global_mix or mask is None) and ratio == 1.0:
        return np.broadcast_to(k_src, k_tgt.shape), np.broadcast_to(v_src, v_tgt.shape)
    w = reference_weights(k_tgt.shape[-2], ratio, mask, global_mix)[:, None]
    if not w.any():
        return k_tgt, v_tgt
    return w * k_src + (1.0 - w) * k_tgt, w * v_src + (1.0 - w) * v_tgt


def stacked_evaluate(flow, z, t, cond, hooks=None):
    """ToyAttentionFlow.evaluate with all heads stacked as (B, H, n, dh) and
    one (B, H, n, n) score array per layer: the arithmetic that the per-head
    loop must match bit for bit. Record hooks store through the cache's and
    the sink's put, which take one entry."""
    b, n_txt, d = z.b, flow.text_tokens, flow.embed_dim
    x = np.empty((b, n_txt + flow.img_tokens, d + 2 * flow.time_freqs))
    x[:, :n_txt, :d] = flow.token_table[list(cond.prompt_token_ids)]
    x[:, n_txt:, :d] = z.data @ flow.w_in
    angles = math.pi * t * 2.0 ** np.arange(flow.time_freqs)
    x[:, :, d:] = np.concatenate([np.sin(angles), np.cos(angles)])
    h = x @ flow.w_time
    dh = d // flow.heads
    split = lambda a: a.reshape(b, -1, flow.heads, dh).transpose(0, 2, 1, 3)
    scale = 1.0 / math.sqrt(dh)
    for layer_idx, layer in enumerate(flow.layers):
        q, k, v = h @ layer["wq"], h @ layer["wk"], h @ layer["wv"]
        if hooks is not None and hooks.mode == "record":
            if not hooks.cache.has(hooks.step, layer_idx):
                hooks.cache.put(hooks.step, layer_idx, k, v)
        elif hooks is not None:
            k_src, v_src = hooks.cache.get(hooks.step, layer_idx)
            k, v = reference_kv_mix(k_src, v_src, k, v, hooks.mix_ratios[layer_idx],
                                    hooks.background_mask, hooks.global_mix)
        scores = scale * (split(q) @ split(k).transpose(0, 1, 3, 2))
        scores -= scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        if hooks is not None and hooks.mode == "record" and hooks.attn_sink is not None:
            hooks.attn_sink.put(hooks.step, layer_idx, attn[:, :, :n_txt, n_txt:])
        h = h + (attn @ split(v)).transpose(0, 2, 1, 3).reshape(h.shape) @ layer["wo"]
    return h[:, n_txt:] @ flow.w_out


def reference_attend(q, k, v, heads, n_txt):
    """Each entry's and head's softmax(QK^T / sqrt(dh)) V, one 2-d product at
    a time, with each row's max from np.maximum.reduce along the row: the
    attention output and each entry's text-to-image block."""
    b, n, d = q.shape
    dh = d // heads
    out, txt = np.empty((b, n, d)), np.empty((b, heads, n_txt, n - n_txt))
    for e in range(b):
        for head in range(heads):
            cols = slice(head * dh, (head + 1) * dh)
            scores = np.matmul(q[e, :, cols], np.swapaxes(k[e, :, cols], -1, -2))
            scores *= 1.0 / math.sqrt(dh)
            scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= np.add.reduce(scores, axis=-1, keepdims=True)
            out[e, :, cols] = np.matmul(scores, v[e, :, cols])
            txt[e, head] = scores[:n_txt, n_txt:]
    return out, txt


def reference_psnr(a, b, peak):
    """psnr as one full-array mean of the squared difference, per call."""
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse == 0.0:
        return math.inf
    if peak is None:
        peak = float(np.ptp(a.data))
    return 20.0 * math.log10(peak) - 10.0 * math.log10(mse)


def reference_ssim(a, b, peak: float) -> float:
    """SSIM of two one-entry latents one channel plane at a time, five 2-d
    correlations each."""
    g = math.isqrt(a.l)
    kernel = _gaussian_kernel(default_ssim_window(g))
    c1, c2 = (SSIM_K1 * peak) ** 2, (SSIM_K2 * peak) ** 2
    pad = (kernel.shape[0] - 1) // 2
    filt = lambda img: ndimage.correlate(img, kernel, mode="reflect")
    scores = []
    for ci in range(a.c):
        x = a.data[0, :, ci].reshape(g, g)
        y = b.data[0, :, ci].reshape(g, g)
        mu_x, mu_y = filt(x), filt(y)
        sxx = filt(x * x) - mu_x * mu_x
        syy = filt(y * y) - mu_y * mu_y
        sxy = filt(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * sxy + c2)
        den = (mu_x ** 2 + mu_y ** 2 + c1) * (sxx + syy + c2)
        smap = num / den
        if pad > 0:
            smap = smap[pad:-pad, pad:-pad]
        scores.append(float(smap.mean()))
    return float(np.mean(scores))


def reference_source_latent(cfg):
    """The source latent made one channel at a time, drawing each wave's
    scalars just before summing it in."""
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
            plane = plane + amp * np.sin(2.0 * math.pi * (fx * xs + fy * ys) / g + phase)
        arr[0, :, ci] = plane.reshape(-1)
    return arr
