"""Velocity fields: an analytic linear flow and a seeded toy attention network.

The analytic flow v = a*z + b has a closed-form trajectory and serves as the
integration oracle. The toy network stands in for a full text-to-image
transformer backbone: fixed seeded weights, single-stream attention blocks
over concatenated text + image tokens, and hooks that let a pipeline record
per-layer keys/values during inversion and re-inject them (convex-blended
with the current ones) during sampling. No parameter is ever trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Optional, Tuple

import numpy as np

from .errors import CacheMissError
from .latent import STREAM_MODEL, Latent, SeededRng

HOOK_MODES = ("record", "inject")


@dataclass(frozen=True)
class Conditioning:
    """Prompt token ids plus the index of the keyword steering the edit."""

    prompt_token_ids: Tuple[int, ...]
    keyword_index: int

    def __post_init__(self):
        ids = tuple(int(t) for t in self.prompt_token_ids)
        if len(ids) < 1:
            raise ValueError("prompt must contain at least one token")
        if any(t < 0 for t in ids):
            raise ValueError(f"prompt token ids must be nonnegative, got {ids}")
        if not 0 <= self.keyword_index < len(ids):
            raise ValueError(
                f"keyword_index {self.keyword_index} out of range [0, {len(ids)})")
        object.__setattr__(self, "prompt_token_ids", ids)


class KVCache:
    """Cached attention keys/values keyed by (sampling-step index, layer)."""

    def __init__(self):
        self._entries: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def has(self, step: int, layer: int) -> bool:
        return (step, layer) in self._entries

    def put(self, step: int, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        key = (step, layer)
        if key in self._entries:
            raise ValueError(f"duplicate cache entry for step={step}, layer={layer}")
        k = np.array(k, dtype=np.float64, copy=True)
        v = np.array(v, dtype=np.float64, copy=True)
        k.flags.writeable = False
        v.flags.writeable = False
        self._entries[key] = (k, v)

    def get(self, step: int, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self._entries[(step, layer)]
        except KeyError:
            raise CacheMissError(step, layer) from None


class AttentionRecord:
    """Text-to-image attention blocks recorded during inversion.

    One entry per (step, layer): an array (B, heads, L_txt, L_img) holding the
    attention each text token pays to each image token. Later puts for an
    existing key are ignored so only a step's first evaluation contributes.
    """

    def __init__(self):
        self._maps: Dict[Tuple[int, int], np.ndarray] = {}

    def has(self, step: int, layer: int) -> bool:
        return (step, layer) in self._maps

    def put(self, step: int, layer: int, block: np.ndarray) -> None:
        key = (step, layer)
        if key not in self._maps:
            self._maps[key] = np.array(block, dtype=np.float64, copy=True)

    def stacked(self, steps: Optional[AbstractSet[int]] = None) -> np.ndarray:
        """The recorded blocks in (step, layer) order, only those of ``steps``
        if given."""
        keys = sorted(k for k in self._maps if steps is None or k[0] in steps)
        if not keys:
            raise RuntimeError("no attention maps recorded")
        return np.stack([self._maps[k] for k in keys], axis=0)


@dataclass(frozen=True)
class EditMask:
    """Soft per-image-token edit weights in [0, 1]; hard set = soft >= 0.5."""

    soft: np.ndarray
    hard: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.soft, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"mask must be a 1-d vector, got shape {arr.shape}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("mask weights must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "soft", arr)
        object.__setattr__(self, "hard", tuple(int(i) for i in np.flatnonzero(arr >= 0.5)))


@dataclass
class InjectionHooks:
    """Per-step instructions for the attention K/V interception.

    record: store each layer's K/V (and text-to-image attention when a sink is
    attached) under (step, layer); repeated evaluations within one solver step
    keep the first recording. inject: replace K/V with the kv_mix blend of the
    cached source features before attention. A step without hooks (None)
    leaves the cache alone.
    """

    mode: str
    cache: Optional[KVCache] = None
    step: int = 0
    mix_ratios: Optional[Tuple[float, ...]] = None
    background_mask: Optional[EditMask] = None
    global_mix: bool = False
    attn_sink: Optional[AttentionRecord] = None

    def __post_init__(self):
        if self.mode not in HOOK_MODES:
            raise ValueError(f"hook mode must be one of {HOOK_MODES}, got '{self.mode}'")
        if self.cache is None:
            raise ValueError(f"{self.mode} mode requires a cache")
        if self.mode == "inject" and self.mix_ratios is None:
            raise ValueError("inject mode requires per-layer mix ratios")


@dataclass(frozen=True)
class AnalyticLinearFlow:
    """v(z, t) = decay * z + drift (drift broadcast over tokens); closed form known."""

    decay: float
    drift: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.drift, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"drift must be a length-C vector, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "drift", arr)

    def evaluate(self, z: Latent, t: float, cond=None, hooks=None) -> Latent:
        return Latent(self.decay * z.data + self.drift)

    def closed_form(self, z0: Latent, t0: float, t1: float) -> Latent:
        """Exact solution of dz/dt = a*z + b from t0 to t1."""
        dt = t1 - t0
        if self.decay == 0.0:
            return Latent(z0.data + self.drift * dt)
        g = math.exp(self.decay * dt)
        return Latent(g * z0.data + (self.drift / self.decay) * (g - 1.0))


def kv_mix(k_src: np.ndarray, v_src: np.ndarray, k_tgt: np.ndarray, v_tgt: np.ndarray,
           ratio: float, mask: Optional[EditMask] = None,
           global_mix: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Convex blend ratio*src + (1-ratio)*tgt of cached and current K/V.

    With global_mix (or no mask) the ratio applies to every row. Otherwise the
    image rows -- the trailing len(mask.soft) rows -- are mixed at the
    background weight ratio * (1 - soft), leaving edit tokens free, and text
    rows always keep the target features so the target prompt stays in
    control. Ratio 0 returns the target arrays bitwise.
    """
    if not (k_src.shape == v_src.shape == k_tgt.shape == v_tgt.shape):
        raise ValueError("K/V shape mismatch between source and target")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    if ratio == 0.0:
        return k_tgt, v_tgt
    if global_mix or mask is None:
        if ratio == 1.0:
            return k_src, v_src
        k = ratio * k_src + (1.0 - ratio) * k_tgt
        v = ratio * v_src + (1.0 - ratio) * v_tgt
        return k, v
    n_img = mask.soft.size
    n_rows = k_tgt.shape[-2]
    if n_img > n_rows:
        raise ValueError(f"mask covers {n_img} rows but K/V have only {n_rows}")
    row_ratio = np.zeros(n_rows)
    row_ratio[n_rows - n_img:] = ratio * (1.0 - mask.soft)
    if not row_ratio.any():
        return k_tgt, v_tgt
    r = row_ratio[:, None]
    k = r * k_src + (1.0 - r) * k_tgt
    v = r * v_src + (1.0 - r) * v_tgt
    return k, v


# Entries a ToyAttentionFlow keeps per memo, the oldest dropped first. An edit
# evaluates two prompts, and an integration over the largest grid (1000
# steps) 2001 distinct times; a prompt's rows can reach 2 MB, a time's
# features are 16 floats.
PROMPT_MEMO_LIMIT = 16
TIME_MEMO_LIMIT = 4096


def _memo_put(memo: dict, limit: int, key, value) -> None:
    if len(memo) >= limit:
        memo.pop(next(iter(memo)))
    memo[key] = value


class ToyAttentionFlow:
    """Seeded stand-in for a transformer flow backbone.

    Image tokens are projected into the embedding space, concatenated after
    the prompt's embedded text tokens, mixed with a sinusoidal time embedding,
    passed through residual single-stream attention blocks, and projected back
    to channel space as the velocity. All weights come from one Philox stream
    in a fixed draw order, so a seed pins the model.

    Each layer's attention runs one batch row and head at a time, so the live
    score block is one (n, n) array rather than (B, heads, n, n).

    Parameters are immutable after construction and evaluate() is pure except
    for cache/sink writes in record mode and its memos of checked prompt
    embeddings and time features (bounded, read-only, keyed by their inputs);
    a cache belongs to exactly one pipeline run, and concurrent runs use
    separate caches. The model also owns the scratch arrays evaluate() writes
    (one set, for the last batch size), so one model serves one evaluate() at
    a time and concurrent runs use separate models. The returned velocity and
    the recorded K/V and attention entries are copies that never alias them.
    """

    # sinusoid frequencies 2^0 .. 2^(time_freqs - 1) in the time embedding
    time_freqs = 8

    def __init__(self, seed: int = 0, layer_count: int = 2, embed_dim: int = 32,
                 img_tokens: int = 16, text_tokens: int = 4, channels: int = 8,
                 heads: int = 1, vocab_size: int = 64):
        if min(layer_count, embed_dim, img_tokens, text_tokens,
               channels, heads, vocab_size) < 1:
            raise ValueError("all model dimensions must be positive")
        if embed_dim % heads != 0:
            raise ValueError(f"embed_dim {embed_dim} must be divisible by heads {heads}")
        self.seed = int(seed)
        self.layer_count = layer_count
        self.embed_dim = embed_dim
        self.img_tokens = img_tokens
        self.text_tokens = text_tokens
        self.channels = channels
        self.heads = heads
        self.vocab_size = vocab_size

        rng = SeededRng(seed, stream=STREAM_MODEL)
        d = embed_dim
        # Draw order is part of the model definition; do not reorder.
        self.token_table = rng.standard_normal((vocab_size, d)) / math.sqrt(d)
        self.w_in = rng.standard_normal((channels, d)) / math.sqrt(channels)
        t_in = d + 2 * self.time_freqs
        self.w_time = rng.standard_normal((t_in, d)) / math.sqrt(t_in)
        self.layers = []
        for _ in range(layer_count):
            self.layers.append({
                name: rng.standard_normal((d, d)) / math.sqrt(d)
                for name in ("wq", "wk", "wv", "wo")
            })
        self.w_out = rng.standard_normal((d, channels)) / math.sqrt(d)
        self._prompt_memo: Dict[Tuple[int, ...], np.ndarray] = {}
        self._time_memo: Dict[float, np.ndarray] = {}
        self._scratch: Optional[_Scratch] = None

    def _prompt_rows(self, ids: Tuple[int, ...]) -> np.ndarray:
        """The prompt's embedding rows, (text_tokens, embed_dim), checked and
        looked up once per prompt; a prompt that fails its check is not kept."""
        rows = self._prompt_memo.get(ids)
        if rows is None:
            if len(ids) != self.text_tokens:
                raise ValueError(
                    f"prompt length {len(ids)} != text_tokens {self.text_tokens}")
            if any(tid >= self.vocab_size for tid in ids):
                raise ValueError(f"prompt token id >= vocab_size {self.vocab_size}")
            rows = self.token_table[list(ids)]
            rows.flags.writeable = False
            _memo_put(self._prompt_memo, PROMPT_MEMO_LIMIT, ids, rows)
        return rows

    def _time_features(self, t: float) -> np.ndarray:
        """Sinusoidal features of t, (2 * time_freqs,), made once per t."""
        feats = self._time_memo.get(t)
        if feats is None:
            angles = math.pi * t * 2.0 ** np.arange(self.time_freqs)
            feats = np.concatenate([np.sin(angles), np.cos(angles)])
            feats.flags.writeable = False
            _memo_put(self._time_memo, TIME_MEMO_LIMIT, t, feats)
        return feats

    def _scratch_for(self, b: int) -> _Scratch:
        """The evaluate arrays for batch size b, made again only when b
        changes (a run keeps one batch size)."""
        if self._scratch is None or self._scratch.b != b:
            self._scratch = _Scratch(b, self.text_tokens, self.img_tokens,
                                     self.embed_dim, 2 * self.time_freqs, self.heads)
        return self._scratch

    def evaluate(self, z: Latent, t: float, cond: Conditioning,
                 hooks: Optional[InjectionHooks] = None) -> Latent:
        if z.l != self.img_tokens or z.c != self.channels:
            raise ValueError(
                f"latent shape {z.shape} incompatible with model "
                f"(L={self.img_tokens}, C={self.channels})")
        txt = self._prompt_rows(cond.prompt_token_ids)

        # one (B, n, d + 2F) input: text rows, then image rows, then the time
        # features of every token
        b, n_txt, d = z.b, self.text_tokens, self.embed_dim
        s = self._scratch_for(b)
        x, h, scores, row = s.x, s.h, s.scores, s.row
        x[:, :n_txt, :d] = txt
        np.matmul(z.data, self.w_in, out=x[:, n_txt:, :d])
        x[:, :, d:] = self._time_features(t)
        np.matmul(x, self.w_time, out=h)

        record = hooks is not None and hooks.mode == "record"
        sink = hooks.attn_sink if record else None
        dh = d // self.heads
        head_cols = [slice(i * dh, (i + 1) * dh) for i in range(self.heads)]
        scale = 1.0 / math.sqrt(dh)
        for layer_idx, layer in enumerate(self.layers):
            q = np.matmul(h, layer["wq"], out=s.q)
            k = np.matmul(h, layer["wk"], out=s.k)
            v = np.matmul(h, layer["wv"], out=s.v)
            if record:
                if not hooks.cache.has(hooks.step, layer_idx):
                    hooks.cache.put(hooks.step, layer_idx, k, v)
            elif hooks is not None:
                k_src, v_src = hooks.cache.get(hooks.step, layer_idx)
                k, v = kv_mix(k_src, v_src, k, v, hooks.mix_ratios[layer_idx],
                              hooks.background_mask, hooks.global_mix)
            # one (n, n) softmax(QK^T / sqrt(dh)) V per batch row and head: the
            # same 2-d products and row reductions a stacked (B, H, n, n)
            # attention makes, so the same bits (the ufunc reductions are
            # max and sum without the wrappers' per-call cost)
            for bi in range(b):
                for hi, cols in enumerate(head_cols):
                    np.matmul(q[bi, :, cols], k[bi, :, cols].T, out=scores)
                    scores *= scale
                    np.maximum.reduce(scores, axis=-1, keepdims=True, out=row)
                    scores -= row
                    np.exp(scores, out=scores)
                    np.add.reduce(scores, axis=-1, keepdims=True, out=row)
                    scores /= row
                    if sink is not None:
                        s.attn_txt[bi, hi] = scores[:n_txt, n_txt:]
                    np.matmul(scores, v[bi, :, cols], out=s.attn_out[bi, :, cols])
            if sink is not None:
                sink.put(hooks.step, layer_idx, s.attn_txt)
            h += np.matmul(s.attn_out, layer["wo"], out=s.proj)

        out = h[:, n_txt:, :] @ self.w_out
        if not np.isfinite(out).all():
            raise ValueError("latent entries must be finite")
        return Latent._adopt(out)


class _Scratch:
    """The arrays one ToyAttentionFlow.evaluate writes for batch size b,
    reused by the next evaluation of that size."""

    def __init__(self, b: int, n_txt: int, n_img: int, d: int, time_dim: int,
                 heads: int):
        n = n_txt + n_img
        self.b = b
        self.x = np.empty((b, n, d + time_dim))
        self.h = np.empty((b, n, d))
        self.q = np.empty((b, n, d))
        self.k = np.empty((b, n, d))
        self.v = np.empty((b, n, d))
        self.scores = np.empty((n, n))
        self.row = np.empty((n, 1))
        self.attn_out = np.empty((b, n, d))
        self.proj = np.empty((b, n, d))
        self.attn_txt = np.empty((b, heads, n_txt, n_img))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def extract_mask(attn_record: AttentionRecord, cond: Conditioning,
                 gamma: Optional[float] = None,
                 steps: Optional[AbstractSet[int]] = None) -> EditMask:
    """Edit mask from recorded keyword-to-image attention.

    The attention the keyword text token pays to each image token is averaged
    over recorded steps (only those in ``steps``, if given), layers, heads and
    batch, min-max normalized to [0, 1], and thresholded at its mean. gamma
    sets the sigmoid sharpness of the soft mask; None requests the sharp limit
    (indicator with 0.5 at ties, matching the gamma -> infinity behavior).
    """
    if gamma is not None and not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    blocks = attn_record.stacked(steps)  # (entries, B, heads, L_txt, L_img)
    a = blocks[:, :, :, cond.keyword_index, :].mean(axis=(0, 1, 2))
    spread = a.max() - a.min()
    if spread > 1e-12:
        a = (a - a.min()) / spread
    else:
        a = np.full_like(a, 0.5)
    thresh = a.mean()
    if gamma is None:
        soft = np.where(a > thresh, 1.0, np.where(a < thresh, 0.0, 0.5))
    else:
        soft = _stable_sigmoid(gamma * (a - thresh))
    return EditMask(soft)
