"""Velocity fields: an analytic linear flow and a seeded toy attention network.

The analytic flow v = a*z + b has a closed-form trajectory and serves as the
integration oracle. The toy network stands in for a full text-to-image
transformer backbone: fixed seeded weights, single-stream attention blocks
over concatenated text + image tokens, and hooks that let a pipeline record
per-layer keys/values during inversion and re-inject them (convex-blended
with the current ones) during sampling. No parameter is ever trained.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

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

    def stacked(self, steps: Optional[int] = None) -> np.ndarray:
        """The recorded blocks in (step, layer) order, only those of the first
        ``steps`` steps if given."""
        keys = sorted(k for k in self._maps if steps is None or k[0] < steps)
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
    keep the first recording. inject: blend the cached source K/V into the
    current ones with kv_mix before attention, at the per-layer LayerMix
    blends that mix_rows made for a stack's rows (mixes), or at one set of
    per-layer ratios with one mask for a single row (mix_ratios,
    background_mask, global_mix), which layer_mixes turns into a one-row
    LayerMix. A step without hooks (None) leaves the cache alone.
    """

    mode: str
    cache: Optional[KVCache] = None
    step: int = 0
    mix_ratios: Optional[Tuple[float, ...]] = None
    background_mask: Optional[EditMask] = None
    global_mix: bool = False
    attn_sink: Optional[AttentionRecord] = None
    mixes: Optional[Tuple["LayerMix", ...]] = None

    def __post_init__(self):
        if self.mode not in HOOK_MODES:
            raise ValueError(f"hook mode must be one of {HOOK_MODES}, got '{self.mode}'")
        if self.cache is None:
            raise ValueError(f"{self.mode} mode requires a cache")
        if self.mode == "inject" and self.mix_ratios is None and self.mixes is None:
            raise ValueError("inject mode requires per-layer mix ratios")

    def layer_mixes(self, layer_count: int, n: int) -> Tuple["LayerMix", ...]:
        """The per-layer blends of an inject step: mixes, or one row made from
        mix_ratios, background_mask and global_mix."""
        if self.mixes is not None:
            return self.mixes
        ratios = [[[self.mix_ratios[layer]] for layer in range(layer_count)]]
        return mix_rows(ratios, [self.background_mask], [self.global_mix], n)[0]


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


class LayerMix:
    """How one layer's K/V mix for a stack of rows, made once by mix_rows.

    weight holds, per row and K/V row, the cached source's share and keep the
    current K/V's (1 - weight). A row either blends by them, takes the source
    whole (ratio 1 on every K/V row), or keeps its current K/V bitwise (ratio
    0, or a mask that leaves no row to mix); runs lists the (first, end,
    whole) row ranges of the first two kinds, and rows of the third are never
    touched. end is the end of the last run: a stack of at least end rows can
    be blended, and its rows from end on are left as they are.
    """

    def __init__(self, weight: np.ndarray, keep: np.ndarray,
                 runs: List[Tuple[int, int, bool]]):
        self.weight = weight  # (rows, 1, n, 1), to broadcast over (rows, B, n, d)
        self.keep = keep
        self.runs = runs
        self.end = runs[-1][1] if runs else 0

    def blend_into(self, src: np.ndarray, cur: np.ndarray, tmp: np.ndarray) -> None:
        """Blend the cached (B, n, d) ``src`` into the stacked (rows * B, n, d)
        ``cur`` in place, with ``tmp`` (cur's shape) for the source term."""
        shape = (-1, *src.shape)
        parts, terms = cur.reshape(shape), tmp.reshape(shape)
        for lo, hi, whole in self.runs:
            part, term = parts[lo:hi], terms[lo:hi]
            if whole:
                part[...] = src
                continue
            np.multiply(src, self.weight[lo:hi], out=term)
            np.multiply(part, self.keep[lo:hi], out=part)
            np.add(term, part, out=part)


def mix_rows(ratios, masks: Sequence[Optional[EditMask]], global_mix: Sequence[bool],
             n: int) -> Tuple[Tuple[LayerMix, ...], ...]:
    """The K/V blends of a stack of rows: for each injection profile (a step),
    one LayerMix per layer.

    ratios is (profiles, layers, rows): each row's per-layer ratio in [0, 1],
    0 where the row does not inject. With global_mix[r] (or no mask) row r
    mixes all n K/V rows at its ratio, and takes the source whole at ratio 1.
    Otherwise its image rows -- the trailing len(mask.soft) rows -- mix at the
    background weight ratio * (1 - soft), leaving edit tokens free, and its
    text rows keep the target features so the target prompt stays in control.
    A row whose weights are all 0 keeps its K/V.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    profiles, layers, rows = ratios.shape
    if len(masks) != rows or len(global_mix) != rows:
        raise ValueError(f"{rows} rows of ratios, {len(masks)} masks, "
                         f"{len(global_mix)} global_mix flags")
    inside = (ratios >= 0.0) & (ratios <= 1.0)
    if not inside.all():
        raise ValueError(f"ratio must lie in [0, 1], got {ratios[~inside][0]}")
    base = np.ones((rows, n))
    whole = np.ones(rows, dtype=bool)
    for r, (mask, flag) in enumerate(zip(masks, global_mix)):
        if flag or mask is None:
            continue
        n_img = mask.soft.size
        if n_img > n:
            raise ValueError(f"mask covers {n_img} rows but K/V have only {n}")
        base[r, :n - n_img] = 0.0
        base[r, n - n_img:] = 1.0 - mask.soft
        whole[r] = False
    weight = ratios[..., None] * base
    keep = 1.0 - weight
    # per row: 0 keeps its K/V, 1 blends, 2 takes the source whole
    kinds = np.where(whole & (ratios == 1.0), 2, weight.any(axis=-1)).tolist()
    weight = weight[:, :, :, None, :, None]
    keep = keep[:, :, :, None, :, None]
    runs_of: Dict[tuple, list] = {}  # most steps and layers share one pattern
    mixes = []
    for p in range(profiles):
        per_layer = []
        for layer in range(layers):
            pattern = tuple(kinds[p][layer])
            runs = runs_of.get(pattern)
            if runs is None:
                runs, lo = runs_of.setdefault(pattern, []), 0
                for kind, group in itertools.groupby(pattern):
                    hi = lo + sum(1 for _ in group)
                    if kind:
                        runs.append((lo, hi, kind == 2))
                    lo = hi
            per_layer.append(LayerMix(weight[p, layer], keep[p, layer], runs))
        mixes.append(tuple(per_layer))
    return tuple(mixes)


def kv_mix(k_src: np.ndarray, v_src: np.ndarray, k_tgt: np.ndarray, v_tgt: np.ndarray,
           mix: LayerMix, scratch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Blend cached source K/V into a stack's current K/V at ``mix`` (see
    mix_rows): ratio*src + (1-ratio)*tgt per row and K/V row.

    k_tgt and v_tgt stack rows of the cached source's B entries each, at
    least mix.end rows, and are blended in place, with ``scratch`` (their
    shape) for the source term; a row that keeps its K/V, and every row from
    mix.end on, is left bitwise as it was.
    """
    b = k_src.shape[0]
    if not (k_src.shape == v_src.shape and k_tgt.shape == v_tgt.shape
            and k_tgt.shape[1:] == k_src.shape[1:]
            and k_tgt.shape[0] % b == 0 and k_tgt.shape[0] >= mix.end * b):
        raise ValueError("K/V shape mismatch between source and target")
    mix.blend_into(k_src, k_tgt, scratch)
    mix.blend_into(v_src, v_tgt, scratch)
    return k_tgt, v_tgt


# Entries a memo keeps, the oldest (prompts) or least recently used (times)
# dropped first. An edit evaluates two prompts, and an integration over the
# largest grid (1000 steps) 2001 distinct times; a prompt's rows can reach
# 2 MB, a time's features are 16 floats. Each ToyAttentionFlow keeps its own
# prompt memo, since the rows come from its token table; the time features
# depend on t alone, so every model in the process shares one memo of them.
PROMPT_MEMO_LIMIT = 16
TIME_MEMO_LIMIT = 4096

# sinusoid frequencies 2^0 .. 2^(TIME_FREQS - 1) in the time embedding
TIME_FREQS = 8


def _memo_put(memo: dict, limit: int, key, value) -> None:
    if len(memo) >= limit:
        memo.pop(next(iter(memo)))
    memo[key] = value


@functools.lru_cache(maxsize=TIME_MEMO_LIMIT)
def _time_features(t: float) -> np.ndarray:
    """Sinusoidal features of t, (2 * TIME_FREQS,), read-only and made once
    per t for every model."""
    angles = math.pi * t * 2.0 ** np.arange(TIME_FREQS)
    feats = np.concatenate([np.sin(angles), np.cos(angles)])
    feats.flags.writeable = False
    return feats


# One core's L2 cache on the reference host. evaluate() runs a head's
# attention over as many stacked batch entries at once as keep their
# (entries, n, n) score block within it, and at least one.
SCORE_BLOCK_BYTES = 2 * 2**20

# evaluate() splits each layer between two lanes, the calling thread and one
# helper thread that the process shares, when one entry's (n, n) score block
# takes at least this many bytes (n >= 210 tokens) and the layer has at least
# two attention units. Below it, on the narrowest heads, a fork-join and the
# threads' turns at the GIL cost more than the second core gives back (see
# README, "Evaluation lanes").
LANE_SCORE_BYTES = 350_000


@functools.lru_cache(maxsize=None)
def evaluation_lanes() -> int:
    """The lanes evaluate() may use in this process: 2 when the process may
    run on at least two CPUs, else 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 else 1


def _block_entries(n: int) -> int:
    """The most entries of n tokens whose scores one lane's block holds."""
    return max(1, SCORE_BLOCK_BYTES // (n * n * 8))


def _size_lanes(n: int) -> int:
    """2 when n tokens are worth two lanes. Each lane then projects at least
    2 of the n token rows: numpy takes a one-row product through gemv, whose
    sums differ from gemm's in the last bit."""
    return 2 if n >= 4 and n * n * 8 >= LANE_SCORE_BYTES else 1


def score_buffer_bytes(n: int) -> int:
    """The most bytes of attention scores and row sums that evaluate() holds
    at once for n tokens, at any batch size: one score block per lane."""
    return _size_lanes(n) * _block_entries(n) * n * (n + 1) * 8


# The interval timers' signals, which samplers and timers handle. Python
# runs a handler on the main thread between two bytecodes, so one that ran
# while the helper computes would share the core with it and time the
# helper's work as its own; the holder of the helper lane keeps them waiting
# until it lets go (_Lane.claim and release).
_TIMER_SIGNALS = {getattr(signal, name) for name in ("SIGALRM", "SIGVTALRM", "SIGPROF")
                  if hasattr(signal, name)} if hasattr(signal, "pthread_sigmask") else set()


class _Lane:
    """The process's helper thread: evaluate()'s second lane. One evaluate()
    at a time holds it (claim and release), and its thread's timer signals
    wait while it does; the holder runs each piece of work on both lanes
    with both(). That wait is best effort: OpenBLAS's worker threads
    (OPENBLAS_NUM_THREADS unset or above 1) do not block the signals, so one
    may take a signal whose handler then runs on the main thread at once;
    bench/run.py pins one BLAS thread, which starts no such workers."""

    def __init__(self):
        self._held = threading.Lock()
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._error = self._mask = None
        threading.Thread(target=self._serve, name="adaedit-lane", daemon=True).start()

    def _serve(self) -> None:
        if hasattr(signal, "pthread_sigmask"):  # signals go to the other threads
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        while True:
            self._go.acquire()
            context, fn, args = self._task
            try:
                context.run(fn, *args)
            except BaseException as exc:
                self._error = exc
            self._done.release()

    def claim(self) -> bool:
        if not self._held.acquire(blocking=False):
            return False
        if _TIMER_SIGNALS:
            self._mask = signal.pthread_sigmask(signal.SIG_BLOCK, _TIMER_SIGNALS)
        return True

    def release(self) -> None:
        if _TIMER_SIGNALS:
            signal.pthread_sigmask(signal.SIG_SETMASK, self._mask)
        self._held.release()

    def both(self, fn, shares: Sequence, *args) -> None:
        """fn(theirs, *args) on the helper thread, in a copy of the caller's
        context (so np.errstate holds there), while fn(mine, *args) runs here,
        for shares (mine, theirs). Returns, or raises this thread's error or
        else the helper's, only once the helper is done: no lane writes later."""
        mine, theirs = shares
        self._task = (contextvars.copy_context(), fn, (theirs, *args))
        self._go.release()
        try:
            fn(mine, *args)
        finally:
            interrupt = None
            while True:
                try:
                    self._done.acquire()
                    break
                except BaseException as exc:  # a signal handler's: wait on first
                    interrupt = exc
            error, self._error, self._task = self._error, None, None
            if interrupt is not None:
                raise interrupt
        if error is not None:
            raise error


_lane: Optional[_Lane] = None
_lane_start = threading.Lock()


def _claim_lane() -> Optional[_Lane]:
    """The process's helper lane, started on first use, or None while
    another thread's evaluate() holds it."""
    global _lane
    if _lane is None:
        with _lane_start:
            if _lane is None:
                _lane = _Lane()
    return _lane if _lane.claim() else None


def _forget_lane() -> None:
    """A forked child has no helper thread: it starts its own when needed."""
    global _lane, _lane_start
    _lane, _lane_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def _serially(fn, shares: Sequence, *args) -> None:
    """fn(share, *args) for each share in turn, on this thread."""
    for share in shares:
        fn(share, *args)


def _use_hooks(hooks: InjectionHooks, layer_idx: int, k: np.ndarray, v: np.ndarray,
               scratch: np.ndarray, mixes: Optional[Tuple[LayerMix, ...]]) -> None:
    """Record mode keeps a layer's K/V (a step's first evaluation does);
    inject mode (mixes given) blends the cached ones into k and v in place."""
    if mixes is None:
        if not hooks.cache.has(hooks.step, layer_idx):
            hooks.cache.put(hooks.step, layer_idx, k, v)
    else:
        k_src, v_src = hooks.cache.get(hooks.step, layer_idx)
        kv_mix(k_src, v_src, k, v, mixes[layer_idx], scratch=scratch)


def _project_rows(part: tuple, w_time: np.ndarray, wo: Optional[np.ndarray],
                  layer: Optional[dict]) -> None:
    """One share of the projections between two layers' attention, for
    the token rows of ``part`` (x, h, q, k, v, attention output,
    projection): h = x @ w_time before the first layer or h += attention
    output @ wo after one, then the next layer's q, k and v. Each row's
    products are the same as in one product over all rows."""
    x, h, q, k, v, attn_out, proj = part
    if wo is None:
        np.matmul(x, w_time, out=h)
    else:
        h += np.matmul(attn_out, wo, out=proj)
    if layer is not None:
        np.matmul(h, layer["wq"], out=q)
        np.matmul(h, layer["wk"], out=k)
        np.matmul(h, layer["wv"], out=v)


def _attend(units: Sequence[tuple], scale: float, record: bool) -> None:
    """softmax(QK^T / sqrt(dh)) V per unit of _Scratch.views, each with its
    own score block: numpy makes one 2-d product per entry with the same
    shapes and strides as a stacked (B, H, n, n) attention, and the row
    reductions work per row, so every entry gets the same bits (the ufunc
    reductions are max and sum without the wrappers' per-call cost)."""
    for qh, kt, vh, out_cols, scores, row, txt, txt_out in units:
        np.matmul(qh, kt, out=scores)
        scores *= scale
        np.maximum.reduce(scores, axis=-1, keepdims=True, out=row)
        scores -= row
        np.exp(scores, out=scores)
        np.add.reduce(scores, axis=-1, keepdims=True, out=row)
        scores /= row
        if record:
            txt_out[...] = txt
        np.matmul(scores, vh, out=out_cols)


class ToyAttentionFlow:
    """Seeded stand-in for a transformer flow backbone.

    Image tokens are projected into the embedding space, concatenated after
    the prompt's embedded text tokens, mixed with a sinusoidal time embedding,
    passed through residual single-stream attention blocks, and projected back
    to channel space as the velocity. All weights come from one Philox stream
    in a fixed draw order, so a seed pins the model.

    A latent may stack several rows (edits) along the batch axis: evaluate()
    then takes one Conditioning per row, and inject hooks may blend each row
    at its own ratios (see mix_rows). No step pools over batch entries, so
    every row's velocity is bitwise the one it gets alone. Each layer's
    attention runs one head at a time over slices of batch entries whose
    score block fits SCORE_BLOCK_BYTES, so the live scores are at most one
    such block rather than (B, heads, n, n). The views each (head, block)
    unit works on are made once per batch size (_Scratch.views), so an
    evaluation slices no array per head.

    One layer loop runs the projections and the attention share by share.
    From LANE_SCORE_BYTES on, with at least two units and two usable CPUs,
    views splits both in two (every other unit, each with a score block of
    its own; the two halves of the token rows), which run on the calling
    thread and the process's one helper thread, or one after the other while
    another thread's evaluate() holds it. Each array comes from the same
    numpy call on the same operands either way, so the outputs are bitwise
    the same. Whatever a hook reads or writes stays on the calling thread.

    Parameters are immutable after construction and evaluate() is pure except
    for cache/sink writes in record mode and its memos of checked prompt
    embeddings and time features (bounded, read-only, keyed by their inputs;
    the time features' memo is shared by every model); a cache belongs to
    exactly one pipeline run, and concurrent runs use separate caches. The
    model also owns the scratch arrays evaluate() writes (one set, sized for
    the largest batch so far), so one model serves one evaluate() at a time
    and concurrent runs use separate models; the helper lane is the
    process's, not the model's. The returned velocity and the recorded K/V
    and attention entries are copies that never alias them.
    """

    time_freqs = TIME_FREQS

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
        self._scale = 1.0 / math.sqrt(d // heads)
        self._prompt_memo: Dict[Tuple[int, ...], np.ndarray] = {}
        self._scratch: Optional[_Scratch] = None

    @classmethod
    def array_bytes(cls, layer_count: int, embed_dim: int, img_tokens: int, text_tokens: int,
                    channels: int, heads: int, vocab_size: int) -> Tuple[int, int]:
        """The bytes of the weights __init__ draws for these dimensions, and
        of the scratch arrays one batch entry adds (_Scratch, but scores)."""
        n, d, t_in = img_tokens + text_tokens, embed_dim, embed_dim + 2 * cls.time_freqs
        weights = d * (vocab_size + 2 * channels + t_in + 4 * layer_count * d)
        entry = n * (t_in + 6 * d) + heads * text_tokens * img_tokens
        return 8 * weights, 8 * entry

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

    def _scratch_for(self, b: int) -> tuple:
        """The evaluate arrays' views for b batch entries (_Scratch.views),
        made again only when b exceeds every batch so far."""
        s = self._scratch
        if s is None or s.b < b:
            s = self._scratch = _Scratch(b, self.text_tokens, self.img_tokens,
                                         self.embed_dim, 2 * self.time_freqs, self.heads)
        return s.views(b)

    def evaluate(self, z: Latent, t: float, cond: Union[Conditioning, Sequence[Conditioning]],
                 hooks: Optional[InjectionHooks] = None) -> Latent:
        """The velocity at (z, t) under ``cond``: one Conditioning, or one per
        row of a stack whose rows split z's batch entries evenly."""
        if z.l != self.img_tokens or z.c != self.channels:
            raise ValueError(
                f"latent shape {z.shape} incompatible with model "
                f"(L={self.img_tokens}, C={self.channels})")
        b, n_txt, d = z.b, self.text_tokens, self.embed_dim
        if isinstance(cond, Conditioning):
            prompts = [cond.prompt_token_ids]
        else:
            prompts = [c.prompt_token_ids for c in cond]
            if not prompts or b % len(prompts):
                raise ValueError(f"{b} batch entries do not split into {len(prompts)} rows")
            if prompts.count(prompts[0]) == len(prompts):
                prompts = prompts[:1]

        # one (B, n, d + 2F) input: text rows, then image rows, then the time
        # features of every token
        x, x_txt, x_img, x_time, h_img, k, v, proj, attn_txt, rows, units = \
            self._scratch_for(b)
        if len(prompts) == 1:
            x_txt[...] = self._prompt_rows(prompts[0])
        else:
            for entries, ids in zip(x.reshape(len(prompts), -1, *x.shape[1:]), prompts):
                entries[:, :n_txt, :d] = self._prompt_rows(ids)
        np.matmul(z.data, self.w_in, out=x_img)
        x_time[...] = _time_features(t)

        record = hooks is not None and hooks.mode == "record"
        sink = hooks.attn_sink if record else None
        mixes = None
        if hooks is not None and not record:
            mixes = hooks.layer_mixes(self.layer_count, x.shape[1])
        # the projections between two attentions, then each attention, share
        # by share on the lanes; what a hook reads or writes runs here
        lane = _claim_lane() if len(units) == 2 else None
        run = _serially if lane is None else lane.both
        try:
            wo = None
            for layer_idx, layer in enumerate(self.layers):
                run(_project_rows, rows, self.w_time, wo, layer)
                if hooks is not None:
                    _use_hooks(hooks, layer_idx, k, v, proj, mixes)
                run(_attend, units, self._scale, sink is not None)
                if sink is not None:
                    sink.put(hooks.step, layer_idx, attn_txt)
                wo = layer["wo"]
            run(_project_rows, rows, self.w_time, wo, None)
        finally:
            if lane is not None:
                lane.release()

        out = h_img @ self.w_out
        if not np.logical_and.reduce(np.isfinite(out), axis=None):
            raise ValueError("latent entries must be finite")
        return Latent._adopt(out)


class _Scratch:
    """The arrays ToyAttentionFlow.evaluate writes for up to b batch
    entries, reused by every later evaluation of at most b, and their views
    per batch size, made once each. Each lane (scores.shape[0]: 1, or 2 when
    b entries may take two) has a score block of its own, holding as many
    entries' (n, n) scores as fit SCORE_BLOCK_BYTES, at least one and at most
    b, and its row sums. The arrays belong to one model, so the helper lane
    works on them only inside that model's evaluate()."""

    def __init__(self, b: int, n_txt: int, n_img: int, d: int, time_dim: int,
                 heads: int):
        n = n_txt + n_img
        self.b = b
        self.n_txt = n_txt
        self.head_dim = d // heads
        # ToyAttentionFlow.array_bytes counts the per-entry arrays
        self.x = np.empty((b, n, d + time_dim))
        self.h = np.empty((b, n, d))
        self.q = np.empty((b, n, d))
        self.k = np.empty((b, n, d))
        self.v = np.empty((b, n, d))
        block = min(b, _block_entries(n))
        two = (_size_lanes(n) == 2 and evaluation_lanes() == 2
               and heads * -(-b // block) >= 2)
        lanes = 2 if two else 1
        self.scores = np.empty((lanes, block, n, n))
        self.row = np.empty((lanes, block, n, 1))
        self.attn_out = np.empty((b, n, d))
        self.proj = np.empty((b, n, d))
        self.attn_txt = np.empty((b, heads, n_txt, n_img))
        self._views: Dict[int, tuple] = {}

    def views(self, b: int) -> tuple:
        """For the first b entries: x and its text, image and time parts, h's
        image rows, k, v, the projection, the text-to-image block, and the
        shares of the token rows (x, h, q, k, v, the attention output and the
        projection at those rows; _project_rows) and of the units (_attend):
        all rows and all units, or, with two lanes and at least two units,
        the two halves of the rows and every other unit. A unit, one per head
        and score block in that order, holds the block's q, k^T and v columns
        of its head, the attention output's columns, its lane's share of the
        score and row arrays, the scores' text-to-image part and its place in
        the text-to-image block: 2-d arrays of one entry for a block of one."""
        got = self._views.get(b)
        if got is None:
            n_txt, dh = self.n_txt, self.head_dim
            lanes, size = self.scores.shape[:2]
            whole = tuple(a[:b] for a in (self.x, self.h, self.q, self.k, self.v,
                                          self.attn_out, self.proj))
            x, h, q, k, v, attn_out, proj = whole
            d = h.shape[-1]
            units = []
            for head in range(self.attn_txt.shape[1]):
                cols = slice(head * dh, (head + 1) * dh)
                for lo in range(0, b, size):
                    m = min(size, b - lo)
                    at = lo if m == 1 else slice(lo, lo + m)
                    lane = len(units) % lanes
                    scores, row = ((self.scores[lane, 0], self.row[lane, 0]) if m == 1 else
                                   (self.scores[lane, :m], self.row[lane, :m]))
                    units.append((q[at, :, cols], np.swapaxes(k[at, :, cols], -1, -2),
                                  v[at, :, cols], attn_out[at, :, cols], scores, row,
                                  scores[..., :n_txt, n_txt:], self.attn_txt[at, head]))
            rows, unit_shares = (whole,), (units,)
            if lanes == 2 and len(units) >= 2:
                half = h.shape[1] // 2
                rows = tuple(tuple(a[:, part] for a in whole)
                             for part in (slice(0, half), slice(half, None)))
                unit_shares = (units[0::2], units[1::2])
            got = self._views[b] = (
                x, x[:, :n_txt, :d], x[:, n_txt:, :d], x[:, :, d:], h[:, n_txt:], k, v,
                proj, self.attn_txt[:b], rows, unit_shares)
        return got


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def extract_mask(attn_record: AttentionRecord, cond: Conditioning,
                 gamma: Optional[float] = None,
                 steps: Optional[int] = None) -> EditMask:
    """Edit mask from recorded keyword-to-image attention.

    The attention the keyword text token pays to each image token is averaged
    over recorded steps (only the first ``steps``, if given), layers, heads and
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
