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
import math
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CacheMissError, ConfigError, Spec, hold, knob
from .latent import DIMENSION, STREAM_MODEL, Latent, SeededRng, frozen

HOOK_MODES = ("record", "inject")

# A prompt's token ids and its keyword's index. The rules that span them and
# the model's dimensions are the check_* functions below; like Spec.check,
# each names the config field or argument it reports.
PROMPT_IDS = Spec(tuple, lo=0)
KEYWORD = Spec(int, lo=0)


def check_heads(embed_dim: int, heads: int) -> None:
    if embed_dim % heads != 0:
        raise ConfigError("heads", f"embed_dim {embed_dim} not divisible by {heads}")


def check_prompt(name: str, ids: Sequence[int], text_tokens: int, vocab_size: int) -> None:
    """A model embeds text_tokens ids, each below its vocab_size."""
    if len(ids) != text_tokens:
        raise ConfigError(name, f"length {len(ids)} != text_tokens {text_tokens}")
    if max(ids) >= vocab_size:
        raise ConfigError(name, f"token ids must lie in [0, {vocab_size}), got {max(ids)}")


def check_keyword(name: str, index: int, length: int) -> None:
    if index >= length:
        raise ConfigError(name, f"must lie below the prompt length {length}, got {index}")


@dataclass(frozen=True)
class Conditioning:
    """Prompt token ids (PROMPT_IDS, a list held as a tuple) plus the index of
    the keyword steering the edit (KEYWORD), below their count (check_keyword);
    each field holds what its Spec's check returns (errors.hold)."""

    prompt_token_ids: Tuple[int, ...] = knob(PROMPT_IDS)
    keyword_index: int = knob(KEYWORD)

    def __post_init__(self):
        hold(self)
        check_keyword("keyword_index", self.keyword_index, len(self.prompt_token_ids))


def _check_recorded(entries: int) -> None:
    if entries != 1:
        raise ValueError(f"record mode takes one latent entry, got {entries}")


class KVCache:
    """One latent entry's attention keys/values, keyed by (sampling-step index, layer)."""

    def __init__(self):
        self._entries: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def has(self, step: int, layer: int) -> bool:
        return (step, layer) in self._entries

    def put(self, step: int, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        _check_recorded(max(len(k), len(v)))
        key = (step, layer)
        if key in self._entries:
            raise ValueError(f"duplicate cache entry for step={step}, layer={layer}")
        self._entries[key] = (frozen(k), frozen(v))

    def get(self, step: int, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self._entries[(step, layer)]
        except KeyError:
            raise CacheMissError(step, layer) from None


class AttentionRecord:
    """Text-to-image attention blocks recorded during inversion.

    One block per (step, layer): one latent entry's attention from each text
    token to each image token, put as (1, heads, L_txt, L_img) and kept as
    (heads, L_txt, L_img). Later puts for an existing key are ignored so only
    a step's first evaluation contributes.
    """

    def __init__(self):
        self._maps: Dict[Tuple[int, int], np.ndarray] = {}

    def has(self, step: int, layer: int) -> bool:
        return (step, layer) in self._maps

    def put(self, step: int, layer: int, block: np.ndarray) -> None:
        _check_recorded(len(block))
        if not self.has(step, layer):
            self._maps[step, layer] = frozen(block[0])

    def stacked(self, steps: Optional[int] = None, token: Optional[int] = None) -> np.ndarray:
        """The recorded blocks in (step, layer) order, only those of the first
        ``steps`` steps if given: (steps x layers, heads, L_txt, L_img), or
        with ``token`` only that text token's rows, (steps x layers, heads,
        L_img)."""
        keys = sorted(k for k in self._maps if steps is None or k[0] < steps)
        if not keys:
            raise RuntimeError("no attention maps recorded")
        rows = slice(None) if token is None else token
        return np.stack([self._maps[k][:, rows] for k in keys], axis=0)


@dataclass(frozen=True)
class EditMask:
    """Soft per-image-token edit weights in [0, 1]; hard set = soft >= 0.5."""

    soft: np.ndarray
    hard: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        arr = frozen(self.soft)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"mask must be a 1-d vector, got shape {arr.shape}")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both
            raise ValueError("mask weights must lie in [0, 1]")
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
    per-layer ratios with one mask for every entry (mix_ratios,
    background_mask, global_mix), which layer_mixes turns into one LayerMix
    row per entry. A step without hooks (None) leaves the cache alone.
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
        given = [name for name in ("mix_ratios", "mixes") if getattr(self, name) is not None]
        if self.mode == "record" and given:
            raise ValueError(f"record mode takes no {' or '.join(given)}")
        if self.mode == "inject":
            if self.attn_sink is not None:
                raise ValueError("inject mode takes no attn_sink: only record mode records")
            if not given:
                raise ValueError("inject mode requires per-layer mix ratios")
            if len(given) == 2:
                raise ValueError("inject mode takes mix_ratios or mixes, not both")

    def layer_mixes(self, layer_count: int, n: int, entries: int) -> Tuple["LayerMix", ...]:
        """The per-layer blends of an inject step for a model of layer_count
        layers: mixes, or one identical row per entry made from mix_ratios,
        background_mask and global_mix; either holds one item per layer."""
        name, per_layer = (("mix_ratios", self.mix_ratios) if self.mixes is None
                           else ("mixes", self.mixes))
        if len(per_layer) != layer_count:
            raise ValueError(f"{name} holds {len(per_layer)} layers, the model {layer_count}")
        if self.mixes is not None:
            return self.mixes
        ratios = [[[self.mix_ratios[layer]] * entries for layer in range(layer_count)]]
        return mix_rows(ratios, [self.background_mask] * entries,
                        [self.global_mix] * entries, n)[0]


@dataclass(frozen=True)
class AnalyticLinearFlow:
    """v(z, t) = decay * z + drift (drift broadcast over tokens); closed form known."""

    decay: float
    drift: np.ndarray

    def __post_init__(self):
        arr = frozen(self.drift)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"drift must be a length-C vector, got shape {arr.shape}")
        object.__setattr__(self, "drift", arr)

    def _check_channels(self, z: Latent) -> None:
        if self.drift.size != z.c:
            raise ValueError(f"drift has {self.drift.size} channels, the latent {z.c}")

    def evaluate(self, z: Latent, t: float, cond=None, hooks=None) -> Latent:
        self._check_channels(z)
        return Latent(self.decay * z.data + self.drift)

    def closed_form(self, z0: Latent, t0: float, t1: float) -> Latent:
        """Exact solution of dz/dt = a*z + b from t0 to t1."""
        self._check_channels(z0)
        dt = t1 - t0
        if self.decay == 0.0:
            return Latent(z0.data + self.drift * dt)
        g = math.exp(self.decay * dt)
        return Latent(g * z0.data + (self.drift / self.decay) * (g - 1.0))


# How a LayerMix run blends its rows (mix_rows)
BLEND, WHOLE = range(2)


class LayerMix:
    """How one layer's K/V mix for a stack of rows, one latent entry each,
    made once by mix_rows.

    weight holds, per row and K/V row, the cached source's share and keep the
    current K/V's (1 - weight). A row either blends by them, takes the source
    whole (ratio 1 on every K/V row), or keeps its current K/V bitwise (ratio
    0, or a mask that leaves no row to mix); runs lists the (first, end, how)
    row ranges of the first two kinds, and rows of the third are never
    touched. A run is the maximal block of consecutive rows with one weight
    row: a WHOLE run takes the source, and a BLEND run makes its source term
    once and adds it to each of its rows. end is the end of the last run: a
    stack of at least end rows can be blended, and its rows from end on are
    left as they are.
    """

    def __init__(self, weight: np.ndarray, keep: np.ndarray,
                 runs: Tuple[Tuple[int, int, int], ...]):
        # weight and keep are (rows, n, 1); each run keeps its rows and its
        # first row's (1, n, 1) weight and keep, to broadcast over (rows, n, d)
        self.runs = runs
        self.end = runs[-1][1] if runs else 0
        self._slices = [(slice(lo, hi), how, weight[lo:lo + 1], keep[lo:lo + 1])
                        for lo, hi, how in runs]

    def blend_into(self, src: np.ndarray, cur: np.ndarray, tmp: np.ndarray) -> None:
        """Blend the cached (1, n, d) ``src`` into the stacked (rows, n, d)
        ``cur`` in place, with ``tmp`` (cur's shape) for each run's source
        term. Each term is added as part + term: IEEE addition commutes, so
        each row keeps the bits of its own term + part."""
        for rows, how, weight, keep in self._slices:
            part = cur[rows]
            if how == WHOLE:
                part[...] = src
            else:
                term = tmp[:1]
                np.multiply(src, weight, out=term)
                part *= keep
                part += term


@functools.lru_cache(maxsize=1024)  # most steps and layers share one pattern
def _runs(kinds: Tuple[int, ...]) -> Tuple[Tuple[int, int, int], ...]:
    """The LayerMix runs of one layer's row kinds (mix_rows) in one pass: a
    row of kind 3 extends the run before it, one of kind 1 or 2 starts a
    BLEND or a WHOLE run, and one of kind 0 keeps its K/V."""
    runs = []
    for r, kind in enumerate(kinds):
        if kind == 3:
            runs[-1] = (runs[-1][0], r + 1, runs[-1][2])
        elif kind:
            runs.append((r, r + 1, WHOLE if kind == 2 else BLEND))
    return tuple(runs)


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

    A run is the maximal block of consecutive mixing rows of one ratio on
    one base row (the same plan, mask and global_mix), and so of one weight
    row bit for bit: its source term is made once and added to each of its
    rows.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    _, _, rows = ratios.shape
    if len(masks) != rows or len(global_mix) != rows:
        raise ValueError(f"{rows} rows of ratios, {len(masks)} masks, "
                         f"{len(global_mix)} global_mix flags")
    inside = (ratios >= 0.0) & (ratios <= 1.0)
    if not inside.all():
        raise ValueError(f"ratio must lie in [0, 1], got {ratios[~inside][0]}")
    # one base row per distinct mask object, after one of ones (index 0)
    # for the rows that mix every K/V row; each row indexes its own
    bases, index, made = [np.ones(n)], [], {}
    for mask, flag in zip(masks, global_mix):
        if flag or mask is None:
            index.append(0)
            continue
        at = made.get(id(mask))
        if at is None:
            n_img = mask.soft.size
            if n_img > n:
                raise ValueError(f"mask covers {n_img} rows but K/V have only {n}")
            masked = np.zeros(n)
            masked[n - n_img:] = 1.0 - mask.soft
            at = made[id(mask)] = len(bases)
            bases.append(masked)
        index.append(at)
    index = np.array(index, dtype=np.intp)
    base = np.array(bases)[index]
    whole = index == 0
    weight = ratios[..., None] * base
    keep = 1.0 - weight
    # per row: 0 keeps its K/V, 1 blends, 2 takes the source whole, 3 mixes
    # by the weight row of the mixing row before it
    kinds = np.where(whole & (ratios == 1.0), 2, weight.any(axis=-1))
    same = (ratios[..., 1:] == ratios[..., :-1]) & (index[1:] == index[:-1])
    kinds[..., 1:][same & (kinds[..., :-1] > 0)] = 3
    weight, keep = weight[..., None], keep[..., None]
    return tuple(tuple(LayerMix(weight[p, layer], keep[p, layer], _runs(tuple(pattern)))
                       for layer, pattern in enumerate(per_layer))
                 for p, per_layer in enumerate(kinds.tolist()))


def kv_mix(k_src: np.ndarray, v_src: np.ndarray, k_tgt: np.ndarray, v_tgt: np.ndarray,
           mix: LayerMix, scratch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Blend cached source K/V into a stack's current K/V at ``mix`` (see
    mix_rows): ratio*src + (1-ratio)*tgt per row and K/V row.

    The cached source holds one entry, (1, n, d). k_tgt and v_tgt stack one
    entry per row, at least mix.end rows, and are blended in place, with
    ``scratch`` (their shape) for the source term; a row that keeps its K/V,
    and every row from mix.end on, is left bitwise as it was.
    """
    if not (k_src.shape == v_src.shape == (1, *k_tgt.shape[1:])
            and k_tgt.shape == v_tgt.shape and k_tgt.shape[0] >= mix.end):
        raise ValueError(f"K/V shape mismatch: one-entry source {k_src.shape}, "
                         f"target {k_tgt.shape}")
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

# _Scratch splits each layer's work into two shares, one per lane, when one
# entry's (n, n) score block takes at least this many bytes (n >= 210
# tokens); on two CPUs the second share runs on a helper thread that the
# process shares. Below it, on the narrowest heads, a fork-join and the
# threads' turns at the GIL cost more than the second core gives back (see
# README, "Evaluation lanes").
LANE_SCORE_BYTES = 350_000


@functools.lru_cache(maxsize=None)
def evaluation_lanes() -> int:
    """2 when the process may run on at least two CPUs, else 1: who runs a
    split layer's second share (the helper thread, or the calling thread)."""
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
            try:
                # no name here keeps the task, and so a view of a model's
                # arrays, alive past it: both() drops it once the helper is done
                self._task()
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
        self._task = functools.partial(contextvars.copy_context().run, fn, theirs, *args)
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
    projection, and the product function for them; _Scratch.views): h =
    x @ w_time before the first layer or h += attention output @ wo after
    one, then the next layer's q, k and v. Each row's products are the same
    as in one product over all rows."""
    x, h, q, k, v, attn_out, proj, dot = part
    if wo is None:
        dot(x, w_time, out=h)
    else:
        h += dot(attn_out, wo, out=proj)
    if layer is not None:
        dot(h, layer["wq"], out=q)
        dot(h, layer["wk"], out=k)
        dot(h, layer["wv"], out=v)


def _attend(units: Sequence[tuple], scale: float, record: bool) -> None:
    """softmax(QK^T / sqrt(dh)) V per unit of _Scratch.views, each with its
    own score block: numpy makes one 2-d product per entry with the same
    shapes and strides as a stacked (B, H, n, n) attention, and the row
    reductions work per row, so every entry gets the same bits (the ufunc
    reductions are max and sum without the wrappers' per-call cost). Each
    row's max is one segment of a maximum.reduceat over the flat block, a
    third to a half of maximum.reduce's time along the last axis: a max is
    exact in any order, and the one bit order may change, the sign of a
    zero max, leaves exp(s - max) as it is (s - (+-0) is s for s != 0, and
    exp(+-0) is 1). AV takes the unit's product function (_Scratch.views);
    QK^T stays on np.matmul, since np.dot first copies the strided q and K
    columns of one of several heads, and the product then differs in the
    last bit."""
    for (qh, kt, vh, out_cols, scores, row, flat_scores, starts, flat_row,
         txt, txt_out, av) in units:
        np.matmul(qh, kt, out=scores)
        scores *= scale
        np.maximum.reduceat(flat_scores, starts, out=flat_row)
        scores -= row
        np.exp(scores, out=scores)
        np.add.reduce(scores, axis=-1, keepdims=True, out=row)
        scores /= row
        if record:
            txt_out[...] = txt
        av(scores, vh, out=out_cols)


class ToyAttentionFlow:
    """Seeded stand-in for a transformer flow backbone.

    Image tokens are projected into the embedding space, concatenated after
    the prompt's embedded text tokens, mixed with a sinusoidal time embedding,
    passed through residual single-stream attention blocks, and projected back
    to channel space as the velocity. All weights come from one Philox stream
    in a fixed draw order, so a seed pins the model. The dimensions, and each
    prompt when first embedded, meet the rules EditConfig checks (DIMENSION,
    check_heads, check_prompt), else a ConfigError names the argument.

    A latent may stack several rows (edits), one entry each, along the batch
    axis: evaluate() then takes one Conditioning for all of them or one per
    row, and inject hooks may blend each row at its own ratios (see
    mix_rows); record hooks refuse a stack, before they store anything. No
    step pools over batch entries, so every row's velocity is bitwise the
    one it gets alone. Each layer's attention runs one head at a time over
    slices of batch entries whose score block fits SCORE_BLOCK_BYTES, so the
    live scores are at most one such block rather than (B, heads, n, n). The
    views each (head, block) unit works on are made once per batch size
    (_Scratch.views), so an evaluation slices no array per head.

    One layer loop runs the projections and the attention share by share.
    From LANE_SCORE_BYTES on, views splits both in two by n alone (the two
    halves of the token rows; every other unit, each with a score block of
    its own). The process's one helper thread runs the second share on two
    CPUs while it is free, else the calling thread does after the first.
    Each array comes from the same numpy call on the same operands either
    way, so the outputs are bitwise the same on any CPU count and at any
    stack size. Whatever a hook reads or writes stays on the calling thread.

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
        dims = dict(layer_count=layer_count, embed_dim=embed_dim, img_tokens=img_tokens,
                    text_tokens=text_tokens, channels=channels, heads=heads,
                    vocab_size=vocab_size)
        for name, value in dims.items():
            setattr(self, name, DIMENSION.check(name, value))
        check_heads(embed_dim, heads)

        rng = SeededRng(seed, stream=STREAM_MODEL)
        self.seed = rng.seed
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
                    channels: int, heads: int, vocab_size: int) -> Tuple[int, int, int]:
        """The bytes of the weights __init__ draws for these dimensions; of the
        scratch evaluate() holds at any stack size (_Scratch): each lane's
        score block and row sums, at their most entries, and the one
        text-to-image block; and of the scratch each stacked entry adds."""
        n, d, t_in = img_tokens + text_tokens, embed_dim, embed_dim + 2 * cls.time_freqs
        weights = d * (vocab_size + 2 * channels + t_in + 4 * layer_count * d)
        scores = _size_lanes(n) * _block_entries(n) * n * (n + 1)
        return (8 * weights, 8 * (scores + heads * text_tokens * img_tokens),
                8 * n * (t_in + 6 * d))

    def _prompt_rows(self, ids: Tuple[int, ...]) -> np.ndarray:
        """The prompt's embedding rows, (text_tokens, embed_dim), checked and
        looked up once per prompt; a prompt that fails its check is not kept."""
        rows = self._prompt_memo.get(ids)
        if rows is None:
            check_prompt("prompt", ids, self.text_tokens, self.vocab_size)
            rows = self.token_table[list(ids)]
            rows.flags.writeable = False
            _memo_put(self._prompt_memo, PROMPT_MEMO_LIMIT, ids, rows)
        return rows

    def _scratch_for(self, b: int) -> tuple:
        """The evaluate arrays' views for b batch entries (_Scratch.views),
        made again only when b exceeds every batch so far."""
        if self._scratch is None or self._scratch.b < b:
            self._scratch = None  # the smaller set goes before the larger is made
            self._scratch = _Scratch(b, self.text_tokens, self.img_tokens,
                                     self.embed_dim, 2 * self.time_freqs, self.heads)
        return self._scratch.views(b)

    def evaluate(self, z: Latent, t: float, cond: Union[Conditioning, Sequence[Conditioning]],
                 hooks: Optional[InjectionHooks] = None) -> Latent:
        """The velocity at (z, t) under ``cond``: one Conditioning for every
        entry of z, or one per entry."""
        if z.l != self.img_tokens or z.c != self.channels:
            raise ValueError(
                f"latent shape {z.shape} incompatible with model "
                f"(L={self.img_tokens}, C={self.channels})")
        b = z.b
        sink = mixes = None
        if hooks is not None and hooks.mode == "record":
            _check_recorded(b)
            sink = hooks.attn_sink
        elif hooks is not None:
            mixes = hooks.layer_mixes(self.layer_count, self.text_tokens + self.img_tokens, b)
        if isinstance(cond, Conditioning):
            prompts = [cond.prompt_token_ids]
        else:
            prompts = [c.prompt_token_ids for c in cond]
            if len(prompts) != b:
                raise ValueError(
                    f"{b} latent entries take one Conditioning each, got {len(prompts)}")
            if prompts.count(prompts[0]) == b:
                prompts = prompts[:1]

        # one (B, n, d + 2F) input: text rows, then image rows, then the time
        # features of every token
        x, x_txt, x_img, x_time, h_img, dot, k, v, proj, attn_txt, rows, units = \
            self._scratch_for(b)
        if len(prompts) == 1:
            x_txt[...] = self._prompt_rows(prompts[0])
        else:
            for entry, ids in zip(x_txt, prompts):
                entry[...] = self._prompt_rows(ids)
        np.matmul(z.data, self.w_in, out=x_img)
        x_time[...] = _time_features(t)

        # the projections between two attentions, then each attention, share
        # by share: on both lanes with two CPUs and the helper free, else in
        # turn here; what a hook reads or writes runs here
        lane = _claim_lane() if len(units) == 2 and evaluation_lanes() == 2 else None
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

        out = dot(h_img, self.w_out).reshape(z.data.shape)
        if not np.logical_and.reduce(np.isfinite(out), axis=None):
            raise ValueError("latent entries must be finite")
        return Latent._adopt(out)


class _Scratch:
    """The arrays ToyAttentionFlow.evaluate writes for up to b batch
    entries, reused by every later evaluation of at most b, and their views
    per batch size, made once each. Each lane (scores.shape[0]: _size_lanes(n),
    whatever b and the CPU count) has a score block of its own, holding as
    many entries' (n, n) scores as fit SCORE_BLOCK_BYTES, at least one and
    at most b, and its row sums; attn_txt holds the one entry recorded. The
    arrays belong to one model, so the helper lane works on them only inside
    that model's evaluate()."""

    def __init__(self, b: int, n_txt: int, n_img: int, d: int, time_dim: int,
                 heads: int):
        n = n_txt + n_img
        self.b = b
        self.n_txt = n_txt
        self.head_dim = d // heads
        # ToyAttentionFlow.array_bytes counts these arrays
        self.x = np.empty((b, n, d + time_dim))
        self.h = np.empty((b, n, d))
        self.q = np.empty((b, n, d))
        self.k = np.empty((b, n, d))
        self.v = np.empty((b, n, d))
        block = min(b, _block_entries(n))
        lanes = _size_lanes(n)
        self.scores = np.empty((lanes, block, n, n))
        self.row = np.empty((lanes, block, n, 1))
        self.attn_out = np.empty((b, n, d))
        self.proj = np.empty((b, n, d))
        self.attn_txt = np.empty((1, heads, n_txt, n_img))
        self._views: Dict[int, tuple] = {}

    def views(self, b: int) -> tuple:
        """For the first b entries: x and its text, image and time parts, h's
        image rows and the product function for them, k, v, the projection,
        attn_txt, and the shares of the token rows (x, h, q,
        k, v, the attention output and the projection at those rows, and
        their product function; _project_rows) and of the units (_attend):
        all rows and all units, or from LANE_SCORE_BYTES on, at every b, the
        two halves of the rows and every other unit (none for one head and
        one block). A unit, one per head and score block in that order, holds
        the block's q, k^T and v columns of its head, the attention output's
        columns, its lane's share of the score and row arrays, the scores'
        text-to-image part, its head's block of attn_txt (which only one
        entry writes) and the AV product function: 2-d arrays of one entry
        for a block of one. The unit also carries flat views of its score and
        row blocks and the start of each score row in the flat scores
        (_attend's row max).

        For one entry (b == 1) the token rows and h's image rows are 2-d
        too. On one lane their products, and AV of a single head (whose
        columns are whole), then go through np.dot, which calls gemm
        directly and skips np.matmul's ufunc dispatch, ~0.6 us a product at
        the default size. Everything else stays on np.matmul: QK^T
        (_attend), the write of the image rows into x (its output rows are
        strided), a stack's 3-d products (one small gemm per entry; one
        folded product was 35-60% slower), the column slices of several
        heads, and the two-lane row halves, whose outputs are large enough
        that np.dot's zero fill of its output costs more than the dispatch
        saves (see README). Both functions run the same gemm on the same
        operands, so every output keeps its bits."""
        got = self._views.get(b)
        if got is None:
            n_txt, dh = self.n_txt, self.head_dim
            lanes, size = self.scores.shape[:2]
            whole = tuple(a[:b] for a in (self.x, self.h, self.q, self.k, self.v,
                                          self.attn_out, self.proj))
            x, h, q, k, v, attn_out, proj = whole
            flat = tuple(a[0] for a in whole) if b == 1 else whole
            av = np.dot if b == 1 and self.attn_txt.shape[1] == 1 else np.matmul
            d = h.shape[-1]
            n = self.scores.shape[-1]
            starts = np.arange(0, size * n * n, n)  # each score row's, in a full block
            units = []
            for head in range(self.attn_txt.shape[1]):
                cols = slice(head * dh, (head + 1) * dh)
                for lo in range(0, b, size):
                    m = min(size, b - lo)
                    at = lo if m == 1 else slice(lo, lo + m)
                    lane = len(units) % lanes
                    scores, row = ((self.scores[lane, 0], self.row[lane, 0]) if m == 1 else
                                   (self.scores[lane, :m], self.row[lane, :m]))
                    flat_scores, flat_row = scores.reshape(-1), row.reshape(-1)
                    assert (np.shares_memory(flat_scores, scores)
                            and np.shares_memory(flat_row, row))
                    units.append((q[at, :, cols], np.swapaxes(k[at, :, cols], -1, -2),
                                  v[at, :, cols], attn_out[at, :, cols], scores, row,
                                  flat_scores, starts[:m * n], flat_row,
                                  scores[..., :n_txt, n_txt:], self.attn_txt[0, head], av))
            shares, unit_shares = (flat,), (units,)
            if lanes == 2:
                half = h.shape[1] // 2
                shares = tuple(tuple(a[..., part, :] for a in flat)
                               for part in (slice(0, half), slice(half, None)))
                unit_shares = (units[0::2], units[1::2])
            dot = np.dot if b == 1 and lanes == 1 else np.matmul
            rows = tuple((*share, dot) for share in shares)
            got = self._views[b] = (
                x, x[:, :n_txt, :d], x[:, n_txt:, :d], x[:, :, d:], flat[1][..., n_txt:, :], dot,
                k, v, proj, self.attn_txt, rows, unit_shares)
        return got


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# the soft mask's sigmoid sharpness; None asks for the sharp mask
GAMMA = Spec(float, lo=0.0, lo_open=True, optional=True)


def extract_mask(attn_record: AttentionRecord, cond: Conditioning,
                 gamma: Optional[float] = None,
                 steps: Optional[int] = None) -> EditMask:
    """Edit mask from recorded keyword-to-image attention.

    The attention the keyword text token pays to each image token is averaged
    over recorded steps (only the first ``steps``, if given), layers and
    heads, min-max normalized to [0, 1], and thresholded at its mean. gamma
    sets the sigmoid sharpness of the soft mask; None requests the sharp
    limit (indicator with 0.5 at ties, matching the gamma -> infinity).
    """
    GAMMA.check("gamma", gamma)
    a = attn_record.stacked(steps, cond.keyword_index).mean(axis=(0, 1))
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
