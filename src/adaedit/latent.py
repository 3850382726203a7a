"""Latent tensors, frozen arrays, seeded random streams, and token checks.

A latent is an immutable float64 array of shape B x L x C (batch, tokens,
channels). Its statistics are population statistics (divide by N), the
convention used by instance-normalization style transfer; any standard
deviation used as a divisor receives the EPS_STD guard so constant channels
never divide by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, Spec, as_index

EPS_STD = 1e-8
# a latent or model dimension
DIMENSION = Spec(int, lo=1)
SEED = Spec(int, lo=0, hi=2**64 - 1)

# Purpose-separated substreams derived from one user-facing seed. Each value
# selects an independent Philox stream so noise draws, model parameters and
# synthetic source fields never share a sample sequence.
STREAM_NOISE = 0
STREAM_MODEL = 1
STREAM_SOURCE = 2


def frozen(value) -> np.ndarray:
    """value as a read-only, C-contiguous float64 copy: how value objects hold arrays."""
    arr = np.array(value, dtype=np.float64, order="C", copy=True)
    arr.flags.writeable = False
    return arr


def grid_side(name: str, tokens: int) -> int:
    """The side g of the g x g grid that ``tokens`` image tokens form."""
    g = math.isqrt(tokens)
    if g * g != tokens:
        raise ConfigError(name, f"must be a perfect square, got {tokens}")
    return g


class SeededRng:
    """Counter-based random stream (numpy Philox 4x64, ziggurat normals).

    The same (seed, stream) pair yields the same sample sequence on every
    platform running the same numpy release line; golden tests pin this
    repository's streams. A reimplementation in another language matches only
    if it adopts the same generator.

    Instances are stateful and single-owner: concurrent runs must each build
    their own (e.g. seed = base_seed + run_index), never share one.
    """

    def __init__(self, seed: int, stream: int = STREAM_NOISE):
        self.seed = SEED.check("seed", seed)
        self.stream = SEED.check("stream", stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape, dtype=np.float64)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        return self._gen.integers(low, high, shape)


@dataclass(frozen=True, eq=False)
class Latent:
    """Immutable B x L x C tensor. Entries must be finite."""

    data: np.ndarray

    def __post_init__(self):
        arr = frozen(self.data)
        if arr.ndim != 3:
            raise ValueError(f"latent must have shape (B, L, C), got {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"latent dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("latent entries must be finite")
        object.__setattr__(self, "data", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Latent":
        """Wrap ``arr`` without a copy or a check and mark it read-only.

        Only for a fresh C-contiguous float64 (B, L, C) array that the caller
        made, checked finite, and holds no other reference to: the solver's
        guarded states and the toy model's checked outputs, or a run of
        batch entries of such a read-only state. Everything else goes
        through the constructor, which copies and checks.
        """
        z = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(z, "data", arr)
        return z

    @property
    def b(self) -> int:
        return self.data.shape[0]

    @property
    def l(self) -> int:
        return self.data.shape[1]

    @property
    def c(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple:
        return self.data.shape


def sample_gaussian(rng: SeededRng, b: int, l: int, c: int) -> Latent:
    """Draw an i.i.d. standard-normal latent from the seeded stream."""
    for name, dim in (("b", b), ("l", l), ("c", c)):
        DIMENSION.check(name, dim)
    return Latent(rng.standard_normal((b, l, c)))


def resolve_tokens(tokens: Iterable[int], l: int) -> np.ndarray:
    """Validate a token index set against length l; returns sorted unique
    indices. Each index is a Python or numpy integer (errors.as_index)."""
    idx = np.unique(np.array([as_index("token index in tokens", t) for t in tokens],
                             dtype=np.int64))
    if idx.size == 0:
        raise ValueError("empty token selection")
    if idx.min() < 0 or idx.max() >= l:
        bad = idx[(idx < 0) | (idx >= l)][0]
        raise IndexError(f"token index {bad} out of range [0, {l})")
    return idx
