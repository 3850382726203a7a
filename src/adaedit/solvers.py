"""ODE integration of the flow field, forward (sampling) and backward (inversion).

Three schemes:
  euler          one evaluation per step, first order
  midpoint       classic second-order midpoint, two evaluations per step
  reuse_velocity midpoint variant that carries each step's midpoint velocity
                 into the next step's first stage, so only the first step
                 costs two evaluations (T+1 total)

Backward integration runs the same schemes with a negated step over the
mirrored interval sequence, so inversion position i covers the same grid
interval [t_i, t_{i+1}] as sampling step i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import DivergenceError, Spec
from .latent import Latent, frozen

SOLVER_KINDS = ("euler", "midpoint", "reuse_velocity")
KIND = Spec(str, choices=SOLVER_KINDS)
# a step count: of a time grid, and of an injection schedule's steps
STEPS = Spec(int, lo=1)

DIVERGENCE_LIMIT = 1e6

HooksFn = Optional[Callable[[int], object]]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < ... < t_T = 1."""

    times: np.ndarray

    def __post_init__(self):
        arr = frozen(self.times)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"grid needs at least two times, got shape {arr.shape}")
        if arr[0] != 0.0 or arr[-1] != 1.0:
            raise ValueError(f"grid must span exactly [0, 1], got [{arr[0]}, {arr[-1]}]")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", arr)

    @classmethod
    def uniform(cls, steps: int) -> "TimeGrid":
        STEPS.check("steps", steps)
        return cls(np.linspace(0.0, 1.0, steps + 1))

    @property
    def steps(self) -> int:
        return self.times.size - 1


@dataclass
class Trajectory:
    """States in traversal order plus the model-evaluation count."""

    states: List[Latent]
    velocity_evals: int

    @property
    def final(self) -> Latent:
        return self.states[-1]


def _guard(arr: np.ndarray, step: int, phase: str) -> None:
    # one reduction, called on the ufunc to skip np.max's Python-level dispatch:
    # NaN and inf propagate through max and fail the comparison
    peak = np.maximum.reduce(np.abs(arr), axis=None)
    if not peak <= DIVERGENCE_LIMIT:
        # name the first failing batch entry, by its own peak
        peaks = np.abs(arr).reshape(arr.shape[0], -1).max(axis=1)
        entry = int(np.flatnonzero(~(peaks <= DIVERGENCE_LIMIT))[0])
        detail = (f"state norm exceeds {DIVERGENCE_LIMIT:g}" if np.isfinite(peaks[entry])
                  else "non-finite state")
        raise DivergenceError(step, detail, phase, entry=entry)


def _integrate(field, z_start: Latent, grid: TimeGrid, kind: str, cond,
               hooks_fn: HooksFn, forward: bool, phase: str) -> Trajectory:
    KIND.check("kind", kind)
    # Python floats, the same doubles as the grid's: the step arithmetic below
    # then makes no numpy scalar
    times = grid.times.tolist()
    t_count = grid.steps
    order = range(t_count) if forward else range(t_count - 1, -1, -1)
    sign = 1.0 if forward else -1.0

    evals = 0

    def ev(state: Latent, t: float, hooks) -> np.ndarray:
        nonlocal evals
        evals += 1
        return field.evaluate(state, t, cond, hooks).data

    # every later state is guarded when it is made, and the guard is its only
    # check: a fresh, guarded array becomes a Latent without a copy
    _guard(z_start.data, order[0], phase)
    z = z_start
    states = [z]
    carried = None
    for i in order:
        h = times[i + 1] - times[i]
        t_from = times[i] if forward else times[i + 1]
        t_mid = times[i] + 0.5 * h
        hooks = hooks_fn(i) if hooks_fn is not None else None
        if kind == "euler":
            z_next = z.data + sign * h * ev(z, t_from, hooks)
        else:  # midpoint; reuse_velocity carries vm into the next first stage
            v1 = carried if carried is not None else ev(z, t_from, hooks)
            zm = z.data + sign * 0.5 * h * v1
            _guard(zm, i, phase)
            vm = ev(Latent._adopt(zm), t_mid, hooks)
            z_next = z.data + sign * h * vm
            if kind == "reuse_velocity":
                carried = vm
        _guard(z_next, i, phase)
        z = Latent._adopt(z_next)
        states.append(z)

    return Trajectory(states=states, velocity_evals=evals)


def integrate_forward(field, z0: Latent, grid: TimeGrid, kind: str = "euler",
                      cond=None, hooks_fn: HooksFn = None,
                      phase: str = "forward") -> Trajectory:
    """Integrate dz/dt = v from t = 0 to t = 1 starting at z0."""
    return _integrate(field, z0, grid, kind, cond, hooks_fn, forward=True, phase=phase)


def integrate_backward(field, z1: Latent, grid: TimeGrid, kind: str = "euler",
                       cond=None, hooks_fn: HooksFn = None,
                       phase: str = "backward") -> Trajectory:
    """Integrate the reverse ODE from t = 1 down to t = 0 starting at z1."""
    return _integrate(field, z1, grid, kind, cond, hooks_fn, forward=False, phase=phase)
