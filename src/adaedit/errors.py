"""Exception types shared across the package.

Only failures that callers need to tell apart get their own class; everything
else raises the stdlib ValueError/IndexError with a descriptive message.
"""

from __future__ import annotations

from typing import Optional


class ConfigError(ValueError):
    """A run configuration failed validation. Maps to CLI exit code 2."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DivergenceError(RuntimeError):
    """Integration produced a non-finite or exploding state. CLI exit code 3.

    entry is the first batch entry of the integrated state that failed, and
    row the grid row it belongs to when the state stacked several rows.
    """

    def __init__(self, step: int, detail: str, phase: str = "",
                 entry: Optional[int] = None, row: Optional[int] = None):
        self.step = step
        self.detail = detail
        self.phase = phase
        self.entry = entry
        self.row = row
        prefix = f"[{phase}] " if phase else ""
        where = f" in row {row}" if row is not None else ""
        super().__init__(f"{prefix}divergence at step {step}{where}: {detail}")


class CacheMissError(KeyError):
    """Injection requested a (step, layer) pair never cached during inversion."""

    def __init__(self, step: int, layer: int):
        self.step = step
        self.layer = layer
        super().__init__(f"no cached K/V for step={step}, layer={layer}")
