"""Exception types shared across the package; Spec, the type and range of a
checked value; and hold, which checks and holds a value object's fields.

Only failures that callers need to tell apart get their own class; everything
else raises the stdlib ValueError/IndexError with a descriptive message. A
range that a library argument shares with an EditConfig field is one Spec,
declared next to the library code, and checks both the argument and the field;
a rule spanning fields is one function there, given the name to report.
"""

from __future__ import annotations

import functools
import operator
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Optional, Tuple


class ConfigError(ValueError):
    """A value outside its Spec, or a config that breaks a rule spanning fields;
    field names the config field or library argument. CLI exit code 2."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


_BOOL_TEXT = {"1": True, "true": True, "yes": True,
              "0": False, "false": False, "no": False}
_NOUNS = {int: "an integer", float: "a finite number", tuple: "a list of integers"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def as_index(name: str, value) -> int:
    """value as an int: a Python or numpy integer, not a bool; anything else
    is a ValueError that names name."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _integral(value):
    """JSON numbers such as 5.0 stand for the integer 5."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class Spec:
    """Type and allowed values of one EditConfig field or library argument.

    kind is int, float, bool, str (one of choices) or tuple (a list of integer
    token ids). Numbers, and the entries of a tuple, lie between lo and hi
    (None: unbounded), open at an end whose flag is set; floats must be
    finite, and an int given for one must lie within float range. optional
    admits None.
    """

    kind: type
    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False
    choices: Tuple[str, ...] = ()
    optional: bool = False

    def describe(self) -> str:
        if self.kind is bool:
            text = "true or false"
        elif self.kind is str:
            text = "one of " + ", ".join(self.choices)
        else:
            left = "(" if self.lo_open or self.lo is None else "["
            right = ")" if self.hi_open or self.hi is None else "]"
            lo = "-inf" if self.lo is None else self.lo
            hi = "inf" if self.hi is None else self.hi
            text = f"{_NOUNS[self.kind]} in {left}{lo}, {hi}{right}"
        return text + " or null" if self.optional else text

    def accepts(self, value) -> bool:
        if value is None:
            return self.optional
        if self.kind is bool:
            return isinstance(value, bool)
        if self.kind is str:
            return isinstance(value, str) and value in self.choices
        if self.kind is tuple:
            return (isinstance(value, (tuple, list))
                    and all(_is_int(v) and self._within(v) for v in value))
        if self.kind is int:
            if not _is_int(value):
                return False
        elif (not isinstance(value, (int, float)) or isinstance(value, bool)
              or not abs(value) <= sys.float_info.max):  # NaN, inf, or an int past float
            return False
        return self._within(value)

    def _within(self, value) -> bool:
        above = self.lo is None or (value > self.lo if self.lo_open else value >= self.lo)
        below = self.hi is None or (value < self.hi if self.hi_open else value <= self.hi)
        return above and below

    def check(self, name: str, value):
        """value in the form a checked config or value object holds: a float
        Spec's int or numpy float as a float, a tuple Spec's list as a tuple."""
        if not self.accepts(value):
            raise ConfigError(name, f"must be {self.describe()}, got {value!r}")
        return self.kind(value) if self.kind in (float, tuple) and value is not None else value

    def from_json(self, value):
        """The value read from JSON in the field's own type; the config that
        receives it checks it."""
        if self.kind is int:
            return _integral(value)
        if self.kind is tuple and isinstance(value, list):
            return tuple(_integral(v) for v in value)
        return value

    def from_text(self, name: str, raw: str):
        """The value written as --set/--axis text: ints, floats, true/false
        (also 1/0, yes/no), comma-separated token ids, none/null if optional."""
        value = raw
        if self.optional and raw.lower() in ("none", "null"):
            value = None
        elif self.kind is bool:
            value = _BOOL_TEXT.get(raw.lower(), raw)
        elif self.kind is not str:
            # an empty token-id item is refused as such, before any parsing
            tokens = split_items(name, raw, ",") if self.kind is tuple else None
            try:
                value = self.kind(raw) if tokens is None else tuple(int(t) for t in tokens)
            except ValueError:
                pass
        return self.check(name, value)


def split_items(name: str, raw: str, sep: str) -> List[str]:
    """raw's items between seps; an empty one, also after a trailing sep, is a ConfigError."""
    items = raw.split(sep)
    if "" in items:
        raise ConfigError(name, f"empty item in {raw!r}")
    return items


def knob(spec: Spec, default=MISSING):
    """A dataclass field whose value hold checks with spec."""
    return field(default=default, metadata={"spec": spec})


@functools.cache
def field_specs(cls) -> Dict[str, Spec]:
    """The Spec of each knob field of dataclass cls, in declaration order."""
    return {f.name: f.metadata["spec"] for f in fields(cls) if "spec" in f.metadata}


def hold(obj) -> None:
    """Check obj's knob fields in declaration order; hold what each check returns."""
    for name, spec in field_specs(type(obj)).items():
        value = getattr(obj, name)
        held = spec.check(name, value)
        if held is not value:
            object.__setattr__(obj, name, held)


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
