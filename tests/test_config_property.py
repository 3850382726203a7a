"""Property: every JSON config and every --set override, typed correctly or
not, makes ``adaedit edit`` exit 0 or 2, and so does every set of --axis
items for ``adaedit ablate``, every JSON config for ``reconstruct`` and
``sweep-schedule``, and every config with any --taus text for
``sweep-temperature``; nothing raises. Every valid config makes ``edit`` and
``reconstruct`` exit 0.

Strategies are built from the same field specs that validate configs, with
model sizes and step counts capped small so each run stays fast.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adaedit.cli import main
from adaedit.pipeline import FIELD_SPECS, Spec

# Upper ends for valid draws of the size fields.
SMALL = {"total_steps": 6, "injection_steps": 6, "layer_count": 3, "embed_dim": 16,
         "img_tokens": 16, "text_tokens": 6, "channels": 4, "heads": 4,
         "vocab_size": 80, "source_keyword_index": 6,
         "target_keyword_index": 6}

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

JUNK = st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.integers(min_value=2**1024),  # past float range, as JSON can hold
                 st.lists(st.integers(-3, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def valid_value(name: str, spec: Spec):
    if spec.kind is bool:
        values = st.booleans()
    elif spec.kind is str:
        values = st.sampled_from(spec.choices)
    elif spec.kind is tuple:
        values = st.lists(st.integers(0, 80), min_size=3, max_size=6)
    elif spec.kind is int:
        values = st.integers(int(spec.lo), SMALL.get(name, spec.hi))
    else:
        values = st.floats(spec.lo, spec.hi, exclude_min=spec.lo_open,
                           exclude_max=spec.hi_open, allow_nan=False,
                           allow_infinity=False)
    return st.none() | values if spec.optional else values


def invalid_value(spec: Spec):
    if spec.kind is int:
        out_of_range = st.integers(max_value=int(spec.lo) - 1)
        if spec.hi is not None:
            out_of_range |= st.integers(min_value=int(spec.hi) + 1)
        return out_of_range | JUNK
    if spec.kind is float:
        return st.floats(max_value=spec.lo, exclude_max=not spec.lo_open) | JUNK
    return JUNK


def any_value(name: str):
    # two parts valid to one part invalid, so that many examples run an edit
    spec = FIELD_SPECS[name]
    return st.one_of(valid_value(name, spec), valid_value(name, spec), invalid_value(spec))


def as_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return "none" if value is None else str(value)


FIELD_NAMES = st.sampled_from(sorted(FIELD_SPECS))
CONFIGS = st.lists(FIELD_NAMES, max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: any_value(name) for name in names}))
TYPED_ITEM = FIELD_NAMES.flatmap(
    lambda name: any_value(name).map(lambda value: f"{name}={as_text(value)}"))
SET_ITEMS = st.lists(st.one_of(
    TYPED_ITEM, TYPED_ITEM, TYPED_ITEM,
    FIELD_NAMES.flatmap(lambda name: st.text(max_size=6).map(lambda raw: f"{name}={raw}")),
    st.text(max_size=8)), max_size=3)


def axis_item(name: str):
    # one or two values; token-id lists separate their values with ';'
    sep = ";" if FIELD_SPECS[name].kind is tuple else ","
    return st.lists(any_value(name), min_size=1, max_size=2).map(
        lambda values: f"{name}=" + sep.join(as_text(v) for v in values))


AXIS_ITEMS = st.lists(FIELD_NAMES.flatmap(axis_item), min_size=1, max_size=2)
TAUS_TEXT = st.one_of(
    st.lists(any_value("tau"), min_size=1, max_size=3).map(
        lambda values: ",".join(as_text(v) for v in values)),
    st.text(max_size=8))


# fields valid_configs leaves at their defaults: the prompts, and the
# schedule shape, whose defaults give every family an active first step
DEFAULT_FIELDS = ("source_prompt_ids", "target_prompt_ids", "sharpness",
                  "sigmoid_midpoint", "activity_threshold")


@st.composite
def valid_configs(draw):
    """A config that passes every field spec and cross-field rule: heads
    divides embed_dim, img_tokens is a square, injection_steps is at most
    total_steps, the vocabulary holds the default prompts' ids (up to
    text_tokens + 5) and the keyword indices lie below text_tokens."""
    heads = draw(st.integers(1, SMALL["heads"]))
    text_tokens = draw(st.integers(1, SMALL["text_tokens"]))
    total_steps = draw(st.integers(1, SMALL["total_steps"]))
    keyword = st.none() | st.integers(0, text_tokens - 1)
    config = {
        "heads": heads,
        "embed_dim": heads * draw(st.integers(1, SMALL["embed_dim"] // heads)),
        "img_tokens": draw(st.integers(1, math.isqrt(SMALL["img_tokens"]))) ** 2,
        "text_tokens": text_tokens,
        "vocab_size": draw(st.integers(text_tokens + 6, SMALL["vocab_size"])),
        "total_steps": total_steps,
        "injection_steps": draw(st.integers(1, total_steps)),
        "source_keyword_index": draw(keyword),
        "target_keyword_index": draw(keyword),
    }
    for name in sorted(set(FIELD_SPECS) - set(config) - set(DEFAULT_FIELDS)):
        config[name] = draw(valid_value(name, FIELD_SPECS[name]))
    return config


def run_cli(command: str, config: dict, options: list) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        argv = [command, "--out", str(Path(scratch) / "out")]
        if config:
            path = Path(scratch) / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        return main(argv + options)


# the --set=ITEM, --axis=ITEM and --taus=TEXT forms keep argparse from reading
# '-x' as an option

@SETTINGS
@given(config=CONFIGS)
@example(config={"layer_ratio_beta": 2**1024})  # an int past float range, float field
def test_any_json_config_exits_0_or_2(config):
    assert run_cli("edit", config, []) in (0, 2)


@SETTINGS
@given(sets=SET_ITEMS)
def test_any_set_override_exits_0_or_2(sets):
    assert run_cli("edit", {}, [f"--set={item}" for item in sets]) in (0, 2)


@settings(SETTINGS, max_examples=40)
@given(axes=AXIS_ITEMS)
def test_any_ablation_axis_exits_0_or_2(axes):
    assert run_cli("ablate", {}, [f"--axis={item}" for item in axes]) in (0, 2)


@pytest.mark.parametrize("command", ("reconstruct", "sweep-schedule"))
@settings(SETTINGS, max_examples=30)
@given(config=CONFIGS)
def test_any_json_config_exits_0_or_2_in_every_config_command(command, config):
    assert run_cli(command, config, []) in (0, 2)


@settings(SETTINGS, max_examples=30)
@given(config=CONFIGS, taus=TAUS_TEXT)
def test_any_temperature_sweep_exits_0_or_2(config, taus):
    assert run_cli("sweep-temperature", config, [f"--taus={taus}"]) in (0, 2)


@pytest.mark.parametrize("command", ("edit", "reconstruct"))
@settings(SETTINGS, max_examples=25)
@given(config=valid_configs())
def test_every_valid_config_exits_0(command, config):
    assert run_cli(command, config, []) == 0
