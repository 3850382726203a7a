"""Each range a library argument shares with an EditConfig field is one Spec:
the library checks its argument with it, and the config field reuses it. Each
rule spanning fields is one check the library and the config both call."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from adaedit.diagnostics import ssim
from adaedit.errors import ConfigError, field_specs
from adaedit.latent import DIMENSION, SEED, Latent, SeededRng, sample_gaussian
from adaedit.models import (GAMMA, KEYWORD, PROMPT_IDS, AttentionRecord, Conditioning,
                            InjectionHooks, KVCache, ToyAttentionFlow, extract_mask)
from adaedit.perturbation import ALPHA, TAU, PerturbationConfig, channel_weights
from adaedit.pipeline import FIELD_SPECS
from adaedit.schedules import (DELTA, FAMILY, MIDPOINT, SHARPNESS, SLOPE, THRESHOLD,
                               InjectionSchedule, LayerRatioProfile, effective_ratio)
from adaedit.solvers import KIND, STEPS, TimeGrid, integrate_forward

COND = Conditioning((1, 2, 3, 4), 2)

# config field -> the Spec of the library argument that takes its value
SHARED = {
    "total_steps": STEPS, "injection_steps": STEPS, "schedule": FAMILY,
    "delta_base": DELTA, "alpha": ALPHA, "tau": TAU, "solver": KIND,
    "soft_mask_gamma": GAMMA, "layer_ratio_beta": SLOPE, "seed": SEED,
    "sharpness": SHARPNESS, "sigmoid_midpoint": MIDPOINT,
    "activity_threshold": THRESHOLD,
    **{name: DIMENSION for name in ("layer_count", "embed_dim", "img_tokens",
                                    "text_tokens", "channels", "heads", "vocab_size")},
    "source_prompt_ids": PROMPT_IDS, "target_prompt_ids": PROMPT_IDS,
    "source_keyword_index": KEYWORD, "target_keyword_index": KEYWORD,
}


# a field may narrow hi, or admit None where null asks for a default
@pytest.mark.parametrize("name", sorted(SHARED))
def test_a_shared_field_reuses_the_library_spec_narrowing_only_hi(name):
    spec = FIELD_SPECS[name]
    assert spec is SHARED[name] or spec == replace(SHARED[name], hi=spec.hi,
                                                   optional=spec.optional)


# value object -> {its Spec-declared field: the EditConfig field that feeds it}
FED_BY = {
    InjectionSchedule: {"family": "schedule", "total_steps": "total_steps",
                        "injection_steps": "injection_steps", "sharpness": "sharpness",
                        "midpoint": "sigmoid_midpoint",
                        "activity_threshold": "activity_threshold"},
    LayerRatioProfile: {"layer_count": "layer_count", "slope": "layer_ratio_beta"},
    PerturbationConfig: {"alpha": "alpha", "tau": "tau"},
    Conditioning: {"prompt_token_ids": "source_prompt_ids",
                   "keyword_index": "source_keyword_index"},
}


@pytest.mark.parametrize("cls", FED_BY, ids=lambda cls: cls.__name__)
def test_a_value_object_checks_each_field_with_the_spec_its_config_field_shares(cls):
    # read from the table hold checks with, in declaration order
    specs = field_specs(cls)
    assert list(specs) == list(FED_BY[cls])
    for name, config_field in FED_BY[cls].items():
        assert specs[name] is SHARED[config_field], name


# value object built from ints -> its float twin
INT_BUILT = [
    (lambda: InjectionSchedule("sigmoid", 15, 4, sharpness=5, midpoint=1 / 2,
                               activity_threshold=0),
     lambda: InjectionSchedule("sigmoid", 15, 4, sharpness=5.0, midpoint=0.5,
                               activity_threshold=0.0)),
    (lambda: PerturbationConfig(1, 2), lambda: PerturbationConfig(1.0, 2.0)),
    (lambda: LayerRatioProfile(2, 1), lambda: LayerRatioProfile(2, 1.0)),
]


@pytest.mark.parametrize("made,twin", INT_BUILT, ids=("schedule", "perturbation", "profile"))
def test_a_value_object_built_from_ints_holds_floats_like_its_float_twin(made, twin):
    made, twin = made(), twin()
    for name, spec in field_specs(type(made)).items():
        assert type(getattr(made, name)) is spec.kind, name
    assert made == twin
    assert hash(made) == hash(twin)
    assert repr(made) == repr(twin)


def test_a_conditioning_holds_a_list_of_ids_as_a_tuple():
    ids = [1, 2, 3, 4]
    cond = Conditioning(ids, 2)
    ids[0] = 63
    assert cond.prompt_token_ids == (1, 2, 3, 4)
    assert cond == COND and hash(cond) == hash(COND)


def recorded_attention() -> AttentionRecord:
    sink = AttentionRecord()
    ToyAttentionFlow().evaluate(sample_gaussian(SeededRng(3), 1, 16, 8), 0.9, COND,
                                InjectionHooks("record", cache=KVCache(), step=0,
                                               attn_sink=sink))
    return sink


# (argument named by the error, call); each value is one an EditConfig refuses
DRIFT = [
    ("sharpness", lambda: InjectionSchedule("sigmoid", 10, 10, sharpness=math.nan)),
    ("sharpness", lambda: InjectionSchedule("sigmoid", 10, 10, sharpness=math.inf,
                                            midpoint=0.7)),
    ("total_steps", lambda: InjectionSchedule("linear", 10.5, 4)),
    ("injection_steps", lambda: InjectionSchedule("linear", 4, 10)),
    ("delta_base", lambda: effective_ratio(InjectionSchedule("linear", 4, 4), math.nan, 0)),
    ("slope", lambda: LayerRatioProfile(2, math.inf)),
    ("tau", lambda: PerturbationConfig(0.25, 1e-320)),
    ("tau", lambda: PerturbationConfig(0.25, 1e-7)),
    ("tau", lambda: PerturbationConfig(0.25, math.inf)),
    ("tau", lambda: channel_weights(np.array([0.0, 1.0, 2.0]), 1e-320)),
    ("tau", lambda: channel_weights(np.array([0.0, 1.0, 2.0]), 1e-7)),
    ("tau", lambda: channel_weights(np.array([0.0, 1.0, 2.0]), math.inf)),
    ("gamma", lambda: extract_mask(recorded_attention(), COND, math.inf)),
    ("seed", lambda: SeededRng(2.7)),
    ("stream", lambda: SeededRng(0, stream=1.7)),
    pytest.param("seed", lambda: ToyAttentionFlow(seed=None), id="toy-flow-seed-none"),
    ("c", lambda: sample_gaussian(SeededRng(0), 1, 16, 8.0)),
    ("heads", lambda: ToyAttentionFlow(heads=0)),
    pytest.param("heads", lambda: ToyAttentionFlow(embed_dim=32, heads=3),
                 id="heads-indivisible"),
    ("prompt", lambda: ToyAttentionFlow().evaluate(sample_gaussian(SeededRng(0), 1, 16, 8),
                                                   0.5, Conditioning((1, 2, 3), 0))),
    ("keyword_index", lambda: Conditioning((1, 2, 3, 4), True)),
    ("keyword_index", lambda: Conditioning((1, 2, 3, 4), 2.0)),
    ("keyword_index", lambda: Conditioning((1, 2, 3, 4), np.int64(2))),
    ("prompt_token_ids", lambda: Conditioning((1.5, 2, 3, 4), 0)),
    ("prompt_token_ids", lambda: Conditioning((True, 2, 3, 4), 0)),
    ("prompt_token_ids", lambda: Conditioning(("3", 2, 3, 4), 0)),
    ("steps", lambda: TimeGrid.uniform(2.5)),
    ("kind", lambda: integrate_forward(None, sample_gaussian(SeededRng(0), 1, 4, 2),
                                       TimeGrid.uniform(2), kind="rk4")),
    # img_tokens=15 is no square grid, nor is a 15-token latent to ssim
    pytest.param("a", lambda: ssim(Latent(np.zeros((1, 15, 1))), Latent(np.zeros((1, 15, 1))),
                                   peak=1.0), id="ssim-non-square"),
]


@pytest.mark.parametrize("argument,call", DRIFT)
def test_the_library_refuses_what_the_config_refuses(argument, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError) as exc:
            call()
    assert exc.value.field == argument
