from __future__ import annotations

import math

import numpy as np
import pytest

from adaedit.schedules import (SCHEDULE_FAMILIES, InjectionSchedule,
                               LayerRatioProfile, effective_ratio, is_active,
                               layer_multiplier, layer_ratios, max_step_delta,
                               schedule_weight)


def sigmoid_default(total=15, inj=4):
    return InjectionSchedule("sigmoid", total, inj, sharpness=5.0, midpoint=0.7)


def test_sigmoid_midpoint_is_half():
    # step/T_inj == m exactly => weight 0.5
    s = InjectionSchedule("sigmoid", 15, 10, sharpness=5.0, midpoint=0.7)
    assert schedule_weight(s, 7) == 0.5


def test_sigmoid_first_weight_matches_oracle():
    s = sigmoid_default()
    # 1 / (1 + exp(-3.5)) evaluated at high precision
    assert abs(schedule_weight(s, 0) - 0.970688) < 1e-6
    assert abs(schedule_weight(s, 0) - 0.9706877692486436) < 1e-12


def test_cosine_midpoint_and_endpoint():
    s = InjectionSchedule("cosine", 10, 8)
    assert abs(schedule_weight(s, 4) - 0.5) < 1e-12
    assert schedule_weight(s, 8) == 0.0


def test_linear_quarter_point():
    s = InjectionSchedule("linear", 10, 8)
    assert schedule_weight(s, 2) == 0.75


def test_schedule_weight_out_of_range():
    s = sigmoid_default()
    with pytest.raises(IndexError):
        schedule_weight(s, 15)
    with pytest.raises(IndexError):
        schedule_weight(s, -1)


def test_effective_ratio_examples():
    s = InjectionSchedule("sigmoid", 15, 10, sharpness=5.0, midpoint=0.7)
    assert effective_ratio(s, 0.9, 7) == 0.9 * 0.5
    b = InjectionSchedule("binary", 15, 4)
    assert effective_ratio(b, 0.9, 3) == 0.9
    s0 = sigmoid_default()
    assert abs(effective_ratio(s0, 0.9, 0) - 0.873619) < 1e-6


def test_effective_ratio_domain_error():
    s = sigmoid_default()
    with pytest.raises(ValueError):
        effective_ratio(s, 1.5, 0)
    with pytest.raises(ValueError):
        effective_ratio(s, -0.1, 0)


def test_effective_ratio_linear_in_delta():
    s = sigmoid_default()
    for a in (0.0, 0.25, 0.5, 1.0):
        for i in range(s.total_steps):
            assert math.isclose(effective_ratio(s, a * 0.8, i),
                                a * effective_ratio(s, 0.8, i), rel_tol=0, abs_tol=1e-15)


def test_is_active_soft_cutoff():
    s = sigmoid_default()
    # w_5 ~ 0.0601 > 0.05, w_6 ~ 0.0180 <= 0.05
    assert is_active(s, 5)
    assert not is_active(s, 6)


def test_is_active_binary_ignores_threshold():
    b = InjectionSchedule("binary", 15, 4, activity_threshold=0.0)
    assert is_active(b, 3)
    assert not is_active(b, 4)


def test_max_step_delta_binary_full_jump():
    b = InjectionSchedule("binary", 15, 4)
    assert max_step_delta(b, 0.9) == 0.9


def test_max_step_delta_sigmoid_oracle():
    s = sigmoid_default()
    # enumerate the effective ratios directly; max gap is w_2 - w_3 scaled
    expected = 0.9 * (schedule_weight(s, 2) - schedule_weight(s, 3))
    assert abs(max_step_delta(s, 0.9) - expected) < 1e-15
    assert abs(max_step_delta(s, 0.9) - 0.2639) < 1e-4


def test_max_step_delta_single_linear_step():
    s = InjectionSchedule("linear", 2, 2)
    assert max_step_delta(s, 0.9) == pytest.approx(0.45, abs=1e-15)


# The extremes the Specs accept: the least and the largest sharpness, and
# midpoints one ulp inside (0, 1) and one that step 7 of 10 lands on exactly.
EXTREME_SHAPES = [{"sharpness": k, "midpoint": m}
                  for k in (1e-300, 5.0, 1e308)
                  for m in (math.nextafter(0.0, 1.0), 0.7, math.nextafter(1.0, 0.0))]


def test_monotone_and_range_all_families():
    rng = np.random.default_rng(0)
    for family in SCHEDULE_FAMILIES:
        runs = []
        for _ in range(20):
            total = int(rng.integers(2, 40))
            inj = int(rng.integers(1, total + 1))
            runs.append((total, inj, {"sharpness": float(rng.uniform(0.5, 20)),
                                      "midpoint": float(rng.uniform(0.05, 0.95))}))
        # at 40 steps of 1, sharpness * ratio overflows to inf
        runs += [(total, inj, shape) for total, inj in ((15, 10), (40, 1))
                 for shape in EXTREME_SHAPES]
        for total, inj, shape in runs:
            w = InjectionSchedule(family, total, inj, **shape).weights
            assert all(0.0 <= x <= 1.0 for x in w)
            assert all(b <= a + 1e-15 for a, b in zip(w, w[1:]))


def test_sigmoid_binary_limit():
    # pointwise limit of the sigmoid as k -> inf is the indicator of
    # step/T_inj < m (the exclusion zone sits around m)
    total, inj, m = 15, 4, 0.7
    s = InjectionSchedule("sigmoid", total, inj, sharpness=1e4, midpoint=m)
    for i in range(total):
        ratio = i / inj
        if abs(ratio - m) > 0.01:
            limit = 1.0 if ratio < m else 0.0
            assert abs(s.weights[i] - limit) < 1e-3


def test_discontinuity_bound_sigmoid_under_binary():
    for inj in range(2, 13):
        s = InjectionSchedule("sigmoid", 15, inj, sharpness=5.0, midpoint=0.7)
        assert max_step_delta(s, 0.9) < 0.9


def test_active_steps_form_a_prefix():
    for family in SCHEDULE_FAMILIES:
        schedules = [InjectionSchedule(family, 15, 4)]
        schedules += [InjectionSchedule(family, 15, 10, activity_threshold=threshold, **shape)
                      for shape in EXTREME_SHAPES
                      for threshold in (0.0, 0.05, math.nextafter(1.0, 0.0))]
        for s in schedules:
            act = tuple(i for i in range(15) if is_active(s, i))
            assert act == tuple(range(len(act))) and len(act) == s.active_count


def test_layer_multiplier_examples():
    assert layer_multiplier(LayerRatioProfile(4, 0.0), 2) == 1.0
    p = LayerRatioProfile(2, 0.2)
    assert layer_multiplier(p, 0) == pytest.approx(0.9, abs=1e-15)
    assert layer_multiplier(p, 1) == pytest.approx(1.1, abs=1e-15)
    assert layer_multiplier(LayerRatioProfile(1, 0.5), 0) == 1.0


def test_layer_multiplier_out_of_range():
    with pytest.raises(IndexError):
        layer_multiplier(LayerRatioProfile(2, 0.2), 2)


def test_layer_multiplier_positive_nondecreasing():
    p = LayerRatioProfile(6, 1.9)
    mults = [layer_multiplier(p, l) for l in range(6)]
    assert all(m > 0 for m in mults)
    assert mults == sorted(mults)


def test_layer_ratios_clamped():
    p = LayerRatioProfile(2, 1.5)
    ratios = layer_ratios(p, 0.9)
    assert all(0.0 <= r <= 1.0 for r in ratios)
    assert ratios[1] == 1.0  # 0.9 * 1.75 clamps


def test_schedule_validation():
    with pytest.raises(ValueError):
        InjectionSchedule("bogus", 10, 4)
    with pytest.raises(ValueError):
        InjectionSchedule("sigmoid", 10, 11)
    with pytest.raises(ValueError):
        InjectionSchedule("sigmoid", 10, 0)
    with pytest.raises(ValueError):
        InjectionSchedule("sigmoid", 10, 4, sharpness=0.0)
    with pytest.raises(ValueError):
        InjectionSchedule("sigmoid", 10, 4, midpoint=1.0)
