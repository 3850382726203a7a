from __future__ import annotations

import math

import numpy as np
import pytest

from adaedit.latent import Latent, SeededRng, sample_gaussian
from adaedit.perturbation import (ChannelWeights, PerturbationConfig,
                                  blend_weights, channel_gap, channel_weights,
                                  latents_shift_channel_selective,
                                  latents_shift_uniform, shift_stats)


def adain(x, y):
    # a full-strength uniform shift over every token is AdaIN per channel
    x = Latent(np.reshape(x, (1, -1, 1)))
    y = Latent(np.reshape(y, (1, -1, 1)))
    return latents_shift_uniform(x, y, 1.0, range(x.l)).data.reshape(-1)


def test_adain_identity():
    x = SeededRng(5).standard_normal((64,))
    out = adain(x, x)
    assert np.max(np.abs(out - x)) < 1e-6


def test_adain_hand_example():
    # mu_x=0, sigma_x=1, mu_y=3, sigma_y=2 -> 2x + 3
    out = adain(np.array([-1.0, 1.0]), np.array([1.0, 5.0]))
    assert np.max(np.abs(out - [1.0, 5.0])) < 1e-6


def test_adain_constant_source_maps_to_target_mean():
    out = adain(np.full(8, 2.5), np.array([0.0, 2.0] * 4))
    assert np.max(np.abs(out - 1.0)) < 1e-6


def test_adain_shape_mismatch():
    with pytest.raises(ValueError):
        adain(np.zeros(3), np.zeros(4))


def make_pair(seed_a=1, seed_b=2, l=16, c=8):
    return (sample_gaussian(SeededRng(seed_a), 1, l, c),
            sample_gaussian(SeededRng(seed_b), 1, l, c))


def test_uniform_shift_alpha_zero_is_identity_bitwise():
    z_inv, z_rand = make_pair()
    out = latents_shift_uniform(z_inv, z_rand, 0.0, (1, 3, 5))
    assert np.array_equal(out.data, z_inv.data)


def test_uniform_shift_alpha_one_is_adain_on_set():
    z_inv, z_rand = make_pair()
    tokens = (1, 3, 5)
    out = latents_shift_uniform(z_inv, z_rand, 1.0, tokens)
    idx = list(tokens)
    x = z_inv.data[:, idx, :]
    y = z_rand.data[:, idx, :]
    expected = (y.std(axis=(0, 1)) * (x - x.mean(axis=(0, 1)))
                / (x.std(axis=(0, 1)) + 1e-8) + y.mean(axis=(0, 1)))
    assert np.allclose(out.data[:, idx, :], expected, atol=0, rtol=0)


def test_uniform_shift_rejects_bad_alpha_and_empty_tokens():
    z_inv, z_rand = make_pair()
    with pytest.raises(ValueError):
        latents_shift_uniform(z_inv, z_rand, 1.5, (0,))
    with pytest.raises(ValueError):
        latents_shift_uniform(z_inv, z_rand, 0.5, ())


def test_channel_gap_identical_inputs():
    z, _ = make_pair()
    assert np.array_equal(channel_gap(z, z, (0, 1)), np.zeros(8))


def test_channel_gap_constant_channels():
    a = np.zeros((1, 4, 2))
    b = np.zeros((1, 4, 2))
    a[:, :, 0] = 2.0
    b[:, :, 0] = -1.0
    d = channel_gap(Latent(a), Latent(b), (0, 1, 2, 3))
    assert d[0] == 3.0
    assert d[1] == 0.0


def test_channel_gap_of_one_token():
    z = Latent(np.array([[[1.0, 2.0], [9.0, 9.0]]]))
    assert np.array_equal(channel_gap(z, Latent(np.zeros((1, 2, 2))), (0,)), [1.0, 2.0])


def test_channel_gap_of_two_tokens():
    z = Latent(np.array([[[0.0, 4.0], [2.0, 0.0]]]))
    assert np.array_equal(channel_gap(z, Latent(np.zeros((1, 2, 2))), (0, 1)), [1.0, 2.0])


def test_channel_gap_rejects_an_empty_selection():
    z = Latent(np.zeros((1, 4, 2)))
    with pytest.raises(ValueError):
        channel_gap(z, z, ())


def test_channel_gap_rejects_an_out_of_range_token():
    z = Latent(np.zeros((1, 4, 2)))
    with pytest.raises(IndexError):
        channel_gap(z, z, {5})
    # a token that is no integer is refused by name, not truncated or read
    # from a bool, by every function that resolves tokens; integer arrays,
    # such as ShiftStats.idx, pass
    z_inv, z_rand = make_pair()
    shifts = (lambda tokens: channel_gap(z_inv, z_rand, tokens),
              lambda tokens: shift_stats(z_inv, z_rand, tokens),
              lambda tokens: latents_shift_uniform(z_inv, z_rand, 0.5, tokens),
              lambda tokens: latents_shift_channel_selective(
                  z_inv, z_rand, PerturbationConfig(0.5, 1.0), tokens)[0])
    for shift in shifts:
        for tokens in ([0.5, 3.9], [True], np.array([1.0, 3.0])):
            with pytest.raises(ValueError, match="token index in tokens must be an integer"):
                shift(tokens)
    assert np.array_equal(shift_stats(z_inv, z_rand, np.array([3, 1], dtype=np.int32)).idx,
                          [1, 3])


def test_channel_gap_over_all_tokens_matches_the_unsliced_means():
    # the contiguous token copy pins numpy's reduction order
    z_inv = sample_gaussian(SeededRng(11), 2, 6, 3)
    z_rand = sample_gaussian(SeededRng(12), 2, 6, 3)
    want = np.abs(z_inv.data.mean(axis=(0, 1)) - z_rand.data.mean(axis=(0, 1)))
    assert np.array_equal(channel_gap(z_inv, z_rand, range(6)), want)


def test_channel_gap_symmetric_in_arguments():
    z_inv, z_rand = make_pair()
    tokens = (0, 4, 9)
    assert np.array_equal(channel_gap(z_inv, z_rand, tokens),
                          channel_gap(z_rand, z_inv, tokens))


@pytest.mark.parametrize("c", [1, 2, 3, 5, 6, 7, 8, 16])
def test_channel_weights_constant_gap_is_exactly_uniform(c):
    w = channel_weights(np.full(c, 0.37), 1.3)
    assert np.all(w.alpha == 1.0)


def test_channel_weights_two_channel_oracle():
    w = channel_weights(np.array([0.0, math.log(3.0)]), 1.0)
    assert abs(w.alpha[0] - 0.5) < 1e-12
    assert abs(w.alpha[1] - 1.5) < 1e-12


def test_channel_weights_high_temperature_uniform_limit():
    d = SeededRng(9).standard_normal((8,)) ** 2
    w = channel_weights(d, 1e6)
    assert np.max(np.abs(w.alpha - 1.0)) < 1e-4


def test_channel_weights_low_temperature_concentration():
    d = np.array([0.1, 0.9, 0.3, 0.2, 0.15, 0.05, 0.4, 0.33])
    w = channel_weights(d, 1e-4)
    assert w.alpha.max() > 8 - 1e-3
    assert w.alpha[np.argmax(d)] == w.alpha.max()
    others = np.delete(w.alpha, np.argmax(d))
    assert np.all(others < 1e-3)


def test_channel_weights_rejects_bad_temperature():
    with pytest.raises(ValueError):
        channel_weights(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        channel_weights(np.ones(4), -1.0)


def test_channel_weights_mean_one_invariant():
    rng = np.random.default_rng(12)
    for _ in range(200):
        c = int(rng.integers(1, 20))
        d = np.abs(rng.normal(size=c)) * rng.uniform(0.01, 10)
        for tau in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            w = channel_weights(d, tau)
            assert abs(w.alpha.mean() - 1.0) <= 1e-9
            assert np.all(w.alpha >= 0.0)


def test_channel_weights_variance_monotone_in_temperature():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = np.abs(rng.normal(size=8))
        variances = [channel_weights(d, tau).alpha.var()
                     for tau in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b <= a + 1e-15 for a, b in zip(variances, variances[1:]))


def test_channel_weights_validation():
    with pytest.raises(ValueError):
        ChannelWeights(np.array([0.5, 0.6]))  # mean != 1
    with pytest.raises(ValueError):
        ChannelWeights(np.array([-0.5, 2.5]))  # negative entry
    with pytest.raises(ValueError, match="length-C vector"):
        ChannelWeights(np.ones((2, 2)))
    for gaps, message in ((np.ones((2, 2)), "1-d"), (np.array([1.0, np.nan]), "finite")):
        with pytest.raises(ValueError, match=message):
            channel_weights(gaps, 1.0)


@pytest.mark.parametrize("alpha, message", (
    pytest.param([np.nan, 1.0], "must be nonnegative", id="nan-and-one"),
    pytest.param([np.nan, np.nan], "must be nonnegative", id="all-nan"),
    pytest.param([-np.inf, np.inf], "must be nonnegative", id="minus-and-plus-inf"),
    pytest.param([np.inf, 0.0], "must have mean 1", id="inf-and-zero"),
))
def test_channel_weights_reject_non_finite_entries(alpha, message):
    with pytest.raises(ValueError, match=message):
        ChannelWeights(np.array(alpha))


def test_selective_alpha_zero_is_identity_bitwise():
    z_inv, z_rand = make_pair()
    cfg = PerturbationConfig(0.0, 1.0)
    out, _ = latents_shift_channel_selective(z_inv, z_rand, cfg, (2, 6))
    assert np.array_equal(out.data, z_inv.data)


def test_selective_clamps_to_full_adain():
    # a dominant channel at low temperature gets alpha_c ~ C, so
    # min(alpha * alpha_c, 1) saturates and that channel is pure AdaIN
    z_inv, z_rand = make_pair(l=16, c=8)
    big = z_rand.data.copy()
    big[:, :, 3] += 50.0  # huge mean gap on channel 3
    z_rand = Latent(big)
    cfg = PerturbationConfig(0.25, 0.01)
    tokens = tuple(range(16))
    out, weights = latents_shift_channel_selective(z_inv, z_rand, cfg, tokens)
    assert cfg.alpha * weights.alpha[3] >= 1.0
    full = latents_shift_uniform(z_inv, z_rand, 1.0, tokens)
    assert np.allclose(out.data[:, :, 3], full.data[:, :, 3], atol=0, rtol=0)


def test_selective_high_temperature_matches_uniform():
    z_inv, z_rand = make_pair()
    tokens = (1, 3, 7, 9)
    uniform = latents_shift_uniform(z_inv, z_rand, 0.25, tokens)
    selective, _ = latents_shift_channel_selective(
        z_inv, z_rand, PerturbationConfig(0.25, 1e6), tokens)
    assert np.max(np.abs(uniform.data - selective.data)) < 1e-6


def test_selective_constant_gap_equals_uniform_exactly():
    # channel means chosen exactly representable so the gap vector is an
    # exact constant and the softmax weights are exactly 1
    c = 5
    tokens = (0, 1)
    inv = np.zeros((1, 4, c))
    rand = np.zeros((1, 4, c))
    for ci in range(c):
        inv[0, 0, ci], inv[0, 1, ci] = ci, ci + 2.0       # mean ci + 1
        rand[0, 0, ci], rand[0, 1, ci] = ci + 1.5, ci + 2.5  # mean ci + 2
    z_inv, z_rand = Latent(inv), Latent(rand)
    d = channel_gap(z_inv, z_rand, tokens)
    assert np.all(d == 1.0)
    for alpha in (0.1, 0.25, 0.7, 1.0):
        uniform = latents_shift_uniform(z_inv, z_rand, alpha, tokens)
        selective, weights = latents_shift_channel_selective(
            z_inv, z_rand, PerturbationConfig(alpha, 1.0), tokens)
        assert np.all(weights.alpha == 1.0)
        assert np.array_equal(uniform.data, selective.data)


def test_off_set_tokens_bitwise_unchanged():
    z_inv, z_rand = make_pair()
    tokens = (2, 5, 11)
    rest = [i for i in range(16) if i not in tokens]
    uniform = latents_shift_uniform(z_inv, z_rand, 0.7, tokens)
    selective, _ = latents_shift_channel_selective(
        z_inv, z_rand, PerturbationConfig(0.7, 0.5), tokens)
    assert np.array_equal(uniform.data[:, rest, :], z_inv.data[:, rest, :])
    assert np.array_equal(selective.data[:, rest, :], z_inv.data[:, rest, :])


def test_blend_weights_clamped():
    w = channel_weights(np.array([0.0, 5.0, 0.1, 0.2]), 0.1)
    blend = blend_weights(PerturbationConfig(0.9, 0.1), w)
    assert np.all(blend <= 1.0)
    assert np.all(blend >= 0.0)


def test_perturbation_config_validation():
    with pytest.raises(ValueError):
        PerturbationConfig(1.5, 1.0)
    with pytest.raises(ValueError):
        PerturbationConfig(0.5, 0.0)
