from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from adaedit.errors import DivergenceError
from adaedit.latent import Latent, SeededRng, sample_gaussian
from adaedit.models import AnalyticLinearFlow, Conditioning, ToyAttentionFlow
from adaedit.solvers import SOLVER_KINDS, TimeGrid, integrate_backward, integrate_forward

DECAY_FLOW = AnalyticLinearFlow(decay=-1.0, drift=np.zeros(2))
ONES = Latent(np.ones((1, 4, 2)))


def endpoint_error(kind, steps, forward=True):
    grid = TimeGrid.uniform(steps)
    if forward:
        exact = DECAY_FLOW.closed_form(ONES, 0.0, 1.0)
        tr = integrate_forward(DECAY_FLOW, ONES, grid, kind)
    else:
        exact = DECAY_FLOW.closed_form(ONES, 1.0, 0.0)
        tr = integrate_backward(DECAY_FLOW, ONES, grid, kind)
    return float(np.max(np.abs(tr.final.data - exact.data))), tr


def fitted_order(errors, ladder=(10, 20, 40)):
    return float(-np.polyfit(np.log(ladder), np.log(errors), 1)[0])


# ----------------------------------------------------------------------- grid

def test_time_grid_uniform():
    grid = TimeGrid.uniform(4)
    assert grid.steps == 4
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 1.0


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.4, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 1.0]))
    with pytest.raises(ValueError, match="at least two times"):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid.uniform(0)


def test_time_grid_refuses_a_nan_time():
    # NaN fails every comparison, so a check for a step <= 0 passes it
    with pytest.raises(ValueError, match="grid times must be strictly increasing"):
        TimeGrid(np.array([0.0, np.nan, 1.0]))


# --------------------------------------------------------------- euler oracle

def test_euler_endpoint_matches_product_formula():
    _, tr = endpoint_error("euler", 10)
    assert abs(tr.final.data[0, 0, 0] - 0.34867844) < 1e-9


def test_euler_error_halves_with_step_count():
    e10, _ = endpoint_error("euler", 10)
    e20, _ = endpoint_error("euler", 20)
    assert abs(e10 - 0.019201) < 1e-6
    assert abs(e20 - 0.0093935) < 1e-6
    assert 1.9 < e10 / e20 < 2.2


def test_midpoint_endpoint_oracle():
    _, tr = endpoint_error("midpoint", 10)
    # per-step factor 1 - h + h^2/2 with h = 0.1
    assert abs(tr.final.data[0, 0, 0] - 0.905 ** 10) < 1e-12
    err, _ = endpoint_error("midpoint", 10)
    assert abs(err - 6.6e-4) < 5e-6


# -------------------------------------------------------------- registrations

def test_evaluation_counts():
    for steps in (7, 15):
        grid = TimeGrid.uniform(steps)
        assert integrate_forward(DECAY_FLOW, ONES, grid, "euler").velocity_evals == steps
        assert integrate_forward(DECAY_FLOW, ONES, grid, "midpoint").velocity_evals == 2 * steps
        assert integrate_forward(
            DECAY_FLOW, ONES, grid, "reuse_velocity").velocity_evals == steps + 1
        assert integrate_backward(DECAY_FLOW, ONES, grid, "euler").velocity_evals == steps
        assert integrate_backward(
            DECAY_FLOW, ONES, grid, "reuse_velocity").velocity_evals == steps + 1


def test_constant_field_exact_all_schemes():
    flow = AnalyticLinearFlow(decay=0.0, drift=np.array([1.0, -2.0]))
    exact = flow.closed_form(ONES, 0.0, 1.0)
    for kind in SOLVER_KINDS:
        tr = integrate_forward(flow, ONES, TimeGrid.uniform(9), kind)
        assert float(np.max(np.abs(tr.final.data - exact.data))) < 1e-12


def test_backward_constant_field_exact():
    flow = AnalyticLinearFlow(decay=0.0, drift=np.array([1.0, 0.0]))
    tr = integrate_backward(flow, ONES, TimeGrid.uniform(5), "euler")
    assert np.allclose(tr.final.data[:, :, 0], 0.0, atol=1e-15)
    assert np.allclose(tr.final.data[:, :, 1], 1.0, atol=1e-15)


# --------------------------------------------------------- convergence orders

def test_forward_orders():
    for kind, lo, hi in (("euler", 0.7, 1.3), ("midpoint", 1.7, 2.3)):
        errors = [endpoint_error(kind, steps)[0] for steps in (10, 20, 40)]
        assert lo < fitted_order(errors) < hi


def test_backward_orders():
    for kind, lo, hi in (("euler", 0.7, 1.3), ("midpoint", 1.7, 2.3)):
        errors = [endpoint_error(kind, steps, forward=False)[0]
                  for steps in (10, 20, 40)]
        assert lo < fitted_order(errors) < hi


def test_roundtrip_orders():
    errs = {}
    for kind in ("euler", "midpoint"):
        errors = []
        for steps in (10, 20, 40):
            grid = TimeGrid.uniform(steps)
            fwd = integrate_forward(DECAY_FLOW, ONES, grid, kind)
            back = integrate_backward(DECAY_FLOW, fwd.final, grid, kind)
            errors.append(float(np.max(np.abs(back.final.data - ONES.data))))
        errs[kind] = errors
    assert 0.7 < fitted_order(errs["euler"]) < 1.3
    # the midpoint roundtrip superconverges on a linear autonomous field (the
    # quadratic error terms of the forward and backward passes cancel), so the
    # fitted order lands near 3 rather than 2; assert at-least-second-order
    assert fitted_order(errs["midpoint"]) > 1.7


def test_reuse_velocity_sandwiched_at_t15():
    e_euler, _ = endpoint_error("euler", 15)
    e_mid, _ = endpoint_error("midpoint", 15)
    e_reuse, _ = endpoint_error("reuse_velocity", 15)
    assert e_mid <= e_reuse <= e_euler


# ---------------------------------------------------------------- error paths

def test_divergence_error_names_step():
    blowup = AnalyticLinearFlow(decay=40.0, drift=np.zeros(2))
    with pytest.raises(DivergenceError) as exc:
        integrate_forward(blowup, ONES, TimeGrid.uniform(10), "euler", phase="sampling")
    assert exc.value.step >= 0
    assert "sampling" in str(exc.value)
    assert "state norm exceeds 1e+06" in str(exc.value)


def test_non_finite_velocity_is_divergence():
    class NanField:
        def evaluate(self, z, t, cond=None, hooks=None):
            return SimpleNamespace(data=np.full(z.shape, np.nan))

    for kind in SOLVER_KINDS:
        with pytest.raises(DivergenceError, match="non-finite state") as exc:
            integrate_forward(NanField(), ONES, TimeGrid.uniform(4), kind, phase="sampling")
        assert exc.value.step == 0
        assert exc.value.phase == "sampling"


def test_unknown_solver_kind():
    with pytest.raises(ValueError):
        integrate_forward(DECAY_FLOW, ONES, TimeGrid.uniform(4), "rk4")


# ----------------------------------------------------------------- toy deterministic

def test_toy_integration_hooks_off_deterministic():
    flow = ToyAttentionFlow(seed=0)
    cond = Conditioning((1, 2, 3, 4), 2)
    z = sample_gaussian(SeededRng(5), 1, 16, 8)
    grid = TimeGrid.uniform(6)
    a = integrate_forward(flow, z, grid, "reuse_velocity", cond)
    b = integrate_forward(flow, z, grid, "reuse_velocity", cond)
    assert np.array_equal(a.final.data, b.final.data)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.data, sb.data)


def test_states_are_read_only_and_the_start_is_left_alone():
    flow = ToyAttentionFlow(seed=0)
    cond = Conditioning((1, 2, 3, 4), 2)
    z = sample_gaussian(SeededRng(5), 1, 16, 8)
    before = z.data.copy()
    grid = TimeGrid.uniform(4)
    for kind in SOLVER_KINDS:
        for integrate in (integrate_forward, integrate_backward):
            tr = integrate(flow, z, grid, kind, cond)
            assert tr.states[0] is z
            assert all(not state.data.flags.writeable for state in tr.states)
            assert not any(np.shares_memory(state.data, z.data) for state in tr.states[1:])
            assert np.array_equal(z.data, before)
