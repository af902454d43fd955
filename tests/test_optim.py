"""In-place SGD and Adam updates of a flat parameter vector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from raftlab.errors import ShapeError
from raftlab.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    AdamState,
    adam_step,
    sgd_step,
)


def test_sgd_moves_against_gradient():
    params = np.array([1.0])
    sgd_step(params, np.array([2.0]), lr=0.1)
    np.testing.assert_allclose(params, [0.8])


def test_sgd_leaves_the_gradient_unchanged():
    params = np.array([1.0])
    grads = np.array([2.0])
    sgd_step(params, grads, lr=0.1)
    np.testing.assert_array_equal(grads, [2.0])


def test_sgd_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        sgd_step(np.zeros(2), np.zeros(3), lr=0.1)


def test_adam_first_step_is_bias_corrected_sign_step():
    start = np.array([1.0, -1.0])
    g = np.array([2.0, -0.5])
    params = start.copy()
    state = AdamState.init(params)
    adam_step(params, g, state, lr=0.1)
    expected = start - 0.1 * g / (np.abs(g) + ADAM_EPS)
    np.testing.assert_allclose(params, expected, rtol=1e-12)
    assert state.t == 1


def test_adam_state_advances_and_grads_stay_fixed():
    params = np.array([1.0])
    grads = np.array([2.0])
    state = AdamState.init(params)
    m, v = state.m, state.v
    after = []
    for t in (1, 2):
        adam_step(params, grads, state, lr=0.01)
        assert state.t == t
        after.append(params[0])
    np.testing.assert_array_equal(grads, [2.0])
    assert state.m is m and state.v is v
    assert after[1] < after[0] < 1.0


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        adam_step(np.zeros(4), np.zeros(2), AdamState.init(np.zeros(4)), lr=0.1)


def test_adam_rejects_state_of_another_size():
    with pytest.raises(ShapeError):
        adam_step(np.zeros(2), np.zeros(2), AdamState.init(np.zeros(3)), lr=0.1)


B = ADAM_BLOCK


@pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 5 * B + 3],
                         ids=["1", "B-1", "B", "B+1", "5B+3"])
def test_adam_moment_recursion_matches_reference(size):
    # The in-place update performs the textbook expression's operations in
    # the same order, block by block, so it must agree bit for bit, not just
    # closely, on either side of every block edge.
    rng = np.random.default_rng(0)
    params = rng.normal(size=size)
    state = AdamState.init(params)
    assert all(s.size <= ADAM_BLOCK for s in state.scratch)
    m = np.zeros(size)
    v = np.zeros(size)
    for t in range(1, 6):
        g = rng.normal(size=size)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * (g * g)
        mhat = m / (1 - ADAM_BETA1**t)
        vhat = v / (1 - ADAM_BETA2**t)
        expected = params - 0.05 * mhat / (np.sqrt(vhat) + ADAM_EPS)
        adam_step(params, g, state, lr=0.05)
        np.testing.assert_array_equal(params, expected)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)


def test_adam_rejects_a_matrix():
    with pytest.raises(ShapeError):
        adam_step(np.zeros((2, 2)), np.zeros((2, 2)), AdamState.init(np.zeros((2, 2))), lr=0.1)


@given(st.floats(min_value=0.01, max_value=0.5))
def test_descent_on_quadratic(lr):
    params = np.array([3.0])
    for _ in range(50):
        sgd_step(params, 2.0 * params, lr=lr)
    assert abs(params[0]) < 3.0


def test_adam_shrinks_quadratic_objective():
    params = np.array([3.0, -2.0])
    state = AdamState.init(params)
    for _ in range(200):
        adam_step(params, 2.0 * params, state, lr=0.05)
    assert np.all(np.abs(params) < 0.2)
