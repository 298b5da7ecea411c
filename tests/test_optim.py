import numpy as np
import pytest

from saep.optim import AdamState, MissingGradientError, adam_step
from saep.tensor import Tensor


def make_params(values):
    params = {}
    for name, v in values.items():
        params[name] = Tensor(np.asarray(v, dtype=np.float32),
                              requires_grad=True)
    return params


def test_missing_gradient_is_contract_error():
    params = make_params({"w": [1.0]})
    with pytest.raises(MissingGradientError, match="w"):
        adam_step(params, AdamState())


def test_zero_gradient_leaves_parameter_unchanged():
    params = make_params({"w": [1.5, -2.0]})
    params["w"].grad = np.zeros(2, dtype=np.float32)
    state = AdamState()
    adam_step(params, state)
    np.testing.assert_array_equal(params["w"].data, [1.5, -2.0])
    assert state.step == 1
    assert params["w"].grad is None  # gradients zeroed after the step


def test_first_step_magnitude_matches_scalar_recurrence():
    # Hand-computed Adam recurrence for a single scalar with grad 1:
    # m1 = (1-b1), v1 = (1-b2); after bias correction mhat = 1, vhat = 1,
    # so the update is exactly lr / (1 + eps) ~ lr.
    lr = 1e-4
    params = make_params({"w": [0.0]})
    params["w"].grad = np.ones(1, dtype=np.float32)
    state = AdamState(lr=lr)
    adam_step(params, state)
    expected = -lr / (1.0 + state.eps)
    np.testing.assert_allclose(params["w"].data, [expected], rtol=1e-5)


def test_descends_a_quadratic():
    # f(w) = 0.5 w^2, gradient w; repeated steps must reduce f monotonically
    # at the start.
    params = make_params({"w": [1.0]})
    state = AdamState(lr=1e-2)
    values = []
    for _ in range(20):
        w = float(params["w"].data[0])
        values.append(0.5 * w * w)
        params["w"].grad = np.asarray([w], dtype=np.float32)
        adam_step(params, state)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_moment_buffers_match_parameter_shapes():
    params = make_params({"w": np.zeros((3, 4))})
    params["w"].grad = np.ones((3, 4), dtype=np.float32)
    state = AdamState()
    adam_step(params, state)
    assert state.m["w"].shape == (3, 4)
    assert state.v["w"].shape == (3, 4)
