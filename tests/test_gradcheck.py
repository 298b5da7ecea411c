import numpy as np

from saep import tensor as tz
from saep.tensor import Tensor

from gradcheck import gradient_check
import reference_ops as ref


def test_sum_gradient_is_exact():
    x = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3),
               requires_grad=True)
    rep = gradient_check(lambda: ref.tsum(x), [x], tol=1e-6)
    assert rep.passed, str(rep)


def test_two_layer_net_passes():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.standard_normal((5, 7)).astype(np.float32),
                requires_grad=True)
    b1 = Tensor(np.zeros(7, dtype=np.float32), requires_grad=True)
    w2 = Tensor(rng.standard_normal((7, 3)).astype(np.float32),
                requires_grad=True)
    xin = Tensor(rng.standard_normal((4, 5)).astype(np.float32))

    def f():
        h = tz.relu(tz.add(ref.matmul(xin, w1), b1))
        return tz.cross_entropy(ref.matmul(h, w2), [0, 1, 2, 0])

    rep = gradient_check(f, [w1, b1, w2], tol=1e-2)
    assert rep.passed, str(rep)


def test_corrupted_backward_fails_and_names_element():
    """Negative control: a deliberately wrong backward must be caught."""
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32),
               requires_grad=True)

    def broken_double(a):
        out = a.data * 2.0

        def backward(g):
            wrong = g * 2.0
            wrong = wrong.copy()
            wrong.reshape(-1)[0] *= -1.0  # corrupt one element
            a._accumulate(wrong)

        return Tensor._from_op(out, (a,), backward)

    rep = gradient_check(lambda: ref.tsum(broken_double(x)), [x],
                         tol=1e-2, labels=["x"])
    assert not rep.passed
    assert rep.failures[0][:2] == ("x", 0)
    assert "x[0]" in str(rep)


def test_restores_float32_contents():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    gradient_check(lambda: ref.tsum(x), [x])
    assert x.data.dtype == np.float32
    assert x.grad is None
