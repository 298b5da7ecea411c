import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from saep import tensor as tz
from saep.tensor import DimensionError, Tensor

from gradcheck import gradient_check
import reference_ops as ref


def randt(rng, *shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=requires_grad)


def assert_bits_equal(actual, expected):
    """Same dtype, shape and bytes: stricter than ==, which equates -0.0
    with 0.0."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


seeds = st.integers(0, 2 ** 32 - 1)


class TestMatmul:
    def test_identity(self):
        out = ref.matmul(Tensor([[1, 0], [0, 1]]), Tensor([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[3], [4]])

    def test_hand_expansion(self):
        out = ref.matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ref.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = randt(rng, 3, 4), randt(rng, 4, 2)
        rep = gradient_check(lambda: ref.tsum(ref.matmul(a, b)), [a, b],
                             tol=1e-3)
        assert rep.passed, str(rep)

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(1)
        a = randt(rng, 5, 3, 4)
        b = randt(rng, 4, 2)
        out = ref.matmul(a, b)
        for i in range(5):
            np.testing.assert_allclose(out.data[i], a.data[i] @ b.data,
                                       rtol=1e-6)


class TestSoftmax:
    def test_uniform_by_symmetry(self):
        out = ref.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=1e-6)

    def test_no_overflow_on_large_inputs(self):
        out = ref.softmax_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], rtol=1e-6)

    def test_scalar_oracle(self):
        # Independent scalar evaluation of e^{x_i - max} / sum.
        exps = [math.exp(x - 3.0) for x in (1.0, 2.0, 3.0)]
        expected = [e / sum(exps) for e in exps]
        out = ref.softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6)).astype(np.float32) * 10.0
        out = ref.softmax_rows(Tensor(x)).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = tz.layer_norm(Tensor([[5.0, 5.0, 5.0]]),
                            Tensor([[0.0, 0.0, 0.0]]),
                            Tensor([1.0, 1.0, 1.0]),
                            Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_two_point_symmetry(self):
        out = tz.layer_norm(Tensor([[1.0, 3.0]]), Tensor([[0.0, 0.0]]),
                            Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=0.0)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], rtol=1e-5)

    def test_row_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 8)).astype(np.float32) * 3.0
        out = tz.layer_norm(Tensor(x), Tensor(np.zeros_like(x)),
                            Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = tz.cross_entropy(Tensor(np.zeros((2, 4))), [0, 3])
        np.testing.assert_allclose(out.item(), math.log(4.0), rtol=1e-6)

    def test_saturated_logits(self):
        logits = np.full((1, 3), -50.0, dtype=np.float32)
        logits[0, 1] = 50.0
        assert tz.cross_entropy(Tensor(logits), [1]).item() < 1e-3

    def test_scalar_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((2, 3))
        labels = [2, 0]
        expected = -sum(
            math.log(math.exp(logits[i, y])
                     / sum(math.exp(v) for v in logits[i]))
            for i, y in enumerate(labels)) / 2.0
        out = tz.cross_entropy(Tensor(logits), labels)
        np.testing.assert_allclose(out.item(), expected, rtol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            tz.cross_entropy(Tensor(np.zeros((1, 3))), [3])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = tz.dropout(x, 0.5, None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_train_mode_preserves_expectation(self):
        rng = np.random.default_rng(4)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = tz.dropout(x, 0.3, tz.dropout_mask(x.shape, 0.3, rng))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_mask_values(self):
        rng = np.random.default_rng(5)
        out = tz.dropout(Tensor(np.ones(1000, dtype=np.float32)), 0.4,
                         tz.dropout_mask((1000,), 0.4, rng))
        values = np.unique(out.data)
        assert len(values) == 2
        assert values[0] == 0.0
        np.testing.assert_allclose(values[1], 1.0 / 0.6, rtol=1e-6)

    def test_mask_of_another_shape_is_rejected(self):
        """A (4,) mask would broadcast over a (3, 4) input; it must not."""
        keep = tz.dropout_mask((4,), 0.5, np.random.default_rng(6))
        with pytest.raises(DimensionError, match=r"\(4,\).*\(3, 4\)"):
            tz.dropout(Tensor(np.ones((3, 4), dtype=np.float32)), 0.5, keep)


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients(seed):
    """Every differentiable primitive agrees with finite differences on
    random small inputs."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    rows = int(rng.integers(1, 8))
    w = Tensor(rng.standard_normal((rows, d)).astype(np.float32))
    w2 = Tensor(rng.standard_normal((d, rows)).astype(np.float32))

    x = randt(rng, rows, d)
    randb = randt(rng, d)

    checks = [
        ("matmul", [x], lambda: ref.tsum(ref.matmul(x, w2))),
        ("add_bias", [x, randb],
         lambda: ref.tsum(tz.mul(tz.add(x, randb), w))),
        ("relu", [x], lambda: ref.tsum(tz.mul(tz.relu(x), w))),
        ("softmax", [x], lambda: ref.tsum(tz.mul(ref.softmax_rows(x), w))),
        ("transpose", [x], lambda: ref.tsum(tz.mul(
            ref.transpose(x), ref.transpose(Tensor(w.data))))),
        ("scale", [x], lambda: ref.tsum(tz.mul(x, 0.37))),
        ("l2norm", [x], lambda: ref.tsum(tz.mul(tz.l2_normalize(x), w))),
    ]
    gain, bias = randt(rng, d), randt(rng, d)
    zero = Tensor(np.zeros((rows, d), dtype=np.float32))
    checks.append(("layer_norm", [x, gain, bias],
                   lambda: ref.tsum(tz.mul(
                       tz.layer_norm(x, zero, gain, bias), w))))
    res = randt(rng, rows, d)
    checks.append(("layer_norm_residual", [x, gain, bias, res],
                   lambda: ref.tsum(tz.mul(
                       tz.layer_norm(x, res, gain, bias), w))))
    labels_v = rng.integers(0, d, size=rows)
    checks.append(("cross_entropy", [x],
                   lambda: tz.cross_entropy(x, labels_v)))

    lin_w, lin_b = randt(rng, d, 3), randt(rng, 3)
    x3 = randt(rng, 2, rows, d)
    w3 = Tensor(rng.standard_normal((2, rows, 3)).astype(np.float32))
    checks += [
        ("linear", [x, lin_w],
         lambda: ref.tsum(tz.mul(tz.linear(x, lin_w), Tensor(w3.data[0])))),
        ("linear_bias_batched", [x3, lin_w, lin_b],
         lambda: ref.tsum(tz.mul(tz.linear(x3, lin_w, lin_b), w3))),
    ]
    # Batched attention over 3 queries and 5 keys of width d, so T != d_k.
    q, k, v = randt(rng, 2, 3, d), randt(rng, 2, 5, d), randt(rng, 2, 5, 4)
    w_att = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
    checks.append(("attention", [q, k, v],
                   lambda: ref.tsum(tz.mul(tz.attention(q, k, v), w_att))))
    # The pooling's form: a 2-D query shared by every batch entry, the same
    # tensor as keys and values, and no scaling.
    q2, kv = randt(rng, 2, d), randt(rng, 2, 5, d)
    w_pool = Tensor(rng.standard_normal((2, 2, d)).astype(np.float32))
    checks.append(("attention_shared_query", [q2, kv],
                   lambda: ref.tsum(tz.mul(tz.attention(q2, kv, kv, scale=1.0),
                                          w_pool))))

    for name, tensors, fn in checks:
        rep = gradient_check(fn, tensors, tol=1e-2)
        assert rep.passed, "%s: %s" % (name, rep)


def test_dropout_eval_gradient_is_identity():
    rng = np.random.default_rng(0)
    x = randt(rng, 3, 4)
    w = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    rep = gradient_check(
        lambda: ref.tsum(tz.mul(tz.dropout(x, 0.5, None), w)),
        [x], tol=1e-3)
    assert rep.passed, str(rep)


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        tz.add(x, x).backward()


def test_backward_needs_an_input_that_requires_grad():
    leaf = Tensor(np.float32(2.0), requires_grad=True)
    leaf.backward()
    assert leaf.grad == 1.0
    with pytest.raises(RuntimeError, match="no input required grad"):
        tz.add(Tensor(1.0), Tensor(2.0)).backward()


class TestFusedAttention:
    def test_matches_composition(self):
        rng = np.random.default_rng(6)
        ins = [randt(rng, 3, 7, 4), randt(rng, 3, 9, 4), randt(rng, 3, 9, 5)]
        g = rng.standard_normal((3, 7, 5)).astype(np.float32)
        results = []
        for op in (tz.attention, ref.composed_attention):
            for t in ins:
                t.grad = None
            out = op(*ins)
            ref.tsum(tz.mul(out, Tensor(g))).backward()
            results.append([out.data] + [t.grad for t in ins])
        # float32 results in another summation order
        for fused, composed in zip(*results):
            np.testing.assert_allclose(fused, composed, rtol=1e-5, atol=1e-6)

    def test_no_input_requiring_grad_records_no_closure(self):
        rng = np.random.default_rng(8)
        q, k, v = (randt(rng, 2, 5, 3, requires_grad=False) for _ in range(3))
        out = tz.attention(q, k, v)
        assert out._backward is None
        assert out._parents == ()
        assert not out.requires_grad

    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(DimensionError, match=r"\(4, 3\).*\(5, 2\)"):
            tz.attention(Tensor(np.zeros((4, 3))), Tensor(np.zeros((5, 2))),
                         Tensor(np.zeros((5, 2))))

    @pytest.mark.parametrize("q_shape, k_shape", [
        ((2, 4, 3), (3, 5, 3)),     # other batch extent
        ((3, 4, 3), (5, 3)),        # batched query, unbatched keys
        ((1, 3, 4, 3), (3, 5, 3)),  # broadcastable, but not the same axes
    ])
    def test_query_leading_axes_must_match_keys(self, q_shape, k_shape):
        with pytest.raises(DimensionError, match="attention shapes disagree"):
            tz.attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)),
                         Tensor(np.zeros(k_shape)))


def test_every_op_keeps_float64():
    """With float64 leaves and no mode entered, every op's output and every
    gradient stay float64, so the float64 reference paths are really
    float64."""
    rng = np.random.default_rng(9)
    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x, w, b = leaf(2, 3, 4), leaf(4, 4), leaf(4)
    outs = [
        tz.add(x, b), tz.mul(x, 0.5), ref.matmul(x, w),
        tz.linear(x, w, b), tz.attention(x, x, x), ref.transpose(x),
        tz.reshape(x, (6, 4)), tz.relu(x), ref.softmax_rows(x),
        tz.layer_norm(x, x, b, b),
        tz.dropout(x, 0.5, tz.dropout_mask(x.shape, 0.5,
                                           np.random.default_rng(0))),
        tz.l2_normalize(x), ref.tsum(x),
        tz.cross_entropy(tz.reshape(x, (6, 4)), [0, 1, 2, 3, 0, 1]),
    ]
    loss = ref.tsum(outs[0])
    for out in outs:
        assert out.data.dtype == np.float64
        loss = tz.add(loss, ref.tsum(out))
    loss.backward()
    for t in (x, w, b):
        assert t.grad.dtype == np.float64


# Every op in ``tensor.__all__``, on leaves of (rows, d) or (2, rows, d).
DTYPE_OPS = {
    "add": lambda x, b, s: tz.add(x, b),
    "add_scalar": lambda x, b, s: tz.add(2.0, x),
    "mul": lambda x, b, s: tz.mul(x, b),
    "mul_scalar": lambda x, b, s: tz.mul(x, np.float64(0.37)),
    "linear": lambda x, b, s: tz.linear(x, s, b),
    "attention": lambda x, b, s: tz.attention(x, x, x),
    "reshape": lambda x, b, s: tz.reshape(x, (-1,)),
    "relu": lambda x, b, s: tz.relu(x),
    "layer_norm": lambda x, b, s: tz.layer_norm(x, x, b, b),
    "dropout": lambda x, b, s: tz.dropout(
        x, 0.3, tz.dropout_mask(x.shape, 0.3, np.random.default_rng(0))),
    "cross_entropy": lambda x, b, s: tz.cross_entropy(
        tz.reshape(x, (-1, x.shape[-1])), [0] * (x.data.size // x.shape[-1])),
    "l2_normalize": lambda x, b, s: tz.l2_normalize(x),
}


def test_dtype_ops_cover_every_op():
    assert {name.partition("_scalar")[0] for name in DTYPE_OPS} \
        == set(tz.__all__) - {"Tensor", "DimensionError"}


@settings(max_examples=30)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       op=st.sampled_from(sorted(DTYPE_OPS)), batched=st.booleans(),
       rows=st.integers(1, 4), d=st.integers(1, 5), seed=seeds)
def test_every_op_follows_its_inputs_dtype(dtype, op, batched, rows, d, seed):
    """Each op returns, and back-propagates into every leaf, the dtype of
    its inputs, with no mode entered; a scalar operand takes the tensor's
    dtype, whatever its own."""
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype),
                      requires_grad=True)

    x = leaf(*(((2,) if batched else ()) + (rows, d)))
    b, s = leaf(d), leaf(d, d)
    out = DTYPE_OPS[op](x, b, s)
    assert out.data.dtype == dtype
    ref.tsum(out).backward()
    for t in (x, b, s):
        assert t.grad is None or t.grad.dtype == dtype


def batched_attention(q, k, v, g, scale):
    """Attention, its weights and the gradients of q, k and v for the
    output gradient ``g``, each from one numpy call over every leading
    entry at once: the reference for the per-entry loop."""
    w = np.matmul(q * scale, k.swapaxes(-1, -2))
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out = np.matmul(w, v)
    gv = np.matmul(w.swapaxes(-1, -2), g)
    ds = np.matmul(g, v.swapaxes(-1, -2))
    ds -= np.einsum("...i,...i->...", g, out)[..., None]
    ds *= w
    gq = np.matmul(ds, k) * scale
    if q.ndim == 2:  # a shared query sums its gradient over the entries
        gq = gq.sum(axis=tuple(range(gq.ndim - 2)))
    gk = np.matmul(ds.swapaxes(-1, -2), q) * scale
    return out, w, gq, gk, gv


attention_shapes = dict(
    lead=st.lists(st.integers(1, 12), max_size=2).map(tuple),
    t=st.integers(1, 5), s=st.integers(1, 5), d_k=st.integers(1, 4),
    d_v=st.integers(1, 4), shared=st.booleans(), unit_scale=st.booleans(),
    seed=seeds)


class TestPerEntryAttention:
    @settings(max_examples=60)
    @given(**attention_shapes)
    # Summing a shared query's gradient over more than 8 entries is where
    # numpy's reduction order depends on the memory layout.
    @example(lead=(12,), t=1, s=4, d_k=3, d_v=2, shared=True,
             unit_scale=True, seed=0)
    def test_matches_batched_reference(self, lead, t, s, d_k, d_v, shared,
                                       unit_scale, seed):
        """Values, weights and all three gradients equal the batched
        formulas bit for bit, with per-entry and shared 2-D queries."""
        rng = np.random.default_rng(seed)
        q = randt(rng, *(() if shared else lead), t, d_k)
        k, v = randt(rng, *lead, s, d_k), randt(rng, *lead, s, d_v)
        g = rng.standard_normal(lead + (t, d_v)).astype(np.float32)
        scale = 1.0 if unit_scale else None
        trace = []
        out = tz.attention(q, k, v, trace=trace, scale=scale)
        ref.tsum(tz.mul(out, Tensor(g))).backward()
        want = batched_attention(
            q.data, k.data, v.data, g,
            np.float32(1.0 if unit_scale else 1.0 / math.sqrt(d_k)))
        for got, expected in zip((out.data, trace[0], q.grad, k.grad, v.grad),
                                 want):
            assert_bits_equal(got, expected)

    @settings(max_examples=40)
    @given(rows=st.integers(1, 3), **attention_shapes)
    def test_query_blocks_without_a_graph(self, rows, lead, t, s, d_k, d_v,
                                          shared, unit_scale, seed):
        """Without a graph the rows run in blocks; the output and the
        traced weights agree with the batched formulas, and a call without
        a trace gives the same output."""
        rng = np.random.default_rng(seed)
        q = randt(rng, *(() if shared else lead), t, d_k, requires_grad=False)
        k = randt(rng, *lead, s, d_k, requires_grad=False)
        v = randt(rng, *lead, s, d_v, requires_grad=False)
        scale = 1.0 if unit_scale else None
        trace = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tz, "_QUERY_ROWS", rows)
            out = tz.attention(q, k, v, trace=trace, scale=scale)
            untraced = tz.attention(q, k, v, scale=scale)
        want_out, want_w, *_ = batched_attention(
            q.data, k.data, v.data, np.zeros(lead + (t, d_v), np.float32),
            np.float32(1.0 if unit_scale else 1.0 / math.sqrt(d_k)))
        # Blocks of a row or two may take other BLAS kernels.
        np.testing.assert_allclose(out.data, want_out, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(trace[0], want_w, rtol=1e-5, atol=1e-6)
        assert_bits_equal(untraced.data, out.data)
        assert untraced._backward is None


class TestResidualLayerNorm:
    @settings(max_examples=60)
    @given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3)
           .map(tuple), seed=seeds)
    def test_equals_layer_norm_of_the_sum(self, shape, seed):
        """``layer_norm(x, r, g, b)`` is ``layer_norm(add(x, r), 0, g, b)``
        bit for bit, in value and in all four gradients."""
        rng = np.random.default_rng(seed)
        x, r = randt(rng, *shape), randt(rng, *shape)
        gain, bias = randt(rng, shape[-1]), randt(rng, shape[-1])
        g = Tensor(rng.standard_normal(shape).astype(np.float32))
        results = []
        for fused in (True, False):
            for t in (x, r, gain, bias):
                t.grad = None
            zero = Tensor(np.zeros(shape, dtype=np.float32))
            out = (tz.layer_norm(x, r, gain, bias) if fused
                   else tz.layer_norm(tz.add(x, r), zero, gain, bias))
            ref.tsum(tz.mul(out, g)).backward()
            results.append([out.data] + [t.grad for t in (x, r, gain, bias)])
        for fused, composed in zip(*results):
            assert_bits_equal(fused, composed)

    def test_residual_shape_must_match(self):
        with pytest.raises(DimensionError, match=r"residual \(2, 3\)"):
            tz.layer_norm(Tensor(np.zeros((3, 3))), Tensor(np.zeros((2, 3))),
                          Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestBoolDropout:
    @settings(max_examples=60)
    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3)
           .map(tuple), rate=st.floats(0.0, 0.95, exclude_min=True),
           seed=seeds)
    def test_matches_float_mask_formula(self, shape, rate, seed):
        """Output, gradient and the RNG state afterwards equal those of a
        float32 mask holding 0 or 1/(1 - rate), down to the sign of
        zero."""
        data = np.random.default_rng(seed)
        x = Tensor((data.standard_normal(shape) * 10).astype(np.float32),
                   requires_grad=True)
        x.data.reshape(-1)[::3] = -0.0
        g = (data.standard_normal(shape)).astype(np.float32)
        g.reshape(-1)[1::4] = -0.0
        rng = np.random.default_rng(seed + 1)
        out = tz.dropout(x, rate, tz.dropout_mask(shape, rate, rng))
        ref.tsum(tz.mul(out, Tensor(g))).backward()

        ref_rng = np.random.default_rng(seed + 1)
        rate32 = np.float32(rate)
        mask = ((ref_rng.random(shape, dtype=np.float32) >= rate32)
                .astype(np.float32) / (np.float32(1.0) - rate32))
        assert_bits_equal(out.data, x.data * mask)
        assert_bits_equal(x.grad, g * mask)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_backward_releases_interior_gradients():
    """Once the sweep has used an interior node's gradient it is dropped;
    leaves keep theirs."""
    rng = np.random.default_rng(10)
    a, b = randt(rng, 3, 4), randt(rng, 4)
    h = tz.relu(tz.add(a, b))
    loss = ref.tsum(tz.mul(h, h))
    loss.backward()
    assert loss.grad is None and h.grad is None
    assert a.grad is not None and b.grad is not None
