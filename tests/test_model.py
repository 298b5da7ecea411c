import hashlib
import math
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from saep import tensor as tz
from saep.features import FeatureSequence
from saep.model import ConfigError, ModelConfig, SaepModel, count_params, \
    init_model, param_breakdown, LOSS_AM_SOFTMAX
from saep.tensor import Tensor

from gradcheck import gradient_check
import reference_ops as ref
from test_cli import child_env


def tiny_config(**overrides):
    base = dict(n_speakers=3, n_blocks=1, d_m=6, d_k=4, d_v=4, d_ff=8,
                embed_dim=5, encoder_dropout=0.0, head_dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def tiny_model():
    return init_model(tiny_config(), seed=1)


class TestConfig:
    def test_defaults_match_published_setup(self):
        cfg = ModelConfig(n_speakers=10)
        assert (cfg.n_blocks, cfg.d_k, cfg.d_v, cfg.d_ff) == (2, 512, 512, 2048)
        assert cfg.embed_dim == 400
        assert (cfg.encoder_dropout, cfg.head_dropout) == (0.1, 0.2)
        assert (cfg.am_scale, cfg.am_margin) == (30.0, 0.4)

    @pytest.mark.parametrize("bad", [dict(n_blocks=0), dict(d_k=0),
                                     dict(encoder_dropout=1.0),
                                     dict(loss="hinge"),
                                     dict(am_scale=0.0),
                                     dict(am_margin=-0.1),
                                     dict(am_scale=float("nan")),
                                     dict(am_scale=1e39),
                                     dict(am_margin=float("inf")),
                                     dict(head_dropout=0.99999999)])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            tiny_config(**bad).validate()


class TestInitModel:
    def test_parameters_match_golden_digest(self):
        """Every seeded run starts from these draws, so they are pinned:
        names, order, dtypes, shapes and bytes."""
        model = init_model(tiny_config(n_blocks=2, loss=LOSS_AM_SOFTMAX),
                           seed=1)
        digest = hashlib.sha256()
        for name, value in model.params.items():
            digest.update(("%s %s %s;" % (name, value.data.dtype,
                                          value.data.shape)).encode())
            digest.update(value.data.tobytes())
        assert digest.hexdigest() == ("a962a768869e15a9b1136e4c7952a1c8"
                                      "5678bb84cab0df8d30e2324e01e312e7")


class TestAttention:
    def test_zero_queries_give_column_mean(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((5, 4)).astype(np.float32)
        out = tz.attention(
            Tensor(np.zeros((5, 4), dtype=np.float32)),
            Tensor(rng.standard_normal((5, 4)).astype(np.float32)),
            Tensor(v))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (5, 1)),
                                   atol=1e-5)

    def test_single_position_passthrough(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((1, 4)).astype(np.float32)
        out = tz.attention(
            Tensor(rng.standard_normal((1, 4)).astype(np.float32)),
            Tensor(rng.standard_normal((1, 4)).astype(np.float32)),
            Tensor(v))
        np.testing.assert_allclose(out.data, v, rtol=1e-6)

    def test_scalar_softmax_oracle(self):
        q = Tensor([[1.0], [1.0]])
        k = Tensor([[10.0], [-10.0]])
        v = Tensor([[3.0, 1.0], [-5.0, 2.0]])
        out = tz.attention(q, k, v)
        # brute-force scalar softmax over the two positions
        w1 = math.exp(10.0) / (math.exp(10.0) + math.exp(-10.0))
        expected0 = [w1 * 3.0 + (1 - w1) * -5.0, w1 * 1.0 + (1 - w1) * 2.0]
        np.testing.assert_allclose(out.data[0], expected0, rtol=1e-5)

    def test_weights_row_stochastic(self, tiny_model):
        rng = np.random.default_rng(5)
        trace = []
        x = Tensor(rng.standard_normal((7, 6)).astype(np.float32))
        tiny_model.encoder_block(x, 0, trace=trace)
        (weights,) = trace
        assert np.all(weights >= 0.0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


def encoder_block_oracle(params, x, block):
    """One eval-mode encoder block in float64 numpy from the block's
    weights: Q/K/V, scaled softmax, W_O, residual layer norm, FFN,
    residual layer norm."""
    pre = "enc%d." % block
    w = {name[len(pre):]: t.data.astype(np.float64)
         for name, t in params.items() if name.startswith(pre)}

    def norm(t, gain, bias):
        centred = t - t.mean(axis=-1, keepdims=True)
        var = (centred ** 2).mean(axis=-1, keepdims=True)
        return centred / np.sqrt(var + 1e-5) * gain + bias

    x = x.astype(np.float64)
    q, k, v = x @ w["w_q"], x @ w["w_k"], x @ w["w_v"]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1])
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    s1 = norm(weights @ v @ w["w_o"] + x, w["ln1.gain"], w["ln1.bias"])
    ffn = np.maximum(s1 @ w["w_1"] + w["b_1"], 0.0) @ w["w_2"] + w["b_2"]
    return norm(ffn + s1, w["ln2.gain"], w["ln2.bias"])


class TestEncoderBlock:
    @pytest.mark.parametrize("shape", [(1, 6), (7, 6), (3, 5, 6)])
    def test_eval_matches_float64_oracle(self, shape):
        """d_k != d_v and random layer-norm affines and biases, so a wrong
        scale, a swapped projection or a dropped affine shows; dropout is
        configured but an eval pass (no rng) must skip it."""
        model = init_model(tiny_config(n_blocks=2, d_k=3, d_v=5,
                                       encoder_dropout=0.3), seed=4)
        rng = np.random.default_rng(sum(shape))
        for name, t in model.params.items():
            if name.startswith("enc1."):
                t.data = rng.standard_normal(t.shape).astype(np.float32)
        x = rng.standard_normal(shape).astype(np.float32)
        out = model.encoder_block(Tensor(x), 1)
        assert out.data.dtype == np.float32
        np.testing.assert_allclose(out.data,
                                   encoder_block_oracle(model.params, x, 1),
                                   rtol=1e-4, atol=1e-5)

    def test_zero_weight_degenerate_is_finite(self):
        model = init_model(tiny_config(), seed=0)
        for name in model.params:
            if name.startswith("enc0.") and "gain" not in name:
                v = model.params[name]
                v.data = np.zeros_like(v.data)
        x = Tensor(np.random.default_rng(9).standard_normal((4, 6))
                   .astype(np.float32))
        out = model.encoder_block(x, 0)
        assert out.shape == (4, 6)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("t", [1, 7, 300])
    def test_shape_preserved(self, tiny_model, t):
        x = Tensor(np.random.default_rng(t).standard_normal((t, 6))
                   .astype(np.float32))
        assert tiny_model.encode(x).shape == (t, 6)

    def test_permutation_equivariance_in_eval(self, tiny_model):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((9, 6)).astype(np.float32)
        perm = rng.permutation(9)
        out = tiny_model.encoder_block(Tensor(x), 0).data
        out_p = tiny_model.encoder_block(Tensor(x[perm]), 0).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-5)

    def test_stack_is_composition(self):
        model = init_model(tiny_config(n_blocks=2), seed=3)
        x = Tensor(np.random.default_rng(11).standard_normal((5, 6))
                   .astype(np.float32))
        manual = model.encoder_block(model.encoder_block(x, 0), 1)
        np.testing.assert_allclose(model.encode(x).data, manual.data,
                                   atol=1e-6)


class TestAttentionPool:
    def test_zero_weight_is_column_mean(self, tiny_model):
        tiny_model.params["pool.w_c"].data = np.zeros((6, 1), dtype=np.float32)
        h = np.random.default_rng(12).standard_normal((8, 6)).astype(np.float32)
        out = tiny_model.attention_pool(Tensor(h))
        np.testing.assert_allclose(out.data, h.mean(axis=0), atol=1e-5)

    def test_single_row_passthrough(self, tiny_model):
        h = np.random.default_rng(13).standard_normal((1, 6)).astype(np.float32)
        np.testing.assert_allclose(tiny_model.attention_pool(Tensor(h)).data,
                                   h[0], rtol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_convex_combination_bounds(self, tiny_model, seed):
        h = np.random.default_rng(seed).standard_normal((12, 6)) \
            .astype(np.float32)
        out = tiny_model.attention_pool(Tensor(h)).data
        assert np.all(out >= h.min(axis=0) - 1e-6)
        assert np.all(out <= h.max(axis=0) + 1e-6)

    @pytest.mark.parametrize("shape", [(9, 6), (3, 9, 6)])
    def test_matches_composition(self, tiny_model, shape):
        """The pooling equals scores = h w_c, a softmax over frames and the
        weighted sum of frames, built from separate graph nodes, in value
        and in the gradients of h and w_c."""
        rng = np.random.default_rng(19)
        h = Tensor(rng.standard_normal(shape).astype(np.float32),
                   requires_grad=True)
        g = Tensor(rng.standard_normal(shape[:-2] + (6,)).astype(np.float32))
        w_c = tiny_model.params["pool.w_c"]

        def composed(h):
            hb = tz.reshape(h, (-1,) + shape[-2:])
            scores = ref.transpose(tz.linear(hb, w_c))  # B x 1 x T
            pooled = ref.matmul(ref.softmax_rows(scores), hb)
            return tz.reshape(pooled, shape[:-2] + (6,))

        results = []
        for pool in (tiny_model.attention_pool, composed):
            h.grad = None
            w_c.grad = None
            out = pool(h)
            ref.tsum(tz.mul(out, g)).backward()
            results.append((out.data, h.grad, w_c.grad))
        for fused, reference in zip(*results):
            assert fused.shape == reference.shape
            np.testing.assert_allclose(fused, reference, rtol=1e-5, atol=1e-6)


class TestHead:
    def test_eval_is_deterministic(self, tiny_model):
        c = Tensor(np.random.default_rng(14).standard_normal(6)
                   .astype(np.float32))
        e1, h1 = tiny_model.head(c)
        e2, h2 = tiny_model.head(c)
        np.testing.assert_array_equal(e1.data, e2.data)
        np.testing.assert_array_equal(h1.data, h2.data)

    def test_embedding_width_default_config(self):
        model = init_model(ModelConfig(n_speakers=4), seed=0)
        c = Tensor(np.random.default_rng(15).standard_normal(90)
                   .astype(np.float32))
        assert model.head(c)[0].shape == (400,)

    def test_embedding_nonnegative(self, tiny_model):
        c = Tensor(np.random.default_rng(16).standard_normal(6)
                   .astype(np.float32))
        assert np.all(tiny_model.head(c)[0].data >= 0.0)


def am_training_loss(feats, labels, weight, margin):
    """The training loss of an AM-softmax model (scale 30) whose output
    layer is ``weight``, on pooled head features ``feats``."""
    model = SaepModel(ModelConfig(weight.shape[1], loss=LOSS_AM_SOFTMAX,
                                  am_scale=30.0, am_margin=margin),
                      {"out.w": weight})
    return tz.cross_entropy(model.output_logits(feats, labels), labels)


class TestAmSoftmaxLoss:
    def test_margin_free_reduction(self):
        rng = np.random.default_rng(17)
        feats = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((6, 3)).astype(np.float32))
        labels = [0, 2, 1, 0]
        loss = am_training_loss(feats, labels, w, margin=0.0)
        fn = feats.data / np.linalg.norm(feats.data, axis=1, keepdims=True)
        wn = w.data / np.linalg.norm(w.data, axis=0, keepdims=True)
        ref = tz.cross_entropy(Tensor(30.0 * (fn @ wn)), labels)
        np.testing.assert_allclose(loss.item(), ref.item(), atol=1e-6)

    def test_two_class_scalar_oracle(self):
        # Feature aligned with its class column, the other class orthogonal:
        # logits are (s * (1 - m), 0) = (18, 0).
        feats = Tensor([[2.0, 0.0]])
        w = Tensor([[1.0, 0.0], [0.0, 1.0]])
        loss = am_training_loss(feats, [0], w, margin=0.4)
        expected = -math.log(math.exp(18.0) / (math.exp(18.0) + 1.0))
        np.testing.assert_allclose(loss.item(), expected, atol=1e-6)

    def test_scale_invariance_of_features(self):
        rng = np.random.default_rng(18)
        feats = rng.standard_normal((3, 5)).astype(np.float32) + 2.0
        w = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        labels = [1, 3, 0]
        a = am_training_loss(Tensor(feats), labels, w, 0.4).item()
        b = am_training_loss(Tensor(10.0 * feats), labels, w, 0.4).item()
        assert abs(a - b) < 1e-5


class TestForwardLoss:
    def test_initial_loss_near_uniform(self):
        model = init_model(tiny_config(n_speakers=4, embed_dim=16), seed=5)
        batch = np.random.default_rng(19).standard_normal((1, 40, 6)) \
            .astype(np.float32)
        loss = model.forward_loss(batch, [2], train=False)
        assert abs(loss.item() - math.log(4.0)) < 0.5

    @pytest.mark.parametrize("seed", range(0, 100, 5))
    def test_loss_finite_on_random_inputs(self, seed):
        model = init_model(tiny_config(), seed=seed)
        rng = np.random.default_rng(seed)
        batch = rng.standard_normal((2, 11, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=2)
        loss = model.forward_loss(batch, labels, train=True, rng=rng)
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("overrides", [
        dict(loss="softmax"), dict(loss="am_softmax", am_margin=0.0)])
    def test_eval_loss_matches_eval_logits(self, overrides):
        # Training loss and eval logits go through the same head and output
        # layer; with dropout off and no margin they must agree exactly.
        model = init_model(tiny_config(encoder_dropout=0.1, head_dropout=0.2,
                                       **overrides), seed=2)
        batch = np.random.default_rng(21).standard_normal((3, 9, 6)) \
            .astype(np.float32)
        labels = [0, 2, 1]
        loss = model.forward_loss(batch, labels, train=False)
        expected = tz.cross_entropy(Tensor(ref.eval_logits(model, batch)),
                                    labels)
        assert loss.item() == expected.item()

    def test_training_pass_needs_an_rng(self):
        model = init_model(tiny_config(encoder_dropout=0.1, head_dropout=0.2),
                           seed=2)
        batch = np.zeros((1, 5, 6), dtype=np.float32)
        with pytest.raises(ValueError, match="rng"):
            model.forward_loss(batch, [0], train=True, rng=None)

    @pytest.mark.parametrize("loss_name", ["softmax", "am_softmax"])
    def test_gradient_check_tiny_config(self, loss_name):
        model = init_model(tiny_config(loss=loss_name), seed=1)
        rng = np.random.default_rng(100)
        batch = rng.standard_normal((2, 7, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=2)
        rep = gradient_check(
            lambda: model.forward_loss(batch, labels, train=False),
            [v for _, v in model.params.items()], tol=1e-2,
            labels=list(model.params))
        assert rep.passed, str(rep)

    def test_backward_over_an_inference_view_raises(self):
        """A loss over leaves that need no grad records no graph, so a
        backward pass from it would reach no parameter."""
        model = init_model(tiny_config(), seed=3)
        batch = np.random.default_rng(23).standard_normal((2, 8, 6)) \
            .astype(np.float32)
        loss = model.inference_view().forward_loss(batch, [0, 2],
                                                    train=False)
        with pytest.raises(RuntimeError, match="no input required grad"):
            loss.backward()
        assert [p.grad for p in model.params.values()] == \
            [None] * len(model.params)

    @pytest.mark.parametrize("loss_name", ["softmax", "am_softmax"])
    def test_backward_leaves_gradients_on_parameters_only(self, loss_name):
        model = init_model(tiny_config(loss=loss_name, encoder_dropout=0.1,
                                       head_dropout=0.2), seed=3)
        rng = np.random.default_rng(22)
        batch = rng.standard_normal((3, 8, 6)).astype(np.float32)
        loss = model.forward_loss(batch, [0, 2, 1], train=True, rng=rng)
        loss.backward()
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        interior = [n for n in nodes.values() if n._backward is not None]
        leaves = [n for n in nodes.values() if n.requires_grad
                  and n._backward is None]
        assert len(interior) > 20
        assert all(n.grad is None for n in interior)
        params = list(model.params.values())
        assert {id(n) for n in leaves} == {id(p) for p in params}
        assert all(p.grad is not None for p in params)


class TestExtractEmbedding:
    def seq(self, t=25, seed=20):
        rng = np.random.default_rng(seed)
        return FeatureSequence(rng.standard_normal((t, 90)).astype(np.float32),
                               "utt")

    def test_deterministic(self):
        model = init_model(ModelConfig(n_speakers=4, d_k=16, d_v=16, d_ff=32),
                           seed=0)
        a = model.extract_embedding(self.seq())
        b = model.extract_embedding(self.seq())
        np.testing.assert_array_equal(a.vector, b.vector)
        assert a.utterance_id == "utt"

    def test_permutation_invariance(self):
        model = init_model(ModelConfig(n_speakers=4, d_k=16, d_v=16, d_ff=32),
                           seed=0)
        feats = self.seq()
        perm = np.random.default_rng(0).permutation(feats.frames.shape[0])
        a = model.extract_embedding(feats)
        b = model.extract_embedding(FeatureSequence(feats.frames[perm], "utt"))
        np.testing.assert_allclose(a.vector, b.vector, atol=1e-5)

    def test_width_under_default_config(self):
        model = init_model(ModelConfig(n_speakers=4), seed=0)
        assert model.extract_embedding(self.seq(t=12)).vector.shape == (400,)

    def test_empty_sequence_rejected(self):
        model = init_model(tiny_config(d_m=90), seed=0)
        with pytest.raises(ValueError):
            model.extract_embedding(
                FeatureSequence(np.zeros((0, 90), dtype=np.float32), "e"))

    def test_extraction_in_a_thread_leaves_training_graphs_alone(
            self, monkeypatch):
        """A worker thread held inside extraction's first attention call
        does not stop a training pass on the main thread, over the same
        model, from recording its graph; and the worker's embedding is the
        one a lone call gives."""
        model = init_model(tiny_config(d_m=90), seed=0)
        feats = self.seq()
        alone = model.extract_embedding(feats).vector
        entered, release = threading.Event(), threading.Event()
        attention = tz.attention

        def held_attention(*args, **kwargs):
            if threading.current_thread() is worker and not entered.is_set():
                entered.set()
                release.wait(timeout=60)
            return attention(*args, **kwargs)

        monkeypatch.setattr(tz, "attention", held_attention)
        result = {}
        worker = threading.Thread(
            target=lambda: result.update(emb=model.extract_embedding(feats)))
        worker.start()
        try:
            assert entered.wait(timeout=60)
            rng = np.random.default_rng(1)
            batch = rng.standard_normal((2, 11, 90)).astype(np.float32)
            model.forward_loss(batch, [0, 2], train=True, rng=rng).backward()
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert [name for name, p in model.params.items()
                if p.grad is None] == []
        assert result["emb"].vector.tobytes() == alone.tobytes()


class TestQueryBlocks:
    """Without a graph, attention walks blocks of ``tz._QUERY_ROWS`` query
    rows instead of building each (T, T) weight matrix whole."""

    @pytest.fixture(scope="class")
    def toy_model(self):
        return init_model(ModelConfig(n_speakers=4, d_k=32, d_v=32, d_ff=128),
                          seed=3)

    # Blocks of tens of rows: BLAS runs blocks of a few rows through other
    # kernels, which round differently, and the program never makes them.
    @pytest.mark.parametrize("frames, rows", [
        (50, 32), (300, 32), (2000, 32),
        (257, None), (2000, None)])  # None: the program's own block size
    def test_embeddings_match_unblocked(self, toy_model, monkeypatch, frames,
                                        rows):
        feats = FeatureSequence(np.random.default_rng(frames).standard_normal(
            (frames, 90)).astype(np.float32), "u")
        monkeypatch.setattr(tz, "_QUERY_ROWS", frames)
        whole = toy_model.extract_embedding(feats).vector
        monkeypatch.undo()
        if rows is not None:
            monkeypatch.setattr(tz, "_QUERY_ROWS", rows)
        blocked = toy_model.extract_embedding(feats).vector
        assert blocked.tobytes() == whole.tobytes()

    def test_trace_assembles_the_full_weights(self, toy_model, monkeypatch):
        x = Tensor(np.random.default_rng(4).standard_normal((70, 90))
                   .astype(np.float32))
        traces = []
        for rows in (70, 32):
            monkeypatch.setattr(tz, "_QUERY_ROWS", rows)
            traces.append([])
            toy_model.inference_view().encode(x, trace=traces[-1])
        for whole, blocked in zip(*traces):
            assert blocked.shape == (70, 70)
            assert blocked.tobytes() == whole.tobytes()

    def test_30000_frames_extract_in_bounded_memory(self):
        """A 30,000-frame sequence (5 minutes at 100 frames/s) extracts with
        a peak RSS under 250 MB, where one whole (T, T) float32 weight
        matrix alone would take 3.6 GB."""
        code = textwrap.dedent("""
            import resource
            # Fail with MemoryError, rather than take the memory, if the
            # whole (T, T) weights come back.
            resource.setrlimit(resource.RLIMIT_DATA, (1 << 30, 1 << 30))
            import numpy as np
            from saep.features import FeatureSequence
            from saep.model import ModelConfig, init_model
            model = init_model(ModelConfig(n_speakers=4, d_k=32, d_v=32,
                                           d_ff=128), seed=0)
            frames = np.random.default_rng(0).standard_normal((30000, 90))
            feats = FeatureSequence(frames.astype(np.float32), "long")
            vector = model.extract_embedding(feats).vector
            assert vector.shape == (400,) and np.isfinite(vector).all()
            # The peak RSS of this program alone: ru_maxrss would also count
            # the pages of the test process that forked it.
            with open("/proc/self/status") as fh:
                print([line.split()[1] for line in fh
                       if line.startswith("VmHWM:")][0])
        """)
        # One BLAS thread: RLIMIT_DATA and VmHWM also count the buffer that
        # OpenBLAS reserves per thread, which grows with the host's cores.
        env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout.split()[-1]) / 1024  # VmHWM is in kB
        assert peak_mb < 250, peak_mb


class TestCountParams:
    def test_single_matrix_model(self):
        model = init_model(tiny_config(), seed=0)
        assert model.params["enc0.w_q"].data.size == 6 * 4

    def test_breakdown_sums_to_total(self):
        config = ModelConfig(n_speakers=100)
        assert sum(param_breakdown(config).values()) \
            == count_params(config, "all")

    def test_default_config_reconciles(self):
        count = count_params(ModelConfig(n_speakers=1000),
                             "embedding-extractor")
        # published total for this configuration: 1.16M
        assert count == 1155596
        assert abs(count - 1.16e6) / 1.16e6 < 0.20

    def test_alternative_config_reconciles(self):
        count = count_params(ModelConfig(n_speakers=1000, d_k=64, d_v=64,
                                         d_ff=1024), "embedding-extractor")
        # published total for the small configuration: 0.45M
        assert abs(count - 0.45e6) / 0.45e6 < 0.35

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            count_params(tiny_config(), "bogus")
