import math

import numpy as np
import pytest

from saep import tensor as tz
from saep.features import FeatureSequence
from saep.gradcheck import gradient_check
from saep.model import ConfigError, ModelConfig, am_softmax_loss, init_model
from saep.tensor import Tensor


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
                                     dict(am_margin=-0.1)])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            tiny_config(**bad).validate()


class TestQkvProject:
    def test_identity_projection(self):
        model = init_model(tiny_config(d_k=6, d_v=6), seed=0)
        eye = np.eye(6, dtype=np.float32)
        model.params["enc0.w_q"].data = eye.copy()
        x = Tensor(np.random.default_rng(0).standard_normal((4, 6))
                   .astype(np.float32))
        q, _, _ = model.qkv_project(x, 0)
        np.testing.assert_allclose(q.data, x.data, rtol=1e-6)

    def test_single_row_hand_expansion(self, tiny_model):
        x = np.random.default_rng(1).standard_normal((1, 6)).astype(np.float32)
        q, k, v = tiny_model.qkv_project(Tensor(x), 0)
        np.testing.assert_allclose(
            q.data[0], x[0] @ tiny_model.params["enc0.w_q"].data, rtol=1e-5)

    def test_against_matmul_oracle(self, tiny_model):
        x = np.random.default_rng(2).standard_normal((3, 6)).astype(np.float32)
        q, k, v = tiny_model.qkv_project(Tensor(x), 0)
        p = tiny_model.params
        for out, w in ((q, "enc0.w_q"), (k, "enc0.w_k"), (v, "enc0.w_v")):
            np.testing.assert_allclose(out.data, x @ p[w].data, atol=1e-6)


class TestAttention:
    def test_zero_queries_give_column_mean(self, tiny_model):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((5, 4)).astype(np.float32)
        out = tiny_model.scaled_dot_attention(
            Tensor(np.zeros((5, 4), dtype=np.float32)),
            Tensor(rng.standard_normal((5, 4)).astype(np.float32)),
            Tensor(v))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (5, 1)),
                                   atol=1e-5)

    def test_single_position_passthrough(self, tiny_model):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((1, 4)).astype(np.float32)
        out = tiny_model.scaled_dot_attention(
            Tensor(rng.standard_normal((1, 4)).astype(np.float32)),
            Tensor(rng.standard_normal((1, 4)).astype(np.float32)),
            Tensor(v))
        np.testing.assert_allclose(out.data, v, rtol=1e-6)

    def test_scalar_softmax_oracle(self, tiny_model):
        q = Tensor([[1.0], [1.0]])
        k = Tensor([[10.0], [-10.0]])
        v = Tensor([[3.0, 1.0], [-5.0, 2.0]])
        out = tiny_model.scaled_dot_attention(q, k, v)
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


class TestPositionFfn:
    def test_zero_weights_zero_output(self, tiny_model):
        p = tiny_model.params
        for name in ("enc0.w_1", "enc0.w_2", "enc0.b_2"):
            p[name].data = np.zeros_like(p[name].data)
        x = Tensor(np.random.default_rng(6).standard_normal((3, 6))
                   .astype(np.float32))
        np.testing.assert_array_equal(tiny_model.position_ffn(x, 0).data, 0.0)

    def test_row_permutation_equivariance(self, tiny_model):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 6)).astype(np.float32)
        perm = rng.permutation(5)
        out = tiny_model.position_ffn(Tensor(x), 0).data
        out_p = tiny_model.position_ffn(Tensor(x[perm]), 0).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-6)

    def test_against_composition_oracle(self, tiny_model):
        p = tiny_model.params
        x = np.random.default_rng(8).standard_normal((4, 6)).astype(np.float32)
        hidden = np.maximum(x @ p["enc0.w_1"].data + p["enc0.b_1"].data, 0.0)
        expected = hidden @ p["enc0.w_2"].data + p["enc0.b_2"].data
        np.testing.assert_allclose(tiny_model.position_ffn(Tensor(x), 0).data,
                                   expected, atol=1e-5)


class TestEncoderBlock:
    def test_zero_weight_degenerate_is_finite(self):
        model = init_model(tiny_config(), seed=0)
        for name in model.params.names():
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


class TestHead:
    def test_eval_is_deterministic(self, tiny_model):
        c = Tensor(np.random.default_rng(14).standard_normal(6)
                   .astype(np.float32))
        l1, e1 = tiny_model.head_forward(c)
        l2, e2 = tiny_model.head_forward(c)
        np.testing.assert_array_equal(l1.data, l2.data)
        np.testing.assert_array_equal(e1.data, e2.data)

    def test_embedding_width_default_config(self):
        model = init_model(ModelConfig(n_speakers=4), seed=0)
        c = Tensor(np.random.default_rng(15).standard_normal(90)
                   .astype(np.float32))
        _, emb = model.head_forward(c)
        assert emb.shape == (400,)

    def test_embedding_nonnegative(self, tiny_model):
        c = Tensor(np.random.default_rng(16).standard_normal(6)
                   .astype(np.float32))
        _, emb = tiny_model.head_forward(c)
        assert np.all(emb.data >= 0.0)


class TestAmSoftmaxLoss:
    def test_margin_free_reduction(self):
        rng = np.random.default_rng(17)
        feats = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((6, 3)).astype(np.float32))
        labels = [0, 2, 1, 0]
        loss = am_softmax_loss(feats, labels, w, scale=30.0, margin=0.0)
        fn = feats.data / np.linalg.norm(feats.data, axis=1, keepdims=True)
        wn = w.data / np.linalg.norm(w.data, axis=0, keepdims=True)
        ref = tz.cross_entropy(Tensor(30.0 * (fn @ wn)), labels)
        np.testing.assert_allclose(loss.item(), ref.item(), atol=1e-6)

    def test_two_class_scalar_oracle(self):
        # Feature aligned with its class column, the other class orthogonal:
        # logits are (s * (1 - m), 0) = (18, 0).
        feats = Tensor([[2.0, 0.0]])
        w = Tensor([[1.0, 0.0], [0.0, 1.0]])
        loss = am_softmax_loss(feats, [0], w, scale=30.0, margin=0.4)
        expected = -math.log(math.exp(18.0) / (math.exp(18.0) + 1.0))
        np.testing.assert_allclose(loss.item(), expected, atol=1e-6)

    def test_scale_invariance_of_features(self):
        rng = np.random.default_rng(18)
        feats = rng.standard_normal((3, 5)).astype(np.float32) + 2.0
        w = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        labels = [1, 3, 0]
        a = am_softmax_loss(Tensor(feats), labels, w, 30.0, 0.4).item()
        b = am_softmax_loss(Tensor(10.0 * feats), labels, w, 30.0, 0.4).item()
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
        ref = tz.cross_entropy(Tensor(model.logits_eval(batch)), labels)
        assert loss.item() == ref.item()

    @pytest.mark.parametrize("loss_name", ["softmax", "am_softmax"])
    def test_gradient_check_tiny_config(self, loss_name):
        model = init_model(tiny_config(loss=loss_name), seed=1)
        rng = np.random.default_rng(100)
        batch = rng.standard_normal((2, 7, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=2)
        rep = gradient_check(
            lambda: model.forward_loss(batch, labels, train=False),
            [v for _, v in model.params.items()], tol=1e-2,
            labels=model.params.names())
        assert rep.passed, str(rep)


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


class TestCountParams:
    def test_single_matrix_model(self):
        model = init_model(tiny_config(), seed=0)
        assert model.params["enc0.w_q"].data.size == 6 * 4

    def test_breakdown_sums_to_total(self):
        model = init_model(ModelConfig(n_speakers=100), seed=0)
        breakdown = model.param_breakdown()
        assert sum(breakdown.values()) == model.count_params("all")

    def test_default_config_reconciles(self):
        model = init_model(ModelConfig(n_speakers=1000), seed=0)
        # published total for this configuration: 1.16M
        assert model.count_params("embedding-extractor") == 1155596
        assert abs(model.count_params("embedding-extractor") - 1.16e6) \
            / 1.16e6 < 0.20

    def test_alternative_config_reconciles(self):
        model = init_model(ModelConfig(n_speakers=1000, d_k=64, d_v=64,
                                       d_ff=1024), seed=0)
        # published total for the small configuration: 0.45M
        assert abs(model.count_params("embedding-extractor") - 0.45e6) \
            / 0.45e6 < 0.35

    def test_unknown_convention(self):
        model = init_model(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model.count_params("bogus")
