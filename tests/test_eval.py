import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saep import verification
from saep.model import SpeakerEmbedding
from saep.verification import NonFiniteError, ScoredTrial, Trial, \
    TrialListError, ZeroNormError, _det, compute_eer, evaluate, \
    load_scores, load_trials, save_scores, save_trials, score_trials


def emb(vec, utt_id="u"):
    return SpeakerEmbedding(np.asarray(vec, dtype=np.float32), utt_id)


def pair_score(a, b):
    """The score of one trial of ``a`` against ``b``."""
    return score_trials([Trial(1, "a", "b")], {"a": a, "b": b})[0].score


def scored(targets, nontargets):
    out = [ScoredTrial(s, 1, "e%d" % i, "t%d" % i)
           for i, s in enumerate(targets)]
    out += [ScoredTrial(s, 0, "e%d" % i, "t%d" % i)
            for i, s in enumerate(nontargets, len(targets))]
    return out


class TestCosineScore:
    def test_self_similarity_is_one(self):
        a = emb([1.0, 2.0, -3.0])
        assert pair_score(a, a) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert pair_score(emb([1.0, 0.0]), emb([0.0, 5.0])) \
            == pytest.approx(0.0)

    def test_hand_value(self):
        # [1, 0] . [1, 1] / (1 * sqrt(2)) = 1/sqrt(2)
        assert pair_score(emb([1.0, 0.0]), emb([1.0, 1.0])) \
            == pytest.approx(1.0 / math.sqrt(2.0))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = emb(rng.standard_normal(20))
        b = emb(rng.standard_normal(20))
        assert pair_score(a, b) == pytest.approx(pair_score(b, a))
        scaled = emb(7.0 * a.vector)
        assert pair_score(scaled, b) == pytest.approx(pair_score(a, b))

    def test_zero_norm_names_utterance(self):
        with pytest.raises(ZeroNormError, match="bad"):
            pair_score(emb([0.0, 0.0], "bad"), emb([1.0, 0.0]))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            pair_score(emb([1.0]), emb([1.0, 0.0]))


class TestScoreTrials:
    def test_composition(self):
        embeddings = {"a": emb([1.0, 0.0], "a"), "b": emb([1.0, 1.0], "b")}
        trials = [Trial(1, "a", "b"), Trial(0, "a", "a")]
        out = score_trials(trials, embeddings)
        assert out[0].score == pytest.approx(1.0 / math.sqrt(2.0))
        assert out[1].score == pytest.approx(1.0)
        assert (out[0].label, out[1].label) == (1, 0)

    def test_scores_equal_pairwise_cosine_bit_for_bit(self):
        # Each norm is taken once per embedding, not once per trial; the
        # embeddings share one utterance_id, so only the trial ids tell them
        # apart.
        rng = np.random.default_rng(3)
        embeddings = {name: emb(rng.standard_normal(16) * scale)
                      for name, scale in (("a", 1.0), ("b", 5.0), ("c", 0.1))}
        trials = [Trial(int(rng.integers(2)), e, t)
                  for e in "abc" for t in "abc"]
        out = score_trials(trials, embeddings)
        assert [s.score for s in out] == [
            pair_score(embeddings[t.enroll_id], embeddings[t.test_id])
            for t in trials]

    def test_unused_zero_norm_embedding_is_ignored(self):
        embeddings = {"a": emb([1.0, 0.0], "a"), "b": emb([1.0, 1.0], "b"),
                      "zero": emb([0.0, 0.0], "zero")}
        out = score_trials([Trial(1, "a", "b")], embeddings)
        assert out[0].score == pytest.approx(1.0 / math.sqrt(2.0))
        with pytest.raises(ZeroNormError, match="zero"):
            score_trials([Trial(1, "a", "b"), Trial(0, "b", "zero")],
                         embeddings)

    def test_missing_id(self):
        with pytest.raises(TrialListError, match="ghost"):
            score_trials([Trial(1, "a", "ghost")],
                         {"a": emb([1.0], "a")})


def reference_scores(trials, embeddings):
    """The per-trial float64 loop the kernel replaces, with the non-finite
    check beside the zero-norm one: each trial checks both ids, then both
    shapes, then each norm, enroll side first."""
    out = []
    for trial in trials:
        for utt_id in (trial.enroll_id, trial.test_id):
            if utt_id not in embeddings:
                raise TrialListError("no embedding for utterance %r"
                                     % utt_id)
        a, b = embeddings[trial.enroll_id], embeddings[trial.test_id]
        va = np.asarray(a.vector, dtype=np.float64)
        vb = np.asarray(b.vector, dtype=np.float64)
        if va.ndim != 1 or va.shape != vb.shape:
            raise ValueError("embeddings %r and %r must be vectors of one "
                             "width, got shapes %s and %s"
                             % (a.utterance_id, b.utterance_id, va.shape,
                                vb.shape))
        norms = []
        for e, v in ((a, va), (b, vb)):
            norms.append(np.linalg.norm(v))
            if norms[-1] == 0.0:
                raise ZeroNormError("embedding %r has zero norm"
                                    % e.utterance_id)
            if not np.isfinite(norms[-1]):
                raise NonFiniteError("embedding %r is not finite (its norm "
                                     "is %s)" % (e.utterance_id, norms[-1]))
        out.append(float(np.dot(va, vb) / (norms[0] * norms[1])))
    return out


def outcome(fn, *args):
    """What ``fn`` returns, or the class and message of its ValueError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_matches_reference(trials, embeddings):
    """Scores within 1e-12 of the reference and equal to it in ``%.6f``,
    or the reference's error class and message."""
    want = outcome(reference_scores, trials, embeddings)
    got = outcome(score_trials, trials, embeddings)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    got = [s.score for s in got]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert ["%.6f" % g for g in got] == ["%.6f" % w for w in want]


component = st.floats(-100.0, 100.0, width=32)
ID_POOL = ["u%d" % i for i in range(6)]


@st.composite
def trial_lists(draw, widths=st.integers(1, 6)):
    """Nonzero embeddings for a few ids, each id of one width drawn from
    ``widths``, and trials that pair ids of equal width."""
    width_of = {u: draw(widths) for u in ID_POOL}
    embeddings = {u: emb(draw(st.lists(component, min_size=w, max_size=w)
                              .filter(any)), u)
                  for u, w in width_of.items()}
    pairs = [(a, b) for a in ID_POOL for b in ID_POOL
             if width_of[a] == width_of[b]]
    trials = draw(st.lists(st.builds(lambda label, pair: Trial(label, *pair),
                                     st.integers(0, 1),
                                     st.sampled_from(pairs)), max_size=30))
    return trials, embeddings


FAULTS = {
    "missing": None,
    "zero_norm": np.zeros(3, np.float32),
    "non_finite": np.array([1.0, np.nan, 2.0], np.float32),
    "infinite": np.array([np.inf, 0.0, 1.0], np.float32),
    "rank2": np.ones((1, 3), np.float32),
    "width": np.ones(4, np.float32),
}


class TestScoreTrialsAgainstReference:
    @given(lists=trial_lists(widths=st.just(3)))
    def test_scores_equal_reference(self, lists):
        assert_matches_reference(*lists)

    @given(lists=trial_lists())
    def test_mixed_widths_score(self, lists):
        assert_matches_reference(*lists)

    @given(lists=trial_lists(widths=st.just(3)),
           faults=st.lists(st.tuples(st.sampled_from(sorted(FAULTS)),
                                     st.integers(0, 29), st.booleans()),
                           min_size=1, max_size=3))
    def test_faults_raise_as_reference(self, lists, faults):
        trials, embeddings = lists
        trials = trials or [Trial(1, "u0", "u1")]
        for kind, position, test_side in faults:
            trial = trials[position % len(trials)]
            utt_id = "%s_%d" % (kind, position)
            if FAULTS[kind] is not None:
                embeddings[utt_id] = emb(FAULTS[kind], utt_id)
            if test_side:
                trial.test_id = utt_id
            else:
                trial.enroll_id = utt_id
        assert_matches_reference(trials, embeddings)

    def test_many_blocks_of_two_interleaved_widths(self, monkeypatch):
        """1,500 trials that alternate between widths 7 and 16 fill more
        than one block of each width; the block size changes no bit."""
        rng = np.random.default_rng(8)
        # An id's parity gives its width.
        embeddings = {"u%d" % i: emb(rng.standard_normal(16 - 9 * (i % 2)),
                                     "u%d" % i) for i in range(200)}
        trials = [Trial(int(rng.integers(2)),
                        "u%d" % (2 * rng.integers(100) + k % 2),
                        "u%d" % (2 * rng.integers(100) + k % 2))
                  for k in range(1500)]
        assert len(trials) // 2 > 512 == verification._CHUNK
        assert_matches_reference(trials, embeddings)
        scores = np.array([s.score for s in score_trials(trials, embeddings)])
        monkeypatch.setattr(verification, "_CHUNK", 7)
        small = np.array([s.score for s in score_trials(trials, embeddings)])
        assert small.tobytes() == scores.tobytes()

    def test_empty_list_scores_nothing(self):
        assert score_trials([], {"a": emb([1.0], "a")}) == []


class TestDetPoints:
    @pytest.mark.parametrize("seed", range(50))
    def test_monotone_staircase(self, seed):
        rng = np.random.default_rng(seed)
        _, far, frr = _det(scored(rng.standard_normal(30),
                                  rng.standard_normal(40)))
        assert (np.diff(far) <= 0).all() and (np.diff(frr) >= 0).all()
        assert (far[0], frr[0]) == (1.0, 0.0)
        assert (far[-1], frr[-1]) == (0.0, 1.0)

    def test_single_pair(self):
        thresholds, far, frr = _det(scored([0.9], [0.1]))
        assert thresholds.tolist()[:2] == [0.1, 0.9] and len(thresholds) == 3
        assert far.tolist() == [1.0, 0.0, 0.0]
        assert frr.tolist() == [0.0, 0.0, 1.0]

    def test_needs_both_classes(self):
        with pytest.raises(TrialListError):
            _det(scored([0.5], []))


def reference_det(scores):
    """The per-threshold mask loop: FAR and FRR counted at every distinct
    score and at one threshold above the maximum."""
    targets = np.asarray([s.score for s in scores if s.label == 1])
    nontargets = np.asarray([s.score for s in scores if s.label == 0])
    thresholds = np.unique(np.concatenate([targets, nontargets]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    return [(float(t), float((nontargets >= t).mean()),
             float((targets < t).mean())) for t in thresholds]


def reference_eer(scores):
    points = reference_det(scores)
    diffs = [far - frr for _, far, frr in points]
    for i, d in enumerate(diffs):
        if d == 0.0:
            return points[i][1], points[i][0]
        if d > 0.0 and diffs[i + 1] < 0.0:
            t0, far0, frr0 = points[i]
            t1, far1, frr1 = points[i + 1]
            alpha = d / (d - diffs[i + 1])
            eer = 0.5 * ((far0 + alpha * (far1 - far0))
                         + (frr0 + alpha * (frr1 - frr0)))
            return eer, t0 + alpha * (t1 - t0)


# Quarter steps in [-2, 2]: few distinct values, so ties within and across
# the two classes are common.
tied_scores = st.lists(st.integers(-8, 8).map(lambda k: k / 4.0),
                       min_size=1, max_size=40)


class TestAgainstReference:
    @given(targets=tied_scores, nontargets=tied_scores)
    def test_det_equals_reference(self, targets, nontargets):
        trials = scored(targets, nontargets)
        thresholds, far, frr = _det(trials)
        assert list(zip(thresholds.tolist(), far.tolist(), frr.tolist())) \
            == reference_det(trials)

    @given(targets=tied_scores, nontargets=tied_scores)
    def test_compute_eer_equals_reference(self, targets, nontargets):
        trials = scored(targets, nontargets)
        assert compute_eer(trials) == reference_eer(trials)


# Strictly increasing maps that keep distinct quarter-step scores distinct
# in floating point.
increasing_maps = st.sampled_from([math.exp, math.atan, lambda s: s ** 3,
                                   lambda s: 3.0 * s - 1.0])


class TestProperties:
    @given(targets=tied_scores, nontargets=tied_scores, f=increasing_maps)
    def test_invariant_under_increasing_score_map(self, targets, nontargets,
                                                  f):
        trials = scored(targets, nontargets)
        mapped = scored([f(s) for s in targets], [f(s) for s in nontargets])
        for got, want in zip(_det(mapped)[1:], _det(trials)[1:]):
            np.testing.assert_array_equal(got, want)
        assert compute_eer(mapped)[0] == compute_eer(trials)[0]

    @given(targets=tied_scores, nontargets=tied_scores)
    def test_det_rates_are_monotone(self, targets, nontargets):
        _, far, frr = _det(scored(targets, nontargets))
        assert (np.diff(far) <= 0).all() and (np.diff(frr) >= 0).all()
        assert (far[0], frr[0]) == (1.0, 0.0)
        assert (far[-1], frr[-1]) == (0.0, 1.0)


class TestMinDcf:
    def test_hand_case_is_one_third(self):
        # At threshold 0.8 one of three targets is rejected and no
        # nontarget accepted: (0.01 * 1/3 + 0.99 * 0) / 0.01 = 1/3.
        eer, thr, min_dcf = evaluate(scored([0.9, 0.8, 0.2],
                                            [0.7, 0.1, 0.05]))
        assert (eer, thr) == compute_eer(scored([0.9, 0.8, 0.2],
                                                [0.7, 0.1, 0.05]))
        assert min_dcf == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(targets=tied_scores, nontargets=tied_scores)
    def test_equals_reference(self, targets, nontargets):
        trials = scored(targets, nontargets)
        want = min(0.01 * frr + 0.99 * far
                   for _, far, frr in reference_det(trials)) / 0.01
        min_dcf = evaluate(trials)[2]
        assert min_dcf == pytest.approx(want, rel=1e-12)
        assert 0.0 <= min_dcf <= 1.0


class TestComputeEer:
    def test_perfectly_separated(self):
        eer, thr = compute_eer(scored([0.8, 0.9], [0.1, 0.2]))
        assert eer == 0.0
        assert 0.2 < thr <= 0.8

    def test_hand_case_is_exactly_one_third(self):
        # targets {0.9, 0.8, 0.2}, nontargets {0.7, 0.1, 0.05}: at
        # threshold 0.7 one of three targets is rejected and one of three
        # nontargets accepted, so FAR = FRR = 1/3 exactly.
        eer, thr = compute_eer(scored([0.9, 0.8, 0.2], [0.7, 0.1, 0.05]))
        assert eer == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert thr == pytest.approx(0.7)

    def test_iid_scores_give_half(self):
        rng = np.random.default_rng(123)
        eer, _ = compute_eer(scored(rng.standard_normal(10000),
                                    rng.standard_normal(10000)))
        assert abs(eer - 0.5) < 0.02

    def test_label_shuffle_gives_half(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(20000)
        labels = rng.integers(0, 2, size=20000)
        trials = [ScoredTrial(float(s), int(l), "e", "t")
                  for s, l in zip(values, labels)]
        eer, _ = compute_eer(trials)
        assert abs(eer - 0.5) < 0.02

    @pytest.mark.parametrize("seed", range(50))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        targets = rng.standard_normal(25) + 0.5
        nontargets = rng.standard_normal(25)
        eer, _ = compute_eer(scored(targets, nontargets))
        # tanh is strictly increasing, so error trade-offs are unchanged
        eer_t, _ = compute_eer(scored(np.tanh(targets),
                                      np.tanh(nontargets)))
        assert eer == pytest.approx(eer_t, abs=1e-9)

    def test_eer_between_zero_and_half_mostly(self):
        rng = np.random.default_rng(9)
        eer, _ = compute_eer(scored(rng.standard_normal(200) + 2.0,
                                    rng.standard_normal(200)))
        assert 0.0 <= eer < 0.2


class TestTextFormats:
    def test_trials_roundtrip(self, tmp_path):
        trials = [Trial(1, "a", "b"), Trial(0, "c", "d")]
        path = tmp_path / "trials.txt"
        save_trials(trials, path)
        assert load_trials(path) == trials

    def test_scores_roundtrip(self, tmp_path):
        trials = [ScoredTrial(0.123456, 1, "a", "b"),
                  ScoredTrial(-0.5, 0, "c", "d")]
        path = tmp_path / "scores.txt"
        save_scores(trials, path)
        loaded = load_scores(path)
        assert loaded[0].score == pytest.approx(0.123456, abs=1e-6)
        assert loaded[1].score == pytest.approx(-0.5, abs=1e-6)
        assert [(s.label, s.enroll_id, s.test_id) for s in loaded] \
            == [(1, "a", "b"), (0, "c", "d")]

    def test_bad_trial_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 a b\n2 c d\n")
        with pytest.raises(TrialListError, match=":2:"):
            load_trials(path)

    def test_empty_trial_list_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(TrialListError, match="empty"):
            load_trials(path)
