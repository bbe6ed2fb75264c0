"""Feature-based emotion classifier and discriminator stand-ins."""
import math

import numpy as np
import pytest

from emodecode.baselines import SamplingConfig, top_p_decode
from emodecode.emotion import ALL_QUADRANTS, EmotionQuadrant, argmax_quadrant, check_distribution
from emodecode.errors import EmptyCorpus, NotFitted, SequenceTooShort
from emodecode.models.base import EvaluatorBudget
from emodecode.models import heuristic
from emodecode.models.heuristic import (
    _MAJOR_PROFILE,
    _MINOR_PROFILE,
    HeuristicDiscriminator,
    HeuristicEmotionClassifier,
    _cached_key_correlations,
    _Features,
    _key_correlations,
    _sequence_features,
)
from emodecode.remi.piece import DEFAULT_BPM
from emodecode.remi.tokens import KIND_PAIR_LEGAL, N_DURATION_BINS, VOCAB, Token, TokenKind, complete_bar_prefix

from conftest import style_tokens
from doubles import UniformPolicy


@pytest.fixture(scope="module")
def fitted(steering_corpus):
    sequences = [seq for seq, _ in steering_corpus]
    classifier = HeuristicEmotionClassifier(VOCAB).fit(sequences)
    discriminator = HeuristicDiscriminator(VOCAB).fit(sequences)
    return classifier, discriminator


def rolled_correlation(hist: np.ndarray, profile: np.ndarray) -> float:
    """Best Pearson correlation, rolling the centred profile on every call."""
    if hist.sum() <= 0.0 or np.ptp(hist) == 0.0:
        return 0.0
    h = hist - hist.mean()
    h_norm = math.sqrt(float(h @ h))
    p = profile - profile.mean()
    p_norm = math.sqrt(float(p @ p))
    best = -1.0
    for shift in range(12):
        best = max(best, float(h @ np.roll(p, shift)) / (h_norm * p_norm))
    return best


def numpy_sequence_stats(seq, vocab):
    """The numpy feature pass the evaluators used before: (tempo, density, velocity, pc, dur)."""
    arr = np.asarray(seq, dtype=np.int64)
    kinds = vocab.kind_codes[arr]
    values = vocab.values[arr].astype(np.int64)
    bars = int(np.count_nonzero(kinds == int(TokenKind.BAR)))
    tempo_vals = values[kinds == int(TokenKind.TEMPO)]
    tempo = float(np.mean(30.0 + 5.0 * tempo_vals)) if tempo_vals.size else DEFAULT_BPM
    vel_vals = values[kinds == int(TokenKind.VELOCITY)]
    notes = int(vel_vals.size)
    velocity = float(np.minimum(vel_vals * 4, 127).mean()) if notes else 0.0
    dur_idx = np.flatnonzero(kinds == int(TokenKind.DURATION))
    if dur_idx.size:
        dur_vals = values[dur_idx]
        pitch_vals = values[dur_idx - 1]
        pc_hist = np.bincount(pitch_vals % 12, weights=dur_vals.astype(np.float64), minlength=12)
        dur_hist = np.bincount(dur_vals - 1, minlength=N_DURATION_BINS).astype(np.float64)
    else:
        pc_hist = np.zeros(12, dtype=np.float64)
        dur_hist = np.zeros(N_DURATION_BINS, dtype=np.float64)
    density = notes / max(1, bars)
    return tempo, density, velocity, pc_hist, dur_hist


def numpy_validity_fraction(seq, vocab) -> float:
    """The discriminator's numpy grammar-validity fraction from before."""
    if len(seq) < 2:
        return 1.0
    kinds = vocab.kind_codes[np.asarray(seq, dtype=np.int64)]
    ok = KIND_PAIR_LEGAL[kinds[:-1], kinds[1:]]
    if kinds[0] == int(TokenKind.START) and kinds[1] == int(TokenKind.EMOTION):
        ok = ok.copy()
        ok[0] = True
    return float(ok.mean())


def reference_features(ids, vocab) -> _Features:
    """``_sequence_features`` rebuilt from the numpy reference."""
    tempo, density, velocity, pc_hist, dur_hist = numpy_sequence_stats(list(ids), vocab)
    return _Features(
        tempo=tempo,
        density=density,
        velocity=velocity,
        pc_hist=tuple(int(x) for x in pc_hist),
        dur_hist=tuple(int(x) for x in dur_hist),
        validity=numpy_validity_fraction(list(ids), vocab),
    )


def assert_features_match(seq):
    got = _sequence_features(tuple(seq), VOCAB)
    tempo, density, velocity, pc_hist, dur_hist = numpy_sequence_stats(seq, VOCAB)
    assert (got.tempo, got.density, got.velocity) == (tempo, density, velocity)
    assert list(got.pc_hist) == pc_hist.tolist()
    assert list(got.dur_hist) == dur_hist.tolist()
    assert got.validity == numpy_validity_fraction(seq, VOCAB)


def grammar_walk(rng, length: int) -> list[int]:
    """START, sometimes a control token, then random legal successors."""
    seq = [VOCAB.start_id]
    if rng.random() < 0.3:
        seq.append(VOCAB.emotion_id(ALL_QUADRANTS[int(rng.integers(4))]))
    while len(seq) < length:
        successors = VOCAB.successors(seq[-1])
        if successors.size == 0:
            break
        seq.append(int(rng.choice(successors)))
    return seq


def reference_distribution(classifier, seq) -> np.ndarray:
    """The classifier's quadrant distribution by its numpy formula from before the memo."""
    f = reference_features(complete_bar_prefix(seq, VOCAB), VOCAB)
    feats = np.array([f.tempo, f.density, f.velocity], dtype=np.float64)
    means, stds = classifier.means_, classifier.stds_
    z = np.where(stds > 1e-9, (feats - means) / np.where(stds > 1e-9, stds, 1.0), 0.0)
    arousal = float(np.dot(heuristic._AROUSAL_WEIGHTS, z))
    hist = np.array(f.pc_hist, dtype=np.float64)
    valence = rolled_correlation(hist, _MAJOR_PROFILE) - rolled_correlation(hist, _MINOR_PROFILE)
    scores = np.array([arousal + valence, arousal - valence, -arousal - valence, -arousal + valence])
    exps = np.exp(scores - scores.max())
    return exps / exps.sum()


def reference_realness(discriminator, seq) -> float:
    """The discriminator's realness by its numpy formula from before the memo."""
    f = reference_features(complete_bar_prefix(seq, VOCAB), VOCAB)
    pc_hist = np.array(f.pc_hist, dtype=np.float64)
    dur_hist = np.array(f.dur_hist, dtype=np.float64)
    entropy = fit = 0.0
    if pc_hist.sum() > 0.0:
        probs = pc_hist[pc_hist > 0.0] / pc_hist.sum()
        entropy = float(-(probs * np.log2(probs)).sum()) / math.log2(12)
    if dur_hist.sum() > 0.0:
        fit = float(np.minimum(dur_hist / dur_hist.sum(), discriminator.duration_hist_).sum())
    logit = heuristic._REALNESS_BIAS + float(np.dot(heuristic._REALNESS_WEIGHTS, (f.validity, entropy, fit)))
    return 1.0 / (1.0 + math.exp(-logit))


def evaluable_walks(seed: int, count: int = 5000) -> list[list[int]]:
    """The grammar walks, of up to 120 ids, that close at least one bar."""
    rng = np.random.default_rng(seed)
    walks = (grammar_walk(rng, int(rng.integers(1, 120))) for _ in range(count))
    return [walk for walk in walks if complete_bar_prefix(walk, VOCAB) is not None]


class UncachedClassifier(HeuristicEmotionClassifier):
    MEMO_SIZE = AROUSAL_MEMO_SIZE = 0


class UncachedDiscriminator(HeuristicDiscriminator):
    MEMO_SIZE = FIT_MEMO_SIZE = 0


class TestFeaturePass:
    def test_every_corpus_prefix_matches_numpy_reference(self, steering_corpus):
        for seq, _ in steering_corpus:
            for n in range(len(seq) + 1):
                assert_features_match(seq[:n])

    def test_random_grammar_walks_match_numpy_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(5000):
            seq = grammar_walk(rng, int(rng.integers(1, 80)))
            assert_features_match(seq)
            assert_features_match(np.array(seq))  # numpy ints

    def test_arbitrary_ids_match_numpy_reference(self):
        # illegal pairs, and a Duration at index 0 that takes the last token's value
        rng = np.random.default_rng(31)
        for _ in range(2000):
            seq = rng.integers(0, VOCAB.vocab_size, int(rng.integers(0, 40)))
            assert_features_match(seq.tolist())
            assert_features_match(seq)

    def test_memo_returns_reference_values_and_counts_every_call(
        self, fitted, steering_corpus, monkeypatch
    ):
        classifier, discriminator = fitted
        a, b = steering_corpus[0][0], steering_corpus[9][0]
        with monkeypatch.context() as patch:
            patch.setattr(heuristic, "_sequence_features", reference_features)
            budget = EvaluatorBudget()
            expected = {
                id(seq): (classifier.distribution(seq, budget), discriminator.realness(seq, budget))
                for seq in (a, b)
            }
        budget = EvaluatorBudget()
        _sequence_features.cache_clear()
        for calls, seq in enumerate((a, b, a), start=1):
            want_e, want_d = expected[id(seq)]
            misses = _sequence_features.cache_info().misses
            assert np.array_equal(classifier.distribution(seq, budget), want_e)
            assert (budget.e_calls, budget.d_calls) == (calls, calls - 1)
            assert _sequence_features.cache_info().misses == misses + 1  # one entry: A was evicted
            hits = _sequence_features.cache_info().hits
            assert discriminator.realness(seq, budget) == want_d
            assert (budget.e_calls, budget.d_calls) == (calls, calls)
            assert _sequence_features.cache_info().hits == hits + 1  # realness reused the pass

    def test_fit_matches_numpy_reference(self, fitted, steering_corpus):
        classifier, discriminator = fitted
        stats = [numpy_sequence_stats(seq, VOCAB) for seq, _ in steering_corpus]
        rows = np.asarray([s[:3] for s in stats], dtype=np.float64)
        assert np.array_equal(classifier.means_, rows.mean(axis=0))
        assert np.array_equal(classifier.stds_, rows.std(axis=0))
        hist = np.ones(N_DURATION_BINS, dtype=np.float64)
        for s in stats:
            hist += s[4]
        assert np.array_equal(discriminator.duration_hist_, hist / hist.sum())


class TestProfileCorrelation:
    # up to 40 notes: a few bars; up to 400: the long sequences SBBS and wide rollouts score
    @pytest.mark.parametrize("max_notes", [40, 400])
    @pytest.mark.parametrize(
        "profile, index", [(_MAJOR_PROFILE, 0), (_MINOR_PROFILE, 1)], ids=["major", "minor"]
    )
    def test_equals_rolled_reference_bit_for_bit(self, profile, index, max_notes):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            notes = int(rng.integers(1, max_notes))
            pitch_classes = rng.integers(0, 12, notes)
            durations = rng.integers(1, N_DURATION_BINS + 1, notes).astype(np.float64)
            hist = np.bincount(pitch_classes, weights=durations, minlength=12)
            assert _key_correlations(hist)[index] == rolled_correlation(hist, profile)

    def test_memoised_equals_unmemoised(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            notes = int(rng.integers(1, 40))
            pitch_classes = rng.integers(0, 12, notes)
            durations = rng.integers(1, N_DURATION_BINS + 1, notes).astype(np.float64)
            hist = np.bincount(pitch_classes, weights=durations, minlength=12)
            counts = tuple(int(x) for x in hist)
            assert _cached_key_correlations(counts) == _key_correlations(hist)
        assert _cached_key_correlations.cache_info().maxsize <= 1024

    def test_flat_or_empty_histogram_is_zero(self):
        assert _key_correlations(np.zeros(12)) == (0.0, 0.0)
        assert _key_correlations(np.full(12, 3.0)) == (0.0, 0.0)


class TestEvaluatorMemos:
    def test_key_correlations_equal_rolled_reference_on_integer_histograms(self):
        rng = np.random.default_rng(41)
        hists = [(0,) * 12, (3,) * 12, (1,) * 12]
        hists += [tuple(n if i == pc else 0 for i in range(12)) for pc in range(12) for n in (1, 7)]
        hists += [tuple(int(x) for x in rng.integers(0, m, 12)) for m in (2, 5, 40, 2000) for _ in range(500)]
        walks = evaluable_walks(37)
        hists += [_sequence_features(tuple(walk), VOCAB).pc_hist for walk in walks]
        for counts in hists:
            hist = np.array(counts, dtype=np.float64)
            want = (rolled_correlation(hist, _MAJOR_PROFILE), rolled_correlation(hist, _MINOR_PROFILE))
            assert _key_correlations(counts) == want
            assert _cached_key_correlations(counts) == want

    def test_memoised_values_equal_the_reference_and_every_call_counts(self, steering_corpus):
        sequences = [seq for seq, _ in steering_corpus]
        classifier = HeuristicEmotionClassifier(VOCAB).fit(sequences)
        discriminator = HeuristicDiscriminator(VOCAB).fit(sequences)
        uncached = UncachedClassifier(VOCAB).fit(sequences), UncachedDiscriminator(VOCAB).fit(sequences)
        walks = evaluable_walks(43)
        assert len(walks) > 3000
        budget, spare = EvaluatorBudget(), EvaluatorBudget()
        # then the last 100 again, through a fresh feature pass: equal keys in new tuples
        for calls, walk in enumerate(walks + walks[-100:], start=1):
            if calls == len(walks) + 1:
                _sequence_features.cache_clear()
            vec = classifier.distribution(walk, budget)
            assert np.array_equal(vec, reference_distribution(classifier, walk))
            assert np.array_equal(vec, uncached[0].distribution(walk, spare))
            realness = discriminator.realness(walk, budget)
            assert realness == reference_realness(discriminator, walk)
            assert realness == uncached[1].realness(walk, spare)
            assert (budget.e_calls, budget.d_calls) == (calls, calls)
        memos = [
            (classifier._memo, classifier.MEMO_SIZE),
            (classifier._arousal, classifier.AROUSAL_MEMO_SIZE),
            (discriminator._memo, discriminator.MEMO_SIZE),
            (discriminator._duration_fit, discriminator.FIT_MEMO_SIZE),
        ]
        for memo, size in memos:
            info = memo.cache_info()
            assert info.hits >= 100
            assert info.maxsize == size and info.currsize <= size
        inner = (uncached[0]._memo, uncached[0]._arousal, uncached[1]._memo, uncached[1]._duration_fit)
        assert [memo.cache_info().currsize for memo in inner] == [0, 0, 0, 0]

    def test_refit_never_serves_a_stale_value(self, steering_corpus):
        sequences = [seq for seq, _ in steering_corpus]
        walks = evaluable_walks(47, count=400)
        classifier = HeuristicEmotionClassifier(VOCAB).fit(sequences)
        discriminator = HeuristicDiscriminator(VOCAB).fit(sequences)
        budget = EvaluatorBudget()
        # with a note, so the duration fit and with it realness depend on the corpus
        noted = [w for w in walks if sum(reference_features(complete_bar_prefix(w, VOCAB), VOCAB).dur_hist)]
        probes = sequences[::6] + noted[:40]
        before = [(classifier.distribution(s, budget), discriminator.realness(s, budget)) for s in probes]
        classifier.fit(walks)
        discriminator.fit(walks)
        fresh = HeuristicEmotionClassifier(VOCAB).fit(walks), HeuristicDiscriminator(VOCAB).fit(walks)
        for seq, (vec, realness) in zip(probes, before):
            again = classifier.distribution(seq, budget)
            assert np.array_equal(again, fresh[0].distribution(seq, budget))
            assert not np.array_equal(again, vec)
            assert discriminator.realness(seq, budget) == fresh[1].realness(seq, budget) != realness

    def test_loaded_model_starts_with_an_empty_memo(self, fitted, steering_corpus, tmp_path):
        classifier, discriminator = fitted
        budget = EvaluatorBudget()
        for seq, _ in steering_corpus:
            classifier.distribution(seq, budget)
            discriminator.realness(seq, budget)
        for model, inner, name in (
            (classifier, "_arousal", "clf.json"),
            (discriminator, "_duration_fit", "disc.json"),
        ):
            model.save(tmp_path / name)
            back = type(model).load(tmp_path / name, VOCAB)
            for memo in ("_memo", inner):
                assert getattr(model, memo).cache_info().currsize > 0
                assert getattr(back, memo).cache_info().currsize == 0

    def test_fit_empties_every_memo(self, steering_corpus):
        sequences = [seq for seq, _ in steering_corpus]
        classifier = HeuristicEmotionClassifier(VOCAB).fit(sequences)
        discriminator = HeuristicDiscriminator(VOCAB).fit(sequences)
        budget = EvaluatorBudget()
        for seq in sequences:
            classifier.distribution(seq, budget)
            discriminator.realness(seq, budget)
        memos = (classifier._memo, classifier._arousal, discriminator._memo, discriminator._duration_fit)
        assert all(memo.cache_info().currsize > 0 for memo in memos)
        classifier.fit(sequences)
        discriminator.fit(sequences)
        assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0, 0]

    def test_returned_distribution_is_read_only(self, fitted, steering_corpus):
        classifier, _ = fitted
        vec = classifier.distribution(steering_corpus[3][0], EvaluatorBudget())
        with pytest.raises(ValueError):
            vec[0] = 1.0
        with pytest.raises(ValueError):
            vec *= 2.0
        assert classifier.distribution(steering_corpus[3][0], EvaluatorBudget()) is vec


class TestCheckDistribution:
    @pytest.mark.parametrize(
        "vec",
        [
            [float("nan"), 0.5, 0.25, 0.25],
            [0.25, 0.25, 0.5, float("nan")],
            [float("inf"), 0.0, 0.0, 0.0],
            [float("inf"), float("-inf"), 0.5, 0.5],
            [float("-inf"), 0.5, 0.5, 0.5],
            [-0.1, 0.6, 0.25, 0.25],  # sums to 1
            [0.5, 0.5, -0.0001, 0.0001],
            [0.25, 0.25, 0.5],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [[0.25, 0.25, 0.25, 0.25]],
            [0.25, 0.25, 0.25, 0.25 + 2e-9],
            [0.25, 0.25, 0.25, 0.25 - 2e-9],
            [1e308, 1e308, 0.0, 0.0],
        ],
    )
    def test_rejects(self, vec):
        with pytest.raises(ValueError):
            check_distribution(vec)

    def test_accepts_a_sum_within_tolerance_and_returns_float64(self):
        assert check_distribution([0.25, 0.25, 0.25, 0.25 + 5e-10]).dtype == np.float64
        assert check_distribution([1, 0, 0, 0]).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert check_distribution([0.5, -0.0, 0.5, 0.0]).tolist() == [0.5, -0.0, 0.5, 0.0]
        vec = np.array([0.1, 0.2, 0.3, 0.4])
        assert check_distribution(vec) is vec


class TestArgmaxQuadrant:
    @pytest.mark.parametrize(
        "vec",
        [
            [0.25, 0.25, 0.25, 0.25],
            [0.0, 0.0, 0.0, 0.0],
            [0.1, 0.4, 0.4, 0.1],
            [0.1, 0.2, 0.35, 0.35],
            [0.4, 0.1, 0.1, 0.4],
            [0.0, -0.0, 0.0, 0.0],
            [-0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    )
    def test_ties_go_to_the_first_maximum_as_in_numpy(self, vec):
        want = ALL_QUADRANTS[int(np.argmax(vec))]
        assert argmax_quadrant(np.array(vec)) is want
        assert argmax_quadrant(vec) is want

    def test_matches_numpy_on_random_vectors(self):
        rng = np.random.default_rng(12)
        for vec in rng.dirichlet(np.ones(4), size=500):
            assert argmax_quadrant(vec) is ALL_QUADRANTS[int(np.argmax(vec))]
        for vec in rng.integers(0, 3, size=(200, 4)) / 4.0:  # many ties
            assert argmax_quadrant(vec) is ALL_QUADRANTS[int(np.argmax(vec))]


class TestClassifier:
    def test_recovers_every_corpus_label(self, fitted, steering_corpus):
        classifier, _ = fitted
        budget = EvaluatorBudget()
        for seq, quadrant in steering_corpus:
            predicted = argmax_quadrant(classifier.distribution(seq, budget))
            assert predicted is quadrant
        assert budget.e_calls == len(steering_corpus)

    def test_fast_dense_major_is_e1(self, fitted):
        classifier, _ = fitted
        seq = VOCAB.encode(style_tokens(EmotionQuadrant.E1, variant=0))
        assert argmax_quadrant(classifier.distribution(seq, EvaluatorBudget())) is EmotionQuadrant.E1

    def test_slow_sparse_minor_is_e3(self, fitted):
        classifier, _ = fitted
        seq = VOCAB.encode(style_tokens(EmotionQuadrant.E3, variant=0))
        assert argmax_quadrant(classifier.distribution(seq, EvaluatorBudget())) is EmotionQuadrant.E3

    def test_valence_arousal_signs_match_quadrants(self, fitted, steering_corpus):
        classifier, _ = fitted
        signs = {  # (valence, arousal) per quadrant of the circumplex
            EmotionQuadrant.E1: (1, 1),
            EmotionQuadrant.E2: (-1, 1),
            EmotionQuadrant.E3: (-1, -1),
            EmotionQuadrant.E4: (1, -1),
        }
        for seq, quadrant in steering_corpus:
            valence, arousal = classifier.valence_arousal(seq)
            assert (np.sign(valence), np.sign(arousal)) == signs[quadrant]

    def test_sub_bar_prefix_rejected(self, fitted):
        classifier, _ = fitted
        prefix = VOCAB.encode([Token.start(), Token.bar(), Token.position(1), Token.pitch(60)])
        with pytest.raises(SequenceTooShort):
            classifier.distribution(prefix, EvaluatorBudget())

    def test_partial_bar_ignored(self, fitted, steering_corpus):
        classifier, _ = fitted
        budget = EvaluatorBudget()
        seq, _ = steering_corpus[0]
        partial = list(seq) + VOCAB.encode([Token.position(1), Token.pitch(61)])
        base = classifier.distribution(seq, budget)
        assert np.array_equal(classifier.distribution(partial, budget), base)

    def test_distribution_is_valid(self, fitted, steering_corpus):
        classifier, _ = fitted
        seq, _ = steering_corpus[10]
        vec = classifier.distribution(seq, EvaluatorBudget())
        assert vec.shape == (4,)
        assert np.all(vec > 0.0)
        assert vec.sum() == pytest.approx(1.0)

    def test_save_load_identity(self, fitted, steering_corpus, tmp_path):
        classifier, _ = fitted
        path = tmp_path / "clf.json"
        classifier.save(path)
        back = HeuristicEmotionClassifier.load(path, VOCAB)
        seq, _ = steering_corpus[5]
        budget = EvaluatorBudget()
        assert np.array_equal(back.distribution(seq, budget), classifier.distribution(seq, budget))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            HeuristicEmotionClassifier.load(path, VOCAB)

    def test_unfitted_and_empty_corpus(self):
        clf = HeuristicEmotionClassifier(VOCAB)
        with pytest.raises(NotFitted):
            clf.valence_arousal([0])
        with pytest.raises(EmptyCorpus):
            clf.fit([])

    def test_single_sequence_corpus_degenerates_gracefully(self):
        seq = VOCAB.encode(style_tokens(EmotionQuadrant.E1, variant=0))
        clf = HeuristicEmotionClassifier(VOCAB).fit([seq])
        # zero feature spread: arousal z-scores collapse to 0, valence remains
        valence, arousal = clf.valence_arousal(seq)
        assert arousal == 0.0
        assert valence > 0.0


class TestDiscriminator:
    def test_corpus_pieces_beat_uniform_random_walks(self, fitted, steering_corpus):
        _, discriminator = fitted
        budget = EvaluatorBudget()
        corpus_scores = [
            discriminator.realness(seq, budget) for seq, _ in steering_corpus
        ]
        policy = UniformPolicy(VOCAB)
        cfg = SamplingConfig(top_p=1.0, max_bars=4, max_tokens=120)
        random_scores = []
        for i in range(100):
            seq, _ = top_p_decode([VOCAB.start_id], policy, cfg, rng=np.random.default_rng(i))
            random_scores.append(discriminator.realness(seq, budget))
        assert np.mean(corpus_scores) > np.mean(random_scores)

    def test_corpus_pieces_pass_the_default_threshold(self, fitted, steering_corpus):
        _, discriminator = fitted
        budget = EvaluatorBudget()
        for seq, _ in steering_corpus:
            assert discriminator.realness(seq, budget) > 0.5

    def test_one_note_loop_scores_fake(self, fitted):
        _, discriminator = fitted
        toks = [Token.start()]
        for _ in range(4):
            toks.append(Token.bar())
            toks.extend(
                [Token.position(1), Token.pitch(60), Token.duration(20), Token.velocity(1)]
            )
        seq = VOCAB.encode(toks + [Token.end()])
        assert discriminator.realness(seq, EvaluatorBudget()) < 0.5

    def test_budget_counter(self, fitted, steering_corpus):
        _, discriminator = fitted
        budget = EvaluatorBudget()
        discriminator.realness(steering_corpus[0][0], budget)
        assert (budget.e_calls, budget.d_calls) == (0, 1)

    def test_sub_bar_prefix_rejected(self, fitted):
        _, discriminator = fitted
        with pytest.raises(SequenceTooShort):
            discriminator.realness(VOCAB.encode([Token.start(), Token.bar()]), EvaluatorBudget())

    def test_save_load_identity(self, fitted, steering_corpus, tmp_path):
        _, discriminator = fitted
        path = tmp_path / "disc.json"
        discriminator.save(path)
        back = HeuristicDiscriminator.load(path, VOCAB)
        seq, _ = steering_corpus[7]
        budget = EvaluatorBudget()
        assert back.realness(seq, budget) == discriminator.realness(seq, budget)

    def test_unfitted_and_empty_corpus(self):
        disc = HeuristicDiscriminator(VOCAB)
        with pytest.raises(NotFitted):
            disc.save("unused.json")
        with pytest.raises(EmptyCorpus):
            disc.fit([])


def test_all_four_styles_separate_cleanly(fitted):
    """Averaged quadrant probabilities put most mass on the style's label."""
    classifier, _ = fitted
    budget = EvaluatorBudget()
    for quadrant in ALL_QUADRANTS:
        probs = np.zeros(4)
        for variant in range(4):
            seq = VOCAB.encode(style_tokens(quadrant, variant))
            probs += classifier.distribution(seq, budget)
        assert int(np.argmax(probs)) == quadrant.index
