"""Feature-based emotion classifier and discriminator stand-ins."""
import math

import numpy as np
import pytest

from emodecode.baselines import SamplingConfig, top_p_decode
from emodecode.emotion import ALL_QUADRANTS, EmotionQuadrant, argmax_quadrant
from emodecode.errors import EmptyCorpus, NotFitted, SequenceTooShort
from emodecode.models.base import EvaluatorBudget
from emodecode.models.fixtures import UniformPolicy
from emodecode.models.heuristic import (
    _MAJOR_PROFILE,
    _MINOR_PROFILE,
    HeuristicDiscriminator,
    HeuristicEmotionClassifier,
    _key_correlations,
)
from emodecode.remi.tokens import N_DURATION_BINS, VOCAB, Token

from conftest import style_tokens


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


class TestProfileCorrelation:
    @pytest.mark.parametrize(
        "profile, index", [(_MAJOR_PROFILE, 0), (_MINOR_PROFILE, 1)], ids=["major", "minor"]
    )
    def test_equals_rolled_reference_bit_for_bit(self, profile, index):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            notes = int(rng.integers(1, 40))
            pitch_classes = rng.integers(0, 12, notes)
            durations = rng.integers(1, N_DURATION_BINS + 1, notes).astype(np.float64)
            hist = np.bincount(pitch_classes, weights=durations, minlength=12)
            assert _key_correlations(hist)[index] == rolled_correlation(hist, profile)

    def test_flat_or_empty_histogram_is_zero(self):
        assert _key_correlations(np.zeros(12)) == (0.0, 0.0)
        assert _key_correlations(np.full(12, 3.0)) == (0.0, 0.0)


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
        for seq, quadrant in steering_corpus:
            valence, arousal = classifier.valence_arousal(seq)
            assert np.sign(valence) == quadrant.valence_sign
            assert np.sign(arousal) == quadrant.arousal_sign

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
        assert budget.snapshot() == (0, 1)

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
