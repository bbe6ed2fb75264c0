"""Policy/evaluator interfaces, nucleus filtering, and the table-driven test doubles."""
import numpy as np
import pytest

from emodecode.errors import GrammarError, SequenceTooShort
from emodecode.models.base import EvaluatorBudget
from emodecode.models.sampling import (
    sample_cumulative,
    sample_index,
    sample_without_replacement,
    top_p_filter,
)
from emodecode.remi.tokens import VOCAB, Token

from doubles import (
    TableDiscriminator,
    TableEmotionClassifier,
    TablePolicy,
    UniformPolicy,
)
from reference import ScriptedRNG, naive_top_p


def ids(text: str) -> list[int]:
    return VOCAB.encode([Token.from_text(part) for part in text.split()])


class TestTopPFilter:
    def test_prefix_sums_worked_example(self):
        dist = np.array([0.5, 0.3, 0.2])
        assert list(top_p_filter(dist, 0.7)) == [0, 1]

    def test_p_one_keeps_all_nonzero(self):
        dist = np.array([0.5, 0.0, 0.3, 0.2])
        assert list(top_p_filter(dist, 1.0)) == [0, 2, 3]

    def test_ties_at_cut_prefer_lower_id(self):
        dist = np.array([0.25, 0.25, 0.25, 0.25])
        assert list(top_p_filter(dist, 0.5)) == [0, 1]

    def test_always_at_least_one(self):
        dist = np.zeros(5)
        dist[3] = 1.0
        assert list(top_p_filter(dist, 0.01)) == [3]

    def test_no_positive_mass_raises(self):
        with pytest.raises(ValueError):
            top_p_filter(np.zeros(4), 0.9)

    def test_matches_naive_reference_and_is_minimal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            dist = rng.random(dim)
            dist /= dist.sum()
            p = float(rng.uniform(0.05, 1.0))
            chosen = top_p_filter(dist, p)
            assert list(chosen) == naive_top_p(dist, p)
            mass = float(dist[chosen].sum())
            assert mass >= p or chosen.size == np.count_nonzero(dist)
            if chosen.size > 1:
                assert mass - float(dist[chosen].min()) < p


class TestSampleIndex:
    def test_scripted_draw_boundaries(self):
        weights = np.array([0.2, 0.3, 0.5])
        assert sample_index(ScriptedRNG([0.0]), weights) == 0
        assert sample_index(ScriptedRNG([0.19999]), weights) == 0
        assert sample_index(ScriptedRNG([0.21]), weights) == 1
        assert sample_index(ScriptedRNG([0.51]), weights) == 2

    def test_upper_edge_clamps_to_last_index(self):
        assert sample_index(ScriptedRNG([0.9999999999999999]), np.array([1.0, 1.0])) == 1

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            sample_index(np.random.default_rng(0), np.zeros(3))

    @pytest.mark.parametrize(
        "weights", [[0.2, 0.3, 0.5], [1.0, 1.0], [3.0, 0.0, 7.0], [0.7], [1e-3, 5.0, 1e-3]]
    )
    def test_cumulative_form_draws_the_same_index(self, weights):
        weights = np.array(weights)
        cum = np.cumsum(weights)
        uniforms = [0.0, 0.19999, 0.2, 0.21, 0.5, 0.51, 0.9999999999999999]
        for u in uniforms:
            searched = min(int(cum.searchsorted(u * cum[-1], side="right")), cum.size - 1)
            assert sample_index(ScriptedRNG([u]), weights) == searched
            assert sample_cumulative(ScriptedRNG([u]), cum) == searched
            assert sample_cumulative(ScriptedRNG([u]), cum.tolist()) == searched

    def test_unnormalized_weights_sample_proportionally(self):
        rng = np.random.default_rng(5)
        weights = np.array([3.0, 7.0])
        hits = sum(sample_index(rng, weights) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.7) < 0.02


def picks_by_sample_index(rng, weights, n: int) -> list[int]:
    """The reference: ``sample_index`` (an ``np.cumsum`` each time), zeroing every pick."""
    weights = np.array(weights, dtype=np.float64)
    picked = []
    for _ in range(n):
        idx = sample_index(rng, weights)
        picked.append(idx)
        weights[idx] = 0.0
        if not weights.any():
            break
    return picked


class TestSampleWithoutReplacement:
    def test_matches_the_sample_index_loop_on_random_weights(self):
        gen = np.random.default_rng(23)
        underflowed = exhausted = 0
        for _ in range(2000):
            size = int(gen.integers(1, 60))
            scores = gen.normal(0.0, float(gen.choice([1.0, 30.0, 600.0])), size)
            scores[gen.integers(0, size, size // 3)] = scores[0]  # ties
            weights = np.exp(scores - scores.max())
            underflowed += bool((weights == 0.0).any())
            n = int(gen.integers(1, 9))
            uniforms = gen.random(n).tolist()
            want = picks_by_sample_index(ScriptedRNG(uniforms), weights, n)
            rng = ScriptedRNG(uniforms)
            assert sample_without_replacement(rng, weights.tolist(), n) == want
            assert rng.consumed == len(want)
            exhausted += len(want) < n
        assert underflowed > 100 and exhausted > 100

    def test_stops_once_every_weight_is_zero(self):
        weights = [0.0, 1.0, 0.0, 2.0, 0.0]
        uniforms = [0.5, 0.5, 0.5, 0.5, 0.5]
        want = picks_by_sample_index(ScriptedRNG(uniforms), weights, 5)
        rng = ScriptedRNG(uniforms)
        assert sample_without_replacement(rng, list(weights), 5) == want == [3, 1]
        assert rng.consumed == 2

    def test_a_draw_at_the_total_clamps_like_sample_index(self):
        # u * total lands on the total: both clamp to the last index, even once it is zeroed
        weights = [1.0, 2.0, 3.0]
        want = picks_by_sample_index(ScriptedRNG([1.0] * 3), weights, 3)
        assert sample_without_replacement(ScriptedRNG([1.0] * 3), list(weights), 3) == want == [2, 2, 2]
        want = picks_by_sample_index(ScriptedRNG([0.0, 1.0, 1.0]), weights, 3)
        assert sample_without_replacement(ScriptedRNG([0.0, 1.0, 1.0]), list(weights), 3) == want

    def test_zeroes_the_picks_in_place(self):
        weights = [1.0, 1.0, 1.0]
        picked = sample_without_replacement(ScriptedRNG([0.1, 0.1]), weights, 2)
        assert [weights[i] for i in picked] == [0.0, 0.0] and sum(weights) == 1.0

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            sample_without_replacement(ScriptedRNG([0.5]), [0.0, 0.0], 1)


class TestPolicyNext:
    def test_uniform_policy_after_pitch(self):
        policy = UniformPolicy(VOCAB)
        dist = policy.next_distribution(ids("START:0 BAR:0 POSITION:1 PITCH:60"))
        durations = VOCAB.successors(VOCAB.encode([Token.pitch(60)])[0])
        assert np.allclose(dist[durations], 1.0 / 32)
        assert dist.sum() == pytest.approx(1.0)
        mask = np.ones(len(dist), dtype=bool)
        mask[durations] = False
        assert not dist[mask].any()

    def test_invalid_prefix_raises_grammar_error(self):
        err = VOCAB.validate_ids(ids("START:0 PITCH:60"))
        assert isinstance(err, GrammarError) and err.index == 1


class TestTablePolicy:
    def test_exact_row_after_velocity(self):
        prefix = ids("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16")
        row = {VOCAB.bar_id: 0.7, VOCAB.end_id: 0.3}
        policy = TablePolicy(VOCAB, {tuple(prefix): row})
        dist = policy.next_distribution(prefix)
        assert dist[VOCAB.bar_id] == pytest.approx(0.7)
        assert dist[VOCAB.end_id] == pytest.approx(0.3)
        assert np.count_nonzero(dist) == 2

    def test_by_last_token(self):
        policy = TablePolicy(VOCAB, {VOCAB.start_id: {VOCAB.bar_id: 1.0}}, by="last")
        dist = policy.next_distribution([VOCAB.start_id])
        assert dist[VOCAB.bar_id] == 1.0

    def test_missing_row_raises(self):
        policy = TablePolicy(VOCAB, {})
        with pytest.raises(KeyError):
            policy.next_distribution([VOCAB.start_id])

    def test_row_without_legal_mass_raises(self):
        policy = TablePolicy(VOCAB, {(VOCAB.start_id,): {VOCAB.end_id: 1.0}})
        with pytest.raises(GrammarError):
            policy.next_distribution([VOCAB.start_id])

    def test_bad_by_rejected(self):
        with pytest.raises(ValueError):
            TablePolicy(VOCAB, {}, by="suffix")


COMPLETE = "START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16 END:0"


class TestEvaluators:
    def test_table_classifier_returns_fixture_and_counts(self):
        seq = ids(COMPLETE)
        clf = TableEmotionClassifier({tuple(seq): (0.7, 0.1, 0.1, 0.1)})
        budget = EvaluatorBudget()
        out = clf.distribution(seq, budget)
        assert np.array_equal(out, [0.7, 0.1, 0.1, 0.1])
        assert (budget.e_calls, budget.d_calls) == (1, 0)

    def test_table_discriminator_counts(self):
        seq = ids(COMPLETE)
        disc = TableDiscriminator({tuple(seq): 0.8})
        budget = EvaluatorBudget()
        assert disc.realness(seq, budget) == 0.8
        assert (budget.e_calls, budget.d_calls) == (0, 1)

    @pytest.mark.parametrize(
        "row",
        [(0.7, 0.1, 0.1, 0.2), (float("nan"),) * 4, (float("inf"), 0.0, 0.0, 0.0)],
        ids=["sum", "nan", "inf"],
    )
    def test_invalid_distribution_rejected(self, row):
        seq = ids(COMPLETE)
        clf = TableEmotionClassifier({tuple(seq): row})
        budget = EvaluatorBudget()
        with pytest.raises(ValueError):
            clf.distribution(seq, budget)
        assert budget.e_calls == 0

    def test_realness_outside_unit_interval_rejected(self):
        seq = ids(COMPLETE)
        disc = TableDiscriminator({}, default=1.5)
        with pytest.raises(AssertionError):
            disc.realness(seq, EvaluatorBudget())

    def test_failed_call_does_not_consume_budget(self):
        seq = ids(COMPLETE)
        clf = TableEmotionClassifier({})
        budget = EvaluatorBudget()
        with pytest.raises(KeyError):
            clf.distribution(seq, budget)
        assert (budget.e_calls, budget.d_calls) == (0, 0)

    def test_defaults_cover_unknown_sequences(self):
        seq = ids(COMPLETE)
        clf = TableEmotionClassifier({}, default=(0.25, 0.25, 0.25, 0.25))
        disc = TableDiscriminator({}, default=0.5)
        budget = EvaluatorBudget()
        assert clf.distribution(seq, budget)[0] == 0.25
        assert disc.realness(seq, budget) == 0.5

