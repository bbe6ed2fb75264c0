"""Top-p sampling, conditional sampling, and stochastic beam search."""
import math

import numpy as np
import pytest

from emodecode.baselines import (
    SBBSConfig,
    SamplingConfig,
    cs_decode,
    sbbs_decode,
    top_p_decode,
)
from emodecode.emotion import EmotionQuadrant
from emodecode.errors import UntrainedCondition
from emodecode.models.base import EvaluatorBudget
from emodecode.models.ngram import NGramPolicy, with_emotion_prefix
from emodecode.puct import _finalize
from emodecode.remi.tokens import VOCAB, TokenKind

from doubles import TablePolicy
from reference import MinLenClassifier, TinyVocab

CHI2_99_DF3 = 11.345  # 1% critical value, 3 degrees of freedom


def first_tempo_value(seq: list[int]) -> int | None:
    for tok in VOCAB.decode(seq):
        if tok.kind is TokenKind.TEMPO:
            return tok.value
    return None


class TestTopP:
    def test_respects_grammar_and_stops_at_max_bars(self, steering_models):
        policy, _, _ = steering_models
        cfg = SamplingConfig(top_p=0.9, max_bars=2, max_tokens=400)
        seq, trace = top_p_decode([VOCAB.start_id], policy, cfg, rng=np.random.default_rng(4))
        assert VOCAB.validate_ids(seq, require_complete=True) is None
        assert sum(1 for t in seq if t == VOCAB.bar_id) <= 2
        assert trace.e_calls == 0 and trace.d_calls == 0
        assert all(r["e_calls"] == 0 and r["d_calls"] == 0 for r in trace.records)

    def test_deterministic_under_fixed_seed(self, steering_models):
        policy, _, _ = steering_models
        cfg = SamplingConfig(top_p=0.9, max_bars=2, max_tokens=400)
        a = top_p_decode([VOCAB.start_id], policy, cfg, rng=np.random.default_rng(11))
        b = top_p_decode([VOCAB.start_id], policy, cfg, rng=np.random.default_rng(11))
        assert a[0] == b[0]
        assert a[1].to_dict() == b[1].to_dict()

    def test_trace_probs_are_renormalized(self, steering_models):
        policy, _, _ = steering_models
        cfg = SamplingConfig(top_p=0.9, max_bars=1, max_tokens=60)
        _, trace = top_p_decode([VOCAB.start_id], policy, cfg, rng=np.random.default_rng(9))
        for record in trace.records:
            assert sum(record["probs"]) == pytest.approx(1.0, abs=1e-9)
            assert record["chosen_id"] in record["candidate_ids"]


class TestConditionalSampling:
    def test_control_token_sits_after_start(self, cs_conditional):
        cfg = SamplingConfig(top_p=0.9, max_bars=2, max_tokens=40)
        seq, trace = cs_decode(
            [VOCAB.start_id], cs_conditional, EmotionQuadrant.E2, cfg,
            rng=np.random.default_rng(0),
        )
        assert seq[0] == VOCAB.start_id
        assert seq[1] == VOCAB.emotion_id(EmotionQuadrant.E2)
        assert VOCAB.validate_ids(seq, require_complete=True) is None
        assert trace.method == "cs"
        assert trace.e_calls == 0 and trace.d_calls == 0

    @pytest.mark.parametrize("max_tokens", [1, 2])
    def test_cut_at_control_token_still_validates(self, cs_conditional, max_tokens):
        cfg = SamplingConfig(top_p=0.9, max_bars=2, max_tokens=max_tokens)
        seq, trace = cs_decode(
            [VOCAB.start_id], cs_conditional, EmotionQuadrant.E1, cfg,
            rng=np.random.default_rng(0),
        )
        control = VOCAB.emotion_id(EmotionQuadrant.E1)
        assert seq == [VOCAB.start_id, control, VOCAB.bar_id, VOCAB.end_id]
        assert VOCAB.validate_ids(seq, require_complete=True) is None
        assert trace.records == []

    def test_condition_steers_sampled_tempo(self, cs_conditional):
        """E1 training data is fast; conditioning must reproduce that."""
        cfg = SamplingConfig(top_p=0.9, max_bars=2, max_tokens=40)
        fast = 0
        for i in range(100):
            seq, _ = cs_decode(
                [VOCAB.start_id], cs_conditional, EmotionQuadrant.E1, cfg,
                rng=np.random.default_rng(i),
            )
            value = first_tempo_value(seq)
            if value is not None and value >= 20:
                fast += 1
        assert fast > 90

    def test_low_arousal_condition_prefers_slow_tempi(self, cs_conditional):
        cfg = SamplingConfig(top_p=0.9, max_bars=2, max_tokens=40)
        slow = 0
        for i in range(100):
            seq, _ = cs_decode(
                [VOCAB.start_id], cs_conditional, EmotionQuadrant.E3, cfg,
                rng=np.random.default_rng(i),
            )
            value = first_tempo_value(seq)
            if value is not None and value < 10:
                slow += 1
        assert slow > 90

    def test_unseen_quadrant_raises(self, cs_labeled_corpus):
        partial = NGramPolicy(VOCAB).fit(
            [
                with_emotion_prefix(seq, quadrant, VOCAB)
                for seq, quadrant in cs_labeled_corpus
                if quadrant in (EmotionQuadrant.E1, EmotionQuadrant.E2)
            ],
        )
        cfg = SamplingConfig(max_bars=2, max_tokens=40)
        seq, _ = cs_decode(
            [VOCAB.start_id], partial, EmotionQuadrant.E2, cfg, rng=np.random.default_rng(0)
        )
        assert seq[1] == VOCAB.emotion_id(EmotionQuadrant.E2)
        with pytest.raises(UntrainedCondition):
            cs_decode(
                [VOCAB.start_id], partial, EmotionQuadrant.E3, cfg, rng=np.random.default_rng(0)
            )

    def test_policy_without_control_training_raises(self, steering_models):
        policy, _, _ = steering_models
        with pytest.raises(UntrainedCondition):
            cs_decode(
                [VOCAB.start_id], policy, EmotionQuadrant.E1,
                SamplingConfig(max_bars=2, max_tokens=40), rng=np.random.default_rng(0),
            )

    def test_deterministic_under_fixed_seed(self, cs_conditional):
        cfg = SamplingConfig(top_p=0.9, max_bars=2, max_tokens=40)
        a = cs_decode(
            [VOCAB.start_id], cs_conditional, EmotionQuadrant.E4, cfg, rng=np.random.default_rng(5)
        )
        b = cs_decode(
            [VOCAB.start_id], cs_conditional, EmotionQuadrant.E4, cfg, rng=np.random.default_rng(5)
        )
        assert a[0] == b[0] and a[1].to_dict() == b[1].to_dict()


def pair_toy():
    """start -> {1 (p=.7), 2 (p=.3)} -> end; no bar lines, so no classifier calls."""
    vocab = TinyVocab({0: [1, 2], 1: [3], 2: [3]}, start_id=0, end_id=3)
    policy = TablePolicy(vocab, {0: {1: 0.7, 2: 0.3}, 1: {3: 1.0}, 2: {3: 1.0}}, by="last")
    classifier = MinLenClassifier({}, default=(0.25, 0.25, 0.25, 0.25))
    return vocab, policy, classifier


def replay_sbbs_trace(trace, start, policy, classifier, target, vocab, cfg):
    """Recompute every recorded candidate score and classifier call.

    Walks the trace with an independent shadow copy of the beam state and
    fails on any divergence; returns the final shadow beams.
    """
    beams = [
        {
            "seq": list(start),
            "logscore": 0.0,
            "log_e": 0.0,
            "bars": sum(1 for t in start if t == vocab.bar_id),
            "done": False,
        }
        for _ in range(cfg.beams)
    ]
    budget = EvaluatorBudget()
    for record in trace.records:
        done_first = [b for b in beams if b["done"]]
        live = [b for b in beams if not b["done"]]
        assert len(record["beams"]) <= len(live)
        new = []
        for pick in record["beams"]:
            parent = beams[pick["parent"]]
            assert not parent["done"]
            token = pick["token_id"]
            p = float(policy.next_distribution(parent["seq"])[token])
            assert p > 0.0
            expected = parent["logscore"] + math.log(max(p, 1e-12)) + parent["log_e"]
            assert pick["logscore"] == pytest.approx(expected, abs=1e-12)
            child = {
                "seq": parent["seq"] + [token],
                "logscore": expected,
                "log_e": parent["log_e"],
                "bars": parent["bars"],
                "done": False,
            }
            if token == vocab.end_id:
                child["done"] = True
            elif token == vocab.bar_id:
                child["bars"] += 1
                if child["seq"].count(vocab.bar_id) >= 2:
                    e_vec = classifier.distribution(child["seq"], budget)
                    child["log_e"] = math.log(max(float(e_vec[target.index]), 1e-12))
                if child["bars"] >= cfg.max_bars:
                    child["done"] = True
            if len(child["seq"]) >= cfg.max_tokens:
                child["done"] = True
            new.append(child)
        beams = done_first + new
        assert record["e_calls"] == budget.e_calls
        assert record["d_calls"] == 0
    assert all(b["done"] for b in beams)
    assert trace.e_calls == budget.e_calls
    return beams


class TestSBBS:
    def test_single_beam_single_k_is_greedy(self, steering_models):
        policy, classifier, _ = steering_models
        cfg = SBBSConfig(
            target=EmotionQuadrant.E1, beams=1, top_k=1, max_bars=3, max_tokens=200
        )
        seq, _ = sbbs_decode(
            [VOCAB.start_id], policy, classifier, cfg, rng=np.random.default_rng(0)
        )
        manual = [VOCAB.start_id]
        bars = 0
        while len(manual) < cfg.max_tokens:
            token = int(np.argmax(policy.next_distribution(manual)))
            manual.append(token)
            if token == VOCAB.end_id:
                break
            if token == VOCAB.bar_id:
                bars += 1
                if bars >= cfg.max_bars:
                    break
        assert seq == _finalize(manual, VOCAB)

    def test_two_beam_candidate_scores_match_hand_computation(self):
        vocab, policy, classifier = pair_toy()
        cfg = SBBSConfig(target=EmotionQuadrant.E1, beams=2, top_k=2, max_tokens=64)
        seq, trace = sbbs_decode([0], policy, classifier, cfg, rng=np.random.default_rng(1))
        dist = policy.next_distribution([0])
        by_token = {1: math.log(float(dist[1])), 2: math.log(float(dist[2]))}
        assert len(trace.records) == 2
        for pick in trace.records[0]["beams"]:
            assert pick["parent"] in (0, 1)
            assert pick["logscore"] == by_token[pick["token_id"]]
        # second step appends END at probability 1: score carries over exactly
        step0 = trace.records[0]["beams"]
        for pick in trace.records[1]["beams"]:
            assert pick["token_id"] == 3
            assert pick["logscore"] == step0[pick["parent"]]["logscore"]
        assert trace.e_calls == 0
        assert seq[0] == 0 and seq[-1] == 3 and len(seq) == 3

    def test_sampling_distribution_matches_product_scores(self):
        """First-pick frequencies over 10,000 seeded runs pass a chi-square check."""
        vocab, policy, classifier = pair_toy()
        cfg = SBBSConfig(target=EmotionQuadrant.E1, beams=2, top_k=2, max_tokens=64)
        dist = policy.next_distribution([0])
        p1, p2 = float(dist[1]), float(dist[2])
        cells = {(0, 1): 0, (0, 2): 1, (1, 1): 2, (1, 2): 3}
        counts = np.zeros(4)
        runs = 10_000
        for i in range(runs):
            _, trace = sbbs_decode([0], policy, classifier, cfg, rng=np.random.default_rng(i))
            first = trace.records[0]["beams"][0]
            counts[cells[(first["parent"], first["token_id"])]] += 1
        expected = np.array([p1, p2, p1, p2])
        expected = expected / expected.sum() * runs
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < CHI2_99_DF3

    def test_classifier_called_once_per_beam_per_bar(self):
        # two-token bars with a single legal continuation: every beam crosses
        # every bar line, so calls = beams * (bars - 1); the first bar line
        # closes nothing and is free
        vocab = TinyVocab({0: [2], 2: [1], 1: [2]}, start_id=0, end_id=9, bar_id=2)
        policy = TablePolicy(vocab, {0: {2: 1.0}, 2: {1: 1.0}, 1: {2: 1.0}}, by="last")
        classifier = MinLenClassifier({}, default=(0.4, 0.3, 0.2, 0.1), stop_ids=())
        cfg = SBBSConfig(
            target=EmotionQuadrant.E2, beams=3, top_k=3, max_bars=5, max_tokens=512
        )
        _, trace = sbbs_decode([0], policy, classifier, cfg, rng=np.random.default_rng(2))
        assert trace.e_calls == cfg.beams * (cfg.max_bars - 1)

    def test_steering_run_replays_exactly(self, steering_models):
        policy, classifier, _ = steering_models
        cfg = SBBSConfig(
            target=EmotionQuadrant.E2, beams=3, top_k=5, max_bars=3, max_tokens=200
        )
        seq, trace = sbbs_decode(
            [VOCAB.start_id], policy, classifier, cfg, rng=np.random.default_rng(7)
        )
        beams = replay_sbbs_trace(
            trace, [VOCAB.start_id], policy, classifier, cfg.target, VOCAB, cfg
        )
        best = max(beams, key=lambda b: b["logscore"])
        assert seq == _finalize(list(best["seq"]), VOCAB)
        assert VOCAB.validate_ids(seq, require_complete=True) is None

    def test_beam_count_is_constant_while_live(self, steering_models):
        policy, classifier, _ = steering_models
        cfg = SBBSConfig(
            target=EmotionQuadrant.E4, beams=4, top_k=6, max_bars=2, max_tokens=200
        )
        _, trace = sbbs_decode(
            [VOCAB.start_id], policy, classifier, cfg, rng=np.random.default_rng(3)
        )
        assert len(trace.records[0]["beams"]) == cfg.beams

    def test_deterministic_under_fixed_seed(self, steering_models):
        policy, classifier, _ = steering_models
        cfg = SBBSConfig(
            target=EmotionQuadrant.E1, beams=2, top_k=4, max_bars=2, max_tokens=200
        )
        a = sbbs_decode([VOCAB.start_id], policy, classifier, cfg, rng=np.random.default_rng(6))
        b = sbbs_decode([VOCAB.start_id], policy, classifier, cfg, rng=np.random.default_rng(6))
        assert a[0] == b[0] and a[1].to_dict() == b[1].to_dict()


class TestSBBSConfigValidation:
    def test_beams_at_least_one(self):
        with pytest.raises(ValueError):
            SBBSConfig(target=EmotionQuadrant.E1, beams=0)

    def test_top_k_at_least_beams(self):
        with pytest.raises(ValueError):
            SBBSConfig(target=EmotionQuadrant.E1, beams=4, top_k=3)


class TestSamplingConfigValidation:
    @pytest.mark.parametrize("top_p", [0.0, 1.5, -0.1])
    def test_top_p_range(self, top_p):
        with pytest.raises(ValueError):
            SamplingConfig(top_p=top_p)
