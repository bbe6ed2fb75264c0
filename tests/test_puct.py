"""Search engine components: selection, expansion, rollouts, decoding."""
import dataclasses
import math

import numpy as np
import pytest

from emodecode.baselines import SamplingConfig, SBBSConfig, sbbs_decode, top_p_decode
from emodecode.emotion import EmotionQuadrant
from emodecode.errors import TerminalNode
from emodecode.models.base import EvaluatorBudget
from emodecode.puct import (
    DecodeConfig,
    Edge,
    SearchNode,
    _finalize,
    backpropagate,
    choose_token,
    decode_piece,
    expand,
    select,
    selection_scores,
    search_step,
    simulate,
)

from doubles import TablePolicy
from reference import (
    MinLenClassifier,
    MinLenDiscriminator,
    ScriptedRNG,
    TinyVocab,
    bundled_instances,
)

BUNDLE = {b.inst.name: b for b in bundled_instances()}


def cfg_of(name: str) -> DecodeConfig:
    return BUNDLE[name].inst.cfg


class TestSelect:
    def test_exploration_bonus_overrides_q(self):
        node = SearchNode(
            edges=[Edge(1, prior=0.8, visits=10, q=0.1), Edge(2, prior=0.2, visits=1, q=0.3)],
            node_visits=12,
        )
        cfg = DecodeConfig(target=EmotionQuadrant.E1, exploration_c=1.0)
        scores = selection_scores(node, cfg)
        root = math.sqrt(12)
        assert scores[0] == pytest.approx(0.1 + 0.8 * root / 11, abs=1e-12)
        assert scores[1] == pytest.approx(0.3 + 0.2 * root / 2, abs=1e-12)
        assert select(node, cfg) == 1

    def test_pure_exploitation_at_c_zero(self):
        node = SearchNode(
            edges=[Edge(1, prior=0.1, visits=3, q=0.5), Edge(2, prior=0.9, visits=0, q=0.2)],
            node_visits=4,
        )
        cfg = DecodeConfig(target=EmotionQuadrant.E1, exploration_c=0.0)
        assert select(node, cfg) == 0
        # adding a constant to every Q cannot change the winner
        for edge in node.edges:
            edge.q += 5.0
        assert select(node, cfg) == 0

    def test_unvisited_node_follows_priors(self):
        node = SearchNode(edges=[Edge(1, prior=0.6), Edge(2, prior=0.4)])
        cfg = DecodeConfig(target=EmotionQuadrant.E1, exploration_c=1.0)
        assert select(node, cfg) == 0

    def test_tie_breaks_to_lowest_token_id(self):
        node = SearchNode(edges=[Edge(4, prior=0.5), Edge(9, prior=0.5)])
        cfg = DecodeConfig(target=EmotionQuadrant.E1, exploration_c=0.0)
        assert select(node, cfg) == 0


class TestExpand:
    def test_nucleus_priors_renormalized(self):
        vocab = TinyVocab({0: [1, 2, 3], 1: [4], 2: [4], 3: [4]}, start_id=0, end_id=4)
        policy = TablePolicy(vocab, {0: {1: 0.5, 2: 0.3, 3: 0.2}}, by="last")
        cfg = DecodeConfig(target=EmotionQuadrant.E1, top_p=0.7)
        node = expand([0], policy, cfg)
        assert [e.token_id for e in node.edges] == [1, 2]
        assert node.edges[0].prior == pytest.approx(0.5 / 0.8, abs=1e-12)
        assert node.edges[1].prior == pytest.approx(0.3 / 0.8, abs=1e-12)
        assert node.node_visits == 1
        assert all(e.visits == 0 and e.q == 0.0 and e.child is None for e in node.edges)

    def test_cannot_expand_past_end(self):
        inst = BUNDLE["pair-d10"].inst
        with pytest.raises(TerminalNode):
            expand([0, 1, 3], inst.policy, inst.cfg)


class TestSimulate:
    def test_matching_quadrant_reward(self):
        inst = BUNDLE["pair-d10"].inst
        budget = EvaluatorBudget()
        result = simulate(
            [0, 1], inst.policy, inst.classifier, inst.discriminator, inst.cfg,
            budget, ScriptedRNG([0.5] * 4),
        )
        assert result.reward == pytest.approx(0.56, abs=1e-12)
        assert result.sequence == [0, 1, 3]
        assert (budget.e_calls, budget.d_calls) == (1, 1)

    def test_mismatched_quadrant_reward(self):
        inst = BUNDLE["pair-d10"].inst
        cfg = dataclasses.replace(inst.cfg, target=EmotionQuadrant.E2)
        result = simulate(
            [0, 1], inst.policy, inst.classifier, inst.discriminator, cfg,
            EvaluatorBudget(), ScriptedRNG([0.5] * 4),
        )
        assert result.reward == pytest.approx(-0.18, abs=1e-12)

    def test_tied_distribution_resolves_to_first_quadrant(self):
        inst = BUNDLE["pair-d10"].inst
        flat = MinLenClassifier({}, default=(0.25, 0.25, 0.25, 0.25))
        disc = MinLenDiscriminator({}, default=0.8)
        win = simulate(
            [0, 1], inst.policy, flat, disc, inst.cfg,
            EvaluatorBudget(), ScriptedRNG([0.5] * 4),
        )
        assert win.reward == pytest.approx(0.25 * 0.8, abs=1e-12)
        cfg2 = dataclasses.replace(inst.cfg, target=EmotionQuadrant.E2)
        lose = simulate(
            [0, 1], inst.policy, flat, disc, cfg2,
            EvaluatorBudget(), ScriptedRNG([0.5] * 4),
        )
        assert lose.reward == pytest.approx(-0.15, abs=1e-12)

    def test_capped_rollout_hits_floor_without_evaluator_calls(self):
        inst = BUNDLE["shortcap"].inst
        budget = EvaluatorBudget()
        result = simulate(
            [0], inst.policy, inst.classifier, inst.discriminator, inst.cfg,
            budget, ScriptedRNG([0.0] * 8),
        )
        assert result.reward == -1.0
        assert result.emotion is None and result.realness is None
        assert len(result.sequence) == 1 + inst.cfg.rollout_cap
        assert (budget.e_calls, budget.d_calls) == (0, 0)


class TestBackpropagate:
    def _leaf_path(self):
        edge = Edge(1, prior=1.0)
        root = SearchNode(edges=[edge])
        return root, edge

    def test_first_and_second_update(self):
        root, edge = self._leaf_path()
        backpropagate([(root, edge)], 0.56)
        assert (edge.q, edge.visits, root.node_visits) == (0.56, 1, 2)
        backpropagate([(root, edge)], -0.18)
        assert edge.q == pytest.approx(0.19, abs=1e-12)
        assert (edge.visits, root.node_visits) == (2, 3)

    def test_q_is_running_mean(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            root, edge = self._leaf_path()
            rewards = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
            for r in rewards:
                backpropagate([(root, edge)], float(r))
            assert edge.q == pytest.approx(float(np.mean(rewards)), abs=1e-9)
            assert edge.visits == len(rewards)

    def test_every_level_of_the_path_updates(self):
        leaf_edge = Edge(3, prior=1.0)
        child = SearchNode(edges=[leaf_edge])
        top_edge = Edge(1, prior=1.0, child=child)
        root = SearchNode(edges=[top_edge])
        backpropagate([(root, top_edge), (child, leaf_edge)], 0.4)
        assert top_edge.visits == leaf_edge.visits == 1
        assert top_edge.q == leaf_edge.q == 0.4
        assert root.node_visits == child.node_visits == 2


class TestSearchStep:
    def test_visit_conservation_and_budget_parity(self):
        bundle = BUNDLE["pair-d10"]
        inst = bundle.inst
        budget = EvaluatorBudget()
        rng = ScriptedRNG(np.random.default_rng(3).random(64).tolist())
        root = expand(inst.start, inst.policy, inst.cfg)
        for _ in range(inst.cfg.budget):
            search_step(
                root, inst.start, inst.policy, inst.classifier, inst.discriminator,
                inst.cfg, budget, rng,
            )
        assert sum(e.visits for e in root.edges) == inst.cfg.budget
        assert root.node_visits == inst.cfg.budget + 1
        assert (budget.e_calls, budget.d_calls) == (inst.cfg.budget, inst.cfg.budget)

    def test_q_values_stay_within_reward_bounds(self):
        bundle = BUNDLE["chain-bylast"]
        inst = bundle.inst
        budget = EvaluatorBudget()
        rng = ScriptedRNG(np.random.default_rng(11).random(bundle.rng_len).tolist())
        root = expand(inst.start, inst.policy, inst.cfg)
        for _ in range(inst.cfg.budget):
            search_step(
                root, inst.start, inst.policy, inst.classifier, inst.discriminator,
                inst.cfg, budget, rng,
            )
        for edge in root.edges:
            assert -1.0 - 1e-12 <= edge.q <= 1.0 + 1e-12


class TestChooseToken:
    def test_all_mass_on_one_edge(self):
        child = SearchNode(edges=[], terminal=True)
        root = SearchNode(
            edges=[Edge(7, 0.5, visits=50, child=child), Edge(8, 0.3), Edge(9, 0.2)],
            node_visits=51,
        )
        token, picked = choose_token(root, ScriptedRNG([0.99999]))
        assert token == 7
        assert picked is child

    def test_returned_child_keeps_statistics(self):
        grand = SearchNode(edges=[Edge(5, 1.0, visits=4, q=0.25)], node_visits=5)
        root = SearchNode(
            edges=[Edge(1, 0.6, visits=30, q=0.1, child=grand), Edge(2, 0.4, visits=20, q=0.3)],
            node_visits=51,
        )
        token, picked = choose_token(root, ScriptedRNG([0.0]))
        assert token == 1
        assert picked is grand
        assert picked.node_visits == 5 and picked.edges[0].visits == 4

    def test_sampling_tracks_visit_shares(self):
        root = SearchNode(
            edges=[Edge(1, 0.5, visits=30), Edge(2, 0.5, visits=20)], node_visits=51
        )
        rng = np.random.default_rng(123)
        draws = sum(1 for _ in range(2000) if choose_token(root, rng)[0] == 1)
        assert draws / 2000 == pytest.approx(0.6, abs=0.04)


def _bar_loop_instance():
    """start -> bar -> note, note -> {note, bar}; END exists but is unreachable."""
    vocab = TinyVocab({0: [2], 2: [1], 1: [1, 2]}, start_id=0, end_id=3, bar_id=2)
    policy = TablePolicy(vocab, {0: {2: 1.0}, 2: {1: 1.0}, 1: {1: 0.6, 2: 0.4}}, by="last")
    classifier = MinLenClassifier({}, default=(0.2, 0.5, 0.2, 0.1), stop_ids=(2, 3))
    discriminator = MinLenDiscriminator({}, default=0.75, stop_ids=(2, 3))
    return vocab, policy, classifier, discriminator


def _bar_loop_decode(decoder, start, *, seed, budget, max_bars, max_tokens=1024):
    """Decode on the bar-loop instance with one of the three stop-rule decoders."""
    vocab, policy, classifier, discriminator = _bar_loop_instance()
    rng = np.random.default_rng(seed)
    if decoder == "decode_piece":
        cfg = DecodeConfig(
            target=EmotionQuadrant.E2, budget=budget, top_p=1.0, rollout_cap=24,
            max_bars=max_bars, max_tokens=max_tokens,
        )
        seq, trace = decode_piece(start, policy, classifier, discriminator, cfg, rng=rng)
    elif decoder == "sbbs_decode":
        cfg = SBBSConfig(target=EmotionQuadrant.E2, max_bars=max_bars, max_tokens=max_tokens)
        seq, trace = sbbs_decode(start, policy, classifier, cfg, rng=rng)
    else:
        cfg = SamplingConfig(top_p=1.0, max_bars=max_bars, max_tokens=max_tokens)
        seq, trace = top_p_decode(start, policy, cfg, rng=rng)
    return vocab, seq, trace


# the decoders share one stop rule
STOP_RULE_DECODERS = pytest.mark.parametrize(
    "decoder", ["decode_piece", "top_p_decode", "sbbs_decode"]
)


class TestDecodePiece:
    def test_stops_after_max_bars(self):
        vocab, policy, classifier, discriminator = _bar_loop_instance()
        cfg = DecodeConfig(
            target=EmotionQuadrant.E2, budget=4, top_p=1.0, rollout_cap=24,
            max_bars=16, max_tokens=10_000,
        )
        seq, trace = decode_piece(
            [0], policy, classifier, discriminator, cfg,
            rng=np.random.default_rng(0),
        )
        assert seq.count(vocab.bar_id) == 16
        assert seq[-1] == vocab.end_id
        assert len(seq) == 1 + len(trace.records) + 1

    @STOP_RULE_DECODERS
    def test_counts_bars_already_in_the_start(self, decoder):
        vocab, seq, _ = _bar_loop_decode(decoder, [0, 2, 1], seed=1, budget=4, max_bars=2)
        assert seq.count(vocab.bar_id) == 2

    @STOP_RULE_DECODERS
    def test_max_tokens_cutoff(self, decoder):
        vocab, seq, _ = _bar_loop_decode(
            decoder, [0], seed=2, budget=2, max_bars=10_000, max_tokens=12
        )
        assert len(seq) <= 13
        assert seq[-1] == vocab.end_id

    @STOP_RULE_DECODERS
    def test_start_at_max_tokens_is_only_closed(self, decoder):
        start = [0, 2, 1, 1, 2, 1]
        vocab, seq, trace = _bar_loop_decode(
            decoder, start, seed=3, budget=2, max_bars=16, max_tokens=len(start)
        )
        assert seq == _finalize(list(start), vocab)
        assert trace.records == []

    @STOP_RULE_DECODERS
    def test_start_at_max_bars_is_only_closed(self, decoder):
        start = [0, 2]
        vocab, seq, trace = _bar_loop_decode(decoder, start, seed=3, budget=2, max_bars=1)
        assert seq == _finalize(list(start), vocab)
        assert trace.records == []

    def test_budget_deltas_per_emitted_token(self):
        bundle = BUNDLE["pair-d10"]
        inst = bundle.inst
        seq, trace = decode_piece(
            inst.start, inst.policy, inst.classifier, inst.discriminator, inst.cfg,
            rng=np.random.default_rng(5),
        )
        d = inst.cfg.budget
        prev = (0, 0)
        for record in trace.records:
            now = (record["e_calls"], record["d_calls"])
            assert (now[0] - prev[0], now[1] - prev[1]) == (d, d)
            prev = now
        assert (trace.e_calls, trace.d_calls) == (d * len(trace.records), d * len(trace.records))

    def test_deterministic_under_fixed_seed(self):
        bundle = BUNDLE["barstop"]
        inst = bundle.inst
        runs = []
        for _ in range(2):
            seq, trace = decode_piece(
                inst.start, inst.policy, inst.classifier, inst.discriminator, inst.cfg,
                rng=np.random.default_rng(99),
            )
            runs.append((seq, trace.to_dict()))
        assert runs[0] == runs[1]

    def test_trace_record_schema(self):
        bundle = BUNDLE["pair-d10"]
        inst = bundle.inst
        _, trace = decode_piece(
            inst.start, inst.policy, inst.classifier, inst.discriminator, inst.cfg,
            rng=np.random.default_rng(8),
        )
        expected = {
            "step", "candidate_ids", "priors", "visits", "q_values",
            "root_visits", "chosen_id", "e_calls", "d_calls",
        }
        assert trace.method == "puct"
        for record in trace.records:
            assert set(record) == expected
            assert record["chosen_id"] in record["candidate_ids"]
            assert record["root_visits"] == inst.cfg.budget + 1


class TestConfigValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            DecodeConfig(target=EmotionQuadrant.E1, budget=0)

    @pytest.mark.parametrize("top_p", [0.0, 1.2, -0.1])
    def test_top_p_range(self, top_p):
        with pytest.raises(ValueError):
            DecodeConfig(target=EmotionQuadrant.E1, top_p=top_p)

    def test_exploration_c_non_negative(self):
        with pytest.raises(ValueError):
            DecodeConfig(target=EmotionQuadrant.E1, exploration_c=-1.0)

    def test_rollout_cap_non_negative(self):
        with pytest.raises(ValueError):
            DecodeConfig(target=EmotionQuadrant.E1, rollout_cap=-1)

    @STOP_RULE_DECODERS
    @pytest.mark.parametrize("limit", ["max_bars", "max_tokens"])
    def test_stop_limits_must_be_positive(self, decoder, limit):
        limits = {"max_bars": 16, "max_tokens": 1024, limit: 0}
        with pytest.raises(ValueError, match=limit):
            _bar_loop_decode(decoder, [0], seed=0, budget=2, **limits)
