"""Engine vs brute-force search oracle on fully tabulated instances."""
import dataclasses

import numpy as np
import pytest

from emodecode.emotion import ALL_QUADRANTS, EmotionQuadrant
from emodecode.models.base import EvaluatorBudget
from emodecode.puct import expand, search_step

from reference import (
    ScriptedRNG,
    avg019_instance,
    bundled_instances,
    engine_tree_state,
    exact_expected_reward,
    ref_tree_state,
    reference_puct,
    scripted_stream,
)

BUNDLES = bundled_instances()


def run_engine(inst, rng, budget):
    root = expand(inst.start, inst.policy, inst.cfg)
    for _ in range(inst.cfg.budget):
        search_step(
            root, inst.start, inst.policy, inst.classifier, inst.discriminator,
            inst.cfg, budget, rng,
        )
    return root


@pytest.mark.parametrize("bundle", BUNDLES, ids=[b.inst.name for b in BUNDLES])
def test_bit_for_bit_equivalence(bundle):
    """Identical tree, budget counters and rng consumption on a shared stream."""
    inst = bundle.inst
    stream = scripted_stream(bundle.rng_len, seed=1000 + BUNDLES.index(bundle))

    engine_rng = ScriptedRNG(list(stream))
    engine_budget = EvaluatorBudget()
    engine_root = run_engine(inst, engine_rng, engine_budget)

    ref_rng = ScriptedRNG(list(stream))
    ref_budget = EvaluatorBudget()
    ref_root = reference_puct(inst, ref_rng, ref_budget)

    assert engine_tree_state(engine_root) == ref_tree_state(ref_root)
    assert (engine_budget.e_calls, engine_budget.d_calls) == (ref_budget.e_calls, ref_budget.d_calls)
    assert engine_rng.consumed == ref_rng.consumed


@pytest.mark.parametrize(
    "name", [b.inst.name for b in BUNDLES if b.check_gap],
)
def test_visit_argmax_matches_exact_reward_argmax(name):
    """With a reward gap >= 0.3 the most-visited child is the truly best one."""
    bundle = next(b for b in BUNDLES if b.inst.name == name)
    inst = bundle.inst
    rng = ScriptedRNG(scripted_stream(bundle.rng_len, seed=7))
    root = run_engine(inst, rng, EvaluatorBudget())
    exact = {e.token_id: exact_expected_reward(inst, e.token_id) for e in root.edges}
    rewards = sorted(exact.values(), reverse=True)
    assert rewards[0] - rewards[1] >= 0.3
    by_visits = max(root.edges, key=lambda e: e.visits).token_id
    assert by_visits == max(exact, key=exact.get)


def test_high_budget_concentrates_on_the_better_child():
    bundle = next(b for b in BUNDLES if b.inst.name == "pair-d200")
    inst = bundle.inst
    rng = ScriptedRNG(scripted_stream(bundle.rng_len, seed=21))
    root = run_engine(inst, rng, EvaluatorBudget())
    best = max(root.edges, key=lambda e: e.visits)
    assert best.token_id == 1
    assert best.visits / inst.cfg.budget > 0.8


def test_huge_exploration_makes_visits_track_priors():
    bundle = next(b for b in BUNDLES if b.inst.name == "explore-c1000")
    inst = bundle.inst
    rng = ScriptedRNG(scripted_stream(bundle.rng_len, seed=33))
    root = run_engine(inst, rng, EvaluatorBudget())
    total = sum(e.visits for e in root.edges)
    for edge in root.edges:
        assert edge.visits / total == pytest.approx(edge.prior, abs=0.05)


class TestExactExpectedReward:
    def test_deterministic_continuation(self):
        inst = next(b for b in BUNDLES if b.inst.name == "pair-d10").inst
        assert exact_expected_reward(inst, 1) == pytest.approx(0.56, abs=1e-12)
        assert exact_expected_reward(inst, 2) == pytest.approx(-0.18, abs=1e-12)

    def test_branching_average(self):
        inst = avg019_instance()
        assert exact_expected_reward(inst, 1) == 0.19

    def test_unreachable_target_is_always_negative(self):
        for bundle in BUNDLES:
            if bundle.inst.name != "pair-d10":
                continue
            inst = bundle.inst
            cfg = dataclasses.replace(inst.cfg, target=EmotionQuadrant.E3)
            moved = dataclasses.replace(inst, cfg=cfg)
            for child in (1, 2):
                assert exact_expected_reward(moved, child) < 0.0

    def test_reward_sign_tracks_quadrant_match(self):
        """Reward is >= 0 exactly when the classifier argmax hits the target."""
        inst = next(b for b in BUNDLES if b.inst.name == "pair-d10").inst
        for target in ALL_QUADRANTS:
            cfg = dataclasses.replace(inst.cfg, target=target)
            moved = dataclasses.replace(inst, cfg=cfg)
            for child, best in ((1, EmotionQuadrant.E1), (2, EmotionQuadrant.E2)):
                value = exact_expected_reward(moved, child)
                assert (value >= 0.0) == (best is target)
