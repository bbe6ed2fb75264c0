"""Acceptance suite: the ten headline guarantees, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as the
suite executes.  Criteria 6 and 7 share a 240-decode-per-method steering
benchmark that dominates the runtime (a few minutes); everything else is
seconds.  Each test also enforces its own wall-clock budget.
"""
import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from emodecode import cli
from emodecode.baselines import SamplingConfig, SBBSConfig, sbbs_decode, top_p_decode
from emodecode.emotion import ALL_QUADRANTS, EmotionQuadrant, argmax_quadrant
from emodecode.metrics import n_pitch_classes, pitch_range, polyphony
from emodecode.models.base import EvaluatorBudget
from emodecode.puct import (
    DecodeConfig,
    Edge,
    SearchNode,
    backpropagate,
    choose_token,
    decode_piece,
    expand,
    search_step,
    select,
    selection_scores,
    simulate,
)
from emodecode.remi.piece import NoteEvent, Piece
from emodecode.remi.tokens import VOCAB

from conftest import BENCH, BENCH_PIECES, BENCH_SEEDS, piece_rng
from reference import (
    ScriptedRNG,
    brute_force_polyphony,
    bundled_instances,
    engine_tree_state,
    exact_expected_reward,
    ref_tree_state,
    reference_puct,
    scripted_stream,
)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_selection_goldens():
    t0 = time.perf_counter()
    cfg = DecodeConfig(target=EmotionQuadrant.E1, exploration_c=1.0)

    node = SearchNode(
        edges=[Edge(1, 0.8, visits=10, q=0.1), Edge(2, 0.2, visits=1, q=0.3)],
        node_visits=12,
    )
    scores = selection_scores(node, cfg)
    root = math.sqrt(12)
    bonus_wins = (
        abs(scores[0] - (0.1 + 0.8 * root / 11)) <= 1e-12
        and abs(scores[1] - (0.3 + 0.2 * root / 2)) <= 1e-12
        and select(node, cfg) == 1
    )

    node = SearchNode(
        edges=[Edge(1, 0.1, visits=3, q=0.5), Edge(2, 0.9, visits=0, q=0.2)],
        node_visits=4,
    )
    greedy_wins = select(node, DecodeConfig(target=EmotionQuadrant.E1, exploration_c=0.0)) == 0

    node = SearchNode(edges=[Edge(1, 0.6), Edge(2, 0.4)])
    prior_wins = select(node, cfg) == 0

    elapsed = time.perf_counter() - t0
    ok = bonus_wins and greedy_wins and prior_wins and elapsed < 1.0
    verdict(1, ok, f"3 selection goldens, {elapsed:.3f}s")


def test_criterion_02_simulate_reward_goldens():
    t0 = time.perf_counter()
    inst = next(b for b in bundled_instances() if b.inst.name == "pair-d10").inst
    rewards = {}
    for quadrant in (EmotionQuadrant.E1, EmotionQuadrant.E2):
        cfg = dataclasses.replace(inst.cfg, target=quadrant)
        result = simulate(
            [0, 1], inst.policy, inst.classifier, inst.discriminator, cfg,
            EvaluatorBudget(), ScriptedRNG([0.5] * 4),
        )
        rewards[quadrant] = result.reward
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rewards[EmotionQuadrant.E1] - 0.56) <= 1e-12
        and abs(rewards[EmotionQuadrant.E2] - (-0.18)) <= 1e-12
        and elapsed < 1.0
    )
    verdict(
        2,
        ok,
        f"match {rewards[EmotionQuadrant.E1]:.2f}, mismatch "
        f"{rewards[EmotionQuadrant.E2]:.2f}, {elapsed:.3f}s",
    )


def test_criterion_03_backpropagation_running_mean():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(1000):
        edge = Edge(1, prior=1.0)
        node = SearchNode(edges=[edge])
        rewards = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 51)))
        for reward in rewards:
            backpropagate([(node, edge)], float(reward))
        ok = ok and abs(edge.q - float(np.mean(rewards))) <= 1e-9
        ok = ok and edge.visits == len(rewards)
        ok = ok and node.node_visits == len(rewards) + 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    verdict(3, ok, f"1000 reward streams, {elapsed:.2f}s")


def test_criterion_04_visit_and_budget_accounting(steering_models):
    t0 = time.perf_counter()
    policy, classifier, discriminator = steering_models
    cfg = DecodeConfig(
        target=EmotionQuadrant.E1, budget=50, top_p=BENCH["top_p"],
        exploration_c=BENCH["exploration_c"], rollout_cap=BENCH["rollout_cap"],
        max_bars=2, max_tokens=160,
    )
    seq, trace = decode_piece(
        [VOCAB.start_id], policy, classifier, discriminator, cfg,
        rng=np.random.default_rng(11),
    )
    ok = len(trace.records) > 0
    prev_e = prev_d = 0
    for record in trace.records:
        ok = ok and sum(record["visits"]) == 50
        ok = ok and record["root_visits"] == 51
        ok = ok and record["e_calls"] - prev_e == 50
        ok = ok and record["d_calls"] - prev_d == 50
        prev_e, prev_d = record["e_calls"], record["d_calls"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    verdict(4, ok, f"{len(trace.records)} tokens at budget 50, {elapsed:.2f}s")


def test_criterion_05_brute_force_oracle():
    t0 = time.perf_counter()
    bundles = bundled_instances()
    ok = True
    gaps = 0
    for index, bundle in enumerate(bundles):
        inst = bundle.inst
        stream = scripted_stream(bundle.rng_len, seed=5000 + index)

        engine_rng = ScriptedRNG(list(stream))
        engine_budget = EvaluatorBudget()
        root = expand(inst.start, inst.policy, inst.cfg)
        for _ in range(inst.cfg.budget):
            search_step(
                root, inst.start, inst.policy, inst.classifier, inst.discriminator,
                inst.cfg, engine_budget, engine_rng,
            )

        ref_rng = ScriptedRNG(list(stream))
        ref_budget = EvaluatorBudget()
        ref_root = reference_puct(inst, ref_rng, ref_budget)

        ok = ok and engine_tree_state(root) == ref_tree_state(ref_root)
        ok = ok and (engine_budget.e_calls, engine_budget.d_calls) == (ref_budget.e_calls, ref_budget.d_calls)
        ok = ok and engine_rng.consumed == ref_rng.consumed

        if bundle.check_gap:
            gaps += 1
            exact = {e.token_id: exact_expected_reward(inst, e.token_id) for e in root.edges}
            ranked = sorted(exact.values(), reverse=True)
            ok = ok and ranked[0] - ranked[1] >= 0.3
            by_visits = max(root.edges, key=lambda e: e.visits).token_id
            ok = ok and by_visits == max(exact, key=exact.get)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(5, ok, f"{len(bundles)} instances bit-for-bit, {gaps} gap checks, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def steering_benchmark(steering_models):
    """240 decodes per method (20 pieces x 4 emotions x 3 seeds), shared rng keys."""
    policy, classifier, discriminator = steering_models
    start = [VOCAB.start_id]
    puct_cfg = {q: DecodeConfig(target=q, **BENCH) for q in ALL_QUADRANTS}
    sbbs_cfg = {
        q: SBBSConfig(
            target=q, beams=5, top_k=10,
            max_bars=BENCH["max_bars"], max_tokens=BENCH["max_tokens"],
        )
        for q in ALL_QUADRANTS
    }
    sampling = SamplingConfig(
        top_p=BENCH["top_p"], max_bars=BENCH["max_bars"], max_tokens=BENCH["max_tokens"]
    )
    runs: dict[str, list] = {"puct": [], "topp": [], "sbbs": []}
    t0 = time.perf_counter()
    for seed in BENCH_SEEDS:
        for quadrant in ALL_QUADRANTS:
            for index in range(BENCH_PIECES):
                seq, _ = decode_piece(
                    start, policy, classifier, discriminator, puct_cfg[quadrant],
                    rng=piece_rng(seed, quadrant, index),
                )
                runs["puct"].append((quadrant, seq))
                seq, _ = top_p_decode(
                    start, policy, sampling, rng=piece_rng(seed, quadrant, index)
                )
                runs["topp"].append((quadrant, seq))
                seq, _ = sbbs_decode(
                    start, policy, classifier, sbbs_cfg[quadrant],
                    rng=piece_rng(seed, quadrant, index),
                )
                runs["sbbs"].append((quadrant, seq))
    elapsed = time.perf_counter() - t0
    return runs, elapsed, classifier


def steered_rate(runs, classifier) -> float:
    budget = EvaluatorBudget()
    hits = sum(
        argmax_quadrant(classifier.distribution(seq, budget)) is quadrant
        for quadrant, seq in runs
    )
    return hits / len(runs)


def test_criterion_06_steering_beats_baselines(steering_benchmark):
    runs, elapsed, classifier = steering_benchmark
    rates = {method: steered_rate(runs[method], classifier) for method in runs}
    ok = (
        len(runs["puct"]) == 240
        and rates["puct"] >= rates["topp"] + 0.2
        and rates["puct"] >= rates["sbbs"]
        and elapsed < 600.0
    )
    verdict(
        6,
        ok,
        f"emotion rate puct {rates['puct']:.3f} vs topp {rates['topp']:.3f} "
        f"and sbbs {rates['sbbs']:.3f}, {elapsed:.1f}s",
    )


def test_criterion_07_all_generated_sequences_valid(steering_benchmark):
    runs, _, _ = steering_benchmark
    sequences = [seq for method in runs for _, seq in runs[method]]
    valid = sum(
        1 for seq in sequences if VOCAB.validate_ids(seq, require_complete=True) is None
    )
    ok = valid == len(sequences) == 720
    verdict(7, ok, f"{valid}/{len(sequences)} sequences grammatical and complete")


def test_criterion_08_objective_metrics():
    t0 = time.perf_counter()

    def piece_of(*notes, bars=2):
        return Piece(notes=tuple(NoteEvent(*n) for n in notes), bars=bars)

    spread = piece_of((0, 60, 480, 64), (480, 64, 480, 64), (960, 72, 480, 64))
    octaves = piece_of((0, 60, 480, 64), (480, 72, 480, 64), (960, 84, 480, 64))
    chromatic = piece_of(*((i * 120, 60 + i, 120, 64) for i in range(24)))
    held = piece_of((0, 60, 1920, 64), bars=1)
    dyad = piece_of((0, 60, 1920, 64), (0, 64, 1920, 64), bars=1)
    overlap = piece_of((0, 60, 960, 64), (480, 64, 960, 64), bars=1)
    gapped = piece_of((0, 60, 480, 64), (1440, 64, 480, 64), bars=1)
    ok = (
        pitch_range(piece_of((0, 60, 480, 64))) == 0.0
        and pitch_range(spread) == 12.0
        and n_pitch_classes(octaves) == 1
        and n_pitch_classes(chromatic) == 12
        and polyphony(held) == 1.0
        and polyphony(dyad) == 2.0
        and polyphony(overlap) == pytest.approx(16 / 12, abs=1e-12)
        and polyphony(gapped) == 1.0
    )

    rng = np.random.default_rng(424242)
    exact = 0
    for _ in range(500):
        notes = tuple(
            NoteEvent(
                int(rng.integers(0, 3840)),
                int(rng.integers(21, 109)),
                int(rng.integers(1, 961)),
                int(rng.integers(1, 128)),
            )
            for _ in range(int(rng.integers(1, 13)))
        )
        piece = Piece(notes=notes, bars=2)
        oracle = brute_force_polyphony(
            [(n.onset, n.pitch, n.duration, n.velocity) for n in notes]
        )
        exact += polyphony(piece) == oracle
    elapsed = time.perf_counter() - t0
    ok = ok and exact == 500 and elapsed < 10.0
    verdict(8, ok, f"fixtures exact, {exact}/500 random pieces match brute force, {elapsed:.2f}s")


def test_criterion_09_cli_runs_byte_identical(midi_dir, tmp_path):
    t0 = time.perf_counter()
    corpus = tmp_path / "corpus.json"
    models = tmp_path / "models"
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert cli.main(["ingest", str(midi_dir), "--out", str(corpus)]) == 0
    labels = str(midi_dir / "labels.json")
    assert cli.main(["train", str(corpus), "--labels", labels, "--out", str(models)]) == 0

    ok = True
    checked = 0
    for method in cli.METHODS:
        args = [
            "generate", "--method", method, "--models", str(models),
            "--max-bars", "2", "--max-tokens", "120", "--count", "1",
            "--seed", "4",
        ]
        if method == "puct":
            args += ["--budget", "4"]
        if method == "sbbs":
            args += ["--beam", "2", "--top-k", "4"]
        first = tmp_path / f"{method}_a"
        second = tmp_path / f"{method}_b"
        for out in (first, second):
            assert cli.main(args + ["--out", str(out)]) == 0
        ok = ok and (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()
        mids = sorted(first.glob("*.mid"))
        ok = ok and len(mids) == 4
        for mid in mids:
            checked += 1
            ok = ok and mid.read_bytes() == (second / mid.name).read_bytes()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    verdict(9, ok, f"{len(cli.METHODS)} methods, {checked} MIDI files compared, {elapsed:.1f}s")


def test_criterion_10_token_choice_tracks_visits():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    counts = {7: 0, 8: 0}
    for _ in range(10000):
        root = SearchNode(
            edges=[Edge(7, 0.5, visits=30), Edge(8, 0.5, visits=20)], node_visits=51
        )
        counts[choose_token(root, rng)[0]] += 1
    share7 = counts[7] / 10000
    share8 = counts[8] / 10000
    elapsed = time.perf_counter() - t0
    ok = abs(share7 - 0.6) <= 0.02 and abs(share8 - 0.4) <= 0.02 and elapsed < 10.0
    verdict(10, ok, f"visit shares {share7:.3f}/{share8:.3f} vs 0.6/0.4, {elapsed:.2f}s")
