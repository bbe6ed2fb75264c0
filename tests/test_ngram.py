"""Count-based policy: backoff, smoothing, persistence."""
import json

import numpy as np
import pytest

from emodecode.errors import EmptyCorpus, NotFitted
from emodecode.models.base import Policy
from emodecode.models.ngram import NGramPolicy, with_emotion_prefix
from emodecode.models.sampling import ranked_ids, top_p_filter
from emodecode.emotion import ALL_QUADRANTS, EmotionQuadrant
from emodecode.remi.tokens import VOCAB, Token

from conftest import style_tokens
from doubles import UniformPolicy, perplexity
from reference import ScriptedRNG, naive_ngram_distribution

# every length-2 context occurs exactly once, so greedy decoding replays it
MEMO_SEQ = VOCAB.encode(
    [
        Token.start(),
        Token.bar(),
        Token.position(1),
        Token.tempo(5),
        Token.pitch(60),
        Token.duration(2),
        Token.velocity(7),
        Token.position(9),
        Token.pitch(64),
        Token.duration(3),
        Token.velocity(9),
        Token.end(),
    ]
)


class TestAgainstRecountOracle:
    def test_matches_naive_recount_on_corpus_prefixes(self, steering_corpus, steering_models):
        policy, _, _ = steering_models
        corpus = [seq for seq, _ in steering_corpus]
        prefixes = []
        for seq in (corpus[0], corpus[13], corpus[30]):
            for cut in (1, 2, 7, len(seq) // 2, len(seq) - 1):
                prefixes.append(seq[:cut])
        # unseen context: swap the final token for a grammar-legal sibling
        odd = list(corpus[5][: corpus[5].index(VOCAB.encode([Token.pitch(60)])[0])])
        prefixes.append(odd + VOCAB.encode([Token.pitch(119)]))
        for prefix in prefixes:
            got = policy.next_distribution(prefix)
            want = naive_ngram_distribution(corpus, 3, 0.01, prefix, VOCAB)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            assert got.sum() == pytest.approx(1.0, abs=1e-9)


def naive_counts(sequences, order: int) -> dict:
    """Gram counts by a position-by-position loop: every target after position 0."""
    counts = {o: {} for o in range(1, order + 1)}
    for seq in sequences:
        for i in range(1, len(seq)):
            for o in range(1, order + 1):
                if i - (o - 1) >= 0:
                    row = counts[o].setdefault(tuple(int(t) for t in seq[i - (o - 1) : i]), {})
                    row[int(seq[i])] = row.get(int(seq[i]), 0) + 1
    return counts


class TestFitCounts:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_counts_equal_a_naive_loop(self, order):
        rng = np.random.default_rng(order)
        # few distinct ids, so grams repeat within and across sequences
        sequences = [[], [5], [5, 7], [7, 5], [5, 5, 5]]
        sequences += [rng.integers(0, 6, int(rng.integers(0, 30))).tolist() for _ in range(60)]
        sequences += [rng.integers(0, 6, n) for n in (0, 1, 2, 25)]  # numpy int arrays
        got = NGramPolicy(VOCAB, order=order).fit(sequences).counts_
        want = naive_counts(sequences, order)
        assert got == want
        for o in want:  # the same insertion order too, contexts and rows
            assert [(ctx, list(row)) for ctx, row in got[o].items()] == [
                (ctx, list(row)) for ctx, row in want[o].items()
            ]
            assert all(type(t) is int for ctx, row in got[o].items() for t in (*ctx, *row))

    def test_sequences_too_short_to_count_fit_empty_tables(self):
        counts = NGramPolicy(VOCAB, order=3).fit([[], [4], np.array([4])]).counts_
        assert counts == {1: {}, 2: {}, 3: {}}


class TestSmoothing:
    def test_memorizes_a_repeated_sequence(self):
        policy = NGramPolicy(VOCAB, order=3, add_k=0.01).fit([MEMO_SEQ] * 5)
        out = [MEMO_SEQ[0]]
        while out[-1] != VOCAB.end_id and len(out) < 50:
            out.append(int(np.argmax(policy.next_distribution(out))))
        assert out == MEMO_SEQ

    def test_huge_add_k_approaches_uniform(self):
        policy = NGramPolicy(VOCAB, order=3, add_k=1e9).fit([MEMO_SEQ])
        dist = policy.next_distribution(MEMO_SEQ[:5])
        legal = VOCAB.successors(MEMO_SEQ[4])
        uniform = np.zeros(VOCAB.vocab_size)
        uniform[legal] = 1.0 / len(legal)
        np.testing.assert_allclose(dist, uniform, atol=1e-6)

    def test_held_out_perplexity_beats_uniform(self, steering_corpus):
        train = [seq for i, (seq, _) in enumerate(steering_corpus) if i % 12 < 9]
        held = [seq for i, (seq, _) in enumerate(steering_corpus) if i % 12 >= 9]
        policy = NGramPolicy(VOCAB, order=3, add_k=0.01).fit(train)
        ppl = perplexity(policy, held)
        assert np.isfinite(ppl)
        assert ppl < perplexity(UniformPolicy(VOCAB), held)

    def test_perplexity_requires_transitions(self, steering_models):
        policy, _, _ = steering_models
        with pytest.raises(ValueError):
            perplexity(policy, [[VOCAB.start_id]])


class TestPersistence:
    def test_save_load_identity(self, steering_models, steering_corpus, tmp_path):
        policy, _, _ = steering_models
        path = tmp_path / "policy.json"
        policy.save(path)
        back = NGramPolicy.load(path, VOCAB)
        assert (back.order, back.add_k) == (policy.order, policy.add_k)
        for seq, _ in steering_corpus[:3]:
            assert np.array_equal(
                back.next_distribution(seq[:9]), policy.next_distribution(seq[:9])
            )

    def test_save_bytes_deterministic(self, steering_corpus, tmp_path):
        corpus = [seq for seq, _ in steering_corpus]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        NGramPolicy(VOCAB).fit(corpus).save(a)
        NGramPolicy(VOCAB).fit(list(reversed(corpus))).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_wrong_format_and_vocab(self, steering_models, tmp_path):
        policy, _, _ = steering_models
        path = tmp_path / "policy.json"
        policy.save(path)
        payload = json.loads(path.read_text())
        payload["vocab_size"] = 11
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="vocabulary"):
            NGramPolicy.load(path, VOCAB)
        payload["format"] = "something-else"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format|ngram"):
            NGramPolicy.load(path, VOCAB)


class TestControlTokens:
    def test_prefix_insertion_is_grammar_valid(self, steering_corpus):
        seq, _ = steering_corpus[0]
        prefixed = with_emotion_prefix(seq, EmotionQuadrant.E2, VOCAB)
        assert prefixed[0] == VOCAB.start_id
        assert prefixed[1] == VOCAB.emotion_id(EmotionQuadrant.E2)
        assert prefixed[2:] == list(seq[1:])
        assert VOCAB.validate_ids(prefixed) is None

    def test_seen_reflects_training_targets(self, steering_corpus):
        corpus = [seq for seq, _ in steering_corpus]
        plain = NGramPolicy(VOCAB).fit(corpus)
        control = VOCAB.emotion_id(EmotionQuadrant.E1)
        assert plain.seen(VOCAB.bar_id)
        assert not plain.seen(control)
        conditional = NGramPolicy(VOCAB).fit(
            [with_emotion_prefix(s, EmotionQuadrant.E1, VOCAB) for s in corpus]
        )
        assert conditional.seen(control)
        assert not conditional.seen(VOCAB.emotion_id(EmotionQuadrant.E3))


class TestNucleus:
    @pytest.mark.parametrize("p", [0.5, 0.9, 1.0])
    def test_matches_filter_on_every_corpus_context(self, steering_corpus, steering_models, p):
        policy, _, _ = steering_models
        checked = 0
        for seq, _ in steering_corpus:
            for cut in range(1, len(seq)):
                prefix = seq[:cut]
                dist = policy.next_distribution(prefix)
                ids = top_p_filter(dist, p)
                mass = dist[ids]
                got_ids, got_priors, got_cum = policy.nucleus(prefix, p)
                assert got_ids == [int(i) for i in ids]
                assert got_priors == [float(x) for x in mass / mass.sum()]
                assert np.array_equal(got_cum, np.cumsum(mass))
                checked += 1
        assert checked > 1000

    def test_repeat_call_returns_the_cached_objects(self, steering_corpus, steering_models):
        policy, _, _ = steering_models
        seq = steering_corpus[0][0]
        first = policy.nucleus(seq[:5], 0.9)
        again = policy.nucleus(list(seq[:5]), 0.9)
        assert all(a is b for a, b in zip(first, again))
        # the cache is per context: a different p is its own entry
        assert policy.nucleus(seq[:5], 1.0) is not first


class TestTopK:
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_matches_ranking_on_every_corpus_context(self, steering_corpus, steering_models, k):
        policy, _, _ = steering_models
        checked = 0
        for seq, _ in steering_corpus:
            for cut in range(1, len(seq)):
                prefix = seq[:cut]
                dist = policy.next_distribution(prefix)
                ids = ranked_ids(dist)[:k]
                assert policy.top_k(prefix, k) == ([int(i) for i in ids], [float(dist[i]) for i in ids])
                checked += 1
        assert checked > 1000

    def test_repeat_call_returns_the_cached_objects(self, steering_corpus, steering_models):
        policy, _, _ = steering_models
        seq = steering_corpus[0][0]
        first = policy.top_k(seq[:5], 5)
        again = policy.top_k(list(seq[:5]), 5)
        assert all(a is b for a, b in zip(first, again))
        assert policy.top_k(seq[:5], 10) is not first

    def test_kept_apart_from_the_nucleus_cache(self, steering_corpus, steering_models):
        policy, _, _ = steering_models
        prefix = steering_corpus[0][0][:5]
        # (ctx, 1) and (ctx, 1.0) are equal keys, so one shared dict would mix them up
        top = policy.top_k(prefix, 1)
        nucleus = policy.nucleus(prefix, 1.0)
        assert len(top) == 2 and len(nucleus) == 3
        assert policy.top_k(prefix, 1) is top
        assert policy.nucleus(prefix, 1.0) is nucleus

    def test_refit_clears_the_cache(self):
        policy = NGramPolicy(VOCAB, order=2, add_k=0.01)
        policy.fit([MEMO_SEQ])
        before = policy.top_k(MEMO_SEQ[:3], 3)
        assert policy.top_k(MEMO_SEQ[:3], 3) is before
        changed = list(MEMO_SEQ)
        changed[3] = VOCAB.encode([Token.tempo(9)])[0]
        policy.fit([changed])
        after = policy.top_k(MEMO_SEQ[:3], 3)
        assert after is not before
        assert after[0][0] != before[0][0]

    def test_generic_form_serves_a_table_policy(self):
        policy = UniformPolicy(VOCAB)
        ids, probs = policy.top_k([VOCAB.start_id], 3)
        legal = VOCAB.successors(VOCAB.start_id)
        assert ids == [int(i) for i in legal[:3]]
        assert probs == [1.0 / legal.size] * len(ids)


# two-bar pieces closed by END: after a bar's last note, BAR and END both follow
ROLLOUT_CORPUS = [
    VOCAB.encode(style_tokens(quadrant, variant, bars=2) + [Token.end()])
    for quadrant in ALL_QUADRANTS
    for variant in range(3)
]
ROLLOUT_STOPS = (VOCAB.bar_id, VOCAB.end_id)


class TestRollout:
    """``NGramPolicy.rollout`` against the generic ``Policy.rollout`` loop."""

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("p", [0.9, 1.0])
    @pytest.mark.parametrize("cap", [0, 1, 5, 64])
    def test_appends_the_same_ids_and_leaves_the_same_generator_state(self, order, p, cap):
        policy = NGramPolicy(VOCAB, order=order).fit(ROLLOUT_CORPUS)
        generic = NGramPolicy(VOCAB, order=order).fit(ROLLOUT_CORPUS)
        # START alone and START plus a control token are shorter than order - 1 for order 4
        prefixes = [[VOCAB.start_id], with_emotion_prefix([VOCAB.start_id], EmotionQuadrant.E2, VOCAB)]
        prefixes += [seq[:cut] for seq in ROLLOUT_CORPUS[::4] for cut in range(1, len(seq))]
        last = []
        for warm in (False, True):  # the first pass fills the nucleus cache, the second reads it
            for i, prefix in enumerate(prefixes):
                ours, theirs = list(prefix), list(prefix)
                rng_ours, rng_theirs = np.random.default_rng([i, cap]), np.random.default_rng([i, cap])
                policy.rollout(ours, p, cap, rng_ours, ROLLOUT_STOPS)
                Policy.rollout(generic, theirs, p, cap, rng_theirs, ROLLOUT_STOPS)
                assert ours == theirs
                assert rng_ours.random() == rng_theirs.random()
                assert len(ours) - len(prefix) <= cap
                if len(ours) > len(prefix):
                    last.append(ours[-1])
            assert policy._nuclei.keys() == generic._nuclei.keys()
        if cap == 64:  # long enough to reach a bar line: both stops occur
            assert VOCAB.bar_id in last and VOCAB.end_id in last

    @pytest.mark.parametrize("u", [1.0, 0.9999999999999999])
    def test_a_draw_at_the_total_takes_the_last_id(self, u):
        # u * total == total only for u == 1.0 (a scripted stream); the bounded bisect clamps it
        policy = NGramPolicy(VOCAB, order=3).fit(ROLLOUT_CORPUS)
        generic = NGramPolicy(VOCAB, order=3).fit(ROLLOUT_CORPUS)
        for seq in ROLLOUT_CORPUS[:4]:
            for cut in (1, 5, len(seq) // 2):
                ours, theirs = seq[:cut], seq[:cut]
                rng_ours, rng_theirs = ScriptedRNG([u] * 16), ScriptedRNG([u] * 16)
                policy.rollout(ours, 0.9, 16, rng_ours, ROLLOUT_STOPS)
                Policy.rollout(generic, theirs, 0.9, 16, rng_theirs, ROLLOUT_STOPS)
                assert ours == theirs
                assert rng_ours.consumed == rng_theirs.consumed
                for i in range(cut, len(ours)):
                    assert ours[i] == policy.nucleus(ours[:i], 0.9)[0][-1]

    def test_a_second_fit_serves_the_new_nuclei(self):
        first, second = ROLLOUT_CORPUS[:6], ROLLOUT_CORPUS[6:]  # E1 and E2, then E3 and E4
        policy = NGramPolicy(VOCAB, order=3).fit(first)
        fresh = NGramPolicy(VOCAB, order=3).fit(second)
        prefixes = [[VOCAB.start_id]] + [seq[:cut] for seq in ROLLOUT_CORPUS[::3] for cut in (2, 6, 11)]
        stale = []
        for i, prefix in enumerate(prefixes):  # fill every cache and link from the first corpus
            stale.append(list(prefix))
            policy.rollout(stale[-1], 0.9, 64, np.random.default_rng(i), ROLLOUT_STOPS)
        policy.fit(second)
        differs = False
        for i, prefix in enumerate(prefixes):
            ours, theirs = list(prefix), list(prefix)
            policy.rollout(ours, 0.9, 64, np.random.default_rng(i), ROLLOUT_STOPS)
            Policy.rollout(fresh, theirs, 0.9, 64, np.random.default_rng(i), ROLLOUT_STOPS)
            assert ours == theirs
            differs = differs or ours != stale[i]
        assert differs
        assert policy._nuclei.keys() == fresh._nuclei.keys()

    def test_cap_zero_draws_nothing(self):
        policy = NGramPolicy(VOCAB, order=3).fit(ROLLOUT_CORPUS)
        seq = [VOCAB.start_id]
        rng = np.random.default_rng(0)
        policy.rollout(seq, 0.9, 0, rng, ROLLOUT_STOPS)
        assert seq == [VOCAB.start_id]
        assert rng.random() == np.random.default_rng(0).random()


class TestValidation:
    @pytest.mark.parametrize("order", [0, 1, 5])
    def test_order_range(self, order):
        with pytest.raises(ValueError):
            NGramPolicy(VOCAB, order=order)

    @pytest.mark.parametrize("add_k", [0.0, -0.5, float("nan"), float("inf")])
    def test_add_k_positive(self, add_k):
        with pytest.raises(ValueError):
            NGramPolicy(VOCAB, add_k=add_k)

    def test_unfitted_and_empty(self):
        policy = NGramPolicy(VOCAB)
        with pytest.raises(NotFitted):
            policy.next_distribution([VOCAB.start_id])
        with pytest.raises(EmptyCorpus):
            policy.fit([])

    def test_refit_clears_cached_nuclei(self):
        policy = NGramPolicy(VOCAB, order=2, add_k=0.01)
        policy.fit([MEMO_SEQ])
        before = policy.nucleus(MEMO_SEQ[:3], 0.9)
        assert policy.nucleus(MEMO_SEQ[:3], 0.9) is before
        changed = list(MEMO_SEQ)
        changed[3] = VOCAB.encode([Token.tempo(9)])[0]
        policy.fit([changed])
        after = policy.nucleus(MEMO_SEQ[:3], 0.9)
        assert after is not before
        assert after[1] != before[1]

    def test_refit_clears_cached_rows(self):
        policy = NGramPolicy(VOCAB, order=2, add_k=0.01)
        policy.fit([MEMO_SEQ])
        before = policy.next_distribution(MEMO_SEQ[:3]).copy()
        changed = list(MEMO_SEQ)
        changed[3] = VOCAB.encode([Token.tempo(9)])[0]
        policy.fit([changed])
        after = policy.next_distribution(MEMO_SEQ[:3])
        assert not np.array_equal(before, after)
