"""Vocabulary, grammar masks, and sequence validation."""
import numpy as np
import pytest

from emodecode.emotion import EmotionQuadrant
from emodecode.errors import GrammarError
from emodecode.remi.tokens import (
    VOCAB,
    Token,
    TokenKind,
    complete_bar_prefix,
    grammar_mask,
    tokens_to_text,
    validate_sequence,
)


def T(text: str) -> list[Token]:
    return [Token.from_text(part) for part in text.split()]


class TestVocabulary:
    def test_size_is_247(self):
        assert VOCAB.vocab_size == 247
        assert VOCAB.vocab_size == 3 + 16 + 32 + 128 + 32 + 32 + 4

    def test_fixed_anchor_ids(self):
        assert VOCAB.start_id == 0
        assert VOCAB.end_id == 1
        assert VOCAB.bar_id == 2
        assert VOCAB.encode([Token.position(1)])[0] == 3
        assert VOCAB.encode([Token.tempo(1)])[0] == 19
        assert VOCAB.encode([Token.pitch(0)])[0] == 51
        assert VOCAB.encode([Token.duration(1)])[0] == 179
        assert VOCAB.encode([Token.velocity(1)])[0] == 211
        assert VOCAB.emotion_id(EmotionQuadrant.E1) == 243
        assert VOCAB.emotion_id(EmotionQuadrant.E4) == 246

    def test_bijection(self):
        for i, tok in enumerate(VOCAB.tokens):
            assert VOCAB.encode([tok])[0] == i
            assert VOCAB.decode([i]) == [tok]
        assert len({VOCAB.encode([t])[0] for t in VOCAB.tokens}) == VOCAB.vocab_size

    def test_encode_decode_roundtrip(self):
        seq = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16 END:0")
        assert VOCAB.decode(VOCAB.encode(seq)) == seq

    def test_pitch_ids_carry_raw_midi_values(self):
        assert VOCAB.values[VOCAB.encode([Token.pitch(60)])[0]] == 60
        assert VOCAB.kind_of(VOCAB.encode([Token.pitch(60)])[0]) is TokenKind.PITCH

    def test_no_chord_tokens(self):
        assert not any("CHORD" in t.to_text().upper() for t in VOCAB.tokens)

    def test_successors_sorted_and_match_grammar_mask(self):
        for tok in VOCAB.tokens:
            ids = VOCAB.successors(VOCAB.encode([tok])[0])
            assert list(ids) == sorted(ids)
            assert set(ids) == {VOCAB.encode([s])[0] for s in grammar_mask(tok)}

    def test_every_token_but_end_has_successors(self):
        for tok in VOCAB.tokens:
            n = VOCAB.successors(VOCAB.encode([tok])[0]).size
            assert (n == 0) == (tok.kind is TokenKind.END)


class TestTokenConstruction:
    @pytest.mark.parametrize(
        "kind, bad",
        [
            (Token.position, 0),
            (Token.position, 17),
            (Token.pitch, 128),
            (Token.pitch, -1),
            (Token.duration, 0),
            (Token.duration, 33),
            (Token.velocity, 33),
            (Token.tempo, 0),
            (Token.emotion, 5),
        ],
    )
    def test_out_of_range_rejected(self, kind, bad):
        with pytest.raises(ValueError):
            kind(bad)

    def test_text_roundtrip(self):
        seq = T("START:0 BAR:0 POSITION:3 TEMPO:12 PITCH:64 DURATION:2 VELOCITY:8 END:0")
        assert [Token.from_text(line) for line in tokens_to_text(seq).splitlines()] == seq

    def test_from_text_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Token.from_text("NOISE:1")


class TestGrammarMask:
    def test_pitch_forces_duration(self):
        mask = grammar_mask(Token.pitch(60))
        assert mask == frozenset(Token.duration(b) for b in range(1, 33))

    def test_start_forces_bar(self):
        assert grammar_mask(Token.start()) == frozenset([Token.bar()])

    def test_velocity_continuations(self):
        mask = grammar_mask(Token.velocity(16))
        expected = {Token.position(i) for i in range(1, 17)} | {Token.bar(), Token.end()}
        assert mask == frozenset(expected)

    def test_end_is_terminal(self):
        assert grammar_mask(Token.end()) == frozenset()


class TestValidation:
    def test_prefix_without_end_is_valid(self):
        seq = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16")
        assert validate_sequence(seq) is None

    def test_pitch_after_start_flagged_at_index_1(self):
        err = validate_sequence([Token.start(), Token.pitch(60)])
        assert isinstance(err, GrammarError)
        assert err.index == 1

    def test_must_open_with_start(self):
        err = validate_sequence([Token.bar(), Token.end()])
        assert err is not None and err.index == 0
        assert validate_sequence([]) is not None

    def test_single_emotion_control_allowed_after_start(self):
        seq = [Token.start(), Token.emotion(2), Token.bar(), Token.end()]
        assert validate_sequence(seq) is None

    def test_emotion_control_elsewhere_rejected(self):
        err = validate_sequence([Token.start(), Token.bar(), Token.emotion(1)])
        assert err is not None and err.index == 2
        two = [Token.start(), Token.emotion(1), Token.emotion(2), Token.bar()]
        assert validate_sequence(two) is not None

    def test_open_note_group_rejected_at_sequence_end(self):
        seq = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4")
        err = validate_sequence(seq)
        assert err is not None and err.index == len(seq)
        assert VOCAB.validate_ids(VOCAB.encode(seq)) is None

    def test_validate_ids_matches_token_form(self):
        good = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16 END:0")
        assert VOCAB.validate_ids(VOCAB.encode(good)) is None
        bad = VOCAB.encode([Token.start(), Token.pitch(60)])
        err = VOCAB.validate_ids(bad)
        assert err is not None and err.index == 1
        open_group = VOCAB.encode(T("START:0 BAR:0 POSITION:1"))
        assert VOCAB.validate_ids(open_group) is None
        assert VOCAB.validate_ids(open_group, require_complete=True) is not None

    def test_random_walks_through_grammar_mask_validate(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            seq = [Token.start()]
            for _ in range(rng.integers(1, 40)):
                options = sorted(grammar_mask(seq[-1]), key=lambda t: (t.kind, t.value))
                if not options:
                    break
                seq.append(options[rng.integers(len(options))])
            assert VOCAB.validate_ids(VOCAB.encode(seq)) is None
            if seq[-1].kind is TokenKind.END:
                assert validate_sequence(seq) is None


def kind_scan_bar_prefix(ids, vocab):
    """Reference: one pass over kind codes, tracking the first BAR and the
    last BAR or END after it."""
    bar_kind, end_kind = int(TokenKind.BAR), int(TokenKind.END)
    first_bar = last_delim = None
    for i, tid in enumerate(ids):
        kind = int(vocab.kind_codes[tid])
        if kind == bar_kind:
            if first_bar is None:
                first_bar = i
            else:
                last_delim = i
        elif kind == end_kind and first_bar is not None:
            last_delim = i
    return None if last_delim is None else list(ids[:last_delim])


class TestCompleteBarPrefix:
    def test_matches_kind_scan_reference(self, steering_corpus):
        for seq, _ in steering_corpus:
            closed = seq + [VOCAB.end_id]
            for n in range(len(closed) + 1):
                assert complete_bar_prefix(closed[:n], VOCAB) == kind_scan_bar_prefix(closed[:n], VOCAB)
        rng = np.random.default_rng(23)
        for _ in range(5000):
            ids = rng.integers(0, VOCAB.vocab_size, int(rng.integers(0, 40)))
            ids[rng.random(ids.size) < 0.15] = VOCAB.bar_id
            ids[rng.random(ids.size) < 0.05] = VOCAB.end_id
            expected = kind_scan_bar_prefix(ids.tolist(), VOCAB)
            assert complete_bar_prefix(ids.tolist(), VOCAB) == expected
            assert complete_bar_prefix(ids, VOCAB) == expected  # numpy ints

    def test_no_closed_bar_yet(self):
        ids = VOCAB.encode(T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16"))
        assert complete_bar_prefix(ids, VOCAB) is None

    def test_trailing_partial_bar_dropped(self):
        closed = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16")
        partial = T("BAR:0 POSITION:2 PITCH:62 DURATION:2 VELOCITY:8")
        ids = VOCAB.encode(closed + partial)
        assert complete_bar_prefix(ids, VOCAB) == VOCAB.encode(closed)

    def test_end_token_closes_the_last_bar(self):
        body = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16")
        ids = VOCAB.encode(body + [Token.end()])
        assert complete_bar_prefix(ids, VOCAB) == VOCAB.encode(body)

    def test_two_closed_bars_keep_both(self):
        bar1 = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16")
        bar2 = T("BAR:0 POSITION:1 PITCH:64 DURATION:4 VELOCITY:16")
        ids = VOCAB.encode(bar1 + bar2 + [Token.end()])
        assert complete_bar_prefix(ids, VOCAB) == VOCAB.encode(bar1 + bar2)
