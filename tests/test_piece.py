"""Token sequence <-> Piece codec on the 480-tick grid."""
import pytest

from emodecode.errors import GrammarError
from emodecode.remi.piece import (
    BAR_TICKS,
    NoteEvent,
    Piece,
    STEP_TICKS,
    bpm_of_bin,
    piece_to_tokens,
    quantize_note,
    tempo_bin_of,
    tokens_to_piece,
)
from emodecode.remi.tokens import validate_sequence
from emodecode.remi.tokens import Token

from conftest import style_tokens
from emodecode.emotion import ALL_QUADRANTS


def T(text: str) -> list[Token]:
    return [Token.from_text(part) for part in text.split()]

ONE_NOTE = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16 END:0")


class TestNoteEvent:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(onset=-1, pitch=60, duration=120, velocity=64),
            dict(onset=0, pitch=60, duration=0, velocity=64),
            dict(onset=0, pitch=128, duration=120, velocity=64),
            dict(onset=0, pitch=60, duration=120, velocity=0),
            dict(onset=0, pitch=60, duration=120, velocity=128),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoteEvent(**kwargs)

    def test_piece_sorts_notes_and_needs_a_bar(self):
        a = NoteEvent(480, 60, 120, 64)
        b = NoteEvent(0, 72, 120, 64)
        assert Piece(notes=(a, b)).notes == (b, a)
        with pytest.raises(ValueError):
            Piece(bars=0)


class TestTokensToPiece:
    def test_single_note_example(self):
        piece = tokens_to_piece(ONE_NOTE)
        assert piece.notes == (NoteEvent(onset=0, pitch=60, duration=480, velocity=64),)
        assert piece.bars == 1

    def test_empty_bar(self):
        piece = tokens_to_piece(T("START:0 BAR:0 END:0"))
        assert piece.notes == ()
        assert piece.bars == 1

    def test_second_bar_offsets_by_1920_ticks(self):
        seq = T(
            "START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16"
            " BAR:0 POSITION:1 PITCH:62 DURATION:4 VELOCITY:16 END:0"
        )
        piece = tokens_to_piece(seq)
        assert piece.bars == 2
        assert [n.onset for n in piece.notes] == [0, BAR_TICKS]

    def test_position_sets_the_onset(self):
        seq = T("START:0 BAR:0 POSITION:5 PITCH:60 DURATION:2 VELOCITY:16 END:0")
        assert tokens_to_piece(seq).notes[0].onset == 4 * STEP_TICKS

    def test_tempo_recorded_last_wins_at_same_tick(self):
        seq = T(
            "START:0 BAR:0 POSITION:1 TEMPO:10 PITCH:60 DURATION:4 VELOCITY:16"
            " POSITION:1 TEMPO:20 PITCH:64 DURATION:4 VELOCITY:16 END:0"
        )
        assert tokens_to_piece(seq).tempo_changes == ((0, bpm_of_bin(20)),)

    def test_emotion_control_ignored(self):
        controlled = [ONE_NOTE[0], Token.emotion(3), *ONE_NOTE[1:]]
        assert tokens_to_piece(controlled) == tokens_to_piece(ONE_NOTE)

    def test_invalid_sequence_raises_with_index(self):
        with pytest.raises(GrammarError) as exc:
            tokens_to_piece([Token.start(), Token.pitch(60)])
        assert exc.value.index == 1

    def test_velocity_bin_scaling_clamps_at_127(self):
        seq = T("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:1 VELOCITY:32 END:0")
        assert tokens_to_piece(seq).notes[0].velocity == 127


class TestPieceToTokens:
    def test_roundtrip_of_the_example(self):
        assert piece_to_tokens(tokens_to_piece(ONE_NOTE)) == ONE_NOTE

    def test_roundtrip_of_style_corpus_pieces(self):
        for quadrant in ALL_QUADRANTS:
            seq = style_tokens(quadrant, variant=3, bars=2) + [Token.end()]
            assert piece_to_tokens(tokens_to_piece(seq)) == seq

    def test_off_grid_onset_quantizes_to_position_2(self):
        piece = Piece(notes=(NoteEvent(130, 60, 480, 64),))
        toks = piece_to_tokens(piece)
        assert Token.position(2) in toks

    def test_simultaneous_notes_ascend_by_pitch(self):
        piece = Piece(
            notes=(NoteEvent(0, 72, 480, 64), NoteEvent(0, 60, 480, 64)),
        )
        toks = piece_to_tokens(piece)
        pitches = [t.value for t in toks if t.kind.name == "PITCH"]
        assert pitches == [60, 72]
        # the grammar forbids Pitch after Velocity, so each note re-states
        # its position; both carry the same value
        positions = [t.value for t in toks if t.kind.name == "POSITION"]
        assert positions == [1, 1]

    def test_trailing_empty_bars_collapse_to_one(self):
        # Bar may only be followed by Position or End, so only a single
        # trailing empty bar is spellable
        piece = Piece(notes=(NoteEvent(0, 60, 480, 64),), bars=3)
        toks = piece_to_tokens(piece)
        assert validate_sequence(toks) is None
        assert sum(1 for t in toks if t.kind.name == "BAR") == 2
        assert tokens_to_piece(toks).bars == 2

    def test_interior_empty_bar_collapses(self):
        piece = Piece(
            notes=(NoteEvent(0, 60, 480, 64), NoteEvent(2 * 1920, 64, 480, 64)), bars=3
        )
        toks = piece_to_tokens(piece)
        assert validate_sequence(toks) is None
        back = tokens_to_piece(toks)
        assert back.bars == 2
        assert [n.onset for n in back.notes] == [0, 1920]

    def test_tempo_change_attaches_to_next_onset(self):
        piece = Piece(
            notes=(NoteEvent(0, 60, 480, 64), NoteEvent(960, 64, 480, 64)),
            tempo_changes=((500, 180.0),),
        )
        toks = piece_to_tokens(piece)
        i_tempo = next(i for i, t in enumerate(toks) if t.kind.name == "TEMPO")
        assert toks[i_tempo].value == tempo_bin_of(180.0)
        # attached to the position-960 note group, not the first note
        assert toks[i_tempo - 1] == Token.position(960 // STEP_TICKS + 1)

    def test_tempo_past_all_onsets_dropped(self):
        piece = Piece(notes=(NoteEvent(0, 60, 480, 64),), tempo_changes=((5000, 60.0),))
        assert all(t.kind.name != "TEMPO" for t in piece_to_tokens(piece))


class TestQuantization:
    def test_quantize_note_rounds_to_grid(self):
        assert quantize_note(NoteEvent(130, 60, 450, 63)) == (120, 60, 4 * STEP_TICKS, 64)

    def test_duration_bins_clamp(self):
        assert quantize_note(NoteEvent(0, 60, 1, 64))[2] == STEP_TICKS
        assert quantize_note(NoteEvent(0, 60, 99_999, 64))[2] == 32 * STEP_TICKS

    def test_tempo_bins_roundtrip(self):
        for b in range(1, 33):
            assert tempo_bin_of(bpm_of_bin(b)) == b
        assert tempo_bin_of(1.0) == 1
        assert tempo_bin_of(10_000.0) == 32
