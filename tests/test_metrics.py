"""Pitch range, pitch classes, polyphony, per-piece flags, and the comparison table."""
import numpy as np
import pytest

from emodecode.cli import _piece_metrics
from emodecode.emotion import EmotionQuadrant
from emodecode.errors import EmptyPiece, ManifestSchemaError
from emodecode.metrics import (
    compare_table,
    n_pitch_classes,
    piece_metrics,
    pitch_range,
    polyphony,
)
from emodecode.models.base import BarPrefixMixin, EvaluatorBudget
from emodecode.remi.piece import NoteEvent, Piece, tokens_to_piece
from emodecode.remi.tokens import VOCAB, Token

from doubles import TableDiscriminator, TableEmotionClassifier
from reference import brute_force_polyphony


def piece_of(*notes: tuple[int, int, int, int], bars: int = 2) -> Piece:
    return Piece(notes=tuple(NoteEvent(*n) for n in notes), bars=bars)


class TestPitchMetrics:
    def test_single_note_has_zero_range(self):
        assert pitch_range(piece_of((0, 60, 480, 64))) == 0.0

    def test_range_spans_extremes(self):
        piece = piece_of((0, 60, 480, 64), (480, 64, 480, 64), (960, 72, 480, 64))
        assert pitch_range(piece) == 12.0

    def test_octaves_are_one_pitch_class(self):
        piece = piece_of((0, 60, 480, 64), (480, 72, 480, 64), (960, 84, 480, 64))
        assert n_pitch_classes(piece) == 1

    def test_chromatic_saturates_at_twelve(self):
        piece = piece_of(*((i * 120, 60 + i, 120, 64) for i in range(24)), bars=2)
        assert n_pitch_classes(piece) == 12

    def test_pentachord(self):
        piece = piece_of(*((i * 120, p, 120, 64) for i, p in enumerate((60, 62, 64, 65, 67))))
        assert n_pitch_classes(piece) == 5

    def test_velocity_and_tempo_do_not_matter(self):
        quiet = piece_of((0, 60, 480, 10), (480, 67, 480, 12))
        loud = Piece(
            notes=tuple(NoteEvent(n.onset, n.pitch, n.duration, 120) for n in quiet.notes),
            tempo_changes=((0, 180.0),),
            bars=2,
        )
        assert pitch_range(quiet) == pitch_range(loud)
        assert n_pitch_classes(quiet) == n_pitch_classes(loud)

    def test_empty_piece_rejected(self):
        empty = Piece(notes=(), bars=1)
        for metric in (pitch_range, n_pitch_classes, polyphony):
            with pytest.raises(EmptyPiece):
                metric(empty)


class TestPolyphony:
    def test_single_whole_bar_note(self):
        assert polyphony(piece_of((0, 60, 1920, 64), bars=1)) == 1.0

    def test_two_simultaneous_notes(self):
        assert polyphony(piece_of((0, 60, 1920, 64), (0, 64, 1920, 64), bars=1)) == 2.0

    def test_partial_overlap(self):
        # A sounds on steps 0-7, B on 4-11: mean = (4*1 + 4*2 + 4*1) / 12
        piece = piece_of((0, 60, 960, 64), (480, 64, 960, 64), bars=1)
        assert polyphony(piece) == pytest.approx(16 / 12, abs=1e-12)

    def test_silent_gaps_are_excluded(self):
        piece = piece_of((0, 60, 240, 64), (1680, 64, 240, 64), bars=1)
        assert polyphony(piece) == 1.0

    def test_note_order_is_irrelevant(self):
        a = piece_of((0, 60, 960, 64), (480, 64, 960, 64))
        b = piece_of((480, 64, 960, 64), (0, 60, 960, 64))
        assert polyphony(a) == polyphony(b)
        assert a.notes == b.notes

    def test_matches_brute_force_on_random_pieces(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
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
            assert polyphony(piece) == oracle


ONE_NOTE = "START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16 END:0"


def ids(text: str) -> list[int]:
    return VOCAB.encode([Token.from_text(part) for part in text.split()])


class WholeBarClassifier(BarPrefixMixin, TableEmotionClassifier):
    vocab = VOCAB


class WholeBarDiscriminator(BarPrefixMixin, TableDiscriminator):
    vocab = VOCAB


def scored(seq, target, clf, disc, budget) -> dict:
    """``_piece_metrics`` of ``seq`` and the piece it decodes to."""
    return _piece_metrics(seq, tokens_to_piece(VOCAB.decode(seq)), target, clf, disc, budget)


class TestPieceMetrics:
    """Per-piece values and flags; the manifest's rates are means of the flags."""

    def test_note_less_piece_scores_zeros(self):
        out = piece_metrics(Piece(notes=(), bars=1))
        assert out == {"pitch_range": 0.0, "n_pitch_classes": 0, "polyphony": 0.0}
        assert isinstance(out["n_pitch_classes"], int)

    def test_realness_flag_needs_more_than_one_half(self):
        seq = ids(ONE_NOTE)
        clf = TableEmotionClassifier({}, default=(0.25, 0.25, 0.25, 0.25))
        budget = EvaluatorBudget()
        for realness, flag in ((0.5, 0), (0.9, 1)):
            disc = TableDiscriminator({tuple(seq): realness})
            row = scored(seq, EmotionQuadrant.E1, clf, disc, budget)
            assert (row["realness"], row["real_ok"]) == (realness, flag)
        assert (budget.e_calls, budget.d_calls) == (2, 2)

    def test_argmax_hit_sets_the_emotion_flag(self):
        seq = ids(ONE_NOTE)
        clf = TableEmotionClassifier({tuple(seq): (0.1, 0.7, 0.1, 0.1)})
        disc = TableDiscriminator({}, default=0.5)
        hit = scored(seq, EmotionQuadrant.E2, clf, disc, EvaluatorBudget())
        miss = scored(seq, EmotionQuadrant.E1, clf, disc, EvaluatorBudget())
        assert (hit["predicted_emotion"], hit["emotion_ok"]) == ("E2", 1)
        assert (miss["predicted_emotion"], miss["emotion_ok"]) == ("E2", 0)
        assert (hit["pitch_range"], hit["n_pitch_classes"], hit["polyphony"]) == (0.0, 1, 1.0)

    def test_sequence_too_short_gives_none_and_zero_flags(self):
        seq = ids("START:0 BAR:0 POSITION:1 PITCH:60 DURATION:4 VELOCITY:16")
        clf = WholeBarClassifier({}, default=(0.7, 0.1, 0.1, 0.1))
        disc = WholeBarDiscriminator({}, default=0.9)
        budget = EvaluatorBudget()
        row = scored(seq, EmotionQuadrant.E1, clf, disc, budget)
        assert (row["predicted_emotion"], row["emotion_ok"]) == (None, 0)
        assert (row["realness"], row["real_ok"]) == (None, 0)
        assert (budget.e_calls, budget.d_calls) == (0, 0)


FULL_ROW = {
    "pitch_range": 20.0,
    "n_pitch_classes": 6.0,
    "polyphony": 1.5,
    "emotion_rate": 0.5,
    "discriminator_rate": 0.25,
}


class TestCompareTable:
    def test_formats_paper_style_cells(self):
        aggregates = {
            "E1": {
                "pitch_range": 34.7,
                "n_pitch_classes": 7.35,
                "polyphony": 2.01,
                "emotion_rate": 0.71,
                "discriminator_rate": 0.58,
            }
        }
        text = compare_table({"puct": aggregates}, require_all_emotions=False)
        lines = text.splitlines()
        assert lines[0].split() == ["method", "metric", "E1", "E2", "E3", "E4"]
        rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[2:]}
        assert rows[("puct", "PR")] == ["34.70", "-", "-", "-"]
        assert rows[("puct", "NPC")] == ["7.35", "-", "-", "-"]
        assert rows[("puct", "POLY")] == ["2.01", "-", "-", "-"]
        assert rows[("puct", "E")] == ["71%", "-", "-", "-"]
        assert rows[("puct", "D")] == ["58%", "-", "-", "-"]

    def test_identical_manifests_render_identical_rows(self):
        aggregates = {q: dict(FULL_ROW) for q in ("E1", "E2", "E3", "E4")}
        text = compare_table({"a": aggregates, "b": aggregates})
        lines = text.splitlines()[2:]
        a_rows = [line.split()[1:] for line in lines if line.startswith("a ")]
        b_rows = [line.split()[1:] for line in lines if line.startswith("b ")]
        assert a_rows == b_rows and len(a_rows) == 5

    def test_missing_emotion_is_named(self):
        aggregates = {q: dict(FULL_ROW) for q in ("E1", "E2", "E4")}
        with pytest.raises(ManifestSchemaError, match="E3"):
            compare_table({"puct": aggregates})

    def test_no_manifests_rejected(self):
        with pytest.raises(ManifestSchemaError):
            compare_table({})
