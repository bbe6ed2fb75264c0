"""Grid-based score representation and the token <-> piece codec.

Timing lives on a 480 ticks-per-quarter grid in 4/4: a bar is 1920 ticks,
split into 16 sub-beat positions of 120 ticks each.  Durations come in 32
bins of one sub-beat (120 ticks), velocities in 32 bins of width 4, tempo
in 32 bins of 5 bpm starting at 35 (bpm = 30 + 5 * bin).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .tokens import (
    POSITIONS_PER_BAR,
    N_DURATION_BINS,
    N_TEMPO_BINS,
    N_VELOCITY_BINS,
    Token,
    TokenKind,
    validate_sequence,
)

TICKS_PER_BEAT = 480
STEP_TICKS = 120
BAR_TICKS = POSITIONS_PER_BAR * STEP_TICKS  # 1920
DEFAULT_BPM = 120.0


@dataclass(frozen=True, order=True)
class NoteEvent:
    onset: int        # ticks from the start of the piece
    pitch: int        # 0..127
    duration: int     # ticks, > 0
    velocity: int     # 1..127

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("note duration must be positive")
        if not 0 <= self.pitch <= 127:
            raise ValueError("pitch outside 0..127")
        if not 1 <= self.velocity <= 127:
            raise ValueError("velocity outside 1..127")
        if self.onset < 0:
            raise ValueError("onset must be >= 0")


@dataclass(frozen=True)
class Piece:
    """Notes plus tempo changes on the fixed 4/4 grid."""

    notes: tuple[NoteEvent, ...] = ()
    tempo_changes: tuple[tuple[int, float], ...] = ()
    bars: int = 1

    def __post_init__(self):
        if self.bars < 1:
            raise ValueError("a piece spans at least one bar")
        object.__setattr__(self, "notes", tuple(sorted(self.notes)))
        object.__setattr__(self, "tempo_changes", tuple(self.tempo_changes))


def _round_to_grid(ticks: int, grid: int) -> int:
    """Nearest grid point, ties rounding up."""
    return (ticks + grid // 2) // grid * grid


def quantize_note(note: NoteEvent) -> NoteEvent:
    onset = _round_to_grid(note.onset, STEP_TICKS)
    dur_bin = max(1, min(N_DURATION_BINS, (note.duration + STEP_TICKS // 2) // STEP_TICKS))
    vel_bin = max(1, min(N_VELOCITY_BINS, (note.velocity + 2) // 4))
    return NoteEvent(onset, note.pitch, dur_bin * STEP_TICKS, min(vel_bin * 4, 127))


def tempo_bin_of(bpm: float) -> int:
    return max(1, min(N_TEMPO_BINS, int((bpm - 30.0) / 5.0 + 0.5)))


def bpm_of_bin(bin_: int) -> float:
    return 30.0 + 5.0 * bin_


def tokens_to_piece(seq: Sequence[Token]) -> Piece:
    """Decode a well-formed token sequence into a Piece.

    Raises the GrammarError from validate_sequence when the input is not a
    complete, well-formed sequence.  Emotion control tokens are ignored.
    """
    err = validate_sequence(seq)
    if err is not None:
        raise err
    notes: list[NoteEvent] = []
    tempi: dict[int, float] = {}
    bar = -1
    tick = 0
    pitch = 0
    duration = STEP_TICKS
    n_bars = 0
    for tok in seq:
        if tok.kind is TokenKind.BAR:
            bar += 1
            n_bars += 1
        elif tok.kind is TokenKind.POSITION:
            tick = bar * BAR_TICKS + (tok.value - 1) * STEP_TICKS
        elif tok.kind is TokenKind.TEMPO:
            tempi[tick] = bpm_of_bin(tok.value)  # last one at a tick wins
        elif tok.kind is TokenKind.PITCH:
            pitch = tok.value
        elif tok.kind is TokenKind.DURATION:
            duration = tok.value * STEP_TICKS
        elif tok.kind is TokenKind.VELOCITY:
            notes.append(NoteEvent(tick, pitch, duration, min(tok.value * 4, 127)))
    return Piece(
        notes=tuple(notes),
        tempo_changes=tuple(sorted(tempi.items())),
        bars=max(1, n_bars),
    )


def piece_to_tokens(piece: Piece) -> list[Token]:
    """Encode a piece as a canonical token sequence.

    Notes are quantized to the grid, ordered by (onset, pitch, duration,
    velocity), and each gets its own Position token (the grammar forbids a
    second Pitch directly after a Velocity).  A tempo change is emitted with
    the first note group at the first onset at or after its tick; changes
    past the final onset are dropped.

    The grammar has no way to spell an empty bar followed by another bar
    (Bar may only be followed by Position or End), so empty bars collapse:
    note-bearing bars are emitted back to back and a piece that ends with
    one or more empty bars keeps exactly one of them.
    """
    notes = sorted(quantize_note(n) for n in piece.notes)
    last_bar = max((n.onset // BAR_TICKS for n in notes), default=0)
    n_bars = max(piece.bars, last_bar + 1)

    # tempo tick -> bin, snapped to the grid, last change at a tick wins
    tempi: dict[int, int] = {}
    for tick, bpm in piece.tempo_changes:
        tempi[_round_to_grid(tick, STEP_TICKS)] = tempo_bin_of(bpm)
    onsets = sorted({n.onset for n in notes})
    tempo_at_onset: dict[int, int] = {}
    for tick in sorted(tempi):
        target = next((o for o in onsets if o >= tick), None)
        if target is not None:
            tempo_at_onset[target] = tempi[tick]

    out = [Token.start()]
    i = 0
    while i < len(notes):
        bar = notes[i].onset // BAR_TICKS
        bar_end = (bar + 1) * BAR_TICKS
        out.append(Token.bar())
        prev_onset = None
        while i < len(notes) and notes[i].onset < bar_end:
            n = notes[i]
            out.append(Token.position((n.onset - bar * BAR_TICKS) // STEP_TICKS + 1))
            if n.onset != prev_onset and n.onset in tempo_at_onset:
                out.append(Token.tempo(tempo_at_onset[n.onset]))
            out.append(Token.pitch(n.pitch))
            out.append(Token.duration(n.duration // STEP_TICKS))
            out.append(Token.velocity((n.velocity + 2) // 4))
            prev_onset = n.onset
            i += 1
    if not notes or n_bars > last_bar + 1:
        out.append(Token.bar())
    out.append(Token.end())
    return out
