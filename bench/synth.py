"""Seeded synthetic corpora and a minimal Standard MIDI File writer.

The benchmark never hands the program anything it did not generate here:
a directory of type-0 MIDI files plus a JSON label file.  The writer is
deliberately independent of ``emodecode.remi.midi`` so that ingesting the
corpus checks the program's reader and tokenizer against known note lists.

Two corpus styles, both with every quadrant equally represented:

* ``narrow``: four quarter notes per bar, two tempo bins, two velocity
  bins and one pitch set (tonic, third, fifth and octave of C major or
  C minor) per quadrant.
* ``wide``: 3-8 onsets per bar on random sub-beat positions (5-8 for the
  high-arousal quadrants, 3-5 for the others), a fifth above on about half
  of them, scale pitches over three octaves and random durations, with
  per-quadrant tempo, velocity and mode ranges.

Every bar holds at least one onset, so the codec's empty-bar collapse
never applies and ingest must reproduce the notes exactly.
"""
from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

TICKS_PER_BEAT = 480
STEP_TICKS = 120
BAR_TICKS = 16 * STEP_TICKS
QUADRANTS = ("E1", "E2", "E3", "E4")

MAJOR = (0, 2, 4, 5, 7, 9, 11)
MINOR = (0, 2, 3, 5, 7, 8, 10)
# per quadrant: tempo bins (bpm = 30 + 5 * bin), velocity bins (x4), mode,
# onsets per bar (wide corpus only)
STYLES = {
    "E1": ((22, 26), (24, 30), MAJOR, (5, 8)),
    "E2": ((22, 26), (24, 30), MINOR, (5, 8)),
    "E3": ((8, 12), (8, 14), MINOR, (3, 5)),
    "E4": ((8, 12), (8, 14), MAJOR, (3, 5)),
}
# the narrow corpus keeps two tempo and two velocity bins per quadrant
NARROW_STYLES = {
    "E1": ((24, 25), (28, 29), MAJOR),
    "E2": ((24, 25), (28, 29), MINOR),
    "E3": ((10, 11), (10, 11), MINOR),
    "E4": ((10, 11), (10, 11), MAJOR),
}
# triad degrees weigh more so the key profile is unambiguous
_DEGREE_WEIGHTS = (6, 2, 4, 2, 5, 2, 1)


@dataclass(frozen=True, order=True)
class Note:
    onset: int      # ticks
    pitch: int
    duration: int   # ticks
    velocity: int


@dataclass(frozen=True)
class SynthPiece:
    name: str
    quadrant: str
    bpm: float
    bars: int
    notes: tuple[Note, ...]


def _scale_pitches(mode, low: int, high: int) -> list[int]:
    return [p for p in range(low, high + 1) if (p % 12) in mode]


def _degree_weight(pitch: int, mode) -> int:
    return _DEGREE_WEIGHTS[mode.index(pitch % 12)]


def _narrow_piece(rng: random.Random, quadrant: str, bars: int) -> tuple[float, list[Note]]:
    (t_lo, t_hi), (v_lo, v_hi), mode = NARROW_STYLES[quadrant]
    bpm = 30.0 + 5.0 * rng.randint(t_lo, t_hi)
    # tonic, third, fifth and octave: the third alone carries the mode
    pitches = [60 + mode[0], 60 + mode[2], 60 + mode[4], 72]
    weights = [3, 2, 2, 1]
    notes = []
    for bar in range(bars):
        for beat in range(4):
            onset = bar * BAR_TICKS + beat * TICKS_PER_BEAT
            pitch = rng.choices(pitches, weights)[0]
            notes.append(Note(onset, pitch, TICKS_PER_BEAT, 4 * rng.randint(v_lo, v_hi)))
    return bpm, notes


def _wide_piece(rng: random.Random, quadrant: str, bars: int) -> tuple[float, list[Note]]:
    (t_lo, t_hi), (v_lo, v_hi), mode, (o_lo, o_hi) = STYLES[quadrant]
    bpm = 30.0 + 5.0 * rng.randint(t_lo, t_hi)
    pitches = _scale_pitches(mode, 48, 83)
    weights = [_degree_weight(p, mode) for p in pitches]
    busy_until: dict[int, int] = {}  # pitch -> tick its last note stops sounding
    notes = []
    for bar in range(bars):
        positions = sorted(rng.sample(range(16), rng.randint(o_lo, o_hi)))
        for pos in positions:
            onset = bar * BAR_TICKS + pos * STEP_TICKS
            free = [i for i, p in enumerate(pitches) if busy_until.get(p, 0) <= onset]
            root = rng.choices(free, [weights[i] for i in free])[0]
            chord = [pitches[root]]
            fifth = root + 4  # a diatonic fifth above, if it is free
            if rng.random() < 0.5 and fifth in free:
                chord.append(pitches[fifth])
            velocity = 4 * rng.randint(v_lo, v_hi)
            for pitch in chord:
                duration = STEP_TICKS * rng.randint(1, 8)
                notes.append(Note(onset, pitch, duration, velocity))
                busy_until[pitch] = onset + duration
    return bpm, notes


def make_corpus(style: str, seed: int, pieces_per_quadrant: int, bars: int) -> list[SynthPiece]:
    """The same (style, seed, sizes) always gives the same pieces."""
    make = {"narrow": _narrow_piece, "wide": _wide_piece}[style]
    rng = random.Random(f"{style}:{seed}")
    out = []
    for i in range(pieces_per_quadrant):
        for quadrant in QUADRANTS:
            bpm, notes = make(rng, quadrant, bars)
            name = f"{style}_{quadrant}_{i:03d}.mid"
            out.append(SynthPiece(name, quadrant, bpm, bars, tuple(sorted(notes))))
    return out


def _var_int(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def smf_bytes(piece: SynthPiece) -> bytes:
    """Type-0 SMF: 4/4 and tempo at tick 0, offs before ons at equal ticks."""
    mpqn = round(60_000_000 / piece.bpm)
    events = [
        (0, 0, b"\xff\x58\x04\x04\x02\x18\x08"),
        (0, 0, b"\xff\x51\x03" + mpqn.to_bytes(3, "big")),
    ]
    end = piece.bars * BAR_TICKS
    for n in piece.notes:
        events.append((n.onset, 2, bytes((0x90, n.pitch, n.velocity))))
        events.append((n.onset + n.duration, 1, bytes((0x80, n.pitch, 0))))
        end = max(end, n.onset + n.duration)
    events.append((end, 3, b"\xff\x2f\x00"))
    body = bytearray()
    now = 0
    for tick, _, payload in sorted(events, key=lambda e: (e[0], e[1])):
        body += _var_int(tick - now) + payload
        now = tick
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_BEAT)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def write_corpus(pieces: list[SynthPiece], midi_dir: Path, labels_path: Path) -> None:
    midi_dir.mkdir(parents=True, exist_ok=True)
    for piece in pieces:
        (midi_dir / piece.name).write_bytes(smf_bytes(piece))
    labels = {piece.name: piece.quadrant for piece in pieces}
    labels_path.write_text(json.dumps(labels, sort_keys=True, indent=1) + "\n")
