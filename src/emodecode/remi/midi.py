"""Minimal type-0/1 Standard MIDI File reader and type-0 writer.

Only the events the codec needs are interpreted: note-on/off, set-tempo and
time-signature.  Everything else is skipped.  Reading merges all tracks onto
the 480 ticks-per-quarter grid and quantizes to the 120-tick sub-beat.
"""
from __future__ import annotations

import struct
import warnings
from pathlib import Path

from ..errors import MalformedMidi, MeterImportWarning
from .piece import BAR_TICKS, DEFAULT_BPM, STEP_TICKS, TICKS_PER_BEAT, NoteEvent, Piece

_NOTE_OFF = 0x80
_NOTE_ON = 0x90
_META = 0xFF
_META_END_OF_TRACK = 0x2F
_META_SET_TEMPO = 0x51
_META_TIME_SIGNATURE = 0x58
_SYSEX = (0xF0, 0xF7)


def _var_int_bytes(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _chunk(data: bytes, pos: int, n: int) -> bytes:
    """The ``n`` bytes at ``pos``; MalformedMidi at ``pos`` if the file ends first."""
    if pos + n > len(data):
        raise MalformedMidi("unexpected end of file", pos)
    return data[pos : pos + n]


def _var_int(data: bytes, pos: int) -> tuple[int, int]:
    """The variable-length quantity at ``pos`` and the position after it."""
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise MalformedMidi("unexpected end of file", pos)
        b = data[pos]
        pos += 1
        value = (value << 7) | (b & 0x7F)
        if not b & 0x80:
            return value, pos
    raise MalformedMidi("variable-length quantity longer than 4 bytes", pos)


def _scale_tick(file_tick: int, division: int) -> int:
    """File ticks -> our grid, scaled to 480 tpq and snapped to 120 ticks."""
    return (file_tick * TICKS_PER_BEAT + division * (STEP_TICKS // 2)) // (division * STEP_TICKS) * STEP_TICKS


def read_midi(path: str | Path) -> Piece:
    """Parse a MIDI file into a Piece on the fixed 4/4 grid.

    Tracks are merged; overlapping note-ons on the same pitch truncate the
    earlier note at the later onset.  A non-4/4 time signature raises a
    MeterImportWarning but the file is still imported on the 4/4 grid.
    """
    data = Path(path).read_bytes()
    size = len(data)
    if _chunk(data, 0, 4) != b"MThd":
        raise MalformedMidi("missing MThd header", 0)
    header_len = struct.unpack(">I", _chunk(data, 4, 4))[0]
    if header_len < 6:
        raise MalformedMidi("header chunk too short", 4)
    fmt, n_tracks, division = struct.unpack(">HHH", _chunk(data, 8, 6))
    _chunk(data, 14, header_len - 6)  # the rest of a longer header, skipped
    pos = 8 + header_len
    if fmt not in (0, 1):
        raise MalformedMidi(f"unsupported SMF format {fmt}", 8)
    if division & 0x8000:
        raise MalformedMidi("SMPTE time division is not supported", 12)
    if division == 0:
        raise MalformedMidi("zero time division", 12)

    # (tick, order) -> event; order keeps offs ahead of ons at equal ticks
    events: list[tuple[int, int, int, int, int]] = []  # tick, seq, type, pitch, velocity
    tempi: dict[int, float] = {}
    end_tick = 0
    warned_meter = False

    # bytes are read by index: a short file raises where the old per-byte reads stopped
    for _ in range(n_tracks):
        if _chunk(data, pos, 4) != b"MTrk":
            raise MalformedMidi("missing MTrk chunk", pos)
        track_len = struct.unpack(">I", _chunk(data, pos + 4, 4))[0]
        pos += 8
        track_end = pos + track_len
        if track_end > size:
            raise MalformedMidi("track length runs past end of file", pos - 4)
        tick = 0
        status = None
        while pos < track_end:
            delta, pos = _var_int(data, pos)
            tick += delta
            if pos >= size:
                raise MalformedMidi("unexpected end of file", pos)
            if data[pos] & 0x80:
                status = data[pos]
                pos += 1
            elif status is None:
                raise MalformedMidi("data byte without running status", pos)
            # else running status: the byte is data for the previous status
            if status == _META:
                if pos >= size:
                    raise MalformedMidi("unexpected end of file", pos)
                meta_type = data[pos]
                length, pos = _var_int(data, pos + 1)
                body = _chunk(data, pos, length)
                pos += length
                status = None  # meta events cancel running status
                if meta_type == _META_SET_TEMPO and length == 3:
                    mpqn = int.from_bytes(body, "big")
                    if mpqn:
                        tempi[_scale_tick(tick, division)] = round(60_000_000 / mpqn, 2)
                elif meta_type == _META_TIME_SIGNATURE and length >= 2:
                    num, denom_pow = body[0], body[1]
                    if (num, 1 << denom_pow) != (4, 4) and not warned_meter:
                        warnings.warn(
                            f"{Path(path).name}: time signature {num}/{1 << denom_pow}"
                            " imported on the 4/4 grid",
                            MeterImportWarning,
                            stacklevel=2,
                        )
                        warned_meter = True
                elif meta_type == _META_END_OF_TRACK:
                    end_tick = max(end_tick, tick)
            elif status in _SYSEX:
                length, pos = _var_int(data, pos)
                _chunk(data, pos, length)
                pos += length
                status = None
            else:
                kind = status & 0xF0
                if kind in (_NOTE_OFF, _NOTE_ON):
                    if pos + 2 > size:
                        raise MalformedMidi("unexpected end of file", size)
                    pitch, velocity = data[pos], data[pos + 1]
                    pos += 2
                    if kind == _NOTE_ON and velocity > 0:
                        events.append((tick, len(events), 1, pitch, velocity))
                    else:
                        events.append((tick, len(events), 0, pitch, 0))
                elif kind in (0xA0, 0xB0, 0xE0):
                    _chunk(data, pos, 2)
                    pos += 2
                elif kind in (0xC0, 0xD0):
                    _chunk(data, pos, 1)
                    pos += 1
                else:
                    raise MalformedMidi(f"unknown status byte 0x{status:02x}", pos - 1)
        if pos != track_end:
            raise MalformedMidi("event data overran declared track length", pos)

    # pair note-ons with offs over the merged stream; a repeated note-on
    # truncates the note that is still sounding on that pitch
    active: dict[int, tuple[int, int]] = {}  # pitch -> (onset tick, velocity)
    raw_notes: list[tuple[int, int, int, int]] = []
    for tick, _, is_on, pitch, velocity in sorted(events):
        if pitch in active:
            onset, vel = active.pop(pitch)
            raw_notes.append((onset, pitch, max(1, tick - onset), vel))
        if is_on:
            active[pitch] = (tick, velocity)
    tail = max((t for t, *_ in events), default=0)
    for pitch, (onset, vel) in active.items():
        raw_notes.append((onset, pitch, max(1, max(end_tick, tail) - onset), vel))

    # sorted as tuples, the NoteEvent order, before any NoteEvent is built
    grid_notes = []
    for onset, pitch, dur, vel in raw_notes:
        q_on = _scale_tick(onset, division)
        q_off = _scale_tick(onset + dur, division)
        grid_notes.append((q_on, pitch, max(STEP_TICKS, q_off - q_on), min(127, max(1, vel))))
    grid_notes.sort()

    last_onset_bar = grid_notes[-1][0] // BAR_TICKS if grid_notes else 0
    bars = max(1, last_onset_bar + 1, -(-_scale_tick(end_tick, division) // BAR_TICKS))
    return Piece(
        notes=tuple(NoteEvent(*note) for note in grid_notes),
        tempo_changes=tuple(sorted(tempi.items())),
        bars=bars,
    )


def write_midi(piece: Piece, path: str | Path) -> None:
    """Write a type-0 SMF at 480 ticks per quarter.

    Pieces without tempo events get the 120 bpm default at tick 0.  The
    end-of-track marker sits at the last bar line so trailing empty bars
    survive a round trip (notes sounding past it push it later).
    """
    tempi = list(piece.tempo_changes) or [(0, DEFAULT_BPM)]
    # order within a tick: meta first, then offs, then ons
    events: list[tuple[int, int, bytes]] = [(0, 0, bytes((_META, _META_TIME_SIGNATURE, 4, 4, 2, 24, 8)))]
    for tick, bpm in tempi:
        mpqn = round(60_000_000 / bpm)
        events.append((tick, 0, bytes((_META, _META_SET_TEMPO, 3)) + mpqn.to_bytes(3, "big")))
    last_off = 0
    for n in piece.notes:
        events.append((n.onset, 2, bytes((_NOTE_ON, n.pitch, n.velocity))))
        events.append((n.onset + n.duration, 1, bytes((_NOTE_OFF, n.pitch, 0))))
        last_off = max(last_off, n.onset + n.duration)
    end_tick = max(piece.bars * BAR_TICKS, last_off)
    events.append((end_tick, 3, bytes((_META, _META_END_OF_TRACK, 0))))

    body = bytearray()
    now = 0
    for tick, _, payload in sorted(events, key=lambda e: (e[0], e[1])):
        body += _var_int_bytes(tick - now)
        body += payload
        now = tick
    out = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_BEAT)
    out += b"MTrk" + struct.pack(">I", len(body)) + bytes(body)
    Path(path).write_bytes(out)
