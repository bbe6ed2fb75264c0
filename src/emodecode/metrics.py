"""Objective metrics over generated pieces and comparison-table assembly."""
from __future__ import annotations

import numpy as np

from .emotion import ALL_QUADRANTS
from .errors import EmptyPiece, ManifestSchemaError
from .remi.piece import STEP_TICKS, Piece


def pitch_range(piece: Piece) -> float:
    """Highest minus lowest sounded pitch, in semitones."""
    if not piece.notes:
        raise EmptyPiece("pitch_range needs at least one note")
    pitches = [n.pitch for n in piece.notes]
    return float(max(pitches) - min(pitches))


def n_pitch_classes(piece: Piece) -> int:
    """Number of distinct pitch classes used."""
    if not piece.notes:
        raise EmptyPiece("n_pitch_classes needs at least one note")
    return len({n.pitch % 12 for n in piece.notes})


def polyphony(piece: Piece) -> float:
    """Mean number of simultaneously sounding notes.

    Time is swept on the sub-beat grid; a note sounds on every step t with
    onset <= t*STEP_TICKS < onset + duration, and steps where nothing
    sounds are excluded from the mean.
    """
    if not piece.notes:
        raise EmptyPiece("polyphony needs at least one note")
    end = max(n.onset + n.duration for n in piece.notes)
    n_steps = (end + STEP_TICKS - 1) // STEP_TICKS
    counts = np.zeros(n_steps, dtype=np.int64)
    for note in piece.notes:
        start = (note.onset + STEP_TICKS - 1) // STEP_TICKS
        stop = (note.onset + note.duration + STEP_TICKS - 1) // STEP_TICKS
        counts[start:stop] += 1
    sounding = counts[counts > 0]
    if sounding.size == 0:
        return 0.0
    return float(sounding.mean())


def piece_metrics(piece: Piece) -> dict[str, float]:
    """Pitch range, pitch classes and polyphony; zeros for a piece without notes."""
    if not piece.notes:
        return {"pitch_range": 0.0, "n_pitch_classes": 0, "polyphony": 0.0}
    return {
        "pitch_range": pitch_range(piece),
        "n_pitch_classes": n_pitch_classes(piece),
        "polyphony": polyphony(piece),
    }


# the report's columns: aggregate key, table label, the per-piece metric it averages
COLUMNS = (
    ("pitch_range", "PR", "pitch_range"),
    ("n_pitch_classes", "NPC", "n_pitch_classes"),
    ("polyphony", "POLY", "polyphony"),
    ("emotion_rate", "E", "emotion_ok"),
    ("discriminator_rate", "D", "real_ok"),
)


def _format_cell(key: str, value: float) -> str:
    if key in ("emotion_rate", "discriminator_rate"):
        return f"{round(value * 100):.0f}%"
    return f"{value:.2f}"


def compare_table(aggregates: dict[str, dict], require_all_emotions: bool = True) -> str:
    """Render per-method metric rows against per-emotion columns.

    `aggregates` maps a method label to the aggregates of a validated run
    manifest.  Raises ManifestSchemaError when there are none or (unless
    `require_all_emotions` is off) a method skips a quadrant.
    """
    if not aggregates:
        raise ManifestSchemaError("no manifests to compare")
    emotions = [q.name for q in ALL_QUADRANTS]
    for by_emotion in aggregates.values():
        absent = [e for e in emotions if e not in by_emotion]
        if absent and require_all_emotions:
            raise ManifestSchemaError(f"manifest missing emotion {', '.join(absent)}")
    header = ["method", "metric", *emotions]
    rows: list[list[str]] = []
    for label, by_emotion in aggregates.items():
        for key, metric_label, _ in COLUMNS:
            cells = [
                _format_cell(key, float(by_emotion[e][key])) if e in by_emotion else "-"
                for e in emotions
            ]
            rows.append([label, metric_label, *cells])
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
