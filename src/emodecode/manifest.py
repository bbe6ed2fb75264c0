"""Deterministic run manifests.

A generate run writes one manifest describing every emitted piece plus
per-emotion aggregate metrics.  Manifests are byte-reproducible: keys are
sorted, paths are stored relative to the manifest, and no timestamps or
host details are recorded.  Re-running with the recorded config and seed
must reproduce the recorded token ids exactly.

This module owns the manifest's schema and its aggregates:
``validate_manifest`` holds every check, including that the recorded
aggregates are those of the recorded pieces, and ``dump_manifest`` and
``load_manifest`` are the two places that run it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .emotion import ALL_QUADRANTS
from .errors import ManifestSchemaError
from .metrics import COLUMNS
from .remi.tokens import VOCAB

FORMAT_TAG = "run-manifest-v1"

_PIECE_KEYS = {"emotion", "index", "seed", "token_ids", "midi", "tokens", "metrics"}
_REQUIRED = {"format", "version", "method", "config", "seed", "pieces", "aggregates", "budget"}
_PIECE_METRICS = sorted({piece_key for _, _, piece_key in COLUMNS})
_AGGREGATE_KEYS = [key for key, _, _ in COLUMNS]
_QUADRANT_NAMES = tuple(q.name for q in ALL_QUADRANTS)  # a tuple: a list or dict emotion is not hashable


def _aggregate(pieces: list[dict]) -> dict:
    """Per-emotion mean of each ``COLUMNS`` piece metric, under its aggregate key."""
    by_emotion: dict[str, list[dict]] = {}
    for entry in pieces:
        by_emotion.setdefault(entry["emotion"], []).append(entry["metrics"])
    return {
        emotion: {key: float(np.mean([r[piece_key] for r in rows])) for key, _, piece_key in COLUMNS}
        for emotion, rows in by_emotion.items()
    }


def build_manifest(
    method: str,
    version: str,
    config: dict,
    seed: int,
    pieces: list[dict],
    budget: dict,
) -> dict:
    """The manifest of ``pieces``, with their aggregates; ``dump_manifest`` validates it."""
    return {
        "format": FORMAT_TAG,
        "version": version,
        "method": method,
        "config": config,
        "seed": seed,
        "pieces": pieces,
        "aggregates": _aggregate(pieces),
        "budget": budget,
    }


def checked_aggregates(manifest: dict, recomputed: list[dict]) -> dict:
    """Aggregates over the pieces' metrics, ``recomputed`` (one dict per piece) taking precedence.

    A recorded value that differs from its recomputed one by more than
    1e-9 makes the manifest stale, a ManifestSchemaError.
    """
    pieces = []
    for i, (entry, fresh) in enumerate(zip(manifest["pieces"], recomputed, strict=True)):
        recorded = entry["metrics"]
        for key, value in fresh.items():
            if abs(value - float(recorded[key])) > 1e-9:
                raise ManifestSchemaError(f"piece {i} {key} is {value}, manifest records {recorded[key]}")
        pieces.append({"emotion": entry["emotion"], "metrics": {**recorded, **fresh}})
    return _aggregate(pieces)


def _not_numbers(row, keys: list[str]) -> list[str]:
    """The ``keys`` without a finite int or float in ``row``; all of them if ``row`` is no mapping."""
    if not isinstance(row, dict):
        return list(keys)
    return [key for key in keys if type(row.get(key)) not in (int, float) or not math.isfinite(row[key])]


def validate_manifest(manifest: dict) -> None:
    if not isinstance(manifest, dict):
        raise ManifestSchemaError("manifest must be a mapping")
    missing = _REQUIRED - manifest.keys()
    if missing:
        raise ManifestSchemaError(f"manifest missing keys {sorted(missing)}")
    if manifest["format"] != FORMAT_TAG:
        raise ManifestSchemaError(f"unsupported manifest format {manifest['format']!r}")
    if not isinstance(manifest["method"], str):
        raise ManifestSchemaError("method must be a string")
    if not isinstance(manifest["pieces"], list):
        raise ManifestSchemaError("pieces must be a list")
    for i, entry in enumerate(manifest["pieces"]):
        if not isinstance(entry, dict):
            raise ManifestSchemaError(f"piece {i} must be a mapping")
        missing = _PIECE_KEYS - entry.keys()
        if missing:
            raise ManifestSchemaError(f"piece {i} missing keys {sorted(missing)}")
        for key in ("midi", "tokens"):
            if not isinstance(entry[key], str):
                raise ManifestSchemaError(f"piece {i} {key} must be a path string")
            if Path(entry[key]).is_absolute():
                raise ManifestSchemaError(f"piece {i} {key} path must be relative")
        ids = entry["token_ids"]
        if not isinstance(ids, list):
            raise ManifestSchemaError(f"piece {i} token_ids must be a list")
        if not all(type(t) is int and 0 <= t < VOCAB.vocab_size for t in ids):
            raise ManifestSchemaError(f"piece {i} token_ids must be ids from 0 to {VOCAB.vocab_size - 1}")
        if _not_numbers(entry["metrics"], _PIECE_METRICS):
            raise ManifestSchemaError(f"piece {i} metrics need a number for each of {_PIECE_METRICS}")
        if entry["emotion"] not in _QUADRANT_NAMES:
            raise ManifestSchemaError(f"piece {i} emotion {entry['emotion']!r} is not one of E1 to E4")
    aggregates = manifest["aggregates"]
    if not isinstance(aggregates, dict):
        raise ManifestSchemaError("aggregates must be a mapping")
    for emotion, row in aggregates.items():
        if emotion not in _QUADRANT_NAMES:
            raise ManifestSchemaError(f"unknown emotion key {emotion!r}")
        missing = _not_numbers(row, _AGGREGATE_KEYS)
        if missing:
            raise ManifestSchemaError(f"{emotion} aggregates missing {missing}")
    # the recorded aggregates are what `compare` prints: they must be the pieces' own
    derived = _aggregate(manifest["pieces"])
    if aggregates.keys() != derived.keys():
        raise ManifestSchemaError(f"aggregates cover {sorted(aggregates)}, the pieces {sorted(derived)}")
    for emotion, row in derived.items():
        for key, value in row.items():
            if abs(aggregates[emotion][key] - value) > 1e-9:
                raise ManifestSchemaError(
                    f"{emotion} aggregates {key} is {aggregates[emotion][key]}, its pieces give {value}"
                )


def dump_manifest(manifest: dict, path: str | Path) -> None:
    validate_manifest(manifest)
    text = json.dumps(manifest, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestSchemaError(f"not valid JSON: {exc}") from exc
    validate_manifest(manifest)
    return manifest
