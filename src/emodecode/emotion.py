"""Valence/arousal quadrants and helpers for 4-way emotion distributions."""
from __future__ import annotations

from enum import IntEnum

import numpy as np


class EmotionQuadrant(IntEnum):
    """Russell circumplex quadrants, numbered as in the 4Q annotation scheme."""

    E1 = 1  # +valence, +arousal
    E2 = 2  # -valence, +arousal
    E3 = 3  # -valence, -arousal
    E4 = 4  # +valence, -arousal

    @property
    def index(self) -> int:
        """Zero-based position inside a distribution vector."""
        return self.value - 1

    @classmethod
    def parse(cls, text: str) -> "EmotionQuadrant":
        name = text.strip().upper()
        if name not in cls.__members__:
            raise ValueError(f"unknown emotion quadrant {text!r}")
        return cls[name]


ALL_QUADRANTS = tuple(EmotionQuadrant)


def check_distribution(vec) -> np.ndarray:
    """Validate a 4-way probability vector and return it as float64."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (4,):
        raise ValueError(f"emotion distribution must have 4 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all() or np.any(arr < 0.0) or abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("emotion distribution must be finite, non-negative and sum to 1")
    return arr


def argmax_quadrant(vec) -> EmotionQuadrant:
    """Most probable quadrant; ties go to the lowest quadrant number."""
    return ALL_QUADRANTS[int(np.argmax(np.asarray(vec)))]
