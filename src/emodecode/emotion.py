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
    """Validate a 4-way probability vector and return it as float64.

    The checks run on Python floats: numpy calls on four elements cost
    more than the arithmetic.  ``a + b + c + d`` adds in the order numpy's
    ``sum`` does on so short a vector.  A non-finite entry makes the total
    non-finite, which fails the tolerance test.
    """
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (4,):
        raise ValueError(f"emotion distribution must have 4 entries, got shape {arr.shape}")
    a, b, c, d = arr.tolist()
    total = a + b + c + d
    if not (min(a, b, c, d) >= 0.0 and abs(total - 1.0) <= 1e-9):
        raise ValueError("emotion distribution must be finite, non-negative and sum to 1")
    return arr


def argmax_quadrant(vec) -> EmotionQuadrant:
    """Most probable quadrant; ties go to the lowest quadrant number."""
    return ALL_QUADRANTS[int(np.argmax(np.asarray(vec)))]
