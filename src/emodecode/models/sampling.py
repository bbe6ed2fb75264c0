"""Nucleus filtering and single-draw categorical sampling.

All randomness in the package flows through ``rng.random()`` one uniform at
a time, so a scripted stand-in with the same method can replay a search
decision by decision.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np


def ranked_ids(dist: np.ndarray) -> np.ndarray:
    """Ids with nonzero mass, most probable first, ties toward the lower id."""
    order = np.argsort(-dist, kind="stable")  # stable: equal probs keep lower id first
    return order[dist[order] > 0.0]


def top_p_filter(dist: np.ndarray, p: float) -> np.ndarray:
    """Smallest set of ids whose mass reaches ``p``, as ascending ids.

    Candidates are taken in ``ranked_ids`` order, so ties at the cut break
    toward the lower id.  Always returns at least one id; with ``p >= 1``
    every id with nonzero mass survives.
    """
    order = ranked_ids(dist)
    if order.size == 0:
        raise ValueError("distribution has no positive mass")
    cum = np.cumsum(dist[order])
    cut = int(np.searchsorted(cum, p, side="left")) + 1
    return np.sort(order[: min(cut, order.size)])


def sample_index(rng, probs: np.ndarray) -> int:
    """Draw one index proportional to ``probs`` using a single uniform."""
    return sample_cumulative(rng, np.cumsum(probs))


def sample_cumulative(rng, cum: Sequence[float]) -> int:
    """Draw one index given the cumulative sums of its weights.

    ``cum`` is a list or an array; ``bisect_right`` finds the same index
    as ``searchsorted(side="right")`` on the same floats.
    """
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from all-zero weights")
    u = rng.random() * total
    return min(bisect_right(cum, u), len(cum) - 1)
