"""Nucleus filtering, categorical sampling and the uniform stream.

All randomness in the package is read as ``rng.random()``, one uniform per
call, so a scripted stand-in with the same method can replay a search
decision by decision.  The decoders read it through ``uniform_stream``: a
``numpy.random.Generator`` is served from blocks of ``BLOCK`` values, which
hold the same floats as one-at-a-time calls at a fraction of the cost per
value, and is left in the one-at-a-time state when the stream closes.
"""
from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate
from operator import length_hint
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

BLOCK = 256  # uniforms per Generator call; a block costs about one scalar call


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
    as ``searchsorted(side="right")`` on the same floats, and searching
    all but the last entry clamps a draw at the total to the last index.
    """
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from all-zero weights")
    u = rng.random() * total
    return bisect_right(cum, u, 0, len(cum) - 1)


def sample_without_replacement(rng, weights: list[float], n: int) -> list[int]:
    """Up to ``n`` indices drawn in turn, each pick's weight then set to zero.

    The same indices from the same uniforms as calling ``sample_index``
    ``n`` times, zeroing each pick's weight and stopping early once every
    weight is zero: ``accumulate`` adds in the order ``np.cumsum`` does,
    the draw clamps as ``sample_cumulative`` does, and after a pick only
    the running sums from its index on are redone.  ``weights`` are
    non-negative Python floats and are zeroed in place; ``n >= 1``.
    """
    cum = list(accumulate(weights))
    if not cum or cum[-1] <= 0.0:
        raise ValueError("cannot sample from all-zero weights")
    last = len(cum) - 1
    picked: list[int] = []
    while True:
        idx = bisect_right(cum, rng.random() * cum[-1], 0, last)
        picked.append(idx)
        weights[idx] = 0.0
        if len(picked) >= n:
            return picked
        cum[idx:] = accumulate(weights[idx + 1 :], initial=cum[idx - 1] if idx else 0.0)
        if cum[-1] == 0.0:  # a sum of non-negative floats is zero only when every term is
            return picked


@contextmanager
def uniform_stream(rng):
    """``rng`` for one decode, with ``numpy.random.Generator`` draws made in blocks.

    A Generator's stream yields ``rng.random(BLOCK)`` block by block, the
    same floats that single calls give in the same order.  On exit,
    exception or not, the Generator's state is restored to where the last
    block started and the values actually read are drawn again, so the
    Generator ends where one-at-a-time draws would have left it.  Any other
    object with ``.random()`` is yielded unchanged and read one draw at a
    time.
    """
    if not isinstance(rng, np.random.Generator):
        yield rng
        return
    bit_generator = rng.bit_generator
    saved = None
    block: Iterator[float] = iter(())

    def values():
        nonlocal saved, block
        while True:
            saved = bit_generator.state
            block = iter(rng.random(BLOCK).tolist())
            yield from block

    try:
        yield SimpleNamespace(random=values().__next__)
    finally:
        if saved is not None:
            bit_generator.state = saved
            rng.random(BLOCK - length_hint(block))
