"""Test doubles: deterministic table-driven models, and held-out perplexity."""
from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from emodecode.errors import GrammarError
from emodecode.models.base import Discriminator, EmotionClassifier, Policy
from emodecode.remi.tokens import Vocabulary


class UniformPolicy(Policy):
    """Uniform over the grammar-legal successors of the last token."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        legal = self._legal(prefix)
        dist = np.zeros(self.vocab.vocab_size, dtype=np.float64)
        dist[legal] = 1.0 / legal.size
        return dist


class TablePolicy(Policy):
    """Next-token rows looked up by full prefix or by last token id.

    Rows map token id -> weight.  Weights are masked to the legal successor
    set and renormalized, so a row that already sits on legal ids passes
    through exactly.
    """

    def __init__(self, vocab: Vocabulary, rows: Mapping, *, by: str = "prefix"):
        if by not in ("prefix", "last"):
            raise ValueError("by must be 'prefix' or 'last'")
        self.vocab = vocab
        self.by = by
        self.rows = {self._key(k): dict(v) for k, v in rows.items()}

    def _key(self, key):
        return tuple(key) if self.by == "prefix" else int(key)

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        legal = self._legal(prefix)
        key = tuple(prefix) if self.by == "prefix" else int(prefix[-1])
        row = self.rows.get(key)
        if row is None:
            raise KeyError(f"no policy row for {key!r}")
        dist = np.zeros(self.vocab.vocab_size, dtype=np.float64)
        weights = np.array([row.get(int(i), 0.0) for i in legal], dtype=np.float64)
        total = weights.sum()
        if total <= 0.0:
            raise GrammarError(len(prefix), "policy row has no mass on legal successors")
        dist[legal] = weights / total
        return dist


class TableEmotionClassifier(EmotionClassifier):
    """Exact-sequence lookup of 4-way distributions."""

    def __init__(self, table: Mapping, default=None):
        self.table = {tuple(k): np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.default = None if default is None else np.asarray(default, dtype=np.float64)

    def _evaluate(self, seq: list[int]) -> np.ndarray:
        hit = self.table.get(tuple(seq))
        if hit is None:
            if self.default is None:
                raise KeyError(f"no classifier entry for sequence {seq!r}")
            return self.default
        return hit


class TableDiscriminator(Discriminator):
    """Exact-sequence lookup of realness scores."""

    def __init__(self, table: Mapping, default: float | None = None):
        self.table = {tuple(k): float(v) for k, v in table.items()}
        self.default = default

    def _evaluate(self, seq: list[int]) -> float:
        hit = self.table.get(tuple(seq))
        if hit is None:
            if self.default is None:
                raise KeyError(f"no discriminator entry for sequence {seq!r}")
            return self.default
        return hit


def perplexity(policy: Policy, sequences: Iterable[Sequence[int]]) -> float:
    """Per-token perplexity of held-out sequences under the policy."""
    log_sum = 0.0
    n = 0
    for seq in sequences:
        for i in range(1, len(seq)):
            p = float(policy.next_distribution(seq[:i])[int(seq[i])])
            log_sum += math.log2(max(p, 1e-300))
            n += 1
    if n == 0:
        raise ValueError("no transitions to score")
    return 2.0 ** (-log_sum / n)
