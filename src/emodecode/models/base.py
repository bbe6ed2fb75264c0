"""Shared model interfaces: policies, evaluators and the call budget.

Policies map a grammar-valid prefix of token ids to a full distribution over
the vocabulary with zero mass on illegal successors.  Evaluators score whole
sequences; every successful evaluation bumps the shared budget counter by
exactly one, which is what the search budget accounting relies on.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Sequence

import numpy as np

from ..emotion import check_distribution
from ..errors import GrammarError, SequenceTooShort
from ..remi.tokens import Vocabulary, complete_bar_prefix
from .sampling import ranked_ids, sample_cumulative, top_p_filter

LOG_FLOOR = 1e-12  # log-probabilities are taken of max(p, LOG_FLOOR)


@dataclass
class EvaluatorBudget:
    """Counters of emotion-model and discriminator calls."""

    e_calls: int = 0
    d_calls: int = 0


def read_tagged(path: str | Path, tag: str, keys: Sequence[str]) -> dict:
    """The JSON mapping saved in ``path`` under format ``tag``, holding ``keys``.

    Raises ValueError naming the file for malformed JSON, a payload that
    is not a mapping, a different format tag or a missing key.
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != tag:
        raise ValueError(f"{path}: not in format {tag}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    return payload


def write_tagged(path: str | Path, tag: str, payload: dict) -> None:
    """Save ``payload`` to ``path`` under format ``tag`` as compact, key-sorted JSON."""
    text = json.dumps({"format": tag, **payload}, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n")


def float_vector(path: str | Path, payload: dict, key: str, size: int) -> np.ndarray:
    """``payload[key]`` as ``size`` finite float64s; ValueError naming ``path`` otherwise."""
    try:
        vec = np.asarray(payload[key], dtype=np.float64)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (size,) or not np.isfinite(vec).all():
        raise ValueError(f"{path}: {key} must be {size} finite numbers")
    return vec


class Policy:
    """Base next-token model over a token-id vocabulary."""

    vocab: Vocabulary

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        """Distribution over the full vocabulary given ``prefix``."""
        raise NotImplementedError

    def nucleus(self, prefix: Sequence[int], p: float) -> tuple[list[int], list[float], list[float]]:
        """Top-``p`` candidates after ``prefix``: ``(ids, priors, cum)``.

        ``ids`` are the ascending ``top_p_filter`` ids, ``priors`` their
        renormalized probabilities and ``cum`` the cumulative sum of their
        unnormalized mass, ready for ``sample_cumulative``.  A caching
        policy hands the same objects to every caller, so callers must
        treat all three as read-only.
        """
        dist = self.next_distribution(prefix)
        ids = top_p_filter(dist, p)
        mass = dist[ids]
        return ids.tolist(), (mass / mass.sum()).tolist(), np.cumsum(mass).tolist()

    def top_k(self, prefix: Sequence[int], k: int) -> tuple[list[int], list[float]]:
        """The ``k`` most probable ids after ``prefix`` and their floored log-probabilities.

        ``ids`` follow ``ranked_ids`` order (ties toward the lower id) and
        ``logps`` are ``math.log(max(p, LOG_FLOOR))`` of their
        unrenormalized ``next_distribution`` values ``p``: the log terms a
        beam search adds up, taken once here rather than per candidate.  A
        caching policy hands the same lists to every caller, so callers
        must treat both as read-only.
        """
        dist = self.next_distribution(prefix)
        ids = ranked_ids(dist)[:k]
        return ids.tolist(), [math.log(p if p > LOG_FLOOR else LOG_FLOOR) for p in dist[ids].tolist()]

    def rollout(self, seq: list[int], p: float, cap: int, rng, stops: Container[int]) -> None:
        """Append up to ``cap`` draws from the top-``p`` nucleus to ``seq``.

        Each draw takes one ``rng.random()``; the rollout ends early right
        after appending an id in ``stops``.
        """
        for _ in range(cap):
            ids, _, cum = self.nucleus(seq, p)
            tok = ids[sample_cumulative(rng, cum)]
            seq.append(tok)
            if tok in stops:
                break

    def _legal(self, prefix: Sequence[int]) -> np.ndarray:
        if not prefix:
            raise GrammarError(0, "empty prefix")
        return self.vocab.successors(prefix[-1])


class EmotionClassifier:
    """Maps a sequence with at least one complete bar to 4 quadrant probs."""

    def distribution(self, seq: Sequence[int], budget: EvaluatorBudget) -> np.ndarray:
        vec = check_distribution(self._evaluate(self._prepare(seq)))
        budget.e_calls += 1
        return vec

    def _prepare(self, seq: Sequence[int]) -> list[int]:
        return list(seq)

    def _evaluate(self, seq: list[int]) -> np.ndarray:
        raise NotImplementedError


class Discriminator:
    """Maps a sequence with at least one complete bar to P(human-composed)."""

    def realness(self, seq: Sequence[int], budget: EvaluatorBudget) -> float:
        value = float(self._evaluate(self._prepare(seq)))
        if not 0.0 <= value <= 1.0:
            raise AssertionError(f"realness {value} outside [0, 1]")
        budget.d_calls += 1
        return value

    def _prepare(self, seq: Sequence[int]) -> list[int]:
        return list(seq)

    def _evaluate(self, seq: list[int]) -> float:
        raise NotImplementedError


class BarPrefixMixin:
    """Evaluate only whole bars: truncate at the last closed bar line."""

    vocab: Vocabulary

    def _prepare(self, seq: Sequence[int]) -> list[int]:
        prefix = complete_bar_prefix(seq, self.vocab)
        if prefix is None:
            raise SequenceTooShort("no completed bar to evaluate")
        return prefix
