"""Count-based n-gram policy with add-k smoothing and short-context backoff."""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from typing import Container, Iterable, Sequence

import numpy as np

from ..emotion import EmotionQuadrant
from ..errors import EmptyCorpus, NotFitted
from ..remi.tokens import Vocabulary
from .base import Policy, read_tagged, write_tagged

FORMAT_TAG = "ngram-policy-v1"


class NGramPolicy(Policy):
    """Backoff n-gram over token ids, masked to grammar-legal successors.

    The longest context seen in training wins; an unseen context backs off
    one order at a time down to a uniform distribution over the legal set.
    Smoothing adds ``add_k`` to every legal successor of a seen context
    before renormalizing.  Nuclei and top-k lists are cached per context;
    full distributions are not, since every decoder reads them only through
    those two.

    One cache entry per ``(context, p)`` serves both ``nucleus`` and
    rollouts: the nucleus tuple that ``nucleus`` hands out, the last index,
    which bounds the ``bisect`` so that a draw at the total mass takes the
    last id, the total mass, and one successor slot per id.  A slot is
    filled with the next context's entry the first time its id is drawn, so
    a warm rollout step costs one uniform, one ``bisect`` and one list
    index.  ``fit`` empties every cache.
    """

    def __init__(self, vocab: Vocabulary, order: int = 3, add_k: float = 0.01):
        if not 2 <= order <= 4:
            raise ValueError("order must be between 2 and 4")
        if not (math.isfinite(add_k) and add_k > 0.0):
            raise ValueError(f"add_k must be a finite positive number, got {add_k!r}")
        self.vocab = vocab
        self.order = order
        self.add_k = add_k
        self.counts_: dict[int, dict[tuple[int, ...], dict[int, int]]] | None = None
        self._nuclei: dict[tuple[tuple[int, ...], float], tuple] = {}
        # a dict of its own: the top-k key (ctx, 1) equals the nucleus key (ctx, 1.0)
        self._top: dict[tuple[tuple[int, ...], int], tuple] = {}

    def fit(self, sequences: Iterable[Sequence[int]]) -> "NGramPolicy":
        """Count every order's grams, then fold them into ``counts_``.

        A ``Counter`` over the ``zip`` of shifted id lists counts in C.
        Every position after the first is a target; order ``o`` needs
        ``o - 1`` ids of context, so order 1 skips position 0 and order
        ``o`` starts at position ``o - 1``.  Grams keep their first-seen
        order, so ``counts_`` is built in the order a position-by-position
        loop would build it.
        """
        grams = [Counter() for _ in range(self.order)]
        n_seqs = 0
        for seq in sequences:
            n_seqs += 1
            ids = list(map(int, seq))
            grams[0].update(zip(ids[1:]))
            for o in range(2, self.order + 1):
                grams[o - 1].update(zip(*(ids[k:] for k in range(o))))
        if n_seqs == 0:
            raise EmptyCorpus("cannot train on zero sequences")
        counts: dict[int, dict[tuple[int, ...], dict[int, int]]] = {}
        for o, counter in enumerate(grams, start=1):
            table = counts[o] = {}
            for gram, n in counter.items():
                table.setdefault(gram[:-1], {})[gram[-1]] = n
        self.counts_ = counts
        self._nuclei = {}
        self._top = {}
        return self

    def _require_fitted(self) -> dict:
        if self.counts_ is None:
            raise NotFitted("NGramPolicy must be fit() or load()ed before use")
        return self.counts_

    def seen(self, token_id: int) -> bool:
        """Whether the token ever occurred as a prediction target."""
        counts = self._require_fitted()
        return counts[1].get((), {}).get(int(token_id), 0) > 0

    def _context(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """The prefix's last ``order - 1`` ids: all the distribution depends on."""
        return tuple(prefix[-(self.order - 1) :])  # numpy ints hash and compare as ints

    def nucleus(self, prefix: Sequence[int], p: float) -> tuple[list[int], list[float], list[float]]:
        """Cached per context and ``p``; the returned objects are shared."""
        return self._entry(prefix, p)[0]

    def _entry(self, prefix: Sequence[int], p: float) -> tuple:
        """The cache entry after ``prefix``: ``(nucleus, last index, total, successors)``."""
        key = (self._context(prefix), p)
        entry = self._nuclei.get(key)
        if entry is None:
            nucleus = super().nucleus(prefix, p)
            cum = nucleus[2]
            entry = self._nuclei[key] = (nucleus, len(cum) - 1, cum[-1], [None] * len(cum))
        return entry

    def rollout(self, seq: list[int], p: float, cap: int, rng, stops: Container[int]) -> None:
        """``Policy.rollout``, stepping through the successor-linked nuclei.

        The same ids and draws as the generic loop, and the same nucleus
        cache keys: an entry is built by ``_entry`` and a successor is
        resolved only when the next draw needs it.
        """
        if cap < 1:
            return
        (ids, _, cum), last, total, succ = self._entry(seq, p)
        random = rng.random
        for _ in range(cap - 1):
            i = bisect_right(cum, random() * total, 0, last)
            tok = ids[i]
            seq.append(tok)
            if tok in stops:
                return
            entry = succ[i]
            if entry is None:
                entry = succ[i] = self._entry(seq, p)
            (ids, _, cum), last, total, succ = entry
        seq.append(ids[bisect_right(cum, random() * total, 0, last)])

    def top_k(self, prefix: Sequence[int], k: int) -> tuple[list[int], list[float]]:
        """Cached per context and ``k``; the returned objects are shared."""
        key = (self._context(prefix), k)
        hit = self._top.get(key)
        if hit is None:
            hit = self._top[key] = super().top_k(prefix, k)
        return hit

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        counts = self._require_fitted()
        legal = self._legal(prefix)
        key = self._context(prefix)
        weights = None
        for o in range(self.order, 0, -1):
            if len(prefix) < o - 1:
                continue
            ctx = key[len(key) - (o - 1) :] if o > 1 else ()
            row = counts[o].get(ctx)
            if row:
                # scatter the row's counts over the vocabulary, then read the legal ids
                n = len(row)
                scattered = np.zeros(self.vocab.vocab_size, dtype=np.float64)
                scattered[np.fromiter(row, np.intp, n)] = np.fromiter(row.values(), np.float64, n)
                weights = scattered[legal]
                weights += self.add_k
                break
        if weights is None:
            weights = np.ones(legal.size, dtype=np.float64)
        dist = np.zeros(self.vocab.vocab_size, dtype=np.float64)
        dist[legal] = weights / weights.sum()
        return dist

    def save(self, path: str | Path) -> None:
        counts = self._require_fitted()
        payload = {
            "order": self.order,
            "add_k": self.add_k,
            "vocab_size": self.vocab.vocab_size,
            "counts": {
                str(o): {
                    ",".join(map(str, ctx)): {str(t): n for t, n in sorted(row.items())}
                    for ctx, row in sorted(table.items())
                }
                for o, table in counts.items()
            },
        }
        write_tagged(path, FORMAT_TAG, payload)

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "NGramPolicy":
        payload = read_tagged(path, FORMAT_TAG, ("order", "add_k", "vocab_size", "counts"))
        try:  # a value of the wrong type fails inside the conversion itself
            if payload["vocab_size"] != vocab.vocab_size:
                raise ValueError(f"vocabulary size {payload['vocab_size']!r} is not {vocab.vocab_size}")
            model = cls(vocab, order=payload["order"], add_k=payload["add_k"])
            model.counts_ = {
                int(o): {
                    tuple(int(t) for t in ctx.split(",") if ctx): {
                        int(t): int(n) for t, n in row.items()
                    }
                    for ctx, row in table.items()
                }
                for o, table in payload["counts"].items()
            }
            if sorted(model.counts_) != list(range(1, model.order + 1)):
                raise ValueError(f"counts must hold orders 1 to {model.order}")
            targets: set[int] = set()  # next_distribution indexes an array with them
            for table in model.counts_.values():
                targets.update(*table.values())
            if not targets.issubset(range(vocab.vocab_size)):
                raise ValueError(f"counted ids must lie in 0..{vocab.vocab_size - 1}")
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed model ({exc})") from None
        return model


def with_emotion_prefix(seq: Sequence[int], quadrant: EmotionQuadrant, vocab: Vocabulary) -> list[int]:
    """Insert the control token right after StartOfMusic."""
    ids = list(seq)
    return [ids[0], vocab.emotion_id(quadrant)] + ids[1:]

