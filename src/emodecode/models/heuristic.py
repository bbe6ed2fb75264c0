"""Feature-based stand-ins for the learned emotion and realness models.

The classifier reads arousal from tempo, note density and velocity
(z-scored against the training corpus) and valence from how strongly the
pitch-class profile correlates with a major versus a minor key template.
The discriminator is a fixed logistic over grammar validity, pitch-class
entropy and how plausible the duration histogram looks next to the corpus.

Both read only a few integer sums of a sequence (``_Features``), and in a
tree search those repeat far more often than whole sequences do.  So each
model memoises its output on the features it reads: the classifier's
distribution on (tempo, density, velocity, pitch-class histogram) and its
arousal on (tempo, density, velocity), the discriminator's realness on
(validity, pitch-class histogram, duration histogram) and its duration fit
on the duration histogram.  A memo belongs to one model, is emptied by
``fit`` and starts empty in a loaded model; the base ``distribution`` and
``realness`` still count every call.  The features are computed in Python,
and so is every step whose result is bit-identical that way: integer
totals, int/int quotients and sums of at most four terms.  ``np.exp``,
``np.dot``, ``np.log2`` and the sums of more than four terms stay in
numpy, because Python's ``math`` and summation round differently and would
change decoded ids.
"""
from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..errors import EmptyCorpus, NotFitted
from ..remi.tokens import KIND_PAIR_LEGAL, N_DURATION_BINS, TokenKind, Vocabulary
from ..remi.piece import bpm_of_bin, DEFAULT_BPM
from .base import BarPrefixMixin, Discriminator, EmotionClassifier, float_vector, read_tagged, write_tagged

EMOTION_FORMAT_TAG = "emotion-heuristic-v1"
DISCRIMINATOR_FORMAT_TAG = "discriminator-heuristic-v1"

# Krumhansl-Kessler key profiles
_MAJOR_PROFILE = np.array(
    [6.35, 2.23, 3.48, 2.33, 4.38, 4.09, 2.52, 5.19, 2.39, 3.66, 2.29, 2.88]
)
_MINOR_PROFILE = np.array(
    [6.33, 2.68, 3.52, 5.38, 2.60, 3.53, 2.54, 4.75, 3.98, 2.69, 3.34, 3.17]
)

_AROUSAL_WEIGHTS = (0.5, 0.3, 0.2)  # tempo, density, mean velocity


def _rotation_table() -> tuple[np.ndarray, list[float]]:
    """The centred profiles' 12 rotations each as 24 rows, major first, and each row's norm.

    The table has a 25th row, which ``_key_correlations`` overwrites with
    the centred histogram so that one ``np.vecdot`` also yields ``h . h``.
    """
    rows, norms = [], []
    for profile in (_MAJOR_PROFILE, _MINOR_PROFILE):
        p = profile - profile.mean()
        rows += [np.roll(p, shift) for shift in range(12)]
        norms += [math.sqrt(float(p @ p))] * 12
    return np.array(rows + [np.zeros(12)]), norms


_ROTATIONS, _ROTATION_NORMS = _rotation_table()


# the feature loop reads plain Python ints and lists, not numpy scalars
_KIND_PAIR_LEGAL = KIND_PAIR_LEGAL.tolist()
_START, _BAR, _TEMPO = int(TokenKind.START), int(TokenKind.BAR), int(TokenKind.TEMPO)
_DURATION, _VELOCITY, _EMOTION = int(TokenKind.DURATION), int(TokenKind.VELOCITY), int(TokenKind.EMOTION)


class _Features(NamedTuple):
    """Everything either evaluator reads from a sequence."""

    tempo: float
    density: float
    velocity: float
    pc_hist: tuple[int, ...]  # pitch class -> summed duration bins
    dur_hist: tuple[int, ...]  # duration bin - 1 -> count
    validity: float  # fraction of adjacent pairs the grammar allows


@functools.lru_cache(maxsize=4)
def _id_tables(vocab: Vocabulary) -> tuple[list[int], list[int]]:
    """Kind code and value of every id, as Python ints."""
    return vocab.kind_codes.tolist(), vocab.values.tolist()


# one entry: the classifier and then the discriminator score the same sequence
@functools.lru_cache(maxsize=1)
def _sequence_features(ids: tuple[int, ...], vocab: Vocabulary) -> _Features:
    """One pass over ids, in integer arithmetic.

    Every mean is an integer sum divided once, so each float is the
    correctly rounded quotient that the numpy means gave.  A Duration's
    pitch is the value of the token before it (for index 0, as numpy
    indexing does, the last token).
    """
    kinds, values = _id_tables(vocab)
    bars = tempo_sum = tempos = velocity_sum = notes = legal = 0
    pc_hist = [0] * 12
    dur_hist = [0] * N_DURATION_BINS
    prev_kind = -1
    prev_value = values[ids[-1]] if ids else 0
    for tok in ids:
        kind = kinds[tok]
        value = values[tok]
        if kind == _DURATION:
            pc_hist[prev_value % 12] += value
            dur_hist[value - 1] += 1
        elif kind == _VELOCITY:
            velocity_sum += min(value * 4, 127)
            notes += 1
        elif kind == _TEMPO:
            tempo_sum += value
            tempos += 1
        elif kind == _BAR:
            bars += 1
        if prev_kind >= 0:
            legal += _KIND_PAIR_LEGAL[prev_kind][kind]
        prev_kind = kind
        prev_value = value
    if len(ids) < 2:
        validity = 1.0
    else:
        if kinds[ids[0]] == _START and kinds[ids[1]] == _EMOTION:
            legal += 1  # the raw pair rule forbids it, but a control token may follow START
        validity = legal / (len(ids) - 1)
    return _Features(
        tempo=(30 * tempos + 5 * tempo_sum) / tempos if tempos else DEFAULT_BPM,
        density=notes / max(1, bars),
        velocity=velocity_sum / notes if notes else 0.0,
        pc_hist=tuple(pc_hist),
        dur_hist=tuple(dur_hist),
        validity=validity,
    )


def _key_correlations(pc_hist: tuple[int, ...]) -> tuple[float, float]:
    """Best Pearson correlation of an integer histogram with the major and the minor profile.

    The counts are integers, so their sum is exact in any order and the
    mean is one correctly rounded division, as ``hist.mean()`` gave.  One
    ``np.vecdot`` over the rotation rows plus the centred histogram itself
    takes every dot product, rounding as ``h @ np.roll(p, shift)`` and
    ``h @ h`` do; the matrix-vector product ``_ROTATIONS @ h`` rounds
    differently and changes decoded ids.  Division and ``max`` are exact
    on Python floats.
    """
    total = sum(pc_hist)
    if total <= 0 or max(pc_hist) == min(pc_hist):
        return 0.0, 0.0
    mean = total / len(pc_hist)
    _ROTATIONS[24] = [x - mean for x in pc_hist]
    dots = np.vecdot(_ROTATIONS, _ROTATIONS[24]).tolist()
    h_norm = math.sqrt(dots[24])
    corr = [d / (h_norm * n) for d, n in zip(dots, _ROTATION_NORMS)]
    return max(-1.0, *corr[:12]), max(-1.0, *corr[12:])


# about 0.5 MB; pitch-class histograms repeat far more often than sequences
_cached_key_correlations = functools.lru_cache(maxsize=1024)(_key_correlations)


class HeuristicEmotionClassifier(BarPrefixMixin, EmotionClassifier):
    """Quadrant probabilities from corpus-calibrated arousal and valence."""

    # about 60 KB; in PUCT rollouts a larger memo adds few hits (19% at 1,024 against 16%)
    MEMO_SIZE = 128
    # about 0.25 MB; hits 50% of its calls on puct_wide and 65% on puct_narrow (seed 1)
    AROUSAL_MEMO_SIZE = 1024

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.means_: np.ndarray | None = None
        self.stds_: np.ndarray | None = None
        self._memo = functools.lru_cache(maxsize=self.MEMO_SIZE)(self._distribution)
        self._arousal = functools.lru_cache(maxsize=self.AROUSAL_MEMO_SIZE)(self._arousal_of)

    def fit(self, sequences: Iterable[Sequence[int]]) -> "HeuristicEmotionClassifier":
        rows = []
        for seq in sequences:
            f = _sequence_features(tuple(seq), self.vocab)
            rows.append((f.tempo, f.density, f.velocity))
        if not rows:
            raise EmptyCorpus("cannot calibrate on an empty corpus")
        arr = np.asarray(rows, dtype=np.float64)
        self.means_ = arr.mean(axis=0)
        self.stds_ = arr.std(axis=0)
        self._memo.cache_clear()
        self._arousal.cache_clear()
        return self

    def _require_fitted(self):
        if self.means_ is None or self.stds_ is None:
            raise NotFitted("classifier must be fit() or load()ed before use")

    def valence_arousal(self, seq: Sequence[int]) -> tuple[float, float]:
        self._require_fitted()
        f = _sequence_features(tuple(seq), self.vocab)
        return self._valence_arousal(f.tempo, f.density, f.velocity, f.pc_hist)

    def _valence_arousal(self, tempo, density, velocity, pc_hist) -> tuple[float, float]:
        major, minor = _cached_key_correlations(pc_hist)
        return major - minor, self._arousal(tempo, density, velocity)

    def _arousal_of(self, tempo, density, velocity) -> float:
        """Weighted z-scores of the three arousal features; memoised per model."""
        z = [
            (x - m) / s if s > 1e-9 else 0.0
            for x, m, s in zip((tempo, density, velocity), self.means_.tolist(), self.stds_.tolist())
        ]
        return float(np.dot(_AROUSAL_WEIGHTS, z))

    def _distribution(self, tempo, density, velocity, pc_hist) -> np.ndarray:
        """The read-only quadrant distribution of one feature set; memoised per model."""
        valence, arousal = self._valence_arousal(tempo, density, velocity, pc_hist)
        # quadrant order E1..E4 with sign patterns (+v+a, -v+a, -v-a, +v-a)
        scores = [arousal + valence, arousal - valence, -arousal - valence, -arousal + valence]
        top = max(scores)
        exps = np.exp([x - top for x in scores])
        a, b, c, d = exps.tolist()
        dist = exps / (a + b + c + d)  # numpy sums four terms in this order
        dist.flags.writeable = False  # the memo hands the same array to every caller
        return dist

    def _evaluate(self, seq: list[int]) -> np.ndarray:
        self._require_fitted()
        f = _sequence_features(tuple(seq), self.vocab)
        return self._memo(f.tempo, f.density, f.velocity, f.pc_hist)

    def save(self, path: str | Path) -> None:
        self._require_fitted()
        write_tagged(
            path,
            EMOTION_FORMAT_TAG,
            {"means": [float(x) for x in self.means_], "stds": [float(x) for x in self.stds_]},
        )

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "HeuristicEmotionClassifier":
        payload = read_tagged(path, EMOTION_FORMAT_TAG, ("means", "stds"))
        model = cls(vocab)
        model.means_ = float_vector(path, payload, "means", 3)
        model.stds_ = float_vector(path, payload, "stds", 3)
        return model


_REALNESS_WEIGHTS = (2.0, 1.0, 4.0)  # validity fraction, pc entropy, duration fit
_REALNESS_BIAS = -4.5
_MAX_PC_ENTROPY = math.log2(12)


class HeuristicDiscriminator(BarPrefixMixin, Discriminator):
    """Logistic realness score calibrated on the corpus duration histogram."""

    # about 0.6 MB, mostly the histogram tuples of its keys; 82% of calls hit on puct_narrow
    MEMO_SIZE = 1024
    # at most 0.5 MB, the histogram tuples included; hits 19% of its calls on puct_wide (seed 1)
    FIT_MEMO_SIZE = 1024

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.duration_hist_: np.ndarray | None = None
        self._memo = functools.lru_cache(maxsize=self.MEMO_SIZE)(self._realness)
        self._duration_fit = functools.lru_cache(maxsize=self.FIT_MEMO_SIZE)(self._duration_fit_of)

    def fit(self, sequences: Iterable[Sequence[int]]) -> "HeuristicDiscriminator":
        hist = np.ones(N_DURATION_BINS, dtype=np.float64)  # add-one smoothing
        seen = False
        for seq in sequences:
            hist += _sequence_features(tuple(seq), self.vocab).dur_hist
            seen = True
        if not seen:
            raise EmptyCorpus("cannot calibrate on an empty corpus")
        self.duration_hist_ = hist / hist.sum()
        self._memo.cache_clear()
        self._duration_fit.cache_clear()
        return self

    def _realness(self, validity: float, pc_hist: tuple[int, ...], dur_hist: tuple[int, ...]) -> float:
        """Realness of one feature set; memoised per model."""
        total_pc = sum(pc_hist)
        if total_pc > 0:
            probs = np.array([n / total_pc for n in pc_hist if n > 0])
            entropy = float(-(probs * np.log2(probs)).sum()) / _MAX_PC_ENTROPY
        else:
            entropy = 0.0
        x = (validity, entropy, self._duration_fit(dur_hist))
        logit = _REALNESS_BIAS + float(np.dot(_REALNESS_WEIGHTS, x))
        return 1.0 / (1.0 + math.exp(-logit))

    def _duration_fit_of(self, dur_hist: tuple[int, ...]) -> float:
        """Overlap of a duration histogram with the corpus's; memoised per model."""
        total = sum(dur_hist)
        if total <= 0:
            return 0.0
        return float(np.minimum([n / total for n in dur_hist], self.duration_hist_).sum())

    def _evaluate(self, seq: list[int]) -> float:
        if self.duration_hist_ is None:
            raise NotFitted("discriminator must be fit() or load()ed before use")
        f = _sequence_features(tuple(seq), self.vocab)
        return self._memo(f.validity, f.pc_hist, f.dur_hist)

    def save(self, path: str | Path) -> None:
        if self.duration_hist_ is None:
            raise NotFitted("discriminator must be fit() or load()ed before use")
        write_tagged(path, DISCRIMINATOR_FORMAT_TAG, {"duration_hist": [float(x) for x in self.duration_hist_]})

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "HeuristicDiscriminator":
        payload = read_tagged(path, DISCRIMINATOR_FORMAT_TAG, ("duration_hist",))
        model = cls(vocab)
        model.duration_hist_ = float_vector(path, payload, "duration_hist", N_DURATION_BINS)
        return model
