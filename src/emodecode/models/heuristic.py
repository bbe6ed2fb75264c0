"""Feature-based stand-ins for the learned emotion and realness models.

The classifier reads arousal from tempo, note density and velocity
(z-scored against the training corpus) and valence from how strongly the
pitch-class profile correlates with a major versus a minor key template.
The discriminator is a fixed logistic over grammar validity, pitch-class
entropy and how plausible the duration histogram looks next to the corpus.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..errors import EmptyCorpus, NotFitted
from ..remi.tokens import KIND_PAIR_LEGAL, N_DURATION_BINS, TokenKind, Vocabulary
from ..remi.piece import bpm_of_bin, DEFAULT_BPM
from .base import BarPrefixMixin, Discriminator, EmotionClassifier

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


def _rotations(profile: np.ndarray) -> tuple[list[np.ndarray], float]:
    """The 12 rotations of the centred profile, and its norm."""
    p = profile - profile.mean()
    return [np.roll(p, shift) for shift in range(12)], math.sqrt(float(p @ p))


_MAJOR_ROTATIONS = _rotations(_MAJOR_PROFILE)
_MINOR_ROTATIONS = _rotations(_MINOR_PROFILE)


def _sequence_stats(seq: Sequence[int], vocab: Vocabulary):
    """One pass over ids: (tempo, density, velocity, pc histogram, durations)."""
    arr = np.asarray(seq, dtype=np.int64)
    kinds = vocab.kind_codes[arr]
    values = vocab.values[arr].astype(np.int64)
    bars = int(np.count_nonzero(kinds == int(TokenKind.BAR)))
    tempo_vals = values[kinds == int(TokenKind.TEMPO)]
    tempo = float(np.mean(30.0 + 5.0 * tempo_vals)) if tempo_vals.size else DEFAULT_BPM
    vel_vals = values[kinds == int(TokenKind.VELOCITY)]
    notes = int(vel_vals.size)
    velocity = float(np.minimum(vel_vals * 4, 127).mean()) if notes else 0.0
    dur_idx = np.flatnonzero(kinds == int(TokenKind.DURATION))
    if dur_idx.size:
        dur_vals = values[dur_idx]
        pitch_vals = values[dur_idx - 1]  # a Duration directly follows its Pitch
        pc_hist = np.bincount(pitch_vals % 12, weights=dur_vals.astype(np.float64), minlength=12)
        dur_hist = np.bincount(dur_vals - 1, minlength=N_DURATION_BINS).astype(np.float64)
    else:
        pc_hist = np.zeros(12, dtype=np.float64)
        dur_hist = np.zeros(N_DURATION_BINS, dtype=np.float64)
    density = notes / max(1, bars)
    return tempo, density, velocity, pc_hist, dur_hist


def _key_correlations(hist: np.ndarray) -> tuple[float, float]:
    """Best Pearson correlation with the major and with the minor profile.

    The histogram is centred once; each profile then takes one dot product
    per rotation, as ``h @ np.roll(p, shift)`` gives it: a single
    matrix-vector product rounds differently and changes decoded ids.
    """
    if hist.sum() <= 0.0 or np.ptp(hist) == 0.0:
        return 0.0, 0.0
    h = hist - hist.mean()
    h_norm = math.sqrt(float(h @ h))
    out = []
    for rows, p_norm in (_MAJOR_ROTATIONS, _MINOR_ROTATIONS):
        best = -1.0
        for row in rows:
            best = max(best, float(h @ row) / (h_norm * p_norm))
        out.append(best)
    return out[0], out[1]


class HeuristicEmotionClassifier(BarPrefixMixin, EmotionClassifier):
    """Quadrant probabilities from corpus-calibrated arousal and valence."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.means_: np.ndarray | None = None
        self.stds_: np.ndarray | None = None

    def fit(self, sequences: Iterable[Sequence[int]]) -> "HeuristicEmotionClassifier":
        rows = []
        for seq in sequences:
            tempo, density, velocity, _, _ = _sequence_stats(seq, self.vocab)
            rows.append((tempo, density, velocity))
        if not rows:
            raise EmptyCorpus("cannot calibrate on an empty corpus")
        arr = np.asarray(rows, dtype=np.float64)
        self.means_ = arr.mean(axis=0)
        self.stds_ = arr.std(axis=0)
        return self

    def _require_fitted(self):
        if self.means_ is None or self.stds_ is None:
            raise NotFitted("classifier must be fit() or load()ed before use")

    def valence_arousal(self, seq: Sequence[int]) -> tuple[float, float]:
        self._require_fitted()
        tempo, density, velocity, pc_hist, _ = _sequence_stats(seq, self.vocab)
        feats = np.array([tempo, density, velocity], dtype=np.float64)
        z = np.where(self.stds_ > 1e-9, (feats - self.means_) / np.where(self.stds_ > 1e-9, self.stds_, 1.0), 0.0)
        arousal = float(np.dot(_AROUSAL_WEIGHTS, z))
        major, minor = _key_correlations(pc_hist)
        valence = major - minor
        return valence, arousal

    def _evaluate(self, seq: list[int]) -> np.ndarray:
        valence, arousal = self.valence_arousal(seq)
        # quadrant order E1..E4 with sign patterns (+v+a, -v+a, -v-a, +v-a)
        scores = np.array(
            [arousal + valence, arousal - valence, -arousal - valence, -arousal + valence]
        )
        exps = np.exp(scores - scores.max())
        return exps / exps.sum()

    def save(self, path: str | Path) -> None:
        self._require_fitted()
        payload = {
            "format": EMOTION_FORMAT_TAG,
            "means": [float(x) for x in self.means_],
            "stds": [float(x) for x in self.stds_],
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "HeuristicEmotionClassifier":
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != EMOTION_FORMAT_TAG:
            raise ValueError(f"not an {EMOTION_FORMAT_TAG} file: {path}")
        model = cls(vocab)
        model.means_ = np.asarray(payload["means"], dtype=np.float64)
        model.stds_ = np.asarray(payload["stds"], dtype=np.float64)
        return model


_REALNESS_WEIGHTS = (2.0, 1.0, 4.0)  # validity fraction, pc entropy, duration fit
_REALNESS_BIAS = -4.5
_MAX_PC_ENTROPY = math.log2(12)


class HeuristicDiscriminator(BarPrefixMixin, Discriminator):
    """Logistic realness score calibrated on the corpus duration histogram."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.duration_hist_: np.ndarray | None = None

    def fit(self, sequences: Iterable[Sequence[int]]) -> "HeuristicDiscriminator":
        hist = np.ones(N_DURATION_BINS, dtype=np.float64)  # add-one smoothing
        seen = False
        for seq in sequences:
            _, _, _, _, dur = _sequence_stats(seq, self.vocab)
            hist += dur
            seen = True
        if not seen:
            raise EmptyCorpus("cannot calibrate on an empty corpus")
        self.duration_hist_ = hist / hist.sum()
        return self

    def _validity_fraction(self, seq: Sequence[int]) -> float:
        if len(seq) < 2:
            return 1.0
        kinds = self.vocab.kind_codes[np.asarray(seq, dtype=np.int64)]
        ok = KIND_PAIR_LEGAL[kinds[:-1], kinds[1:]]
        if kinds[0] == int(TokenKind.START) and kinds[1] == int(TokenKind.EMOTION):
            ok = ok.copy()
            ok[0] = True
        return float(ok.mean())

    def _evaluate(self, seq: list[int]) -> float:
        if self.duration_hist_ is None:
            raise NotFitted("discriminator must be fit() or load()ed before use")
        _, _, _, pc_hist, dur_hist = _sequence_stats(seq, self.vocab)
        total_pc = pc_hist.sum()
        if total_pc > 0.0:
            probs = pc_hist[pc_hist > 0.0] / total_pc
            entropy = float(-(probs * np.log2(probs)).sum()) / _MAX_PC_ENTROPY
        else:
            entropy = 0.0
        total_dur = dur_hist.sum()
        if total_dur > 0.0:
            fit = float(np.minimum(dur_hist / total_dur, self.duration_hist_).sum())
        else:
            fit = 0.0
        x = (self._validity_fraction(seq), entropy, fit)
        logit = _REALNESS_BIAS + float(np.dot(_REALNESS_WEIGHTS, x))
        return 1.0 / (1.0 + math.exp(-logit))

    def save(self, path: str | Path) -> None:
        if self.duration_hist_ is None:
            raise NotFitted("discriminator must be fit() or load()ed before use")
        payload = {
            "format": DISCRIMINATOR_FORMAT_TAG,
            "duration_hist": [float(x) for x in self.duration_hist_],
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "HeuristicDiscriminator":
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != DISCRIMINATOR_FORMAT_TAG:
            raise ValueError(f"not a {DISCRIMINATOR_FORMAT_TAG} file: {path}")
        model = cls(vocab)
        model.duration_hist_ = np.asarray(payload["duration_hist"], dtype=np.float64)
        return model
