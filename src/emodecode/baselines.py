"""Comparison decoders: stochastic bi-objective beam search and
conditional sampling, plus the unconditioned top-p sampler they are both
measured against.

All three share the tree-search decoder's stop rule (``puct.StopRule``:
EndOfMusic, max_bars bar lines, max_tokens), count evaluator calls on their
``DecodeTrace`` and always return sequences that validate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .emotion import EmotionQuadrant
from .errors import UntrainedCondition
from .models.base import EmotionClassifier, Policy
from .models.ngram import with_emotion_prefix
from .models.sampling import sample_cumulative, sample_index, uniform_stream
from .puct import DecodeTrace, StopRule, _emit, _finalize

_LOG_FLOOR = 1e-12


@dataclass
class SamplingConfig:
    top_p: float = 0.9
    max_bars: int = 16
    max_tokens: int = 1024

    def __post_init__(self):
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")


@dataclass
class SBBSConfig:
    target: EmotionQuadrant
    beams: int = 5
    top_k: int = 10
    max_bars: int = 16
    max_tokens: int = 1024

    def __post_init__(self):
        if self.beams < 1:
            raise ValueError("beams must be >= 1")
        if self.top_k < self.beams:
            raise ValueError("top_k must be >= beams")


def top_p_decode(
    start: Sequence[int],
    policy: Policy,
    cfg: SamplingConfig,
    rng,
) -> tuple[list[int], DecodeTrace]:
    """Plain autoregressive nucleus sampling; no evaluator in the loop."""
    trace = DecodeTrace(method="topp", start=list(start))

    def next_token(seq: list[int]) -> int:
        ids, probs, cum = policy.nucleus(seq, cfg.top_p)
        token = ids[sample_cumulative(stream, cum)]
        trace.records.append(
            {
                "step": len(trace.records),
                "candidate_ids": ids,
                "probs": probs,
                "chosen_id": token,
                "e_calls": trace.e_calls,
                "d_calls": trace.d_calls,
            }
        )
        return token

    with uniform_stream(rng) as stream:
        return _emit(start, StopRule(policy.vocab, cfg.max_bars, cfg.max_tokens), next_token), trace


def cs_decode(
    start: Sequence[int],
    conditional_policy: Policy,
    target: EmotionQuadrant,
    cfg: SamplingConfig,
    rng,
) -> tuple[list[int], DecodeTrace]:
    """Conditional sampling: inject the control token, then sample top-p.

    The policy must have been trained on control-prefixed sequences;
    UntrainedCondition is raised when it never saw this quadrant's token.
    No emotion-model or discriminator calls are made.
    """
    prefixed = with_emotion_prefix(start, target, conditional_policy.vocab)
    seen = getattr(conditional_policy, "seen", None)
    if seen is not None and not seen(prefixed[1]):  # the control token
        raise UntrainedCondition(f"no training data for {target.name}")
    seq, trace = top_p_decode(prefixed, conditional_policy, cfg, rng=rng)
    trace.method = "cs"
    return seq, trace


@dataclass
class _Beam:
    seq: list[int]
    logscore: float
    log_e: float = 0.0  # last bar-boundary classifier value, reused inside a bar
    bars: int = 0
    done: bool = False


def sbbs_decode(
    start: Sequence[int],
    policy: Policy,
    classifier: EmotionClassifier,
    cfg: SBBSConfig,
    rng,
) -> tuple[list[int], DecodeTrace]:
    """Stochastic bi-objective beam search toward a target quadrant.

    Each step expands every live beam with its top-k successors, scores
    candidates by accumulated log policy probability plus the beam's cached
    log classifier probability of the target, renormalizes over all
    candidates and samples the next beam set without replacement.  The
    classifier is consulted once per beam at every completed bar line; its
    value is reused for the steps inside the following bar.
    """
    vocab = policy.vocab
    rule = StopRule(vocab, cfg.max_bars, cfg.max_tokens)
    bars, done = rule.start(start)
    beams = [_Beam(seq=list(start), logscore=0.0, bars=bars, done=done) for _ in range(cfg.beams)]
    trace = DecodeTrace(method="sbbs", start=list(start))
    with uniform_stream(rng) as stream:
        while not all(b.done for b in beams):
            live = [i for i, b in enumerate(beams) if not b.done]
            candidates: list[tuple[int, int, float]] = []  # parent index, token, logscore
            for i in live:
                beam = beams[i]
                ids, probs = policy.top_k(beam.seq, cfg.top_k)
                for tok, p in zip(ids, probs):
                    logscore = beam.logscore + math.log(max(p, _LOG_FLOOR)) + beam.log_e
                    candidates.append((i, tok, logscore))

            scores = np.array([c[2] for c in candidates], dtype=np.float64)
            weights = np.exp(scores - scores.max())
            picked: list[int] = []
            for _ in range(min(len(live), len(candidates))):
                idx = sample_index(stream, weights)
                picked.append(idx)
                weights[idx] = 0.0  # without replacement
                if not weights.any():
                    break

            survivors: list[_Beam] = [b for b in beams if b.done]
            for idx in picked:
                parent, token, logscore = candidates[idx]
                beam = beams[parent]
                seq = beam.seq + [token]
                bars, done = rule.after(seq, beam.bars)
                child = _Beam(seq=seq, logscore=logscore, log_e=beam.log_e, bars=bars, done=done)
                if token == vocab.bar_id and bars >= 2:  # the first bar line closes no bar
                    e_vec = classifier.distribution(seq, trace)
                    child.log_e = math.log(max(float(e_vec[cfg.target.index]), _LOG_FLOOR))
                survivors.append(child)
            beams = survivors
            trace.records.append(
                {
                    "step": len(trace.records),
                    "beams": [
                        {"parent": candidates[i][0], "token_id": candidates[i][1], "logscore": candidates[i][2]}
                        for i in picked
                    ],
                    "e_calls": trace.e_calls,
                    "d_calls": trace.d_calls,
                }
            )

    best = max(beams, key=lambda b: b.logscore)
    return _finalize(list(best.seq), vocab), trace
