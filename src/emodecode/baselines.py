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
from .models.base import LOG_FLOOR, EmotionClassifier, Policy
from .models.ngram import with_emotion_prefix
from .models.sampling import sample_cumulative, sample_without_replacement, uniform_stream
from .puct import DecodeTrace, StopRule, _emit, _finalize


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

    Each step expands every live beam with its top-k successors and scores
    each candidate as ``beam.logscore + logp + beam.log_e``, in that order:
    the beam's accumulated score, the successor's floored log policy
    probability as ``Policy.top_k`` caches it, and the beam's cached
    floored log classifier probability of the target.  The next beam set
    is drawn without replacement from the candidates' ``exp(score - max)``
    weights, one uniform per pick (``sample_without_replacement``).  The
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
            parents: list[int] = []  # per candidate: its beam's index, its token and its score
            tokens: list[int] = []
            scores: list[float] = []
            for i in live:
                beam = beams[i]
                ids, logps = policy.top_k(beam.seq, cfg.top_k)
                logscore, log_e = beam.logscore, beam.log_e
                parents += [i] * len(ids)
                tokens += ids
                scores += [logscore + logp + log_e for logp in logps]

            weights = np.exp(np.array(scores) - max(scores)).tolist()
            picked = sample_without_replacement(stream, weights, min(len(live), len(scores)))

            survivors: list[_Beam] = [b for b in beams if b.done]
            last_child = {parents[idx]: n for n, idx in enumerate(picked)}
            for n, idx in enumerate(picked):
                parent, token = parents[idx], tokens[idx]
                beam = beams[parent]
                if last_child[parent] == n:  # the parent's last child extends its list in place
                    seq = beam.seq
                    seq.append(token)
                else:
                    seq = beam.seq + [token]
                bars, done = rule.after(seq, beam.bars)
                child = _Beam(seq=seq, logscore=scores[idx], log_e=beam.log_e, bars=bars, done=done)
                if token == vocab.bar_id and bars >= 2:  # the first bar line closes no bar
                    e_vec = classifier.distribution(seq, trace)
                    child.log_e = math.log(max(float(e_vec[cfg.target.index]), LOG_FLOOR))
                survivors.append(child)
            beams = survivors
            trace.records.append(
                {
                    "step": len(trace.records),
                    "beams": [
                        {"parent": parents[i], "token_id": tokens[i], "logscore": scores[i]} for i in picked
                    ],
                    "e_calls": trace.e_calls,
                    "d_calls": trace.d_calls,
                }
            )

    best = max(beams, key=lambda b: b.logscore)
    return _finalize(list(best.seq), vocab), trace
