"""PUCT tree search over next-token decisions.

Each emitted token is chosen by running a fixed number of search iterations
(select / expand / simulate / backpropagate) from the current prefix, then
sampling proportionally to root visit counts.  Rollouts extend a leaf until
the next bar line (or end of piece) and are scored by the emotion model and
the discriminator:

    reward = E(s, e) * D(s)                if argmax E(s) == e
           = (1 - E(s, e)) * (D(s) - 1)    otherwise

so a rollout that hits the target emotion earns a positive reward scaled by
realness, and anything else is penalized.  Q-values are running means of
these rewards, kept in [-1, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .emotion import EmotionQuadrant, argmax_quadrant
from .errors import SequenceTooShort, TerminalNode
from .models.base import Discriminator, EmotionClassifier, EvaluatorBudget, Policy
from .models.sampling import sample_index


@dataclass
class DecodeConfig:
    """Search hyperparameters; the defaults mirror the reference setup."""

    target: EmotionQuadrant
    budget: int = 50            # search iterations per emitted token
    top_p: float = 0.9
    exploration_c: float = 1.0
    rollout_cap: int = 64       # hard stop for a single rollout
    max_bars: int = 16
    max_tokens: int = 1024

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if not (math.isfinite(self.exploration_c) and self.exploration_c >= 0.0):
            raise ValueError(f"exploration_c must be a finite non-negative number, got {self.exploration_c!r}")
        if self.rollout_cap < 0:
            raise ValueError("rollout_cap must be non-negative")


@dataclass
class Edge:
    token_id: int
    prior: float
    visits: int = 0
    q: float = 0.0
    child: "SearchNode | None" = None


@dataclass
class SearchNode:
    edges: list[Edge]
    node_visits: int = 1
    terminal: bool = False


@dataclass
class RolloutResult:
    sequence: list[int]
    emotion: np.ndarray | None
    realness: float | None
    reward: float


@dataclass(kw_only=True)
class DecodeTrace(EvaluatorBudget):
    """One record per emitted token, and the evaluator calls of the decode."""

    method: str
    start: list[int]
    records: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, shallow: records are shared


def selection_scores(node: SearchNode, cfg: DecodeConfig) -> list[float]:
    """Per-edge selection value: Q + c * prior * sqrt(N(n)) / (1 + N(n, l))."""
    root_term = cfg.exploration_c * math.sqrt(node.node_visits)
    return [e.q + root_term * e.prior / (1 + e.visits) for e in node.edges]


def select(node: SearchNode, cfg: DecodeConfig) -> int:
    """Index of the edge maximizing the selection value.

    Edges are stored in ascending token id order, so the first maximum is
    also the lowest-id winner on ties.
    """
    scores = selection_scores(node, cfg)
    return scores.index(max(scores))


def expand(prefix: Sequence[int], policy: Policy, cfg: DecodeConfig) -> SearchNode:
    """New node for ``prefix``: nucleus candidates, renormalized priors.

    The fresh node starts with one node visit and zero-visit, zero-Q edges.
    Raises TerminalNode when the prefix already ends the piece.
    """
    if prefix[-1] == policy.vocab.end_id:
        raise TerminalNode("cannot expand past the end of the piece")
    ids, priors, _ = policy.nucleus(prefix, cfg.top_p)
    return SearchNode(edges=[Edge(t, pr) for t, pr in zip(ids, priors)])


def simulate(
    prefix: Sequence[int],
    policy: Policy,
    classifier: EmotionClassifier,
    discriminator: Discriminator,
    cfg: DecodeConfig,
    budget: EvaluatorBudget,
    rng,
) -> RolloutResult:
    """Roll out to the next bar line (or end) and score the result.

    ``policy.rollout`` samples the continuation, nucleus-filtered at every
    step.  If the cap cuts the rollout before a single bar has been
    completed the result is the floor reward -1 and the evaluators are not
    consulted.

    Each evaluator call counts against ``budget`` even when it is served
    from memory: the heuristic classifier memoises its distribution on
    (tempo, density, velocity, pitch-class histogram) and the discriminator
    its realness on (validity, pitch-class histogram, duration histogram),
    inputs that repeat across rollouts far more often than whole sequences
    do.  A miss still calls ``np.exp``, ``np.dot`` and ``np.log2`` on a few
    elements: Python's ``math`` rounds differently and would change the
    decoded ids.
    """
    vocab = policy.vocab
    seq = list(prefix)
    if seq[-1] != vocab.end_id:
        policy.rollout(seq, cfg.top_p, cfg.rollout_cap, rng, (vocab.bar_id, vocab.end_id))
    try:
        emotion = classifier.distribution(seq, budget)
        realness = discriminator.realness(seq, budget)
    except SequenceTooShort:
        return RolloutResult(seq, None, None, -1.0)
    e_target = float(emotion[cfg.target.index])
    if argmax_quadrant(emotion) is cfg.target:
        reward = e_target * realness
    else:
        reward = (1.0 - e_target) * (realness - 1.0)
    return RolloutResult(seq, emotion, realness, reward)


def backpropagate(path: Sequence[tuple[SearchNode, Edge]], reward: float) -> None:
    """Update Q as a running mean and bump visit counts, leaf to root."""
    for node, edge in reversed(path):
        edge.q = (edge.q * edge.visits + reward) / (edge.visits + 1)
        edge.visits += 1
        node.node_visits += 1


def search_step(
    root: SearchNode,
    prefix: Sequence[int],
    policy: Policy,
    classifier: EmotionClassifier,
    discriminator: Discriminator,
    cfg: DecodeConfig,
    budget: EvaluatorBudget,
    rng,
) -> RolloutResult:
    """One full iteration: descend, expand a leaf, roll out, back up."""
    node = root
    seq = list(prefix)
    path: list[tuple[SearchNode, Edge]] = []
    while True:
        idx = select(node, cfg)
        edge = node.edges[idx]
        path.append((node, edge))
        seq.append(edge.token_id)
        if edge.child is None:
            if edge.token_id == policy.vocab.end_id:
                edge.child = SearchNode(edges=[], terminal=True)
            else:
                edge.child = expand(seq, policy, cfg)
            break
        node = edge.child
        if node.terminal:
            break
    result = simulate(seq, policy, classifier, discriminator, cfg, budget, rng)
    backpropagate(path, result.reward)
    return result


def choose_token(root: SearchNode, rng) -> tuple[int, SearchNode | None]:
    """Sample the next token proportionally to root visit counts.

    Returns the token id and the matching child, whose subtree statistics
    are kept intact for callers that want to keep searching from it.
    """
    visits = np.array([e.visits for e in root.edges], dtype=np.float64)
    idx = sample_index(rng, visits)
    edge = root.edges[idx]
    return edge.token_id, edge.child


def _finalize(seq: list[int], vocab) -> list[int]:
    """Close the sequence: drop an unfinished note group, append END.

    A sequence that has not reached its first bar line gets one, so the
    closed sequence always validates.
    """
    kind_of = getattr(vocab, "kind_of", None)
    if kind_of is not None:  # abstract test vocabularies have no note groups
        from .remi.tokens import OPEN_GROUP_KINDS, TokenKind

        while len(seq) > 1 and kind_of(seq[-1]) in OPEN_GROUP_KINDS:
            seq.pop()
        if seq[-1] == vocab.start_id or kind_of(seq[-1]) is TokenKind.EMOTION:
            seq.append(vocab.bar_id)  # START and a control token lead into a bar
    if seq[-1] != vocab.end_id:
        seq.append(vocab.end_id)
    return seq


@dataclass(frozen=True)
class StopRule:
    """The decoders' one stop rule: EndOfMusic, ``max_bars`` bar lines (bar
    lines already in the start count) or ``max_tokens`` ids."""

    vocab: object
    max_bars: int
    max_tokens: int

    def __post_init__(self):
        if self.max_bars < 1:
            raise ValueError("max_bars must be at least 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")

    def start(self, seq: Sequence[int]) -> tuple[int, bool]:
        """Bar lines in a start, and whether it is already at a limit."""
        bars = seq.count(self.vocab.bar_id)
        return bars, bars >= self.max_bars or len(seq) >= self.max_tokens

    def after(self, seq: Sequence[int], bars: int) -> tuple[int, bool]:
        """Bar lines and the stop flag once ``seq[-1]`` joined ``bars`` bar lines."""
        if seq[-1] == self.vocab.bar_id:
            bars += 1
            return bars, bars >= self.max_bars or len(seq) >= self.max_tokens
        return bars, seq[-1] == self.vocab.end_id or len(seq) >= self.max_tokens


def _emit(start: Sequence[int], rule: StopRule, next_token: Callable[[list[int]], int]) -> list[int]:
    """Append ``next_token(seq)`` until ``rule`` stops, then close; ``seq`` is read-only to it."""
    seq = list(start)
    bars, done = rule.start(seq)
    while not done:
        seq.append(next_token(seq))
        bars, done = rule.after(seq, bars)
    return _finalize(seq, rule.vocab)


def decode_piece(
    start: Sequence[int],
    policy: Policy,
    classifier: EmotionClassifier,
    discriminator: Discriminator,
    cfg: DecodeConfig,
    rng,
) -> tuple[list[int], DecodeTrace]:
    """Generate a full piece, one searched token at a time.

    Every emitted token gets a fresh tree and exactly ``cfg.budget``
    iterations, so each decision costs the same number of emotion-model and
    discriminator calls.  Generation stops at EndOfMusic, at ``max_bars``
    bar lines, or at ``max_tokens``; the sequence is then closed so it
    always validates.
    """
    trace = DecodeTrace(method="puct", start=list(start))

    def next_token(seq: list[int]) -> int:
        root = expand(seq, policy, cfg)
        ids, priors, _ = policy.nucleus(seq, cfg.top_p)  # shared with the root's edges
        for _ in range(cfg.budget):
            search_step(root, seq, policy, classifier, discriminator, cfg, trace, rng)
        token, _ = choose_token(root, rng)
        trace.records.append(
            {
                "step": len(trace.records),
                "candidate_ids": ids,
                "priors": priors,
                "visits": tuple([e.visits for e in root.edges]),  # exact-size: callers keep traces
                "q_values": tuple([e.q for e in root.edges]),
                "root_visits": root.node_visits,
                "chosen_id": token,
                "e_calls": trace.e_calls,
                "d_calls": trace.d_calls,
            }
        )
        return token

    rule = StopRule(policy.vocab, cfg.max_bars, cfg.max_tokens)
    return _emit(start, rule, next_token), trace
