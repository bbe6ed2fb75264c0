"""Brute-force reference implementations used only by the tests.

Everything here is written as plainly as possible (dicts, loops, python
floats) so it can serve as an independent check of the engine.  The search
reference follow the exact same arithmetic expression shapes as the engine
so that, fed the same random stream, the two must agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from emodecode.emotion import EmotionQuadrant
from emodecode.errors import GrammarError, SequenceTooShort
from emodecode.models.base import EvaluatorBudget
from emodecode.puct import DecodeConfig


class ScriptedRNG:
    """Replays a prerecorded uniform stream through the rng.random() duck type."""

    def __init__(self, values):
        self.values = [float(v) for v in values]
        self.cursor = 0

    def random(self) -> float:
        if self.cursor >= len(self.values):
            raise RuntimeError("scripted random stream exhausted")
        value = self.values[self.cursor]
        self.cursor += 1
        return value

    @property
    def consumed(self) -> int:
        return self.cursor


class TinyVocab:
    """Successor-table vocabulary over a handful of abstract tokens."""

    def __init__(self, successors: dict[int, list[int]], start_id: int, end_id: int,
                 bar_id: int = -1):
        ids = set(successors)
        for targets in successors.values():
            ids.update(targets)
        self.vocab_size = max(ids) + 1
        self._succ = {
            token: np.array(sorted(targets), dtype=np.int64)
            for token, targets in successors.items()
        }
        self.start_id = start_id
        self.end_id = end_id
        self.bar_id = bar_id

    def successors(self, token_id: int) -> np.ndarray:
        return self._succ.get(int(token_id), np.array([], dtype=np.int64))

    def validate_ids(self, ids, *, require_complete: bool = False):
        for i in range(1, len(ids)):
            if int(ids[i]) not in self._succ.get(int(ids[i - 1]), ()):
                return GrammarError(i)
        return None


class MinLenClassifier:
    """Table classifier that refuses sequences which never reached a stop token.

    Mimics the whole-bars-only contract of the real evaluators so the
    rollout-cap reward path can be exercised on abstract instances.
    """

    def __init__(self, table, default=None, stop_ids=()):
        self.table = {tuple(k): np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.default = None if default is None else np.asarray(default, dtype=np.float64)
        self.stop_ids = frozenset(stop_ids)

    def distribution(self, seq, budget: EvaluatorBudget) -> np.ndarray:
        if self.stop_ids and int(seq[-1]) not in self.stop_ids:
            raise SequenceTooShort("sequence never reached a stop token")
        hit = self.table.get(tuple(int(t) for t in seq))
        if hit is None:
            if self.default is None:
                raise KeyError(f"no classifier entry for {list(seq)!r}")
            hit = self.default
        budget.e_calls += 1
        return hit


class MinLenDiscriminator:
    def __init__(self, table, default=None, stop_ids=()):
        self.table = {tuple(k): float(v) for k, v in table.items()}
        self.default = default
        self.stop_ids = frozenset(stop_ids)

    def realness(self, seq, budget: EvaluatorBudget) -> float:
        if self.stop_ids and int(seq[-1]) not in self.stop_ids:
            raise SequenceTooShort("sequence never reached a stop token")
        hit = self.table.get(tuple(int(t) for t in seq))
        if hit is None:
            if self.default is None:
                raise KeyError(f"no discriminator entry for {list(seq)!r}")
            hit = self.default
        budget.d_calls += 1
        return float(hit)


@dataclass
class TinyInstance:
    """Fully tabulated search problem small enough to enumerate exactly."""

    name: str
    vocab: TinyVocab
    policy: object
    classifier: object
    discriminator: object
    cfg: DecodeConfig
    start: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.start:
            self.start = [self.vocab.start_id]


def naive_top_p(dist, p) -> list[int]:
    """Candidate ids by accumulating descending probabilities until >= p."""
    order = sorted(range(len(dist)), key=lambda i: (-float(dist[i]), i))
    chosen = []
    mass = 0.0
    for i in order:
        if float(dist[i]) <= 0.0:
            break
        chosen.append(i)
        mass += float(dist[i])
        if mass >= p:
            break
    assert chosen, "distribution has no positive mass"
    assert len(chosen) < 8, "keep tiny candidate sets below numpy's pairwise-sum block"
    return sorted(chosen)


def naive_sample(rng, weights: list[float]) -> int:
    """Inverse-CDF draw from unnormalized weights, one uniform consumed."""
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)
    u = rng.random() * total
    for i, edge in enumerate(cum):
        if edge > u:
            return i
    return len(weights) - 1


def _reward(inst: TinyInstance, seq) -> float:
    budget = EvaluatorBudget()
    try:
        e_vec = inst.classifier.distribution(seq, budget)
        d_val = inst.discriminator.realness(seq, budget)
    except SequenceTooShort:
        return -1.0
    target = inst.cfg.target.index
    best = 0
    for i in range(1, 4):
        if float(e_vec[i]) > float(e_vec[best]):
            best = i
    e_t = float(e_vec[target])
    if best == target:
        return e_t * float(d_val)
    return (1.0 - e_t) * (float(d_val) - 1.0)


def exact_expected_reward(inst: TinyInstance, child_token: int) -> float:
    """Expected rollout reward of committing to `child_token` at the start.

    Exhaustively enumerates every rollout continuation, weighting each by
    its nucleus-sampling probability.
    """

    def walk(seq: list[int], added: int) -> float:
        last = seq[-1]
        if added == 0 and last == inst.vocab.end_id:
            return _reward(inst, seq)
        if added > 0 and (last == inst.vocab.bar_id or last == inst.vocab.end_id):
            return _reward(inst, seq)
        if added >= inst.cfg.rollout_cap:
            return _reward(inst, seq)
        dist = inst.policy.next_distribution(seq)
        ids = naive_top_p(dist, inst.cfg.top_p)
        total = 0.0
        for i in ids:
            total += float(dist[i])
        value = 0.0
        for i in ids:
            value += (float(dist[i]) / total) * walk(seq + [int(i)], added + 1)
        return value

    return walk(list(inst.start) + [int(child_token)], 0)


# --- straight-line PUCT transliteration -----------------------------------


@dataclass
class RefEdge:
    token: int
    prior: float
    visits: int = 0
    q: float = 0.0
    child: "RefNode | None" = None


@dataclass
class RefNode:
    edges: list[RefEdge]
    visits: int = 1
    terminal: bool = False


def _ref_expand(inst: TinyInstance, prefix: list[int]) -> RefNode:
    dist = inst.policy.next_distribution(prefix)
    ids = naive_top_p(dist, inst.cfg.top_p)
    total = 0.0
    for i in ids:
        total += float(dist[i])
    return RefNode(edges=[RefEdge(int(i), float(dist[i]) / total) for i in ids])


def _ref_select(node: RefNode, cfg: DecodeConfig) -> int:
    root_term = cfg.exploration_c * math.sqrt(node.visits)
    best_i = 0
    best_v = None
    for i, e in enumerate(node.edges):
        v = e.q + root_term * e.prior / (1 + e.visits)
        if best_v is None or v > best_v:
            best_i, best_v = i, v
    return best_i


def _ref_simulate(inst: TinyInstance, prefix: list[int], rng, budget) -> float:
    seq = list(prefix)
    if seq[-1] != inst.vocab.end_id:
        for _ in range(inst.cfg.rollout_cap):
            dist = inst.policy.next_distribution(seq)
            ids = naive_top_p(dist, inst.cfg.top_p)
            tok = ids[naive_sample(rng, [float(dist[i]) for i in ids])]
            seq.append(int(tok))
            if tok == inst.vocab.bar_id or tok == inst.vocab.end_id:
                break
    try:
        e_vec = inst.classifier.distribution(seq, budget)
        d_val = inst.discriminator.realness(seq, budget)
    except SequenceTooShort:
        return -1.0
    target = inst.cfg.target.index
    best = 0
    for i in range(1, 4):
        if float(e_vec[i]) > float(e_vec[best]):
            best = i
    e_t = float(e_vec[target])
    if best == target:
        return e_t * float(d_val)
    return (1.0 - e_t) * (float(d_val) - 1.0)


def _ref_iteration(inst: TinyInstance, root: RefNode, rng, budget) -> None:
    node = root
    seq = list(inst.start)
    path: list[tuple[RefNode, RefEdge]] = []
    while True:
        idx = _ref_select(node, inst.cfg)
        edge = node.edges[idx]
        path.append((node, edge))
        seq.append(edge.token)
        if edge.child is None:
            if edge.token == inst.vocab.end_id:
                edge.child = RefNode(edges=[], terminal=True)
            else:
                edge.child = _ref_expand(inst, seq)
            break
        node = edge.child
        if node.terminal:
            break
    reward = _ref_simulate(inst, seq, rng, budget)
    for node, edge in reversed(path):
        edge.q = (edge.q * edge.visits + reward) / (edge.visits + 1)
        edge.visits += 1
        node.visits = 1 + sum(e.visits for e in node.edges)


def reference_puct(inst: TinyInstance, rng, budget=None) -> RefNode:
    """cfg.budget iterations of naive PUCT from a fresh root."""
    if budget is None:
        budget = EvaluatorBudget()
    root = _ref_expand(inst, list(inst.start))
    for _ in range(inst.cfg.budget):
        _ref_iteration(inst, root, rng, budget)
    return root


def ref_tree_state(node: RefNode):
    """Nested (visits, terminal, [(token, prior, visits, q, child)...])."""
    return (
        node.visits,
        node.terminal,
        tuple(
            (e.token, e.prior, e.visits, e.q, None if e.child is None else ref_tree_state(e.child))
            for e in node.edges
        ),
    )


def engine_tree_state(node):
    return (
        node.node_visits,
        node.terminal,
        tuple(
            (
                e.token_id,
                e.prior,
                e.visits,
                e.q,
                None if e.child is None else engine_tree_state(e.child),
            )
            for e in node.edges
        ),
    )


# --- other brute-force oracles ---------------------------------------------


# --- bundled tiny instances -------------------------------------------------


@dataclass
class BundledInstance:
    """A TinyInstance plus the bookkeeping the equivalence tests need."""

    inst: TinyInstance
    rng_len: int          # uniforms to prerecord (upper bound on consumption)
    check_gap: bool = False   # reward gap >= 0.3: visit argmax must match exact


def scripted_stream(length: int, seed: int) -> list[float]:
    return [float(u) for u in np.random.default_rng(seed).random(length)]


def _pair_instance(name: str, budget: int, e_by_leaf, d_by_leaf, priors) -> BundledInstance:
    """S -> {A, B} -> END with tabulated leaf scores."""
    from doubles import TablePolicy

    vocab = TinyVocab({0: [1, 2], 1: [3], 2: [3]}, start_id=0, end_id=3)
    policy = TablePolicy(
        vocab,
        {(0,): {1: priors[0], 2: priors[1]}, (0, 1): {3: 1.0}, (0, 2): {3: 1.0}},
        by="prefix",
    )
    classifier = MinLenClassifier({(0, 1, 3): e_by_leaf[0], (0, 2, 3): e_by_leaf[1]})
    discriminator = MinLenDiscriminator({(0, 1, 3): d_by_leaf[0], (0, 2, 3): d_by_leaf[1]})
    cfg = DecodeConfig(
        target=EmotionQuadrant.E1, budget=budget, top_p=0.9, exploration_c=1.0, rollout_cap=8
    )
    return BundledInstance(
        TinyInstance(name, vocab, policy, classifier, discriminator, cfg),
        rng_len=budget + 16,
        check_gap=budget >= 200,
    )


def bundled_instances() -> list[BundledInstance]:
    """The fixed battery both search implementations must agree on."""
    from doubles import TablePolicy

    out = []
    e_mild = ((0.7, 0.1, 0.1, 0.1), (0.1, 0.7, 0.1, 0.1))   # rewards 0.56 / -0.18
    e_wide = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))   # rewards 0.9 / -0.5
    out.append(_pair_instance("pair-d10", 10, e_mild, (0.8, 0.8), (0.6, 0.4)))
    out.append(_pair_instance("pair-d200", 200, e_mild, (0.8, 0.8), (0.6, 0.4)))
    out.append(_pair_instance("gap-d200", 200, e_wide, (0.9, 0.5), (0.5, 0.5)))

    # three children, identical rewards, huge c: visits must track the priors
    vocab3 = TinyVocab({0: [1, 2, 3], 1: [4], 2: [4], 3: [4]}, start_id=0, end_id=4)
    policy3 = TablePolicy(
        vocab3,
        {0: {1: 0.5, 2: 0.3, 3: 0.2}, 1: {4: 1.0}, 2: {4: 1.0}, 3: {4: 1.0}},
        by="last",
    )
    flat_e = MinLenClassifier({}, default=(0.7, 0.1, 0.1, 0.1))
    flat_d = MinLenDiscriminator({}, default=0.8)
    cfg3 = DecodeConfig(
        target=EmotionQuadrant.E1, budget=10_000, top_p=1.0, exploration_c=1000.0, rollout_cap=8
    )
    out.append(
        BundledInstance(
            TinyInstance("explore-c1000", vocab3, policy3, flat_e, flat_d, cfg3), rng_len=64
        )
    )

    # two-step chain where the nucleus truncates one branch to a single token
    vocab_chain = TinyVocab({0: [1, 2], 1: [3, 4], 2: [3, 4], 3: [4]}, start_id=0, end_id=4)
    policy_chain = TablePolicy(
        vocab_chain,
        {
            0: {1: 0.55, 2: 0.45},
            1: {3: 0.95, 4: 0.05},   # top-p 0.9 keeps only token 3 here
            2: {3: 0.5, 4: 0.5},
            3: {4: 1.0},
        },
        by="last",
    )
    chain_e = MinLenClassifier(
        {
            (0, 1, 3, 4): (0.8, 0.1, 0.05, 0.05),
            (0, 2, 3, 4): (0.1, 0.8, 0.05, 0.05),
            (0, 2, 4): (0.25, 0.25, 0.25, 0.25),
        },
        default=(0.4, 0.3, 0.2, 0.1),
        stop_ids=(4,),
    )
    chain_d = MinLenDiscriminator(
        {(0, 1, 3, 4): 0.9, (0, 2, 3, 4): 0.7, (0, 2, 4): 0.5}, default=0.6, stop_ids=(4,)
    )
    cfg_chain = DecodeConfig(
        target=EmotionQuadrant.E1, budget=60, top_p=0.9, exploration_c=1.0, rollout_cap=8
    )
    out.append(
        BundledInstance(
            TinyInstance("chain-bylast", vocab_chain, policy_chain, chain_e, chain_d, cfg_chain),
            rng_len=60 * 4 + 16,
        )
    )

    # self-loop where the rollout cap can strand a rollout before the stop
    # token, hitting the floor reward without consuming evaluator calls
    vocab_loop = TinyVocab({0: [1], 1: [1, 2]}, start_id=0, end_id=2)
    policy_loop = TablePolicy(vocab_loop, {0: {1: 1.0}, 1: {1: 0.8, 2: 0.2}}, by="last")
    loop_e = MinLenClassifier({}, default=(0.7, 0.1, 0.1, 0.1), stop_ids=(2,))
    loop_d = MinLenDiscriminator({}, default=0.8, stop_ids=(2,))
    cfg_loop = DecodeConfig(
        target=EmotionQuadrant.E1, budget=40, top_p=1.0, exploration_c=1.0, rollout_cap=4
    )
    out.append(
        BundledInstance(
            TinyInstance("shortcap", vocab_loop, policy_loop, loop_e, loop_d, cfg_loop),
            rng_len=40 * 5 + 16,
        )
    )

    # bar-delimited rollouts: stops on the bar token, not just on END
    vocab_bar = TinyVocab({0: [2], 2: [1, 3], 1: [1, 2]}, start_id=0, end_id=3, bar_id=2)
    policy_bar = TablePolicy(
        vocab_bar, {0: {2: 1.0}, 2: {1: 0.7, 3: 0.3}, 1: {1: 0.6, 2: 0.4}}, by="last"
    )
    bar_e = MinLenClassifier({}, default=(0.2, 0.5, 0.2, 0.1), stop_ids=(2, 3))
    bar_d = MinLenDiscriminator({}, default=0.75, stop_ids=(2, 3))
    cfg_bar = DecodeConfig(
        target=EmotionQuadrant.E2, budget=80, top_p=0.9, exploration_c=1.0, rollout_cap=6
    )
    out.append(
        BundledInstance(
            TinyInstance("barstop", vocab_bar, policy_bar, bar_e, bar_d, cfg_bar),
            rng_len=80 * 7 + 16,
        )
    )
    return out


def avg019_instance() -> TinyInstance:
    """Forced first move, then two equiprobable leaves worth 0.56 and -0.18."""
    from doubles import TablePolicy

    vocab = TinyVocab({0: [1], 1: [2, 3], 2: [4], 3: [4]}, start_id=0, end_id=4)
    policy = TablePolicy(
        vocab,
        {(0,): {1: 1.0}, (0, 1): {2: 0.5, 3: 0.5}, (0, 1, 2): {4: 1.0}, (0, 1, 3): {4: 1.0}},
        by="prefix",
    )
    classifier = MinLenClassifier(
        {(0, 1, 2, 4): (0.7, 0.1, 0.1, 0.1), (0, 1, 3, 4): (0.1, 0.7, 0.1, 0.1)}
    )
    discriminator = MinLenDiscriminator({(0, 1, 2, 4): 0.8, (0, 1, 3, 4): 0.8})
    cfg = DecodeConfig(
        target=EmotionQuadrant.E1, budget=10, top_p=1.0, exploration_c=1.0, rollout_cap=8
    )
    return TinyInstance("avg019", vocab, policy, classifier, discriminator, cfg)


def brute_force_polyphony(notes, step: int = 120) -> float:
    """Per-step recount of simultaneously sounding notes."""
    if not notes:
        return 0.0
    end = max(onset + duration for onset, _, duration, _ in notes)
    counts = []
    t = 0
    while t * step < end:
        counts.append(
            sum(1 for onset, _, duration, _ in notes if onset <= t * step < onset + duration)
        )
        t += 1
    active = [c for c in counts if c > 0]
    if not active:
        return 0.0
    return sum(active) / len(active)


def naive_ngram_distribution(corpus, order, add_k, prefix, vocab) -> np.ndarray:
    """Recount longest-seen-context backoff from scratch."""
    legal = [int(t) for t in vocab.successors(prefix[-1])]
    for o in range(order, 0, -1):
        if len(prefix) < o - 1:
            continue
        ctx = tuple(int(t) for t in prefix[len(prefix) - (o - 1):]) if o > 1 else ()
        row: dict[int, int] = {}
        seen = False
        for seq in corpus:
            for i in range(1, len(seq)):
                if i - (o - 1) < 0:
                    continue
                if tuple(int(t) for t in seq[i - (o - 1): i]) == ctx:
                    seen = True
                    row[int(seq[i])] = row.get(int(seq[i]), 0) + 1
        if seen:
            weights = [row.get(t, 0) + add_k for t in legal]
            total = sum(weights)
            dist = np.zeros(vocab.vocab_size, dtype=np.float64)
            for t, w in zip(legal, weights):
                dist[t] = w / total
            return dist
    dist = np.zeros(vocab.vocab_size, dtype=np.float64)
    for t in legal:
        dist[t] = 1.0 / len(legal)
    return dist
