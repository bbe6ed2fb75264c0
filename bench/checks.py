"""Correctness checks computed independently of the program.

Token ids follow the vocabulary layout documented in ``emodecode.remi``:
START=0, END=1, BAR=2, then the POSITION, TEMPO, PITCH, DURATION,
VELOCITY and EMOTION blocks.  Everything here is rebuilt from that layout
and the documented grammar, so a check does not pass merely because it
called the code it is checking.  Each function returns a list of problems;
an empty list means the check passed.
"""
from __future__ import annotations

import math
from collections import defaultdict

STEP = 120
BAR_TICKS = 16 * STEP
# kind -> (first id, lowest value, highest value)
BLOCKS = {
    "START": (0, 0, 0),
    "END": (1, 0, 0),
    "BAR": (2, 0, 0),
    "POSITION": (3, 1, 16),
    "TEMPO": (19, 1, 32),
    "PITCH": (51, 0, 127),
    "DURATION": (179, 1, 32),
    "VELOCITY": (211, 1, 32),
    "EMOTION": (243, 1, 4),
}
VOCAB_SIZE = 247
SUCCESSORS = {
    "START": ("BAR",),
    "BAR": ("POSITION", "END"),
    "POSITION": ("TEMPO", "PITCH"),
    "TEMPO": ("PITCH",),
    "PITCH": ("DURATION",),
    "DURATION": ("VELOCITY",),
    "VELOCITY": ("POSITION", "BAR", "END"),
    "EMOTION": ("BAR",),
    "END": (),
}
OPEN_GROUP = ("POSITION", "TEMPO", "PITCH", "DURATION")
END_ID, BAR_ID = 1, 2


def kind_value(token_id: int) -> tuple[str, int]:
    for kind, (first, lo, hi) in BLOCKS.items():
        if first <= token_id <= first + hi - lo:
            return kind, lo + token_id - first
    raise ValueError(f"token id {token_id} outside the vocabulary")


def text_to_id(text: str) -> int:
    kind, _, raw = text.partition(":")
    first, lo, hi = BLOCKS[kind]
    value = int(raw) if raw else 0
    if not lo <= value <= hi:
        raise ValueError(f"{text} outside its range")
    return first + value - lo


def emotion_id(quadrant_number: int) -> int:
    return BLOCKS["EMOTION"][0] + quadrant_number - 1


def legal_successors(token_id: int) -> list[int]:
    out = []
    for kind in SUCCESSORS[kind_value(token_id)[0]]:
        first, lo, hi = BLOCKS[kind]
        out.extend(range(first, first + hi - lo + 1))
    return sorted(out)


def notes_of(ids) -> list[tuple[int, int, int, int]]:
    """(onset, pitch, duration, velocity) of every note, in token order."""
    notes = []
    bar = -1
    tick = pitch = 0
    duration = STEP
    for token_id in ids:
        kind, value = kind_value(token_id)
        if kind == "BAR":
            bar += 1
        elif kind == "POSITION":
            tick = bar * BAR_TICKS + (value - 1) * STEP
        elif kind == "PITCH":
            pitch = value
        elif kind == "DURATION":
            duration = value * STEP
        elif kind == "VELOCITY":
            notes.append((tick, pitch, duration, min(4 * value, 127)))
    return notes


def brute_force_metrics(ids) -> dict[str, float]:
    """PR, NPC and POLY by direct enumeration; 0 for a piece without notes."""
    notes = notes_of(ids)
    if not notes:
        return {"pitch_range": 0.0, "n_pitch_classes": 0.0, "polyphony": 0.0}
    pitches = [n[1] for n in notes]
    end = max(n[0] + n[2] for n in notes)
    sounding = []
    for step in range(0, end, STEP):
        count = sum(1 for onset, _, dur, _ in notes if onset <= step < onset + dur)
        if count:
            sounding.append(count)
    return {
        "pitch_range": float(max(pitches) - min(pitches)),
        "n_pitch_classes": float(len({p % 12 for p in pitches})),
        "polyphony": sum(sounding) / len(sounding) if sounding else 0.0,
    }


def check_complete(ids, max_tokens: int) -> list[str]:
    """Grammar-complete sequence, at most max_tokens plus the closing END."""
    problems = []
    if len(ids) > max_tokens + 1:
        problems.append(f"{len(ids)} tokens exceed max_tokens {max_tokens} + END")
    kinds = [kind_value(t)[0] for t in ids]
    if not kinds or kinds[0] != "START":
        return problems + ["does not open with START"]
    for i in range(1, len(kinds)):
        if i == 1 and kinds[1] == "EMOTION":
            continue
        if kinds[i] not in SUCCESSORS[kinds[i - 1]]:
            problems.append(f"{kinds[i - 1]} -> {kinds[i]} at {i}")
            break
    if kinds[-1] in OPEN_GROUP:
        problems.append("ends inside an open note group")
    return problems


def check_roundtrip(synth_pieces, corpus: dict, tokens_to_piece, decode_text) -> list[str]:
    """Ingested tokens decode back to exactly the synthesised notes and tempo."""
    by_source = {p["source"]: p["tokens"] for p in corpus["pieces"]}
    problems = []
    for sp in synth_pieces:
        tokens = by_source.get(sp.name)
        if tokens is None:
            problems.append(f"{sp.name} missing from the corpus")
            continue
        piece = tokens_to_piece(decode_text(tokens))
        got = sorted((n.onset, n.pitch, n.duration, n.velocity) for n in piece.notes)
        want = sorted((n.onset, n.pitch, n.duration, n.velocity) for n in sp.notes)
        if got != want:
            problems.append(f"{sp.name}: notes differ after ingest")
        if [bpm for _, bpm in piece.tempo_changes] != [sp.bpm]:
            problems.append(f"{sp.name}: tempo {piece.tempo_changes} != {sp.bpm}")
    return problems


class AddKModel:
    """Backoff add-k n-gram over ids, counted here from the corpus file."""

    def __init__(self, sequences, order: int = 3, add_k: float = 0.01):
        self.order = order
        self.add_k = add_k
        self.counts = {o: defaultdict(lambda: defaultdict(int)) for o in range(1, order + 1)}
        for seq in sequences:
            for i in range(1, len(seq)):
                for o in range(1, order + 1):
                    if i - (o - 1) >= 0:
                        self.counts[o][tuple(seq[i - o + 1 : i])][seq[i]] += 1

    def distribution(self, prefix) -> list[float]:
        legal = legal_successors(prefix[-1])
        weights = None
        for o in range(self.order, 0, -1):
            if len(prefix) < o - 1:
                continue
            ctx = tuple(prefix[len(prefix) - o + 1 :]) if o > 1 else ()
            row = self.counts[o].get(ctx)
            if row:
                weights = [row.get(t, 0) + self.add_k for t in legal]
                break
        if weights is None:
            weights = [1.0] * len(legal)
        total = sum(weights)
        dist = [0.0] * VOCAB_SIZE
        for t, w in zip(legal, weights):
            dist[t] = w / total
        return dist


def check_ngram(policy, reference: AddKModel, prefixes) -> list[str]:
    problems = []
    for prefix in prefixes:
        got = policy.next_distribution(list(prefix))
        want = reference.distribution(list(prefix))
        worst = max(abs(float(g) - w) for g, w in zip(got, want))
        if worst > 1e-12:
            problems.append(f"context {tuple(prefix[-2:])}: off by {worst:.3g}")
    return problems


def check_puct_trace(trace: dict, budget: int) -> list[str]:
    """Per-record search invariants and per-piece evaluator accounting."""
    problems = []
    for rec in trace["records"]:
        visits = rec["visits"]
        where = f"step {rec['step']}"
        if sum(visits) != budget:
            problems.append(f"{where}: visits sum {sum(visits)} != budget {budget}")
        if rec["root_visits"] != budget + 1:
            problems.append(f"{where}: root_visits {rec['root_visits']} != {budget + 1}")
        if not math.isclose(sum(rec["priors"]), 1.0, abs_tol=1e-9):
            problems.append(f"{where}: priors sum {sum(rec['priors'])}")
        if any(not -1.0 <= q <= 1.0 for q in rec["q_values"]):
            problems.append(f"{where}: Q outside [-1, 1]")
        chosen = rec["candidate_ids"].index(rec["chosen_id"]) if rec["chosen_id"] in rec["candidate_ids"] else None
        if chosen is None or visits[chosen] <= 0:
            problems.append(f"{where}: chosen token {rec['chosen_id']} has no visits")
    emitted = len(trace["records"])
    if not trace["e_calls"] == trace["d_calls"] <= budget * emitted:
        problems.append(
            f"e_calls {trace['e_calls']} / d_calls {trace['d_calls']} vs budget x tokens {budget * emitted}"
        )
    return problems
