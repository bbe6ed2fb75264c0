"""REMI event vocabulary, transition grammar, and text serialization.

The vocabulary is fixed at 247 tokens: Bar (1), Position (16), Pitch (128),
Duration (32), Velocity (32), Tempo (32), StartOfMusic, EndOfMusic and four
EmotionControl tokens.  Chord tokens are not part of the event set.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from ..emotion import EmotionQuadrant
from ..errors import GrammarError

POSITIONS_PER_BAR = 16
N_PITCHES = 128
N_DURATION_BINS = 32
N_VELOCITY_BINS = 32
N_TEMPO_BINS = 32
N_EMOTIONS = 4


class TokenKind(IntEnum):
    START = 0
    END = 1
    BAR = 2
    POSITION = 3
    TEMPO = 4
    PITCH = 5
    DURATION = 6
    VELOCITY = 7
    EMOTION = 8


_VALUE_RANGES = {
    TokenKind.START: (0, 0),
    TokenKind.END: (0, 0),
    TokenKind.BAR: (0, 0),
    TokenKind.POSITION: (1, POSITIONS_PER_BAR),
    TokenKind.TEMPO: (1, N_TEMPO_BINS),
    TokenKind.PITCH: (0, N_PITCHES - 1),
    TokenKind.DURATION: (1, N_DURATION_BINS),
    TokenKind.VELOCITY: (1, N_VELOCITY_BINS),
    TokenKind.EMOTION: (1, N_EMOTIONS),
}

# kind -> kinds that may follow it
_SUCCESSOR_KINDS = {
    TokenKind.START: (TokenKind.BAR,),
    TokenKind.BAR: (TokenKind.POSITION, TokenKind.END),
    TokenKind.POSITION: (TokenKind.TEMPO, TokenKind.PITCH),
    TokenKind.TEMPO: (TokenKind.PITCH,),
    TokenKind.PITCH: (TokenKind.DURATION,),
    TokenKind.DURATION: (TokenKind.VELOCITY,),
    TokenKind.VELOCITY: (TokenKind.POSITION, TokenKind.BAR, TokenKind.END),
    TokenKind.EMOTION: (TokenKind.BAR,),
    TokenKind.END: (),
}

# kinds a sequence may not stop on: the note group is still open
OPEN_GROUP_KINDS = frozenset(
    (TokenKind.POSITION, TokenKind.TEMPO, TokenKind.PITCH, TokenKind.DURATION)
)

# KIND_PAIR_LEGAL[prev_kind, next_kind]: the raw pair rule, no control-token case
KIND_PAIR_LEGAL = np.zeros((len(TokenKind), len(TokenKind)), dtype=bool)
for _prev, _nexts in _SUCCESSOR_KINDS.items():
    for _n in _nexts:
        KIND_PAIR_LEGAL[int(_prev), int(_n)] = True


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    value: int = 0

    def __post_init__(self):
        lo, hi = _VALUE_RANGES[self.kind]
        if not lo <= self.value <= hi:
            raise ValueError(f"{self.kind.name} value {self.value} outside [{lo}, {hi}]")

    @classmethod
    def start(cls) -> "Token":
        return cls(TokenKind.START)

    @classmethod
    def end(cls) -> "Token":
        return cls(TokenKind.END)

    @classmethod
    def bar(cls) -> "Token":
        return cls(TokenKind.BAR)

    @classmethod
    def position(cls, index: int) -> "Token":
        return cls(TokenKind.POSITION, index)

    @classmethod
    def tempo(cls, bin_: int) -> "Token":
        return cls(TokenKind.TEMPO, bin_)

    @classmethod
    def pitch(cls, value: int) -> "Token":
        return cls(TokenKind.PITCH, value)

    @classmethod
    def duration(cls, bin_: int) -> "Token":
        return cls(TokenKind.DURATION, bin_)

    @classmethod
    def velocity(cls, bin_: int) -> "Token":
        return cls(TokenKind.VELOCITY, bin_)

    @classmethod
    def emotion(cls, quadrant: int | EmotionQuadrant) -> "Token":
        return cls(TokenKind.EMOTION, int(quadrant))

    def to_text(self) -> str:
        return f"{self.kind.name}:{self.value}"

    @classmethod
    def from_text(cls, text: str) -> "Token":
        name, _, raw = text.strip().partition(":")
        if name not in TokenKind.__members__:
            raise ValueError(f"unknown token kind {name!r}")
        return cls(TokenKind[name], int(raw) if raw else 0)


def grammar_mask(prev: Token) -> frozenset[Token]:
    """All tokens that may legally follow ``prev``.  END has no successors."""
    out = []
    for kind in _SUCCESSOR_KINDS[prev.kind]:
        lo, hi = _VALUE_RANGES[kind]
        out.extend(Token(kind, v) for v in range(lo, hi + 1))
    return frozenset(out)


def _first_violation(kinds: Sequence[TokenKind], require_complete: bool) -> int | None:
    if not kinds or kinds[0] is not TokenKind.START:
        return 0
    for i in range(1, len(kinds)):
        if i == 1 and kinds[1] is TokenKind.EMOTION:
            # a single control token may sit right after START
            continue
        if kinds[i] not in _SUCCESSOR_KINDS[kinds[i - 1]]:
            return i
    if require_complete and kinds[-1] in OPEN_GROUP_KINDS:
        return len(kinds)
    return None


def validate_sequence(seq: Sequence[Token]) -> GrammarError | None:
    """Return None for a well-formed sequence, else the first violation.

    Well-formed means: opens with START (optionally one EMOTION control
    right after), every adjacent pair follows the transition rules, and the
    sequence does not stop inside an unfinished note group.  A trailing
    END is optional so decoder prefixes stay valid.
    """
    idx = _first_violation([t.kind for t in seq], require_complete=True)
    return None if idx is None else GrammarError(idx)


def tokens_to_text(seq: Iterable[Token]) -> str:
    return "\n".join(t.to_text() for t in seq) + "\n"


class Vocabulary:
    """Fixed id assignment for the 247-token event set.

    Ids are dense per kind: START=0, END=1, BAR=2, then POSITION,
    TEMPO, PITCH, DURATION, VELOCITY, EMOTION blocks in that order, so a
    token's id is ``id_base[kind] + value``.  ``texts`` holds every id's
    text form, and ``encode_text`` reads ids back from text through one
    dict lookup per token.
    """

    def __init__(self):
        toks: list[Token] = [Token.start(), Token.end(), Token.bar()]
        for kind in (
            TokenKind.POSITION,
            TokenKind.TEMPO,
            TokenKind.PITCH,
            TokenKind.DURATION,
            TokenKind.VELOCITY,
            TokenKind.EMOTION,
        ):
            lo, hi = _VALUE_RANGES[kind]
            toks.extend(Token(kind, v) for v in range(lo, hi + 1))
        self.tokens: tuple[Token, ...] = tuple(toks)
        self._ids: dict[Token, int] = {t: i for i, t in enumerate(toks)}
        self.texts: tuple[str, ...] = tuple(t.to_text() for t in toks)
        self._text_ids: dict[str, int] = {text: i for i, text in enumerate(self.texts)}
        self.id_base: dict[TokenKind, int] = {}
        for i, t in enumerate(toks):
            self.id_base.setdefault(t.kind, i - t.value)
        self.kind_codes = np.array([int(t.kind) for t in toks], dtype=np.int16)
        self.values = np.array([t.value for t in toks], dtype=np.int16)

        self.start_id = self._ids[Token.start()]
        self.end_id = self._ids[Token.end()]
        self.bar_id = self._ids[Token.bar()]

        # the grammar depends only on the kind: one mask per kind, one array per id
        legal: dict[TokenKind, list[int]] = {}
        for t in toks:
            if t.kind not in legal:
                legal[t.kind] = sorted(self._ids[s] for s in grammar_mask(t))
        self._successors: list[np.ndarray] = [np.array(legal[t.kind], dtype=np.int64) for t in toks]

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    def encode(self, seq: Iterable[Token]) -> list[int]:
        return [self._ids[t] for t in seq]

    def encode_text(self, texts: Sequence[str]) -> list[int]:
        """Ids of token texts, one dict lookup each.

        An item that is not one of ``self.texts`` (padded text, or no
        text at all) sends the whole sequence through ``Token.from_text``,
        which accepts or rejects it as it always has.
        """
        table = self._text_ids
        try:
            return [table[t] for t in texts]
        except (KeyError, TypeError):
            return self.encode([Token.from_text(t) for t in texts])

    def decode(self, ids: Iterable[int]) -> list[Token]:
        return [self.tokens[i] for i in ids]

    def emotion_id(self, quadrant: EmotionQuadrant) -> int:
        return self._ids[Token.emotion(quadrant)]

    def successors(self, token_id: int) -> np.ndarray:
        """Legal successor ids of ``token_id``, ascending."""
        return self._successors[token_id]

    def kind_of(self, token_id: int) -> TokenKind:
        return TokenKind(int(self.kind_codes[token_id]))

    def validate_ids(self, ids: Sequence[int], *, require_complete: bool = False) -> GrammarError | None:
        kinds = [TokenKind(int(self.kind_codes[i])) for i in ids]
        idx = _first_violation(kinds, require_complete=require_complete)
        return None if idx is None else GrammarError(idx)


VOCAB = Vocabulary()


def complete_bar_prefix(ids: Sequence[int], vocab: Vocabulary) -> list[int] | None:
    """Longest prefix ending just before a bar line that closes >= 1 bar.

    Evaluators score whole bars only: the returned prefix drops the closing
    BAR/END delimiter and any partial bar after it.  None when the sequence
    has no completed bar yet.
    """
    seq = list(ids)
    delimiters = (vocab.bar_id, vocab.end_id)
    try:
        first_bar = seq.index(vocab.bar_id)
    except ValueError:
        return None
    for i in range(len(seq) - 1, first_bar, -1):
        if seq[i] in delimiters:
            return seq[:i]
    return None
