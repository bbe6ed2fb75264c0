"""Shared fixtures: synthetic steering corpus, trained toy models, MIDI dir.

The steering corpus is built so each emotion quadrant has an unmistakable
style along exactly the axes the heuristic classifier reads: tempo bin and
velocity bins carry arousal, a major versus minor pitch set carries valence.
Every bar repeats the tempo choice and every note repeats the pitch and
velocity choices, so a searched decode casts many votes per piece and the
classifier sees the majority.  Durations are distinct per note slot, which
pins the bar length (the n-gram context (Duration, Velocity) identifies the
slot, so the policy knows when the bar ends).  Corpus pieces carry no
EndOfMusic token: smoothing mass on END stays below the nucleus cut, so
decoders run until max_bars and pieces keep a fixed length.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from emodecode.emotion import ALL_QUADRANTS, EmotionQuadrant
from emodecode.models.heuristic import HeuristicDiscriminator, HeuristicEmotionClassifier
from emodecode.models.ngram import NGramPolicy, with_emotion_prefix
from emodecode.remi.midi import write_midi
from emodecode.remi.piece import tokens_to_piece
from emodecode.remi.tokens import VOCAB, Token

HIGH_TEMPO, LOW_TEMPO = 30, 4      # bpm 180 vs 50
MAJOR_SET = (60, 64, 67, 72)       # C major triad + octave
MINOR_SET = (54, 57, 61, 66)       # F# minor triad + octave
HIGH_VELS, LOW_VELS = (29, 31), (8, 10)
NOTE_DURS = (2, 4, 3, 6)           # distinct per slot; shared across styles
NOTE_POSITIONS = (1, 5, 9, 13)

STYLES = {
    EmotionQuadrant.E1: (HIGH_TEMPO, MAJOR_SET, HIGH_VELS),
    EmotionQuadrant.E2: (HIGH_TEMPO, MINOR_SET, HIGH_VELS),
    EmotionQuadrant.E3: (LOW_TEMPO, MINOR_SET, LOW_VELS),
    EmotionQuadrant.E4: (LOW_TEMPO, MAJOR_SET, LOW_VELS),
}

N_VARIANTS = 12
STYLE_BARS = 8

# benchmark configuration shared by the steering/grammar acceptance tests
BENCH = {
    "budget": 50,
    "top_p": 0.9,
    "exploration_c": 0.25,
    "rollout_cap": 64,
    "max_bars": 4,
    "max_tokens": 160,
}
BENCH_SEEDS = (0, 1, 2)
BENCH_PIECES = 20  # per emotion per seed


def piece_rng(seed: int, quadrant: EmotionQuadrant, index: int) -> np.random.Generator:
    """Per-piece generator split from (master seed, emotion, piece index)."""
    return np.random.default_rng([int(seed), int(quadrant.value), int(index)])


def style_tokens(quadrant: EmotionQuadrant, variant: int, bars: int = STYLE_BARS) -> list[Token]:
    """One corpus piece: four-note bars in the quadrant's style, no END."""
    tempo, pitches, vels = STYLES[quadrant]
    toks = [Token.start()]
    for bar in range(bars):
        toks.append(Token.bar())
        for slot, pos in enumerate(NOTE_POSITIONS):
            toks.append(Token.position(pos))
            if slot == 0:
                toks.append(Token.tempo(tempo))
            toks.append(Token.pitch(pitches[(variant + slot + bar) % 4]))
            toks.append(Token.duration(NOTE_DURS[slot]))
            toks.append(Token.velocity(vels[(variant + bar) % 2]))
    return toks


@pytest.fixture(scope="session")
def steering_corpus() -> list[tuple[list[int], EmotionQuadrant]]:
    return [
        (VOCAB.encode(style_tokens(quadrant, variant)), quadrant)
        for quadrant in ALL_QUADRANTS
        for variant in range(N_VARIANTS)
    ]


@pytest.fixture(scope="session")
def steering_models(steering_corpus):
    """(policy, classifier, discriminator) fitted on the steering corpus."""
    sequences = [seq for seq, _ in steering_corpus]
    policy = NGramPolicy(VOCAB, order=3, add_k=0.01).fit(sequences)
    classifier = HeuristicEmotionClassifier(VOCAB).fit(sequences)
    discriminator = HeuristicDiscriminator(VOCAB).fit(sequences)
    return policy, classifier, discriminator


# conditional-sampling corpus: every quadrant owns a disjoint position and
# velocity range, so an order-3 model conditioned on the control token keeps
# reproducing the labelled style; E1 is the only label with tempo bins >= 20
CS_POSITIONS = {
    EmotionQuadrant.E1: 1,
    EmotionQuadrant.E2: 5,
    EmotionQuadrant.E3: 9,
    EmotionQuadrant.E4: 13,
}
CS_TEMPOS = {
    EmotionQuadrant.E1: (25, 30),
    EmotionQuadrant.E2: (10, 12),
    EmotionQuadrant.E3: (4, 6),
    EmotionQuadrant.E4: (15, 18),
}
CS_VELS = {
    EmotionQuadrant.E1: (29, 31),
    EmotionQuadrant.E2: (20, 22),
    EmotionQuadrant.E3: (8, 10),
    EmotionQuadrant.E4: (14, 16),
}


def cs_tokens(quadrant: EmotionQuadrant, variant: int, bars: int = 4) -> list[Token]:
    """One-note bars in a per-label style (no END token)."""
    pos = CS_POSITIONS[quadrant]
    tempos = CS_TEMPOS[quadrant]
    vels = CS_VELS[quadrant]
    toks = [Token.start()]
    for bar in range(bars):
        toks.append(Token.bar())
        toks.append(Token.position(pos))
        toks.append(Token.tempo(tempos[(variant + bar) % 2]))
        toks.append(Token.pitch(60 + 2 * variant + bar % 2))
        toks.append(Token.duration(2 + bar % 2))
        toks.append(Token.velocity(vels[(variant + bar) % 2]))
    return toks


@pytest.fixture(scope="session")
def cs_labeled_corpus() -> list[tuple[list[int], EmotionQuadrant]]:
    return [
        (VOCAB.encode(cs_tokens(quadrant, variant)), quadrant)
        for quadrant in ALL_QUADRANTS
        for variant in range(6)
    ]


@pytest.fixture(scope="session")
def cs_conditional(cs_labeled_corpus) -> NGramPolicy:
    prefixed = [with_emotion_prefix(seq, quadrant, VOCAB) for seq, quadrant in cs_labeled_corpus]
    return NGramPolicy(VOCAB, order=3, add_k=0.01).fit(prefixed)


@pytest.fixture(scope="session")
def midi_dir(tmp_path_factory):
    """Directory of labelled style MIDI files plus two files ingest must skip."""
    root = tmp_path_factory.mktemp("midi_corpus")
    labels = {}
    for quadrant in ALL_QUADRANTS:
        for variant in range(2):
            name = f"{quadrant.name.lower()}_{variant}.mid"
            toks = style_tokens(quadrant, variant, bars=2) + [Token.end()]
            write_midi(tokens_to_piece(toks), root / name)
            labels[name] = quadrant.name
    (root / "labels.json").write_text(json.dumps(labels, indent=2), encoding="utf-8")
    # same notes but a 3/4 meter event: ingest skips it with a warning
    waltz = (root / "e1_0.mid").read_bytes().replace(
        bytes((0xFF, 0x58, 4, 4, 2, 24, 8)), bytes((0xFF, 0x58, 4, 3, 2, 24, 8))
    )
    (root / "waltz.mid").write_bytes(waltz)
    (root / "broken.mid").write_bytes(b"RIFFnot really midi")
    return root
