"""Corpus ingestion: MIDI directory -> tokenized corpus file.

The corpus file is JSON with a format tag and one record per source file
(relative filename plus the token text form), written with sorted keys so
identical inputs produce identical bytes.
"""
from __future__ import annotations

import json
import warnings
from pathlib import Path

from .emotion import EmotionQuadrant
from .errors import DataError, LabelMismatch, MalformedMidi, MeterImportWarning, NoValidFiles
from .remi.midi import read_midi
from .remi.piece import piece_to_tokens
from .remi.tokens import VOCAB, Vocabulary

FORMAT_TAG = "remi-corpus-v1"


def ingest_directory(directory: str | Path) -> dict:
    """Tokenize every .mid/.midi file under `directory` (non-recursive).

    Files with a non-4/4 time signature or unparseable bytes are skipped
    with a warning; at least one file must survive.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() in (".mid", ".midi"))
    pieces = []
    for path in paths:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", MeterImportWarning)
                piece = read_midi(path)
        except MeterImportWarning:
            warnings.warn(f"skipping {path.name}: not in 4/4", MeterImportWarning, stacklevel=2)
            continue
        except MalformedMidi as exc:
            warnings.warn(f"skipping {path.name}: {exc}", stacklevel=2)
            continue
        ids = VOCAB.encode(piece_to_tokens(piece))
        pieces.append({"source": path.name, "tokens": [VOCAB.texts[i] for i in ids]})
    if not pieces:
        raise NoValidFiles(f"no usable MIDI files in {directory}")
    return {"format": FORMAT_TAG, "pieces": pieces}


def dump_corpus(corpus: dict, path: str | Path) -> None:
    text = json.dumps(corpus, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_corpus(path: str | Path) -> dict:
    """The corpus in ``path``; DataError naming the file unless each piece is well-formed."""
    corpus = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(corpus, dict) or corpus.get("format") != FORMAT_TAG:
        raise NoValidFiles(f"not a {FORMAT_TAG} file: {path}")
    if not corpus.get("pieces"):
        raise NoValidFiles(f"corpus file {path} holds no pieces")
    if not isinstance(corpus["pieces"], list):
        raise DataError(f"{path}: pieces must be a list")
    for i, piece in enumerate(corpus["pieces"]):
        if not (
            isinstance(piece, dict)
            and isinstance(piece.get("source"), str)
            and isinstance(piece.get("tokens"), list)
            and all(isinstance(t, str) for t in piece["tokens"])
        ):
            raise DataError(f"{path}: piece {i} needs a string source and a list of string tokens")
    return corpus


def corpus_sequences(corpus: dict, vocab: Vocabulary = VOCAB) -> list[list[int]]:
    """Token-id sequences for every piece, in corpus order."""
    return [vocab.encode_text(piece["tokens"]) for piece in corpus["pieces"]]


def load_labels(path: str | Path) -> dict[str, EmotionQuadrant]:
    """JSON mapping of source filename to quadrant name ("E1".."E4")."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise LabelMismatch("label file must be a JSON object")
    try:
        return {name: EmotionQuadrant.parse(label) for name, label in raw.items()}
    except ValueError as exc:
        raise LabelMismatch(str(exc)) from exc


def labeled_sequences(
    corpus: dict, labels: dict[str, EmotionQuadrant], vocab: Vocabulary = VOCAB
) -> list[tuple[list[int], EmotionQuadrant]]:
    """Pair every corpus piece with its label; coverage must be exact."""
    sources = [piece["source"] for piece in corpus["pieces"]]
    unlabeled = [s for s in sources if s not in labels]
    if unlabeled:
        raise LabelMismatch(f"no label for {unlabeled[:3]}{'...' if len(unlabeled) > 3 else ''}")
    unknown = sorted(set(labels) - set(sources))
    if unknown:
        raise LabelMismatch(f"labels name unknown sources {unknown[:3]}")
    sequences = corpus_sequences(corpus, vocab)
    return [(seq, labels[src]) for seq, src in zip(sequences, sources)]
