"""Command line surface: ingest, train, generate, evaluate, compare.

Every command is deterministic given its inputs, config and seed.  Exit
codes: 0 success, 1 usage error, 2 bad input data, 3 internal invariant
violation.  Set EMODECODE_LOG=INFO (or DEBUG) for progress logging.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .baselines import SamplingConfig, SBBSConfig, cs_decode, sbbs_decode, top_p_decode
from .corpus import (
    corpus_sequences,
    dump_corpus,
    ingest_directory,
    labeled_sequences,
    load_corpus,
    load_labels,
)
from .emotion import ALL_QUADRANTS, EmotionQuadrant, argmax_quadrant
from .errors import DataError, EmodecodeError, NoValidFiles, SequenceTooShort
from .manifest import build_manifest, checked_aggregates, dump_manifest, load_manifest
from .metrics import compare_table, piece_metrics
from .models.base import EvaluatorBudget
from .models.heuristic import HeuristicDiscriminator, HeuristicEmotionClassifier
from .models.ngram import NGramPolicy, with_emotion_prefix
from .puct import DecodeConfig, decode_piece
from .remi.midi import read_midi, write_midi
from .remi.piece import tokens_to_piece
from .remi.tokens import VOCAB, tokens_to_text

log = logging.getLogger("emodecode")

METHODS = ("puct", "sbbs", "cs", "topp")


def _field_defaults(*classes) -> dict:
    """Field name -> default over ``classes``; a field they share has one default."""
    return {
        f.name: f.default
        for cls in classes
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING
    }


# the decoder configs' own defaults, plus pieces per emotion and the master seed
DEFAULTS = {**_field_defaults(DecodeConfig, SBBSConfig, SamplingConfig), "count": 1, "seed": 0}

_DATA_ERRORS = (
    DataError,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    PermissionError,
    ValueError,
    yaml.YAMLError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    name = os.environ.get("EMODECODE_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _check_type(section: str, key: str, value) -> None:
    """A config file value must have its default's type; an int may stand for a float."""
    expected = type(DEFAULTS[key])
    allowed = (int, float) if expected is float else (expected,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(
            f"config [{section}] {key} must be {expected.__name__}, got {type(value).__name__} {value!r}"
        )


def merged_config(args: argparse.Namespace, method: str) -> dict:
    """defaults <- config file common section <- method section <- flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        loaded = yaml.safe_load(Path(args.config).read_text(encoding="utf-8")) or {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a mapping")
        unknown_sections = set(loaded) - ({"common"} | set(METHODS))
        if unknown_sections:
            raise ValueError(f"unknown config sections {sorted(unknown_sections)}")
        for section in ("common", method):
            table = loaded.get(section) or {}
            if not isinstance(table, dict):
                raise ValueError(f"config section [{section}] must hold a mapping")
            bad = set(table) - set(DEFAULTS)
            if bad:
                raise ValueError(f"unknown config keys in [{section}]: {sorted(bad)}")
            for key, value in table.items():
                _check_type(section, key, value)
            cfg.update(table)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _requested_emotions(spec: str) -> tuple[EmotionQuadrant, ...]:
    if spec.lower() == "all":
        return ALL_QUADRANTS
    return (EmotionQuadrant.parse(spec),)


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = ingest_directory(args.directory)
    dump_corpus(corpus, args.out)
    log.info("ingested %d pieces from %s", len(corpus["pieces"]), args.directory)
    print(f"wrote {len(corpus['pieces'])} pieces to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    # the corpus is parsed once, and a bad label file fails before any model is written
    if args.labels:
        pairs = labeled_sequences(corpus, load_labels(args.labels))
        sequences = [seq for seq, _ in pairs]
    else:
        pairs, sequences = [], corpus_sequences(corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    NGramPolicy(VOCAB, order=args.order, add_k=args.add_k).fit(sequences).save(out / "policy.json")
    HeuristicEmotionClassifier(VOCAB).fit(sequences).save(out / "classifier.json")
    HeuristicDiscriminator(VOCAB).fit(sequences).save(out / "discriminator.json")
    written = ["policy.json", "classifier.json", "discriminator.json"]
    if pairs:
        prefixed = [with_emotion_prefix(seq, quadrant, VOCAB) for seq, quadrant in pairs]
        NGramPolicy(VOCAB, order=args.order, add_k=args.add_k).fit(prefixed).save(
            out / "conditional.json"
        )
        written.append("conditional.json")
    log.info("trained on %d sequences", len(sequences))
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def _config(cls, cfg: dict, **fixed):
    """``cls`` built from the merged config's values for its fields."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls) if f.name in cfg}, **fixed)


def _decode_one(method, start, policy, classifier, discriminator, cfg, target, rng):
    if method == "puct":
        decode_cfg = _config(DecodeConfig, cfg, target=target)
        return decode_piece(start, policy, classifier, discriminator, decode_cfg, rng=rng)
    if method == "sbbs":
        return sbbs_decode(start, policy, classifier, _config(SBBSConfig, cfg, target=target), rng=rng)
    if method == "cs":
        return cs_decode(start, policy, target, _config(SamplingConfig, cfg), rng=rng)
    return top_p_decode(start, policy, _config(SamplingConfig, cfg), rng=rng)


def _piece_metrics(seq, piece, target, classifier, discriminator, eval_budget) -> dict:
    metrics = piece_metrics(piece)
    try:
        predicted = argmax_quadrant(classifier.distribution(seq, eval_budget))
        metrics["predicted_emotion"] = predicted.name
        metrics["emotion_ok"] = int(predicted is target)
    except SequenceTooShort:
        metrics["predicted_emotion"] = None
        metrics["emotion_ok"] = 0
    try:
        realness = float(discriminator.realness(seq, eval_budget))
        metrics["realness"] = realness
        metrics["real_ok"] = int(realness > 0.5)
    except SequenceTooShort:
        metrics["realness"] = None
        metrics["real_ok"] = 0
    return metrics


def cmd_generate(args: argparse.Namespace) -> int:
    method = args.method
    cfg = merged_config(args, method)
    models = Path(args.models)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    classifier = HeuristicEmotionClassifier.load(models / "classifier.json", VOCAB)
    discriminator = HeuristicDiscriminator.load(models / "discriminator.json", VOCAB)
    policy_file = "conditional.json" if method == "cs" else "policy.json"
    policy = NGramPolicy.load(models / policy_file, VOCAB)

    start = [VOCAB.start_id]
    records = []
    search_budget = EvaluatorBudget()
    eval_budget = EvaluatorBudget()
    for quadrant in _requested_emotions(args.emotion):
        for index in range(cfg["count"]):
            seed_key = [int(cfg["seed"]), quadrant.value, index]
            rng = np.random.default_rng(np.random.SeedSequence(seed_key))
            seq, trace = _decode_one(
                method, start, policy, classifier, discriminator, cfg, quadrant, rng
            )
            search_budget.e_calls += trace.e_calls
            search_budget.d_calls += trace.d_calls
            stem = f"{quadrant.name}_{index:03d}"
            tokens = VOCAB.decode(seq)
            piece = tokens_to_piece(tokens)
            write_midi(piece, out / f"{stem}.mid")
            (out / f"{stem}.tokens.txt").write_text(tokens_to_text(tokens), encoding="utf-8")
            if args.traces:
                trace_text = json.dumps(trace.to_dict(), sort_keys=True, indent=2)
                (out / f"{stem}.trace.json").write_text(trace_text + "\n", encoding="utf-8")
            records.append(
                {
                    "emotion": quadrant.name,
                    "index": index,
                    "seed": seed_key,
                    "token_ids": [int(t) for t in seq],
                    "midi": f"{stem}.mid",
                    "tokens": f"{stem}.tokens.txt",
                    "metrics": _piece_metrics(
                        seq, piece, quadrant, classifier, discriminator, eval_budget
                    ),
                }
            )
            log.info("generated %s (%d tokens)", stem, len(seq))

    config_echo = {"method": method, "emotion": args.emotion, "models": str(args.models), **cfg}
    manifest = build_manifest(
        method=method,
        version=__version__,
        config=config_echo,
        seed=int(cfg["seed"]),
        pieces=records,
        budget=vars(search_budget),
    )
    dump_manifest(manifest, out / "manifest.json")
    print(f"wrote {len(records)} pieces and manifest.json to {out}")
    return 0


def _recomputed_aggregates(manifest: dict) -> dict:
    """Aggregates re-derived from each piece's token ids; a stale manifest is rejected."""
    recomputed = [piece_metrics(tokens_to_piece(VOCAB.decode(e["token_ids"]))) for e in manifest["pieces"]]
    return checked_aggregates(manifest, recomputed)


def cmd_evaluate(args: argparse.Namespace) -> int:
    path = Path(args.target)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix.lower() in (".mid", ".midi"))
        if not files:
            raise NoValidFiles(f"no MIDI files in {path}")
        rows = [{"file": file.name, **piece_metrics(read_midi(file))} for file in files]
        report = {"pieces": rows}
        width = max(len(r["file"]) for r in rows)
        print(f"{'file'.ljust(width)}  {'PR':>6}  {'NPC':>4}  {'POLY':>6}")
        for r in rows:
            print(
                f"{r['file'].ljust(width)}  {r['pitch_range']:6.2f}"
                f"  {r['n_pitch_classes']:4d}  {r['polyphony']:6.2f}"
            )
    else:
        manifest = load_manifest(path)
        aggregates = _recomputed_aggregates(manifest)
        report = {"method": manifest["method"], "aggregates": aggregates}
        print(compare_table({manifest["method"]: aggregates}, require_all_emotions=False))
    if args.out:
        text = json.dumps(report, sort_keys=True, indent=2)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    aggregates: dict[str, dict] = {}
    for source in args.manifests:
        manifest = load_manifest(source)
        label = manifest["method"]
        if label in aggregates:
            label = f"{label}:{Path(source).stem}"
        aggregates[label] = manifest["aggregates"]
    print(compare_table(aggregates))
    if args.out:
        text = json.dumps(aggregates, sort_keys=True, indent=2)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="emodecode", description=__doc__)
    parser.add_argument("--version", action="version", version=f"emodecode {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="tokenize a MIDI directory into a corpus file")
    p.add_argument("directory", help="directory holding .mid/.midi files")
    p.add_argument("--out", default="corpus.json", help="corpus file to write")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit policy and evaluator models on a corpus")
    p.add_argument("corpus", help="corpus file from `ingest`")
    p.add_argument("--order", type=int, default=3, help="n-gram order (2..4)")
    p.add_argument("--add-k", type=float, default=0.01, dest="add_k", help="smoothing constant")
    p.add_argument("--labels", help="JSON file mapping source names to E1..E4")
    p.add_argument("--out", default="models", help="directory for model files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode pieces toward a target emotion")
    p.add_argument("--method", choices=METHODS, default="puct")
    p.add_argument("--emotion", default="all", help="e1|e2|e3|e4|all")
    p.add_argument("--models", default="models", help="directory from `train`")
    p.add_argument("--config", help="YAML config file (common + per-method sections)")
    p.add_argument("--count", type=int, help="pieces per emotion")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--budget", type=int, help="search iterations per emitted token")
    p.add_argument("--top-p", type=float, dest="top_p", help="nucleus mass")
    p.add_argument(
        "--exploration-c", type=float, dest="exploration_c", help="exploration constant"
    )
    p.add_argument("--rollout-cap", type=int, dest="rollout_cap", help="simulation length cap")
    p.add_argument("--beam", type=int, dest="beams", help="beam count (sbbs)")
    p.add_argument("--top-k", type=int, dest="top_k", help="expansions per beam (sbbs)")
    p.add_argument("--max-bars", type=int, dest="max_bars", help="stop after this many bars")
    p.add_argument("--max-tokens", type=int, dest="max_tokens", help="hard length cap")
    p.add_argument("--traces", action="store_true", help="write per-piece search traces")
    p.add_argument("--out", default="runs/out", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="metrics for a run manifest or MIDI directory")
    p.add_argument("target", help="manifest.json or a directory of MIDI files")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="side-by-side metric table for several runs")
    p.add_argument("manifests", nargs="+", help="two or more manifest.json files")
    p.add_argument("--out", help="also write the merged aggregates as JSON")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmodecodeError, AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
