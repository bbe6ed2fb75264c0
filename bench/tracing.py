"""Span tracing of the program's layers, installed from outside the package.

``Tracer.install`` replaces public functions and methods of the emodecode
modules with thin wrappers.  A module-level function is replaced in every
emodecode module that imported it, so calls are seen where the decoders
make them (``top_p_filter`` inside ``puct`` and ``baselines``, for
example).  A target that no longer exists is recorded as missing instead
of raising, so a later refactor of the program degrades the per-layer
report rather than the benchmark.

Each call becomes a span: name, start, end, parent span and request id.
Spans are kept in memory and written out once, when the run ends; only
the first ``MAX_SPANS`` are kept in full, but every span is folded into
the per-name totals as it closes.  Self time is span time minus the time
covered by direct child spans.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# Token ids from the vocabulary's documented layout: START=0, END=1, BAR=2.
END_ID, BAR_ID = 1, 2
MAX_SPANS = 200_000  # about 30 MB of span tuples

# (module, attribute path); the layer is the module's name inside the package
TARGETS = [
    ("emodecode.puct", "decode_piece"),
    ("emodecode.puct", "search_step"),
    ("emodecode.puct", "select"),
    ("emodecode.puct", "selection_scores"),
    ("emodecode.puct", "expand"),
    ("emodecode.puct", "simulate"),
    ("emodecode.puct", "backpropagate"),
    ("emodecode.puct", "choose_token"),
    ("emodecode.models.ngram", "NGramPolicy.next_distribution"),
    ("emodecode.models.ngram", "NGramPolicy.fit"),
    ("emodecode.models.ngram", "NGramPolicy.save"),
    ("emodecode.models.ngram", "NGramPolicy.load"),
    ("emodecode.models.ngram", "NGramPolicy.seen"),
    ("emodecode.models.ngram", "with_emotion_prefix"),
    ("emodecode.models.heuristic", "HeuristicEmotionClassifier.distribution"),
    ("emodecode.models.heuristic", "HeuristicEmotionClassifier.fit"),
    ("emodecode.models.heuristic", "HeuristicEmotionClassifier.save"),
    ("emodecode.models.heuristic", "HeuristicEmotionClassifier.load"),
    ("emodecode.models.heuristic", "HeuristicDiscriminator.realness"),
    ("emodecode.models.heuristic", "HeuristicDiscriminator.fit"),
    ("emodecode.models.heuristic", "HeuristicDiscriminator.save"),
    ("emodecode.models.heuristic", "HeuristicDiscriminator.load"),
    ("emodecode.models.sampling", "top_p_filter"),
    ("emodecode.models.sampling", "sample_index"),
    ("emodecode.baselines", "top_p_decode"),
    ("emodecode.baselines", "cs_decode"),
    ("emodecode.baselines", "sbbs_decode"),
    ("emodecode.remi.midi", "read_midi"),
    ("emodecode.remi.midi", "write_midi"),
    ("emodecode.remi.piece", "tokens_to_piece"),
    ("emodecode.remi.piece", "piece_to_tokens"),
    ("emodecode.remi.tokens", "complete_bar_prefix"),
    ("emodecode.remi.tokens", "tokens_to_text"),
    ("emodecode.remi.tokens", "Vocabulary.validate_ids"),
    ("emodecode.corpus", "ingest_directory"),
    ("emodecode.corpus", "dump_corpus"),
    ("emodecode.corpus", "load_corpus"),
    ("emodecode.corpus", "corpus_sequences"),
    ("emodecode.corpus", "load_labels"),
    ("emodecode.corpus", "labeled_sequences"),
    ("emodecode.manifest", "build_manifest"),
    ("emodecode.manifest", "dump_manifest"),
    ("emodecode.manifest", "load_manifest"),
    ("emodecode.metrics", "pitch_range"),
    ("emodecode.metrics", "n_pitch_classes"),
    ("emodecode.metrics", "polyphony"),
    ("emodecode.metrics", "compare_table"),
    ("emodecode.cli", "main"),
    ("emodecode.cli", "cmd_ingest"),
    ("emodecode.cli", "cmd_train"),
    ("emodecode.cli", "cmd_generate"),
    ("emodecode.cli", "cmd_evaluate"),
    ("emodecode.cli", "cmd_compare"),
    ("emodecode.cli", "merged_config"),
    ("emodecode.cli", "_decode_one"),
    ("emodecode.cli", "_piece_metrics"),
    ("emodecode.cli", "_recomputed_aggregates"),
]

# span names that decoders run evaluators under, for the budget cross-check
SEARCH_SPANS = ("puct.decode_piece", "baselines.sbbs_decode")


def layer_of(name: str) -> str:
    """puct, heuristic, ngram, sampling, baselines, remi, corpus, manifest, metrics, cli."""
    head = name.split(".")[0]
    if head == "models":
        return name.split(".")[1]
    return head


def evaluated_length(seq) -> int | None:
    """Length of the whole-bar prefix an evaluator scores, or None.

    The prefix ends just before the last BAR (after the first one) or END
    that follows the first BAR; without one no bar is complete.
    """
    first_bar = None
    last = None
    for i, tok in enumerate(seq):
        if tok == BAR_ID:
            if first_bar is None:
                first_bar = i
            else:
                last = i
        elif tok == END_ID and first_bar is not None:
            last = i
    return last


class Tracer:
    """In-memory spans plus per-name totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []          # (id, name id, start, end, parent id, request)
        self.n_spans = 0
        self.stack: list[list] = []           # [span id, child time, name]
        self.depth: dict[str, int] = defaultdict(int)
        self.stats: dict[str, list] = {}      # name -> [calls, returned, total s, self s]
        self.counters: dict[str, float] = defaultdict(float)
        self.contexts: set = set()
        self.evaluated: set = set()
        self.request = -1
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        # import everything first: a module imported after a patch would
        # bind the wrapper by name, and uninstall could not find it
        for module_name in dict.fromkeys(m for m, _ in targets):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, attr_path in targets:
            name = f"{module_name.removeprefix('emodecode.')}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                parts = attr_path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            before, after = HOOKS.get(name, (None, None))
            if inspect.isclass(owner):
                self._patch_method(owner, parts[-1], raw, name, before, after)
            else:
                self._patch_function(raw, name, before, after)
            self.installed.append(name)

    def _patch_method(self, cls, attr, raw, name, before, after):
        had_own = attr in vars(cls)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, before, after))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(raw.__func__, name, before, after))
        else:
            replacement = self._wrap(raw, name, before, after)
        setattr(cls, attr, replacement)
        self._restore.append((cls, attr, raw if had_own else None))

    def _patch_function(self, fn, name, before, after):
        wrapper = self._wrap(fn, name, before, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "emodecode" or mod_name.startswith("emodecode.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, before, after):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack = self.stack
        depth = self.depth
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span_id = tracer.n_spans
            tracer.n_spans = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, name]
            stack.append(frame)
            depth[name] += 1
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                stats[0] += 1
                stats[2] += dur
                stats[3] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span_id < MAX_SPANS:
                    spans.append((span_id, name_id, start, end, parent, tracer.request))
            stats[1] += returned
            if after is not None:
                after(tracer, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- reporting ------------------------------------------------------
    def total(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def returned(self, name: str) -> int:
        return self.stats[name][1] if name in self.stats else 0

    def layer_self(self, layer: str) -> float:
        return sum(s[3] for n, s in self.stats.items() if layer_of(n) == layer)

    def dump(self, path: Path, extra: dict) -> None:
        """Write spans and the per-name summary as one JSON document."""
        by_name = {
            name: {
                "layer": layer_of(name),
                "calls": s[0],
                "returned": s[1],
                "total_s": s[2],
                "self_s": s[3],
            }
            for name, s in sorted(self.stats.items())
        }
        doc = {
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "request"],
            "names": self.names,
            "spans_recorded": self.n_spans,
            "spans_kept": len(self.spans),
            "spans": sorted(self.spans),
            "by_name": by_name,
            "counters": dict(self.counters),
            "installed": self.installed,
            "missing": self.missing,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# -- hooks: counts taken where the work happens --------------------------
def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _after_simulate(tracer, args, kwargs, result, dur):
    prefix = _arg(args, kwargs, 0, "prefix")
    tracer.counters["rollout_tokens"] += len(result.sequence) - len(prefix)
    if result.emotion is None:
        tracer.counters["rollouts_unscored"] += 1


def _after_expand(tracer, args, kwargs, result, dur):
    if tracer.stack and tracer.stack[-1][2] == "puct.decode_piece":
        tracer.counters["root_expansions"] += 1
        tracer.counters["root_width_sum"] += len(result.edges)


def _after_next_distribution(tracer, args, kwargs, result, dur):
    policy, prefix = args[0], _arg(args, kwargs, 1, "prefix")
    tracer.contexts.add(tuple(prefix[len(prefix) - (policy.order - 1):]))
    if tracer.depth["baselines.sbbs_decode"]:
        nonzero = int((result > 0.0).sum())
        tracer.counters["sbbs_candidates"] += min(nonzero, tracer.counters["sbbs_top_k"])


def _before_sbbs(tracer, args, kwargs):
    tracer.counters["sbbs_top_k"] = _arg(args, kwargs, 3, "cfg").top_k


def _count_evaluation(kind):
    def after(tracer, args, kwargs, result, dur):
        seq = _arg(args, kwargs, 1, "seq")
        n = evaluated_length(seq)
        tracer.counters["eval_tokens"] += n
        tracer.counters["evaluations"] += 1
        if kind == "classifier":
            tracer.evaluated.add((tracer.request, tuple(seq[:n])))
        inside = any(tracer.depth[s] for s in SEARCH_SPANS)
        tracer.counters[f"{kind}_{'search' if inside else 'other'}"] += 1

    return after


def _after_top_p_filter(tracer, args, kwargs, result, dur):
    tracer.counters["nucleus_sum"] += len(result)


def _after_top_p_decode(tracer, args, kwargs, result, dur):
    if tracer.depth["baselines.cs_decode"]:
        tracer.counters["topp_under_cs_s"] += dur


def _after_file_write(counter, index, key):
    def after(tracer, args, kwargs, result, dur):
        tracer.counters[counter] += os.path.getsize(_arg(args, kwargs, index, key))

    return after


def _after_ingest(tracer, args, kwargs, result, dur):
    tracer.counters["ingested_files"] += len(result["pieces"])


HOOKS = {
    "puct.simulate": (None, _after_simulate),
    "puct.expand": (None, _after_expand),
    "models.ngram.NGramPolicy.next_distribution": (None, _after_next_distribution),
    "baselines.sbbs_decode": (_before_sbbs, None),
    "models.heuristic.HeuristicEmotionClassifier.distribution": (None, _count_evaluation("classifier")),
    "models.heuristic.HeuristicDiscriminator.realness": (None, _count_evaluation("discriminator")),
    "models.sampling.top_p_filter": (None, _after_top_p_filter),
    "baselines.top_p_decode": (None, _after_top_p_decode),
    "remi.midi.write_midi": (None, _after_file_write("midi_bytes", 1, "path")),
    "manifest.dump_manifest": (None, _after_file_write("manifest_bytes", 1, "path")),
    "corpus.ingest_directory": (None, _after_ingest),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> (unit, span names it needs, function of the tracer)
PER_LAYER = {
    "puct.decode_s": ("s", ["puct.decode_piece"], lambda t: t.total("puct.decode_piece")),
    "puct.self_s": ("s", ["puct.decode_piece"], lambda t: t.layer_self("puct")),
    "puct.iterations": ("count", ["puct.search_step"], lambda t: t.calls("puct.search_step")),
    "puct.expansions": ("count", ["puct.expand"], lambda t: t.calls("puct.expand")),
    "puct.rollouts": ("count", ["puct.simulate"], lambda t: t.calls("puct.simulate")),
    "puct.rollout_tokens": ("tokens", ["puct.simulate"], lambda t: t.counters["rollout_tokens"]),
    "puct.rollouts_unscored": ("count", ["puct.simulate"], lambda t: t.counters["rollouts_unscored"]),
    "puct.root_width_mean": (
        "candidates",
        ["puct.expand", "puct.decode_piece"],
        lambda t: _ratio(t.counters["root_width_sum"], t.counters["root_expansions"]),
    ),
    "heuristic.classifier_calls": (
        "count",
        ["models.heuristic.HeuristicEmotionClassifier.distribution"],
        lambda t: t.returned("models.heuristic.HeuristicEmotionClassifier.distribution"),
    ),
    "heuristic.classifier_s": (
        "s",
        ["models.heuristic.HeuristicEmotionClassifier.distribution"],
        lambda t: t.total("models.heuristic.HeuristicEmotionClassifier.distribution"),
    ),
    "heuristic.discriminator_calls": (
        "count",
        ["models.heuristic.HeuristicDiscriminator.realness"],
        lambda t: t.returned("models.heuristic.HeuristicDiscriminator.realness"),
    ),
    "heuristic.discriminator_s": (
        "s",
        ["models.heuristic.HeuristicDiscriminator.realness"],
        lambda t: t.total("models.heuristic.HeuristicDiscriminator.realness"),
    ),
    "heuristic.eval_tokens_mean": (
        "tokens",
        [
            "models.heuristic.HeuristicEmotionClassifier.distribution",
            "models.heuristic.HeuristicDiscriminator.realness",
        ],
        lambda t: _ratio(t.counters["eval_tokens"], t.counters["evaluations"]),
    ),
    "heuristic.eval_distinct_ratio": (
        "ratio",
        ["models.heuristic.HeuristicEmotionClassifier.distribution"],
        lambda t: _ratio(
            len(t.evaluated), t.returned("models.heuristic.HeuristicEmotionClassifier.distribution")
        ),
    ),
    "heuristic.fit_s": (
        "s",
        ["models.heuristic.HeuristicEmotionClassifier.fit", "models.heuristic.HeuristicDiscriminator.fit"],
        lambda t: t.total("models.heuristic.HeuristicEmotionClassifier.fit")
        + t.total("models.heuristic.HeuristicDiscriminator.fit"),
    ),
    "ngram.calls": (
        "count",
        ["models.ngram.NGramPolicy.next_distribution"],
        lambda t: t.calls("models.ngram.NGramPolicy.next_distribution"),
    ),
    "ngram.s": (
        "s",
        ["models.ngram.NGramPolicy.next_distribution"],
        lambda t: t.total("models.ngram.NGramPolicy.next_distribution"),
    ),
    "ngram.context_reuse_ratio": (
        "ratio",
        ["models.ngram.NGramPolicy.next_distribution"],
        lambda t: 1.0
        - _ratio(len(t.contexts), t.calls("models.ngram.NGramPolicy.next_distribution")),
    ),
    "ngram.fit_s": ("s", ["models.ngram.NGramPolicy.fit"], lambda t: t.total("models.ngram.NGramPolicy.fit")),
    "ngram.load_s": ("s", ["models.ngram.NGramPolicy.load"], lambda t: t.total("models.ngram.NGramPolicy.load")),
    "sampling.top_p_calls": (
        "count",
        ["models.sampling.top_p_filter"],
        lambda t: t.calls("models.sampling.top_p_filter"),
    ),
    "sampling.top_p_s": (
        "s",
        ["models.sampling.top_p_filter"],
        lambda t: t.total("models.sampling.top_p_filter"),
    ),
    "sampling.nucleus_size_mean": (
        "ids",
        ["models.sampling.top_p_filter"],
        lambda t: _ratio(t.counters["nucleus_sum"], t.returned("models.sampling.top_p_filter")),
    ),
    "sampling.sample_calls": (
        "count",
        ["models.sampling.sample_index"],
        lambda t: t.calls("models.sampling.sample_index"),
    ),
    "sampling.sample_s": (
        "s",
        ["models.sampling.sample_index"],
        lambda t: t.total("models.sampling.sample_index"),
    ),
    "baselines.sbbs_s": ("s", ["baselines.sbbs_decode"], lambda t: t.total("baselines.sbbs_decode")),
    "baselines.sbbs_candidates": (
        "count",
        ["baselines.sbbs_decode", "models.ngram.NGramPolicy.next_distribution"],
        lambda t: t.counters["sbbs_candidates"],
    ),
    "baselines.cs_s": ("s", ["baselines.cs_decode"], lambda t: t.total("baselines.cs_decode")),
    "baselines.topp_s": (
        "s",
        ["baselines.top_p_decode", "baselines.cs_decode"],
        lambda t: t.total("baselines.top_p_decode") - t.counters["topp_under_cs_s"],
    ),
    "remi.read_midi_s": ("s", ["remi.midi.read_midi"], lambda t: t.total("remi.midi.read_midi")),
    "remi.write_midi_s": ("s", ["remi.midi.write_midi"], lambda t: t.total("remi.midi.write_midi")),
    "remi.midi_bytes": ("bytes", ["remi.midi.write_midi"], lambda t: t.counters["midi_bytes"]),
    "remi.tokens_to_piece_s": (
        "s",
        ["remi.piece.tokens_to_piece"],
        lambda t: t.total("remi.piece.tokens_to_piece"),
    ),
    "remi.piece_to_tokens_s": (
        "s",
        ["remi.piece.piece_to_tokens"],
        lambda t: t.total("remi.piece.piece_to_tokens"),
    ),
    "corpus.ingest_s": ("s", ["corpus.ingest_directory"], lambda t: t.total("corpus.ingest_directory")),
    "corpus.files": ("count", ["corpus.ingest_directory"], lambda t: t.counters["ingested_files"]),
    "manifest.dump_s": ("s", ["manifest.dump_manifest"], lambda t: t.total("manifest.dump_manifest")),
    "manifest.load_s": ("s", ["manifest.load_manifest"], lambda t: t.total("manifest.load_manifest")),
    "manifest.bytes": ("bytes", ["manifest.dump_manifest"], lambda t: t.counters["manifest_bytes"]),
    "metrics.piece_s": (
        "s",
        ["metrics.pitch_range", "metrics.n_pitch_classes", "metrics.polyphony"],
        lambda t: t.total("metrics.pitch_range")
        + t.total("metrics.n_pitch_classes")
        + t.total("metrics.polyphony"),
    ),
    "metrics.compare_s": ("s", ["metrics.compare_table"], lambda t: t.total("metrics.compare_table")),
    "cli.generate_s": ("s", ["cli.cmd_generate"], lambda t: t.total("cli.cmd_generate")),
    "cli.self_s": ("s", ["cli.main"], lambda t: t.layer_self("cli")),
}


def per_layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Every per-layer metric; one whose hooks are missing reads 0 and is listed."""
    missing_hooks = set(tracer.missing)
    out = {}
    missing = []
    for metric, (unit, needs, compute) in PER_LAYER.items():
        if missing_hooks.intersection(needs):
            out[metric] = {"value": 0.0, "unit": unit}
            missing.append(metric)
        else:
            out[metric] = {"value": float(compute(tracer)), "unit": unit}
    return out, missing
