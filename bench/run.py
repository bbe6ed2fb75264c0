"""Decoding benchmark for emodecode: one workload, one seed, one JSON line.

    python3 bench/run.py --workload puct_narrow --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark synthesises a labelled MIDI
corpus from the seed, runs ``emodecode ingest`` and ``emodecode train
--labels`` on it in-process, loads the models, then issues whole rounds of
requests for ``--seconds`` seconds from this one thread (a closed loop with
one client).  After the timed phase it checks every output against
independent computations (see checks.py).  The last line of standard output
is the result: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are in reference seconds: each timing is
scaled by the speed of a fixed calibration loop run right before and after
it, so that swings in the shared machine's speed largely cancel (see
README.md, "Reference seconds").  Traced runs also write spans and a
per-layer summary under bench/out/.  Exit status is 0 when a result was printed, 2 on a usage or
set-up error.
"""
import time

# A reference second is the time the program would take on a machine that
# runs the calibration loop in REFERENCE_SLICE_S.
CALIBRATION_ITERATIONS = 250_000
REFERENCE_SLICE_S = 0.01


def calibration_slice() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    t = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x += i
    return time.perf_counter() - t


SLICE_BEFORE_SETUP = calibration_slice()
T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# puct_*: rounds of one decode_piece call per quadrant, models loaded once.
# PUCT pieces stop at a token cap, so every request does nearly the same
# search work.  On puct_wide the 24-token cap closes E1/E2 pieces inside
# their first bar (5-8 onsets), so emotion_rate there reads only E3/E4;
# stopping on whole bars made per-piece cost and emotion_rate vary by
# 30% across seeds (see README.md).
# cli_baselines: rounds of one `generate --emotion all` per method, then
# `evaluate` on each manifest and one `compare` across them.
WORKLOADS = {
    "puct_narrow": {
        "kind": "puct",
        "corpus": "narrow",
        "pieces_per_quadrant": 24,
        "corpus_bars": 8,
        "budget": 20,
        "top_p": 0.9,
        "exploration_c": 0.25,
        "rollout_cap": 64,
        "max_bars": 16,
        "max_tokens": 40,
    },
    "puct_wide": {
        "kind": "puct",
        "corpus": "wide",
        "pieces_per_quadrant": 24,
        "corpus_bars": 16,
        "budget": 10,
        "top_p": 0.9,
        "exploration_c": 0.25,
        "rollout_cap": 64,
        "max_bars": 16,
        "max_tokens": 24,
    },
    "cli_baselines": {
        "kind": "cli",
        "corpus": "wide",
        "pieces_per_quadrant": 24,
        "corpus_bars": 16,
        # pieces per quadrant: sampling is ~10x cheaper than beam search
        "count": {"sbbs": 1, "cs": 8, "topp": 8},
        "max_bars": 16,
        "max_tokens": 1024,
    },
}
NGRAM_CHECK_CONTEXTS = 200


@dataclass
class Request:
    """One operation of the timed phase and what it produced."""

    op: str
    round: int
    seconds: float
    slice_s: float = REFERENCE_SLICE_S          # calibration slices around it, averaged
    pieces: list = field(default_factory=list)   # (quadrant number, token ids)
    traces: list = field(default_factory=list)   # PUCT traces, as dicts
    manifest: dict | None = None
    evaluated: "Request | None" = None          # the generate run an evaluate read
    report: Path | None = None                  # the evaluate report it wrote
    problems: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def quiet(fn, *args):
    """Call fn with stdout and stderr captured; return (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = fn(*args)
    return result, buf.getvalue()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        import emodecode.cli as cli
        import synth

        self.cli = cli
        self.synth = synth
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.global_problems: list[str] = []

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        cfg = self.cfg
        self.corpus_pieces = self.synth.make_corpus(
            cfg["corpus"], self.seed, cfg["pieces_per_quadrant"], cfg["corpus_bars"]
        )
        midi_dir = self.work / "midi"
        self.labels = self.work / "labels.json"
        self.corpus_file = self.work / "corpus.json"
        self.models = self.work / "models"
        self.synth.write_corpus(self.corpus_pieces, midi_dir, self.labels)
        for argv in (
            ["ingest", str(midi_dir), "--out", str(self.corpus_file)],
            ["train", str(self.corpus_file), "--labels", str(self.labels), "--out", str(self.models)],
        ):
            code, text = quiet(self.cli.main, argv)
            if code != 0:
                raise RuntimeError(f"emodecode {argv[0]} exited {code}: {text.strip()}")
        self.load_models()

    def load_models(self) -> None:
        from emodecode.models.heuristic import HeuristicDiscriminator, HeuristicEmotionClassifier
        from emodecode.models.ngram import NGramPolicy
        from emodecode.remi.tokens import VOCAB

        self.vocab = VOCAB
        self.policy = NGramPolicy.load(self.models / "policy.json", VOCAB)
        self.classifier = HeuristicEmotionClassifier.load(self.models / "classifier.json", VOCAB)
        self.discriminator = HeuristicDiscriminator.load(self.models / "discriminator.json", VOCAB)

    # -- timed phase -------------------------------------------------------
    def run_rounds(self, seconds: float | None, rounds: int | None, tracer=None, tag="") -> tuple[list, float]:
        """Whole rounds until `seconds` have passed (or `rounds` are done)."""
        requests: list[Request] = []
        self.last_slice = calibration_slice()
        start = time.perf_counter()
        r = 0
        while True:
            if rounds is not None and r >= rounds:
                break
            if rounds is None and r > 0 and time.perf_counter() - start >= seconds:
                break
            if self.cfg["kind"] == "puct":
                requests += self.puct_round(r, tracer, len(requests))
            else:
                requests += self.cli_round(r, tracer, len(requests), tag)
            r += 1
        return requests, time.perf_counter() - start

    def decode_config(self, quadrant):
        from emodecode.puct import DecodeConfig

        cfg = self.cfg
        return DecodeConfig(
            target=quadrant,
            budget=cfg["budget"],
            top_p=cfg["top_p"],
            exploration_c=cfg["exploration_c"],
            rollout_cap=cfg["rollout_cap"],
            max_bars=cfg["max_bars"],
            max_tokens=cfg["max_tokens"],
        )

    def request_rng(self, r: int, quadrant_number: int):
        import numpy as np

        return np.random.default_rng([self.seed, r, quadrant_number])

    def puct_one(self, r: int, quadrant):
        from emodecode.puct import decode_piece

        return decode_piece(
            [self.vocab.start_id],
            self.policy,
            self.classifier,
            self.discriminator,
            self.decode_config(quadrant),
            rng=self.request_rng(r, quadrant.value),
        )

    def puct_round(self, r: int, tracer, first_id: int) -> list:
        from emodecode.emotion import ALL_QUADRANTS

        out = []
        for quadrant in ALL_QUADRANTS:
            if tracer is not None:
                tracer.request = first_id + len(out)
            t = time.perf_counter()
            try:
                seq, trace = self.puct_one(r, quadrant)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                req = Request("decode", r, time.perf_counter() - t)
                req.problems.append(f"decode_piece toward E{quadrant.value} raised {exc!r}")
            else:
                req = Request("decode", r, time.perf_counter() - t)
                req.pieces.append((quadrant.value, seq))
                req.traces.append(trace.to_dict())
            self.calibrate(req)
            out.append(req)
        return out

    def generate_argv(self, method: str, r: int, out_dir: Path) -> list:
        return [
            "generate", "--method", method, "--emotion", "all",
            "--count", str(self.cfg["count"][method]),
            "--models", str(self.models),
            "--max-bars", str(self.cfg["max_bars"]),
            "--max-tokens", str(self.cfg["max_tokens"]),
            "--seed", str(self.seed * 10_000 + r),
            "--out", str(out_dir),
        ]

    def cli_op(self, op: str, r: int, argv: list, tracer, request_id: int) -> Request:
        if tracer is not None:
            tracer.request = request_id
        t = time.perf_counter()
        try:
            code, text = quiet(self.cli.main, argv)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            code, text = None, repr(exc)
        req = Request(op, r, time.perf_counter() - t)
        if code != 0:
            req.problems.append(f"emodecode {' '.join(argv[:3])} exited {code}: {text.strip()[-300:]}")
        self.calibrate(req)
        return req

    def calibrate(self, req: Request) -> None:
        """Time a calibration slice after the request; average it with the one before."""
        after = calibration_slice()
        req.slice_s = (self.last_slice + after) / 2
        self.last_slice = after

    def cli_round(self, r: int, tracer, first_id: int, tag: str) -> list:
        base = self.work / f"runs{tag}" / f"r{r:03d}"
        out = []
        generated = []
        manifests = []
        for method in self.cfg["count"]:
            run_dir = base / method
            req = self.cli_op(method, r, self.generate_argv(method, r, run_dir), tracer, first_id + len(out))
            if not req.problems:
                try:
                    manifest = json.loads((run_dir / "manifest.json").read_text())
                    req.pieces = [(int(p["emotion"][1:]), p["token_ids"]) for p in manifest["pieces"]]
                    req.manifest = manifest
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    req.pieces = []
                    req.problems.append(f"unreadable manifest {run_dir / 'manifest.json'}: {exc!r}")
            generated.append(req)
            manifests.append(run_dir / "manifest.json")
            out.append(req)
        for gen, path in zip(generated, manifests):
            argv = ["evaluate", str(path), "--out", str(path.with_name("evaluate.json"))]
            req = self.cli_op("evaluate", r, argv, tracer, first_id + len(out))
            req.evaluated = gen
            req.report = path.with_name("evaluate.json")
            out.append(req)
        argv = ["compare", *map(str, manifests), "--out", str(base / "compare.json")]
        out.append(self.cli_op("compare", r, argv, tracer, first_id + len(out)))
        return out

    # -- scoring -----------------------------------------------------------
    def score(self, requests: list) -> tuple[float, float]:
        """(emotion rate, mean realness) over finished pieces; 0 when none finished."""
        from emodecode.emotion import argmax_quadrant
        from emodecode.models.base import EvaluatorBudget

        budget = EvaluatorBudget()
        hits = 0
        realness = []
        for req in requests:
            if req.manifest is not None:
                for entry in req.manifest["pieces"]:
                    hits += entry["metrics"]["emotion_ok"]
                    if entry["metrics"]["realness"] is not None:
                        realness.append(entry["metrics"]["realness"])
                continue
            for quadrant_number, seq in req.pieces:
                predicted = argmax_quadrant(self.classifier.distribution(seq, budget))
                hits += int(predicted.value == quadrant_number)
                realness.append(self.discriminator.realness(seq, budget))
        n = sum(len(req.pieces) for req in requests)
        if not n or not realness:
            return 0.0, 0.0
        return hits / n, sum(realness) / len(realness)

    # -- checks ------------------------------------------------------------
    def run_checks(self, requests: list, emotion_rate: float) -> None:
        import checks
        from emodecode.corpus import load_corpus
        from emodecode.remi.piece import tokens_to_piece
        from emodecode.remi.tokens import Token

        corpus = load_corpus(self.corpus_file)
        self.global_problems += [
            "corpus: " + p
            for p in checks.check_roundtrip(
                self.corpus_pieces,
                corpus,
                tokens_to_piece,
                lambda texts: [Token.from_text(t) for t in texts],
            )
        ]
        sequences = [[checks.text_to_id(t) for t in p["tokens"]] for p in corpus["pieces"]]
        reference = checks.AddKModel(sequences)
        rng = random.Random(self.seed)
        outputs = [seq for req in requests for _, seq in req.pieces]
        prefixes = []
        for _ in range(NGRAM_CHECK_CONTEXTS if outputs else 0):
            seq = rng.choice(outputs)
            cut = rng.randrange(1, len(seq))
            prefixes.append(seq[:cut])
        self.global_problems += ["ngram: " + p for p in checks.check_ngram(self.policy, reference, prefixes)]

        max_tokens = self.cfg["max_tokens"]
        for req in requests:
            for quadrant_number, seq in req.pieces:
                req.problems += checks.check_complete(seq, max_tokens)
                if req.op == "cs" and (len(seq) < 2 or seq[1] != checks.emotion_id(quadrant_number)):
                    req.problems.append(f"cs piece for E{quadrant_number} lacks its control token")
            for trace in req.traces:
                req.problems += checks.check_puct_trace(trace, self.cfg["budget"])
            if req.op == "evaluate" and not req.problems and req.evaluated.manifest is not None:
                req.problems += self.check_evaluate(req)

        first = next((req for req in requests if req.pieces), None)
        if first is not None:
            self.global_problems += self.check_rerun(first)
        if self.name == "puct_narrow":
            topp_rate = self.topp_rate(requests)
            if not emotion_rate > topp_rate:
                self.global_problems.append(
                    f"steering: PUCT emotion rate {emotion_rate:.3f} not above top-p {topp_rate:.3f}"
                )

    def check_evaluate(self, req: Request) -> list:
        """`evaluate` aggregates against brute force from the manifest's ids."""
        import checks

        report = json.loads(req.report.read_text())
        per_emotion: dict[str, list] = {}
        for entry in req.evaluated.manifest["pieces"]:
            per_emotion.setdefault(entry["emotion"], []).append(
                checks.brute_force_metrics(entry["token_ids"])
            )
        problems = []
        for emotion, rows in per_emotion.items():
            got = report["aggregates"][emotion]
            for key in ("pitch_range", "n_pitch_classes", "polyphony"):
                want = sum(r[key] for r in rows) / len(rows)
                if abs(got[key] - want) > 1e-9:
                    problems.append(f"evaluate {req.evaluated.op} {emotion} {key}: {got[key]} != {want}")
        return problems

    def check_rerun(self, first: Request) -> list:
        """The same request with the same seed gives identical token ids."""
        if self.cfg["kind"] == "puct":
            from emodecode.emotion import EmotionQuadrant

            quadrant_number, seq = first.pieces[0]
            again, _ = self.puct_one(first.round, EmotionQuadrant(quadrant_number))
            same = again == seq
        else:
            run_dir = self.work / "rerun"
            code, text = quiet(self.cli.main, self.generate_argv(first.op, first.round, run_dir))
            if code != 0:
                return [f"rerun exited {code}: {text.strip()[-300:]}"]
            manifest = json.loads((run_dir / "manifest.json").read_text())
            same = [p["token_ids"] for p in manifest["pieces"]] == [s for _, s in first.pieces]
        return [] if same else ["rerun with the same seed gave different token ids"]

    def topp_rate(self, requests: list) -> float:
        """Emotion rate of top_p_decode on the same request seeds and policy."""
        from emodecode.baselines import SamplingConfig, top_p_decode
        from emodecode.emotion import argmax_quadrant
        from emodecode.models.base import EvaluatorBudget

        cfg = self.cfg
        sampling = SamplingConfig(top_p=cfg["top_p"], max_bars=cfg["max_bars"], max_tokens=cfg["max_tokens"])
        budget = EvaluatorBudget()
        hits = n = 0
        for req in requests:
            for quadrant_number, _ in req.pieces:
                seq, _ = top_p_decode(
                    [self.vocab.start_id], self.policy, sampling, rng=self.request_rng(req.round, quadrant_number)
                )
                hits += argmax_quadrant(self.classifier.distribution(seq, budget)).value == quadrant_number
                n += 1
        return hits / n if n else 0.0

    def check_evaluator_totals(self, tracer, requests: list) -> list:
        """Wrapper-counted evaluator calls against the program's own budgets."""
        if self.cfg["kind"] == "puct":
            e_own = sum(t["e_calls"] for req in requests for t in req.traces)
            d_own = sum(t["d_calls"] for req in requests for t in req.traces)
            e_other = d_other = 0
        else:
            manifests = [req.manifest for req in requests if req.manifest is not None]
            e_own = sum(m["budget"]["e_calls"] for m in manifests)
            d_own = sum(m["budget"]["d_calls"] for m in manifests)
            pieces = [p["metrics"] for m in manifests for p in m["pieces"]]
            e_other = sum(p["predicted_emotion"] is not None for p in pieces)
            d_other = sum(p["realness"] is not None for p in pieces)
        got = {k: int(tracer.counters[k]) for k in (
            "classifier_search", "discriminator_search", "classifier_other", "discriminator_other")}
        want = {
            "classifier_search": e_own,
            "discriminator_search": d_own,
            "classifier_other": e_other,
            "discriminator_other": d_other,
        }
        return [f"evaluator totals: wrappers {got} != program budgets {want}"] if got != want else []


def reference_seconds(seconds: float, slice_s: float) -> float:
    return seconds * REFERENCE_SLICE_S / slice_s


def end_to_end(requests: list, setup_s: float, emotion_rate: float, realness: float) -> dict:
    finished = [seq for req in requests if not req.problems for _, seq in req.pieces]
    ref = [reference_seconds(req.seconds, req.slice_s) for req in requests]
    wall = sum(ref)
    # if no request returned a piece, the whole timed phase went by without one
    per_piece = [t / len(req.pieces) for t, req in zip(ref, requests) if req.pieces] or [wall]
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pieces_per_s": {"value": len(finished) / wall, "unit": "pieces/s"},
        "tokens_per_s": {"value": sum(map(len, finished)) / wall, "unit": "tokens/s"},
        "piece_p50_s": {"value": statistics.median(per_piece), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        "emotion_rate": {"value": emotion_rate, "unit": "fraction"},
        "realness_mean": {"value": realness, "unit": "score"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emodecode" / "__init__.py").is_file():
        print(f"error: no emodecode sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        bench = Bench(args.workload, args.seed, work)
        try:
            bench.setup()
        except Exception as exc:  # noqa: BLE001 - any set-up failure ends the run
            print(f"error: set-up failed: {exc!r}", file=sys.stderr)
            return 2
        setup_wall = time.perf_counter() - T0
        setup_s = reference_seconds(setup_wall, (SLICE_BEFORE_SETUP + calibration_slice()) / 2)

        requests, wall = bench.run_rounds(args.seconds, None, tracer)
        rounds = requests[-1].round + 1
        if tracer is not None:
            tracer.uninstall()
            bench.global_problems += bench.check_evaluator_totals(tracer, requests)
        emotion_rate, realness = 0.0, 0.0
        try:
            emotion_rate, realness = bench.score(requests)
            bench.run_checks(requests, emotion_rate)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
            bench.global_problems.append(f"scoring and checks raised {exc!r}")

        if tracer is not None:
            # the same rounds untraced, from freshly loaded models
            bench.load_models()
            replay, replay_wall = bench.run_rounds(None, rounds, None, tag="-replay")
            if [s for q in replay for s in q.pieces] != [s for q in requests for s in q.pieces]:
                bench.global_problems.append("untraced replay produced different outputs")
            metrics, missing = tracing.per_layer_metrics(tracer)
            metrics["trace.overhead_s"] = {"value": wall - replay_wall, "unit": "s"}
            trace_dir = OUT / "trace"
            tracer.dump(
                trace_dir / f"{tag}.json",
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "rounds": rounds,
                    "traced_wall_s": wall,
                    "untraced_wall_s": replay_wall,
                    "per_layer": metrics,
                    "missing_metrics": missing,
                },
            )
            if missing:
                print(f"per-layer metrics with missing hooks: {', '.join(missing)}", file=sys.stderr)
        else:
            metrics = end_to_end(requests, setup_s, emotion_rate, realness)
            print(f"wall seconds: set-up {setup_wall:.4f}, timed phase {wall:.4f}", file=sys.stderr)

        failed = sum(1 for req in requests if req.problems)
        for req in requests:
            for problem in req.problems:
                print(f"FAILED {req.op} round {req.round}: {problem}", file=sys.stderr)
        for problem in bench.global_problems:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
        correct = failed == 0 and not bench.global_problems
        result = {"correct": correct, "attempted": len(requests), "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
