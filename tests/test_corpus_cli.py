"""Corpus ingestion and the end-to-end command line surface.

CLI tests run in-process through cli.main and assert on exit codes and on
the files each command writes.  Generation configs are kept tiny (2 bars,
budget 4) so the whole file stays fast.
"""
import dataclasses
import hashlib
import json
import re
import shutil
import warnings
from pathlib import Path

import pytest

from emodecode import cli, errors
from emodecode.baselines import SamplingConfig, SBBSConfig
from emodecode.corpus import (
    corpus_sequences,
    dump_corpus,
    ingest_directory,
    labeled_sequences,
    load_corpus,
    load_labels,
)
from emodecode.emotion import EmotionQuadrant
from emodecode.errors import LabelMismatch, MeterImportWarning, NoValidFiles
from emodecode.manifest import load_manifest
from emodecode.puct import DecodeConfig
from emodecode.remi.tokens import VOCAB, Token

GOOD_SOURCES = [f"e{q}_{v}.mid" for q in range(1, 5) for v in range(2)]

# the tag and hyperparameters of a well-formed policy.json
NGRAM_HEAD = {"format": "ngram-policy-v1", "order": 3, "add_k": 0.01}


@pytest.fixture(scope="module")
def corpus(midi_dir):
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        return ingest_directory(midi_dir)


class TestIngest:
    def test_skips_bad_files_with_warnings(self, midi_dir):
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            corpus = ingest_directory(midi_dir)
        messages = {str(w.message) for w in captured}
        assert any("waltz.mid" in m and "not in 4/4" in m for m in messages)
        assert any("broken.mid" in m for m in messages)
        meter = [w for w in captured if issubclass(w.category, MeterImportWarning)]
        assert len(meter) == 1
        assert [p["source"] for p in corpus["pieces"]] == GOOD_SOURCES

    def test_corpus_format(self, corpus):
        assert corpus["format"] == "remi-corpus-v1"
        for piece in corpus["pieces"]:
            assert piece["tokens"][0] == "START:0"
            assert piece["tokens"][-1] == "END:0"

    def test_dump_bytes_deterministic(self, corpus, midi_dir, tmp_path):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            again = ingest_directory(midi_dir)
        dump_corpus(corpus, tmp_path / "a.json")
        dump_corpus(again, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(NoValidFiles):
            ingest_directory(tmp_path)

    def test_all_files_skipped_rejected(self, midi_dir, tmp_path):
        shutil.copy(midi_dir / "waltz.mid", tmp_path / "waltz.mid")
        with pytest.warns(MeterImportWarning):
            with pytest.raises(NoValidFiles):
                ingest_directory(tmp_path)

    def test_load_corpus_roundtrip(self, corpus, tmp_path):
        dump_corpus(corpus, tmp_path / "c.json")
        assert load_corpus(tmp_path / "c.json") == corpus

    def test_load_corpus_rejects_wrong_format(self, tmp_path):
        (tmp_path / "c.json").write_text('{"format": "other", "pieces": [1]}')
        with pytest.raises(NoValidFiles, match="remi-corpus-v1"):
            load_corpus(tmp_path / "c.json")

    def test_corpus_sequences_are_valid_ids(self, corpus):
        sequences = corpus_sequences(corpus)
        assert len(sequences) == 8
        for seq in sequences:
            assert seq[0] == VOCAB.start_id
            assert seq[-1] == VOCAB.end_id
            assert VOCAB.validate_ids(seq, require_complete=True) is None


class TestTokenText:
    @pytest.mark.parametrize("text", ["NOISE:1", "PITCH:128", "TEMPO:0", "PITCH:x", "", 7, ["PITCH:60"]])
    def test_bad_text_raises_what_parsing_raises(self, corpus, text):
        bad = {**corpus, "pieces": [{"source": "x.mid", "tokens": ["START:0", "BAR:0", text]}]}
        with pytest.raises(Exception) as want:
            Token.from_text(text)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            corpus_sequences(bad)

    def test_text_outside_the_table_parses_as_before(self):
        texts = ["START:0", " BAR:0 ", "POSITION:01", "PITCH:+60\n", "PITCH:", "END"]
        assert VOCAB.encode_text(texts) == VOCAB.encode([Token.from_text(t) for t in texts])
        assert VOCAB.encode_text(VOCAB.texts) == list(range(VOCAB.vocab_size))

    def test_train_on_bad_text_is_data_error(self, corpus, tmp_path, capsys):
        bad = {**corpus, "pieces": [{"source": "x.mid", "tokens": ["START:0", "NOISE:1"]}]}
        dump_corpus(bad, tmp_path / "c.json")
        assert cli.main(["train", str(tmp_path / "c.json"), "--out", str(tmp_path / "m")]) == 2
        assert "unknown token kind 'NOISE'" in capsys.readouterr().err


class TestLabels:
    def test_load_labels(self, midi_dir):
        labels = load_labels(midi_dir / "labels.json")
        assert set(labels) == set(GOOD_SOURCES)
        assert labels["e3_1.mid"] is EmotionQuadrant.E3

    def test_labeled_sequences_align(self, corpus, midi_dir):
        pairs = labeled_sequences(corpus, load_labels(midi_dir / "labels.json"))
        assert len(pairs) == 8
        expected = [EmotionQuadrant.parse(src[:2]) for src in GOOD_SOURCES]
        assert [q for _, q in pairs] == expected

    def test_missing_label_rejected(self, corpus, midi_dir):
        labels = load_labels(midi_dir / "labels.json")
        del labels["e2_0.mid"]
        with pytest.raises(LabelMismatch, match="no label for"):
            labeled_sequences(corpus, labels)

    def test_unknown_source_rejected(self, corpus, midi_dir):
        labels = load_labels(midi_dir / "labels.json")
        labels["ghost.mid"] = EmotionQuadrant.E1
        with pytest.raises(LabelMismatch, match="unknown sources"):
            labeled_sequences(corpus, labels)

    def test_label_file_must_be_object(self, tmp_path):
        (tmp_path / "l.json").write_text('["E1"]')
        with pytest.raises(LabelMismatch, match="JSON object"):
            load_labels(tmp_path / "l.json")

    def test_bad_quadrant_name_rejected(self, tmp_path):
        (tmp_path / "l.json").write_text('{"x.mid": "E9"}')
        with pytest.raises(LabelMismatch):
            load_labels(tmp_path / "l.json")


@pytest.fixture(scope="module")
def workspace(midi_dir, tmp_path_factory):
    """Corpus and models built once through the CLI, shared by the tests below."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.json"
    models = root / "models"
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert cli.main(["ingest", str(midi_dir), "--out", str(corpus)]) == 0
    labels = str(midi_dir / "labels.json")
    assert cli.main(["train", str(corpus), "--labels", labels, "--out", str(models)]) == 0
    return root, corpus, models


QUICK = ["--max-bars", "2", "--max-tokens", "120", "--count", "1", "--seed", "4"]


def generate(models: Path, out: Path, *extra: str) -> int:
    args = ["generate", "--models", str(models), "--out", str(out), *QUICK, *extra]
    return cli.main(args)


# SHA-256 of each method's token ids, aggregates and budget in
# test_outputs_per_method: a change that keeps decoding behaviour keeps them
OUTPUT_DIGESTS = {
    "puct": "4a30afd5d3fe8f478bfb874eee0e5ccee68c70e8f81fa09c24dbf6ecc365d0a8",
    "sbbs": "2a9c057f7143721b1a20a7f5f4e15e6db8eade2b95b51e22d1a19a7d533df169",
    "cs": "ec0a2fa8dec3a961bfb0c76f837b1c37de4a23497994a8396e6339941a6ab31d",
    "topp": "e74aa179f0b44fb60bca9fc822e32892ecea286bdd96fb3d86967f907346c80f",
}


def output_digest(manifest: dict) -> str:
    body = {
        "token_ids": [entry["token_ids"] for entry in manifest["pieces"]],
        "aggregates": manifest["aggregates"],
        "budget": manifest["budget"],
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


# SHA-256 over the bytes of each method's .trace.json files, in name order:
# traces must stay byte-identical, not only the ids they lead to
TRACE_DIGESTS = {
    "puct": "f64bd1b68962d5791c1f144f03050861143fe25e4aae2cbc78cb903e23bc43e1",
    "sbbs": "37b34ec8c84ae1d71911db123fadb974c334f71843c7dc57a87bb73f1e9af5ac",
    "cs": "95797c4cf728e32b54fb4b3ceaacef29eb42916ea9026acff662248df421b830",
    "topp": "bf540afcdc6c0b415955216bcae54cb0176c215c7553c20a476e2c092fd4c530",
}


def trace_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.trace.json")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


# SHA-256 of every file `ingest` and `train --labels` write for the midi_dir
# corpus, taken before set-up was made faster: it must stay byte-identical
SETUP_DIGESTS = {
    "corpus.json": "d177b6bc2f2acf821c28877bd78cfbbbe664878a9a32cb636b774447eaa87bb7",
    "models/policy.json": "a57dbd81464de870257aedf0f99a3fb6f3adcf938bd1993dabddcc33da736f6a",
    "models/conditional.json": "22ffdce8d0c5364a0b8adb0b598786c3890e7683ff996c9b3789599f42cafa78",
    "models/classifier.json": "4c8655a9725268429d35e127c4cb1fe352fed7f5fd384d5a09f36516f81c1aeb",
    "models/discriminator.json": "85e5afb0cce260ba438945241200354d592677fef5f3fb93bee5c920b535a6a1",
}


class TestTrainCommand:
    def test_setup_files_are_byte_identical(self, workspace):
        root, _, _ = workspace
        digests = {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in SETUP_DIGESTS}
        assert digests == SETUP_DIGESTS

    def test_writes_model_files(self, workspace):
        _, _, models = workspace
        names = {p.name for p in models.iterdir()}
        assert names == {"policy.json", "classifier.json", "discriminator.json", "conditional.json"}

    def test_no_labels_skips_conditional(self, workspace, tmp_path):
        _, corpus, _ = workspace
        assert cli.main(["train", str(corpus), "--out", str(tmp_path / "m")]) == 0
        names = {p.name for p in (tmp_path / "m").iterdir()}
        assert names == {"policy.json", "classifier.json", "discriminator.json"}

    def test_policy_bytes_deterministic(self, workspace, tmp_path):
        _, corpus, models = workspace
        assert cli.main(["train", str(corpus), "--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "policy.json").read_bytes() == (models / "policy.json").read_bytes()

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert cli.main(["train", str(tmp_path / "nope.json")]) == 2

    def test_label_file_missing_a_source_writes_no_model(self, workspace, midi_dir, tmp_path, capsys):
        _, corpus, _ = workspace
        labels = json.loads((midi_dir / "labels.json").read_text())
        del labels["e2_0.mid"]
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        models = tmp_path / "m"
        args = ["train", str(corpus), "--labels", str(tmp_path / "labels.json"), "--out", str(models)]
        assert cli.main(args) == 2
        assert "e2_0.mid" in capsys.readouterr().err
        assert not models.exists() or not any(models.iterdir())

    def test_bad_order_is_data_error(self, workspace):
        _, corpus, _ = workspace
        assert cli.main(["train", str(corpus), "--order", "9", "--out", "unused"]) == 2

    def test_nan_add_k_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        assert cli.main(["train", str(corpus), "--add-k", "nan", "--out", str(tmp_path / "m")]) == 2
        assert "add_k" in capsys.readouterr().err
        assert not (tmp_path / "m" / "policy.json").exists()


class TestGenerateCommand:
    @pytest.mark.parametrize("method", cli.METHODS)
    def test_outputs_per_method(self, workspace, tmp_path, method):
        _, _, models = workspace
        out = tmp_path / method
        extra = ["--method", method, "--budget", "4"]
        if method == "sbbs":
            extra += ["--beam", "2", "--top-k", "4"]
        assert generate(models, out, *extra) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["method"] == method
        assert len(manifest["pieces"]) == 4
        for quadrant in ("E1", "E2", "E3", "E4"):
            assert (out / f"{quadrant}_000.mid").exists()
            assert (out / f"{quadrant}_000.tokens.txt").exists()
            assert not (out / f"{quadrant}_000.trace.json").exists()
        for entry in manifest["pieces"]:
            assert VOCAB.validate_ids(entry["token_ids"], require_complete=True) is None
        assert output_digest(manifest) == OUTPUT_DIGESTS[method]
        traced = tmp_path / f"{method}_traced"
        assert generate(models, traced, *extra, "--traces") == 0
        assert len(list(traced.glob("*.trace.json"))) == 4
        assert trace_digest(traced) == TRACE_DIGESTS[method]

    def test_runs_byte_identical(self, workspace, tmp_path):
        _, _, models = workspace
        first, second = tmp_path / "r1", tmp_path / "r2"
        for out in (first, second):
            assert generate(models, out, "--method", "puct", "--budget", "4") == 0
        assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()
        for mid in sorted(first.glob("*.mid")):
            assert mid.read_bytes() == (second / mid.name).read_bytes()

    def test_traces_written_on_request(self, workspace, tmp_path):
        _, _, models = workspace
        out = tmp_path / "tr"
        assert generate(models, out, "--emotion", "e2", "--budget", "4", "--traces") == 0
        trace = json.loads((out / "E2_000.trace.json").read_text())
        assert trace["method"] == "puct"
        assert trace["records"][0]["root_visits"] == 5

    def test_single_emotion_manifest(self, workspace, tmp_path):
        _, _, models = workspace
        out = tmp_path / "single"
        assert generate(models, out, "--method", "topp", "--emotion", "e3") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [p["emotion"] for p in manifest["pieces"]] == ["E3"]
        assert set(manifest["aggregates"]) == {"E3"}

    def test_cs_cut_at_control_token_writes_valid_manifest(self, workspace, tmp_path):
        _, _, models = workspace
        out = tmp_path / "cs2"
        assert generate(models, out, "--method", "cs", "--emotion", "e1", "--max-tokens", "2") == 0
        manifest = load_manifest(out / "manifest.json")
        (entry,) = manifest["pieces"]
        assert VOCAB.validate_ids(entry["token_ids"], require_complete=True) is None

    def test_cs_untrained_emotion_is_data_error(self, workspace, midi_dir, tmp_path, capsys):
        _, corpus, _ = workspace
        partial = {name: "E1" if name[1] in "12" else "E2" for name in GOOD_SOURCES}
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(partial))
        models = tmp_path / "m"
        assert cli.main(["train", str(corpus), "--labels", str(labels), "--out", str(models)]) == 0
        assert generate(models, tmp_path / "out", "--method", "cs", "--emotion", "e2") == 0
        assert generate(models, tmp_path / "out2", "--method", "cs", "--emotion", "e3") == 2
        assert "E3" in capsys.readouterr().err

    def test_missing_models_dir_is_data_error(self, tmp_path):
        assert generate(tmp_path / "nowhere", tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("classifier.json", []),
            ("policy.json", {"format": "ngram-policy-v1"}),
            ("policy.json", NGRAM_HEAD | {"vocab_size": VOCAB.vocab_size, "counts": []}),
            ("policy.json", NGRAM_HEAD | {"vocab_size": 11, "counts": {}}),
            ("policy.json", NGRAM_HEAD | {"vocab_size": VOCAB.vocab_size, "counts": {"1": {}}}),
            ("classifier.json", {"format": "emotion-heuristic-v1", "means": [0, 0], "stds": [1, 1, 1]}),
            ("classifier.json", {"format": "emotion-heuristic-v1", "means": [0, 0, 0], "stds": "x"}),
            ("discriminator.json", {"format": "discriminator-heuristic-v1", "duration_hist": [1.0] * 3}),
            ("discriminator.json", {"format": "discriminator-heuristic-v1", "duration_hist": None}),
        ],
    )
    def test_malformed_model_file_is_data_error(self, workspace, tmp_path, capsys, name, payload):
        _, _, models = workspace
        broken = tmp_path / "models"
        shutil.copytree(models, broken)
        (broken / name).write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert generate(broken, out) == 2
        assert str(broken / name) in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_policy_file_with_nan_add_k_is_data_error(self, workspace, tmp_path, capsys):
        _, _, models = workspace
        broken = tmp_path / "models"
        shutil.copytree(models, broken)
        payload = json.loads((models / "policy.json").read_text())
        (broken / "policy.json").write_text(json.dumps(payload | {"add_k": float("nan")}))
        assert generate(broken, tmp_path / "out", "--method", "topp") == 2
        err = capsys.readouterr().err
        assert str(broken / "policy.json") in err and "add_k" in err

    def test_bad_emotion_name_is_data_error(self, workspace, tmp_path):
        _, _, models = workspace
        assert generate(models, tmp_path / "out", "--emotion", "e5") == 2

    @pytest.mark.parametrize(
        "method, flag, value",
        [
            ("topp", "--top-p", "0"),
            ("cs", "--top-p", "1.5"),
            ("puct", "--top-p", "0"),
            ("puct", "--rollout-cap", "-1"),
            ("puct", "--exploration-c", "nan"),
            ("puct", "--max-bars", "0"),
            ("sbbs", "--max-bars", "0"),
            ("topp", "--max-tokens", "0"),
        ],
    )
    def test_out_of_range_decoder_setting_is_data_error(
        self, workspace, tmp_path, capsys, method, flag, value
    ):
        _, _, models = workspace
        out = tmp_path / "out"
        assert generate(models, out, "--method", method, "--emotion", "e1", flag, value) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unknown_method_is_usage_error(self, workspace, tmp_path):
        _, _, models = workspace
        with pytest.raises(SystemExit) as info:
            generate(models, tmp_path / "out", "--method", "beam")
        assert info.value.code == 1


class TestConfigFile:
    def test_defaults_come_from_the_decoder_configs(self):
        defaults = {}
        for cls in (DecodeConfig, SBBSConfig, SamplingConfig):
            for f in dataclasses.fields(cls):
                if f.default is not dataclasses.MISSING:
                    # a field the configs share has a single default
                    assert defaults.setdefault(f.name, f.default) == f.default, f.name
        assert cli.DEFAULTS == {**defaults, "count": 1, "seed": 0}

    def test_sections_merge_with_flag_priority(self, workspace, tmp_path):
        _, _, models = workspace
        config = tmp_path / "cfg.yaml"
        config.write_text("common:\n  seed: 9\n  max_bars: 2\npuct:\n  budget: 4\n")
        flagged = tmp_path / "flagged"
        args = ["generate", "--models", str(models), "--config", str(config),
                "--emotion", "e1", "--max-tokens", "120", "--seed", "4",
                "--out", str(flagged)]
        assert cli.main(args) == 0
        manifest = json.loads((flagged / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"]["budget"] == 4
        assert manifest["config"]["max_bars"] == 2
        baseline = tmp_path / "baseline"
        assert generate(models, baseline, "--emotion", "e1", "--budget", "4") == 0
        assert (flagged / "E1_000.mid").read_bytes() == (baseline / "E1_000.mid").read_bytes()

    def test_unknown_section_is_data_error(self, workspace, tmp_path, capsys):
        _, _, models = workspace
        config = tmp_path / "cfg.yaml"
        config.write_text("mcts:\n  budget: 4\n")
        args = ["generate", "--models", str(models), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert cli.main(args) == 2
        assert "mcts" in capsys.readouterr().err

    def test_unknown_key_is_data_error(self, workspace, tmp_path, capsys):
        _, _, models = workspace
        config = tmp_path / "cfg.yaml"
        config.write_text("puct:\n  temperature: 2\n")
        args = ["generate", "--models", str(models), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert cli.main(args) == 2
        assert "temperature" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, text",
        [
            ("puct", "budget", "2.5"),
            ("puct", "rollout_cap", "1.5"),
            ("common", "count", "1.5"),
            ("sbbs", "beams", "2.5"),
            ("common", "top_p", "'0.9'"),
            ("common", "max_tokens", "true"),
            ("puct", "exploration_c", "false"),
            ("common", "seed", "[1, 2]"),
        ],
    )
    def test_value_of_the_wrong_type_is_data_error(self, workspace, tmp_path, capsys, section, key, text):
        _, _, models = workspace
        config = tmp_path / "cfg.yaml"
        config.write_text(f"{section}:\n  {key}: {text}\n")
        method = section if section != "common" else "puct"
        out = tmp_path / "out"
        args = ["generate", "--models", str(models), "--config", str(config),
                "--method", method, "--out", str(out)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err and "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_int_stands_for_a_float(self, workspace, tmp_path):
        _, _, models = workspace
        config = tmp_path / "cfg.yaml"
        config.write_text("common:\n  top_p: 1\n  max_bars: 2\npuct:\n  budget: 2\n  exploration_c: 0\n")
        out = tmp_path / "out"
        args = ["generate", "--models", str(models), "--config", str(config),
                "--emotion", "e1", "--out", str(out)]
        assert cli.main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["top_p"] == 1 and manifest["config"]["exploration_c"] == 0

    def test_section_that_is_not_a_mapping_is_data_error(self, workspace, tmp_path, capsys):
        _, _, models = workspace
        config = tmp_path / "cfg.yaml"
        config.write_text("common: [budget, 4]\n")
        args = ["generate", "--models", str(models), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert cli.main(args) == 2
        assert "[common]" in capsys.readouterr().err

    def test_unparseable_yaml_is_data_error(self, workspace, tmp_path):
        _, _, models = workspace
        config = tmp_path / "cfg.yaml"
        config.write_text("common: [unclosed\n")
        args = ["generate", "--models", str(models), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert cli.main(args) == 2


@pytest.fixture(scope="module")
def run_dir(workspace, tmp_path_factory):
    _, _, models = workspace
    out = tmp_path_factory.mktemp("run")
    assert generate(models, out, "--method", "topp") == 0
    return out


class TestEvaluateCommand:
    def test_directory_mode_prints_table(self, run_dir, capsys):
        assert cli.main(["evaluate", str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["file", "PR", "NPC", "POLY"]
        assert len(lines) == 5
        assert lines[1].startswith("E1_000.mid")

    def test_directory_without_midi_is_data_error(self, tmp_path):
        assert cli.main(["evaluate", str(tmp_path)]) == 2

    def test_manifest_mode_recomputes(self, run_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        args = ["evaluate", str(run_dir / "manifest.json"), "--out", str(report_path)]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "topp" in out and "E1" in out and "E4" in out
        report = json.loads(report_path.read_text())
        assert report["method"] == "topp"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert report["aggregates"] == manifest["aggregates"]

    def test_stale_manifest_is_data_error(self, run_dir, tmp_path, capsys):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["pieces"][0]["metrics"]["pitch_range"] += 1.0
        stale = tmp_path / "manifest.json"
        stale.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        assert cli.main(["evaluate", str(stale)]) == 2
        assert "pitch_range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda piece: piece["metrics"].pop("emotion_ok"),
            lambda piece: piece["metrics"].update(real_ok="yes"),
            lambda piece: piece["token_ids"].append(9999),
            lambda piece: piece["token_ids"].insert(1, -1),
            lambda piece: piece.update(emotion=["E1"]),
        ],
        ids=["no-emotion-ok", "flag-not-a-number", "id-too-large", "id-negative", "emotion-not-a-name"],
    )
    def test_malformed_piece_is_data_error(self, run_dir, tmp_path, capsys, damage):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        damage(manifest["pieces"][1])
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        assert cli.main(["evaluate", str(bad)]) == 2
        assert "piece 1" in capsys.readouterr().err

    def test_schema_violation_is_data_error(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"format": "run-manifest-v1"}')
        assert cli.main(["evaluate", str(bad)]) == 2


class TestCompareCommand:
    def test_two_manifest_table(self, workspace, run_dir, tmp_path, capsys):
        _, _, models = workspace
        other = tmp_path / "puct"
        assert generate(models, other, "--method", "puct", "--budget", "4") == 0
        capsys.readouterr()
        report_path = tmp_path / "merged.json"
        args = ["compare", str(run_dir / "manifest.json"),
                str(other / "manifest.json"), "--out", str(report_path)]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "topp" in out and "puct" in out
        assert out.splitlines()[0].split() == ["method", "metric", "E1", "E2", "E3", "E4"]
        report = json.loads(report_path.read_text())
        assert set(report) == {"topp", "puct"}
        assert set(report["puct"]) == {"E1", "E2", "E3", "E4"}

    def test_duplicate_method_labels_disambiguated(self, run_dir, capsys):
        args = ["compare", str(run_dir / "manifest.json"), str(run_dir / "manifest.json")]
        assert cli.main(args) == 0
        assert "topp:manifest" in capsys.readouterr().out

    def test_edited_aggregate_is_data_error(self, run_dir, tmp_path, capsys):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["aggregates"]["E1"]["pitch_range"] != 99.0
        manifest["aggregates"]["E1"]["pitch_range"] = 99.0
        edited = tmp_path / "manifest.json"
        edited.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        assert cli.main(["compare", str(run_dir / "manifest.json"), str(edited)]) == 2
        err = capsys.readouterr().err
        assert "E1 aggregates pitch_range is 99.0" in err

    def test_incomplete_manifest_is_data_error(self, workspace, tmp_path, capsys):
        _, _, models = workspace
        partial = tmp_path / "partial"
        assert generate(models, partial, "--method", "topp", "--emotion", "e1") == 0
        args = ["compare", str(partial / "manifest.json"), str(partial / "manifest.json")]
        assert cli.main(args) == 2
        assert "E2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda piece: piece["token_ids"].append(9999), "piece 1 token_ids must be ids from 0 to 246"),
            (lambda piece: piece.update(emotion="E9"), "piece 1 emotion 'E9' is not one of E1 to E4"),
        ],
        ids=["id-too-large", "unknown-emotion"],
    )
    def test_malformed_piece_is_data_error(self, run_dir, tmp_path, capsys, damage, message):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        damage(manifest["pieces"][1])
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        assert cli.main(["compare", str(run_dir / "manifest.json"), str(bad)]) == 2
        assert message in capsys.readouterr().err


# every EmodecodeError class in errors.py -> the CLI's exit code for it:
# 2 for bad input data, 3 for a broken internal invariant
ERROR_EXIT_CODES = {
    "EmodecodeError": 3,
    "DataError": 2,
    "GrammarError": 2,
    "MalformedMidi": 2,
    "SequenceTooShort": 2,
    "TerminalNode": 3,
    "UntrainedCondition": 2,
    "NotFitted": 2,
    "EmptyCorpus": 2,
    "EmptyPiece": 3,
    "NoValidFiles": 2,
    "LabelMismatch": 2,
    "ManifestSchemaError": 2,
}


class TestMainSurface:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert "emodecode" in capsys.readouterr().out

    def test_missing_path_is_data_error(self, tmp_path, capsys):
        assert cli.main(["ingest", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, code", sorted(ERROR_EXIT_CODES.items()))
    def test_package_error_exit_code(self, monkeypatch, capsys, name, code):
        cls = getattr(errors, name)

        def fail(args):
            raise cls.__new__(cls)

        monkeypatch.setattr(cli, "cmd_ingest", fail)
        assert cli.main(["ingest", "anywhere"]) == code
        assert capsys.readouterr().err.startswith("error:" if code == 2 else "internal error:")

    def test_every_package_error_has_an_exit_code(self):
        classes = {
            name
            for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.EmodecodeError)
        }
        assert classes == set(ERROR_EXIT_CODES)

    def test_debug_logging_smoke(self, workspace, tmp_path, monkeypatch):
        _, corpus, _ = workspace
        monkeypatch.setenv("EMODECODE_LOG", "DEBUG")
        assert cli.main(["train", str(corpus), "--out", str(tmp_path / "m")]) == 0
