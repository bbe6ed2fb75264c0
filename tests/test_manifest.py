"""Run manifest schema, aggregates and byte-stable serialization."""
import json

import pytest

from emodecode.errors import ManifestSchemaError
from emodecode.manifest import (
    build_manifest,
    checked_aggregates,
    dump_manifest,
    load_manifest,
    validate_manifest,
)


def piece_entry(index: int = 0) -> dict:
    return {
        "emotion": "E1",
        "index": index,
        "seed": [3, 1, index],
        "token_ids": [0, 2, 1],
        "midi": f"E1_{index:03d}.mid",
        "tokens": f"E1_{index:03d}.tokens.txt",
        # what generate records for START BAR END: a bar without notes
        "metrics": {
            "pitch_range": 0.0,
            "n_pitch_classes": 0,
            "polyphony": 0.0,
            "predicted_emotion": None,
            "emotion_ok": 0,
            "realness": None,
            "real_ok": 0,
        },
    }


FULL_ROW = {
    "pitch_range": 20.0,
    "n_pitch_classes": 6.0,
    "polyphony": 1.5,
    "emotion_rate": 0.5,
    "discriminator_rate": 0.25,
}


def make_manifest(**overrides) -> dict:
    manifest = build_manifest(
        method="puct",
        version="0.1.0",
        config={"budget": 50, "top_p": 0.9},
        seed=3,
        pieces=[piece_entry(0), piece_entry(1)],
        budget={"e_calls": 100, "d_calls": 100},
    )
    manifest.update(overrides)
    return manifest


class TestSchema:
    def test_build_validates_and_roundtrips(self, tmp_path):
        manifest = make_manifest()
        path = tmp_path / "manifest.json"
        dump_manifest(manifest, path)
        assert load_manifest(path) == manifest

    @pytest.mark.parametrize("key", ["format", "method", "config", "seed", "pieces", "budget"])
    def test_missing_top_level_key(self, key):
        manifest = make_manifest()
        del manifest[key]
        with pytest.raises(ManifestSchemaError, match=key):
            validate_manifest(manifest)

    def test_wrong_format_tag(self):
        with pytest.raises(ManifestSchemaError, match="format"):
            validate_manifest(make_manifest(format="run-manifest-v999"))

    def test_pieces_must_be_a_list(self):
        with pytest.raises(ManifestSchemaError):
            validate_manifest(make_manifest(pieces={"0": piece_entry()}))

    def test_piece_entry_missing_key(self):
        entry = piece_entry()
        del entry["token_ids"]
        with pytest.raises(ManifestSchemaError, match="piece 0"):
            validate_manifest(make_manifest(pieces=[entry]))

    def test_piece_entry_must_be_mapping(self):
        with pytest.raises(ManifestSchemaError):
            validate_manifest(make_manifest(pieces=["nope"]))

    def test_absolute_paths_rejected(self):
        entry = piece_entry()
        entry["midi"] = "/tmp/evil.mid"
        with pytest.raises(ManifestSchemaError, match="relative"):
            validate_manifest(make_manifest(pieces=[entry]))

    @pytest.mark.parametrize("key", ["midi", "tokens"])
    def test_paths_must_be_strings(self, key):
        entry = piece_entry()
        entry[key] = 5
        with pytest.raises(ManifestSchemaError, match=f"piece 0 {key} must be a path string"):
            validate_manifest(make_manifest(pieces=[entry]))

    def test_token_ids_must_be_list(self):
        entry = piece_entry()
        entry["token_ids"] = "0,2,1"
        with pytest.raises(ManifestSchemaError, match="token_ids"):
            validate_manifest(make_manifest(pieces=[entry]))

    @pytest.mark.parametrize("ids", [[0, 2, 247], [0, -1, 1], [0, True, 1], [0, 2.0, 1]])
    def test_token_ids_must_be_vocabulary_ids(self, ids):
        entry = piece_entry()
        entry["token_ids"] = ids
        with pytest.raises(ManifestSchemaError, match="piece 0 token_ids must be ids from 0 to 246"):
            validate_manifest(make_manifest(pieces=[entry]))

    @pytest.mark.parametrize(
        "metrics",
        [
            {"pitch_range": 0.0, "n_pitch_classes": 0, "polyphony": 0.0, "emotion_ok": 0},
            {"pitch_range": 0.0, "n_pitch_classes": 0, "polyphony": 0.0, "emotion_ok": 0, "real_ok": "yes"},
            {"pitch_range": 0.0, "n_pitch_classes": 0, "polyphony": None, "emotion_ok": 0, "real_ok": 0},
            {"pitch_range": float("nan"), "n_pitch_classes": 0, "polyphony": 0.0, "emotion_ok": 0, "real_ok": 0},
            [0.0, 0, 0.0, 0, 0],
        ],
        ids=["missing", "string", "null", "nan", "not-a-mapping"],
    )
    def test_piece_metrics_must_be_numbers(self, metrics):
        entry = piece_entry()
        entry["metrics"] = metrics
        with pytest.raises(ManifestSchemaError, match="piece 0 metrics need a number for each of"):
            validate_manifest(make_manifest(pieces=[entry]))

    @pytest.mark.parametrize("emotion", ["E9", "e1", ["E1"], None])
    def test_piece_emotion_must_be_a_quadrant(self, emotion):
        entry = piece_entry()
        entry["emotion"] = emotion
        with pytest.raises(ManifestSchemaError, match="piece 0 emotion .* is not one of E1 to E4"):
            validate_manifest(make_manifest(pieces=[entry]))

    def test_method_must_be_a_string(self):
        with pytest.raises(ManifestSchemaError, match="method"):
            validate_manifest(make_manifest(method=["puct"]))

    def test_build_leaves_validation_to_dump(self, tmp_path):
        entry = piece_entry()
        entry["token_ids"] = [0, 2, 9999]
        manifest = make_manifest(pieces=[entry])
        with pytest.raises(ManifestSchemaError, match="piece 0 token_ids"):
            dump_manifest(manifest, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_load_rejects_what_dump_rejects(self, tmp_path):
        entry = piece_entry()
        entry["emotion"] = "E9"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(make_manifest(pieces=[entry])))
        with pytest.raises(ManifestSchemaError, match="piece 0 emotion 'E9'"):
            load_manifest(path)

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestSchemaError, match="JSON"):
            load_manifest(path)

    def test_dump_rejects_invalid(self, tmp_path):
        manifest = make_manifest()
        del manifest["budget"]
        with pytest.raises(ManifestSchemaError):
            dump_manifest(manifest, tmp_path / "m.json")


class TestAggregates:
    def test_build_averages_each_emotion(self):
        e1 = [piece_entry(0), piece_entry(1)]
        e1[1]["metrics"].update(pitch_range=4.0, n_pitch_classes=3, polyphony=2.0, emotion_ok=1)
        e3 = piece_entry(2)
        e3["emotion"] = "E3"
        e3["metrics"].update(real_ok=1)
        manifest = build_manifest("puct", "0.1.0", {}, 3, [*e1, e3], {})
        assert manifest["aggregates"] == {
            "E1": {
                "pitch_range": 2.0,
                "n_pitch_classes": 1.5,
                "polyphony": 1.0,
                "emotion_rate": 0.5,
                "discriminator_rate": 0.0,
            },
            "E3": {
                "pitch_range": 0.0,
                "n_pitch_classes": 0.0,
                "polyphony": 0.0,
                "emotion_rate": 0.0,
                "discriminator_rate": 1.0,
            },
        }
        validate_manifest(manifest)

    def test_manifest_without_aggregates_is_rejected(self):
        manifest = make_manifest()
        del manifest["aggregates"]
        with pytest.raises(ManifestSchemaError, match="aggregates"):
            validate_manifest(manifest)

    def test_aggregates_must_be_a_mapping(self):
        with pytest.raises(ManifestSchemaError, match="aggregates must be a mapping"):
            validate_manifest(make_manifest(aggregates=[dict(FULL_ROW)]))

    def test_missing_metric_key_is_rejected(self):
        row = dict(FULL_ROW)
        del row["polyphony"]
        with pytest.raises(ManifestSchemaError, match=r"E1 aggregates missing \['polyphony'\]"):
            validate_manifest(make_manifest(aggregates={"E1": row}))

    @pytest.mark.parametrize(
        "row",
        [{**FULL_ROW, "emotion_rate": "50%"}, {**FULL_ROW, "emotion_rate": float("inf")}, [0.5] * 5],
        ids=["string", "inf", "list"],
    )
    def test_aggregate_row_must_hold_numbers(self, row):
        with pytest.raises(ManifestSchemaError, match="E2 aggregates missing"):
            validate_manifest(make_manifest(aggregates={"E1": dict(FULL_ROW), "E2": row}))

    def test_unknown_emotion_key_is_rejected(self):
        with pytest.raises(ManifestSchemaError, match="E9"):
            validate_manifest(make_manifest(aggregates={"E9": dict(FULL_ROW)}))

    def test_checked_aggregates_prefer_recomputed_values(self):
        manifest = make_manifest()
        manifest["pieces"][1]["metrics"]["emotion_ok"] = 1
        recomputed = [{"pitch_range": 0.0}, {"pitch_range": 5e-10}]
        aggregates = checked_aggregates(manifest, recomputed)
        assert aggregates["E1"]["pitch_range"] == 2.5e-10
        assert aggregates["E1"]["emotion_rate"] == 0.5  # not recomputed: the recorded flags count

    def test_stale_value_is_named(self):
        with pytest.raises(ManifestSchemaError, match="piece 1 polyphony is 1.5, manifest records 0.0"):
            checked_aggregates(make_manifest(), [{"polyphony": 0.0}, {"polyphony": 1.5}])


class TestDeterminism:
    def test_dump_bytes_are_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_manifest(make_manifest(), a)
        # same content built with different key insertion order
        shuffled = dict(reversed(list(make_manifest().items())))
        dump_manifest(shuffled, b)
        assert a.read_bytes() == b.read_bytes()
