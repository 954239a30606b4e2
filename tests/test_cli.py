"""End-to-end command line tests driven through main() with exit-code checks."""

import json
import subprocess
import sys

import numpy as np
import pytest

import vidcap.autodiff
import vidcap.cli
import vidcap.decoder
import vidcap.evaluate
from vidcap.afs import build_cdf, frame_dissimilarity, select_frames
from vidcap.cli import main
from vidcap.video import VideoClip, read_vvid

SMALL_ENCODER = {
    "frames": 8,
    "patch": [2, 4, 4],
    "window": [2, 2, 2],
    "depths": [2, 2],
    "heads": [2, 4],
    "embed_dim": 16,
    "token_dim": 32,
    "concept_count": 8,
    "concept_hidden": [48, 96],
}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"videos": 6, "frames": 8, "height": 12, "width": 12, "seed": 3}))
    data = root / "data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0

    cfg = root / "train.json"
    cfg.write_text(
        json.dumps(
            {"encoder": SMALL_ENCODER, "batch_size": 2, "max_steps": 2, "pretrain_steps": 2, "seed": 0}
        )
    )
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    return {"root": root, "data": data, "ckpt": run / "checkpoint", "cfg": cfg}


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["afs", "--frames", "4"])  # missing --video
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["caption", "--ckpt", "x", "--video", "y", "--decode", "dfs"])
    assert e.value.code == 1


def test_help_lists_subcommands():
    out = subprocess.run(
        [sys.executable, "-m", "vidcap.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for name in ("gen-data", "afs", "build-vocab", "train", "caption", "evaluate", "score"):
        assert name in out.stdout


def test_gen_data_and_afs(env, capsys, tmp_path):
    video = env["data"] / "videos" / "vid0000.vvid"
    assert main(["afs", "--video", str(video), "--frames", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 8 and payload["n"] == 4
    assert len(payload["indices"]) == 4
    assert payload["indices"] == sorted(payload["indices"])
    assert all(0 <= i <= 7 for i in payload["indices"])
    assert len(payload["pdf"]) == 7 and len(payload["cdf"]) == 8

    out_file = tmp_path / "sel.json"
    assert main(["afs", "--video", str(video), "--frames", "4", "--dedupe", "--out", str(out_file)]) == 0
    saved = json.loads(out_file.read_text())
    assert sorted(set(saved["indices"])) == saved["indices"]


@pytest.mark.parametrize("metric", ["mad", "patch"])
def test_afs_json_equals_the_widened_clip_json(env, capsys, metric):
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["afs", "--video", str(video), "--frames", "5", "--metric", metric]) == 0
    got = capsys.readouterr().out

    wide = VideoClip(read_vvid(video).data.astype(np.float64))
    cdf = build_cdf(frame_dissimilarity(wide, metric=metric), wide.frames)
    want = {
        "m": cdf.m,
        "n": 5,
        "indices": select_frames(cdf, 5),
        "pdf": [float(x) for x in cdf.pdf],
        "cdf": [float(x) for x in cdf.breakpoints],
    }
    assert got == json.dumps(want, indent=2) + "\n"


def test_missing_and_invalid_inputs_exit_2(env, tmp_path, capsys):
    assert main(["afs", "--video", str(tmp_path / "nope.vvid"), "--frames", "4"]) == 2
    assert "data error" in capsys.readouterr().err

    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text("{not json")
    assert main(["gen-data", "--spec", str(bad_spec), "--out", str(tmp_path / "o")]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"videos": 2, "fps": 30}))
    assert main(["gen-data", "--spec", str(unknown), "--out", str(tmp_path / "o2")]) == 2

    capsys.readouterr()
    specs = [{"shapes": []}, {"colors": []}, {"motions": []}, {"height": 0}, {"width": 0}, {"seed": -1}]
    for i, spec in enumerate(specs):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(path), "--out", str(tmp_path / f"g{i}")]) == 2
        error = _one_data_error(capsys)
        assert not (tmp_path / f"g{i}").exists()  # no videos/ left behind
    assert "spec seed must be non-negative, got -1" in error

    caption = ["caption", "--ckpt", str(tmp_path / "none"), "--video", str(tmp_path / "v.vvid")]
    assert main(caption) == 2
    capsys.readouterr()
    # a bad seed is refused before the checkpoint is read, which here does not exist
    assert main(caption + ["--decode", "topk", "--seed", "-1"]) == 2
    assert "seed must be non-negative or None, got -1" in _one_data_error(capsys)

    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "no-data"), "--out", str(tmp_path / "run")]) == 2
    assert "seed must be non-negative, got -1" in _one_data_error(capsys)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"decoder": {"hiddn": 8}}, "unknown DecoderConfig keys: ['hiddn']"),
        ({"encoder": {"patch": 2}}, "EncoderConfig key 'patch' must be a list"),
        ({"lr": "x"}, "training config key 'lr' must be a number"),
        ({"decoder": "big"}, "config must be 'desk', 'paper' or a field table, got 'big'"),
        ({"decoder": {"hidden": 16, "heads": 2}}, "decoder hidden 16 must match encoder token_dim 32"),
        # the encoder's dropout rates are fixed at 0, so a train config may not set them
        ({"encoder": {**SMALL_ENCODER, "attn_dropout": 1.5}}, "unknown EncoderConfig keys: ['attn_dropout']"),
        ({"decoder": {"dropout": -0.1}}, "decoder dropout must be in [0, 1), got -0.1"),
        ({"max_len": 0}, "max_len must be at least 1, got 0"),
        ({"decoder": {"vocab_size": 5}}, "decoder vocab_size 5 is not the vocabulary's"),
        ({"decoder": {"vocab_size": 400}}, "decoder vocab_size 400 is not the vocabulary's"),
        # json.dumps writes these as NaN and Infinity, which json.loads reads back
        ({"lr": float("nan")}, "lr must be finite and positive, got nan"),
        ({"lambda_bce": float("inf")}, "lambda_bce must be finite and non-negative, got inf"),
        ({"clip_norm": float("inf")}, "clip_norm must be finite and positive, got inf"),
        ({"decoder": {"concept_dim": 16}}, "decoder concept_dim 16 must match encoder concept_count 8"),
    ],
)
def test_bad_train_config_exits_2_before_training(env, tmp_path, capsys, config, message):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"encoder": SMALL_ENCODER, "max_steps": 2, "pretrain_steps": 2, **config}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(env["data"]), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert "Traceback" not in err
    assert not (out / "train_log.jsonl").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"encoder": {**SMALL_ENCODER, "heads": [0, 4]}}, "encoder heads must be positive, got [0, 4]"),
        ({"decoder": {"heads": 0}}, "decoder heads must be at least 1, got 0"),
        ({"encoder": {**SMALL_ENCODER, "patch": [0, 4, 4]}}, "encoder patch must be three positive integers, got [0, 4, 4]"),
        ({"encoder": {**SMALL_ENCODER, "window": [2, 2]}}, "encoder window must be three positive integers, got [2, 2]"),
        ({"encoder": {**SMALL_ENCODER, "window": [0, 2, 2]}}, "encoder window must be three positive integers, got [0, 2, 2]"),
        ({"encoder": {**SMALL_ENCODER, "depths": [], "heads": []}}, "encoder depths must be one or more positive block counts, got []"),
        ({"decoder": {"layers": 0}}, "decoder layers must be positive, got 0"),
        ({"encoder": {**SMALL_ENCODER, "layer_norm_eps": -1}}, "unknown EncoderConfig keys: ['layer_norm_eps']"),
        ({"decoder": {"layer_norm_eps": -1}}, "unknown DecoderConfig keys: ['layer_norm_eps']"),
        ({"encoder": {**SMALL_ENCODER, "embed_dim": 0}}, "encoder embed_dim must be positive, got 0"),
        ({"encoder": {**SMALL_ENCODER, "token_dim": 0}}, "encoder token_dim must be positive, got 0"),
        ({"decoder": {"hidden": 0}}, "decoder hidden must be positive, got 0"),
        ({"encoder": {**SMALL_ENCODER, "mlp_ratio": 0}}, "unknown EncoderConfig keys: ['mlp_ratio']"),
        ({"decoder": {"mlp_ratio": 0}}, "unknown DecoderConfig keys: ['mlp_ratio']"),
        ({"encoder": {**SMALL_ENCODER, "frames": 0}}, "encoder frames must be positive, got 0"),
        ({"encoder": {**SMALL_ENCODER, "concept_count": 0}}, "encoder concept_count must be positive, got 0"),
        ({"encoder": {**SMALL_ENCODER, "concept_count": -2}}, "encoder concept_count must be positive, got -2"),
        (
            {"encoder": {**SMALL_ENCODER, "concept_hidden": [0, 96]}},
            "encoder concept_hidden must be two positive integers, got [0, 96]",
        ),
        (
            {"encoder": {**SMALL_ENCODER, "concept_hidden": [48]}},
            "encoder concept_hidden must be two positive integers, got [48]",
        ),
        (
            {"encoder": {**SMALL_ENCODER, "concept_hidden": [48, 96, 12]}},
            "encoder concept_hidden must be two positive integers, got [48, 96, 12]",
        ),
        ({"decoder": {"vocab_size": 0}}, "decoder vocab_size must be positive, got 0"),
        ({"decoder": {"max_positions": 0}}, "decoder max_positions must be positive, got 0"),
        ({"decoder": {"concept_dim": 0}}, "decoder concept_dim must be positive, got 0"),
        ({"decoder": {"heads": 5}}, "decoder hidden width 32 must divide into 5 heads"),
        (
            {"encoder": {**SMALL_ENCODER, "depths": [2], "heads": [2, 4]}},
            "encoder depths [2] and heads [2, 4] must pair up stage by stage",
        ),
    ],
)
def test_zero_heads_patch_or_window_is_a_data_error(env, tmp_path, capsys, config, message):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"encoder": SMALL_ENCODER, "max_steps": 2, "pretrain_steps": 2, **config}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(env["data"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
    assert not (out / "train_log.jsonl").exists()


@pytest.mark.parametrize("log_every", [0, -1])
def test_log_every_below_one_exits_2_before_training(env, tmp_path, capsys, log_every):
    out = tmp_path / "run"
    argv = ["train", "--config", str(env["cfg"]), "--data", str(env["data"]), "--out", str(out)]
    assert main([*argv, "--log-every", str(log_every)]) == 2
    assert _one_data_error(capsys) == f"data error: log_every must be at least 1, got {log_every}"
    assert not (out / "train_log.jsonl").exists()


def test_caption_and_evaluate_refuse_a_decoder_that_is_not_the_vocabulary_size(env, tmp_path, capsys):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    words = json.loads((ckpt / "vocab.json").read_text())["words"]
    (ckpt / "vocab.json").write_text(json.dumps({"words": words + ["zebra"]}))
    message = f"data error: decoder vocab_size {len(words) + 4} is not the vocabulary's {len(words) + 5} words"
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    assert _one_data_error(capsys) == message
    corpus = env["data"] / "corpus.jsonl"
    assert main(["evaluate", "--ckpt", str(ckpt), "--corpus", str(corpus), "--out", str(tmp_path / "ev")]) == 2
    assert _one_data_error(capsys) == message
    assert not (tmp_path / "ev").exists()


def test_caption_refuses_a_stored_adapter_mode(env, tmp_path, capsys):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["model"]["decoder"]["adapter"] = "linear"
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'linear'" in err


@pytest.mark.parametrize(
    "part, key, value, cls, want",
    [("encoder", "qkv_bias", False, "EncoderConfig", "True"), ("decoder", "layer_norm_eps", 1e-5, "DecoderConfig", "1e-12")],
)
def test_caption_refuses_a_retired_key_at_another_value(env, tmp_path, capsys, part, key, value, cls, want):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["model"][part][key] = value
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    message = f"data error: {ckpt}: checkpoint {cls} key {key!r} is retired and loads only as {want}, got {value!r}"
    assert _one_data_error(capsys) == message


def _one_data_error(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines
    return lines[0]


def test_corpus_line_that_is_not_an_object_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("[1, 2]\n")
    assert main(["build-vocab", "--corpus", str(corpus), "--out", str(tmp_path / "v.json")]) == 2
    assert f"{corpus}:1:" in _one_data_error(capsys)


@pytest.mark.parametrize("captions", [5, "a red ball", ["a red ball", 7], None])
def test_corpus_captions_that_are_not_a_list_of_strings_exit_2(tmp_path, capsys, captions):
    corpus = tmp_path / "corpus.jsonl"
    row = {"id": "a", "video": "v", "captions": ["a red ball"], "split": "train"}
    corpus.write_text(json.dumps(row) + "\n" + json.dumps(dict(row, captions=captions)) + "\n")
    assert main(["build-vocab", "--corpus", str(corpus), "--out", str(tmp_path / "v.json")]) == 2
    assert f"{corpus}:2: captions must be a list of strings" in _one_data_error(capsys)


@pytest.mark.parametrize(
    "key, value", [("id", ["a"]), ("id", 7), ("video", None), ("video", {"path": "v"}), ("split", 1), ("split", None)]
)
def test_corpus_fields_that_are_not_strings_exit_2(tmp_path, capsys, key, value):
    # str() used to load ["a"] as the id "['a']" and null as the video path "None"
    corpus = tmp_path / "corpus.jsonl"
    row = {"id": "a", "video": "v", "captions": ["a red ball"], "split": "train"}
    corpus.write_text(json.dumps(dict(row, id="b")) + "\n" + json.dumps(dict(row, **{key: value})) + "\n")
    assert main(["build-vocab", "--corpus", str(corpus), "--out", str(tmp_path / "v.json")]) == 2
    assert _one_data_error(capsys) == f"data error: {corpus}:2: {key} must be a string, got {value!r}"


@pytest.mark.parametrize("drop", ["model", "params"])
def test_checkpoint_manifest_missing_a_key_exits_2(env, tmp_path, capsys, drop):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest[drop]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    assert f"'{drop}'" in _one_data_error(capsys)


def test_checkpoint_entry_of_the_wrong_shape_exits_2(env, tmp_path, capsys):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    entry = next(e for e in manifest["params"] if e["name"] == "decoder.final_norm.gamma")
    entry["shape"] = [4, 8]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    line = _one_data_error(capsys)
    assert '"name": "decoder.final_norm.gamma", "shape": [4, 8]' in line, line
    assert 'the model\'s layout has {"name": "decoder.final_norm.gamma", "shape": [32]' in line, line


def _set_first_entry(key, value):
    def edit(manifest):
        manifest["params"][0][key] = value
        return manifest

    return edit


def _share_offset(manifest):
    # beta and gamma have one width: at one offset, gamma would load beta's values
    entries = {e["name"]: e for e in manifest["params"]}
    entries["decoder.final_norm.gamma"]["offset"] = entries["decoder.final_norm.beta"]["offset"]
    return manifest


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda manifest: [manifest], "not a recognized checkpoint directory"),
        (lambda manifest: dict(manifest, params=[5]), "manifest params[0] is 5, the model's layout has {"),
        (lambda manifest: dict(manifest, params=5), "params a list"),
        (lambda manifest: dict(manifest, model=None), "model must be an object"),
        (_set_first_entry("offset", "0"), '"offset": "0", "count": 48}, the model\'s layout has'),
        (_set_first_entry("count", -1), '"count": -1}, the model\'s layout has'),
        (_set_first_entry("name", ["x"]), 'manifest params[0] is {"name": ["x"]'),
        (lambda manifest: dict(manifest, params=manifest["params"] + manifest["params"][:1]),
         "the model's layout has missing"),
        (_set_first_entry("count", 47), '"count": 47}, the model\'s layout has {"name": "concept_head.fc1.bias", '
         '"shape": [48], "offset": 0, "count": 48}'),
        (_share_offset, 'is {"name": "decoder.final_norm.gamma"'),
        (_set_first_entry("count", 48.0), '"count": 48.0}, the model\'s layout has'),
        (_set_first_entry("offset", True), '"offset": true, "count": 48}, the model\'s layout has'),
        (_set_first_entry("offset", False), '"offset": false, "count": 48}, the model\'s layout has'),
    ],
    ids=[
        "list", "entry-not-object", "params-not-list", "model-null", "string-offset", "negative-count", "list-name",
        "duplicate-name", "count-not-shape", "shared-offset", "float-count", "true-offset", "false-offset",
    ],
)
def test_malformed_checkpoint_manifest_exits_2(env, tmp_path, capsys, edit, message):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    (ckpt / "manifest.json").write_text(json.dumps(edit(manifest)))
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    line = _one_data_error(capsys)
    assert line.startswith(f"data error: {ckpt}: ") and message in line, line


_BAD_WORD_TABLES = ["{}", '{"words": ["red",', '{"words": ["red", 5]}', '{"words": "red"}', '{"words": ["red", "red"]}']
_BAD_CONCEPT_COUNTS = ['"red"', '{"red": "3"}', '{"red": 1.5}']


@pytest.mark.parametrize(
    "name, text",
    [(name, text) for name in ("vocab.json", "concepts.json") for text in _BAD_WORD_TABLES]
    + [("concepts.json", f'{{"words": ["red"], "counts": {counts}}}') for counts in _BAD_CONCEPT_COUNTS],
)
def test_malformed_vocabulary_file_exits_2(env, tmp_path, capsys, name, text):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    (ckpt / name).write_text(text)
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    assert _one_data_error(capsys).startswith(f"data error: {ckpt / name}")


def test_invalid_json_in_corpus_names_file_and_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    row = {"id": "a", "video": "v", "captions": ["a red ball"], "split": "train"}
    corpus.write_text(json.dumps(row) + "\n\n" + '{"id": "b", ' + "\n")
    assert main(["build-vocab", "--corpus", str(corpus), "--out", str(tmp_path / "v.json")]) == 2
    assert _one_data_error(capsys).startswith(f"data error: {corpus}:3: invalid JSON: ")


def test_invalid_json_in_predictions_names_file_and_line(env, tmp_path, capsys):
    corpus = env["data"] / "corpus.jsonl"
    ref_id = json.loads(corpus.read_text().splitlines()[0])["id"]
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": ref_id, "caption": "a red ball"}) + "\n{id: 5}\n")
    assert main(["score", "--preds", str(preds), "--refs", str(corpus)]) == 2
    line = _one_data_error(capsys)
    assert line == f"data error: {preds}:2: invalid JSON: Expecting property name enclosed in double quotes (column 2)"


def test_invalid_json_in_manifest_names_file_and_line(env, tmp_path, capsys):
    import shutil

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    lines = (ckpt / "manifest.json").read_text().splitlines()
    assert lines[3].startswith('  "step": ')
    lines[3] += ","  # a second comma after the step
    (ckpt / "manifest.json").write_text("\n".join(lines))
    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 2
    assert _one_data_error(capsys).startswith(f"data error: {ckpt / 'manifest.json'}:4: invalid JSON: ")


def test_prediction_line_that_is_not_an_object_exits_2(env, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    preds.write_text("5\n")
    assert main(["score", "--preds", str(preds), "--refs", str(env["data"] / "corpus.jsonl")]) == 2
    assert f"{preds}:1:" in _one_data_error(capsys)


@pytest.mark.parametrize("caption", [5, None, ["a", "red", "ball"]])
def test_prediction_caption_that_is_not_a_string_exits_2(env, tmp_path, capsys, caption):
    corpus = env["data"] / "corpus.jsonl"
    ref_id = json.loads(corpus.read_text().splitlines()[0])["id"]
    preds = tmp_path / "preds.jsonl"
    rows = [{"id": ref_id, "caption": "a red ball"}, {"id": ref_id, "caption": caption}]
    preds.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["score", "--preds", str(preds), "--refs", str(corpus)]) == 2
    assert f"{preds}:2: caption must be a string" in _one_data_error(capsys)


def test_score_refs_with_a_repeated_id_exits_2(tmp_path, capsys):
    # the prediction for 'a' would otherwise be scored against one of the
    # two records' captions only
    refs = tmp_path / "refs.jsonl"
    rows = [{"id": "a", "video": "v", "captions": [caption], "split": "test"} for caption in ("a red ball", "a blue cube")]
    refs.write_text("".join(json.dumps(row) + "\n" for row in rows))
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "a", "caption": "a red ball"}) + "\n")
    assert main(["score", "--preds", str(preds), "--refs", str(refs)]) == 2
    assert _one_data_error(capsys) == f"data error: {refs}:2: id 'a' repeats line 1"


@pytest.mark.parametrize("row_id", [["a"], {"a": 1}, 5])
def test_prediction_id_that_is_not_a_string_exits_2(tmp_path, capsys, row_id):
    # corpus ids are strings; a list id used to raise TypeError: unhashable type
    refs = tmp_path / "refs.jsonl"
    refs.write_text(json.dumps({"id": "5", "video": "v", "captions": ["a red ball"], "split": "test"}) + "\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": row_id, "caption": "a red ball"}) + "\n")
    assert main(["score", "--preds", str(preds), "--refs", str(refs)]) == 2
    assert _one_data_error(capsys) == f"data error: {preds}:1: id must be a string, got {row_id!r}"


def test_score_preds_with_a_repeated_id_exits_2(tmp_path, capsys):
    # a second row for 'a' would otherwise be scored as a second item
    refs = tmp_path / "refs.jsonl"
    refs.write_text(json.dumps({"id": "a", "video": "v", "captions": ["a red ball"], "split": "test"}) + "\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"id": "a", "caption": caption}) + "\n" for caption in ("a red ball", "a blue cube")))
    assert main(["score", "--preds", str(preds), "--refs", str(refs)]) == 2
    assert _one_data_error(capsys) == f"data error: {preds}:2: id 'a' repeats line 1"


def test_build_vocab(env, tmp_path, capsys):
    out = tmp_path / "vocab.json"
    corpus = env["data"] / "corpus.jsonl"
    assert main(["build-vocab", "--corpus", str(corpus), "--concepts", "8", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["words"][:4] == ["<pad>", "<sos>", "<eos>", "<unk>"]
    assert len(payload["concepts"]) == 8

    # more concepts than distinct content words in this tiny corpus
    assert main(["build-vocab", "--corpus", str(corpus), "--concepts", "64", "--out", str(out)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -1])
def test_build_vocab_refuses_fewer_than_one_concept(env, tmp_path, capsys, count):
    out = tmp_path / "vocab.json"
    corpus = env["data"] / "corpus.jsonl"
    assert main(["build-vocab", "--corpus", str(corpus), "--concepts", str(count), "--out", str(out)]) == 2
    assert _one_data_error(capsys) == f"data error: concept count must be at least 1, got {count}"
    assert not out.exists()


def test_caption_command(env, capsys):
    video = env["data"] / "videos" / "vid0001.vvid"
    rc = main(["caption", "--ckpt", str(env["ckpt"]), "--video", str(video), "--decode", "greedy"])
    assert rc == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(row) == {"caption", "tokens", "logprob"}
    assert isinstance(row["caption"], str)
    assert row["logprob"] <= 0.0


def test_caption_max_len_beyond_the_decoder_positions_exits_2(env, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("step built")

    # the request is rejected before a step is built, not after 32 steps
    monkeypatch.setattr(vidcap.decoder.CaptionDecoder, "step_fn", unreachable)
    video = env["data"] / "videos" / "vid0001.vvid"
    argv = ["caption", "--ckpt", str(env["ckpt"]), "--video", str(video), "--decode", "greedy", "--max-len", "33"]
    assert main(argv) == 2
    assert _one_data_error(capsys) == "data error: max length 33 exceeds 32 decoder positions"


def test_caption_max_len_beyond_the_decoder_positions_exits_2_before_reading(env, capsys, monkeypatch):
    reads, read = [], vidcap.cli.read_vvid

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(vidcap.cli, "read_vvid", counting_read)
    video = env["data"] / "videos" / "vid0001.vvid"
    argv = ["caption", "--ckpt", str(env["ckpt"]), "--video", str(video), "--decode", "greedy", "--max-len", "100"]
    assert main(argv) == 2
    assert _one_data_error(capsys) == "data error: max length 100 exceeds 32 decoder positions"
    assert reads == []


def test_evaluate_max_len_beyond_the_decoder_positions_exits_2_before_reading(env, tmp_path, capsys, monkeypatch):
    reads, read = [], vidcap.evaluate.read_vvid

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(vidcap.evaluate, "read_vvid", counting_read)
    argv = ["evaluate", "--ckpt", str(env["ckpt"]), "--corpus", str(env["data"] / "corpus.jsonl"),
            "--decode", "greedy", "--max-len", "33", "--out", str(tmp_path / "eval")]
    assert main(argv) == 2
    assert _one_data_error(capsys) == "data error: max length 33 exceeds 32 decoder positions"
    assert reads == []
    assert not (tmp_path / "eval").exists()


def test_evaluate_full_and_partial(env, tmp_path, capsys):
    out = tmp_path / "eval"
    corpus = env["data"] / "corpus.jsonl"
    rc = main(
        ["evaluate", "--ckpt", str(env["ckpt"]), "--corpus", str(corpus),
         "--decode", "greedy", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["partial"] is False
    assert report["counts"]["items"] == 6
    preds = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
    assert len(preds) == 6
    capsys.readouterr()

    # corrupt one video: the run degrades to partial and exits 2
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "videos").mkdir()
    for p in (env["data"] / "videos").iterdir():
        (broken / "videos" / p.name).write_bytes(p.read_bytes())
    (broken / "corpus.jsonl").write_bytes(corpus.read_bytes())
    (broken / "videos" / "vid0002.vvid").write_bytes(b"junk")
    rc = main(
        ["evaluate", "--ckpt", str(env["ckpt"]), "--corpus", str(broken / "corpus.jsonl"),
         "--decode", "greedy", "--out", str(tmp_path / "eval2")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "partial: 1 items skipped" in err
    report = json.loads((tmp_path / "eval2" / "report.json").read_text())
    assert report["partial"] is True
    assert report["errors"][0]["id"] == "vid0002"
    assert report["counts"]["items"] == 5


def test_score_command(env, tmp_path, capsys):
    corpus = env["data"] / "corpus.jsonl"
    rows = [json.loads(l) for l in corpus.read_text().splitlines()]
    preds = tmp_path / "preds.jsonl"
    with preds.open("w") as fh:
        for row in rows[:3]:
            fh.write(json.dumps({"id": row["id"], "caption": row["captions"][0]}) + "\n")

    out = tmp_path / "report.json"
    assert main(["score", "--preds", str(preds), "--refs", str(corpus), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bleu4"] == pytest.approx(100.0)
    assert report["counts"]["items"] == 3

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "ghost", "caption": "a"}) + "\n")
    assert main(["score", "--preds", str(bad), "--refs", str(corpus)]) == 2
    bad.write_text(json.dumps({"caption": "a"}) + "\n")
    assert main(["score", "--preds", str(bad), "--refs", str(corpus)]) == 2
    bad.write_text("")
    assert main(["score", "--preds", str(bad), "--refs", str(corpus)]) == 2
    assert main(["score", "--preds", str(tmp_path / "nofile.jsonl"), "--refs", str(corpus)]) == 2
    capsys.readouterr()


def test_numeric_failure_exits_3(env, tmp_path, monkeypatch, capsys):
    import numpy as np

    real = vidcap.autodiff.bce_with_logits

    def poisoned(logits, targets):
        out = real(logits, targets)
        out.data = np.full_like(out.data, np.nan)
        return out

    monkeypatch.setattr(vidcap.autodiff, "bce_with_logits", poisoned)
    rc = main(["train", "--config", str(env["cfg"]), "--data", str(env["data"]),
               "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_caption_with_nan_weight_exits_3(env, tmp_path, capsys):
    import shutil

    import numpy as np

    ckpt = tmp_path / "ckpt"
    shutil.copytree(env["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    entry = next(e for e in manifest["params"] if e["name"] == "decoder.out_proj.weight")
    raw = np.frombuffer((ckpt / "params.bin").read_bytes(), dtype=np.float32).copy()
    raw[entry["offset"]] = np.nan
    (ckpt / "params.bin").write_bytes(raw.tobytes())

    video = env["data"] / "videos" / "vid0001.vvid"
    assert main(["caption", "--ckpt", str(ckpt), "--video", str(video), "--decode", "greedy"]) == 3
    assert "numeric failure" in capsys.readouterr().err
