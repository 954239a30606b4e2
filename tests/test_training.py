"""Training-loop tests: loss composition, clipping, checkpoints, model pick."""

import functools
import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import vidcap.autodiff
import vidcap.training
from vidcap.autodiff import Tape, Tensor, backward
from vidcap.decoder import DecoderConfig, GenerationRequest
from vidcap.encoder import EncoderConfig, VideoEncoder
from vidcap.model import CaptionModel
from vidcap.nn import Module
from vidcap.optim import AdamWState, adamw_step, clip_global_norm
from vidcap.synth import SyntheticSpec, generate_synthetic_dataset
from vidcap.textproc import EOS_ID, config_from_table
from vidcap.training import (
    TrainConfig,
    TrainingDiverged,
    _finite_or_die,
    joint_loss,
    load_checkpoint,
    load_vocab_and_concepts,
    save_checkpoint,
    token_cache,
    train,
)
from vidcap.video import VideoClip

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
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    spec = SyntheticSpec(videos=6, frames=8, height=12, width=12, seed=3)
    generate_synthetic_dataset(spec, root)
    return root


@pytest.fixture(scope="module")
def run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = TrainConfig(
        encoder=SMALL_ENCODER,
        lambda_bce=0.1,
        batch_size=4,
        max_steps=200,
        pretrain_steps=30,
        seed=0,
    )
    return train(cfg, dataset, out), cfg


def test_phase_layout_and_loss_composition(run):
    result, cfg = run
    assert len(result.history) == 230
    assert [h["step"] for h in result.history] == list(range(1, 231))
    for h in result.history[:30]:
        assert h["phase"] == "semantic_pretrain"
        assert h["loss"] == h["bce"]  # phase one optimizes the concept term alone
    for h in result.history[30:]:
        assert h["phase"] == "end_to_end"
        assert abs(h["loss"] - (h["ce"] + cfg.lambda_bce * h["bce"])) < 1e-12


def test_cross_entropy_decreases(run):
    result, _ = run
    ce = [h["ce"] for h in result.history if h["phase"] == "end_to_end"]
    # strictly below the starting value by the 200-step mark
    assert ce[-1] < ce[0]
    assert np.mean(ce[-10:]) < ce[0]
    assert all(math.isfinite(v) for v in ce)


def test_checkpoint_round_trip_bitwise(run):
    result, cfg = run
    manifest = json.loads((result.checkpoint_dir / "manifest.json").read_text())
    names = [e["name"] for e in manifest["params"]]
    assert names == sorted(names)
    offsets = [e["offset"] for e in manifest["params"]]
    counts = [e["count"] for e in manifest["params"]]
    assert offsets == [sum(counts[:i]) for i in range(len(counts))]

    reloaded, mf = load_checkpoint(result.checkpoint_dir)
    assert mf["step"] == cfg.pretrain_steps + cfg.max_steps == result.history[-1]["step"]
    orig = dict(result.model.named_parameters())
    back = dict(reloaded.named_parameters())
    assert set(orig) == set(back)
    for name, p in orig.items():
        want = p.data.astype(np.float32).astype(np.float64)
        assert np.array_equal(back[name].data, want), name

    vocab, concepts = load_vocab_and_concepts(result.checkpoint_dir)
    assert len(vocab) == len(result.vocab)
    assert concepts.words == result.concepts.words


def _small_model(seed=0):
    enc = EncoderConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in SMALL_ENCODER.items()})
    dec = DecoderConfig(vocab_size=12, hidden=SMALL_ENCODER["token_dim"], concept_dim=8)
    return CaptionModel(enc, dec, seed=seed)


def _loss_and_grads(model, clips, captions, labels):
    params = model.parameters()
    with Tape() as tape:
        total, _, _ = joint_loss(model, clips, captions, labels, 0.1)
        grads = backward(total, tape)
    return float(total.data), {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}


def test_batched_joint_loss_equals_mean_of_per_sample_losses():
    # eval mode, so dropout is off: one graph over the batch must give the
    # mean of the per-sample losses, and of their gradients
    model = _small_model()
    rng = np.random.default_rng(30)
    clips = [VideoClip(rng.random(shape)) for shape in ((8, 12, 12, 3), (8, 12, 16, 3), (8, 12, 12, 3))]
    captions = [np.array([4, 5, 6, 2]), np.array([7, 2]), np.array([8, 9, 10, 11, 4, 2])]
    labels = [(rng.random(8) > 0.5).astype(np.float64) for _ in clips]
    singles = [_loss_and_grads(model, clips[i : i + 1], captions[i : i + 1], labels[i : i + 1]) for i in range(3)]
    for b in (1, 3):
        loss, grads = _loss_and_grads(model, clips[:b], captions[:b], labels[:b])
        assert abs(loss - np.mean([single[0] for single in singles[:b]])) < 1e-12, b
        scale = max(float(np.abs(g).max()) for g in grads.values())
        for name, g in grads.items():
            want = np.mean([single[1][name] for single in singles[:b]], axis=0)
            assert np.abs(g - want).max() <= 1e-10 * scale, (b, name)


def test_token_cache_matches_per_clip_encoding():
    model = _small_model()
    rng = np.random.default_rng(31)
    clips = [VideoClip(rng.random(shape)) for shape in ((8, 12, 12, 3), (8, 12, 16, 3)) * 3]
    cache = token_cache(model, clips, batch_size=2)
    assert cache.shape == (6, 4, SMALL_ENCODER["token_dim"])
    for clip, tokens in zip(clips, cache):
        assert np.array_equal(tokens, model.encoder([clip]).data[0])


def test_token_cache_holds_at_most_a_batch_over_a_stream_of_cycling_shapes(monkeypatch):
    model = _small_model()
    rng = np.random.default_rng(32)
    clips = [VideoClip(rng.random(shape)) for shape in ((8, 12, 12, 3), (8, 12, 16, 3), (8, 16, 12, 3)) * 3]
    yielded, encoded, held = [], [], []
    encode = VideoEncoder.__call__

    def counted_encode(self, chunk, *args, **kwargs):
        held.append(len(yielded) - len(encoded))  # yielded clips not yet encoded
        encoded.extend(chunk)
        return encode(self, chunk, *args, **kwargs)

    def stream():
        for clip in clips:
            yielded.append(clip)
            yield clip

    monkeypatch.setattr(VideoEncoder, "__call__", counted_encode)
    cache = token_cache(model, stream(), batch_size=2)
    assert max(held) <= 2 and len(encoded) == len(clips)
    for clip, tokens in zip(clips, cache):
        assert np.array_equal(tokens, encode(model.encoder, [clip]).data[0])


def test_manifest_keeps_one_top_level_key_per_line_and_old_manifests_load(tmp_path):
    model = _small_model(seed=2)
    ckpt = save_checkpoint(tmp_path / "ck", model, step=7, metric_history=[{"step": 7, "loss": 0.5}])
    text = (ckpt / "manifest.json").read_text()
    manifest = json.loads(text)
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and lines[3] == '  "step": 7,'
    assert [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:-1]] == [{k: v} for k, v in manifest.items()]

    # the same checkpoint with the manifest as the indented writer laid it out
    old = tmp_path / "old"
    old.mkdir()
    (old / "params.bin").write_bytes((ckpt / "params.bin").read_bytes())
    (old / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    new_model, new_manifest = load_checkpoint(ckpt)
    old_model, old_manifest = load_checkpoint(old)
    assert new_manifest == old_manifest
    old_params = dict(old_model.named_parameters())
    for name, p in new_model.named_parameters():
        assert p.data.tobytes() == old_params[name].data.tobytes(), name


def test_checkpoint_errors(tmp_path):
    enc = EncoderConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in SMALL_ENCODER.items()})
    dec = DecoderConfig(vocab_size=12, hidden=SMALL_ENCODER["token_dim"], layers=1, heads=2, concept_dim=8)
    model = CaptionModel(enc, dec, seed=0)
    ckpt = save_checkpoint(tmp_path / "ck", model)

    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["version"] = 99
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="not a recognized checkpoint"):
        load_checkpoint(ckpt)

    manifest["version"] = 1
    dropped = manifest["params"].pop()
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"\] is missing, the model's layout has \{\"name\": \"" + dropped["name"]):
        load_checkpoint(ckpt)

    manifest["params"].append(dropped)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    raw = (ckpt / "params.bin").read_bytes()
    # too short, values after the last one, and a length that is not whole float32s
    for blob in (raw[:-8], raw + bytes(400), raw + bytes(2)):
        (ckpt / "params.bin").write_bytes(blob)
        with pytest.raises(ValueError, match=f"params.bin holds {len(blob)} bytes, not the {len(raw)} of its layout"):
            load_checkpoint(ckpt)


def _assert_parameters_view_the_model_vector(model):
    # a parameter whose data was rebound (p.data = ...) would train apart
    # from the vector, and a checkpoint would save its stale stretch
    walked = sorted(model.named_parameters())
    assert [(name, id(p)) for name, _, p in model.layout] == [(name, id(p)) for name, p in walked]
    assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
    offset = 0
    for name, at, p in model.layout:
        assert at == offset, name
        assert p.data.base is model.flat, name
        assert p.data.ctypes.data == model.flat.ctypes.data + at * model.flat.itemsize, name
        assert p.data.flags.c_contiguous, name
        offset += p.data.size
    assert offset == model.flat.size


def test_parameters_view_the_model_vector_for_the_models_life(dataset, tmp_path):
    model = _small_model()
    _assert_parameters_view_the_model_vector(model)
    _assert_parameters_view_the_model_vector(load_checkpoint(save_checkpoint(tmp_path / "ck", model))[0])
    for phase, pretrain_steps, max_steps in (("semantic_pretrain", 2, 0), ("end_to_end", 0, 2)):
        cfg = TrainConfig(encoder=SMALL_ENCODER, batch_size=2, pretrain_steps=pretrain_steps,
                          max_steps=max_steps, phase=phase, seed=2)
        result = train(cfg, dataset, tmp_path / phase)
        assert len(result.history) == 2
        _assert_parameters_view_the_model_vector(result.model)
        _assert_parameters_view_the_model_vector(load_checkpoint(result.checkpoint_dir)[0])


def _per_entry_checkpoint(model):
    """Manifest entries and params.bin bytes as the checkpoint writer made
    them one parameter at a time, before the model owned its vector."""
    entries, blobs, offset = [], [], 0
    for name, p in sorted(model.named_parameters()):
        flat = np.ascontiguousarray(p.data, dtype=np.float32).ravel()
        entries.append({"name": name, "shape": list(p.data.shape), "offset": offset, "count": int(flat.size)})
        blobs.append(flat.tobytes())
        offset += flat.size
    return entries, b"".join(blobs)


def test_params_bin_is_the_per_entry_writers_bytes_and_shows_in_place_writes(run, tmp_path):
    result, _ = run
    manifest = json.loads((result.checkpoint_dir / "manifest.json").read_text())
    want = _per_entry_checkpoint(result.model)
    assert (manifest["params"], (result.checkpoint_dir / "params.bin").read_bytes()) == want

    # the benchmark's and the evaluation tests' checkpoints are written this way
    model = _small_model(seed=4)
    for name, p in model.parameters().items():
        if name.endswith(".weight"):
            p.data *= 5.0
    model.parameters()["decoder.out_proj.bias"].data[2] = -50.0
    ckpt = save_checkpoint(tmp_path / "ck", model)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    blob = (ckpt / "params.bin").read_bytes()
    assert (manifest["params"], blob) == _per_entry_checkpoint(model)
    entry = next(e for e in manifest["params"] if e["name"] == "decoder.out_proj.bias")
    assert np.frombuffer(blob, dtype=np.float32)[entry["offset"] + 2] == -50.0
    reloaded = load_checkpoint(ckpt)[0]
    assert reloaded.parameters()["decoder.out_proj.bias"].data[2] == -50.0
    assert reloaded.flat.tobytes() == model.flat.astype(np.float32).astype(np.float64).tobytes()


def test_lambda_zero_reduces_to_cross_entropy(dataset, tmp_path):
    cfg = TrainConfig(
        encoder=SMALL_ENCODER,
        lambda_bce=0.0,
        batch_size=2,
        max_steps=5,
        pretrain_steps=0,
        phase="end_to_end",
        seed=1,
    )
    result = train(cfg, dataset, tmp_path / "out")
    assert len(result.history) == 5
    for h in result.history:
        assert h["loss"] == h["ce"]


def test_post_clip_norm_never_exceeds_limit(dataset, tmp_path, monkeypatch):
    post_norms = []
    real = vidcap.training.clip_global_norm

    def recording(grads, limit):
        clipped, norm = real(grads, limit)
        sq = float((clipped * clipped).sum())
        post_norms.append(math.sqrt(sq))
        return clipped, norm

    monkeypatch.setattr(vidcap.training, "clip_global_norm", recording)
    cfg = TrainConfig(
        encoder=SMALL_ENCODER, batch_size=2, max_steps=6, pretrain_steps=4, seed=2
    )
    train(cfg, dataset, tmp_path / "out")
    assert len(post_norms) == 10
    assert all(n <= cfg.clip_norm + 1e-12 for n in post_norms)


def test_divergence_aborts_with_dump(dataset, tmp_path, monkeypatch):
    real = vidcap.autodiff.bce_with_logits

    def poisoned(logits, targets):
        out = real(logits, targets)
        out.data = np.full_like(out.data, np.nan)
        return out

    monkeypatch.setattr(vidcap.autodiff, "bce_with_logits", poisoned)
    cfg = TrainConfig(
        encoder=SMALL_ENCODER, batch_size=2, pretrain_steps=2, max_steps=0,
        phase="semantic_pretrain", seed=0,
    )
    out = tmp_path / "out"
    with pytest.raises(TrainingDiverged, match="non-finite loss at step 1"):
        train(cfg, dataset, out)
    dump = json.loads((out / "abort_dump.json").read_text())
    assert dump["step"] == 1
    assert dump["phase"] == "semantic_pretrain"


def test_finite_or_die_passes_finite_values(tmp_path):
    _finite_or_die(0.0, "loss", {"step": 3}, tmp_path)
    assert not (tmp_path / "abort_dump.json").exists()
    with pytest.raises(TrainingDiverged, match="non-finite grad at step 3"):
        _finite_or_die(float("inf"), "grad", {"step": 3}, tmp_path)
    assert (tmp_path / "abort_dump.json").exists()


def test_config_validation():
    with pytest.raises(ValueError, match="phase"):
        TrainConfig(phase="warmup")
    with pytest.raises(ValueError, match="batch size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="hyperparameters"):
        TrainConfig(lr=0.0)
    for field, value, want in [
        ("lr", math.nan, "lr must be finite and positive, got nan"),
        ("lr", math.inf, "lr must be finite and positive, got inf"),
        ("lambda_bce", math.inf, "lambda_bce must be finite and non-negative, got inf"),
        ("lambda_bce", math.nan, "lambda_bce must be finite and non-negative, got nan"),
        ("clip_norm", math.inf, "clip_norm must be finite and positive, got inf"),
        ("clip_norm", -math.inf, "clip_norm must be finite and positive, got -inf"),
    ]:
        with pytest.raises(ValueError, match="hyperparameters: " + want):
            TrainConfig(**{field: value})
    with pytest.raises(ValueError, match="unknown training config keys"):
        config_from_table(TrainConfig, {"lr": 0.1, "momentum": 0.9}, "training config")


def test_max_len_beyond_the_decoder_positions_is_refused_before_any_sample(dataset, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a sample was read")

    monkeypatch.setattr(vidcap.training, "read_vvid", refuse)
    cfg = TrainConfig(encoder=SMALL_ENCODER, decoder={"max_positions": 32}, max_len=40, max_steps=3, pretrain_steps=3)
    with pytest.raises(ValueError, match="max_len 40 needs 41 decoder positions, more than its 32"):
        train(cfg, dataset, tmp_path)
    assert not (tmp_path / "train_log.jsonl").exists()


def test_config_resolution():
    cfg = TrainConfig(encoder=SMALL_ENCODER, decoder={"hidden": 16, "heads": 2, "layers": 1})
    enc = cfg.resolve_encoder()
    assert enc.frames == 8 and enc.patch == (2, 4, 4)
    dec = cfg.resolve_decoder(vocab_size=30, concept_dim=16)
    assert dec.vocab_size == 30 and dec.hidden == 16 and dec.concept_dim == 16

    assert TrainConfig().resolve_encoder() == EncoderConfig()
    with pytest.raises(ValueError, match="unknown EncoderConfig keys"):
        TrainConfig(encoder={"frames": 8, "fps": 30}).resolve_encoder()
    with pytest.raises(ValueError, match="config must be"):
        TrainConfig(encoder=42).resolve_encoder()
    with pytest.raises(ValueError, match="config must be 'desk', 'paper' or a field table"):
        TrainConfig(decoder="big").resolve_decoder(vocab_size=30, concept_dim=16)
    with pytest.raises(ValueError, match="unknown DecoderConfig keys"):
        TrainConfig(decoder={"hiddn": 8}).resolve_decoder(vocab_size=30, concept_dim=16)
    paper = TrainConfig(decoder="paper").resolve_decoder(vocab_size=30, concept_dim=768)
    assert paper == DecoderConfig.paper(30)


def test_checkpoint_blob_and_stored_adapter_mode(tmp_path):
    model = _small_model(seed=4)
    assert model.decoder.adapter is not None  # concept width 8, hidden 32
    ckpt = save_checkpoint(tmp_path / "ck", model)
    plain, _ = load_checkpoint(ckpt)
    # the JSON lists of the manifest come back as the tuples of the configs
    assert plain.enc_cfg == model.enc_cfg and plain.dec_cfg == model.dec_cfg
    assert isinstance(plain.enc_cfg.patch, tuple)

    # a manifest written while the adapter mode was a setting
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["model"]["decoder"]["adapter"] = "auto"
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    auto, _ = load_checkpoint(ckpt)
    assert auto.dec_cfg == model.dec_cfg
    want = dict(plain.named_parameters())
    got = dict(auto.named_parameters())
    assert set(got) == set(want)
    for name, p in got.items():
        assert p.data.tobytes() == want[name].data.tobytes(), name

    manifest["model"]["decoder"]["adapter"] = "linear"
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="adapter mode 'linear' is no longer supported"):
        load_checkpoint(ckpt)


# sha256 of the sorted (name, shape) list of each config, recorded while
# every layer still listed its parameters by hand; the names are the
# checkpoint format
_PINNED_CONFIGS = [
    ({}, {}, 143, "50434c00b4ac572d43e3f8f8ac4a2b4fba911bcd0b58efe4ffa8e4b95f4f02e9"),
    (
        {"qkv_bias": False, "concept_count": 32},
        {"concept_dim": 32},
        129,
        "5de6e771b69c5818bf2bffa0538ccca53a8094843187cfae08fe1c8acf92d647",
    ),
    (
        {"depths": (2, 2, 2), "heads": (2, 4, 8)},
        {"layers": 3},
        206,
        "c67e0de7ccd080a3d3e72972f8b56d2e69b56ff84077133bc3d0a736b0eec4a5",
    ),
]


@pytest.mark.parametrize("enc, dec, count, digest", _PINNED_CONFIGS)
def test_parameter_names_and_shapes_are_pinned(enc, dec, count, digest):
    model = CaptionModel(EncoderConfig(**enc), DecoderConfig(vocab_size=40, **dec))
    pairs = sorted((name, list(p.data.shape)) for name, p in model.named_parameters())
    assert len(pairs) == count
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest


@pytest.mark.parametrize("enc, dec", [config[:2] for config in _PINNED_CONFIGS])
def test_each_pinned_config_loads_what_it_saved(tmp_path, enc, dec):
    model = CaptionModel(EncoderConfig(**enc), DecoderConfig(vocab_size=40, **dec))
    # values no init draws, so only params.bin can put them in the loaded model
    model.flat[...] = np.random.default_rng(5).standard_normal(model.flat.size)
    loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "ck", model))
    assert (loaded.enc_cfg, loaded.dec_cfg) == (model.enc_cfg, model.dec_cfg)
    assert loaded.flat.tobytes() == model.flat.astype(np.float32).astype(np.float64).tobytes()


def test_joint_step_trains_exactly_the_named_parameters():
    # a layer the walk misses would still get a gradient here, but no
    # optimizer update and no checkpoint entry
    model = _small_model()
    rng = np.random.default_rng(31)
    clips = [VideoClip(rng.random((8, 12, 12, 3))) for _ in range(2)]
    labels = [(rng.random(8) > 0.5).astype(np.float64) for _ in clips]
    with Tape() as tape:
        total, _, _ = joint_loss(model, clips, [np.array([4, 5, 2]), np.array([6, 2])], labels, 0.1, rng)
        grads = backward(total, tape)
    params = model.parameters()
    assert len({id(p) for p in params.values()}) == len(params)
    assert {id(t) for t in grads} == {id(p) for p in params.values()}


def _desk_batch(seed):
    """A desk-preset model and one train_desk-shaped batch: 8 clips of
    16x16 frames, captions of 9 words and EOS."""
    rng = np.random.default_rng(seed)
    enc = EncoderConfig()
    model = CaptionModel(enc, DecoderConfig(vocab_size=40, concept_dim=enc.concept_count), seed=seed)
    clips = [VideoClip(rng.random((enc.frames, 16, 16, 3))) for _ in range(8)]
    captions = [np.append(rng.integers(4, 40, size=9), EOS_ID) for _ in clips]
    labels = [(rng.random(enc.concept_count) > 0.5).astype(np.float64) for _ in clips]
    return model, clips, captions, labels


def test_no_backward_closure_holds_a_tensor():
    # a closure that captured a Tensor would keep its array, and whatever
    # else it holds, alive until the tape dies
    model, clips, captions, labels = _desk_batch(36)
    with Tape() as tape:
        joint_loss(model, clips, captions, labels, 0.1, np.random.default_rng(1))
    assert len(tape.nodes) == 251
    for node in tape.nodes:
        for cell in node.backward.__closure__ or ():
            value = cell.cell_contents
            held = value if isinstance(value, (list, tuple)) else (value,)
            assert not any(isinstance(v, Tensor) for v in held), node.op


# the traced memory that backward, clipping and AdamW may add to what the
# forward left: less than one gradient vector of this model (83,196
# float64, 666 KB); while nodes held their input Tensors the rise was 2.0 MB
STEP_SLACK = 512 * 1024


def test_backward_clip_and_adamw_stay_within_the_memory_the_forward_left():
    # backward frees each node's saved arrays as it goes, so the gradients
    # of a desk joint step take the place of the activations they came from
    model, clips, captions, labels = _desk_batch(35)
    params = list(model.parameters().values())
    state = AdamWState(model.flat.size)
    tracemalloc.start()
    try:
        with Tape() as tape:
            total, _, _ = joint_loss(model, clips, captions, labels, 0.1, np.random.default_rng(1))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = backward(total, tape)
        grad, _ = clip_global_norm(np.concatenate([grads[p].ravel() for p in params]), 0.05)
        adamw_step(model.flat, grad, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert start > 4e6  # the forward's activations were traced
    assert peak <= start + STEP_SLACK, (start, peak)


def test_joint_loss_draws_dropout_only_from_the_generator_it_is_handed(monkeypatch):
    model = _small_model()
    rng = np.random.default_rng(34)
    clips = [VideoClip(rng.random((8, 12, 12, 3))) for _ in range(2)]
    captions = [np.array([4, 5, 2]), np.array([6, 2])]
    labels = [(rng.random(8) > 0.5).astype(np.float64) for _ in clips]

    def loss_and_grads(model, dropout_rng):
        with Tape() as tape:
            total, _, _ = joint_loss(model, clips, captions, labels, 0.1, dropout_rng)
            grads = backward(total, tape)
        return total.data.tobytes(), [grads[p].tobytes() for p in model.parameters().values()]

    drawn = loss_and_grads(model, np.random.default_rng(5))
    assert loss_and_grads(model, np.random.default_rng(5)) == drawn
    # no generator is eval mode: the bits of a model handed a generator
    # whose every dropout rate is zero
    still = CaptionModel(model.enc_cfg, replace(model.dec_cfg, dropout=0.0))
    monkeypatch.setattr(still.concept_head, "logits", functools.partial(still.concept_head.logits, rate=0.0))
    assert model.enc_cfg.hidden_dropout == model.enc_cfg.attn_dropout == 0.0
    plain = loss_and_grads(model, None)
    assert plain == loss_and_grads(still, np.random.default_rng(5))
    assert plain[0] != drawn[0]


def test_the_trained_model_holds_no_generator_and_draws_no_dropout(run):
    # train() keeps its dropout stream to itself, so the model it returns
    # runs in eval mode and repeats its bits
    model = run[0].model
    for m in (model, _small_model()):
        assert not any(isinstance(v, np.random.Generator) for v in vars(m).values())
    clip = VideoClip(np.random.default_rng(33).random((8, 12, 12, 3)))
    outs = []
    for _ in range(2):
        tokens = model.encoder([clip])
        probs = model.concept_probs(tokens)
        outs.append((probs.data.tobytes(), model.caption_logits(probs, [np.array([4, 5, 6])], tokens).data.tobytes()))
    assert outs[0] == outs[1]


def test_both_phases_draw_dropout_from_one_generator_that_train_keeps(dataset, tmp_path, monkeypatch):
    # the rates tell the parts apart: encoder 0.2 and 0.25, decoder 0.3,
    # concept head 0.5 in phase one and 0.1 in phase two
    calls = []
    real = vidcap.autodiff.dropout

    def recording(a, rate, rng):
        calls.append((rate, rng))
        return real(a, rate, rng)

    monkeypatch.setattr(vidcap.autodiff, "dropout", recording)
    encoder = {**SMALL_ENCODER, "hidden_dropout": 0.2, "attn_dropout": 0.25}
    cfg = TrainConfig(encoder=encoder, batch_size=2, pretrain_steps=2, max_steps=2, seed=5)
    train(cfg, dataset, tmp_path / "out")
    # the token cache encodes in eval mode before phase one, and every
    # later call draws
    first = next(i for i, (_, rng) in enumerate(calls) if rng is not None)
    assert first > 0 and all(rng is None for _, rng in calls[:first])
    drawn = calls[first:]
    assert len({id(rng) for _, rng in drawn}) == 1
    assert [rate for rate, _ in drawn[:4]] == [0.5] * 4
    assert {rate for rate, _ in drawn[4:]} == {0.2, 0.25, 0.3, 0.1}


def test_pretrain_steps_train_exactly_the_concept_head(dataset, tmp_path, monkeypatch):
    # phase one's vector holds only the concept_head.* parameters, so its
    # gradient leaves must be exactly those, and the rest keep their init
    leaves = []
    real = vidcap.training.backward

    def recording(total, tape):
        grads = real(total, tape)
        leaves.append({id(t) for t in grads})
        return grads

    monkeypatch.setattr(vidcap.training, "backward", recording)
    cfg = TrainConfig(
        encoder=SMALL_ENCODER, batch_size=2, pretrain_steps=3, max_steps=0, phase="semantic_pretrain", seed=5
    )
    model = train(cfg, dataset, tmp_path / "out").model
    head = {id(p) for name, p in model.named_parameters() if name.startswith("concept_head.")}
    assert len(leaves) == 3 and all(ids == head for ids in leaves)
    init = CaptionModel(model.enc_cfg, model.dec_cfg, seed=cfg.seed).parameters()
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, init[name].data) != name.startswith("concept_head."), name


def test_forward_and_generation_leave_the_parameter_list_unchanged(softmax_outputs):
    model = _small_model()
    before = [(name, p.data.shape) for name, p in model.named_parameters()]
    blocks = sum(len(stage.blocks) for stage in model.encoder.stages)
    clip = VideoClip(np.random.default_rng(32).random((8, 12, 12, 3)))
    model.encoder([clip])
    assert len(softmax_outputs) == blocks
    model.generate_for_clip(clip, GenerationRequest(strategy="beam", max_len=4))
    # generation encodes the clip again, then every decoder step runs each
    # layer's self and cross attention
    steps, rest = divmod(len(softmax_outputs) - 2 * blocks, 2 * len(model.decoder.layers))
    assert steps >= 1 and rest == 0
    assert [(name, p.data.shape) for name, p in model.named_parameters()] == before


def _run_state(obj, prefix=""):
    """(dotted name, value) of every attribute under a model that is not a
    parameter or the parameter vector; the layout by names and offsets."""
    for attr, value in vars(obj).items():
        name = f"{prefix}.{attr}" if prefix else attr
        if isinstance(value, Module):
            yield from _run_state(value, name)
        elif isinstance(value, list) and value and isinstance(value[0], Module):
            for i, item in enumerate(value):
                yield from _run_state(item, f"{name}[{i}]")
        elif attr == "layout":
            yield name, [(n, offset) for n, offset, _ in value]
        elif not isinstance(value, Tensor) and attr != "flat":
            yield name, value


def test_train_changes_nothing_on_the_model_but_its_parameter_values(dataset, tmp_path):
    # the phases pass their concept-head rates with each call, so the model
    # train() returns has the attributes of a fresh one
    cfg = TrainConfig(encoder=SMALL_ENCODER, batch_size=2, pretrain_steps=2, phase="semantic_pretrain", seed=5)
    model = train(cfg, dataset, tmp_path / "out").model
    trained = dict(_run_state(model))
    fresh = dict(_run_state(CaptionModel(model.enc_cfg, model.dec_cfg, seed=cfg.seed)))
    assert trained.keys() == fresh.keys()
    for name, value in fresh.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(trained[name], value), name
        else:
            assert trained[name] == value, name
