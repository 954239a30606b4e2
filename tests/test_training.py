"""Training-loop tests: loss composition, clipping, checkpoints, model pick."""

import hashlib
import json
import math

import numpy as np
import pytest

import vidcap.autodiff
import vidcap.training
from vidcap.autodiff import Tape, backward
from vidcap.decoder import DecoderConfig, GenerationRequest
from vidcap.encoder import EncoderConfig
from vidcap.model import CaptionModel
from vidcap.synth import SyntheticSpec, generate_synthetic_dataset
from vidcap.textproc import config_from_table
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
        assert np.array_equal(tokens, model.video_tokens([clip]).data[0])


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
    with pytest.raises(ValueError, match="missing parameters"):
        load_checkpoint(ckpt)

    manifest["params"].append(dropped)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    raw = (ckpt / "params.bin").read_bytes()
    (ckpt / "params.bin").write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="shorter than manifest"):
        load_checkpoint(ckpt)


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
        sq = sum(float((g * g).sum()) for g in clipped.values())
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
    with pytest.raises(ValueError, match="unknown training config keys"):
        config_from_table(TrainConfig, {"lr": 0.1, "momentum": 0.9}, "training config")


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
@pytest.mark.parametrize(
    "enc, dec, count, digest",
    [
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
    ],
)
def test_parameter_names_and_shapes_are_pinned(enc, dec, count, digest):
    model = CaptionModel(EncoderConfig(**enc), DecoderConfig(vocab_size=40, **dec))
    pairs = sorted((name, list(p.data.shape)) for name, p in model.named_parameters())
    assert len(pairs) == count
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == digest


def test_joint_step_trains_exactly_the_named_parameters():
    # a layer the walk misses would still get a gradient here, but no
    # optimizer update and no checkpoint entry
    model = _small_model()
    model.training = True
    rng = np.random.default_rng(31)
    clips = [VideoClip(rng.random((8, 12, 12, 3))) for _ in range(2)]
    labels = [(rng.random(8) > 0.5).astype(np.float64) for _ in clips]
    with Tape() as tape:
        total, _, _ = joint_loss(model, clips, [np.array([4, 5, 2]), np.array([6, 2])], labels, 0.1)
        grads = backward(total, tape)
    params = model.parameters()
    assert len({id(p) for p in params.values()}) == len(params)
    assert {id(t) for t in grads} == {id(p) for p in params.values()}


def test_forward_and_generation_leave_the_parameter_list_unchanged():
    model = _small_model()
    before = [(name, p.data.shape) for name, p in model.named_parameters()]
    attentions = [block.attn for stage in model.encoder.stages for block in stage.blocks]
    attentions += [a for layer in model.decoder.layers for a in (layer.self_attn, layer.cross_attn)]
    for attn in attentions:
        attn.capture_attention = True
    clip = VideoClip(np.random.default_rng(32).random((8, 12, 12, 3)))
    model.video_tokens([clip])
    model.generate_for_clip(clip, GenerationRequest(strategy="beam", max_len=4))
    assert all(attn.last_attention is not None for attn in attentions)
    assert [(name, p.data.shape) for name, p in model.named_parameters()] == before
