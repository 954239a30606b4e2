"""Two-phase training harness plus checkpoint serialization.

Phase one fits only the concept head against multi-hot word labels while
the encoder stays frozen (its outputs are cached per video, which is what
makes the phase cheap).  Phase two unfreezes everything and optimizes
caption cross-entropy plus a weighted concept term.  Either phase runs a
whole batch as one graph on one tape.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .afs import apply_selection, select_from_clip
from .autodiff import Tape, Tensor, backward
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .model import CaptionModel, model_from_config_blob
from .optim import AdamWState, adamw_step, clip_global_norm
from .textproc import (
    PAD_ID,
    ConceptVocabulary,
    PosTagger,
    Vocab,
    build_concept_vocabulary,
    build_vocab,
    concept_label_vector,
    config_from_table,
    encode_caption,
    load_corpus,
    parse_json,
)
from .video import VideoClip, read_vvid

PHASES = ("semantic_pretrain", "end_to_end", "both")


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass
class TrainConfig:
    encoder: str | dict = "desk"
    decoder: str | dict = "desk"
    lambda_bce: float = 0.1
    lr: float = 1e-3
    batch_size: int = 8
    max_steps: int = 600
    pretrain_steps: int = 200
    clip_norm: float = 0.05
    seed: int = 0
    phase: str = "both"
    max_len: int = 20

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}")
        if self.batch_size < 1 or self.max_steps < 0 or self.pretrain_steps < 0:
            raise ValueError("batch size must be positive, step counts non-negative")
        if self.lambda_bce < 0 or self.lr <= 0 or self.clip_norm <= 0:
            raise ValueError("bad optimizer hyperparameters")
        if self.max_len < 1:
            raise ValueError(f"max_len must be at least 1, got {self.max_len}")

    def resolve_encoder(self) -> EncoderConfig:
        return _resolve_config(self.encoder, EncoderConfig)

    def resolve_decoder(self, vocab_size: int, concept_dim: int) -> DecoderConfig:
        return _resolve_config(self.decoder, DecoderConfig, vocab_size=vocab_size, concept_dim=concept_dim)


def _resolve_config(value, cls, **defaults):
    """cls from "desk" (its field defaults), "paper" (cls.paper) or a table
    of fields; ``defaults`` go over the presets and under a table."""
    if value == "paper":
        return replace(cls.paper(), **defaults)
    if value == "desk":
        value = {}
    if not isinstance(value, dict):
        raise ValueError(f"config must be 'desk', 'paper' or a field table, got {value!r}")
    return config_from_table(cls, {**defaults, **value}, cls.__name__)


@dataclass
class _Sample:
    clip: VideoClip               # AFS-selected
    labels: np.ndarray            # multi-hot concept vector
    captions: list[np.ndarray]    # token ids ending in EOS, PAD-trimmed


@dataclass
class TrainResult:
    checkpoint_dir: Path
    history: list[dict]
    vocab: Vocab
    concepts: ConceptVocabulary
    model: CaptionModel


def _prepare_samples(records, data_root: Path, vocab, concepts, n_frames: int, max_len: int):
    samples = []
    for rec in records:
        clip = read_vvid(data_root / rec.video)
        selected = apply_selection(clip, select_from_clip(clip, n_frames))
        labels = concept_label_vector(concepts, rec.captions)
        caps = []
        for text in rec.captions:
            ids, mask = encode_caption(vocab, text, max_len)
            caps.append(ids[: int(mask.sum())])
        samples.append(_Sample(selected, labels, caps))
    return samples


def _shape_groups(clips: Sequence[VideoClip]) -> list[list[int]]:
    """Positions of the clips grouped by clip shape, groups in order of
    first appearance, since one encoder call takes clips of one shape."""
    groups: dict[tuple, list[int]] = {}
    for i, clip in enumerate(clips):
        groups.setdefault(clip.data.shape, []).append(i)
    return list(groups.values())


def token_cache(model: CaptionModel, clips: Iterable[VideoClip], batch_size: int) -> np.ndarray:
    """(N, t, token_dim) eval-mode encoder tokens of the N clips an
    iterable yields.  Clips wait in a bucket per shape and a full bucket of
    batch_size is encoded at once, the rest at the end, so at most
    batch_size clips of each shape are held at a time."""
    out: list[np.ndarray] = []
    buckets: dict[tuple, list[tuple[int, VideoClip]]] = {}

    def encode(bucket):
        for (i, _), tokens in zip(bucket, model.encoder([clip for _, clip in bucket]).data):
            out[i] = tokens

    for i, clip in enumerate(clips):
        out.append(None)
        bucket = buckets.setdefault(clip.data.shape, [])
        bucket.append((i, clip))
        if len(bucket) == batch_size:
            encode(buckets.pop(clip.data.shape))
    for bucket in buckets.values():
        encode(bucket)
    return np.stack(out)


def joint_loss(
    model: CaptionModel,
    clips: Sequence[VideoClip],
    captions: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    lambda_bce: float,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, ce, bce) over one batch, on one graph: ce is the mean of the
    per-sample caption cross entropies, bce the mean of the per-sample
    concept terms and total = ce + lambda_bce * bce.  captions[i] holds
    the target ids of clip i, ending in EOS.  Clips of one shape share an
    encoder call; the calls' tokens are concatenated, one row per clip.
    Dropout draws from rng; None is the dropout-free (eval) loss."""
    groups = _shape_groups(clips)
    rows = [i for group in groups for i in group]
    parts = [model.encoder([clips[i] for i in group], rng) for group in groups]
    tokens = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    targets = np.full((len(rows), max(len(c) for c in captions)), PAD_ID, dtype=np.intp)
    for row, i in enumerate(rows):
        targets[row, : len(captions[i])] = captions[i]
    sem_logits = model.concept_head.logits(tokens, rng)
    dec_logits = model.caption_logits(ad.sigmoid(sem_logits), targets[:, :-1], tokens, rng)
    ce = ad.cross_entropy_masked(dec_logits, targets, PAD_ID)
    bce = ad.bce_with_logits(sem_logits, np.stack([labels[i] for i in rows]))
    return ad.add(ce, ad.scale(bce, lambda_bce)), ce, bce


def _finite_or_die(value: float, what: str, dump: dict, out_dir: Path | None):
    if np.isfinite(value):
        return
    if out_dir is not None:
        (out_dir / "abort_dump.json").write_text(json.dumps(dump, indent=2, default=str))
    raise TrainingDiverged(f"non-finite {what} at step {dump.get('step')}")


def train(
    config: TrainConfig,
    data_dir: str | Path,
    out_dir: str | Path,
    log_every: int = 50,
    quiet: bool = True,
) -> TrainResult:
    if log_every < 1:
        raise ValueError(f"log_every must be at least 1, got {log_every}")
    data_root = Path(data_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = [r for r in load_corpus(data_root / "corpus.jsonl") if r.split == "train"]
    captions = [c for r in records for c in r.captions]
    vocab = build_vocab(captions)
    tagger = PosTagger.load_default()

    enc_cfg = config.resolve_encoder()
    concepts = build_concept_vocabulary(captions, tagger, enc_cfg.concept_count)
    dec_cfg = config.resolve_decoder(len(vocab), enc_cfg.concept_count)
    check_vocab_size(dec_cfg, vocab)
    if config.max_len + 1 > dec_cfg.max_positions:
        # a caption of max_len words, after the concept vector, fills max_len + 1 positions
        raise ValueError(f"max_len {config.max_len} needs {config.max_len + 1} decoder positions, "
                         f"more than its {dec_cfg.max_positions}")
    model = CaptionModel(enc_cfg, dec_cfg, seed=config.seed)

    samples = _prepare_samples(records, data_root, vocab, concepts, enc_cfg.frames, config.max_len)

    batch_rng = np.random.default_rng(config.seed + 303)
    caption_rng = np.random.default_rng(config.seed + 101)
    dropout_rng = np.random.default_rng(config.seed + 202)

    history: list[dict] = []
    t0 = time.time()

    def run_phase(phase: str, prefix: str, loss_fn, steps: range):
        # the parameters named prefix* are one contiguous stretch of the
        # model's sorted-name vector, which trains in place under one AdamW state
        params = [p for name, _, p in model.layout if name.startswith(prefix)]
        start = next(offset for name, offset, _ in model.layout if name.startswith(prefix))
        flat = model.flat[start : start + sum(p.data.size for p in params)]
        state = AdamWState(flat.size, lr=config.lr)
        for step in steps:
            run_step(step, phase, loss_fn, params, flat, state)

    def run_step(step: int, phase: str, loss_fn, params, flat, state):
        idx = batch_rng.integers(0, len(samples), size=config.batch_size)
        with Tape() as tape:
            total, parts = loss_fn([int(i) for i in idx])
            value = float(total.data)
            dump = {"step": step, "phase": phase, **parts}
            _finite_or_die(value, "loss", dump, out)
            grads = backward(total, tape)
        grad, norm = clip_global_norm(np.concatenate([grads[p].ravel() for p in params]), config.clip_norm)
        adamw_step(flat, grad, state)
        entry = {"step": step, "phase": phase, "loss": value, "grad_norm": norm, **parts}
        history.append(entry)
        log_file.write(json.dumps(entry) + "\n")
        if not quiet and (step % log_every == 0 or step == 1):
            print(f"[{phase}] step {step} loss {value:.4f} norm {norm:.4f}")

    with (out / "train_log.jsonl").open("w") as log_file:
        # phase one: concept head only, frozen encoder outputs cached once
        if config.phase in ("semantic_pretrain", "both") and config.pretrain_steps > 0:
            cache = token_cache(model, [s.clip for s in samples], config.batch_size)
            all_labels = np.stack([s.labels for s in samples])

            def pretrain_loss(batch):
                logits = model.concept_head.logits(Tensor(cache[batch]), dropout_rng, rate=0.5)
                bce = ad.bce_with_logits(logits, all_labels[batch])
                return bce, {"bce": float(bce.data)}

            run_phase("semantic_pretrain", "concept_head.", pretrain_loss, range(1, config.pretrain_steps + 1))

        # phase two: everything trains, caption CE plus weighted concept BCE
        if config.phase in ("end_to_end", "both") and config.max_steps > 0:
            def batch_joint_loss(batch):
                drawn = [samples[i] for i in batch]
                captions = [s.captions[int(caption_rng.integers(0, len(s.captions)))] for s in drawn]
                clips, labels = [s.clip for s in drawn], [s.labels for s in drawn]
                total, ce, bce = joint_loss(model, clips, captions, labels, config.lambda_bce, dropout_rng)
                return total, {"ce": float(ce.data), "bce": float(bce.data)}

            start = config.pretrain_steps if config.phase == "both" else 0
            run_phase("end_to_end", "", batch_joint_loss, range(start + 1, start + config.max_steps + 1))

    ckpt_dir = out / "checkpoint"
    save_checkpoint(
        ckpt_dir,
        model,
        step=len(history),
        config_json=asdict(config),
        metric_history=[h for i, h in enumerate(history) if i % log_every == 0 or i == len(history) - 1],
    )
    vocab.save(ckpt_dir / "vocab.json")
    concepts.save(ckpt_dir / "concepts.json")
    if not quiet:
        print(f"trained {len(history)} steps in {time.time() - t0:.1f}s -> {ckpt_dir}")
    return TrainResult(ckpt_dir, history, vocab, concepts, model)


# --- checkpoint format -------------------------------------------------
# params.bin is the model's parameter vector cast to float32, and
# manifest.json lists its layout: each parameter's name, shape, offset and
# count, sorted by name; vocab.json / concepts.json live next to them.
# Its "step" is the number of optimizer updates across both phases, which
# equals the last "step" in train_log.jsonl.

CKPT_VERSION = 1


def save_checkpoint(ckpt_dir: str | Path, model: CaptionModel, step: int = 0, **extra) -> Path:
    """Write model weights and a manifest to ``ckpt_dir``.

    ``step`` is the number of optimizer updates across both phases, which
    equals the last ``step`` in ``train_log.jsonl``; ``extra`` keys are
    copied into the manifest as they are.
    """
    ckpt = Path(ckpt_dir)
    ckpt.mkdir(parents=True, exist_ok=True)
    entries = [{"name": name, "shape": list(p.data.shape), "offset": offset, "count": p.data.size}
               for name, offset, p in model.layout]
    (ckpt / "params.bin").write_bytes(model.flat.astype(np.float32).tobytes())
    manifest = {
        "format": "vidcap-checkpoint",
        "version": CKPT_VERSION,
        "step": step,
        "model": model.config_blob(),
        "params": entries,
        **extra,
    }
    # one top-level key per line, each value compact: any indent would send
    # json.dumps to its pure-Python encoder
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in manifest.items())
    (ckpt / "manifest.json").write_text("{\n" + lines + "\n}\n")
    return ckpt


def load_checkpoint(ckpt_dir: str | Path) -> tuple[CaptionModel, dict]:
    """The model and manifest of a checkpoint; any fault in them is a ValueError naming ckpt_dir."""
    ckpt = Path(ckpt_dir)
    manifest = parse_json((ckpt / "manifest.json").read_text(), ckpt / "manifest.json")
    try:
        if not (isinstance(manifest, dict) and manifest.get("format") == "vidcap-checkpoint"
                and manifest.get("version") == CKPT_VERSION):
            raise ValueError("not a recognized checkpoint directory")
        if not isinstance(manifest["model"], dict) or not isinstance(manifest["params"], list):
            raise ValueError("checkpoint manifest model must be an object and params a list")
        model = model_from_config_blob(manifest["model"])
        raw = np.frombuffer((ckpt / "params.bin").read_bytes(), dtype=np.float32)
        params = model.parameters()
        loaded = set()
        for entry in manifest["params"]:
            if not isinstance(entry, dict):
                raise ValueError(f"manifest params entry {entry!r} is not an object")
            name, offset, count = entry["name"], entry["offset"], entry["count"]
            if not isinstance(name, str) or name not in params:
                raise ValueError(f"checkpoint parameter {name!r} not in model")
            if name in loaded:
                raise ValueError(f"checkpoint parameter {name!r} listed twice")
            loaded.add(name)
            shape = list(params[name].data.shape)
            if entry["shape"] != shape:
                raise ValueError(f"checkpoint parameter {name!r} has shape {entry['shape']}, model expects {shape}")
            if not all(type(n) is int and n >= 0 for n in (offset, count)):
                raise ValueError(f"checkpoint parameter {name!r} needs non-negative integer offset and count")
            if count != params[name].data.size:
                raise ValueError(f"checkpoint parameter {name!r} has count {count} for shape {shape}")
            chunk = raw[offset : offset + count]
            if chunk.size != count:
                raise ValueError("params.bin shorter than manifest promises")
            params[name].data[...] = chunk.reshape(shape)  # into its stretch of model.flat
        missing = set(params) - loaded
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)[:3]}")
    except KeyError as e:
        raise ValueError(f"{ckpt}: checkpoint manifest lacks key {e}") from None
    except ValueError as e:
        raise ValueError(f"{ckpt}: {e}") from None
    return model, manifest


def check_vocab_size(dec_cfg: DecoderConfig, vocab: Vocab) -> None:
    if dec_cfg.vocab_size != len(vocab):
        raise ValueError(f"decoder vocab_size {dec_cfg.vocab_size} is not the vocabulary's {len(vocab)} words")


def load_vocab_and_concepts(ckpt_dir: str | Path) -> tuple[Vocab, ConceptVocabulary]:
    ckpt = Path(ckpt_dir)
    return Vocab.load(ckpt / "vocab.json"), ConceptVocabulary.load(ckpt / "concepts.json")
