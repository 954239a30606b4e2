"""Two-phase training harness plus checkpoint serialization.

Phase one fits only the concept head against multi-hot word labels while
the encoder stays frozen (its outputs are cached per video, which is what
makes the phase cheap).  Phase two unfreezes everything and optimizes
caption cross-entropy plus a weighted concept term.  Either phase runs a
whole batch as one graph on one tape.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from itertools import zip_longest
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
        # json reads NaN and Infinity, which no comparison with 0 alone refuses
        if not 0 <= self.lambda_bce < math.inf:
            raise ValueError(
                f"bad optimizer hyperparameters: lambda_bce must be finite and non-negative, got {self.lambda_bce}")
        for name, value in (("lr", self.lr), ("clip_norm", self.clip_norm)):
            if not 0 < value < math.inf:
                raise ValueError(f"bad optimizer hyperparameters: {name} must be finite and positive, got {value}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be at least 1, got {self.max_len}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

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
class TrainResult:
    checkpoint_dir: Path
    history: list[dict]
    vocab: Vocab
    concepts: ConceptVocabulary
    model: CaptionModel


def _prepare_samples(records, data_root: Path, vocab, concepts, n_frames: int, max_len: int):
    """The AFS-selected clip of each record, their (N, K) multi-hot concept
    labels and each record's caption ids, each ending in EOS, PAD-trimmed."""
    clips, caption_ids = [], []
    for rec in records:
        clip = read_vvid(data_root / rec.video)
        clips.append(apply_selection(clip, select_from_clip(clip, n_frames)))
        caps = []
        for text in rec.captions:
            ids, mask = encode_caption(vocab, text, max_len)
            caps.append(ids[: int(mask.sum())])
        caption_ids.append(caps)
    labels = np.stack([concept_label_vector(concepts, rec.captions) for rec in records])
    return clips, labels, caption_ids


def token_cache(model: CaptionModel, clips: Iterable[VideoClip], batch_size: int) -> np.ndarray:
    """(N, t, token_dim) eval-mode encoder tokens of the N clips an
    iterable yields, encoded in chunks of batch_size as they arrive, so at
    most batch_size clips are held at a time."""
    out, chunk = [], []
    for clip in clips:
        chunk.append(clip)
        if len(chunk) == batch_size:
            out.append(model.encoder(chunk).data)
            chunk = []
    if chunk:
        out.append(model.encoder(chunk).data)
    return np.concatenate(out)


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
    the target ids of clip i, ending in EOS, and labels[i] its multi-hot
    concept vector; every row stays in input order.  Dropout draws from
    rng; None is the dropout-free (eval) loss."""
    tokens = model.encoder(clips, rng)
    targets = np.full((len(clips), max(len(c) for c in captions)), PAD_ID, dtype=np.intp)
    for row, ids in enumerate(captions):
        targets[row, : len(ids)] = ids
    sem_logits = model.concept_head.logits(tokens, rng)
    dec_logits = model.caption_logits(ad.sigmoid(sem_logits), targets[:, :-1], tokens, rng)
    ce = ad.cross_entropy_masked(dec_logits, targets, PAD_ID)
    bce = ad.bce_with_logits(sem_logits, np.stack(labels))
    return ad.add(ce, ad.mul(bce, lambda_bce)), ce, bce


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

    clips, labels, caption_ids = _prepare_samples(records, data_root, vocab, concepts, enc_cfg.frames, config.max_len)

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
        idx = batch_rng.integers(0, len(clips), size=config.batch_size)
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
            cache = token_cache(model, clips, config.batch_size)

            def pretrain_loss(batch):
                logits = model.concept_head.logits(Tensor(cache[batch]), dropout_rng, rate=0.5)
                bce = ad.bce_with_logits(logits, labels[batch])
                return bce, {"bce": float(bce.data)}

            run_phase("semantic_pretrain", "concept_head.", pretrain_loss, range(1, config.pretrain_steps + 1))

        # phase two: everything trains, caption CE plus weighted concept BCE
        if config.phase in ("end_to_end", "both") and config.max_steps > 0:
            def batch_joint_loss(batch):
                targets = [caption_ids[i][int(caption_rng.integers(0, len(caption_ids[i])))] for i in batch]
                total, ce, bce = joint_loss(
                    model, [clips[i] for i in batch], targets, labels[batch], config.lambda_bce, dropout_rng)
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
# manifest.json lists its layout: layout_entries(model), each parameter's
# name, shape, offset and count, sorted by name. A load takes exactly the
# list the writer makes for the manifest's model and a params.bin of exactly
# its values; vocab.json / concepts.json live next to them.
# Its "step" is the number of optimizer updates across both phases, which
# equals the last "step" in train_log.jsonl.

CKPT_VERSION = 1


def layout_entries(model: CaptionModel) -> list[dict]:
    """The manifest's ``params``: one entry per parameter of ``model.layout``."""
    return [{"name": name, "shape": list(p.data.shape), "offset": offset, "count": p.data.size}
            for name, offset, p in model.layout]


_MISSING = object()


def check_layout(params: list, entries: list[dict]) -> None:
    """Refuse manifest ``params`` that are not ``entries``, showing both at the first index that differs."""
    for i, (got, want) in enumerate(zip_longest(params, entries, fillvalue=_MISSING)):
        # == alone would take 48.0 or true for the integer 48 or 1
        if got != want or type(got["offset"]) is not int or type(got["count"]) is not int:
            got, want = ("missing" if e is _MISSING else json.dumps(e) for e in (got, want))
            raise ValueError(f"manifest params[{i}] is {got}, the model's layout has {want}")


def save_checkpoint(ckpt_dir: str | Path, model: CaptionModel, step: int = 0, **extra) -> Path:
    """Write model weights and a manifest to ``ckpt_dir``.

    ``step`` is the number of optimizer updates across both phases, which
    equals the last ``step`` in ``train_log.jsonl``; ``extra`` keys are
    copied into the manifest as they are.
    """
    ckpt = Path(ckpt_dir)
    ckpt.mkdir(parents=True, exist_ok=True)
    (ckpt / "params.bin").write_bytes(model.flat.astype(np.float32).tobytes())
    manifest = {
        "format": "vidcap-checkpoint",
        "version": CKPT_VERSION,
        "step": step,
        "model": model.config_blob(),
        "params": layout_entries(model),
        **extra,
    }
    # one top-level key per line, each value compact: any indent would send
    # json.dumps to its pure-Python encoder
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in manifest.items())
    (ckpt / "manifest.json").write_text("{\n" + lines + "\n}\n")
    return ckpt


def load_checkpoint(ckpt_dir: str | Path) -> tuple[CaptionModel, dict]:
    """The model and manifest of a checkpoint; any fault in them is a ValueError naming ckpt_dir.

    The manifest's ``params`` must be exactly the ``layout_entries`` of the
    model it describes, and params.bin exactly that model's float32 vector.
    """
    ckpt = Path(ckpt_dir)
    manifest = parse_json((ckpt / "manifest.json").read_text(), ckpt / "manifest.json")
    try:
        if not (isinstance(manifest, dict) and manifest.get("format") == "vidcap-checkpoint"
                and manifest.get("version") == CKPT_VERSION):
            raise ValueError("not a recognized checkpoint directory")
        if not isinstance(manifest["model"], dict) or not isinstance(manifest["params"], list):
            raise ValueError("checkpoint manifest model must be an object and params a list")
        model = model_from_config_blob(manifest["model"])
        check_layout(manifest["params"], layout_entries(model))
        raw = (ckpt / "params.bin").read_bytes()
        if len(raw) != 4 * model.flat.size:
            raise ValueError(f"params.bin holds {len(raw)} bytes, not the {4 * model.flat.size} of its layout")
        model.flat[...] = np.frombuffer(raw, dtype=np.float32)
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
