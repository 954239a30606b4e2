"""Two-phase training harness plus checkpoint serialization.

Phase one fits only the concept head against multi-hot word labels while
the encoder stays frozen (its outputs are cached per video, which is what
makes the phase cheap).  Phase two unfreezes everything and optimizes
caption cross-entropy plus a weighted concept term.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .afs import apply_selection, select_from_clip
from .autodiff import Tape, Tensor, backward
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .model import CaptionModel, model_from_config_blob
from .optim import AdamWHyper, adamw_step, clip_global_norm
from .textproc import (
    PAD_ID,
    ConceptVocabulary,
    PosTagger,
    Vocab,
    build_concept_vocabulary,
    build_vocab,
    concept_label_vector,
    encode_caption,
    load_corpus,
)
from .video import read_vvid

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

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown training config keys: {sorted(unknown)}")
        return cls(**obj)

    def resolve_encoder(self) -> EncoderConfig:
        return _resolve_config(self.encoder, EncoderConfig, ("patch", "window", "depths", "heads", "concept_hidden"))

    def resolve_decoder(self, vocab_size: int, concept_dim: int) -> DecoderConfig:
        if self.decoder == "paper":
            return DecoderConfig.paper(vocab_size)
        overrides = {} if self.decoder == "desk" else dict(self.decoder)
        overrides.setdefault("vocab_size", vocab_size)
        overrides.setdefault("concept_dim", concept_dim)
        return DecoderConfig(**overrides)


def _resolve_config(value, cls, tuple_fields):
    if value == "desk":
        return cls()
    if value == "paper":
        return cls.paper()
    if not isinstance(value, dict):
        raise ValueError(f"config must be 'desk', 'paper' or a field table, got {value!r}")
    unknown = set(value) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = dict(value)
    for key in tuple_fields:
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return cls(**kwargs)


@dataclass
class _Sample:
    record_id: str
    clip: object                  # AFS-selected VideoClip
    labels: np.ndarray            # multi-hot concept vector
    captions: list[tuple[np.ndarray, np.ndarray]]  # (ids, mask), PAD-trimmed


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
            keep = int(mask.sum())
            caps.append((ids[:keep], mask[:keep]))
        samples.append(_Sample(rec.id, selected, labels, caps))
    return samples


def _mean_of(terms: list[Tensor]) -> Tensor:
    """Mean of scalar loss terms: summed left to right, then scaled."""
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return ad.scale(total, 1.0 / len(terms))


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
    data_root = Path(data_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = [r for r in load_corpus(data_root / "corpus.jsonl") if r.split == "train"]
    if not records:
        raise ValueError("empty training split")
    captions = [c for r in records for c in r.captions]
    vocab = build_vocab(captions)
    tagger = PosTagger.load_default()

    enc_cfg = config.resolve_encoder()
    concepts = build_concept_vocabulary(captions, tagger, enc_cfg.concept_count)
    dec_cfg = config.resolve_decoder(len(vocab), enc_cfg.concept_count)
    model = CaptionModel(enc_cfg, dec_cfg, seed=config.seed)

    samples = _prepare_samples(records, data_root, vocab, concepts, enc_cfg.frames, config.max_len)
    params = dict(model.named_parameters())
    head_params = {k: v for k, v in params.items() if k.startswith("concept_head.")}

    batch_rng = np.random.default_rng(config.seed + 303)
    caption_rng = np.random.default_rng(config.seed + 101)
    model.dropout_rng = np.random.default_rng(config.seed + 202)

    history: list[dict] = []
    log_path = out / "train_log.jsonl"
    log_file = log_path.open("w")
    t0 = time.time()

    def run_step(step: int, phase: str, loss_fn, trainable, state, lr: float):
        idx = batch_rng.integers(0, len(samples), size=config.batch_size)
        with Tape() as tape:
            total, parts = loss_fn([int(i) for i in idx])
            value = float(total.data)
            dump = {"step": step, "phase": phase, **parts}
            _finite_or_die(value, "loss", dump, out)
            grads = backward(total, tape)
        grads, norm = clip_global_norm(grads, config.clip_norm)
        adamw_step(trainable, grads, state, AdamWHyper(lr=lr))
        entry = {"step": step, "phase": phase, "loss": value, "grad_norm": norm, **parts}
        history.append(entry)
        log_file.write(json.dumps(entry) + "\n")
        if not quiet and (step % log_every == 0 or step == 1):
            print(f"[{phase}] step {step} loss {value:.4f} norm {norm:.4f}")

    # phase one: concept head only, frozen encoder outputs cached once
    if config.phase in ("semantic_pretrain", "both") and config.pretrain_steps > 0:
        model.training = False
        token_cache = [model.video_tokens(s.clip) for s in samples]
        model.training = True
        model.concept_head.dropout_rate = 0.5
        state: dict = {}

        def pretrain_loss(batch):
            losses = []
            for i in batch:
                tokens = Tensor(token_cache[i].data, requires_grad=False)
                logits = model.concept_head.logits(tokens, model.dropout_rng, training=True)
                losses.append(ad.bce_with_logits(logits, samples[i].labels))
            mean = _mean_of(losses)
            return mean, {"bce": float(mean.data)}

        for step in range(1, config.pretrain_steps + 1):
            run_step(step, "semantic_pretrain", pretrain_loss, head_params, state, config.lr)

    # phase two: everything trains, caption CE plus weighted concept BCE
    if config.phase in ("end_to_end", "both") and config.max_steps > 0:
        model.training = True
        model.concept_head.dropout_rate = 0.1
        state = {}

        def joint_loss(batch):
            ce_terms, bce_terms = [], []
            for i in batch:
                s = samples[i]
                pick = int(caption_rng.integers(0, len(s.captions)))
                ids, _ = s.captions[pick]
                tokens = model.video_tokens(s.clip)
                sem_logits = model.concept_head.logits(tokens, model.dropout_rng, training=True)
                sem_probs = ad.sigmoid(sem_logits)
                dec_logits = model.caption_logits(sem_probs, ids[:-1], tokens)
                ce_terms.append(ad.cross_entropy_masked(dec_logits, ids, PAD_ID))
                bce_terms.append(ad.bce_with_logits(sem_logits, s.labels))
            ce = _mean_of(ce_terms)
            bce = _mean_of(bce_terms)
            total = ad.add(ce, ad.scale(bce, config.lambda_bce))
            return total, {"ce": float(ce.data), "bce": float(bce.data)}

        start = config.pretrain_steps if config.phase == "both" else 0
        for step in range(start + 1, start + config.max_steps + 1):
            run_step(step, "end_to_end", joint_loss, params, state, config.lr)

    log_file.close()
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
# manifest.json lists parameters sorted by name with offsets into a flat
# float32 params.bin; vocab.json / concepts.json live next to them.
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
    entries = []
    blobs = []
    offset = 0
    for name, p in sorted(model.named_parameters()):
        flat = np.ascontiguousarray(p.data, dtype=np.float32).ravel()
        entries.append(
            {"name": name, "shape": list(p.data.shape), "offset": offset, "count": int(flat.size)}
        )
        blobs.append(flat.tobytes())
        offset += flat.size
    (ckpt / "params.bin").write_bytes(b"".join(blobs))
    manifest = {
        "format": "vidcap-checkpoint",
        "version": CKPT_VERSION,
        "step": step,
        "model": model.config_blob(),
        "params": entries,
        **extra,
    }
    (ckpt / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return ckpt


def load_checkpoint(ckpt_dir: str | Path, seed: int = 0) -> tuple[CaptionModel, dict]:
    ckpt = Path(ckpt_dir)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    if manifest.get("format") != "vidcap-checkpoint" or manifest.get("version") != CKPT_VERSION:
        raise ValueError("not a recognized checkpoint directory")
    model = model_from_config_blob(manifest["model"], seed=seed)
    raw = np.frombuffer((ckpt / "params.bin").read_bytes(), dtype=np.float32)
    params = dict(model.named_parameters())
    seen = set()
    for entry in manifest["params"]:
        name = entry["name"]
        if name not in params:
            raise ValueError(f"checkpoint parameter {name!r} not in model")
        chunk = raw[entry["offset"] : entry["offset"] + entry["count"]]
        if chunk.size != entry["count"]:
            raise ValueError("params.bin shorter than manifest promises")
        params[name].data = chunk.astype(np.float64).reshape(entry["shape"])
        seen.add(name)
    missing = set(params) - seen
    if missing:
        raise ValueError(f"checkpoint missing parameters: {sorted(missing)[:3]}")
    return model, manifest


def load_vocab_and_concepts(ckpt_dir: str | Path) -> tuple[Vocab, ConceptVocabulary]:
    ckpt = Path(ckpt_dir)
    return Vocab.load(ckpt / "vocab.json"), ConceptVocabulary.load(ckpt / "concepts.json")


def select_best(evals: list[dict]) -> dict:
    """Pick the eval row maximizing the harmonic mean of BLEU-4 and CIDEr-D*10.

    Ties keep the earliest row.
    """
    if not evals:
        raise ValueError("no evaluations to choose from")
    best = None
    best_score = -1.0
    for row in evals:
        a = row["bleu4"]
        b = row["cider_d"] * 10.0
        score = 0.0 if a + b == 0 else 2.0 * a * b / (a + b)
        if score > best_score:
            best, best_score = row, score
    return best
