"""Checkpoint evaluation: caption every corpus item and score the result.

The corpus streams through frame selection into the encoder in small
same-shape chunks, keeping only each clip's tokens; then every clip is
decoded at once, in lockstep by length.  caption_video is the one-clip
path through the same decoding code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .afs import apply_selection, select_from_clip
from .decoder import GenerationRequest, Hypothesis
from .metrics import EvalReport, compute_report
from .textproc import PosTagger, detokenize, load_corpus
from .training import load_checkpoint, load_vocab_and_concepts, token_cache
from .video import read_vvid

# clips per encoder call.  Four share most of the per-call overhead; at
# 32x32 an encoder call holds about 0.9 MB of activations per clip, so
# larger chunks mostly raise peak memory.
ENCODE_CHUNK = 4


@dataclass
class EvalOutcome:
    report: EvalReport
    predictions: list[dict]
    errors: list[dict] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.errors)


def caption_video(model, vocab, clip, request: GenerationRequest) -> tuple[str, list[int], float]:
    """Full single-video path: frame selection, then generation."""
    selected = apply_selection(clip, select_from_clip(clip, model.enc_cfg.frames))
    return _caption(vocab, model.generate_for_clip(selected, request))


def _caption(vocab, hyp: Hypothesis) -> tuple[str, list[int], float]:
    return detokenize(vocab.decode_ids(hyp.tokens)), list(hyp.tokens), hyp.logprob


def evaluate_checkpoint(
    ckpt_dir: str | Path,
    corpus_path: str | Path,
    request: GenerationRequest | None = None,
    split: str = "all",
    train_corpus_path: str | Path | None = None,
    out_dir: str | Path | None = None,
) -> EvalOutcome:
    """Generate a caption per record and score against its references.

    A record whose video file is unreadable is skipped and logged; the
    outcome is then flagged partial instead of failing the whole run.
    Novelty/vocab-usage stats are measured against the train split of
    train_corpus_path (default: the evaluated corpus itself).
    """
    request = request or GenerationRequest()
    model, _ = load_checkpoint(ckpt_dir)
    vocab, _concepts = load_vocab_and_concepts(ckpt_dir)

    corpus_path = Path(corpus_path)
    corpus = load_corpus(corpus_path)
    records = corpus if split == "all" else [r for r in corpus if r.split == split]
    if not records:
        raise ValueError(f"no records for split {split!r}")

    if train_corpus_path and Path(train_corpus_path).resolve() != corpus_path.resolve():
        corpus = load_corpus(train_corpus_path)
    train_caps = [c for r in corpus if r.split == "train" for c in r.captions]
    if not train_caps:
        # nothing marked train anywhere: fall back to the references themselves
        train_caps = [c for r in records for c in r.captions]

    kept, errors = [], []

    def selected_clips():
        for rec in records:
            try:
                clip = read_vvid(corpus_path.parent / rec.video)
            except (OSError, ValueError) as exc:
                errors.append({"id": rec.id, "error": str(exc)})
                continue
            kept.append(rec)
            selected = apply_selection(clip, select_from_clip(clip, model.enc_cfg.frames))
            del clip  # the full clip is not held while a chunk encodes
            yield selected
        if not kept:
            raise ValueError("no readable video in the corpus")

    # every selected clip has enc_cfg.frames frames and the encoder pools
    # space away, so all tokens share one shape and decode as one batch
    hyps = model.generate_for_tokens(token_cache(model, selected_clips(), ENCODE_CHUNK), request)
    preds, refs, predictions = [], [], []
    for rec, hyp in zip(kept, hyps):
        text, tokens, logprob = _caption(vocab, hyp)
        preds.append(text)
        refs.append(rec.captions)
        predictions.append({"id": rec.id, "caption": text, "tokens": tokens, "logprob": logprob})

    tagger = PosTagger.load_default()
    report = compute_report(preds, refs, train_caps, vocab.learned_count, tagger)
    outcome = EvalOutcome(report, predictions, errors)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "predictions.jsonl").open("w") as fh:
            for row in predictions:
                fh.write(json.dumps(row) + "\n")
        payload = report.to_json()
        payload["partial"] = outcome.partial
        payload["errors"] = errors
        (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    return outcome
