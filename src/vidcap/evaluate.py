"""Checkpoint evaluation: caption every corpus item and score the result.

The corpus streams through frame selection into the encoder in chunks of
ENCODE_CHUNK clips in corpus order, keeping only each clip's tokens; then
every clip is decoded at once, in lockstep by length.  One worker thread
reads and frame-selects ahead while the main thread encodes, holding at
most ENCODE_CHUNK selected clips plus the one full clip in hand.
caption_video is the one-clip path through the same decoding code.
"""

from __future__ import annotations

import json
import queue
import threading
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .afs import apply_selection, select_from_clip
from .decoder import GenerationRequest, Hypothesis
from .metrics import EvalReport, compute_report
from .textproc import PosTagger, detokenize, load_corpus
from .training import check_vocab_size, load_checkpoint, load_vocab_and_concepts, token_cache
from .video import read_vvid

# clips per encoder call, and the selected clips the reader may queue
# ahead of the encoder.  Four share most of the per-call overhead; at
# 32x32 an encoder call holds about 0.9 MB of activations per clip, so
# larger chunks mostly raise peak memory.  With the array encoder, chunks
# of 8 and 16 measured slower: the benchmark's evaluate_corpus read 298/291
# and 281/287 clips per normalized second against 336/324 with 4 (two seeds).
ENCODE_CHUNK = 4


@dataclass
class EvalOutcome:
    report: EvalReport
    predictions: list[dict]
    errors: list[dict] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.errors)


def load_captioner(ckpt_dir: str | Path):
    """A checkpoint's model and word vocabulary, refused if their sizes differ."""
    model, _ = load_checkpoint(ckpt_dir)
    vocab, _ = load_vocab_and_concepts(ckpt_dir)
    check_vocab_size(model.dec_cfg, vocab)
    return model, vocab


def caption_video(model, vocab, clip, request: GenerationRequest) -> tuple[str, list[int], float]:
    """Full single-video path: frame selection, then generation."""
    selected = apply_selection(clip, select_from_clip(clip, model.enc_cfg.frames))
    return _caption(vocab, model.generate_for_clip(selected, request))


def _caption(vocab, hyp: Hypothesis) -> tuple[str, list[int], float]:
    return detokenize(vocab.decode_ids(hyp.tokens)), list(hyp.tokens), hyp.logprob


def _read_ahead(items: Iterator, depth: int) -> Iterator:
    """What items yields, in order, produced on a worker thread that keeps
    at most depth items queued, plus the one in hand, ahead of the caller.
    An exception in the worker is raised here with its own type.  Closing
    this generator stops the worker and joins it, also while it waits on a
    full queue."""
    ahead = queue.Queue(depth)
    stop = threading.Event()

    def work():
        end = None
        try:
            for item in items:
                ahead.put((True, item))
                if stop.is_set():
                    return
        except BaseException as exc:  # handed to the caller, never lost
            end = exc
        if not stop.is_set():
            ahead.put((False, end))

    worker = threading.Thread(target=work, name="vidcap-read-ahead", daemon=True)
    worker.start()
    try:
        while True:
            more, value = ahead.get()
            if not more:
                break
            yield value
        if value is not None:
            raise value
    finally:
        # the worker checks stop after each put and before its last one,
        # so once the queue is emptied it makes at most one more put, which
        # fits, and reads nothing further
        stop.set()
        while not ahead.empty():
            ahead.get_nowait()
        worker.join()


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
    model, vocab = load_captioner(ckpt_dir)
    model.check_request(request)  # before any clip is read and encoded

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
            del clip  # only the clip being selected is held in full
            yield selected
        if not kept:
            raise ValueError("no readable video in the corpus")

    # the worker fills kept and errors; both are read only once it is joined
    with closing(_read_ahead(selected_clips(), ENCODE_CHUNK)) as clips:
        enc_tokens = token_cache(model, clips, ENCODE_CHUNK)
    # every selected clip has enc_cfg.frames frames and the encoder pools
    # space away, so all tokens share one shape and decode as one batch
    hyps = model.generate_for_tokens(enc_tokens, request)
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
