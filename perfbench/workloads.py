"""The three benchmark workloads.

Each is a closed loop with one client: the next call into vidcap starts when
the previous one has returned.  Inputs come from
`synth.generate_synthetic_dataset` with the workload seed and are made before
any timing starts.  vidcap is called only through its public functions, and
through module attributes (`training.train`, `evaluate.caption_video`) so the
traced run's wrappers see every call.

A workload provides:
  prepare()  untimed input generation (files under its work directory)
  setup()    the user's set-up: import, corpus/checkpoint load, vocab, model;
             `setup_probe.py` runs it alone in a fresh interpreter
  warm()     untimed calls that fill lazy caches before the timed loop
  unit(i)    one timed round of calls, returning a sample dict
  work()     the work one round did: samples trained, tokens or clips
  summary()  the workload's own named figures
  checks()   output checks as (name, ok, detail)
  digest()   hash of what was computed, recorded but not gated
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from pathlib import Path

from tracing import STRATEGIES
from vidcap import evaluate, training
from vidcap.decoder import GenerationRequest
from vidcap.model import CaptionModel
from vidcap.synth import SyntheticSpec, generate_synthetic_dataset
from vidcap.textproc import EOS_ID, PosTagger, build_concept_vocabulary, build_vocab, load_corpus, save_corpus
from vidcap.video import read_vvid

EIGHT_COLORS = ("red", "green", "blue", "yellow", "purple", "orange", "cyan", "magenta")

# An untrained decoder stops wherever its random init happens to rank EOS
# first, which differs by seed.  Pushing the EOS logit far down makes every
# caption run to max_len, so decode work is set by the request alone.
EOS_BIAS = -50.0


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def write_untrained_checkpoint(records, ckpt: Path, seed: int) -> None:
    """A seeded, untrained desk-preset CaptionModel plus its vocabularies."""
    captions = [c for r in records for c in r.captions]
    vocab = build_vocab(captions)
    config = training.TrainConfig()
    enc = config.resolve_encoder()
    concepts = build_concept_vocabulary(captions, PosTagger.load_default(), enc.concept_count)
    model = CaptionModel(enc, config.resolve_decoder(len(vocab), enc.concept_count), seed=seed)
    model.parameters()["decoder.out_proj.bias"].data[EOS_ID] = EOS_BIAS
    training.save_checkpoint(ckpt, model)
    vocab.save(ckpt / "vocab.json")
    concepts.save(ckpt / "concepts.json")


class Workload:
    name = ""
    min_units = 1

    def __init__(self, workdir: Path, seed: int, tracer):
        self.workdir = Path(workdir)
        self.seed = seed
        self.tracer = tracer
        self.data = self.workdir / "data"
        self.ckpt = self.workdir / "checkpoint"


class TrainDesk(Workload):
    """`train()` at the desk presets, batch 8, on the acceptance-overfit
    corpus shape.  Tape forward, backward and AdamW only: no captions."""

    name = "train_desk"
    PRETRAIN_STEPS = 100
    E2E_STEPS = 10
    BATCH = 8
    CONFIG_SEED = 1
    LAST_STEPS = 5  # train.loss_final averages the CE of this many final steps

    def prepare(self):
        spec = SyntheticSpec(videos=16, frames=24, height=16, width=16, colors=EIGHT_COLORS, seed=self.seed)
        generate_synthetic_dataset(spec, self.data)

    def _train(self, phase: str, pretrain_steps: int, e2e_steps: int, out: str):
        config = training.TrainConfig(
            phase=phase,
            pretrain_steps=pretrain_steps,
            max_steps=e2e_steps,
            batch_size=self.BATCH,
            seed=self.CONFIG_SEED,
        )
        label = "setup" if pretrain_steps == e2e_steps == 0 else phase
        with self.tracer.span("op.train", op=self.tracer.next_op("op.train"), phase=label):
            t0 = time.perf_counter()
            result = training.train(config, self.data, self.workdir / out)
            return time.perf_counter() - t0, result.history

    def setup(self):
        self._train("both", 0, 0, "setup-run")

    def warm(self):
        self._train("semantic_pretrain", 20, 0, "run")
        self._train("end_to_end", 0, 2, "run")

    def unit(self, i: int) -> dict:
        zero_s, _ = self._train("both", 0, 0, "run")
        pre_s, pre = self._train("semantic_pretrain", self.PRETRAIN_STEPS, 0, "run")
        e2e_s, e2e = self._train("end_to_end", 0, self.E2E_STEPS, "run")
        return {
            "ops": 3,
            "zero_s": zero_s,
            "pretrain_s": pre_s,
            "e2e_s": e2e_s,
            "pretrain_loss": [h["loss"] for h in pre],
            "e2e_loss": [h["loss"] for h in e2e],
            "e2e_ce": [h["ce"] for h in e2e],
        }

    def work(self, sample) -> int:
        return (self.PRETRAIN_STEPS + self.E2E_STEPS) * self.BATCH

    def summary(self, samples):
        zero = statistics.median(s["zero_s"] for s in samples)
        e2e = [self.E2E_STEPS * self.BATCH / (s["e2e_s"] - zero) for s in samples]
        pre = [self.PRETRAIN_STEPS * self.BATCH / (s["pretrain_s"] - zero) for s in samples]
        loss_final = statistics.fmean(samples[0]["e2e_ce"][-self.LAST_STEPS :])
        named = {
            "train.samples_per_s": (statistics.median(e2e), "1/s"),
            "train.pretrain_samples_per_s": (statistics.median(pre), "1/s"),
            "train.loss_final": (loss_final, "nat"),
            "train.rounds": (len(samples), "count"),
        }
        return named

    def checks(self, samples):
        out = []
        first = samples[0]
        for key in ("pretrain_loss", "e2e_loss"):
            finite = all(math.isfinite(v) for s in samples for v in s[key])
            out.append((f"{key}.finite", finite, f"{len(samples)} runs"))
            trace = first[key]
            out.append((f"{key}.decreases", trace[-1] < trace[0], f"first {trace[0]:.4f} last {trace[-1]:.4f}"))
            same = all(s[key] == trace for s in samples)
            out.append((f"{key}.deterministic", same, "identical trace on every repeat"))
        return out

    def digest(self, samples):
        return {"loss_trace": _digest([samples[0]["pretrain_loss"], samples[0]["e2e_loss"]])}


class CaptionStream(Workload):
    """`caption_video` one clip at a time with each strategy in turn, on a
    seeded untrained checkpoint, so every caption decodes MAX_LEN tokens
    without a tape."""

    name = "caption_stream"
    CLIPS = 32
    MAX_LEN = 20
    min_units = 100  # at least 100 captions per strategy, for a p90
    CHECK_CLIPS = 8
    STRATEGIES = STRATEGIES

    def request(self, strategy: str, seed: int) -> GenerationRequest:
        if strategy == "greedy":
            return GenerationRequest(strategy="greedy", max_len=self.MAX_LEN)
        if strategy == "beam3":
            return GenerationRequest(strategy="beam", beam_width=3, max_len=self.MAX_LEN)
        if strategy == "topk":
            return GenerationRequest(strategy="topk", k=5, max_len=self.MAX_LEN, seed=seed)
        return GenerationRequest(strategy="topp", p=0.9, max_len=self.MAX_LEN, seed=seed)

    def prepare(self):
        spec = SyntheticSpec(
            videos=self.CLIPS, frames=24, height=16, width=16, colors=EIGHT_COLORS, seed=self.seed
        )
        records = generate_synthetic_dataset(spec, self.data)
        write_untrained_checkpoint(records, self.ckpt, self.seed)
        self.clips = [read_vvid(self.data / r.video) for r in records]

    def setup(self):
        self.model, _ = training.load_checkpoint(self.ckpt)
        self.vocab, _ = training.load_vocab_and_concepts(self.ckpt)

    def _caption(self, clip_index: int, request: GenerationRequest) -> list[int]:
        _, tokens, _ = evaluate.caption_video(self.model, self.vocab, self.clips[clip_index], request)
        return tokens

    def warm(self):
        for i in range(2):
            for strategy in self.STRATEGIES:
                self._caption(i, self.request(strategy, i))

    def unit(self, i: int) -> dict:
        clip = i % self.CLIPS
        seconds, tokens = {}, {}
        for strategy in self.STRATEGIES:
            request = self.request(strategy, clip)
            with self.tracer.span("op.caption", op=i, strategy=strategy):
                t0 = time.perf_counter()
                tokens[strategy] = self._caption(clip, request)
                seconds[strategy] = time.perf_counter() - t0
        return {"ops": len(self.STRATEGIES), "clip": clip, "seconds": seconds, "tokens": tokens}

    def work(self, sample) -> int:
        return sum(len(t) for t in sample["tokens"].values())

    def summary(self, samples):
        rates = [self.work(s) / sum(s["seconds"].values()) for s in samples]
        named = {}
        for strategy in self.STRATEGIES:
            ms = [1000.0 * s["seconds"][strategy] for s in samples]
            named[f"caption.{strategy}.p50_ms"] = (statistics.median(ms), "ms")
            if strategy in ("greedy", "beam3"):
                named[f"caption.{strategy}.p90_ms"] = (_percentile(ms, 90), "ms")
            named[f"caption.{strategy}.samples"] = (len(ms), "count")
        named["caption.tokens_per_s"] = (statistics.median(rates), "1/s")
        return named

    def checks(self, samples):
        out = []
        agree = 0
        for clip in range(self.CHECK_CLIPS):
            greedy = self._caption(clip, self.request("greedy", clip))
            beam1 = self._caption(clip, GenerationRequest(strategy="beam", beam_width=1, max_len=self.MAX_LEN))
            top1 = self._caption(clip, GenerationRequest(strategy="topk", k=1, max_len=self.MAX_LEN, seed=clip))
            agree += greedy == beam1 == top1
        out.append(("greedy_beam1_top1.identical", agree == self.CHECK_CLIPS, f"{agree}/{self.CHECK_CLIPS} clips"))
        seen, repeats, stable = {}, 0, True
        for s in samples:
            for strategy, tokens in s["tokens"].items():
                key = (s["clip"], strategy)
                if key in seen:
                    repeats += 1
                    stable &= seen[key] == tokens
                seen.setdefault(key, tokens)
        out.append(("captions.deterministic", stable, f"{repeats} repeated (clip, strategy) pairs"))
        return out

    def digest(self, samples):
        first = samples[: self.CLIPS]
        return {
            f"tokens.{strategy}": _digest([s["tokens"][strategy] for s in first]) for strategy in self.STRATEGIES
        }


class EvaluateCorpus(Workload):
    """`evaluate_checkpoint` over 128 longer, larger clips with short greedy
    captions: AFS sees 96 frames per clip, the encoder a 4x8x8 token grid,
    and self-BLEU pairs 128 predictions."""

    name = "evaluate_corpus"
    CLIPS = 128
    REQUEST = GenerationRequest(strategy="greedy", max_len=8)
    CHECK_CLIPS = 16

    @property
    def corpus(self) -> Path:
        return self.data / "corpus.jsonl"

    def prepare(self):
        spec = SyntheticSpec(
            videos=self.CLIPS,
            frames=96,
            height=32,
            width=32,
            colors=EIGHT_COLORS,
            motions=("left", "right", "up", "down", "static"),
            paraphrases=4,
            seed=self.seed,
        )
        records = generate_synthetic_dataset(spec, self.data)
        write_untrained_checkpoint(records, self.ckpt, self.seed)
        save_corpus(self.data / "warmup.jsonl", records[:8])

    def setup(self):
        training.load_checkpoint(self.ckpt)
        training.load_vocab_and_concepts(self.ckpt)
        load_corpus(self.corpus)
        PosTagger.load_default()

    def warm(self):
        evaluate.evaluate_checkpoint(self.ckpt, self.data / "warmup.jsonl", self.REQUEST)

    def unit(self, i: int) -> dict:
        with self.tracer.span("op.evaluate", op=i):
            t0 = time.perf_counter()
            outcome = evaluate.evaluate_checkpoint(self.ckpt, self.corpus, self.REQUEST)
            seconds = time.perf_counter() - t0
        return {
            "ops": 1,
            "seconds": seconds,
            "partial": outcome.partial,
            "items": outcome.report.counts.get("items"),
            "predictions": [[p["id"], p["tokens"]] for p in outcome.predictions],
        }

    def work(self, sample) -> int:
        return self.CLIPS

    def summary(self, samples):
        rates = [self.CLIPS / s["seconds"] for s in samples]
        return {"evaluate.clips_per_s": (statistics.median(rates), "1/s"), "evaluate.calls": (len(rates), "count")}

    def checks(self, samples):
        first = samples[0]["predictions"]
        out = [
            ("report.complete", not any(s["partial"] for s in samples), "no unreadable clips"),
            ("report.items", all(s["items"] == self.CLIPS for s in samples), f"counts.items == {self.CLIPS}"),
            ("predictions.deterministic", all(s["predictions"] == first for s in samples), "identical on every repeat"),
        ]
        model, _ = training.load_checkpoint(self.ckpt)
        vocab, _ = training.load_vocab_and_concepts(self.ckpt)
        records = {r.id: r for r in load_corpus(self.corpus)}
        step = max(len(first) // self.CHECK_CLIPS, 1)
        picked = first[::step][: self.CHECK_CLIPS]
        match = 0
        for record_id, tokens in picked:
            clip = read_vvid(self.data / records[record_id].video)
            match += evaluate.caption_video(model, vocab, clip, self.REQUEST)[1] == tokens
        out.append(("predictions.match_caption_video", match == len(picked), f"{match}/{len(picked)} clips"))
        return out

    def digest(self, samples):
        return {"predictions": _digest(samples[0]["predictions"])}


WORKLOADS = {w.name: w for w in (TrainDesk, CaptionStream, EvaluateCorpus)}
