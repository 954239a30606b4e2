"""The benchmark's traced run patches vidcap names listed in
perfbench/tracing.py TARGETS; a target that no longer resolves is skipped
there and its per-layer metrics silently read 0.  These guards resolve
each target the way the tracer does, and install the tracer's patches
around one caption, one evaluation, one report and one short training
run, so a refactor that renames a target or stops calling it fails here.
"""

import importlib
import runpy
from pathlib import Path

import numpy as np
from test_evaluate import REQUESTS, _checkpoint

import vidcap.evaluate
import vidcap.training
from vidcap.decoder import DecoderConfig, GenerationRequest
from vidcap.encoder import EncoderConfig
from vidcap.model import CaptionModel
from vidcap.synth import SyntheticSpec, generate_synthetic_dataset
from vidcap.textproc import build_vocab
from vidcap.video import VideoClip

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# absent since one search loop replaced the per-strategy generators; this
# set shrinks when the benchmark's targets are updated
KNOWN_ABSENT = {("vidcap.decoder", "generate_beam"), ("vidcap.decoder", "generate_sample")}


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return attr in vars(owner) if owner is not None else False


def test_every_trace_target_resolves():
    # run_path compiles the file without importing perfbench as a package
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    absent = {(module, path) for _, module, path, _ in targets if not _resolves(module, path)}
    assert absent == KNOWN_ABSENT


def test_traced_spans_fire_in_one_caption():
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"]()
    patches = tracing["Patches"](tracer)
    vocab = build_vocab(["a red ball moves left"])
    model = CaptionModel(EncoderConfig(concept_count=8), DecoderConfig(vocab_size=len(vocab), concept_dim=8))
    clip = VideoClip(np.random.default_rng(0).random((12, 16, 16, 3)))
    patches.install()
    try:
        tracer.on = True
        vidcap.evaluate.caption_video(model, vocab, clip, GenerationRequest(strategy="greedy", max_len=3))
    finally:
        patches.restore()
    recorded = {span["name"] for span in tracer.spans}
    for name in (
        "encoder.forward",
        "encoder.window_block",
        "encoder.patch_merge",
        "encoder.concept_head",
        "decoder.forward",
        "decoder.step",
        "caption",
    ):
        assert name in recorded, name


def test_traced_spans_fire_in_one_evaluation(tmp_path):
    # evaluate_checkpoint encodes on its main thread while a worker reads ahead
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"]()
    patches = tracing["Patches"](tracer)
    records = generate_synthetic_dataset(SyntheticSpec(videos=3, frames=12, height=16, width=16, seed=8), tmp_path)
    _checkpoint(records, tmp_path / "ckpt", eos_bias=0.0)
    patches.install()
    try:
        tracer.on = True
        vidcap.evaluate.evaluate_checkpoint(tmp_path / "ckpt", tmp_path / "corpus.jsonl", REQUESTS["greedy"])
    finally:
        patches.restore()
    recorded = {span["name"] for span in tracer.spans}
    for name in ("encoder.forward", "encoder.window_block", "encoder.patch_merge", "encoder.concept_head"):
        assert name in recorded, name


def test_traced_spans_fire_in_one_training_run(tmp_path):
    # train_desk's traced step, backward, AdamW and layer metrics read these
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"]()
    patches = tracing["Patches"](tracer)
    generate_synthetic_dataset(SyntheticSpec(videos=3, frames=12, height=16, width=16, seed=8), tmp_path / "data")
    config = vidcap.training.TrainConfig(
        encoder={"concept_count": 8}, pretrain_steps=1, max_steps=1, batch_size=2, seed=1
    )
    patches.install()
    try:
        tracer.on = True
        vidcap.training.train(config, tmp_path / "data", tmp_path / "out")
    finally:
        patches.restore()
    names = [span["name"] for span in tracer.spans]
    assert names.count("training.step") == 2
    for name in (
        "autodiff.backward",
        "optim.adamw",
        "encoder.forward",
        "encoder.concept_head",
        "decoder.forward",
    ):
        assert name in names, name


def test_decoder_forward_spans_count_the_rows_of_each_step():
    # decoder.positions_per_caption.* sums the positions of these spans
    tracing = runpy.run_path(str(TRACING))
    vocab = build_vocab(["a red ball moves left"])
    model = CaptionModel(EncoderConfig(concept_count=8), DecoderConfig(vocab_size=len(vocab), concept_dim=8))
    clip = VideoClip(np.random.default_rng(0).random((12, 16, 16, 3)))
    for request, want in (
        (GenerationRequest(strategy="greedy", max_len=3), [1, 1, 1]),
        (GenerationRequest(strategy="beam", beam_width=2, max_len=3), [1, 2, 2]),
    ):
        tracer = tracing["Tracer"]()
        patches = tracing["Patches"](tracer)
        patches.install()
        try:
            tracer.on = True
            vidcap.evaluate.caption_video(model, vocab, clip, request)
        finally:
            patches.restore()
        got = [span["attrs"]["positions"] for span in tracer.spans if span["name"] == "decoder.forward"]
        assert got == want, request.strategy


def test_metric_spans_fire_in_one_report():
    tracing = runpy.run_path(str(TRACING))
    tracer = tracing["Tracer"]()
    patches = tracing["Patches"](tracer)
    preds = ["a red ball moves left", "a blue cube moves"]
    refs = [["a red ball moves left", "the red ball moves"], ["a blue cube moves right"]]
    patches.install()
    try:
        tracer.on = True
        vidcap.evaluate.compute_report(preds, refs, ["a red ball moves left"], train_vocab_size=8)
    finally:
        patches.restore()
    recorded = {span["name"] for span in tracer.spans}
    for name in ("metrics.report", "metrics.bleu4", "metrics.rouge_l", "metrics.cider_d", "metrics.self_bleu"):
        assert name in recorded, name
