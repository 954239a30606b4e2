"""Corpus-batched evaluation against the per-clip captioning path: the
same captions and log-probs, the same order and skipped records, with
clips encoded in small chunks as they are read and every clip decoded in
lockstep; reading and frame selection run a bounded distance ahead on a
worker thread that never outlives the call."""

import struct
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from vidcap import autodiff as ad
from vidcap import evaluate
from vidcap.decoder import CaptionDecoder, DecoderConfig, GenerationRequest
from vidcap.encoder import EncoderConfig, VideoEncoder
from vidcap.model import CaptionModel
from vidcap.synth import SyntheticSpec, generate_synthetic_dataset
from vidcap.textproc import EOS_ID, PosTagger, build_concept_vocabulary, build_vocab, load_corpus
from vidcap.training import load_checkpoint, save_checkpoint, token_cache
from vidcap.video import VideoClip, read_vvid, write_vvid

MAX_LEN = 6
UNREADABLE = 4  # record index whose video is overwritten with junk

REQUESTS = {
    "greedy": GenerationRequest(strategy="greedy", max_len=MAX_LEN),
    "beam3": GenerationRequest(strategy="beam", beam_width=3, max_len=MAX_LEN),
    "topk": GenerationRequest(strategy="topk", k=5, max_len=MAX_LEN, seed=7),
    "topp": GenerationRequest(strategy="topp", p=0.9, max_len=MAX_LEN, seed=7),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Eleven records in three clip shapes (one not a patch multiple),
    one of them unreadable."""
    data = tmp_path_factory.mktemp("eval") / "data"
    records = generate_synthetic_dataset(SyntheticSpec(videos=11, frames=12, height=24, width=24, seed=5), data)
    for i, rec in enumerate(records):
        frames = read_vvid(data / rec.video).data
        if i % 3 == 1:
            write_vvid(data / rec.video, VideoClip(frames[:10, :18, :22]))
        elif i % 3 == 2:
            write_vvid(data / rec.video, VideoClip(frames[:, :16]))
    (data / records[UNREADABLE].video).write_bytes(b"junk")
    return data, records


@pytest.fixture(scope="module")
def uniform(tmp_path_factory):
    """3 * ENCODE_CHUNK + 2 readable records of one clip shape."""
    data = tmp_path_factory.mktemp("uniform") / "data"
    spec = SyntheticSpec(videos=3 * evaluate.ENCODE_CHUNK + 2, frames=12, height=16, width=16, paraphrases=3, seed=6)
    return data, generate_synthetic_dataset(spec, data)


def _encode_calls(events):
    """(reads seen, clips encoded before, clips in the call) for each encode event."""
    calls, reads, encoded = [], 0, 0
    for event in events:
        if event[0] == "read":
            reads += 1
        else:
            calls.append((reads, encoded, event[1]))
            encoded += event[1]
    return calls


def _checkpoint(records, path, eos_bias: float):
    """An untrained model with every weight matrix scaled up, so that its
    captions depend on the clip, and an EOS logit bias that sets how
    early they stop."""
    captions = [c for r in records for c in r.captions]
    vocab = build_vocab(captions)
    concepts = build_concept_vocabulary(captions, PosTagger.load_default(), 8)
    model = CaptionModel(EncoderConfig(concept_count=8), DecoderConfig(vocab_size=len(vocab), concept_dim=8), seed=3)
    for name, param in model.parameters().items():
        if name.endswith(".weight"):
            param.data *= 5.0
    model.parameters()["decoder.out_proj.bias"].data[EOS_ID] = eos_bias
    save_checkpoint(path, model)
    vocab.save(path / "vocab.json")
    concepts.save(path / "concepts.json")
    return load_checkpoint(path)[0], vocab  # the float32 weights evaluation loads


@pytest.mark.parametrize("strategy", sorted(REQUESTS))
def test_batched_evaluation_equals_per_clip_captioning(corpus, tmp_path, strategy):
    data, records = corpus
    model, vocab = _checkpoint(records, tmp_path / "ckpt", eos_bias=0.0)
    request = REQUESTS[strategy]
    outcome = evaluate.evaluate_checkpoint(tmp_path / "ckpt", data / "corpus.jsonl", request)

    readable = [r for i, r in enumerate(records) if i != UNREADABLE]
    assert [p["id"] for p in outcome.predictions] == [r.id for r in readable]
    assert [e["id"] for e in outcome.errors] == [records[UNREADABLE].id]
    for rec, pred in zip(readable, outcome.predictions):
        text, tokens, logprob = evaluate.caption_video(model, vocab, read_vvid(data / rec.video), request)
        assert pred["tokens"] == tokens, rec.id
        assert pred["caption"] == text
        assert abs(pred["logprob"] - logprob) <= 1e-12
    # clips stop at different lengths and mostly differ, so a clip dropping
    # out of the lockstep or a swapped row would show
    assert len({len(p["tokens"]) for p in outcome.predictions}) > 1
    assert len({tuple(p["tokens"]) for p in outcome.predictions}) > len(readable) // 2


def test_greedy_steps_once_per_length_for_the_whole_corpus(corpus, tmp_path, monkeypatch):
    data, records = corpus
    _checkpoint(records, tmp_path / "ckpt", eos_bias=-50.0)  # every caption runs to MAX_LEN
    steps, rows, events, passes = [], [], [], []
    step_fn, encode, read = CaptionDecoder.step_fn, VideoEncoder.__call__, evaluate.read_vvid
    forward = VideoEncoder._forward

    def counting_step_fn(self, semantic, enc_tokens):
        step = step_fn(self, semantic, enc_tokens)
        steps.append(0)

        def counted(batch):
            steps[-1] += 1
            rows.append(len(batch[0]))
            return step(batch)

        return counted

    def logged_encode(self, clips, *args, **kwargs):
        events.append(("encode", len(clips)))
        return encode(self, clips, *args, **kwargs)

    def logged_forward(self, clips, *args, **kwargs):
        passes.append({c.data.shape for c in clips})
        return forward(self, clips, *args, **kwargs)

    def logged_read(path):
        events.append(("read",))
        return read(path)

    monkeypatch.setattr(CaptionDecoder, "step_fn", counting_step_fn)
    monkeypatch.setattr(VideoEncoder, "__call__", logged_encode)
    monkeypatch.setattr(VideoEncoder, "_forward", logged_forward)
    monkeypatch.setattr(evaluate, "read_vvid", logged_read)
    outcome = evaluate.evaluate_checkpoint(tmp_path / "ckpt", data / "corpus.jsonl", REQUESTS["greedy"])

    assert all(len(p["tokens"]) == MAX_LEN for p in outcome.predictions)
    # all selected clips share one token shape, so one step per length serves every clip
    assert steps == [MAX_LEN]
    assert rows == [len(records) - 1] * MAX_LEN
    # chunks of at most ENCODE_CHUNK clips, the first encoded before the
    # corpus is read to the end; the encoder runs one pass per shape in a chunk
    encodes = [e for e in events if e[0] == "encode"]
    assert all(n <= evaluate.ENCODE_CHUNK for _, n in encodes)
    assert sum(n for _, n in encodes) == len(records) - 1
    assert all(len(shapes) == 1 for shapes in passes) and len(passes) > len(encodes)
    assert all(reads <= encoded + n + 2 * evaluate.ENCODE_CHUNK + 1 for reads, encoded, n in _encode_calls(events))


def test_corpus_without_a_readable_video_is_a_value_error(corpus, tmp_path):
    data, records = corpus
    _checkpoint(records, tmp_path / "ckpt", eos_bias=0.0)
    (tmp_path / "videos").mkdir()
    for rec in records:
        (tmp_path / rec.video).write_bytes(b"junk")
    (tmp_path / "corpus.jsonl").write_bytes((data / "corpus.jsonl").read_bytes())
    with pytest.raises(ValueError, match="no readable video"):
        evaluate.evaluate_checkpoint(tmp_path / "ckpt", tmp_path / "corpus.jsonl", REQUESTS["greedy"])


def test_nan_clip_is_a_logged_partial_error(corpus, tmp_path):
    data, records = corpus
    _checkpoint(records, tmp_path / "ckpt", eos_bias=0.0)
    (tmp_path / "videos").mkdir()
    for rec in records:
        (tmp_path / rec.video).write_bytes((data / rec.video).read_bytes())
    (tmp_path / "corpus.jsonl").write_bytes((data / "corpus.jsonl").read_bytes())
    nan_clip = tmp_path / records[0].video
    raw = bytearray(nan_clip.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))  # one NaN pixel in the payload
    nan_clip.write_bytes(bytes(raw))

    outcome = evaluate.evaluate_checkpoint(tmp_path / "ckpt", tmp_path / "corpus.jsonl", REQUESTS["greedy"])
    assert outcome.partial
    assert [e["id"] for e in outcome.errors] == [records[0].id, records[UNREADABLE].id]
    assert "[0, 1]" in outcome.errors[0]["error"]
    assert len(outcome.predictions) == len(records) - 2


def test_corpus_is_parsed_once_unless_train_corpus_is_another_file(corpus, tmp_path, monkeypatch):
    data, records = corpus
    _checkpoint(records, tmp_path / "ckpt", eos_bias=50.0)  # every caption stops at once
    other = tmp_path / "train.jsonl"
    other.write_bytes((data / "corpus.jsonl").read_bytes())
    parsed = []

    def counting_load_corpus(path):
        parsed.append(Path(path).resolve())
        return load_corpus(path)

    monkeypatch.setattr(evaluate, "load_corpus", counting_load_corpus)
    corpus_path = data / "corpus.jsonl"
    for train_path, want in [
        (None, [corpus_path]),
        (corpus_path, [corpus_path]),
        (data / "videos" / ".." / "corpus.jsonl", [corpus_path]),
        (other, [corpus_path, other]),
    ]:
        parsed.clear()
        outcome = evaluate.evaluate_checkpoint(
            tmp_path / "ckpt", corpus_path, REQUESTS["greedy"], train_corpus_path=train_path
        )
        assert parsed == [p.resolve() for p in want]
        assert len(outcome.predictions) == len(records) - 1


def test_max_len_beyond_the_decoder_positions_is_refused_before_any_read(corpus, tmp_path, monkeypatch):
    data, records = corpus
    _checkpoint(records, tmp_path / "ckpt", eos_bias=0.0)
    reads, read = [], evaluate.read_vvid

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(evaluate, "read_vvid", counting_read)
    with pytest.raises(ValueError, match="^max length 33 exceeds 32 decoder positions$"):
        evaluate.evaluate_checkpoint(tmp_path / "ckpt", data / "corpus.jsonl", GenerationRequest(max_len=33))
    assert reads == []


def test_reads_run_at_most_two_chunks_and_one_clip_ahead_of_encoding(uniform, tmp_path, monkeypatch):
    data, records = uniform
    _checkpoint(records, tmp_path / "ckpt", eos_bias=50.0)
    events = []
    encode, read = VideoEncoder.__call__, evaluate.read_vvid

    def logged_encode(self, clips, *args, **kwargs):
        events.append(("encode", len(clips)))
        return encode(self, clips, *args, **kwargs)

    def logged_read(path):
        events.append(("read",))
        return read(path)

    monkeypatch.setattr(VideoEncoder, "__call__", logged_encode)
    monkeypatch.setattr(evaluate, "read_vvid", logged_read)
    outcome = evaluate.evaluate_checkpoint(tmp_path / "ckpt", data / "corpus.jsonl", REQUESTS["greedy"])

    assert [p["id"] for p in outcome.predictions] == [r.id for r in records]
    calls = _encode_calls(events)
    chunk = evaluate.ENCODE_CHUNK
    assert [n for _, _, n in calls] == [chunk, chunk, chunk, 2]
    # the chunk being encoded, at most a chunk queued and one clip in hand
    assert all(reads <= encoded + 2 * chunk + 1 for reads, encoded, _ in calls), calls


def test_read_ahead_keeps_order_bounds_depth_and_joins_under_fast_switching():
    made = []

    def items(n, fail_at=None):
        for i in range(n):
            if i == fail_at:
                raise KeyError(i)
            made.append(i)
            yield i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = set(threading.enumerate())
        for depth in (1, 3):
            for take in (1, 5, 200):
                made.clear()
                got = []
                gen = evaluate._read_ahead(items(200), depth)
                for item in gen:
                    # depth items queued and one in hand, beyond those taken
                    assert len(made) <= len(got) + 1 + depth + 1
                    got.append(item)
                    if len(got) == take:
                        gen.close()
                assert got == list(range(take))
                assert set(threading.enumerate()) == before
            got = []
            with pytest.raises(KeyError):
                for item in evaluate._read_ahead(items(50, fail_at=20), depth):
                    got.append(item)
            assert got == list(range(20))
            assert set(threading.enumerate()) == before
    finally:
        sys.setswitchinterval(interval)


def test_a_reader_error_surfaces_with_its_own_type(uniform, tmp_path, monkeypatch):
    data, records = uniform
    _checkpoint(records, tmp_path / "ckpt", eos_bias=50.0)
    selected, select = [], evaluate.select_from_clip

    def failing_select(clip, frames):
        selected.append(0)
        if len(selected) == evaluate.ENCODE_CHUNK + 2:
            raise RuntimeError("selection failed")
        return select(clip, frames)

    monkeypatch.setattr(evaluate, "select_from_clip", failing_select)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="selection failed"):
        evaluate.evaluate_checkpoint(tmp_path / "ckpt", data / "corpus.jsonl", REQUESTS["greedy"])
    assert set(threading.enumerate()) == before


def test_an_encoder_error_stops_and_joins_the_blocked_reader(uniform, tmp_path, monkeypatch):
    data, records = uniform
    _checkpoint(records, tmp_path / "ckpt", eos_bias=50.0)
    reads, read = [], evaluate.read_vvid
    full = 2 * evaluate.ENCODE_CHUNK + 1  # the chunk taken, a chunk queued and one clip in hand

    def counted_read(path):
        reads.append(path)
        return read(path)

    def failing_encode(self, clips, *args, **kwargs):
        deadline = time.monotonic() + 30.0
        while len(reads) < full and time.monotonic() < deadline:
            time.sleep(0.001)
        raise RuntimeError("encoder failed")

    monkeypatch.setattr(evaluate, "read_vvid", counted_read)
    monkeypatch.setattr(VideoEncoder, "__call__", failing_encode)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="encoder failed"):
        evaluate.evaluate_checkpoint(tmp_path / "ckpt", data / "corpus.jsonl", REQUESTS["greedy"])
    assert set(threading.enumerate()) == before
    # the reader filled the queue, waited on it and read nothing more once stopped
    assert len(reads) == full


def test_report_json_bytes_are_pinned(uniform, tmp_path):
    """report.json for a fixed corpus and checkpoint, byte for byte as
    tests/data/eval_report.json holds it."""
    data, records = uniform
    _checkpoint(records, tmp_path / "ckpt", eos_bias=0.0)
    evaluate.evaluate_checkpoint(tmp_path / "ckpt", data / "corpus.jsonl", REQUESTS["greedy"], out_dir=tmp_path / "out")
    want = (Path(__file__).parent / "data" / "eval_report.json").read_bytes()
    assert (tmp_path / "out" / "report.json").read_bytes() == want


def test_eval_mode_encoding_and_captioning_record_no_op(monkeypatch):
    # eval mode with no tape runs on arrays end to end: no op is recorded
    vocab = build_vocab(["a red ball moves left", "the blue cube moves up"])
    model = CaptionModel(EncoderConfig(concept_count=8), DecoderConfig(vocab_size=len(vocab), concept_dim=8), seed=4)
    rng = np.random.default_rng(62)
    clips = [VideoClip(rng.random((12, 16, 16, 3))) for _ in range(3)]

    def refuse(*args):
        raise AssertionError("an eval-mode call reached the tape")

    monkeypatch.setattr(ad, "_record", refuse)
    assert token_cache(model, clips, 2).shape == (3, 6, 32)
    for request in REQUESTS.values():
        assert len(evaluate.caption_video(model, vocab, clips[0], request)[1]) <= MAX_LEN
