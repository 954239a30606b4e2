"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 data error (missing/invalid
files, bad configs, partial evaluation), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .afs import DISSIMILARITY_METRICS, build_cdf, frame_dissimilarity, select_frames
from .autodiff import NumericError
from .decoder import STRATEGIES, GenerationRequest
from .evaluate import caption_video, evaluate_checkpoint, load_captioner
from .metrics import compute_report
from .synth import SyntheticSpec, generate_synthetic_dataset
from .textproc import PosTagger, build_concept_vocabulary, build_vocab, config_from_table, load_corpus, parse_json
from .training import TrainConfig, TrainingDiverged, train
from .video import read_vvid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_json(path: str | Path):
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such file: {p}")
    return parse_json(p.read_text(), p)


def _decode_request(args) -> GenerationRequest:
    return GenerationRequest(
        strategy=args.decode,
        beam_width=args.beam,
        k=args.topk,
        p=args.topp,
        temperature=args.temperature,
        max_len=args.max_len,
        seed=args.seed,
    )


def _add_decode_flags(p):
    p.add_argument("--decode", default="beam", choices=STRATEGIES)
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--topk", type=int, default=20)
    p.add_argument("--topp", type=float, default=0.95)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-len", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vidcap", description="Desk-scale video captioning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[], help="render a synthetic shape-motion corpus")
    p.add_argument("--spec", help="JSON file of generator settings (defaults apply if omitted)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("afs", help="adaptive frame selection for one video")
    p.add_argument("--video", required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--metric", default="mad", choices=DISSIMILARITY_METRICS)
    p.add_argument("--dedupe", action="store_true")
    p.add_argument("--out", help="write the JSON here instead of stdout")

    p = sub.add_parser("build-vocab", help="derive word and concept vocabularies from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--concepts", type=int, default=16)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="run the two-phase training loop")
    p.add_argument("--config", help="TrainConfig JSON (defaults apply if omitted)")
    p.add_argument("--data", required=True, help="directory holding corpus.jsonl and videos/")
    p.add_argument("--out", required=True)
    p.add_argument("--log-every", type=int, default=50)

    p = sub.add_parser("caption", help="caption one video with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--video", required=True)
    _add_decode_flags(p)

    p = sub.add_parser("evaluate", help="caption a corpus and score it")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", default="all", choices=["all", "train", "val", "test"])
    p.add_argument("--train-corpus", help="corpus supplying train captions for novelty stats")
    p.add_argument("--out", required=True, help="directory for report.json / predictions.jsonl")
    _add_decode_flags(p)

    p = sub.add_parser("score", help="score an existing predictions file against references")
    p.add_argument("--preds", required=True, help="JSONL rows {id, caption}")
    p.add_argument("--refs", required=True, help="reference corpus JSONL")
    p.add_argument("--train-corpus", help="defaults to --refs")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    return parser


def _cmd_gen_data(args) -> int:
    spec = config_from_table(SyntheticSpec, _read_json(args.spec) if args.spec else {}, "synthetic spec")
    records = generate_synthetic_dataset(spec, args.out)
    print(f"wrote {len(records)} videos under {args.out}")
    return EXIT_OK


def _cmd_afs(args) -> int:
    clip = read_vvid(args.video)
    d = frame_dissimilarity(clip, metric=args.metric)
    cdf = build_cdf(d, clip.frames)
    sel = select_frames(cdf, args.frames, dedupe=args.dedupe)
    payload = {
        "m": cdf.m,
        "n": args.frames,
        "indices": list(sel.indices),
        "pdf": [float(x) for x in cdf.pdf],
        "cdf": [float(x) for x in cdf.breakpoints],
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_build_vocab(args) -> int:
    records = load_corpus(args.corpus)
    captions = [c for r in records if r.split == "train" for c in r.captions]
    vocab = build_vocab(captions)
    tagger = PosTagger.load_default()
    concepts = build_concept_vocabulary(captions, tagger, args.concepts)
    payload = {
        "words": vocab.words,
        "concepts": concepts.words,
        "concept_counts": concepts.counts,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{vocab.learned_count} learned words, {len(concepts.words)} concepts -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = config_from_table(TrainConfig, _read_json(args.config) if args.config else {}, "training config")
    result = train(cfg, args.data, args.out, log_every=args.log_every, quiet=False)
    print(f"checkpoint at {result.checkpoint_dir}")
    return EXIT_OK


def _cmd_caption(args) -> int:
    request = _decode_request(args)
    model, vocab = load_captioner(args.ckpt)
    model.check_request(request)  # before the video is read and encoded
    clip = read_vvid(args.video)
    text, tokens, logprob = caption_video(model, vocab, clip, request)
    print(json.dumps({"caption": text, "tokens": tokens, "logprob": logprob}))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    outcome = evaluate_checkpoint(
        args.ckpt,
        args.corpus,
        request=_decode_request(args),
        split=args.split,
        train_corpus_path=args.train_corpus,
        out_dir=args.out,
    )
    print(json.dumps(outcome.report.to_json(), indent=2))
    if outcome.partial:
        print(f"partial: {len(outcome.errors)} items skipped", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _cmd_score(args) -> int:
    refs_by_id = {r.id: r.captions for r in load_corpus(args.refs)}
    preds, refs = [], []
    first_line: dict = {}
    pred_path = Path(args.preds)
    if not pred_path.exists():
        raise DataError(f"no such file: {pred_path}")
    for line_no, line in enumerate(pred_path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        row = parse_json(line, pred_path, line_no)
        if not isinstance(row, dict) or "id" not in row or "caption" not in row:
            raise DataError(f"{pred_path}:{line_no}: prediction rows need id and caption")
        if not isinstance(row["id"], str):
            raise DataError(f"{pred_path}:{line_no}: id must be a string, got {row['id']!r}")
        if row["id"] not in refs_by_id:
            raise DataError(f"{pred_path}:{line_no}: no references for id {row['id']!r}")
        if not isinstance(row["caption"], str):
            raise DataError(f"{pred_path}:{line_no}: caption must be a string, got {row['caption']!r}")
        if row["id"] in first_line:
            raise DataError(f"{pred_path}:{line_no}: id {row['id']!r} repeats line {first_line[row['id']]}")
        first_line[row["id"]] = line_no
        preds.append(row["caption"])
        refs.append(refs_by_id[row["id"]])
    if not preds:
        raise DataError("no predictions to score")
    train_path = args.train_corpus or args.refs
    train_caps = [c for r in load_corpus(train_path) if r.split == "train" for c in r.captions]
    if not train_caps:
        train_caps = [c for caps in refs for c in caps]
    train_vocab = build_vocab(train_caps)
    report = compute_report(preds, refs, train_caps, train_vocab.learned_count, PosTagger.load_default())
    text = json.dumps(report.to_json(), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "afs": _cmd_afs,
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "caption": _cmd_caption,
    "evaluate": _cmd_evaluate,
    "score": _cmd_score,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TrainingDiverged, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
