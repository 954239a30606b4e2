"""Spans around vidcap's public calls, recorded only in the traced run.

Each wrapper replaces a name where its caller looks it up: `train()` finds
`backward` in `vidcap.training`, `evaluate_checkpoint()` finds
`compute_report` in `vidcap.evaluate`, so those module attributes are the
ones patched, not the defining module's.  A target that no longer exists is
listed in `Patches.absent` and skipped, so a refactor that moves a function
costs its metrics, not the run.

Spans live in memory as dicts (id, parent, name, op, start, end, attrs) and
are written out by the caller when the run ends.  `op` is the operation id:
the training step, caption or clip index, inherited by child spans.
"""

from __future__ import annotations

import importlib
import time
from contextlib import nullcontext


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ops: dict[str, int] = {}

    def next_op(self, kind: str) -> int:
        self._ops[kind] = self._ops.get(kind, -1) + 1
        return self._ops[kind]

    def begin(self, name: str, op=None, **attrs) -> dict:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent["op"]
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        """Close `span` and any span opened inside it and left open."""
        if span not in self._stack:
            return
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top["end"] = now
            if top is span:
                return

    def end_open(self, name: str) -> None:
        for span in reversed(self._stack):
            if span["name"] == name:
                self.end(span)
                return

    def span(self, name: str, op=None, **attrs):
        """Context manager recording one span; a no-op while tracing is off."""
        if not self.on:
            return nullcontext({"attrs": {}})
        return _SpanContext(self, name, op, attrs)


class _SpanContext:
    def __init__(self, tracer, name, op, attrs):
        self.tracer, self.name, self.op, self.attrs = tracer, name, op, attrs

    def __enter__(self):
        self.span = self.tracer.begin(self.name, self.op, **self.attrs)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


# --- wrappers -------------------------------------------------------------


def _plain(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _backward(tracer, name, fn):
    def wrapper(loss, tape, *args, **kwargs):
        with tracer.span(name, nodes=len(getattr(tape, "nodes", ()))):
            return fn(loss, tape, *args, **kwargs)

    return wrapper


def _tape(tracer, name, tape_cls):
    """A training step runs from entering its tape to the end of the AdamW
    update, which `_closes_step` marks."""

    class TracedTape(tape_cls):
        def __enter__(self):
            if tracer.on:
                tracer.end_open(name)
                tracer.begin(name, op=tracer.next_op(name))
            return super().__enter__()

    return TracedTape


def _closes_step(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if tracer.on:
            tracer.end_open("training.step")
        return out

    return wrapper


def _decoder_forward(tracer, name, fn):
    def wrapper(self, hidden, *args, **kwargs):
        with tracer.span(name, positions=int(hidden.shape[0])):
            return fn(self, hidden, *args, **kwargs)

    return wrapper


def _step_fn(tracer, name, fn):
    def wrapper(*args, **kwargs):
        step = fn(*args, **kwargs)

        def traced_step(prefix):
            with tracer.span(name):
                return step(prefix)

        return traced_step

    return wrapper


def strategy_label(request) -> str:
    if request.strategy == "beam":
        return f"beam{request.beam_width}"
    return request.strategy


def _caption(tracer, name, fn):
    def wrapper(model, vocab, clip, request, *args, **kwargs):
        if not tracer.on:
            return fn(model, vocab, clip, request, *args, **kwargs)
        with tracer.span(name, op=tracer.next_op(name), strategy=strategy_label(request)) as span:
            out = fn(model, vocab, clip, request, *args, **kwargs)
            span["attrs"]["tokens"] = len(out[1])
            return out

    return wrapper


# (span name, module, attribute path where callers look it up, wrapper)
TARGETS = [
    ("training.step", "vidcap.training", "Tape", _tape),
    ("autodiff.backward", "vidcap.training", "backward", _backward),
    ("optim.clip", "vidcap.training", "clip_global_norm", _plain),
    ("optim.adamw", "vidcap.training", "adamw_step", _closes_step),
    ("training.load_checkpoint", "vidcap.training", "load_checkpoint", _plain),
    ("training.load_checkpoint", "vidcap.evaluate", "load_checkpoint", _plain),
    ("encoder.forward", "vidcap.encoder", "VideoEncoder.__call__", _plain),
    ("encoder.window_block", "vidcap.encoder", "WindowBlock.__call__", _plain),
    ("encoder.patch_merge", "vidcap.encoder", "PatchMerge.__call__", _plain),
    ("encoder.concept_head", "vidcap.encoder", "ConceptHead.logits", _plain),
    ("decoder.forward", "vidcap.decoder", "CaptionDecoder.__call__", _decoder_forward),
    ("decoder.step", "vidcap.decoder", "CaptionDecoder.step_fn", _step_fn),
    ("decoder.generate", "vidcap.model", "generate", _plain),
    ("decoder.search", "vidcap.decoder", "generate_beam", _plain),
    ("decoder.search", "vidcap.decoder", "generate_sample", _plain),
    ("caption", "vidcap.evaluate", "caption_video", _caption),
    ("afs.select", "vidcap.evaluate", "select_from_clip", _plain),
    ("afs.apply", "vidcap.evaluate", "apply_selection", _plain),
    ("afs.select", "vidcap.training", "select_from_clip", _plain),
    ("afs.apply", "vidcap.training", "apply_selection", _plain),
    ("video.read", "vidcap.evaluate", "read_vvid", _plain),
    ("video.read", "vidcap.training", "read_vvid", _plain),
    ("metrics.report", "vidcap.evaluate", "compute_report", _plain),
    ("metrics.self_bleu", "vidcap.metrics", "self_bleu", _plain),
    ("metrics.cider_d", "vidcap.metrics", "cider_d", _plain),
    ("metrics.bleu4", "vidcap.metrics", "bleu4_corpus", _plain),
    ("metrics.rouge_l", "vidcap.metrics", "rouge_l", _plain),
    ("textproc.load_corpus", "vidcap.training", "load_corpus", _plain),
    ("textproc.load_corpus", "vidcap.evaluate", "load_corpus", _plain),
    ("textproc.tagger_load", "vidcap.textproc", "PosTagger.load_default", _plain),
]


class Patches:
    """Installs every wrapper in TARGETS and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for name, module, path, factory in TARGETS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(factory(self.tracer, name, raw.__func__))
            else:
                wrapped = factory(self.tracer, name, raw)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


# --- per-layer aggregation --------------------------------------------------

STRATEGIES = ("greedy", "beam3", "topk", "topp")


def unit_of(name: str) -> str:
    if name.startswith("loc."):
        return "lines"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms") or "_ms_" in name or "_ms." in name:
        return "ms"
    return "count"


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[dict], window: tuple[float, float]) -> dict[str, float]:
    """Per-layer figures from closed spans; `window` is the traced loop's
    (start, end), over which top-level coverage is measured."""
    spans = [s for s in spans if s["end"] is not None]
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return (s["end"] - s["start"]) * 1000.0

    def self_ms(s):
        return dur(s) - sum(dur(c) for c in children.get(s["id"], ()))

    def ancestor(s, name):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return s
        return None

    def named(name):
        return [s for s in spans if s["name"] == name]

    def phase_of(step):
        run = ancestor(step, "op.train")
        return run["attrs"].get("phase") if run else None

    steps = named("training.step")
    e2e = {s["id"] for s in steps if phase_of(s) == "end_to_end"}
    pre = [s for s in steps if phase_of(s) == "semantic_pretrain"]

    def in_e2e_step(s):
        return (ancestor(s, "training.step") or {}).get("id") in e2e

    def per_e2e_step(name):
        return sum(dur(s) for s in named(name) if in_e2e_step(s)) / len(e2e) if e2e else 0.0

    backward = [s for s in named("autodiff.backward") if in_e2e_step(s)]
    forwards = named("encoder.forward")
    out = {
        "autodiff.backward_ms_per_step": per_e2e_step("autodiff.backward"),
        "autodiff.tape_nodes_per_step": _mean(s["attrs"]["nodes"] for s in backward),
        "optim.clip_ms_per_step": per_e2e_step("optim.clip"),
        "optim.adamw_ms_per_step": per_e2e_step("optim.adamw"),
        "training.step_ms": _mean(dur(s) for s in steps if s["id"] in e2e),
        "training.pretrain_step_ms": _mean(dur(s) for s in pre),
        "training.load_checkpoint_ms": _mean(dur(s) for s in named("training.load_checkpoint")),
        "encoder.forward_ms": _mean(dur(s) for s in forwards),
        "encoder.window_block_ms": sum(dur(s) for s in named("encoder.window_block")) / max(len(forwards), 1),
        "encoder.patch_merge_ms": sum(dur(s) for s in named("encoder.patch_merge")) / max(len(forwards), 1),
        "encoder.concept_head_ms": _mean(dur(s) for s in named("encoder.concept_head")),
        "decoder.teacher_forced_ms_per_sample": _mean(
            dur(s) for s in named("decoder.forward") if ancestor(s, "training.step")
        ),
    }

    captions = named("caption")
    caption_of = {}
    for name in ("decoder.step", "decoder.forward", "decoder.search"):
        for s in named(name):
            cap = ancestor(s, "caption")
            if cap is not None:
                caption_of.setdefault((name, cap["attrs"]["strategy"]), []).append(s)
    for strategy in STRATEGIES:
        caps = [c for c in captions if c["attrs"]["strategy"] == strategy]
        n = max(len(caps), 1)
        step_spans = caption_of.get(("decoder.step", strategy), [])
        out[f"decoder.step_ms.{strategy}"] = _mean(dur(s) for s in step_spans)
        out[f"decoder.step_calls_per_caption.{strategy}"] = len(step_spans) / n
        out[f"decoder.positions_per_caption.{strategy}"] = (
            sum(s["attrs"]["positions"] for s in caption_of.get(("decoder.forward", strategy), [])) / n
        )
        out[f"decoder.tokens_per_caption.{strategy}"] = _mean(c["attrs"].get("tokens", 0) for c in caps)
        out[f"decoder.search_self_ms_per_caption.{strategy}"] = (
            sum(self_ms(s) for s in caption_of.get(("decoder.search", strategy), [])) / n
        )

    selects = named("afs.select")
    afs_ms = sum(dur(s) for s in selects + named("afs.apply"))
    out["afs.select_ms_per_clip"] = afs_ms / max(len(selects), 1)
    out["video.read_ms_per_clip"] = _mean(dur(s) for s in named("video.read"))
    for key in ("report", "self_bleu", "cider_d", "bleu4", "rouge_l"):
        out[f"metrics.{key}_ms"] = _mean(dur(s) for s in named(f"metrics.{key}"))
    out["textproc.load_corpus_ms"] = _mean(dur(s) for s in named("textproc.load_corpus"))
    out["textproc.tagger_load_ms"] = _mean(dur(s) for s in named("textproc.tagger_load"))

    start, end = window
    wall = (end - start) * 1000.0
    top = sum(dur(s) for s in spans if s["parent"] is None and s["start"] >= start and s["end"] <= end)
    out["trace.uncovered_pct"] = 100.0 * (wall - top) / wall if wall > 0 else 0.0
    return out
