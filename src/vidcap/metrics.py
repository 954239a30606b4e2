"""Caption quality and diversity metrics.

All metrics normalize text through the shared tokenizer, so callers pass
raw strings.  Quality: corpus BLEU-4, ROUGE-L (F-beta over the longest
common subsequence), CIDEr-D (tf-idf n-gram cosine with count clipping
and a Gaussian length penalty).  Diversity: Self-BLEU across the
generated set, exact novel/unique percentages, vocabulary usage, and a
POS pattern histogram.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .textproc import PosTagger, normalize_and_tokenize

EPS_PRECISION = 1e-9


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(c: int, ref_lengths: Sequence[int]) -> int:
    # ties between equally close reference lengths go to the shorter one
    return min(ref_lengths, key=lambda r: (abs(r - c), r))


def bleu4_corpus(preds: Sequence[str], refs: Sequence[Sequence[str]]) -> float:
    """Corpus-level BLEU-4 on a 0-100 scale.

    Clipped n-gram matches and candidate totals are pooled over the whole
    corpus before the precisions are formed; there is no smoothing, so a
    missing n-gram order anywhere in the pool zeroes the score.  The
    brevity penalty compares pooled candidate length against the pooled
    closest-reference lengths.
    """
    if len(preds) != len(refs):
        raise ValueError("predictions and references must align")
    if not preds:
        raise ValueError("empty prediction set")
    matches = [0] * 4
    totals = [0] * 4
    c_total = 0
    r_total = 0
    for pred, ref_group in zip(preds, refs):
        ptoks = normalize_and_tokenize(pred)
        rtoks = [normalize_and_tokenize(r) for r in ref_group]
        if not rtoks:
            raise ValueError("every item needs at least one reference")
        c_total += len(ptoks)
        r_total += _closest_ref_length(len(ptoks), [len(r) for r in rtoks])
        for n in range(1, 5):
            pc = _ngrams(ptoks, n)
            if not pc:
                continue
            best = Counter()
            for r in rtoks:
                for g, cnt in _ngrams(r, n).items():
                    if cnt > best[g]:
                        best[g] = cnt
            matches[n - 1] += sum(min(cnt, best[g]) for g, cnt in pc.items())
            totals[n - 1] += sum(pc.values())
    if c_total == 0 or any(t == 0 for t in totals):
        return 0.0
    precisions = [m / t for m, t in zip(matches, totals)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    bp = 1.0 if c_total > r_total else float(np.exp(1.0 - r_total / c_total))
    return 100.0 * bp * float(np.exp(np.mean([np.log(p) for p in precisions])))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(preds: Sequence[str], refs: Sequence[Sequence[str]], beta: float = 1.2) -> float:
    """Mean over items of the best F-beta LCS score against any reference,
    on a 0-100 scale.  Empty predictions score zero for their item."""
    if len(preds) != len(refs):
        raise ValueError("predictions and references must align")
    if not preds:
        return 0.0
    scores = []
    for pred, ref_group in zip(preds, refs):
        ptoks = normalize_and_tokenize(pred)
        best = 0.0
        for r in ref_group:
            rtoks = normalize_and_tokenize(r)
            lcs = _lcs_length(ptoks, rtoks)
            if lcs == 0 or not ptoks or not rtoks:
                continue
            prec = lcs / len(ptoks)
            rec = lcs / len(rtoks)
            f = (1 + beta**2) * prec * rec / (rec + beta**2 * prec)
            best = max(best, f)
        scores.append(best)
    return 100.0 * float(np.mean(scores))


def cider_d(preds: Sequence[str], refs: Sequence[Sequence[str]], sigma: float = 6.0) -> float:
    """CIDEr-D on a 0-10 scale.

    Document frequencies come from the reference sets (floored at one
    document), idf is ln(M/df).  Per n-gram order, the candidate counts
    are clipped to the largest count in that item's references before the
    tf-idf cosine against each reference; each reference similarity is
    damped by a Gaussian penalty on the length difference, then averaged
    over references and n-gram orders and scaled by 10.
    """
    if len(preds) != len(refs):
        raise ValueError("predictions and references must align")
    if not preds:
        raise ValueError("empty prediction set")
    m = len(refs)
    ref_tokens = [[normalize_and_tokenize(r) for r in group] for group in refs]
    dfs: list[Counter] = [Counter() for _ in range(4)]
    for group in ref_tokens:
        for n in range(1, 5):
            seen = set()
            for r in group:
                seen.update(_ngrams(r, n).keys())
            for g in seen:
                dfs[n - 1][g] += 1

    # an n-gram no reference holds counts as one document
    unseen = float(np.log(m / 1))
    idfs = [{g: float(np.log(m / max(df, 1))) for g, df in per_n.items()} for per_n in dfs]

    item_scores = []
    for pred, group in zip(preds, ref_tokens):
        ptoks = normalize_and_tokenize(pred)
        penalties = [float(np.exp(-((len(ptoks) - len(r)) ** 2) / (2.0 * sigma**2))) for r in group]
        per_n = []
        for n, idf in enumerate(idfs, 1):
            pc = _ngrams(ptoks, n)
            ref_counts = [_ngrams(r, n) for r in group]
            max_ref = Counter()
            for rc in ref_counts:
                for g, cnt in rc.items():
                    if cnt > max_ref[g]:
                        max_ref[g] = cnt
            clipped = {g: min(cnt, max_ref[g]) for g, cnt in pc.items()}
            vp = {g: cnt * idf.get(g, unseen) for g, cnt in clipped.items()}
            np_norm = float(np.sqrt(sum(v * v for v in vp.values())))
            sims = []
            for penalty, rc in zip(penalties, ref_counts):
                vr = {g: cnt * idf[g] for g, cnt in rc.items()}
                nr = float(np.sqrt(sum(v * v for v in vr.values())))
                if np_norm == 0.0 or nr == 0.0:
                    cos = 0.0
                else:
                    dot = sum(v * vr[g] for g, v in vp.items() if g in vr)
                    cos = dot / (np_norm * nr)
                sims.append(penalty * cos)
            per_n.append(float(np.mean(sims)) if sims else 0.0)
        item_scores.append(10.0 * float(np.mean(per_n)))
    return float(np.mean(item_scores))


def _top_counts(counters: Sequence[Counter]) -> dict[tuple, tuple[int, int, int]]:
    """Per n-gram over the counters: (top count, how many counters reach
    it, the largest count below it, 0 if none)."""
    tops: dict[tuple, tuple[int, int, int]] = {}
    for counter in counters:
        for g, cnt in counter.items():
            top, reach, second = tops.get(g, (0, 0, 0))
            if cnt > top:
                tops[g] = (cnt, 1, top)
            elif cnt == top:
                tops[g] = (top, reach + 1, second)
            elif cnt > second:
                tops[g] = (top, reach, cnt)
    return tops


def self_bleu(preds: Sequence[str]) -> float:
    """Mean sentence BLEU-4 of each prediction against all the others, on
    a 0-100 scale.  Needs at least two predictions.

    Sentence BLEU-4 leaves out the orders a candidate is too short to
    produce; a produced but unmatched order contributes a 1e-9 floor
    instead of zeroing everything, and an empty candidate scores 0.  The
    best count of an n-gram among the other predictions and the closest
    other length are lookups in corpus-wide tables (each n-gram's top two
    counts, the sorted lengths), so the whole set costs one pass.
    """
    toks = [normalize_and_tokenize(p) for p in preds]
    if len(toks) < 2:
        raise ValueError("need at least two predictions")
    counts = [[_ngrams(t, n) for t in toks] for n in range(1, 5)]
    tops = [_top_counts(per_n) for per_n in counts]
    lengths = sorted(len(t) for t in toks)
    scores = []
    for i, ptoks in enumerate(toks):
        c = len(ptoks)
        if not c:
            scores.append(0.0)
            continue
        logs = []
        for per_n, top in zip(counts, tops):
            pc = per_n[i]
            total = sum(pc.values())
            if total == 0:
                continue
            clipped = 0
            for g, cnt in pc.items():
                most, reach, second = top[g]
                clipped += min(cnt, most if cnt < most or reach > 1 else second)
            p = clipped / total
            logs.append(np.log(p if p > 0.0 else EPS_PRECISION))
        # the other lengths are the sorted lengths less one copy of c; the
        # closest lies next to that copy
        lo = bisect_left(lengths, c)
        others = lengths[max(lo - 1, 0) : lo] + lengths[lo + 1 : lo + 2]
        r = _closest_ref_length(c, others)
        bp = 1.0 if c > r else float(np.exp(1.0 - r / c))
        scores.append(bp * float(np.exp(np.mean(logs))))
    return 100.0 * float(np.mean(scores))


def diversity_stats(preds: Sequence[str], train_captions: Sequence[str], train_vocab_size: int) -> dict:
    """Exact string-level diversity numbers.

    novel_pct: share of predictions whose normalized text never occurs in
    the training captions.  unique_pct: share of distinct predictions.
    vocab_usage_pct: distinct generated words over the training vocabulary
    size.
    """
    if train_vocab_size < 1:
        raise ValueError("training vocabulary size must be positive")
    norm_preds = [" ".join(normalize_and_tokenize(p)) for p in preds]
    train_set = {" ".join(normalize_and_tokenize(c)) for c in train_captions}
    if not norm_preds:
        return {"novel_pct": 0.0, "unique_pct": 0.0, "vocab_usage_pct": 0.0}
    novel = sum(1 for p in norm_preds if p not in train_set)
    distinct = len(set(norm_preds))
    words = {w for p in norm_preds for w in p.split()}
    return {
        "novel_pct": 100.0 * novel / len(norm_preds),
        "unique_pct": 100.0 * distinct / len(norm_preds),
        "vocab_usage_pct": 100.0 * len(words) / train_vocab_size,
    }


def pos_structure_histogram(preds: Sequence[str], tagger: PosTagger) -> list[tuple[str, int]]:
    """Histogram of tag patterns like 'DET-NOUN-VERB', ordered by
    (count desc, pattern asc)."""
    counts: dict[str, int] = {}
    for p in preds:
        pattern = "-".join(tagger.tag_tokens(normalize_and_tokenize(p)))
        counts[pattern] = counts.get(pattern, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass
class EvalReport:
    bleu4: float
    rouge_l: float
    cider_d: float
    self_bleu: float
    novel_pct: float
    unique_pct: float
    vocab_usage_pct: float
    pos_histogram: list = field(default_factory=list)
    pos_distinct: int = 0
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def compute_report(
    preds: Sequence[str],
    refs: Sequence[Sequence[str]],
    train_captions: Sequence[str],
    train_vocab_size: int,
    tagger: PosTagger | None = None,
) -> EvalReport:
    tagger = tagger or PosTagger.load_default()
    div = diversity_stats(preds, train_captions, train_vocab_size)
    hist = pos_structure_histogram(preds, tagger)
    # self-BLEU is undefined below two predictions; report 0 rather than fail
    sb = self_bleu(preds) if len(preds) >= 2 else 0.0
    return EvalReport(
        bleu4=bleu4_corpus(preds, refs),
        rouge_l=rouge_l(preds, refs),
        cider_d=cider_d(preds, refs),
        self_bleu=sb,
        novel_pct=div["novel_pct"],
        unique_pct=div["unique_pct"],
        vocab_usage_pct=div["vocab_usage_pct"],
        pos_histogram=hist,
        pos_distinct=len(hist),
        counts={"items": len(preds), "references": sum(len(r) for r in refs)},
    )
