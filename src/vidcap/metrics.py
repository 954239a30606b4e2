"""Caption quality and diversity metrics.

All metrics normalize text through the shared tokenizer.  Quality: corpus
BLEU-4, ROUGE-L (F-beta over the longest common subsequence), CIDEr-D
(tf-idf n-gram cosine with count clipping and a Gaussian length penalty).
Diversity: Self-BLEU across the generated set, exact novel/unique
percentages, vocabulary usage, and a POS pattern histogram.  A report
builds one ScoringTable, which tokenizes each distinct caption string and
n-gram counts each prediction and reference once; every metric reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .textproc import PosTagger, normalize_and_tokenize

EPS_PRECISION = 1e-9


def _ngrams(tokens: Sequence[str], n: int) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for g in zip(*[tokens[k:] for k in range(n)]):
        counts[g] = counts.get(g, 0) + 1
    return counts


def _closest_ref_length(c: int, ref_lengths: Sequence[int]) -> int:
    # ties between equally close reference lengths go to the shorter one
    return min(ref_lengths, key=lambda r: (abs(r - c), r))


class _Parsed(dict):
    """Caption string -> (tokens, its n-gram counts for orders 1..4), each
    distinct string tokenized and counted on first use only."""

    def __missing__(self, text: str) -> tuple[list[str], list[dict[tuple, int]]]:
        tokens = normalize_and_tokenize(text)
        parsed = self[text] = (tokens, [_ngrams(tokens, n) for n in range(1, 5)])
        return parsed


class Captions:
    """A caption list, tokenized and n-gram counted: tokens[j], and
    counts[n - 1][j] for the n-grams of order n in caption j.  Captions
    with the same string share one token list and one set of counts, which
    no metric changes."""

    def __init__(self, texts: Sequence[str], parsed: _Parsed | None = None):
        parsed = _Parsed() if parsed is None else parsed
        rows = [parsed[t] for t in texts]
        self.tokens = [tokens for tokens, _ in rows]
        self.counts = [[counts[n] for _, counts in rows] for n in range(4)]


def _max_counts(counters: Sequence[dict[tuple, int]]) -> dict[tuple, int]:
    """Each n-gram's largest count in any one of the counters."""
    best: dict[tuple, int] = {}
    for counter in counters:
        for g, cnt in counter.items():
            if cnt > best.get(g, 0):
                best[g] = cnt
    return best


class ScoringTable:
    """A report's predictions and references, each distinct string
    tokenized and n-gram counted once, for every metric of the report.

    preds is a Captions of the predictions; per item i, refs[i] is a
    Captions of its references and ref_max[i][n - 1] each n-gram's largest
    count in any one of them.  parsed holds the tokens and counts of every
    string seen.  Every item needs at least one reference.
    """

    def __init__(self, preds: Sequence[str], refs: Sequence[Sequence[str]]):
        if len(preds) != len(refs):
            raise ValueError("predictions and references must align")
        if not preds:
            raise ValueError("empty prediction set")
        if not all(refs):
            raise ValueError("every item needs at least one reference")
        self.parsed = _Parsed()
        self.preds = Captions(preds, self.parsed)
        self.refs = [Captions(group, self.parsed) for group in refs]
        self.ref_max = [[_max_counts(per_n) for per_n in item.counts] for item in self.refs]


def bleu4_corpus(table: ScoringTable) -> float:
    """Corpus-level BLEU-4 on a 0-100 scale.

    Clipped n-gram matches and candidate totals are pooled over the whole
    corpus before the precisions are formed; there is no smoothing, so a
    missing n-gram order anywhere in the pool zeroes the score.  The
    brevity penalty compares pooled candidate length against the pooled
    closest-reference lengths.
    """
    matches = [0] * 4
    totals = [0] * 4
    c_total = 0
    r_total = 0
    preds = table.preds
    for ptoks, pcs, item, maxes in zip(preds.tokens, zip(*preds.counts), table.refs, table.ref_max):
        c_total += len(ptoks)
        r_total += _closest_ref_length(len(ptoks), [len(r) for r in item.tokens])
        for k, (pc, best) in enumerate(zip(pcs, maxes)):
            if not pc:
                continue
            matches[k] += sum(min(cnt, best.get(g, 0)) for g, cnt in pc.items())
            totals[k] += sum(pc.values())
    if c_total == 0 or any(t == 0 for t in totals):
        return 0.0
    precisions = [m / t for m, t in zip(matches, totals)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    bp = 1.0 if c_total > r_total else float(np.exp(1.0 - r_total / c_total))
    return 100.0 * bp * float(np.exp(np.mean([np.log(p) for p in precisions])))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, bit-parallel (Allison and
    Dix 1986, in Hyyro's 2004 form): bit j of v is 0 where the LCS of the
    tokens of a read so far and b[:j + 1] is one longer than with b[:j]."""
    match: dict[str, int] = {}
    for j, y in enumerate(b):
        match[y] = match.get(y, 0) | 1 << j
    full = v = (1 << len(b)) - 1
    for x in a:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(table: ScoringTable, beta: float = 1.2) -> float:
    """Mean over items of the best F-beta LCS score against any reference,
    on a 0-100 scale.  Empty predictions score zero for their item."""
    scores = []
    for ptoks, item in zip(table.preds.tokens, table.refs):
        best = 0.0
        for rtoks in item.tokens:
            lcs = _lcs_length(ptoks, rtoks)
            if lcs == 0 or not ptoks or not rtoks:
                continue
            prec = lcs / len(ptoks)
            rec = lcs / len(rtoks)
            f = (1 + beta**2) * prec * rec / (rec + beta**2 * prec)
            best = max(best, f)
        scores.append(best)
    return 100.0 * float(np.mean(scores))


def cider_d(table: ScoringTable, sigma: float = 6.0) -> float:
    """CIDEr-D on a 0-10 scale.

    Document frequencies come from the reference sets, idf is ln(M/df).
    Per n-gram order, the candidate counts are clipped to the largest
    count in that item's references before the tf-idf cosine against each
    reference; each reference similarity is damped by a Gaussian penalty
    on the length difference, then averaged over references and n-gram
    orders and scaled by 10.
    """
    m = len(table.refs)
    # an item's reference set is one document: its n-grams are ref_max's keys
    dfs = [Counter(g for maxes in table.ref_max for g in maxes[n]) for n in range(4)]
    idfs = [dict(zip(df, np.log(m / np.fromiter(df.values(), float, len(df))).tolist())) for df in dfs]

    # items grouped by reference count k: item ids, (4, k) cosines, lengths
    groups: dict[int, tuple[list, list, list, list]] = {}
    pred_counts = table.preds.counts
    for i, (ptoks, item, maxes) in enumerate(zip(table.preds.tokens, table.refs, table.ref_max)):
        cosines = []
        for idf, per_n, ref_counts, best in zip(idfs, pred_counts, item.counts, maxes):
            # an n-gram no reference holds clips to zero and adds nothing
            vp = {g: min(cnt, best[g]) * idf[g] for g, cnt in per_n[i].items() if g in best}
            np_norm = math.sqrt(sum([v * v for v in vp.values()]))
            row = [0.0] * len(ref_counts)
            if np_norm != 0.0:
                for j, rc in enumerate(ref_counts):
                    vr = {g: cnt * idf[g] for g, cnt in rc.items()}
                    nr = math.sqrt(sum([v * v for v in vr.values()]))
                    if nr != 0.0:
                        row[j] = sum([v * vr[g] for g, v in vp.items() if g in vr]) / (np_norm * nr)
            cosines.append(row)
        ids, cos, plens, rlens = groups.setdefault(len(item.tokens), ([], [], [], []))
        ids.append(i)
        cos.append(cosines)
        plens.append(len(ptoks))
        rlens.append([len(r) for r in item.tokens])

    item_scores = np.empty(m)
    for k, (ids, cos, plens, rlens) in groups.items():
        gap = np.array(plens)[:, None] - np.array(rlens)
        penalties = np.exp(-(gap**2) / (2.0 * sigma**2))
        sims = np.array(cos) * penalties[:, None, :]
        item_scores[ids] = 10.0 * sims.mean(axis=2).mean(axis=1)
    return float(np.mean(item_scores))


def _top_counts(counters: Sequence[dict[tuple, int]]) -> dict[tuple, tuple[int, int, int]]:
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


def self_bleu(preds: Sequence[str] | Captions) -> float:
    """Mean sentence BLEU-4 of each prediction against all the others, on
    a 0-100 scale.  Needs at least two predictions, as strings or as the
    Captions of a ScoringTable.

    Sentence BLEU-4 leaves out the orders a candidate is too short to
    produce; a produced but unmatched order contributes a 1e-9 floor
    instead of zeroing everything, and an empty candidate scores 0.  The
    best count of an n-gram among the other predictions and the closest
    other length are lookups in corpus-wide tables (each n-gram's top two
    counts, the sorted lengths), so the whole set costs one pass.
    """
    caps = preds if isinstance(preds, Captions) else Captions(preds)
    toks = caps.tokens
    if len(toks) < 2:
        raise ValueError("need at least two predictions")
    tops = [_top_counts(per_n) for per_n in caps.counts]
    lengths = sorted(len(t) for t in toks)
    # per nonempty candidate: its index, its precision per order (1 for an
    # order it cannot produce, whose log adds an exact 0 to the sum), how
    # many orders it produces, and the brevity penalty's exponent
    scored, precisions, orders, bp_exps = [], [], [], []
    for i, ptoks in enumerate(toks):
        c = len(ptoks)
        if not c:
            continue
        ps = [1.0] * 4
        for k, (per_n, top) in enumerate(zip(caps.counts[:c], tops)):
            pc = per_n[i]
            clipped = 0
            for g, cnt in pc.items():
                most, reach, second = top[g]
                clipped += min(cnt, most if cnt < most or reach > 1 else second)
            p = clipped / (c - k)
            ps[k] = p if p > 0.0 else EPS_PRECISION
        # the other lengths are the sorted lengths less one copy of c; the
        # closest lies next to that copy
        lo = bisect_left(lengths, c)
        others = lengths[max(lo - 1, 0) : lo] + lengths[lo + 1 : lo + 2]
        r = _closest_ref_length(c, others)
        scored.append(i)
        precisions.append(ps)
        orders.append(min(c, 4))
        bp_exps.append(0.0 if c > r else 1.0 - r / c)
    logs = np.log(np.array(precisions).reshape(-1, 4))
    # one exp for the geometric means and the brevity penalties; exp(0) = 1
    geo, bp = np.exp(np.stack([np.add.reduce(logs, axis=1) / np.array(orders, dtype=float), bp_exps]))
    scores = np.zeros(len(toks))
    scores[scored] = bp * geo
    return 100.0 * float(np.mean(scores))


def _diversity(pred_tokens: Sequence[list[str]], train_tokens: Iterable[list[str]], train_vocab_size: int) -> dict:
    if train_vocab_size < 1:
        raise ValueError("training vocabulary size must be positive")
    if not pred_tokens:
        return {"novel_pct": 0.0, "unique_pct": 0.0, "vocab_usage_pct": 0.0}
    preds = [tuple(t) for t in pred_tokens]
    train_set = {tuple(t) for t in train_tokens}
    novel = sum(1 for p in preds if p not in train_set)
    words = {w for p in set(preds) for w in p}
    return {
        "novel_pct": 100.0 * novel / len(preds),
        "unique_pct": 100.0 * len(set(preds)) / len(preds),
        "vocab_usage_pct": 100.0 * len(words) / train_vocab_size,
    }


def diversity_stats(preds: Sequence[str], train_captions: Sequence[str], train_vocab_size: int) -> dict:
    """Exact diversity numbers over normalized text.

    novel_pct: share of predictions whose normalized text never occurs in
    the training captions.  unique_pct: share of distinct predictions.
    vocab_usage_pct: distinct generated words over the training vocabulary
    size.
    """
    pred_tokens = [normalize_and_tokenize(p) for p in preds]
    return _diversity(pred_tokens, map(normalize_and_tokenize, train_captions), train_vocab_size)


def _pos_histogram(pred_tokens: Sequence[list[str]], tagger: PosTagger) -> list[tuple[str, int]]:
    counts = Counter("-".join(tagger.tag_tokens(tokens)) for tokens in pred_tokens)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def pos_structure_histogram(preds: Sequence[str], tagger: PosTagger) -> list[tuple[str, int]]:
    """Histogram of tag patterns like 'DET-NOUN-VERB', ordered by
    (count desc, pattern asc)."""
    return _pos_histogram([normalize_and_tokenize(p) for p in preds], tagger)


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
    table = ScoringTable(preds, refs)
    tagger = tagger or PosTagger.load_default()
    # train captions that are also references are already tokenized
    parsed = table.parsed
    train = (parsed[c][0] if c in parsed else normalize_and_tokenize(c) for c in set(train_captions))
    div = _diversity(table.preds.tokens, train, train_vocab_size)
    hist = _pos_histogram(table.preds.tokens, tagger)
    # self-BLEU is undefined below two predictions; report 0 rather than fail
    sb = self_bleu(table.preds) if len(preds) >= 2 else 0.0
    return EvalReport(
        bleu4=bleu4_corpus(table),
        rouge_l=rouge_l(table),
        cider_d=cider_d(table),
        self_bleu=sb,
        novel_pct=div["novel_pct"],
        unique_pct=div["unique_pct"],
        vocab_usage_pct=div["vocab_usage_pct"],
        pos_histogram=hist,
        pos_distinct=len(hist),
        counts={"items": len(preds), "references": sum(len(r) for r in refs)},
    )
