"""Metric tests: pinned hand values, brute-force CIDEr-D oracle, and the
invariance properties the metric suite guarantees."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from vidcap import metrics
from vidcap.metrics import (
    EvalReport,
    ScoringTable,
    _closest_ref_length,
    _lcs_length,
    _ngrams,
    bleu4_corpus,
    cider_d,
    compute_report,
    rouge_l,
    self_bleu,
)
from vidcap.textproc import PosTagger, normalize_and_tokenize


def _self_bleu(preds):
    """self_bleu of the predictions' Captions, as a report's table holds them."""
    return self_bleu(ScoringTable(preds, [[""]] * len(preds)).preds)


def test_bleu_perfect_match_is_100():
    preds = ["a dog runs fast today", "the cat sits on a mat"]
    refs = [[p] for p in preds]
    assert abs(bleu4_corpus(ScoringTable(preds, refs)) - 100.0) < 1e-9


def test_bleu_brevity_penalty_hand_value():
    # all clipped precisions are 1, only the brevity penalty bites:
    # c=4, r=5 -> 100 * exp(1 - 5/4)
    got = bleu4_corpus(ScoringTable(["a b c d"], [["a b c d e"]]))
    assert abs(got - 100.0 * math.exp(1.0 - 5.0 / 4.0)) < 1e-9
    assert abs(got - 77.8800783) < 1e-6


def test_bleu_no_common_4gram_is_zero():
    # unigrams overlap but no shared 4-gram; corpus BLEU has no smoothing
    assert bleu4_corpus(ScoringTable(["a b c d"], [["a c b d"]])) == 0.0


def test_bleu_permutation_invariance():
    preds = ["a dog runs", "a cat sits on a mat", "the bird flies"]
    refs = [
        ["a dog runs fast", "the dog runs"],
        ["a cat sits", "the cat sits on the mat"],
        ["a bird flies home"],
    ]
    base = bleu4_corpus(ScoringTable(preds, refs))
    perm = [2, 0, 1]
    shuffled = bleu4_corpus(ScoringTable([preds[i] for i in perm], [refs[i] for i in perm]))
    assert abs(base - shuffled) < 1e-12
    flipped = bleu4_corpus(ScoringTable(preds, [list(reversed(r)) for r in refs]))
    assert abs(base - flipped) < 1e-12


def test_bleu_errors():
    with pytest.raises(ValueError, match="empty prediction set"):
        bleu4_corpus(ScoringTable([], []))
    with pytest.raises(ValueError, match="must align"):
        bleu4_corpus(ScoringTable(["a"], [["a"], ["b"]]))
    with pytest.raises(ValueError, match="at least one reference"):
        bleu4_corpus(ScoringTable(["a"], [[]]))


@pytest.mark.parametrize(
    "metric, preds, refs",
    [
        # the table is the one place that checks references, so no metric
        # can score an item that has none
        (bleu4_corpus, ["a b"], [[]]),
        (rouge_l, ["a b"], [[]]),
        (cider_d, ["a b", "c"], [[], ["c"]]),
    ],
)
def test_an_item_without_references_is_rejected_by_every_reference_metric(metric, preds, refs):
    with pytest.raises(ValueError, match="every item needs at least one reference"):
        metric(ScoringTable(preds, refs))


def test_rouge_identical_is_100():
    assert abs(rouge_l(ScoringTable(["a dog runs"], [["a dog runs"]])) - 100.0) < 1e-9


def test_rouge_hand_value():
    # pred "a b c" vs ref "a c": LCS=2, P=2/3, R=1
    beta = 1.2
    p, r = 2.0 / 3.0, 1.0
    expect = 100.0 * (1 + beta**2) * p * r / (r + beta**2 * p)
    got = rouge_l(ScoringTable(["a b c"], [["a c"]]))
    assert abs(got - expect) < 1e-9
    assert abs(got - 82.99319727891157) < 1e-9


def test_rouge_disjoint_and_empty():
    assert rouge_l(ScoringTable(["a b"], [["c d"]])) == 0.0
    assert rouge_l(ScoringTable([""], [["a b"]])) == 0.0


def test_rouge_max_over_refs_includes_pred():
    # adding the prediction itself as one reference forces a perfect item
    preds = ["the quick brown fox jumps"]
    refs = [["something else entirely", "the quick brown fox jumps"]]
    assert abs(rouge_l(ScoringTable(preds, refs)) - 100.0) < 1e-9


# ---------------------------------------------------------------------------
# CIDEr-D brute-force oracle, written independently of the implementation


def _oracle_cider(preds, refs, sigma=6.0):
    m = len(preds)
    ptoks = [normalize_and_tokenize(p) for p in preds]
    rtoks = [[normalize_and_tokenize(r) for r in group] for group in refs]

    def grams(toks, n):
        out = {}
        for i in range(len(toks) - n + 1):
            g = tuple(toks[i : i + n])
            out[g] = out.get(g, 0) + 1
        return out

    items = []
    for n in range(1, 5):
        df = {}
        for group in rtoks:
            seen = set()
            for r in group:
                seen.update(grams(r, n))
            for g in seen:
                df[g] = df.get(g, 0) + 1
        for i in range(m):
            pg = grams(ptoks[i], n)
            ref_gs = [grams(r, n) for r in rtoks[i]]
            maxc = {}
            for rg in ref_gs:
                for g, c in rg.items():
                    maxc[g] = max(maxc.get(g, 0), c)
            sims = []
            for r, rg in zip(rtoks[i], ref_gs):
                keys = set(pg) | set(rg)
                dot = norm_p = norm_r = 0.0
                for g in keys:
                    w = math.log(m / max(df.get(g, 0), 1))
                    vp = min(pg.get(g, 0), maxc.get(g, 0)) * w
                    vr = rg.get(g, 0) * w
                    dot += vp * vr
                    norm_p += vp * vp
                    norm_r += vr * vr
                if norm_p == 0.0 or norm_r == 0.0:
                    cos = 0.0
                else:
                    cos = dot / math.sqrt(norm_p) / math.sqrt(norm_r)
                pen = math.exp(-((len(ptoks[i]) - len(r)) ** 2) / (2 * sigma**2))
                sims.append(pen * cos)
            items.append(sum(sims) / len(sims))
    # items holds m entries per n; regroup to per-item means over n
    per_item = [10.0 * sum(items[n * m + i] for n in range(4)) / 4.0 for i in range(m)]
    return sum(per_item) / m


def _cider_d_per_ngram_idf(preds, refs, sigma=6.0):
    """CIDEr-D as it was before the idf table: idf and the length penalty
    recomputed for every n-gram, reference and order."""
    m = len(refs)
    ref_tokens = [[normalize_and_tokenize(r) for r in group] for group in refs]
    dfs = [Counter() for _ in range(4)]
    for group in ref_tokens:
        for n in range(1, 5):
            seen = set()
            for r in group:
                seen.update(_ngrams(r, n).keys())
            for g in seen:
                dfs[n - 1][g] += 1

    def idf(n, g):
        return float(np.log(m / max(dfs[n - 1][g], 1)))

    item_scores = []
    for pred, group in zip(preds, ref_tokens):
        ptoks = normalize_and_tokenize(pred)
        per_n = []
        for n in range(1, 5):
            pc = _ngrams(ptoks, n)
            ref_counts = [_ngrams(r, n) for r in group]
            max_ref = Counter()
            for rc in ref_counts:
                for g, cnt in rc.items():
                    if cnt > max_ref[g]:
                        max_ref[g] = cnt
            clipped = {g: min(cnt, max_ref[g]) for g, cnt in pc.items()}
            vp = {g: cnt * idf(n, g) for g, cnt in clipped.items()}
            np_norm = float(np.sqrt(sum(v * v for v in vp.values())))
            sims = []
            for r, rc in zip(group, ref_counts):
                vr = {g: cnt * idf(n, g) for g, cnt in rc.items()}
                nr = float(np.sqrt(sum(v * v for v in vr.values())))
                if np_norm == 0.0 or nr == 0.0:
                    cos = 0.0
                else:
                    dot = sum(v * vr[g] for g, v in vp.items() if g in vr)
                    cos = dot / (np_norm * nr)
                penalty = float(np.exp(-((len(ptoks) - len(r)) ** 2) / (2.0 * sigma**2)))
                sims.append(penalty * cos)
            per_n.append(float(np.mean(sims)) if sims else 0.0)
        item_scores.append(10.0 * float(np.mean(per_n)))
    return float(np.mean(item_scores))


def _random_captions(rng, words, count, longest):
    return [" ".join(rng.choice(words, size=int(rng.integers(0, longest + 1)))) for _ in range(count)]


def test_cider_equals_the_per_ngram_idf_oracle_exactly(monkeypatch):
    rng = np.random.default_rng(17)
    small = ["a", "b", "c", "d", "e"]
    scene = ["a", "the", "red", "blue", "ball", "square", "moves", "left", "slowly", "is", "moving"]
    for words, items, longest in [(small, 6, 8), (scene, 40, 12)]:
        for _ in range(30):
            preds = _random_captions(rng, words, items, longest)
            refs = [_random_captions(rng, words, int(rng.integers(1, 5)), longest) for _ in range(items)]
            for sigma in (6.0, 1.5):
                monkeypatch.setattr(metrics, "CIDER_SIGMA", sigma)
                assert cider_d(ScoringTable(preds, refs)) == _cider_d_per_ngram_idf(preds, refs, sigma)


def _bleu4_corpus_strings(preds, refs):
    """BLEU-4 as it was before the scoring table: every item tokenized and
    counted, and its reference maxima taken, inside the metric."""
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


def _rouge_l_strings(preds, refs, beta=1.2):
    """ROUGE-L as it was before the scoring table: every reference
    tokenized inside the metric."""
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


def test_bleu_and_rouge_equal_the_string_form_oracles_exactly(monkeypatch):
    # two- and three-word vocabularies repeat n-grams within a caption and
    # across references; length 0 gives empty predictions and references
    rng = np.random.default_rng(23)
    scene = ["a", "the", "red", "ball", "moves", "left", "slowly"]
    for words, items, longest in [(["a", "b"], 5, 7), (["a", "b", "c"], 8, 9), (scene, 30, 12)]:
        for _ in range(40):
            preds = _random_captions(rng, words, items, longest)
            refs = [_random_captions(rng, words, int(rng.integers(1, 5)), longest) for _ in range(items)]
            table = ScoringTable(preds, refs)
            assert bleu4_corpus(table) == _bleu4_corpus_strings(preds, refs), (preds, refs)
            for beta in (1.2, 0.5):
                monkeypatch.setattr(metrics, "ROUGE_BETA", beta)
                assert rouge_l(table) == _rouge_l_strings(preds, refs, beta), (preds, refs)


def test_cider_identical_disjoint_corpus():
    # disjoint vocabularies keep every idf positive; a perfect prediction
    # with a sole reference scores exactly 10 for its item
    preds = ["a dog runs fast today", "big red cars drive slowly home"]
    refs = [["a dog runs fast today"], ["big red cars drive slowly home"]]
    assert abs(cider_d(ScoringTable(preds, refs)) - 10.0) < 1e-9

    # zeroing item B's overlap halves the corpus mean
    half = cider_d(ScoringTable(["a dog runs fast today", "x y z w"], refs))
    assert abs(half - 5.0) < 1e-9


def test_cider_matches_bruteforce_on_random_corpora():
    rng = np.random.default_rng(5)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(100):
        m = int(rng.integers(2, 6))
        preds, refs = [], []
        for _ in range(m):
            plen = int(rng.integers(1, 9))
            preds.append(" ".join(rng.choice(alphabet, size=plen)))
            group = []
            for _ in range(int(rng.integers(1, 4))):
                rlen = int(rng.integers(1, 9))
                group.append(" ".join(rng.choice(alphabet, size=rlen)))
            refs.append(group)
        assert abs(cider_d(ScoringTable(preds, refs)) - _oracle_cider(preds, refs)) < 1e-9


def test_cider_sigma_inf_removes_length_penalty(monkeypatch):
    rng = np.random.default_rng(6)
    alphabet = ["a", "b", "c", "d"]
    preds, refs = [], []
    for _ in range(4):
        preds.append(" ".join(rng.choice(alphabet, size=int(rng.integers(1, 8)))))
        refs.append([" ".join(rng.choice(alphabet, size=int(rng.integers(1, 8))))])
    monkeypatch.setattr(metrics, "CIDER_SIGMA", 1e9)
    got = cider_d(ScoringTable(preds, refs))
    # the oracle at sigma=inf has the penalty factor pinned to 1
    assert abs(got - _oracle_cider(preds, refs, sigma=float("inf"))) < 1e-9


def test_cider_empty_corpus_errors():
    with pytest.raises(ValueError):
        cider_d(ScoringTable([], []))


def test_self_bleu_identical():
    for k in (2, 3, 5):
        assert _self_bleu(["a dog runs very fast"] * k) == 100.0


def test_self_bleu_disjoint_near_zero():
    assert _self_bleu(["a b c d", "e f g h", "i j k l"]) <= 1e-5


def test_self_bleu_hand_value():
    # orders the candidate cannot produce are excluded; produced-but-zero
    # precisions floor at 1e-9 before the geometric mean
    preds = ["a dog runs", "a dog sits", "a bird flies"]
    eps = 1e-9

    def sent(p1, p2, p3):
        return math.exp((math.log(p1) + math.log(p2) + math.log(p3)) / 3.0)

    s1 = sent(2 / 3, 1 / 2, eps)  # "a dog runs" vs the other two
    s2 = sent(2 / 3, 1 / 2, eps)  # "a dog sits"
    s3 = sent(1 / 3, eps, eps)  # "a bird flies" shares only "a"
    expect = 100.0 * (s1 + s2 + s3) / 3.0
    assert abs(_self_bleu(preds) - expect) < 1e-9


def test_self_bleu_errors():
    with pytest.raises(ValueError):
        _self_bleu(["only one"])


def _pairwise_self_bleu(preds):
    """Brute-force Self-BLEU oracle: every prediction's sentence BLEU-4
    recounted against the n-grams of all the others."""

    def ngrams(toks, n):
        return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

    def sentence_bleu4(ptoks, ref_list):
        if not ptoks or not ref_list:
            return 0.0
        logs = []
        for n in range(1, 5):
            pc = ngrams(ptoks, n)
            total = sum(pc.values())
            if total == 0:
                continue
            best = Counter()
            for r in ref_list:
                for g, cnt in ngrams(r, n).items():
                    if cnt > best[g]:
                        best[g] = cnt
            clipped = sum(min(cnt, best[g]) for g, cnt in pc.items())
            p = clipped / total
            logs.append(np.log(p if p > 0.0 else 1e-9))
        if not logs:
            return 0.0
        c = len(ptoks)
        r = min((len(x) for x in ref_list), key=lambda r: (abs(r - c), r))
        bp = 1.0 if c > r else float(np.exp(1.0 - r / c))
        return bp * float(np.exp(np.mean(logs)))

    toks = [normalize_and_tokenize(p) for p in preds]
    scores = [sentence_bleu4(p, toks[:i] + toks[i + 1 :]) for i, p in enumerate(toks)]
    return 100.0 * float(np.mean(scores))


def test_self_bleu_equals_pairwise_oracle_exactly():
    # a small vocabulary makes repeated n-grams, shared top counts and
    # equally close lengths on both sides common
    rng = np.random.default_rng(31)
    words = ["a", "dog", "cat", "runs", "red", "ball"]
    fixed = [
        ["", "a", "a dog"],  # an empty prediction, lengths 0/1/2 tie around 1
        ["a dog runs"] * 3 + ["a dog"],  # duplicates share the top count
        ["a a a", "a a", "a a a", "dog"],  # one top count, the second count decides
        ["", ""],  # nothing but empty predictions
    ]
    corpora = fixed + [
        [" ".join(rng.choice(words, size=rng.integers(0, 7))) for _ in range(rng.integers(2, 12))]
        for _ in range(300)
    ]
    for preds in corpora:
        assert _self_bleu(preds) == _pairwise_self_bleu(preds), preds


def _report(preds, train_captions=(), train_vocab_size=50):
    """The report of preds, each its own reference."""
    return compute_report(preds, [[p] for p in preds], list(train_captions), train_vocab_size)


def test_diversity_stats_examples():
    assert _report(["a dog runs", "a cat sits"], ["a dog runs"]).novel_pct == 50.0

    d = _report(["a", "a", "b", "c"], [], 10)
    assert d.unique_pct == 75.0
    # distinct-count recovery stays integral
    assert (d.unique_pct * 4 / 100.0) == int(d.unique_pct * 4 / 100.0)

    assert _report(["v w x y z"]).vocab_usage_pct == 10.0

    with pytest.raises(ValueError):
        _report(["a"], [], 0)


def test_pos_histogram():
    assert _report(["a dog runs", "a cat sits"]).pos_histogram == [("DET-NOUN-VERB", 2)]

    assert ("", 1) in _report(["a dog runs", ""]).pos_histogram

    caps = ["a dog runs", "dogs run", "a cat sits quickly"]
    assert len(_report(caps).pos_histogram) == 3


def test_compute_report_fields_and_determinism():
    preds = ["a dog runs", "a cat sits", "a dog runs"]
    refs = [["a dog runs"], ["a cat sits quickly"], ["the dog runs"]]
    train = ["a dog runs", "the bird flies"]
    r1 = compute_report(preds, refs, train, train_vocab_size=12)
    r2 = compute_report(preds, refs, train, train_vocab_size=12)
    assert r1.to_json() == r2.to_json()
    assert 0.0 <= r1.bleu4 <= 100.0 and 0.0 <= r1.self_bleu <= 100.0
    assert r1.cider_d >= 0.0
    assert r1.counts == {"items": 3, "references": 3}
    assert r1.pos_distinct == len(r1.pos_histogram)


def test_report_json_text_is_unchanged():
    # the text the field-by-field to_json wrote: histogram pairs as lists
    report = EvalReport(
        bleu4=41.25, rouge_l=0.1 + 0.2, cider_d=1 / 3, self_bleu=88.0, novel_pct=50.0,
        unique_pct=66.66666666666667, vocab_usage_pct=12.5,
        pos_histogram=[("DET-NOUN-VERB", 2), ("", 1)], pos_distinct=2, counts={"items": 3, "references": 4},
    )
    assert json.dumps(report.to_json()) == (
        '{"bleu4": 41.25, "rouge_l": 0.30000000000000004, "cider_d": 0.3333333333333333, '
        '"self_bleu": 88.0, "novel_pct": 50.0, "unique_pct": 66.66666666666667, "vocab_usage_pct": 12.5, '
        '"pos_histogram": [["DET-NOUN-VERB", 2], ["", 1]], "pos_distinct": 2, '
        '"counts": {"items": 3, "references": 4}}'
    )


def _lcs_dp(a, b):
    """The dynamic-programming LCS length, the bit-parallel one's oracle."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def test_bit_parallel_lcs_equals_the_dp_oracle():
    # small vocabularies repeat tokens; lengths from 0 give empty sides;
    # lengths past 64 take the bit vector beyond one machine word
    rng = np.random.default_rng(25)
    pairs = 0
    for vocab, longest, count in [(1, 4, 2000), (2, 8, 6000), (3, 12, 6000), (8, 16, 6000), (5, 90, 200)]:
        words = [f"w{i}" for i in range(vocab)]
        for _ in range(count):
            a, b = ([words[i] for i in rng.integers(0, vocab, size=rng.integers(0, longest + 1))] for _ in range(2))
            assert _lcs_length(a, b) == _lcs_dp(a, b), (a, b)
            pairs += 1
    assert pairs >= 20000


def _diversity_strings(preds, train_captions, train_vocab_size):
    """The diversity stats as they were before the scoring table: every
    prediction and train caption tokenized and joined again."""
    norm_preds = [" ".join(normalize_and_tokenize(p)) for p in preds]
    train_set = {" ".join(normalize_and_tokenize(c)) for c in train_captions}
    words = {w for p in norm_preds for w in p.split()}
    return {
        "novel_pct": 100.0 * sum(1 for p in norm_preds if p not in train_set) / len(norm_preds),
        "unique_pct": 100.0 * len(set(norm_preds)) / len(norm_preds),
        "vocab_usage_pct": 100.0 * len(words) / train_vocab_size,
    }


def _pos_histogram_strings(preds, tagger):
    counts = {}
    for p in preds:
        pattern = "-".join(tagger.tag_tokens(normalize_and_tokenize(p)))
        counts[pattern] = counts.get(pattern, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def test_one_pass_report_equals_the_per_metric_oracles_exactly():
    # two- and three-word vocabularies repeat n-grams; length 0 gives empty
    # predictions and references; up to 10 references per item takes the
    # reference means past numpy's 8-element pairwise block
    rng = np.random.default_rng(41)
    tagger = PosTagger.load_default()
    scene = ["a", "the", "red", "ball", "moves", "left", "slowly", "is", "moving"]
    shapes = [(["a", "b"], 5, 6, 4), (["a", "b", "c"], 7, 8, 10), (scene, 20, 10, 5), (scene, 1, 6, 3), (scene, 2, 6, 1)]
    corpora = [([""] * 3, [["a b"], ["a"], ["b a b"]])]
    for words, items, longest, most_refs in shapes:
        for _ in range(25):
            preds = _random_captions(rng, words, items, longest)
            refs = [_random_captions(rng, words, int(rng.integers(1, most_refs + 1)), longest) for _ in range(items)]
            corpora.append((preds, refs))
    for preds, refs in corpora:
        as_refs = [c for group in refs for c in group]
        for train in (as_refs, ["zz top"] * 2 + _random_captions(rng, ["x", "y"], 4, 3), []):
            report = compute_report(preds, refs, train, train_vocab_size=9, tagger=tagger)
            assert report.bleu4 == _bleu4_corpus_strings(preds, refs)
            assert report.rouge_l == _rouge_l_strings(preds, refs)
            assert report.cider_d == _cider_d_per_ngram_idf(preds, refs)
            assert report.self_bleu == (_pairwise_self_bleu(preds) if len(preds) >= 2 else 0.0)
            div = _diversity_strings(preds, train, 9)
            assert (report.novel_pct, report.unique_pct, report.vocab_usage_pct) == (
                div["novel_pct"], div["unique_pct"], div["vocab_usage_pct"]
            )
            assert report.pos_histogram == _pos_histogram_strings(preds, tagger)


def test_one_report_tokenizes_each_distinct_string_once(monkeypatch):
    import vidcap.metrics as metrics

    calls = Counter()

    def counting(text):
        calls[text] += 1
        return normalize_and_tokenize(text)

    monkeypatch.setattr(metrics, "normalize_and_tokenize", counting)
    preds = ["a dog runs", "a dog runs", "A dog runs!", "the cat sits"]
    refs = [["a dog runs", "the dog runs"], ["a dog runs"], ["a cat", "the cat sits"], ["the cat sits", "a cat"]]
    train = ["a dog runs", "the dog runs", "a bird flies", "a bird flies"]
    compute_report(preds, refs, train, train_vocab_size=12)
    assert max(calls.values()) == 1
    assert set(calls) == set(preds) | {c for group in refs for c in group} | set(train)
