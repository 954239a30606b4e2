"""Acceptance gate: one test per shipped guarantee.

Each test prints a single summary line with the measured quantities so a
verbose run reads as a checklist.  The overfit fixture is shared between
the end-to-end and loss-contract tests; everything else builds its own
fixtures at desk scale.
"""

import json
import math
import time

import numpy as np
import pytest

import test_afs
import test_autodiff
import test_decoder
import test_encoder
import test_metrics
import vidcap.autodiff as ad
import vidcap.training
from vidcap.afs import apply_selection, build_cdf, frame_dissimilarity, select_frames, select_from_clip
from vidcap.autodiff import Tensor
from vidcap.cli import main
from vidcap.decoder import GenerationRequest
from vidcap.encoder import ConceptHead, EncoderConfig, WindowAttention, shift_amounts
from vidcap.evaluate import caption_video
from vidcap.metrics import diversity_stats
from vidcap.synth import SyntheticSpec, generate_synthetic_dataset, render_video
from vidcap.textproc import PAD_ID, concept_label_vector, encode_caption, load_corpus
from vidcap.training import TrainConfig, train
from vidcap.video import read_vvid

EIGHT_COLORS = ("red", "green", "blue", "yellow", "purple", "orange", "cyan", "magenta")

SMALL_ENCODER = {
    "frames": 8,
    "patch": [2, 4, 4],
    "window": [2, 2, 2],
    "depths": [2, 2],
    "heads": [2, 4],
    "embed_dim": 16,
    "token_dim": 32,
    "concept_count": 8,
    "concept_hidden": [48, 96],
}


@pytest.fixture(scope="module")
def corpus16(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit-data")
    spec = SyntheticSpec(videos=16, colors=EIGHT_COLORS, seed=11)
    generate_synthetic_dataset(spec, root)
    return root


@pytest.fixture(scope="module")
def overfit(corpus16, tmp_path_factory):
    out = tmp_path_factory.mktemp("overfit-run")
    cfg = TrainConfig(
        lambda_bce=0.1,
        clip_norm=0.05,
        batch_size=8,
        pretrain_steps=2000,
        max_steps=1000,
        seed=1,
    )
    t0 = time.monotonic()
    result = train(cfg, corpus16, out)
    return result, time.monotonic() - t0


def test_01_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    col = rng.normal(size=(3, 1))
    one = rng.normal(size=(1, 1))
    w = rng.normal(size=(4, 5))
    bias5 = rng.normal(size=(5,))
    x234 = rng.normal(size=(2, 3, 4))
    mix235 = test_autodiff._weights(rng, (2, 3, 5))
    table = rng.normal(size=(7, 4))
    gamma = rng.normal(size=(4,))
    beta = rng.normal(size=(4,))
    mix34 = test_autodiff._weights(rng, (3, 4))
    mix35 = test_autodiff._weights(rng, (3, 5))
    mix44 = test_autodiff._weights(rng, (4, 4))
    x_kink = x + 0.2 * np.sign(x)  # keep relu inputs away from the hinge
    logits46 = rng.normal(size=(4, 6))
    blogits = rng.normal(size=(6,))
    btargets = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])

    def s(t):  # scalar probe
        return ad.sum_reduce(t)

    probes = [
        ("add", [x, y], lambda t: s(ad.mul(ad.add(t[0], t[1]), mix34))),
        ("mul-scalar", [x, one], lambda t: s(ad.mul(ad.mul(t[0], t[1]), mix34))),
        ("mul-number", [x], lambda t: s(ad.mul(ad.mul(t[0], 1.7), mix34))),
        ("matmul", [x, w], lambda t: s(ad.mul(ad.matmul(t[0], t[1]), mix35))),
        ("linear", [x234, w, bias5], lambda t: s(ad.mul(ad.linear(t[0], t[1], t[2]), mix235))),
        ("relu", [x_kink], lambda t: s(ad.mul(ad.relu(t[0]), mix34))),
        ("gelu", [x], lambda t: s(ad.mul(ad.gelu(t[0]), mix34))),
        ("sigmoid", [x], lambda t: s(ad.mul(ad.sigmoid(t[0]), mix34))),
        ("take", [table], lambda t: s(ad.mul(ad.take(t[0], [0, 2, 5, 2], 0), mix44))),
        ("concat", [x, y], lambda t: s(ad.mul(ad.concat([t[0], t[1]], 1), test_autodiff._weights(np.random.default_rng(5), (3, 8))))),
        ("reshape", [x], lambda t: s(ad.mul(ad.reshape(t[0], (2, 6)), test_autodiff._weights(np.random.default_rng(1), (2, 6))))),
        ("transpose", [x], lambda t: s(ad.mul(ad.transpose(t[0], (1, 0)), test_autodiff._weights(np.random.default_rng(2), (4, 3))))),
        ("broadcast", [col], lambda t: s(ad.mul(ad.add(mix34, t[0]), mix34))),
        ("mean", [x], lambda t: s(ad.mul(ad.mean_reduce(t[0], 1), test_autodiff._weights(np.random.default_rng(3), (3,))))),
        ("max", [x], lambda t: s(ad.mul(ad.max_reduce(t[0], 0), test_autodiff._weights(np.random.default_rng(4), (4,))))),
        ("sum", [x], lambda t: ad.sum_reduce(t[0])),
        ("dropout", [x], lambda t: s(ad.mul(ad.dropout(t[0], 0.4, np.random.default_rng(99)), mix34))),
        ("softmax", [x], lambda t: s(ad.mul(ad.softmax(t[0]), mix34))),
        ("layer-norm", [x, gamma, beta], lambda t: s(ad.mul(ad.layer_norm(t[0], t[1], t[2], eps=1e-8), mix34))),
        ("ce", [logits46], lambda t: ad.cross_entropy_masked(t[0], [1, -1, 3, 0], ignore_id=-1)),
        ("bce", [blogits], lambda t: ad.bce_with_logits(t[0], btargets)),
    ]
    for name, arrays, build in probes:
        test_autodiff.check_grads(build, arrays)
    test_autodiff.test_random_compositions()
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"[acceptance] 01 gradients PASS: {len(probes)} primitives + 3 compositions, rel err < 1e-4, {dt:.1f}s")


def test_02_afs_inversion_oracle():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, 33))
        d = rng.integers(0, 10, size=m - 1).astype(float)
        if d.max() == 0.0:
            d[int(rng.integers(0, m - 1))] = float(rng.integers(1, 10))
        got = select_frames(build_cdf(d, m), n).indices
        assert got == test_afs.oracle_select(d, m, n), (m, n, list(d))

    # constant profiles reduce to uniform spacing, index for index
    for _ in range(100):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 33))
        c = float(rng.uniform(0.1, 5.0))
        cdf = build_cdf(np.full(max(m - 1, 0), c), m)
        want = [int(np.floor(k * (m - 1) / n + 0.5)) for k in range(n)]
        assert select_frames(cdf, n).indices == want

    # positive rescaling never changes the selection
    for _ in range(100):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, 33))
        d = rng.random(m - 1)
        base = select_frames(build_cdf(d, m), n).indices
        for c in (0.001, 3.0, 1e6):
            assert select_frames(build_cdf(c * d, m), n).indices == base
    print("[acceptance] 02 frame-selection oracle PASS: 1000 profiles exact, constant->uniform exact, scaling exact")


def test_03_afs_concentrates_on_motion():
    frames, n = 60, 8
    shapes = ("square", "circle", "triangle")
    motions = ("left", "right", "up", "down")
    min_inside, rhos = [], []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        clip, prefix = render_video(
            shapes[i % 3], EIGHT_COLORS[i % 8], motions[i % 4], frames, 32, 32, 0.7, rng
        )
        assert prefix == 42  # motion confined to the last 30% of the timeline
        d = frame_dissimilarity(clip)
        rho = float(d[prefix:].sum() / d.sum())
        assert rho >= 0.9, (i, rho)

        sel = select_from_clip(clip, n).indices
        inside = sum(1 for j in sel if j >= prefix)
        assert inside >= math.floor(n * rho) - 1, (i, inside, rho)

        uniform = [int(np.floor(k * (frames - 1) / n + 0.5)) for k in range(n)]
        uni_inside = sum(1 for j in uniform if j >= prefix)
        assert abs(uni_inside - 0.3 * n) <= 1.5
        assert inside > uni_inside
        min_inside.append(inside)
        rhos.append(rho)
    print(
        f"[acceptance] 03 frame-selection ablation PASS: 50 videos, rho>={min(rhos):.3f}, "
        f"selected-in-segment >= {min(min_inside)}/8 vs uniform 2/8"
    )


def test_04_window_attention_oracle():
    window = (2, 2, 2)
    rng = np.random.default_rng(0)
    attn = WindowAttention(rng, 4, 2, window, qkv_bias=True, attn_dropout=0.0)
    worst = 0.0
    grids = 0
    for t in (2, 4):
        for h in (2, 4, 6):
            for w in (2, 4, 6):
                x = rng.normal(size=(t, h, w, 4))
                for shifted in (False, True):
                    shifts = shift_amounts((t, h, w), window, shifted)
                    got = test_encoder._impl_window_attention(x[None], attn, window, shifts)[0]
                    want = test_encoder._oracle_window_attention(x, attn, window, shifts)
                    diff = float(np.abs(got - want).max())
                    worst = max(worst, diff)
                    assert diff < 1e-10, (t, h, w, shifted, diff)
                grids += 1
    print(f"[acceptance] 04 window-attention oracle PASS: {grids} grids up to (4,6,6) x2 shift states, worst |delta|={worst:.2e}")


def test_05_semantic_head(corpus16, tmp_path):
    # exact permutation invariance over encoder tokens
    cfg = EncoderConfig()
    rng = np.random.default_rng(7)
    head = ConceptHead(cfg, rng)
    x = rng.normal(size=(1, 10, cfg.token_dim))
    base = head.logits(Tensor(x), rng=None).data
    for _ in range(5):
        perm = rng.permutation(10)
        permuted = head.logits(Tensor(x[:, perm]), rng=None).data
        assert np.array_equal(base, permuted)

    # phase-1-only training recovers the ground-truth concept bits
    cfg = TrainConfig(
        phase="semantic_pretrain", pretrain_steps=2000, max_steps=0,
        batch_size=8, clip_norm=0.05, seed=1,
    )
    result = train(cfg, corpus16, tmp_path / "run")
    model = result.model
    correct = total = 0
    for rec in load_corpus(corpus16 / "corpus.jsonl"):
        clip = read_vvid(corpus16 / rec.video)
        sel = apply_selection(clip, select_from_clip(clip, model.enc_cfg.frames))
        probs = model.concept_probs(model.encoder([sel])).data[0]
        labels = concept_label_vector(result.concepts, rec.captions)
        correct += int(((probs > 0.5).astype(float) == labels).sum())
        total += labels.size
    acc = correct / total
    assert acc >= 0.95, acc
    print(f"[acceptance] 05 semantic head PASS: permutation-exact, phase-1 bit accuracy {100 * acc:.2f}% >= 95%")


def test_06_decoder_strategies():
    test_decoder.test_causality_exact()
    test_decoder.test_full_width_beam_equals_exhaustive_search()
    test_decoder.test_beam1_greedy_topk1_identical()
    print("[acceptance] 06 decoder PASS: causality exact, full-width beam == exhaustive (V<=5, L<=4), beam(1)==greedy==topk(1)")


def test_07_metrics_oracles():
    test_metrics.test_bleu_perfect_match_is_100()
    test_metrics.test_rouge_identical_is_100()
    test_metrics.test_cider_matches_bruteforce_on_random_corpora()
    test_metrics.test_self_bleu_identical()

    # diversity stats vs a literal set-based recount
    rng = np.random.default_rng(21)
    pool = ["dog", "cat", "runs", "sits", "fast", "red"]
    for _ in range(20):
        preds = [" ".join(rng.choice(pool, size=3)) for _ in range(int(rng.integers(1, 6)))]
        train_caps = [" ".join(rng.choice(pool, size=3)) for _ in range(3)]
        vsize = int(rng.integers(1, 30))
        got = diversity_stats(preds, train_caps, vsize)
        train_set = set(train_caps)
        novel = sum(1 for p in preds if p not in train_set)
        words = {w for p in preds for w in p.split()}
        assert got["novel_pct"] == 100.0 * novel / len(preds)
        assert got["unique_pct"] == 100.0 * len(set(preds)) / len(preds)
        assert got["vocab_usage_pct"] == 100.0 * len(words) / vsize
    print("[acceptance] 07 metrics PASS: BLEU/ROUGE fixed points, CIDEr-D vs brute force < 1e-9 x100, self-BLEU 100, diversity exact")


def test_08_end_to_end_overfit(corpus16, overfit):
    result, wall = overfit
    assert wall < 900.0
    assert len(result.history) == 3000  # 2000 pretrain + 1000 joint steps

    model, vocab = result.model, result.vocab
    records = load_corpus(corpus16 / "corpus.jsonl")
    ces, matches = [], 0
    request = GenerationRequest(strategy="beam", beam_width=3, max_len=20)
    for rec in records:
        clip = read_vvid(corpus16 / rec.video)
        sel = apply_selection(clip, select_from_clip(clip, model.enc_cfg.frames))
        ids, mask = encode_caption(vocab, rec.captions[0], 20)
        keep = int(mask.sum())
        ids = ids[:keep]
        tokens = model.encoder([sel])
        sem = model.concept_probs(tokens)
        logits = model.caption_logits(sem, [ids[:-1]], tokens)
        ces.append(float(ad.cross_entropy_masked(logits, [ids], PAD_ID).data))

        text, _, _ = caption_video(model, vocab, clip, request)
        matches += int(text == rec.captions[0])

    mean_ce = float(np.mean(ces))
    assert mean_ce < 0.1, mean_ce
    assert matches >= math.ceil(0.9 * len(records)), matches
    print(
        f"[acceptance] 08 overfit PASS: CE {mean_ce:.2e} < 0.1, beam-3 exact {matches}/{len(records)}, "
        f"3000 steps in {wall:.0f}s < 900s"
    )


def test_09_loss_and_clip_contracts(corpus16, overfit, tmp_path):
    result, _ = overfit
    joint = [h for h in result.history if h["phase"] == "end_to_end"]
    assert len(joint) == 1000
    worst = max(abs(h["loss"] - (h["ce"] + 0.1 * h["bce"])) for h in joint)
    assert worst <= 1e-12, worst

    # instrument the clipper: recompute the norm of what it returns
    post_norms = []
    real = vidcap.training.clip_global_norm

    def recording(grads, limit):
        clipped, norm = real(grads, limit)
        post_norms.append(math.sqrt(float((clipped * clipped).sum())))
        return clipped, norm

    vidcap.training.clip_global_norm = recording
    try:
        cfg = TrainConfig(batch_size=4, pretrain_steps=15, max_steps=15, clip_norm=0.05, seed=4)
        train(cfg, corpus16, tmp_path / "clip-run")
    finally:
        vidcap.training.clip_global_norm = real
    assert len(post_norms) == 30
    worst_norm = max(post_norms)
    assert worst_norm <= 0.05 + 1e-12, worst_norm
    print(
        f"[acceptance] 09 loss/clip contracts PASS: |L-(CE+0.1*BCE)| <= {worst:.1e} over 1000 steps, "
        f"post-clip norm <= {worst_norm:.4f} at all 30 instrumented steps"
    )


def test_10_pipeline_reproducibility(tmp_path):
    spec = {"videos": 6, "frames": 8, "height": 12, "width": 12, "seed": 5, "paraphrases": 2}
    cfg = {
        "encoder": SMALL_ENCODER,
        "batch_size": 2,
        "pretrain_steps": 5,
        "max_steps": 10,
        "seed": 0,
    }
    artifacts = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        (root / "spec.json").write_text(json.dumps(spec))
        (root / "train.json").write_text(json.dumps(cfg))
        assert main(["gen-data", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
        assert main(
            ["train", "--config", str(root / "train.json"), "--data", str(root / "data"),
             "--out", str(root / "run")]
        ) == 0
        assert main(
            ["evaluate", "--ckpt", str(root / "run" / "checkpoint"),
             "--corpus", str(root / "data" / "corpus.jsonl"),
             "--decode", "beam", "--beam", "3", "--out", str(root / "eval")]
        ) == 0
        artifacts.append(
            (
                (root / "eval" / "report.json").read_bytes(),
                (root / "eval" / "predictions.jsonl").read_bytes(),
                (root / "run" / "checkpoint" / "params.bin").read_bytes(),
            )
        )
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    assert artifacts[0][2] == artifacts[1][2]
    print("[acceptance] 10 reproducibility PASS: gen-data -> train -> evaluate twice, reports/predictions/weights byte-identical")
