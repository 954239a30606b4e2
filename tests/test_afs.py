"""Frame-selection tests, anchored on a dense-grid CDF inversion oracle.

The oracle evaluates F on a 10^5-point grid and takes the first grid
point at or above each quantile.  Integer-valued dissimilarities keep
exact inverse positions at least 1/(2*N*d_max) away from rounding
boundaries (except exact halves, where both sides round up), which is
wider than the grid pitch, so oracle and implementation must agree
exactly after rounding.
"""

import numpy as np
import pytest

from vidcap.afs import (
    apply_selection,
    build_cdf,
    frame_dissimilarity,
    inverse_cdf,
    raw_positions,
    select_frames,
    select_from_clip,
)
from vidcap.synth import render_video
from vidcap.video import VideoClip

GRID = 100_001


def oracle_select(d, m, n):
    cdf = build_cdf(np.asarray(d, dtype=float), m)
    if m == 1:
        return [0] * n
    # grid points as i*(m-1)/1e5: exact integer product then one correctly
    # rounded division, so half-integer grid points are hit exactly
    # (np.linspace lands a few ulp off and can misround those)
    xs = np.arange(GRID) * float(m - 1) / (GRID - 1)
    fs = np.interp(xs, np.arange(m), cdf.breakpoints)
    out = []
    for k in range(n):
        q = k / n
        i = np.searchsorted(fs, q, side="left")
        x = xs[min(i, GRID - 1)]
        out.append(int(np.floor(x + 0.5)))
    return out


def test_dissimilarity_examples():
    same = VideoClip(np.zeros((2, 4, 4, 1)))
    assert np.array_equal(frame_dissimilarity(same), [0.0])

    jump = VideoClip(np.stack([np.zeros((4, 4, 1)), np.ones((4, 4, 1))]))
    assert np.array_equal(frame_dissimilarity(jump), [1.0])

    rng = np.random.default_rng(0)
    clip = VideoClip(rng.random((3, 5, 6, 3)))
    d = frame_dissimilarity(clip)
    for t in range(2):
        acc = 0.0
        a, b = clip.data[t], clip.data[t + 1]
        for i in range(5):
            for j in range(6):
                for c in range(3):
                    acc += abs(a[i, j, c] - b[i, j, c])
        assert abs(d[t] - acc / (5 * 6 * 3)) < 1e-15


def test_patch_metric_basics():
    rng = np.random.default_rng(1)
    clip = VideoClip(rng.random((3, 8, 8, 3)))
    d = frame_dissimilarity(clip, metric="patch")
    assert d.shape == (2,) and (d >= 0).all()
    same = VideoClip(np.tile(rng.random((1, 8, 8, 3)), (2, 1, 1, 1)))
    assert np.allclose(frame_dissimilarity(same, metric="patch"), [0.0])


def _float32_clips():
    rng = np.random.default_rng(2)
    edges = rng.random((6, 5, 7, 3)).astype(np.float32)
    edges[::2, :2] = 0.0
    edges[1::2, 2:4] = 1.0
    tiny = (rng.random((5, 4, 4, 2)) * 1e-30).astype(np.float32)
    tiny[2] = np.float32(1e-45)  # float32 subnormals
    return {
        "random": rng.random((4, 9, 6, 3)).astype(np.float32),
        "exact_0_1": edges,
        "tiny": tiny,
        "one_frame": rng.random((1, 4, 4, 3)).astype(np.float32),
    }


@pytest.mark.parametrize("name", sorted(_float32_clips()))
@pytest.mark.parametrize("metric", ["mad", "patch"])
def test_float32_dissimilarity_is_bitwise_the_float64_oracle(name, metric):
    clip = VideoClip(_float32_clips()[name])
    assert clip.data.dtype == np.float32
    wide = clip.data.astype(np.float64)
    if metric == "mad":
        want = np.abs(np.diff(wide, axis=0)).mean(axis=(1, 2, 3))
    else:
        # per-channel means of 4x4 patches, then L2 between consecutive frames
        patches = [(r, c) for r in range(0, wide.shape[1], 4) for c in range(0, wide.shape[2], 4)]
        desc = np.stack([np.concatenate([f[r : r + 4, c : c + 4].mean(axis=(0, 1)) for r, c in patches]) for f in wide])
        want = np.sqrt((np.diff(desc, axis=0) ** 2).sum(axis=1))
    got = frame_dissimilarity(clip, metric=metric)
    assert got.dtype == np.float64 and got.shape == (clip.frames - 1,)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == frame_dissimilarity(VideoClip(wide), metric=metric).tobytes()


def test_build_cdf_examples():
    cdf = build_cdf(np.array([1.0, 1.0, 1.0, 1.0]), 5)
    assert np.allclose(cdf.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    cdf = build_cdf(np.array([0.0, 0.0, 1.0, 0.0]), 5)
    assert cdf.breakpoints[2] == 0.0 and cdf.breakpoints[3] == 1.0

    cdf = build_cdf(np.array([1.0, 3.0]), 3)
    assert abs(cdf.breakpoints[1] - 0.25) < 1e-15 and cdf.breakpoints[2] == 1.0

    with pytest.raises(ValueError, match="negative dissimilarity"):
        build_cdf(np.array([1.0, -0.1]), 3)

    # all-zero mass falls back to the uniform CDF
    cdf = build_cdf(np.zeros(3), 4)
    assert np.allclose(cdf.breakpoints, np.arange(4) / 3, atol=1e-15)


def test_inverse_cdf_examples():
    uniform = build_cdf(np.ones(8), 9)
    assert inverse_cdf(uniform, 0.5) == 4.0

    plateau = build_cdf(np.array([0, 0, 0, 1, 0, 0, 0, 0], dtype=float), 9)
    assert abs(inverse_cdf(plateau, 0.5) - 3.5) < 1e-12
    assert inverse_cdf(plateau, 0.0) == 0.0
    # quantile at a plateau value resolves to the left edge
    assert inverse_cdf(plateau, 1.0) == 4.0

    with pytest.raises(ValueError):
        inverse_cdf(uniform, -0.01)
    with pytest.raises(ValueError):
        inverse_cdf(uniform, 1.01)


def test_select_frames_examples():
    uniform = build_cdf(np.ones(8), 9)
    assert select_frames(uniform, 4).indices == [0, 2, 4, 6]

    plateau = build_cdf(np.array([0, 0, 0, 1, 0, 0, 0, 0], dtype=float), 9)
    assert select_frames(plateau, 4).indices == [0, 3, 4, 4]

    single = build_cdf(np.zeros(0), 1)
    assert select_frames(single, 3).indices == [0, 0, 0]

    with pytest.raises(ValueError):
        select_frames(uniform, 0)


def test_oracle_equivalence_1000_profiles():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, 33))
        d = rng.integers(0, 10, size=m - 1).astype(float)
        if d.sum() == 0:
            d[rng.integers(0, m - 1)] = 1.0
        got = select_frames(build_cdf(d, m), n).indices
        assert got == oracle_select(d, m, n), (m, n, d.tolist())


def test_uniform_reduction_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 33))
        c = float(rng.uniform(0.1, 5.0))
        cdf = build_cdf(np.full(max(m - 1, 0), c), m)
        expect = [int(np.floor(k * (m - 1) / n + 0.5)) for k in range(n)]
        assert select_frames(cdf, n).indices == expect


def test_scale_invariance_exact():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(1, 20))
        d = rng.random(m - 1)
        base = select_frames(build_cdf(d, m), n).indices
        for c in (0.001, 3.0, 1e6):
            assert select_frames(build_cdf(c * d, m), n).indices == base


def test_monotone_indices():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(2, 50))
        n = int(rng.integers(1, 25))
        d = rng.random(m - 1) * rng.integers(0, 2, size=m - 1)  # plateaus included
        idx = select_frames(build_cdf(d, m), n).indices
        assert all(a <= b for a, b in zip(idx, idx[1:]))


def test_mass_proportionality_within_one():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = int(rng.integers(3, 64))
        n = int(rng.integers(2, 33))
        d = rng.integers(1, 10, size=m - 1).astype(float)  # strictly positive
        cdf = build_cdf(d, m)
        a = int(rng.integers(0, m - 1))
        b = int(rng.integers(a + 1, m))
        rho = cdf.breakpoints[b] - cdf.breakpoints[a]
        raw = raw_positions(cdf, n)
        inside = sum(1 for x in raw if a - 1e-12 <= x <= b + 1e-12)
        assert abs(inside - n * rho) <= 1 + 1e-9


def test_dedupe_replaces_by_heaviest_segment():
    # one dominant segment swallows most quantiles; dedupe must spread out
    d = np.array([0, 0, 100, 1, 1], dtype=float)
    cdf = build_cdf(d, 6)
    plain = select_frames(cdf, 4).indices
    assert len(set(plain)) < 4
    sel = select_frames(cdf, 4, dedupe=True).indices
    assert len(set(sel)) == 4
    assert set(plain) <= set(sel)
    # the first replacement frame borders the heaviest untouched mass
    extras = sorted(set(sel) - set(plain))
    assert all(0 <= i <= 5 for i in extras)


def test_dedupe_pads_when_video_too_short():
    cdf = build_cdf(np.array([1.0, 1.0]), 3)
    sel = select_frames(cdf, 5, dedupe=True).indices
    assert len(sel) == 5
    assert set(sel) == {0, 1, 2}
    assert sel[-1] == sel[-2]  # padding repeats the last index


def test_apply_selection():
    rng = np.random.default_rng(11)
    clip = VideoClip(rng.random((5, 3, 3, 2)))
    ident = apply_selection(clip, select_frames(build_cdf(np.ones(4), 5), 5))
    # uniform N==M selection is the identity permutation here
    assert ident.data.shape == clip.data.shape

    from vidcap.afs import Selection

    out = apply_selection(clip, Selection(indices=[0, 0]))
    assert out.data.shape[0] == 2
    assert np.array_equal(out.data[0], clip.data[0])
    assert np.array_equal(out.data[1], clip.data[0])

    pick = [3, 1, 4]
    out = apply_selection(clip, Selection(indices=pick))
    for k, i in enumerate(pick):
        assert np.array_equal(out.data[k], clip.data[i])

    with pytest.raises(ValueError):
        apply_selection(clip, Selection(indices=[5]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_apply_selection_gathers_a_fresh_array_of_the_source_dtype(dtype):
    from vidcap.afs import Selection

    clip = VideoClip(np.random.default_rng(13).random((6, 3, 3, 2)).astype(dtype))
    out = apply_selection(clip, Selection(indices=[1, 1, 4]))
    assert out.data.dtype == dtype
    assert not np.shares_memory(out.data, clip.data)
    assert np.array_equal(out.data, clip.data[[1, 1, 4]])


def test_motion_segment_attracts_selection():
    # static prefix contributes zero mass, so picks cluster in the moving part
    rng = np.random.default_rng(12)
    clip, start = render_video("square", "red", "left", 30, 16, 16, 0.7, rng)
    d = frame_dissimilarity(clip)
    assert np.allclose(d[: start - 1], 0.0)
    sel = select_from_clip(clip, 8)
    inside = sum(1 for i in sel.indices if i >= start - 1)
    assert inside >= 7  # all but possibly the q=0 pick at frame 0
