"""Synthetic dataset generator tests: determinism, captions, motion layout."""

import json

import numpy as np
import pytest

from vidcap.synth import SyntheticSpec, captions_for, generate_synthetic_dataset, render_video
from vidcap.textproc import config_from_table, load_corpus
from vidcap.video import read_vvid


def test_rerun_is_byte_identical(tmp_path):
    spec = SyntheticSpec(videos=4, frames=8, height=12, width=12, seed=5)
    a, b = tmp_path / "a", tmp_path / "b"
    generate_synthetic_dataset(spec, a)
    generate_synthetic_dataset(spec, b)

    for rel in ("corpus.jsonl", "meta.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    vids = sorted(p.name for p in (a / "videos").iterdir())
    assert vids == sorted(p.name for p in (b / "videos").iterdir())
    for name in vids:
        assert (a / "videos" / name).read_bytes() == (b / "videos" / name).read_bytes()


def test_single_combination_caption():
    assert captions_for("square", "red", "left", 1) == ["a red square moves left"]
    assert captions_for("circle", "blue", "static", 2) == [
        "a blue circle stays still",
        "a blue circle staying still",
    ]


def test_static_prefix_splits_timeline():
    rng = np.random.default_rng(0)
    clip, start = render_video("square", "red", "right", 24, 16, 16, 0.5, rng)
    assert start == 12
    d = np.abs(np.diff(clip.data, axis=0)).sum(axis=(1, 2, 3))
    assert np.all(d[: start - 1] == 0.0)  # still for the whole prefix
    moving = d[start - 1 :]
    assert (moving > 0).sum() >= len(moving) // 2
    assert moving.sum() > 0.0


def test_static_motion_never_moves():
    rng = np.random.default_rng(1)
    clip, _ = render_video("triangle", "green", "static", 10, 16, 16, 0.25, rng)
    assert np.abs(np.diff(clip.data, axis=0)).max() == 0.0
    assert clip.data.min() >= 0.0 and clip.data.max() <= 1.0


def test_dataset_layout_and_coverage(tmp_path):
    spec = SyntheticSpec(videos=12, frames=6, height=12, width=12, seed=9, paraphrases=2)
    records = generate_synthetic_dataset(spec, tmp_path)
    assert len(records) == 12

    loaded = load_corpus(tmp_path / "corpus.jsonl")
    assert [r.id for r in loaded] == [f"vid{i:04d}" for i in range(12)]
    for rec in loaded:
        assert rec.split == "train"
        assert len(rec.captions) == 2
        clip = read_vvid(tmp_path / rec.video)
        assert clip.data.shape == (6, 12, 12, 3)

    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["spec"]["videos"] == 12
    entries = meta["videos"]
    assert {e["shape"] for e in entries} == set(spec.shapes)
    assert {e["color"] for e in entries} == set(spec.colors)
    assert {e["motion"] for e in entries} == set(spec.motions)
    for e in entries:
        assert set(e) == {"id", "shape", "color", "motion", "motion_start"}
        assert 0 <= e["motion_start"] < 6


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown synthetic spec keys"):
        config_from_table(SyntheticSpec, {"videos": 2, "fps": 30}, "synthetic spec")
    with pytest.raises(ValueError, match="unknown color"):
        SyntheticSpec(colors=("chartreuse",))
    with pytest.raises(ValueError, match="static prefix"):
        SyntheticSpec(static_prefix=1.0)
    with pytest.raises(ValueError, match="paraphrases"):
        SyntheticSpec(paraphrases=9)
    round_trip = config_from_table(SyntheticSpec, {"videos": 3, "colors": ["red", "cyan"]}, "synthetic spec")
    assert round_trip.colors == ("red", "cyan")
