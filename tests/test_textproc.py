"""Tokenizer, vocabulary, POS tagging, and concept extraction tests."""

import re

import numpy as np
import pytest

from vidcap.decoder import DecoderConfig
from vidcap.encoder import EncoderConfig
from vidcap.synth import SyntheticSpec, generate_synthetic_dataset
from vidcap.textproc import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    UNK_ID,
    CaptionRecord,
    PosTagger,
    Vocab,
    build_concept_vocabulary,
    build_vocab,
    concept_label_vector,
    config_from_table,
    detokenize,
    encode_caption,
    load_corpus,
    normalize_and_tokenize,
    save_corpus,
)
from vidcap.training import TrainConfig


def test_tokenize_examples():
    assert normalize_and_tokenize("A Dog runs.") == ["a", "dog", "runs"]
    assert normalize_and_tokenize("dog's tail") == ["dog's", "tail"]
    assert normalize_and_tokenize("") == []
    assert normalize_and_tokenize("  Hello,   WORLD!! ") == ["hello", "world"]
    # leading/trailing apostrophes strip, inner ones stay
    assert normalize_and_tokenize("'tis the dog's") == ["tis", "the", "dog's"]


def test_tokenize_detokenize_identity():
    text = "a dog's tail wags quickly"
    assert detokenize(normalize_and_tokenize(text)) == text


def test_vocab_order_and_reserved_ids():
    v = build_vocab(["a dog", "a cat"])
    assert v.words[:4] == ["<pad>", "<sos>", "<eos>", "<unk>"]
    assert (PAD_ID, SOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    # "a" has frequency 2; cat/dog tie at 1 and sort alphabetically
    assert v.words[4:] == ["a", "cat", "dog"]
    assert v.id_of("zebra") == UNK_ID
    assert len(v) == 7 and v.learned_count == 3


def test_vocab_min_freq():
    v = build_vocab(["a dog", "a cat"], min_freq=2)
    assert v.words[4:] == ["a"]


def test_vocab_round_trip(tmp_path):
    v = build_vocab(["a dog runs", "the dog sleeps"])
    p = tmp_path / "vocab.json"
    v.save(p)
    w = Vocab.load(p)
    assert w.words == v.words
    assert all(w.id_of(x) == v.id_of(x) for x in v.words)


def test_vocab_empty_split_errors():
    with pytest.raises(ValueError, match="empty training split"):
        build_vocab([])


def test_pos_tag_examples():
    tagger = PosTagger.load_default()
    assert tagger.tag_tokens(["a", "dog", "runs", "quickly"]) == [
        "DET",
        "NOUN",
        "VERB",
        "ADV",
    ]
    assert tagger.tag("blorp") == "NOUN"
    # context-free: same tag regardless of position
    assert tagger.tag_tokens(["dog", "a", "dog"]) == ["NOUN", "DET", "NOUN"]
    # suffix fallbacks route through known verb stems
    assert tagger.tag("blorply") == "ADV"


def test_concept_vocabulary_examples():
    tagger = PosTagger.load_default()
    caps = ["a dog runs", "a dog sleeps", "a cat runs"]

    cv = build_concept_vocabulary(caps, tagger, 2)
    assert cv.words == ["dog", "runs"]
    assert cv.counts == {"dog": 2, "runs": 2}

    cv = build_concept_vocabulary(caps, tagger, 4)
    assert cv.words == ["dog", "runs", "cat", "sleeps"]

    with pytest.raises(ValueError, match="concept vocabulary underflow"):
        build_concept_vocabulary(["a the an"], tagger, 1)


def test_concept_vocabulary_underflow_states_counts(tmp_path):
    # the default spec's captions hold 12 concept words, short of the desk 16
    records = generate_synthetic_dataset(SyntheticSpec(), tmp_path)
    captions = [c for r in records for c in r.captions]
    with pytest.raises(ValueError, match="concept vocabulary underflow") as exc:
        build_concept_vocabulary(captions, PosTagger.load_default(), 16)
    assert "12 concept words" in str(exc.value) and "16 needed" in str(exc.value)


def test_concept_vocabulary_order_invariance():
    tagger = PosTagger.load_default()
    caps = ["a dog runs", "a dog sleeps", "a cat runs"]
    a = build_concept_vocabulary(caps, tagger, 3)
    b = build_concept_vocabulary(list(reversed(caps)), tagger, 3)
    assert a.words == b.words and a.counts == b.counts


def test_concept_labels():
    tagger = PosTagger.load_default()
    cv = build_concept_vocabulary(
        ["a dog runs", "a cat sits", "the dog runs"], tagger, 4
    )
    assert cv.words == ["dog", "runs", "cat", "sits"]

    lab = concept_label_vector(cv, ["a dog runs"])
    assert lab.tolist() == [1.0, 1.0, 0.0, 0.0]

    # any-caption quantifier
    lab = concept_label_vector(cv, ["nothing here", "a cat appears"])
    assert lab.tolist() == [0.0, 0.0, 1.0, 0.0]

    # adding captions can only raise labels
    base = concept_label_vector(cv, ["a dog runs"])
    more = concept_label_vector(cv, ["a dog runs", "a cat sits"])
    assert (more >= base).all()

    assert concept_label_vector(cv, [""]).tolist() == [0.0] * 4


def test_encode_caption_contract():
    v = build_vocab(["a dog runs"])
    ids, mask = encode_caption(v, "a dog", max_len=20)
    assert ids.shape == (21,) and mask.shape == (21,)
    assert ids[0] == v.id_of("a") and ids[1] == v.id_of("dog")
    assert ids[2] == EOS_ID
    assert (ids[3:] == PAD_ID).all()
    assert mask.tolist() == [True] * 3 + [False] * 18
    assert (ids == EOS_ID).sum() == 1

    # truncation: 25 tokens keep the first 20, then EOS
    long = " ".join(["dog"] * 25)
    ids, mask = encode_caption(v, long, max_len=20)
    assert mask.all() and ids[20] == EOS_ID
    assert (ids[:20] == v.id_of("dog")).all()

    ids, _ = encode_caption(v, "a zebra runs", max_len=20)
    assert ids[1] == UNK_ID


def test_decode_ids_stops_at_eos():
    v = build_vocab(["a dog runs"])
    ids = [v.id_of("a"), v.id_of("dog"), EOS_ID, v.id_of("runs")]
    assert v.decode_ids(ids) == ["a", "dog"]


def test_corpus_round_trip(tmp_path):
    recs = [
        CaptionRecord(id="v0", video="videos/v0.vvid", captions=["a dog runs"], split="train"),
        CaptionRecord(id="v1", video="videos/v1.vvid", captions=["a cat sits", "the cat sits"], split="val"),
    ]
    p = tmp_path / "corpus.jsonl"
    save_corpus(p, recs)
    back = load_corpus(p)
    assert back == recs


def test_corpus_validation(tmp_path):
    p = tmp_path / "corpus.jsonl"

    p.write_text('{"id": "v0", "video": "x.vvid", "captions": ["hi"], "split": "weird"}\n')
    with pytest.raises(ValueError, match="bad split"):
        load_corpus(p)

    p.write_text('{"id": "v0", "video": "x.vvid", "captions": [], "split": "train"}\n')
    with pytest.raises(ValueError, match="no captions"):
        load_corpus(p)

    p.write_text('{"id": "v0", "captions": ["hi"], "split": "train"}\n')
    with pytest.raises(ValueError, match="missing corpus field"):
        load_corpus(p)

    # line numbers count the blank line, as every corpus error does
    p.write_text(
        '{"id": "a", "video": "a.vvid", "captions": ["hi"], "split": "train"}\n\n'
        '{"id": "b", "video": "b.vvid", "captions": ["hi"], "split": "train"}\n'
        '{"id": "a", "video": "c.vvid", "captions": ["ho"], "split": "val"}\n'
    )
    with pytest.raises(ValueError, match=re.escape(f"{p}:4: id 'a' repeats line 1")):
        load_corpus(p)


@pytest.mark.parametrize(
    "cls, table, message",
    [
        (EncoderConfig, [2, 4, 4], "EncoderConfig must be a JSON object"),
        (DecoderConfig, {"vocab_size": 9, "hiddn": 8}, "unknown DecoderConfig keys: ['hiddn']"),
        (EncoderConfig, {"patch": 2}, "EncoderConfig key 'patch' must be a list"),
        (SyntheticSpec, {"colors": "red"}, "SyntheticSpec key 'colors' must be a list"),
        (TrainConfig, {"lr": "x"}, "TrainConfig key 'lr' must be a number"),
        (TrainConfig, {"seed": True}, "TrainConfig key 'seed' must be an integer"),
        (DecoderConfig, {"vocab_size": 9, "hidden": 8.0}, "DecoderConfig key 'hidden' must be an integer"),
        (EncoderConfig, {"qkv_bias": 1}, "EncoderConfig key 'qkv_bias' must be a boolean"),
        # a list entry that does not fit the default's entries
        (EncoderConfig, {"heads": ["2", "4"]}, "EncoderConfig key 'heads' entry must be an integer, got '2'"),
    ],
)
def test_config_from_table_rejects(cls, table, message):
    with pytest.raises(ValueError) as err:
        config_from_table(cls, table, cls.__name__)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "cls, table, message",
    [
        (EncoderConfig, {"depths": [2, True]}, "EncoderConfig key 'depths' entry must be an integer, got True"),
        (EncoderConfig, {"patch": [2, 4.0, 4]}, "EncoderConfig key 'patch' entry must be an integer, got 4.0"),
        (EncoderConfig, {"concept_hidden": [48, None]}, "EncoderConfig key 'concept_hidden' entry must be an integer"),
    ],
)
def test_config_list_entries_must_fit_the_default_entries(cls, table, message):
    with pytest.raises(ValueError) as err:
        config_from_table(cls, table, cls.__name__)
    assert message in str(err.value)


def test_config_from_table_builds_tuples_and_numbers():
    enc = config_from_table(EncoderConfig, {"window": [1, 2, 2], "concept_hidden": [8, 16]}, "EncoderConfig")
    assert enc == EncoderConfig(window=(1, 2, 2), concept_hidden=(8, 16))
    assert isinstance(enc.window, tuple) and isinstance(enc.concept_hidden, tuple)
    spec = config_from_table(SyntheticSpec, {"videos": 3, "colors": ["red", "cyan"]}, "SyntheticSpec")
    assert spec.colors == ("red", "cyan")
    # an integer is a number; a field without a default takes any value
    assert config_from_table(TrainConfig, {"lr": 1}, "TrainConfig").lr == 1
    assert config_from_table(DecoderConfig, {"vocab_size": 9}, "DecoderConfig").vocab_size == 9
