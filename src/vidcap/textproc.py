"""Tokenization, vocabularies, a lexicon POS tagger, and caption encoding.

Captions are lowercased, punctuation is stripped (intra-word apostrophes
survive), and tokens are whitespace-separated words.  The word vocabulary
reserves ids 0..3 for <pad>, <sos>, <eos>, <unk>; learned words follow in
(frequency desc, word asc) order.  The concept vocabulary is the top-K
content words (nouns, verbs, adverbs) by corpus token frequency.  The
JSON read from outside (corpus files, config tables) is parsed here too.
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

PAD, SOS, EOS, UNK = "<pad>", "<sos>", "<eos>", "<unk>"
PAD_ID, SOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED = [PAD, SOS, EOS, UNK]

TAGSET = frozenset({"NOUN", "VERB", "ADV", "ADJ", "DET", "PRON", "PREP", "OTHER"})
CONCEPT_TAGS = frozenset({"NOUN", "VERB", "ADV"})
SPLITS = ("train", "val", "test")

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def normalize_and_tokenize(text: str) -> list[str]:
    """Lowercase, drop punctuation except apostrophes inside words, split."""
    out = []
    for piece in _TOKEN_RE.findall(text.lower()):
        piece = piece.strip("'")
        if piece:
            out.append(piece)
    return out


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


class Vocab:
    """Word <-> id table with fixed reserved ids 0..3."""

    def __init__(self, learned_words: Sequence[str]):
        self.words = RESERVED + list(learned_words)
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words in vocabulary")
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    @property
    def learned_count(self) -> int:
        return len(self.words) - len(RESERVED)

    def id_of(self, word: str) -> int:
        return self.index.get(word, UNK_ID)

    def encode_tokens(self, tokens: Sequence[str]) -> list[int]:
        return [self.id_of(w) for w in tokens]

    def decode_ids(self, ids: Iterable[int]) -> list[str]:
        """Word tokens up to (not including) the first EOS; PAD/SOS surface
        as their literal markers if a model ever emits them."""
        out = []
        for i in ids:
            if i == EOS_ID:
                break
            out.append(self.words[i])
        return out

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"words": self.words[len(RESERVED) :]}, indent=0) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        return cls(_load_word_table(path)["words"])


def _token_counts(captions: Iterable[str]) -> Counter:
    """How often each token occurs over the captions."""
    return Counter(tok for cap in captions for tok in normalize_and_tokenize(cap))


def build_vocab(captions: Iterable[str], min_freq: int = 1) -> Vocab:
    """Count tokens over the training captions and keep those at or above
    min_freq, ordered by (frequency desc, word asc)."""
    captions = list(captions)
    if not captions:
        raise ValueError("empty training split")
    counts = _token_counts(captions)
    kept = [w for w, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda w: (-counts[w], w))
    return Vocab(kept)


def encode_caption(vocab: Vocab, text: str, max_len: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Token ids padded to max_len+1 with EOS terminator, plus validity mask.

    Captions longer than max_len words are truncated first; the EOS always
    fits because of the +1 slot.
    """
    tokens = normalize_and_tokenize(text)[:max_len]
    ids = vocab.encode_tokens(tokens) + [EOS_ID]
    mask = [True] * len(ids)
    while len(ids) < max_len + 1:
        ids.append(PAD_ID)
        mask.append(False)
    return np.asarray(ids, dtype=np.intp), np.asarray(mask, dtype=bool)


# ---------------------------------------------------------------------------
# part-of-speech tagging


class PosTagger:
    """Deterministic tagger: exact lexicon lookup, then suffix heuristics
    (-ly -> ADV; -ing/-ed/-s whose stem is a known verb -> VERB), then NOUN."""

    def __init__(self, lexicon: dict[str, str]):
        bad = sorted({t for t in lexicon.values() if t not in TAGSET})
        if bad:
            raise ValueError(f"unknown POS tags in lexicon: {bad}")
        self.lexicon = dict(lexicon)

    @classmethod
    def from_file(cls, path: str | Path) -> "PosTagger":
        lex = {}
        for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"lexicon line {line_no}: expected word<TAB>tag")
            lex[parts[0]] = parts[1]
        return cls(lex)

    @classmethod
    def load_default(cls) -> "PosTagger":
        """A new tagger on the packaged lexicon, with its own copy of it;
        the file is read once per process."""
        return cls(_default_lexicon())

    def _is_verb(self, word: str) -> bool:
        return self.lexicon.get(word) == "VERB"

    def tag(self, word: str) -> str:
        hit = self.lexicon.get(word)
        if hit is not None:
            return hit
        if word.endswith("ly") and len(word) > 3:
            return "ADV"
        for stem in _candidate_verb_stems(word):
            if self._is_verb(stem):
                return "VERB"
        return "NOUN"

    def tag_tokens(self, tokens: Sequence[str]) -> list[str]:
        return [self.tag(t) for t in tokens]


@functools.cache
def _default_lexicon() -> dict[str, str]:
    path = resources.files("vidcap").joinpath("data/pos_lexicon.txt")
    with resources.as_file(path) as p:
        return PosTagger.from_file(p).lexicon


def _candidate_verb_stems(word: str) -> list[str]:
    stems = []
    if word.endswith("ing") and len(word) > 4:
        base = word[:-3]
        stems += [base, base + "e"]
        if len(base) >= 2 and base[-1] == base[-2]:
            stems.append(base[:-1])
    elif word.endswith("ed") and len(word) > 3:
        base = word[:-2]
        stems += [base, base + "e" if not base.endswith("e") else base]
        stems.append(word[:-1])
        if len(base) >= 2 and base[-1] == base[-2]:
            stems.append(base[:-1])
    elif word.endswith("ies") and len(word) > 4:
        stems.append(word[:-3] + "y")
    elif word.endswith("es") and len(word) > 3:
        stems += [word[:-2], word[:-1]]
    elif word.endswith("s") and len(word) > 2:
        stems.append(word[:-1])
    return stems


# ---------------------------------------------------------------------------
# concept vocabulary and labels


@dataclass
class ConceptVocabulary:
    """K content words in rank order plus the corpus counts behind the rank."""

    words: list[str]
    counts: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.words)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"words": self.words, "counts": self.counts}, indent=0) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ConceptVocabulary":
        obj = _load_word_table(path)
        counts = obj.get("counts", {})
        if not (isinstance(counts, dict) and all(type(v) is int for v in counts.values())):
            raise ValueError(f"{path}: counts must be an object of integers, got {counts!r}")
        return cls(words=obj["words"], counts=counts)


def build_concept_vocabulary(captions: Iterable[str], tagger: PosTagger, k: int) -> ConceptVocabulary:
    """Top-k nouns/verbs/adverbs by corpus token frequency, ties to the
    alphabetically first word."""
    if k < 1:
        raise ValueError(f"concept count must be at least 1, got {k}")
    content = {w: c for w, c in _token_counts(captions).items() if tagger.tag(w) in CONCEPT_TAGS}
    if len(content) < k:
        raise ValueError(
            f"concept vocabulary underflow: corpus has {len(content)} concept words, {k} needed"
            " (add colours/shapes/motions or lower concept_count)"
        )
    ranked = sorted(content, key=lambda w: (-content[w], w))[:k]
    return ConceptVocabulary(words=ranked, counts={w: content[w] for w in ranked})


def concept_label_vector(concepts: ConceptVocabulary, captions: Sequence[str]) -> np.ndarray:
    """Binary vector: entry k is 1 iff concept word k occurs in any caption."""
    present: set[str] = set()
    for cap in captions:
        present.update(normalize_and_tokenize(cap))
    return np.array([1.0 if w in present else 0.0 for w in concepts.words])


# ---------------------------------------------------------------------------
# caption corpus files


@dataclass
class CaptionRecord:
    id: str
    video: str
    captions: list[str]
    split: str


def parse_json(text: str, path, first_line: int = 1):
    """The JSON value of text, which starts at line first_line of the file
    path; a syntax error is a ValueError naming path:line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line = first_line + exc.lineno - 1
        raise ValueError(f"{path}:{line}: invalid JSON: {exc.msg} (column {exc.colno})") from None


def _load_word_table(path: str | Path) -> dict:
    """The object in a vocab.json or concepts.json file, whose words must
    be a list of distinct strings; any fault is a ValueError naming path."""
    obj = parse_json(Path(path).read_text(), path)
    words = obj.get("words") if isinstance(obj, dict) else None
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
        raise ValueError(f"{path}: words must be a list of strings, got {words!r}")
    if len(set(words)) != len(words):
        raise ValueError(f"{path}: words repeat")
    return obj


def load_corpus(path: str | Path) -> list[CaptionRecord]:
    records = []
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        obj = parse_json(line, path, line_no)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{line_no}: corpus line is not a JSON object")
        try:
            rec = CaptionRecord(obj["id"], obj["video"], obj["captions"], obj["split"])
        except KeyError as e:
            raise ValueError(f"{path}:{line_no}: missing corpus field {e}") from None
        for key in ("id", "video", "split"):
            if not isinstance(obj[key], str):
                raise ValueError(f"{path}:{line_no}: {key} must be a string, got {obj[key]!r}")
        if not isinstance(rec.captions, list) or not all(isinstance(c, str) for c in rec.captions):
            raise ValueError(f"{path}:{line_no}: captions must be a list of strings, got {rec.captions!r}")
        if rec.split not in SPLITS:
            raise ValueError(f"{path}:{line_no}: bad split {rec.split!r}")
        if not rec.captions:
            raise ValueError(f"{path}:{line_no}: record has no captions")
        if rec.id in first_line:
            raise ValueError(f"{path}:{line_no}: id {rec.id!r} repeats line {first_line[rec.id]}")
        first_line[rec.id] = line_no
        records.append(rec)
    return records


# the JSON values a config field takes, by the type of its default, and
# the entries of a list field, by the type of its default's entries; a
# bool is not a number here, though Python counts it as an int
_JSON_TYPES = {bool: (bool, "a boolean"), int: (int, "an integer"),
               float: ((int, float), "a number"), tuple: (list, "a list")}


def _check_json_type(value, like, what: str) -> None:
    kind = type(like)
    if kind in _JSON_TYPES:
        accepted, name = _JSON_TYPES[kind]
        if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
            raise ValueError(f"{what} must be {name}, got {value!r}")
    if kind is tuple:
        for item in value:
            _check_json_type(item, like[0], what + " entry")


def config_from_table(cls, table, what: str):
    """The dataclass cls built from a JSON object of its fields.  Unknown
    keys, a value or list entry whose JSON type does not fit its field's
    default and a TypeError while building are ValueErrors naming
    ``what``; the list given for a tuple field becomes a tuple."""
    if not isinstance(table, dict):
        raise ValueError(f"{what} must be a JSON object, got {table!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(table) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in table.items():
        _check_json_type(value, defaults[key], f"{what} key {key!r}")
        kwargs[key] = tuple(value) if type(defaults[key]) is tuple else value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad {what}: {exc}") from None


def save_corpus(path: str | Path, records: Sequence[CaptionRecord]) -> None:
    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {"id": r.id, "video": r.video, "captions": r.captions, "split": r.split},
                sort_keys=False,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
