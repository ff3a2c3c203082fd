"""Raw text to fixed-length index sequences.

Cleaning, whitespace tokenization, frequency-ranked vocabulary
construction, OOV replacement, pre-padding and tail truncation. Index 0
is always the pad, index 1 the OOV token; real tokens start at 2 and are
ordered by descending corpus frequency with lexicographic tie-break, so
construction is fully deterministic. One row rule, ``pad_rows``, encodes
for ``preprocess`` and ``predict`` alike: a document's row keeps its
first ``max_len`` tokens and is padded in front. ``row_fault`` checks
stored rows against that rule.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError

PAD_INDEX = 0
OOV_INDEX = 1
PAD_TOKEN = "<PAD>"
OOV_TOKEN = "<UNK>"
# The cleaning values the artifact header records beside the settings.
# A reader rejects any other value, since this version cannot apply it.
_FIXED = {"lowercase": True, "strip_nonalpha": True,
          "oov_token": OOV_TOKEN, "pad_token": PAD_TOKEN}

_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")


@dataclass(frozen=True)
class PipelineConfig:
    vocab_size: int = 10000
    max_len: int = 250
    stopwords: frozenset = frozenset()

    def __post_init__(self):
        if self.vocab_size < 3:
            raise ConfigError(f"vocab_size must be >= 3 (pad + OOV + one token), got {self.vocab_size}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")

    def to_dict(self) -> dict:
        return {"vocab_size": self.vocab_size, "max_len": self.max_len,
                "stopwords": sorted(self.stopwords), **_FIXED}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        for key, value in _FIXED.items():
            found = d.pop(key, value)
            if found != value or type(found) is not type(value):
                raise ValueError(f"{key} must be {value!r}, got {found!r}: this version "
                                 "cleans text only one way")
        d["stopwords"] = frozenset(d.get("stopwords") or ())
        return cls(**d)


def clean(raw: str, cfg: PipelineConfig) -> list[str]:
    """Normalize raw text into a token list.

    Lowercases, replaces non-alphanumeric runs with separators, splits on
    whitespace and drops configured stopwords. Empty input gives an empty
    list.
    """
    tokens = _NON_ALNUM.sub(" ", raw.lower()).split()
    if cfg.stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    return tokens


def decoded(lines, name, error=DataError):
    """Pass on the lines of the text stream ``lines``; a byte that does not
    decode raises ``error`` naming ``name``, but not the line, since the
    decoder reads ahead."""
    try:
        yield from lines
    except UnicodeDecodeError as e:
        raise error(f"{name}: not UTF-8 text ({e.reason})") from None


def read_lines(path, error=DataError):
    """The lines of a UTF-8 text file; a leading byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        yield from decoded(fh, path, error)


def load_stopwords(path) -> frozenset:
    """One token per line; blank lines ignored."""
    return frozenset(line.strip() for line in read_lines(path) if line.strip())


def text_sha256(text: str) -> str:
    """Hex SHA-256 of a vocabulary's canonical text form (``serialize()``)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Vocabulary:
    """Immutable token <-> dense-index mapping.

    Index 0 is the pad, 1 the OOV placeholder; indices 2.. hold the most
    frequent corpus tokens in descending frequency (ties lexicographic).
    """

    def __init__(self, tokens: list[str], frequencies: list[int]):
        if len(tokens) != len(frequencies):
            raise ConfigError("tokens and frequencies must align")
        self.index_to_token = list(tokens)
        self.frequencies = list(frequencies)
        self.token_to_index = {t: i for i, t in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self.index_to_token)

    def serialize(self) -> str:
        """Canonical text form: 'index<TAB>token<TAB>frequency' per line."""
        lines = [
            f"{i}\t{tok}\t{freq}"
            for i, (tok, freq) in enumerate(zip(self.index_to_token, self.frequencies))
        ]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return text_sha256(self.serialize())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.serialize())

    @classmethod
    def from_text(cls, text: str) -> "Vocabulary":
        """Parse the ``serialize()`` form. Entry 0 must be ``PAD_TOKEN`` and
        entry 1 ``OOV_TOKEN``, every later token one that ``clean`` can
        produce (lowercase ASCII letters and digits), and no token may
        repeat; a DataError names the first line that breaks a rule."""
        tokens, freqs, first_line = [], [], {}
        reserved = (PAD_TOKEN, OOV_TOKEN)
        for n, line in enumerate(text.splitlines(), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"vocabulary line {n}: expected 3 tab-separated fields, got {len(parts)}")
            idx, tok, freq = parts
            try:
                idx = int(idx)
                freq = int(freq)
            except ValueError as exc:
                raise DataError(f"vocabulary line {n}: {exc}") from exc
            if idx != len(tokens):
                raise DataError(f"vocabulary line {n}: index {idx} not dense (expected {len(tokens)})")
            if idx < len(reserved) and tok != reserved[idx]:
                raise DataError(f"vocabulary line {n}: entry {idx} must be {reserved[idx]!r}, "
                                f"got {tok!r}")
            if first_line.setdefault(tok, n) != n:
                raise DataError(f"vocabulary line {n}: token {tok!r} repeats line {first_line[tok]}")
            if idx >= len(reserved) and not (tok.isascii() and tok.isalnum() and tok == tok.lower()):
                raise DataError(f"vocabulary line {n}: token {tok!r} is not lowercase ASCII "
                                "letters and digits, so no cleaned text can reach it")
            tokens.append(tok)
            freqs.append(freq)
        if len(tokens) < 3:
            raise DataError(f"vocabulary must hold pad, OOV and at least one token, "
                            f"got {len(tokens)} entries")
        return cls(tokens, freqs)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls.from_text("".join(read_lines(path)))


def build_vocabulary(counts, cfg: PipelineConfig) -> Vocabulary:
    """Rank tokens by corpus frequency and keep the top vocab_size - 2.

    ``counts`` maps each token of the cleaned corpus to its number of
    occurrences, as a ``Counter`` over clean() output does.
    """
    if not counts:
        raise DataError("no document has a token after cleaning, so no vocabulary can be built")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = ranked[: cfg.vocab_size - 2]
    tokens = [PAD_TOKEN, OOV_TOKEN] + [t for t, _ in kept]
    freqs = [0, 0] + [c for _, c in kept]
    return Vocabulary(tokens, freqs)


def pad_rows(ids: np.ndarray, lengths, max_len: int) -> np.ndarray:
    """The row rule: the documents whose vocabulary ids ``ids`` holds back
    to back, ``lengths[r]`` of them for document r, as the rows of one
    (len(lengths), max_len) int32 matrix. A row keeps its document's first
    max_len ids, pre-padded with ``PAD_INDEX``."""
    lengths = np.asarray(lengths, dtype=np.intp)
    kept = np.minimum(lengths, max_len)
    if kept.sum() < ids.size:  # drop each document's run of cut ids
        ids = ids[np.repeat(np.tile([True, False], kept.size),
                            np.stack([kept, lengths - kept], axis=1).reshape(-1))]
    out = np.zeros((kept.size, max_len), dtype=np.int32)
    # a row's last kept[r] positions take its ids, filled in row-major order
    out[np.arange(max_len) >= max_len - kept[:, None]] = ids
    return out


def row_fault(indices: np.ndarray, lengths: np.ndarray, max_len: int) -> Optional[str]:
    """How stored rows break the row rule (``pad_rows``) for their
    recorded lengths, or None when they keep it. No cleaned token maps
    to the pad, so a row holds min(length, max_len) tokens after its
    pad."""
    if indices.shape[1] != max_len:
        return f"rows hold {indices.shape[1]} ids, but the pipeline records max_len {max_len}"
    rows = np.flatnonzero(lengths < 0)
    if rows.size:
        return f"row {rows[0]} records length {lengths[rows[0]]}"
    tokens = indices != PAD_INDEX
    counts = np.count_nonzero(tokens, axis=1)
    # from a row's first token to its end, every id is a token
    span = np.where(counts > 0, max_len - tokens.argmax(axis=1), 0)
    rows = np.flatnonzero(span != counts)
    if rows.size:
        return f"row {rows[0]} has a pad after a token"
    want = np.minimum(lengths, max_len)
    rows = np.flatnonzero(counts != want)
    if rows.size:
        r = rows[0]
        return (f"row {r} holds {counts[r]} tokens, but its recorded length {lengths[r]} "
                f"keeps {want[r]}")
    return None


def encode(documents, vocab: Vocabulary, cfg: PipelineConfig) -> np.ndarray:
    """Map a list of token lists to their rows (``pad_rows``). A token
    outside the vocabulary maps to ``OOV_INDEX``."""
    lengths = np.fromiter(map(len, documents), np.intp, len(documents))
    ids = map(vocab.token_to_index.get, chain.from_iterable(documents), repeat(OOV_INDEX))
    return pad_rows(np.fromiter(ids, np.int32, int(lengths.sum())), lengths, cfg.max_len)
