"""Raw text to fixed-length index sequences.

Cleaning, whitespace tokenization, frequency-ranked vocabulary
construction, OOV replacement, pre-padding and tail truncation. Index 0
is always the pad, index 1 the OOV token; real tokens start at 2 and are
ordered by descending corpus frequency with lexicographic tie-break, so
construction is fully deterministic.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigError, DataError

PAD_INDEX = 0
OOV_INDEX = 1

_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")


@dataclass(frozen=True)
class PipelineConfig:
    vocab_size: int = 10000
    max_len: int = 250
    lowercase: bool = True
    strip_nonalpha: bool = True
    stopwords: frozenset = frozenset()
    oov_token: str = "<UNK>"
    pad_token: str = "<PAD>"

    def __post_init__(self):
        if self.vocab_size < 3:
            raise ConfigError(f"vocab_size must be >= 3 (pad + OOV + one token), got {self.vocab_size}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "max_len": self.max_len,
            "lowercase": self.lowercase,
            "strip_nonalpha": self.strip_nonalpha,
            "stopwords": sorted(self.stopwords),
            "oov_token": self.oov_token,
            "pad_token": self.pad_token,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        d["stopwords"] = frozenset(d.get("stopwords") or ())
        return cls(**d)


def clean(raw: str, cfg: PipelineConfig) -> list[str]:
    """Normalize raw text into a token list.

    Lowercases (if configured), replaces non-alphanumeric runs with
    separators (if configured), splits on whitespace and drops
    configured stopwords. Empty input gives an empty list.
    """
    text = raw.lower() if cfg.lowercase else raw
    if cfg.strip_nonalpha:
        text = _NON_ALNUM.sub(" ", text)
    tokens = text.split()
    if cfg.stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    return tokens


def read_lines(path, error=DataError):
    """The lines of a UTF-8 text file. A byte that does not decode raises
    ``error`` naming the file; the decoder reads ahead, so its line is
    not known."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as e:
            raise error(f"{path}: not UTF-8 text ({e.reason})") from None


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

    def __len__(self) -> int:
        return len(self.index_to_token)

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
        tokens, freqs = [], []
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
            tokens.append(tok)
            freqs.append(freq)
        if len(tokens) < 2:
            raise DataError("vocabulary must contain at least pad and OOV entries")
        return cls(tokens, freqs)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls.from_text("".join(read_lines(path)))


def build_vocabulary(corpus, cfg: PipelineConfig) -> Vocabulary:
    """Rank tokens by corpus frequency and keep the top vocab_size - 2.

    `corpus` is an iterable of token sequences (the output of clean()).
    """
    counts = Counter()
    n_docs = 0
    for tokens in corpus:
        n_docs += 1
        counts.update(tokens)
    if n_docs == 0:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = ranked[: cfg.vocab_size - 2]
    tokens = [cfg.pad_token, cfg.oov_token] + [t for t, _ in kept]
    freqs = [0, 0] + [c for _, c in kept]
    return Vocabulary(tokens, freqs)


def encode(tokens, vocab: Vocabulary, cfg: PipelineConfig) -> np.ndarray:
    """Map tokens to indices, truncate the tail, pre-pad with zeros.

    Output always has exactly max_len entries. A token outside the
    vocabulary maps to ``OOV_INDEX``.
    """
    tokens = tokens[: cfg.max_len]
    out = np.zeros(cfg.max_len, dtype=np.int32)
    if tokens:
        ids = map(vocab.token_to_index.get, tokens, repeat(OOV_INDEX))
        out[cfg.max_len - len(tokens):] = np.fromiter(ids, np.int32, len(tokens))
    return out

