"""Tokenization and token-span arithmetic shared by every other module.

The tokenizer is deliberately rule-based and dependency-free: words (with
internal hyphens and apostrophes kept intact, so "don't" and
"African-Americans" stay single tokens) and standalone punctuation marks.
All matching downstream is case-insensitive, so a Sentence stores each
token's lowercased form alongside its surface. ``read_lines`` is the one
reader of every input file: it streams a file's non-blank lines. A bad
input file raises ``InputError``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

# A word is a run of word characters, optionally joined by internal hyphens
# or apostrophes; anything else but whitespace or a stray BOM is a one-char token.
_TOKEN_RE = re.compile(r"\w+(?:[-'’]\w+)*|[^\s\ufeff]")
# What the "surrogateescape" error handler decodes an undecodable byte to.
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")
# The two bytes that begin a gzip file, as "surrogateescape" decodes them.
_GZIP_MAGIC = "\x1f\udc8b"
# A blank line that is not ASCII: whitespace and stray BOMs, which are no token.
_BLANK_LINE = re.compile(r"[\s\ufeff]*")


class InputError(Exception):
    """A bad input file: ``PATH: line N: reason`` for one line, ``PATH:
    reason`` for a whole file or a file name. The message is the only
    argument, so an error raised in a worker process unpickles in its
    parent."""


@dataclass(frozen=True, slots=True)
class TokenSpan:
    """Half-open token-index interval [start, end) within a Sentence."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def overlaps(self, other: "TokenSpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class Sentence:
    """Raw text plus its tokens; the unit all detection and mining works on.

    ``surface_forms`` holds the token strings in order and ``lower_forms``
    their lowercased forms, one per token (lowercasing a token can change
    its length, e.g. "İ"). Both come from ``raw``; build a Sentence with
    ``tokenize``.
    """

    raw: str
    surface_forms: tuple[str, ...]
    lower_forms: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.surface_forms)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Stream the file's non-blank lines as ``(line number, line)``, without
    their line ends, counting from 1.

    The file is read as UTF-8 text: a leading BOM is dropped, and ``\r\n``
    and ``\r`` end a line as ``\n`` does. No other character ends one, so
    U+2028, U+0085, ``\f`` and the like stay inside their line. A blank
    line is one that is empty or holds only whitespace and U+FEFF, which
    ``tokenize`` reads as no token. An undecodable byte raises
    InputError naming the file and its line, also for a pipe, once every
    line before it has been yielded; if the line starts with gzip's magic
    bytes, the message says the file is compressed.
    """
    # Not "utf-8-sig": its decoder reads a file of only a BOM's first one or
    # two bytes as empty text instead of failing. An undecodable byte
    # decodes to a lone surrogate, which valid UTF-8 never yields.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            if line and not line.isspace() and (line.isascii() or not _BLANK_LINE.fullmatch(line)):
                if not line.isascii() and _UNDECODED_BYTE.search(line):
                    gzipped = " (gzip-compressed: decompress it first)" if line.startswith(_GZIP_MAGIC) else ""
                    raise InputError(f"{path}: line {lineno}: invalid UTF-8{gzipped}")
                yield lineno, line.rstrip("\n")


def split_tokens(raw: str) -> tuple[str, ...]:
    """The token surfaces of ``raw``, as ``tokenize`` splits them."""
    return tuple(_TOKEN_RE.findall(raw))


def tokenize(raw: str) -> Sentence:
    """Split ``raw`` into word and punctuation tokens.

    Punctuation marks become their own tokens; hyphenated words and clitics
    ("don't", "it's") remain single tokens. Empty or whitespace-only input
    yields a sentence with no tokens.
    """
    surfaces = split_tokens(raw)
    return Sentence(raw, surfaces, tuple(map(str.lower, surfaces)))


def match_phrase(sentence: Sentence, phrase: list[str] | tuple[str, ...]) -> list[TokenSpan]:
    """Find every occurrence of ``phrase`` (lowercased token strings).

    Returns the spans left to right; occurrences may overlap each other but
    at most one span starts at any given token index.
    """
    if not phrase:
        raise ValueError("phrase must be non-empty")
    phrase = tuple(phrase)
    width = len(phrase)
    lowers = sentence.lower_forms
    return [
        TokenSpan(start, start + width)
        for start in range(len(lowers) - width + 1)
        if lowers[start : start + width] == phrase
    ]
