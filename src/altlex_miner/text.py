"""Tokenization and token-span arithmetic shared by every other module.

The tokenizer is deliberately rule-based and dependency-free: words (with
internal hyphens and apostrophes kept intact, so "don't" and
"African-Americans" stay single tokens) and standalone punctuation marks.
All matching downstream is case-insensitive, so a Sentence stores only its
raw text and each token's lowercased form; the surface tokens are found
again in ``raw`` when asked for. ``read_blocks`` opens every
input file and streams it in blocks of whole lines; ``read_lines`` yields
their non-blank lines one at a time. A bad input file raises ``InputError``.
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
    """Raw text plus its lowercased tokens; the unit all detection and
    mining works on.

    ``lower_forms`` holds each token of ``raw`` lowercased, in order
    (lowercasing a token can change its length, e.g. "İ"); build a Sentence
    with ``tokenize``. ``surface_forms``, the tokens as written, is found
    again in ``raw`` on each read, and ``first_surface`` finds only the
    first; substitution reads both, and ``verify_candidate`` reads
    ``first_surface`` for a span at the sentence's start.
    """

    raw: str
    lower_forms: tuple[str, ...]

    @property
    def surface_forms(self) -> tuple[str, ...]:
        return tuple(_TOKEN_RE.findall(self.raw))

    @property
    def first_surface(self) -> str:
        """The first token as written, or "" for a sentence with none."""
        match = _TOKEN_RE.search(self.raw)
        return match[0] if match else ""

    def __len__(self) -> int:
        return len(self.lower_forms)


# Characters ``read_blocks`` reads at a time, before it completes the last line.
_BLOCK_CHARS = 1 << 16


def read_blocks(path: str | Path) -> Iterator[tuple[int, str]]:
    """Stream the file as ``(number of the first line, text)`` blocks of
    whole lines, each ending in ``\n``, counting lines from 1.

    The file is read as UTF-8 text: a leading BOM is dropped, and ``\r\n``
    and ``\r`` end a line as ``\n`` does. No other character ends one, so
    U+2028, U+0085, ``\f`` and the like stay inside their line. An
    undecodable byte raises InputError naming the file and its line, also
    for a pipe, once every line before it has been yielded; if the line
    starts with gzip's magic bytes, the message says the file is compressed.
    """
    # Not "utf-8-sig": its decoder reads a file of only a BOM's first one or
    # two bytes as empty text instead of failing. An undecodable byte
    # decodes to a lone surrogate, which valid UTF-8 never yields.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first, block = 1, fh.read(_BLOCK_CHARS).removeprefix("\ufeff")
        while block := block + fh.readline():
            block = block if block.endswith("\n") else block + "\n"
            if not block.isascii() and (bad := _UNDECODED_BYTE.search(block)):
                start = block.rfind("\n", 0, bad.start()) + 1
                if start:
                    yield first, block[:start]
                first += block.count("\n", 0, start)
                gzipped = " (gzip-compressed: decompress it first)" if block.startswith(_GZIP_MAGIC, start) else ""
                raise InputError(f"{path}: line {first}: invalid UTF-8{gzipped}")
            yield first, block
            first += block.count("\n")
            block = fh.read(_BLOCK_CHARS)


def block_lines(first: int, block: str) -> Iterator[tuple[int, str]]:
    """A block's non-blank lines as ``(line number, line)``, without line ends. A
    blank line is empty or holds only whitespace and U+FEFF: no token to ``tokenize``."""
    for lineno, line in enumerate(block.split("\n"), start=first):
        if line and not line.isspace() and (line.isascii() or _TOKEN_RE.search(line)):
            yield lineno, line


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The non-blank lines of ``read_blocks(path)``, as ``block_lines`` gives them."""
    for first, block in read_blocks(path):
        yield from block_lines(first, block)


def tokenize(raw: str) -> Sentence:
    """Split ``raw`` into word and punctuation tokens, each lowercased.

    Punctuation marks become their own tokens; hyphenated words and clitics
    ("don't", "it's") remain single tokens. Empty or whitespace-only input
    yields a sentence with no tokens. The text is split first and each
    token lowercased on its own: lowercasing the whole text can give other
    tokens ("İ" grows to two code points, the second no word character, and
    a final sigma depends on the characters after it).
    """
    return Sentence(raw, tuple(map(str.lower, _TOKEN_RE.findall(raw))))


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
