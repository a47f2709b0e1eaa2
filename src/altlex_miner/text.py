"""Tokenization and token-span arithmetic shared by every other module.

The tokenizer is deliberately rule-based and dependency-free: words (with
internal hyphens and apostrophes kept intact, so "don't" and
"African-Americans" stay single tokens) and standalone punctuation marks.
All matching downstream is case-insensitive, so a Sentence stores each
token's lowercased form alongside its surface. Character offsets are only
computed on request, through ``Sentence.tokens``. ``read_lines`` is the
one reader of every input file: it streams a file's non-blank lines.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

# A word is a run of word characters, optionally joined by internal hyphens
# or apostrophes; anything else that is not whitespace is a one-char token.
_TOKEN_RE = re.compile(r"\w+(?:[-'’]\w+)*|\S")


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with character offsets into the owning sentence."""

    surface: str
    lowercased: str
    char_start: int
    char_end: int

    def __post_init__(self) -> None:
        if not self.char_start < self.char_end:
            raise ValueError(f"empty token span [{self.char_start}, {self.char_end})")


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

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The tokens with character offsets into ``raw``, rebuilt on each call."""
        return tuple(
            Token(m.group(), m.group().lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(self.raw)
        )

    def surfaces(self, span: TokenSpan | None = None) -> tuple[str, ...]:
        return self.surface_forms if span is None else self.surface_forms[span.start : span.end]

    def lowers(self, span: TokenSpan | None = None) -> tuple[str, ...]:
        return self.lower_forms if span is None else self.lower_forms[span.start : span.end]


def read_lines(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """Stream the file's non-blank lines as ``(line number, line)``, without
    their line ends, counting from 1.

    The file is read as UTF-8 text: a leading BOM is dropped, and ``\r\n``
    and ``\r`` end a line as ``\n`` does. No other character ends one, so
    U+2028, U+0085, ``\f`` and the like stay inside their line. A blank
    line is one that is empty or all whitespace. An undecodable byte raises
    ``error`` naming the file and its line, also for a pipe; lines read
    before it may already have been yielded.
    """
    # Not "utf-8-sig": its decoder reads a file of only a BOM's first one or
    # two bytes as empty text instead of failing.
    binary = _LineEndCounter(open(path, "rb", buffering=0))
    with io.TextIOWrapper(binary, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if lineno == 1:
                    line = line.removeprefix("\ufeff")
                if line and not line.isspace():
                    yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            # The decoder fails on the bytes it holds from the latest chunk,
            # after at most three of the chunk before, which end no line.
            lineno = binary.line_ends(exc.object[: exc.start]) + 1
            raise error(f"{path}: line {lineno}: invalid UTF-8") from None


class _LineEndCounter(io.BufferedReader):
    """A binary reader that counts the line ends (``\n``, ``\r\n`` and
    ``\r``) in the bytes it returned before its latest ``read1`` chunk,
    the chunk text mode decodes next."""

    def __init__(self, raw: io.RawIOBase) -> None:
        super().__init__(raw)
        self.latest = b""
        self.ends_before = 0  # line ends before ``latest``
        self.cr_before = False  # whether the bytes before ``latest`` end in "\r"

    def read1(self, size: int = -1) -> bytes:
        self.ends_before = self.line_ends(self.latest)
        self.cr_before = self.latest.endswith(b"\r") if self.latest else self.cr_before
        self.latest = super().read1(size)
        return self.latest

    def line_ends(self, data: bytes) -> int:
        """The line ends up to the end of ``data``, which follows the bytes
        before the latest chunk."""
        ends = self.ends_before + data.count(b"\n") - (self.cr_before and data.startswith(b"\n"))
        if b"\r" in data:  # one fast scan spares two counts in files without CR
            ends += data.count(b"\r") - data.count(b"\r\n")
        return ends


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
    # tuple.index jumps between occurrences of the first token in C, and the
    # whole phrase is compared only there. ``stop`` is one past the last
    # start; should it be negative, index searches a prefix whose slices are
    # all shorter than the phrase, so nothing matches.
    stop = len(lowers) - width + 1
    first, start = phrase[0], 0
    spans = []
    while True:
        try:
            start = lowers.index(first, start, stop)
        except ValueError:
            return spans
        if lowers[start : start + width] == phrase:
            spans.append(TokenSpan(start, start + width))
        start += 1
