"""Tokenization and token-span arithmetic shared by every other module.

The tokenizer is deliberately rule-based and dependency-free: words (with
internal hyphens and apostrophes kept intact, so "don't" and
"African-Americans" stay single tokens) and standalone punctuation marks.
All matching downstream is case-insensitive, so a Sentence stores each
token's lowercased form alongside its surface. Character offsets are only
computed on request, through ``Sentence.tokens``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


def tokenize(raw: str) -> Sentence:
    """Split ``raw`` into word and punctuation tokens.

    Punctuation marks become their own tokens; hyphenated words and clitics
    ("don't", "it's") remain single tokens. Empty or whitespace-only input
    yields a sentence with no tokens.
    """
    surfaces = tuple(_TOKEN_RE.findall(raw))
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
    spans = []
    for start in range(len(lowers) - width + 1):
        if lowers[start : start + width] == phrase:
            spans.append(TokenSpan(start, start + width))
    return spans
