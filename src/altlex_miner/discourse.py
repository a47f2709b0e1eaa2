"""Explicit discourse-relation detection over a closed connective inventory.

A connective occurrence only counts as discourse usage if both of its
argument sides look like they contain a finite clause (sentence-initial
connectives only need the right side). Clause presence is approximated
lexically: a closed list of auxiliaries/irregular verbs, clitic auxiliaries
("it's", "don't"), or a non-initial alphabetic token ending in -ed/-s/-ing.
Coordinators like "and" additionally require a preceding comma-style
boundary when they appear mid-sentence, which keeps phrase-internal
coordination ("produced and published") out of the results.

Sense assignment is the most frequent sense from the per-connective prior
table shipped with the package; it is data, not code, and can be replaced.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .text import Sentence, TokenSpan


class Level1(enum.Enum):
    TEMPORAL = "Temporal"
    CONTINGENCY = "Contingency"
    COMPARISON = "Comparison"
    EXPANSION = "Expansion"


class Sense(enum.Enum):
    """Level-2 relation senses, in fixed report order."""

    ASYNCHRONOUS = "Asynchronous"
    SYNCHRONY = "Synchrony"
    CAUSE = "Cause"
    CONDITION = "Condition"
    CONTRAST = "Contrast"
    CONCESSION = "Concession"
    CONJUNCTION = "Conjunction"
    INSTANTIATION = "Instantiation"
    RESTATEMENT = "Restatement"
    ALTERNATIVE = "Alternative"
    EXCEPTION = "Exception"
    LIST = "List"

    @property
    def level1(self) -> Level1:
        return _LEVEL1_OF[self]


_LEVEL1_OF = {
    Sense.ASYNCHRONOUS: Level1.TEMPORAL,
    Sense.SYNCHRONY: Level1.TEMPORAL,
    Sense.CAUSE: Level1.CONTINGENCY,
    Sense.CONDITION: Level1.CONTINGENCY,
    Sense.CONTRAST: Level1.COMPARISON,
    Sense.CONCESSION: Level1.COMPARISON,
    Sense.CONJUNCTION: Level1.EXPANSION,
    Sense.INSTANTIATION: Level1.EXPANSION,
    Sense.RESTATEMENT: Level1.EXPANSION,
    Sense.ALTERNATIVE: Level1.EXPANSION,
    Sense.EXCEPTION: Level1.EXPANSION,
    Sense.LIST: Level1.EXPANSION,
}

_SENSE_BY_NAME = {s.value.lower(): s for s in Sense}


class InventoryError(Exception):
    """Raised for malformed or inconsistent connective inventory files."""


@dataclass(frozen=True, slots=True)
class ConnectiveEntry:
    """One connective: one or two lowercased token sequences plus sense priors."""

    id: str
    parts: tuple[tuple[str, ...], ...]
    senses: tuple[tuple[Sense, float], ...]

    @property
    def top_sense(self) -> Sense:
        return self.senses[0][0]

    @property
    def discontinuous(self) -> bool:
        return len(self.parts) == 2

    @property
    def total_tokens(self) -> int:
        return sum(len(p) for p in self.parts)


@dataclass(frozen=True, slots=True)
class ExplicitAnnotation:
    """A detected discourse connective occurrence with its assigned sense.

    ``span`` covers the (first part of the) connective; ``span2`` is the
    second part for discontinuous connectives. ``arg_before``/``arg_after``
    are the token ranges before the first part and after the last part,
    trimmed of commas adjacent to the connective; either may be None when
    empty. Argument extents are informational, not PDTB-gold spans.
    """

    connective_id: str
    span: TokenSpan
    sense: Sense
    span2: TokenSpan | None = None
    arg_before: TokenSpan | None = None
    arg_after: TokenSpan | None = None


class ConnectiveInventory:
    """Loaded connective inventory with a first-token match index."""

    def __init__(self, entries: list[ConnectiveEntry]):
        self.entries = list(entries)
        self.by_id = {e.id: e for e in self.entries}
        # All part token-sequences, used to exclude paraphrase targets that
        # are themselves connectives.
        self.forms: frozenset[tuple[str, ...]] = frozenset(
            part for e in self.entries for part in e.parts
        )
        index: dict[str, list[ConnectiveEntry]] = {}
        for e in self.entries:
            index.setdefault(e.parts[0][0], []).append(e)
        for bucket in index.values():
            bucket.sort(key=lambda e: (-e.total_tokens, -len(e.parts[0]), e.id))
        self._index = index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def candidates_at(self, first_token: str) -> list[ConnectiveEntry]:
        return self._index.get(first_token, [])


def _entry_id(parts: tuple[tuple[str, ...], ...]) -> str:
    return "..".join(" ".join(p) for p in parts)


def load_inventory(path: str | Path | None = None) -> ConnectiveInventory:
    """Load a connective inventory TSV; defaults to the shipped PDTB table.

    Format: ``form<TAB>second_part_or_empty<TAB>sense:weight[,sense:weight…]``
    with ``#`` comment lines. Weights per entry must sum to 1.
    """
    if path is None:
        ref = resources.files("altlex_miner").joinpath("data/pdtb_connectives.tsv")
        text = ref.read_text(encoding="utf-8")
        name = "pdtb_connectives.tsv"
    else:
        text = Path(path).read_text(encoding="utf-8-sig")
        name = str(path)

    entries: list[ConnectiveEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InventoryError(f"{name}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        first = tuple(fields[0].lower().split())
        second = tuple(fields[1].lower().split())
        if not first:
            raise InventoryError(f"{name}:{lineno}: empty connective form")
        parts = (first, second) if second else (first,)
        entry_id = _entry_id(parts)
        if entry_id in seen:
            raise InventoryError(f"{name}:{lineno}: duplicate connective form {entry_id!r}")
        seen.add(entry_id)

        senses: list[tuple[Sense, float]] = []
        for item in fields[2].split(","):
            sense_name, _, weight_s = item.partition(":")
            sense = _SENSE_BY_NAME.get(sense_name.strip().lower())
            if sense is None:
                raise InventoryError(f"{name}:{lineno}: unknown sense label {sense_name.strip()!r}")
            try:
                weight = float(weight_s)
            except ValueError:
                raise InventoryError(f"{name}:{lineno}: bad weight {weight_s!r}") from None
            if weight <= 0:
                raise InventoryError(f"{name}:{lineno}: non-positive weight for {sense_name.strip()!r}")
            senses.append((sense, weight))
        if not senses:
            raise InventoryError(f"{name}:{lineno}: no senses listed")
        total = sum(w for _, w in senses)
        if abs(total - 1.0) > 1e-9:
            raise InventoryError(f"{name}:{lineno}: sense weights sum to {total}, expected 1.0")
        senses.sort(key=lambda sw: (-sw[1], list(Sense).index(sw[0])))
        entries.append(ConnectiveEntry(id=entry_id, parts=parts, senses=tuple(senses)))
    return ConnectiveInventory(entries)


# Coordinators whose mid-sentence occurrences are overwhelmingly
# phrase-internal; they only count when a clause boundary precedes them.
_COMMA_GUARDED = frozenset({"and", "but", "or", "nor", "so", "yet", "for", "then", "plus"})
_BOUNDARY_TOKENS = frozenset({",", ";", ":", "—", "–", "--"})

# Auxiliaries plus frequent irregular pasts that the -ed/-s/-ing suffix
# heuristic cannot catch.
_VERB_LIST = frozenset(
    """
    am is are was were be been being have has had do does did
    will would shall should can could may might must ought
    went gone made said got took gave came knew found left told kept
    began brought held stood saw met ran sat won lost felt put set let
    read paid heard wrote broke spoke chose drove ate fell grew threw
    flew drew wore sold built sent spent meant bought caught taught
    fought sought led fed rose became
    """.split()
)

_CLITIC_RE = re.compile(r"\w+['’](s|re|ve|ll|d|m)$")
_SUFFIX_RE = re.compile(r".*(ed|s|ing)$")


def _is_verbish(lower: str, position: int) -> bool:
    if lower in _VERB_LIST:
        return True
    if lower.endswith("n't") or lower.endswith("n’t"):
        return True
    if _CLITIC_RE.fullmatch(lower):
        return True
    if position > 0 and lower.isalpha() and _SUFFIX_RE.fullmatch(lower):
        return True
    return False


def _has_clause(lowers: tuple[str, ...], start: int, end: int, skip: TokenSpan | None = None) -> bool:
    for i in range(start, end):
        if skip is not None and skip.start <= i < skip.end:
            continue
        if _is_verbish(lowers[i], i):
            return True
    return False


def _match_at(lowers: tuple[str, ...], part: tuple[str, ...], pos: int, occupied: list[bool]) -> bool:
    if pos + len(part) > len(lowers):
        return False
    for offset, word in enumerate(part):
        i = pos + offset
        if occupied[i] or lowers[i] != word:
            return False
    return True


def _trim_before(lowers: tuple[str, ...], end: int) -> TokenSpan | None:
    while end > 0 and lowers[end - 1] in _BOUNDARY_TOKENS:
        end -= 1
    return TokenSpan(0, end) if end > 0 else None


def _trim_after(lowers: tuple[str, ...], start: int) -> TokenSpan | None:
    n = len(lowers)
    while start < n and lowers[start] in _BOUNDARY_TOKENS:
        start += 1
    return TokenSpan(start, n) if start < n else None


def detect_explicit(sentence: Sentence, inventory: ConnectiveInventory) -> list[ExplicitAnnotation]:
    """Detect discourse-usage connective occurrences, longest match first.

    Scans left to right; at each free position the longest textually
    matching entry is the only one considered (shorter entries never fire at
    the same start). Accepted occurrences claim their token positions, so
    annotation spans never overlap.
    """
    lowers = sentence.lower_forms
    n = len(lowers)
    if n == 0:
        return []
    occupied = [False] * n
    annotations: list[ExplicitAnnotation] = []

    for pos in range(n):
        if occupied[pos]:
            continue
        entry = None
        span2 = None
        for cand in inventory.candidates_at(lowers[pos]):
            if not _match_at(lowers, cand.parts[0], pos, occupied):
                continue
            if cand.discontinuous:
                found = None
                j = pos + len(cand.parts[0])
                while j + len(cand.parts[1]) <= n:
                    if _match_at(lowers, cand.parts[1], j, occupied):
                        found = TokenSpan(j, j + len(cand.parts[1]))
                        break
                    j += 1
                if found is None:
                    continue
                span2 = found
            entry = cand
            break
        if entry is None:
            continue

        span = TokenSpan(pos, pos + len(entry.parts[0]))

        if entry.id in _COMMA_GUARDED and pos > 0:
            if lowers[pos - 1] not in _BOUNDARY_TOKENS:
                continue
        right_ok = _has_clause(lowers, span.end, n, skip=span2)
        left_ok = pos == 0 or _has_clause(lowers, 0, pos)
        if not (right_ok and left_ok):
            continue

        last_end = span2.end if span2 is not None else span.end
        annotations.append(
            ExplicitAnnotation(
                connective_id=entry.id,
                span=span,
                span2=span2,
                sense=entry.top_sense,
                arg_before=_trim_before(lowers, pos),
                arg_after=_trim_after(lowers, last_end),
            )
        )
        for i in range(span.start, span.end):
            occupied[i] = True
        if span2 is not None:
            for i in range(span2.start, span2.end):
                occupied[i] = True

    return annotations


def is_nonexplicit(sentence: Sentence, inventory: ConnectiveInventory) -> bool:
    """True iff no explicit connective is detected in the sentence."""
    return not detect_explicit(sentence, inventory)
