"""Explicit discourse-relation detection over a closed connective inventory.

A connective occurrence only counts as discourse usage if both of its
argument sides look like they contain a finite clause (sentence-initial
connectives only need the right side). Clause presence is approximated
lexically: a closed list of auxiliaries/irregular verbs, clitic auxiliaries
("it's", "don't"), or a non-initial alphabetic token ending in -ed/-s/-ing.
Coordinators like "and" additionally require a preceding comma-style
boundary when they appear mid-sentence, which keeps phrase-internal
coordination ("produced and published") out of the results.

Detection is one scan over a sentence's lowercased tokens,
``scan_explicit``, a generator: it skips a sentence holding no token that
starts a connective, visits only the positions of such tokens, and builds
spans only for accepted occurrences. ``detect_explicit`` lists it; a
caller after one connective stops drawing at its first annotation.

Sense assignment is the most frequent sense from the per-connective prior
table shipped with the package; it is data, not code, and can be replaced.
"""

from __future__ import annotations

import enum
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

from .text import InputError, Sentence, TokenSpan, read_lines, tokenize


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


_SENSE_BY_NAME = {s.value.lower(): s for s in Sense}


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
    second part for discontinuous connectives.
    """

    connective_id: str
    span: TokenSpan
    sense: Sense
    span2: TokenSpan | None = None


class ConnectiveInventory:
    """Loaded connective inventory with a first-token match index.

    ``by_first_token`` maps a first part's first token to the entries that
    start with it, longest entry first.
    """

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
        self.by_first_token = index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _entry_id(parts: tuple[tuple[str, ...], ...]) -> str:
    return "..".join(" ".join(p) for p in parts)


_SHIPPED_INVENTORY = Path(__file__).parent / "data" / "pdtb_connectives.tsv"


def load_inventory(path: str | Path | None = None) -> ConnectiveInventory:
    """Load a connective inventory TSV; defaults to the shipped PDTB table.

    Format: ``form<TAB>second_part_or_empty<TAB>sense:weight[,sense:weight…]``
    with ``#`` comment lines. Forms are tokenized as sentences are, so that
    ``as a result,`` is four tokens; weights per entry must sum to 1.
    """
    name = str(_SHIPPED_INVENTORY if path is None else path)
    entries: dict[str, ConnectiveEntry] = {}
    for lineno, line in read_lines(name):
        line = line.strip()
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputError(f"{name}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        first, second = (tokenize(field).lower_forms for field in fields[:2])
        if not first:
            raise InputError(f"{name}: line {lineno}: empty connective form")
        parts = (first, second) if second else (first,)
        entry_id = _entry_id(parts)
        if entry_id in entries:
            raise InputError(f"{name}: line {lineno}: duplicate connective form {entry_id!r}")

        senses: dict[Sense, float] = {}
        for item in fields[2].split(","):  # an empty field is one unknown label, ''
            sense_name, _, weight_s = item.partition(":")
            sense = _SENSE_BY_NAME.get(sense_name.strip().lower())
            if sense is None:
                raise InputError(f"{name}: line {lineno}: unknown sense label {sense_name.strip()!r}")
            if sense in senses:
                raise InputError(f"{name}: line {lineno}: duplicate sense {sense.value!r}")
            try:
                weight = float(weight_s)
            except ValueError:
                weight = math.nan
            if not math.isfinite(weight):  # nan passes both checks below
                raise InputError(f"{name}: line {lineno}: bad weight {weight_s!r}")
            if weight <= 0:
                raise InputError(f"{name}: line {lineno}: non-positive weight for {sense_name.strip()!r}")
            senses[sense] = weight
        total = sum(senses.values())
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"{name}: line {lineno}: sense weights sum to {total}, expected 1.0")
        ranked = sorted(senses.items(), key=lambda sw: (-sw[1], list(Sense).index(sw[0])))
        entries[entry_id] = ConnectiveEntry(id=entry_id, parts=parts, senses=tuple(ranked))
    return ConnectiveInventory(list(entries.values()))


# Coordinators whose mid-sentence occurrences are overwhelmingly
# phrase-internal; they only count when a clause boundary precedes them.
_COMMA_GUARDED = frozenset({"and", "but", "or", "nor", "so", "yet", "for", "then", "plus"})
_BOUNDARY_TOKENS = frozenset({",", ";", ":", "—", "–"})

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


def _is_verbish(lower: str, position: int) -> bool:
    if lower in _VERB_LIST:
        return True
    if "'" in lower or "’" in lower:  # no alphabetic token, so no suffix rule
        return lower.endswith(("n't", "n’t")) or _CLITIC_RE.fullmatch(lower) is not None
    return position > 0 and lower.endswith(("ed", "s", "ing")) and lower.isalpha()


def _has_clause(lowers: tuple[str, ...], start: int, end: int) -> bool:
    for i in range(start, end):
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


def scan_explicit(lowers: tuple[str, ...], inventory: ConnectiveInventory) -> Iterator[ExplicitAnnotation]:
    """Yield the discourse-usage connective occurrences among the lowered
    tokens, left to right, longest match first.

    Only positions whose token starts some entry are visited; at each free
    one the longest textually matching entry is the only one considered
    (shorter entries never fire at the same start). Accepted occurrences
    claim their token positions, so annotation spans never overlap. The
    scan stops where its caller stops drawing annotations.
    """
    by_first_token = inventory.by_first_token
    if by_first_token.keys().isdisjoint(lowers):
        return
    n = len(lowers)
    occupied = [False] * n

    for pos in compress(range(n), map(by_first_token.__contains__, lowers)):
        for entry in by_first_token[lowers[pos]]:
            if not _match_at(lowers, entry.parts[0], pos, occupied):
                continue
            start2 = end2 = -1
            if entry.discontinuous:
                second = entry.parts[1]
                for j in range(pos + len(entry.parts[0]), n - len(second) + 1):
                    if _match_at(lowers, second, j, occupied):
                        start2, end2 = j, j + len(second)
                        break
                else:
                    continue  # no free second part: try the next, shorter entry
            break
        else:
            continue  # no entry matches here

        end = pos + len(entry.parts[0])
        if entry.id in _COMMA_GUARDED and pos > 0 and lowers[pos - 1] not in _BOUNDARY_TOKENS:
            continue
        # The right side is read around a second part, never inside it.
        if start2 < 0:
            right_ok = _has_clause(lowers, end, n)
        else:
            right_ok = _has_clause(lowers, end, start2) or _has_clause(lowers, end2, n)
        if not (right_ok and (pos == 0 or _has_clause(lowers, 0, pos))):
            continue

        occupied[pos:end] = [True] * (end - pos)
        span2 = None
        if start2 >= 0:
            occupied[start2:end2] = [True] * (end2 - start2)
            span2 = TokenSpan(start2, end2)
        yield ExplicitAnnotation(
            connective_id=entry.id, span=TokenSpan(pos, end), span2=span2, sense=entry.top_sense
        )


def detect_explicit(sentence: Sentence, inventory: ConnectiveInventory) -> list[ExplicitAnnotation]:
    """Every discourse-usage connective occurrence in the sentence, as
    ``scan_explicit`` yields them from its lowercased tokens."""
    return list(scan_explicit(sentence.lower_forms, inventory))
