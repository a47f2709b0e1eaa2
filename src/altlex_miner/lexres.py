"""Paraphrase and synonym resources used to expand connectives.

Both resource kinds load into the same symmetric ParaphraseStore: PPDB flat
files (``|||``-delimited, one score rule over the feature column) and plain
``word<TAB>synonym`` lexicons standing in for WordNet. Each phrase is split
by ``text.tokenize``, as a sentence is, into lowercased tokens. Expanding a
connective returns its stored paraphrases minus any inventory connective,
since a connective-for-connective swap is not an alternative lexicalization.

Mining only ever looks up a connective's first part, so both loaders take a
``keep`` set of phrases and store only the lines whose source or target is
in it: resident memory then scales with the inventory, not with the file.
Both stream the file through ``text``, a block of whole lines at a time,
so a multi-GB PPDB file is never held whole.
"""

from __future__ import annotations

import enum
import re
import sys
from collections.abc import Collection
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .discourse import ConnectiveEntry, ConnectiveInventory
from . import text


class Resource(enum.Enum):
    PPDB = "PPDB"
    SYNONYM_LEXICON = "SynonymLexicon"


@dataclass(frozen=True, slots=True)
class ParaphraseEntry:
    target: tuple[str, ...]
    score: float
    resource: Resource


class ParaphraseStore:
    """Symmetric phrase-paraphrase index.

    Tracks how many malformed lines were skipped at load time.
    """

    def __init__(self, resource: Resource):
        self.resource = resource
        self.skipped = 0
        self._by_source: dict[tuple[str, ...], dict[tuple[str, ...], float]] = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_source.values())

    def add(self, source: tuple[str, ...], target: tuple[str, ...], score: float) -> None:
        """Insert both directions, keeping the best score for duplicates."""
        for src, tgt in ((source, target), (target, source)):
            targets = self._by_source.setdefault(src, {})
            if score > targets.get(tgt, float("-inf")):
                targets[tgt] = score

    def lookup(self, source: tuple[str, ...]) -> list[ParaphraseEntry]:
        """The source's paraphrases, best score first then by target."""
        entries = [
            ParaphraseEntry(target=t, score=s, resource=self.resource)
            for t, s in self._by_source.get(source, {}).items()
        ]
        entries.sort(key=lambda e: (-e.score, e.target))
        return entries


_PPDB_SEP = " ||| "
_FLOAT_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")

# A whole "PPDB2.0Score=NUMBER" item. It starts with its literal, not with the
# lookbehind, so that re scans for that prefix instead of trying every position.
_SCORE_RE = re.compile(r"PPDB2\.0Score=(?<=(?<!\S)PPDB2\.0Score=)(" + _FLOAT_RE.pattern + r")(?!\S)")
# Searched in " " + features: a number that begins a feature's value or a
# bare item, never digits of a feature name such as "PPDB2.0Score".
_VALUE_NUMBER_RE = re.compile(r"[=\s](" + _FLOAT_RE.pattern + r")(?![^\s=]*=)")
# A token that ``tokenize`` keeps whole and lowercasing leaves as it is.
_PLAIN_TOKEN = r"[0-9_a-z]+"


def _unstorable_lines(keep: Collection[tuple[str, ...]]) -> re.Pattern[str]:
    """A pattern matching each whole line of a block that ``load_ppdb``
    would neither store nor skip: an LHS without "|"; a source and a target
    of single-spaced plain tokens, neither a keep phrase nor the other; a
    first feature ``NAME=`` whose value ``_VALUE_NUMBER_RE`` reads as a score."""
    phrase = rf"{_PLAIN_TOKEN}(?: {_PLAIN_TOKEN})*"
    forms = sorted(" ".join(p) for p in keep if p and all(re.fullmatch(_PLAIN_TOKEN, t) for t in p))
    # Grouped by first character, so re tries only the phrases whose first
    # character matches: one flat alternation doubles the pattern's time.
    groups = ("(?:" + "|".join(map(re.escape, group)) + ")" for _, group in groupby(forms, key=lambda f: f[0]))
    not_kept = rf"(?!(?:{'|'.join(groups)}) \|\|\| )" if forms else ""
    return re.compile(
        rf"^[^|\n]* \|\|\| {not_kept}(?P<source>{phrase}) \|\|\| (?!(?P=source) \|\|\| ){not_kept}{phrase}"
        r" \|\|\| [!-<>-~]+=-?[0-9][!-<>-~]*(?=\s)[^\n]*",
        re.MULTILINE,
    )


def load_ppdb(
    path: str | Path,
    min_score: float = 0.0,
    keep: Collection[tuple[str, ...]] | None = None,
) -> ParaphraseStore:
    """Load a PPDB flat file, keeping entries with score >= min_score.

    Expected fields: ``LHS ||| source ||| target ||| features [||| ...]``.
    One score rule for every line: the first numeric ``PPDB2.0Score`` item
    in the feature column, else the first number there that begins a value
    or a bare item (digits of a name such as ``PPDB2.0Score`` are no score).
    Malformed and score-less lines are skipped, each named on stderr, and
    counted on the returned store; blank lines are neither. With ``keep``, only lines whose source or
    target is in it are stored; every line is still validated and counted.
    """
    store, unstorable = ParaphraseStore(Resource.PPDB), None
    for first, block in text.read_blocks(path):
        # The pattern takes milliseconds to compile: only a file longer than one block repays it.
        if keep is not None and unstorable is None and len(block) > text._BLOCK_CHARS:
            unstorable = _unstorable_lines(keep)
        if unstorable is not None:
            block = unstorable.sub("", block)
        for lineno, line in text.block_lines(first, block):
            fields = line.split(_PPDB_SEP)
            if len(fields) < 4:
                store.skipped += 1
                print(f"{path}: line {lineno}: skipping line with {len(fields)} fields", file=sys.stderr)
                continue
            source = text.tokenize(fields[1]).lower_forms
            target = text.tokenize(fields[2]).lower_forms
            if not source or not target or source == target:
                store.skipped += 1
                print(f"{path}: line {lineno}: skipping empty or identity paraphrase", file=sys.stderr)
                continue
            m = _SCORE_RE.search(fields[3]) or _VALUE_NUMBER_RE.search(" " + fields[3])
            if m is None:
                store.skipped += 1
                print(f"{path}: line {lineno}: no score found in feature column", file=sys.stderr)
                continue
            if keep is None or source in keep or target in keep:
                score = float(m.group(1))
                if score >= min_score:
                    store.add(source, target, score)
    return store


def load_synonyms(
    path: str | Path, keep: Collection[tuple[str, ...]] | None = None
) -> ParaphraseStore:
    """Load a ``word<TAB>synonym`` lexicon; every entry gets score 1.0.

    ``keep`` filters lines as in ``load_ppdb``.
    """
    store = ParaphraseStore(Resource.SYNONYM_LEXICON)
    for lineno, line in text.read_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            store.skipped += 1
            print(f"{path}: line {lineno}: skipping line with {len(fields)} fields", file=sys.stderr)
            continue
        source = text.tokenize(fields[0]).lower_forms
        target = text.tokenize(fields[1]).lower_forms
        if not source or not target or source == target:
            store.skipped += 1
            print(f"{path}: line {lineno}: skipping empty or identity synonym pair", file=sys.stderr)
            continue
        if keep is None or source in keep or target in keep:
            store.add(source, target, 1.0)
    return store


def expand(
    connective: ConnectiveEntry, store: ParaphraseStore, inventory: ConnectiveInventory
) -> list[ParaphraseEntry]:
    """Paraphrases of the connective's first part, best score first.

    Targets equal to any inventory connective form are excluded: those are
    connective replacements, not alternative lexicalizations. Results are
    unique by target, sorted by descending score then target.
    """
    return [e for e in store.lookup(connective.parts[0]) if e.target not in inventory.forms]
