"""Paraphrase and synonym resources used to expand connectives.

Both resource kinds load into the same symmetric ParaphraseStore: PPDB flat
files (``|||``-delimited, score taken from the feature column) and plain
``word<TAB>synonym`` lexicons standing in for WordNet. Expanding a
connective returns its stored paraphrases minus anything that is itself an
inventory connective, since a connective-for-connective swap is not an
alternative lexicalization.
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .discourse import ConnectiveEntry, ConnectiveInventory

logger = logging.getLogger(__name__)


class Resource(enum.Enum):
    PPDB = "PPDB"
    SYNONYM_LEXICON = "SynonymLexicon"


class ResourceError(Exception):
    """Raised when a paraphrase resource file cannot be read at all."""


@dataclass(frozen=True, slots=True)
class ParaphraseEntry:
    source: tuple[str, ...]
    target: tuple[str, ...]
    score: float
    resource: Resource


class ParaphraseStore:
    """Symmetric phrase-paraphrase index.

    Tracks how many malformed lines were skipped at load time and simple
    query statistics so the mean number of expansions per queried connective
    can be reported.
    """

    def __init__(self, resource: Resource):
        self.resource = resource
        self.skipped = 0
        self.query_count = 0
        self.result_count = 0
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
        targets = self._by_source.get(source, {})
        entries = [
            ParaphraseEntry(source=source, target=t, score=s, resource=self.resource)
            for t, s in targets.items()
        ]
        entries.sort(key=lambda e: (-e.score, e.target))
        return entries

    @property
    def mean_expansions(self) -> float:
        """Mean number of expansions returned per expand() call so far."""
        if self.query_count == 0:
            return 0.0
        return self.result_count / self.query_count


_PPDB_SEP = " ||| "
_FLOAT_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def _feature_score(features: str, score_key: str) -> float | None:
    for item in features.split():
        key, eq, value = item.partition("=")
        if eq and key == score_key:
            m = _FLOAT_RE.fullmatch(value)
            if m:
                return float(value)
    m = _FLOAT_RE.search(features)
    return float(m.group()) if m else None


def load_ppdb(
    path: str | Path, min_score: float = 0.0, score_key: str = "PPDB2.0Score"
) -> ParaphraseStore:
    """Load a PPDB flat file, keeping entries with score >= min_score.

    Expected fields: ``LHS ||| source ||| target ||| features [||| ...]``.
    The score is the value of ``score_key`` in the feature column, falling
    back to the first number found there. Malformed lines are skipped and
    counted on the returned store.
    """
    store = ParaphraseStore(Resource.PPDB)
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split(_PPDB_SEP)
            if len(fields) < 4:
                store.skipped += 1
                logger.warning("%s:%d: skipping line with %d fields", path, lineno, len(fields))
                continue
            source = tuple(fields[1].lower().split())
            target = tuple(fields[2].lower().split())
            if not source or not target or source == target:
                store.skipped += 1
                logger.warning("%s:%d: skipping empty or identity paraphrase", path, lineno)
                continue
            score = _feature_score(fields[3], score_key)
            if score is None:
                store.skipped += 1
                logger.warning("%s:%d: no score found in feature column", path, lineno)
                continue
            if score >= min_score:
                store.add(source, target, score)
    return store


def load_synonyms(path: str | Path) -> ParaphraseStore:
    """Load a ``word<TAB>synonym`` lexicon; every entry gets score 1.0."""
    store = ParaphraseStore(Resource.SYNONYM_LEXICON)
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                store.skipped += 1
                logger.warning("%s:%d: skipping line with %d fields", path, lineno, len(fields))
                continue
            source = tuple(fields[0].lower().split())
            target = tuple(fields[1].lower().split())
            if not source or not target or source == target:
                store.skipped += 1
                logger.warning("%s:%d: skipping empty or identity synonym pair", path, lineno)
                continue
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
    entries = [e for e in store.lookup(connective.parts[0]) if e.target not in inventory.forms]
    store.query_count += 1
    store.result_count += len(entries)
    return entries
