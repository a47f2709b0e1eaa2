"""The discovery procedure: classify aligned pairs, substitute, verify.

Each pair is classified by what the detector finds on the two sides, as
one of seven ``ChangeCase`` members (Other splits three ways). Only
pairs where exactly one side carries exactly one explicit connective are
mined: every expansion of the connective found in the non-explicit side is
a match, the connective is substituted into a match's span, and the
match is kept only if re-detection finds the same connective. A kept
match's sense is its connective's prior top sense, the one the detector
assigns. Kept matches aggregate into an AltLexInventory keyed by (text,
sense); inventories merge associatively so corpora can be sharded.
``mine_corpus``, the one entry point, folds pairs one at a time from any
iterable, so a corpus streams through mining.

Each ``mine_corpus`` call expands a connective through each paraphrase
store once, on first use, into one index keyed by the expansions' first
tokens; a non-explicit side is then scanned once for all of them, at the
positions of those tokens only. A substitution splices token tuples, so
only the replacement is split into tokens, never the whole sentence, and
a bounded cache splits each replacement once per capitalization. Verification
splices only the lowercased tokens, builds no ``Sentence``, and re-detects
only as far as the connective's first annotation.

A pair's matches are ranked once, by paraphrase score, span, resource and
target, and walked best first: a match that overlaps a kept one is dropped
without being verified, and any other is verified and, if it passes, kept.
So where verified matches overlap, the best is kept. That ranking is total
except between matches that give identical records, and the CLI's report
sorts the records, so no other order (of stores, expansions or matches)
reaches an output.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

from .corpus import SentencePair
from .discourse import ConnectiveEntry, ConnectiveInventory, ExplicitAnnotation, Sense
from .discourse import detect_explicit, scan_explicit
from .lexres import ParaphraseEntry, ParaphraseStore, Resource, expand
from .text import Sentence, TokenSpan, tokenize
# Not called here: perfbench's tracer binds this name on this module.
from .text import match_phrase  # noqa: F401

# Resource order for deterministic picks: PPDB first.
_RESOURCE_RANK = {resource: rank for rank, resource in enumerate(Resource)}


class CaseKind(enum.Enum):
    NON_EXP_NON_EXP = "NonExp-NonExp"
    EXP_EXP = "Exp-Exp"
    NON_EXP_EXP = "NonExp-Exp"
    EXP_NON_EXP = "Exp-NonExp"
    OTHER = "Other"


class OtherKind(enum.Enum):
    SAME_REL_DIFF_CONN = "SameRel-DiffConn"
    DIFF_REL_DIFF_CONN = "DiffRel-DiffConn"
    MULTIPLE = "Multiple"


class ChangeCase(enum.Enum):
    """The seven outcomes of ``classify_annotations``. A member's ``kind``
    is its ``cases.tsv`` row; ``other_kind`` is set exactly under Other."""

    NON_EXP_NON_EXP = (CaseKind.NON_EXP_NON_EXP, None)
    EXP_EXP = (CaseKind.EXP_EXP, None)
    NON_EXP_EXP = (CaseKind.NON_EXP_EXP, None)
    EXP_NON_EXP = (CaseKind.EXP_NON_EXP, None)
    SAME_REL_DIFF_CONN = (CaseKind.OTHER, OtherKind.SAME_REL_DIFF_CONN)
    DIFF_REL_DIFF_CONN = (CaseKind.OTHER, OtherKind.DIFF_REL_DIFF_CONN)
    MULTIPLE = (CaseKind.OTHER, OtherKind.MULTIPLE)

    def __init__(self, kind: CaseKind, other_kind: OtherKind | None) -> None:
        self.kind = kind
        self.other_kind = other_kind


@dataclass(slots=True)
class AltLexRecord:
    text: tuple[str, ...]
    sense: Sense
    resource: Resource
    token_count: int = 0
    example_pair_ids: list[str] = field(default_factory=list)


@dataclass
class AltLexInventory:
    """Aggregated mining result: records plus case and alignment tallies."""

    records: dict[tuple[tuple[str, ...], Sense], AltLexRecord] = field(default_factory=dict)
    per_case_counts: Counter[ChangeCase] = field(default_factory=Counter)
    per_sense_alignment_counts: Counter[Sense] = field(default_factory=Counter)

    @property
    def total_pairs(self) -> int:
        return self.per_case_counts.total()

    def _add_record(
        self, text: tuple[str, ...], sense: Sense, resource: Resource, count: int, pair_ids: Iterable[str]
    ) -> None:
        """Add ``count`` occurrences and their example ids to the (text,
        sense) record, creating it with its own id list if it is new."""
        record = self.records.get((text, sense))
        if record is None:
            self.records[(text, sense)] = AltLexRecord(text, sense, resource, count, list(pair_ids))
        else:
            record.token_count += count
            record.example_pair_ids.extend(pair_ids)
            # PPDB wins where both resources give the same AltLex.
            record.resource = min(record.resource, resource, key=_RESOURCE_RANK.__getitem__)

    def update(self, other: "AltLexInventory") -> None:
        """Fold ``other`` into this inventory in place, leaving ``other``
        unchanged: its example ids follow the ones already here. Folding a
        sequence of inventories copies each id once, where a ``merge``
        chain copies every id merged before it again."""
        self.per_case_counts.update(other.per_case_counts)
        self.per_sense_alignment_counts.update(other.per_sense_alignment_counts)
        for r in other.records.values():
            self._add_record(r.text, r.sense, r.resource, r.token_count, r.example_pair_ids)

    def merge(self, other: "AltLexInventory") -> "AltLexInventory":
        """Combine two inventories into a new one, leaving both unchanged;
        associative, and commutative on key sets and count sums (example id
        order follows argument order)."""
        out = AltLexInventory()
        out.update(self)
        out.update(other)
        return out


def classify_annotations(
    complex_anns: list[ExplicitAnnotation], simple_anns: list[ExplicitAnnotation]
) -> ChangeCase:
    """Total five-way classification of a pair's detection results.

    A side with more than one annotation always classifies as
    Other:Multiple, before the one-sided cases apply.
    """
    nc, ns = len(complex_anns), len(simple_anns)
    if nc > 1 or ns > 1:
        return ChangeCase.MULTIPLE
    if nc == 0 and ns == 0:
        return ChangeCase.NON_EXP_NON_EXP
    if nc == 0:
        return ChangeCase.NON_EXP_EXP
    if ns == 0:
        return ChangeCase.EXP_NON_EXP
    ca, sa = complex_anns[0], simple_anns[0]
    if ca.connective_id == sa.connective_id and ca.sense == sa.sense:
        return ChangeCase.EXP_EXP
    if ca.sense == sa.sense:
        return ChangeCase.SAME_REL_DIFF_CONN
    return ChangeCase.DIFF_REL_DIFF_CONN


@lru_cache(maxsize=1024)
def _tokenized(words: tuple[str, ...], capitalized: bool) -> tuple[tuple[str, ...], Sentence]:
    """``words``, the first capitalized if ``capitalized``, and ``tokenize``
    of them joined with single spaces. A connective gives at most two keys."""
    if capitalized and words:
        words = (words[0][:1].upper() + words[0][1:], *words[1:])
    return words, tokenize(" ".join(words))


def _replacement(sentence: Sentence, span: TokenSpan, words: tuple[str, ...]) -> tuple[tuple[str, ...], Sentence]:
    """``_tokenized(words, ...)`` for a replacement of the span, capitalized
    if the span starts the sentence with a capitalized token."""
    n = len(sentence)
    if not (0 <= span.start < span.end <= n):
        raise ValueError(f"span [{span.start}, {span.end}) invalid for {n} tokens")
    return _tokenized(words, span.start == 0 and sentence.first_surface[:1].isupper())


def substitute(sentence: Sentence, span: TokenSpan, replacement: tuple[str, ...] | list[str]) -> Sentence:
    """Replace the span's tokens with the replacement token sequence.

    The result equals ``tokenize`` of the token surfaces joined with single
    spaces. No token spans a space, so the kept tokens stay as they are and
    only the replacement is tokenized. If the span started the sentence with a
    capitalized token, the replacement's first token is capitalized too.
    """
    words, inserted = _replacement(sentence, span, tuple(replacement))
    surfaces = sentence.surface_forms
    lowers = sentence.lower_forms
    return Sentence(
        " ".join([*surfaces[: span.start], *words, *surfaces[span.end :]]),
        lowers[: span.start] + inserted.lower_forms + lowers[span.end :],
    )


def verify_candidate(
    sentence: Sentence, span: TokenSpan, connective: ConnectiveEntry, inventory: ConnectiveInventory
) -> bool:
    """Substitute the connective into the match's span and re-detect.

    True iff some resulting annotation carries the connective. Only the
    lowercased tokens are spliced, as ``substitute`` splices them, and the
    scan stops at the connective's first annotation. The detector gives a
    connective its prior top sense, so a kept match always comes back with
    ``connective.top_sense``. Any other outcome discards the match.
    """
    lowers = sentence.lower_forms
    inserted = _replacement(sentence, span, connective.parts[0])[1].lower_forms
    spliced = lowers[: span.start] + inserted + lowers[span.end :]
    return any(ann.connective_id == connective.id for ann in scan_explicit(spliced, inventory))


def _expansion_index(
    connective: ConnectiveEntry, inventory: ConnectiveInventory, stores: list[ParaphraseStore]
) -> dict[str, list[ParaphraseEntry]]:
    """The connective's expansions from all stores, keyed by first token."""
    index: dict[str, list[ParaphraseEntry]] = {}
    for store in stores:
        for entry in expand(connective, store, inventory):
            index.setdefault(entry.target[0], []).append(entry)
    return index


def _matches(
    index: dict[str, list[ParaphraseEntry]], sentence: Sentence
) -> Iterator[tuple[ParaphraseEntry, TokenSpan]]:
    """Every expansion occurrence in the sentence, left to right: the hits,
    each as often, that ``match_phrase`` gives for each entry of the index."""
    lowers = sentence.lower_forms
    for start in compress(range(len(lowers)), map(index.__contains__, lowers)):
        for entry in index[lowers[start]]:
            end = start + len(entry.target)
            if lowers[start:end] == entry.target:
                yield entry, TokenSpan(start, end)


def mine_corpus(
    pairs: Iterable[SentencePair], inventory: ConnectiveInventory, stores: list[ParaphraseStore]
) -> AltLexInventory:
    """Fold case counts and verified matches over a corpus.

    ``pairs`` is iterated once, in order, and may be a generator. No pair is
    kept after its turn, not even while the next one is drawn: the result
    holds only the source ids of verified matches, so a lazy ``pairs``
    is mined in memory that does not grow with its length. A connective's
    expansion index is built on its first use and kept for the call, so
    each (store, connective) pair is expanded once.
    """
    result = AltLexInventory()
    indexes: dict[str, dict[str, list[ParaphraseEntry]]] = {}
    for pair in pairs:
        _fold_pair(result, pair, inventory, stores, indexes)
        del pair  # a lazy ``pairs`` may read a file to make the next one
    return result


def _fold_pair(
    result: AltLexInventory,
    pair: SentencePair,
    inventory: ConnectiveInventory,
    stores: list[ParaphraseStore],
    indexes: dict[str, dict[str, list[ParaphraseEntry]]],
) -> None:
    """Count one pair's case into ``result`` and, for a one-sided pair with
    a single annotation, add the matches it keeps, best first."""
    complex_anns = detect_explicit(pair.complex, inventory)
    simple_anns = detect_explicit(pair.simple, inventory)
    case = classify_annotations(complex_anns, simple_anns)
    result.per_case_counts[case] += 1
    # Only a one-sided single-annotation pair is mined, for the connective
    # of its explicit side.
    if case is ChangeCase.EXP_NON_EXP:
        annotation, nonexp = complex_anns[0], pair.simple
    elif case is ChangeCase.NON_EXP_EXP:
        annotation, nonexp = simple_anns[0], pair.complex
    else:
        return
    result.per_sense_alignment_counts[annotation.sense] += 1
    connective = inventory.by_id[annotation.connective_id]
    index = indexes.get(connective.id)
    if index is None:
        index = indexes[connective.id] = _expansion_index(connective, inventory, stores)
    ranked = sorted(
        _matches(index, nonexp),
        key=lambda m: (-m[0].score, m[1].start, m[1].end, _RESOURCE_RANK[m[0].resource], m[0].target),
    )
    kept: list[TokenSpan] = []
    for paraphrase, span in ranked:
        if not any(span.overlaps(k) for k in kept) and verify_candidate(nonexp, span, connective, inventory):
            kept.append(span)
            result._add_record(
                paraphrase.target, connective.top_sense, paraphrase.resource, 1, (pair.source_id,)
            )
