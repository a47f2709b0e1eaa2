"""The discovery procedure: categorize aligned pairs, substitute, verify.

Each pair is classified by what the detector finds on the two sides. Only
pairs where exactly one side carries exactly one explicit connective are
mined: every expansion of the connective found in the non-explicit side
becomes a candidate, the connective is substituted into the candidate's
span, and the candidate is kept only if re-detection finds the same
connective. A candidate's sense is its connective's prior top sense, the
one the detector assigns. Verified candidates aggregate into an
AltLexInventory keyed by (text, sense); inventories merge associatively so
corpora can be sharded. Pairs are folded one at a time, from any iterable,
so a corpus streams through mining.

Each mining call expands a connective through each paraphrase store once,
on first use, into one index keyed by the expansions' first tokens; a
non-explicit side is then scanned once for all of them. A substitution
splices token tuples, so only the replacement is split into tokens, never
the whole sentence.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

from .corpus import SentencePair
from .discourse import ConnectiveEntry, ConnectiveInventory, ExplicitAnnotation, Sense, detect_explicit
from .lexres import ParaphraseEntry, ParaphraseStore, Resource, expand
from .text import Sentence, TokenSpan, split_tokens
# Not called here: perfbench's tracer binds these names on this module.
from .text import match_phrase, tokenize  # noqa: F401

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


@dataclass(frozen=True, slots=True)
class ChangeCase:
    kind: CaseKind
    other_kind: OtherKind | None = None

    def __post_init__(self) -> None:
        if (self.kind is CaseKind.OTHER) != (self.other_kind is not None):
            raise ValueError("other_kind must be present exactly when kind is OTHER")

    def __str__(self) -> str:
        if self.other_kind is not None:
            return f"{self.kind.value}:{self.other_kind.value}"
        return self.kind.value


# The seven cases ``classify_annotations`` returns, built once.
_NON_EXP_NON_EXP = ChangeCase(CaseKind.NON_EXP_NON_EXP)
_EXP_EXP = ChangeCase(CaseKind.EXP_EXP)
_NON_EXP_EXP = ChangeCase(CaseKind.NON_EXP_EXP)
_EXP_NON_EXP = ChangeCase(CaseKind.EXP_NON_EXP)
_MULTIPLE = ChangeCase(CaseKind.OTHER, OtherKind.MULTIPLE)
_SAME_REL_DIFF_CONN = ChangeCase(CaseKind.OTHER, OtherKind.SAME_REL_DIFF_CONN)
_DIFF_REL_DIFF_CONN = ChangeCase(CaseKind.OTHER, OtherKind.DIFF_REL_DIFF_CONN)


@dataclass(frozen=True, slots=True)
class AltLexCandidate:
    """A paraphrase occurrence in the non-explicit side, awaiting verification."""

    pair: SentencePair
    direction: CaseKind  # NON_EXP_EXP or EXP_NON_EXP
    connective: ConnectiveEntry
    paraphrase: ParaphraseEntry
    span: TokenSpan

    def __post_init__(self) -> None:
        if self.direction not in (CaseKind.EXP_NON_EXP, CaseKind.NON_EXP_EXP):
            raise ValueError(f"direction must be one-sided, got {self.direction}")
        if self.nonexplicit_sentence.lowers(self.span) != self.paraphrase.target:
            raise ValueError("candidate span does not match the paraphrase target")

    @property
    def sense(self) -> Sense:
        return self.connective.top_sense

    @property
    def nonexplicit_sentence(self) -> Sentence:
        if self.direction is CaseKind.EXP_NON_EXP:
            return self.pair.simple
        return self.pair.complex


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
    per_case_counts: dict[ChangeCase, int] = field(default_factory=dict)
    per_sense_alignment_counts: dict[Sense, int] = field(default_factory=dict)

    @property
    def total_pairs(self) -> int:
        return sum(self.per_case_counts.values())

    def _add_case(self, case: ChangeCase) -> None:
        self.per_case_counts[case] = self.per_case_counts.get(case, 0) + 1

    def _add_alignment(self, sense: Sense) -> None:
        self.per_sense_alignment_counts[sense] = self.per_sense_alignment_counts.get(sense, 0) + 1

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
            record.resource = _merge_resource(record.resource, resource)

    def _add_candidate(self, candidate: AltLexCandidate) -> None:
        target, resource = candidate.paraphrase.target, candidate.paraphrase.resource
        self._add_record(target, candidate.sense, resource, 1, (candidate.pair.source_id,))

    def update(self, other: "AltLexInventory") -> None:
        """Fold ``other`` into this inventory in place, leaving ``other``
        unchanged: its example ids follow the ones already here. Folding a
        sequence of inventories copies each id once, where a ``merge``
        chain copies every id merged before it again."""
        for case, count in other.per_case_counts.items():
            self.per_case_counts[case] = self.per_case_counts.get(case, 0) + count
        for sense, count in other.per_sense_alignment_counts.items():
            self.per_sense_alignment_counts[sense] = self.per_sense_alignment_counts.get(sense, 0) + count
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


def _merge_resource(a: Resource, b: Resource) -> Resource:
    # Deterministic, order-independent pick when both resources yield the
    # same AltLex: PPDB wins.
    return a if _RESOURCE_RANK[a] <= _RESOURCE_RANK[b] else b


def classify_annotations(
    complex_anns: list[ExplicitAnnotation], simple_anns: list[ExplicitAnnotation]
) -> ChangeCase:
    """Total five-way classification of a pair's detection results.

    A side with more than one annotation always classifies as
    Other:Multiple, before the one-sided cases apply. The result is one of
    seven shared ChangeCase values, not a new object per pair.
    """
    nc, ns = len(complex_anns), len(simple_anns)
    if nc > 1 or ns > 1:
        return _MULTIPLE
    if nc == 0 and ns == 0:
        return _NON_EXP_NON_EXP
    if nc == 0:
        return _NON_EXP_EXP
    if ns == 0:
        return _EXP_NON_EXP
    ca, sa = complex_anns[0], simple_anns[0]
    if ca.connective_id == sa.connective_id and ca.sense == sa.sense:
        return _EXP_EXP
    if ca.sense == sa.sense:
        return _SAME_REL_DIFF_CONN
    return _DIFF_REL_DIFF_CONN


def _detections(pair: SentencePair, inventory: ConnectiveInventory):
    return detect_explicit(pair.complex, inventory), detect_explicit(pair.simple, inventory)


def categorize(pair: SentencePair, inventory: ConnectiveInventory) -> ChangeCase:
    """Detect both sides and classify the pair."""
    return classify_annotations(*_detections(pair, inventory))


def substitute(sentence: Sentence, span: TokenSpan, replacement: tuple[str, ...] | list[str]) -> Sentence:
    """Replace the span's tokens with the replacement token sequence.

    The result equals ``tokenize`` of the token surfaces joined with single
    spaces. No token spans a space, so the kept tokens stay as they are and
    only the replacement is split. If the span started the sentence with a
    capitalized token, the replacement's first token is capitalized too.
    """
    surfaces = sentence.surface_forms
    if not (0 <= span.start < span.end <= len(surfaces)):
        raise ValueError(f"span [{span.start}, {span.end}) invalid for {len(surfaces)} tokens")
    replacement = list(replacement)
    if replacement and span.start == 0 and surfaces[0][:1].isupper():
        replacement[0] = replacement[0][:1].upper() + replacement[0][1:]
    inserted = split_tokens(" ".join(replacement))
    before, after = surfaces[: span.start], surfaces[span.end :]
    lowers = sentence.lower_forms
    return Sentence(
        " ".join([*before, *replacement, *after]),
        before + inserted + after,
        lowers[: span.start] + tuple(map(str.lower, inserted)) + lowers[span.end :],
    )


def verify_candidate(candidate: AltLexCandidate, inventory: ConnectiveInventory) -> bool:
    """Substitute the connective into the candidate span and re-detect.

    True iff some resulting annotation carries the candidate's connective.
    The detector gives a connective its prior top sense, so the same
    connective always comes back with the candidate's sense. Any other
    outcome discards the candidate.
    """
    substituted = substitute(candidate.nonexplicit_sentence, candidate.span, candidate.connective.parts[0])
    connective_id = candidate.connective.id
    return any(ann.connective_id == connective_id for ann in detect_explicit(substituted, inventory))


# One connective's expansions by first token: (store position, rank in that
# store's ``expand`` result, entry).
_FirstTokenIndex = dict[str, list[tuple[int, int, ParaphraseEntry]]]


class _Expansions:
    """Each connective's expansions from all stores, indexed by first token.

    A connective's index is built on its first use and kept for the life of
    this object, which is one ``mine_corpus`` or ``mine_pair`` call: each
    (store, connective) pair is expanded once.
    """

    def __init__(self, inventory: ConnectiveInventory, stores: list[ParaphraseStore]):
        self._inventory = inventory
        self._stores = stores
        self._by_connective: dict[str, _FirstTokenIndex] = {}

    def _index(self, connective: ConnectiveEntry) -> _FirstTokenIndex:
        index = self._by_connective.get(connective.id)
        if index is None:
            index = self._by_connective[connective.id] = {}
            for store_pos, store in enumerate(self._stores):
                for rank, entry in enumerate(expand(connective, store, self._inventory)):
                    index.setdefault(entry.target[0], []).append((store_pos, rank, entry))
        return index

    def matches(
        self, connective: ConnectiveEntry, sentence: Sentence
    ) -> list[tuple[ParaphraseEntry, TokenSpan]]:
        """Every expansion occurrence in the sentence, in store order, then
        expansion rank, then start: the order of ``match_phrase`` run for
        each entry of each store's ``expand`` result."""
        lowers = sentence.lower_forms
        index = self._index(connective)
        hits = []
        for start, token in enumerate(lowers):
            for store_pos, rank, entry in index.get(token, ()):
                if lowers[start : start + len(entry.target)] == entry.target:
                    hits.append((store_pos, rank, start, entry))
        hits.sort(key=lambda hit: hit[:3])
        return [(entry, TokenSpan(start, start + len(entry.target))) for _, _, start, entry in hits]


def _mine_single(
    pair: SentencePair,
    direction: CaseKind,
    annotation: ExplicitAnnotation,
    inventory: ConnectiveInventory,
    expansions: _Expansions,
) -> list[AltLexCandidate]:
    connective = inventory.by_id[annotation.connective_id]
    nonexp = pair.simple if direction is CaseKind.EXP_NON_EXP else pair.complex
    verified: list[AltLexCandidate] = []
    for paraphrase, span in expansions.matches(connective, nonexp):
        candidate = AltLexCandidate(
            pair=pair,
            direction=direction,
            connective=connective,
            paraphrase=paraphrase,
            span=span,
        )
        if verify_candidate(candidate, inventory):
            verified.append(candidate)
    return _resolve_overlaps(verified)


def _resolve_overlaps(candidates: list[AltLexCandidate]) -> list[AltLexCandidate]:
    """Keep the best candidate per overlapping region: higher paraphrase
    score first, then leftmost span, then resource and target for a total
    deterministic order."""
    ranked = sorted(
        candidates,
        key=lambda c: (
            -c.paraphrase.score,
            c.span.start,
            c.span.end,
            _RESOURCE_RANK[c.paraphrase.resource],
            c.paraphrase.target,
        ),
    )
    kept: list[AltLexCandidate] = []
    for cand in ranked:
        if any(cand.span.overlaps(k.span) for k in kept):
            continue
        kept.append(cand)
    kept.sort(key=lambda c: (c.span.start, c.span.end))
    return kept


def _mine_dispatch(
    pair: SentencePair,
    inventory: ConnectiveInventory,
    expansions: _Expansions,
) -> tuple[ChangeCase, ExplicitAnnotation | None, list[AltLexCandidate]]:
    """Classify the pair and, for a one-sided single-annotation case, mine
    the explicit side's connective: (case, annotation or None, candidates)."""
    complex_anns, simple_anns = _detections(pair, inventory)
    case = classify_annotations(complex_anns, simple_anns)
    if case.kind is CaseKind.EXP_NON_EXP:
        annotation = complex_anns[0]
    elif case.kind is CaseKind.NON_EXP_EXP:
        annotation = simple_anns[0]
    else:
        return case, None, []
    return case, annotation, _mine_single(pair, case.kind, annotation, inventory, expansions)


def mine_pair(
    pair: SentencePair, inventory: ConnectiveInventory, stores: list[ParaphraseStore]
) -> list[AltLexCandidate]:
    """Verified AltLex candidates for one pair (empty unless the pair is a
    one-sided single-annotation case)."""
    return _mine_dispatch(pair, inventory, _Expansions(inventory, stores))[2]


def mine_corpus(
    pairs: Iterable[SentencePair], inventory: ConnectiveInventory, stores: list[ParaphraseStore]
) -> AltLexInventory:
    """Fold categorization counts and verified candidates over a corpus.

    ``pairs`` is iterated once, in order, and may be a generator. No pair is
    kept after its turn: the result holds only the source ids of verified
    candidates, so a lazy ``pairs`` is mined in memory that does not grow
    with its length.
    """
    result = AltLexInventory()
    expansions = _Expansions(inventory, stores)
    for pair in pairs:
        case, annotation, candidates = _mine_dispatch(pair, inventory, expansions)
        result._add_case(case)
        if annotation is not None:
            result._add_alignment(annotation.sense)
        for candidate in candidates:
            result._add_candidate(candidate)
    return result
