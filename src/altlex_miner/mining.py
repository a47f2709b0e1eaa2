"""The discovery procedure: categorize aligned pairs, substitute, verify.

Each pair is classified by what the detector finds on the two sides. Only
pairs where exactly one side carries exactly one explicit connective are
mined: the connective is expanded through the paraphrase stores, every
expansion found in the non-explicit side becomes a candidate, the
connective is substituted into the candidate's span, and the candidate is
kept only if re-detection finds the same connective with the same sense.
Verified candidates aggregate into an AltLexInventory keyed by
(text, sense); inventories merge associatively so corpora can be sharded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .corpus import SentencePair
from .discourse import ConnectiveEntry, ConnectiveInventory, ExplicitAnnotation, Sense, detect_explicit
from .lexres import ParaphraseEntry, ParaphraseStore, Resource, expand
from .text import Sentence, TokenSpan, match_phrase, tokenize


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


@dataclass(frozen=True, slots=True)
class AltLexCandidate:
    """A paraphrase occurrence in the non-explicit side, awaiting verification."""

    pair: SentencePair
    direction: CaseKind  # NON_EXP_EXP or EXP_NON_EXP
    connective: ConnectiveEntry
    sense: Sense
    paraphrase: ParaphraseEntry
    span: TokenSpan

    def __post_init__(self) -> None:
        if self.direction not in (CaseKind.EXP_NON_EXP, CaseKind.NON_EXP_EXP):
            raise ValueError(f"direction must be one-sided, got {self.direction}")
        if self.nonexplicit_sentence.lowers(self.span) != self.paraphrase.target:
            raise ValueError("candidate span does not match the paraphrase target")

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

    def _add_candidate(self, candidate: AltLexCandidate) -> None:
        key = (candidate.paraphrase.target, candidate.sense)
        record = self.records.get(key)
        if record is None:
            record = AltLexRecord(
                text=candidate.paraphrase.target,
                sense=candidate.sense,
                resource=candidate.paraphrase.resource,
            )
            self.records[key] = record
        record.token_count += 1
        record.example_pair_ids.append(candidate.pair.source_id)
        record.resource = _merge_resource(record.resource, candidate.paraphrase.resource)

    def merge(self, other: "AltLexInventory") -> "AltLexInventory":
        """Combine two inventories; associative, and commutative on key sets
        and count sums (example id order follows argument order)."""
        out = AltLexInventory()
        for inv in (self, other):
            for case, count in inv.per_case_counts.items():
                out.per_case_counts[case] = out.per_case_counts.get(case, 0) + count
            for sense, count in inv.per_sense_alignment_counts.items():
                out.per_sense_alignment_counts[sense] = (
                    out.per_sense_alignment_counts.get(sense, 0) + count
                )
            for key, record in inv.records.items():
                existing = out.records.get(key)
                if existing is None:
                    out.records[key] = AltLexRecord(
                        text=record.text,
                        sense=record.sense,
                        resource=record.resource,
                        token_count=record.token_count,
                        example_pair_ids=list(record.example_pair_ids),
                    )
                else:
                    existing.token_count += record.token_count
                    existing.example_pair_ids.extend(record.example_pair_ids)
                    existing.resource = _merge_resource(existing.resource, record.resource)
        return out


def _merge_resource(a: Resource, b: Resource) -> Resource:
    # Deterministic, order-independent pick when both resources yield the
    # same AltLex: PPDB wins.
    order = list(Resource)
    return a if order.index(a) <= order.index(b) else b


def classify_annotations(
    complex_anns: list[ExplicitAnnotation], simple_anns: list[ExplicitAnnotation]
) -> ChangeCase:
    """Total five-way classification of a pair's detection results.

    A side with more than one annotation always classifies as
    Other:Multiple, before the one-sided cases apply.
    """
    nc, ns = len(complex_anns), len(simple_anns)
    if nc > 1 or ns > 1:
        return ChangeCase(CaseKind.OTHER, OtherKind.MULTIPLE)
    if nc == 0 and ns == 0:
        return ChangeCase(CaseKind.NON_EXP_NON_EXP)
    if nc == 0:
        return ChangeCase(CaseKind.NON_EXP_EXP)
    if ns == 0:
        return ChangeCase(CaseKind.EXP_NON_EXP)
    ca, sa = complex_anns[0], simple_anns[0]
    if ca.connective_id == sa.connective_id and ca.sense == sa.sense:
        return ChangeCase(CaseKind.EXP_EXP)
    if ca.sense == sa.sense:
        return ChangeCase(CaseKind.OTHER, OtherKind.SAME_REL_DIFF_CONN)
    return ChangeCase(CaseKind.OTHER, OtherKind.DIFF_REL_DIFF_CONN)


def _detections(pair: SentencePair, inventory: ConnectiveInventory):
    return detect_explicit(pair.complex, inventory), detect_explicit(pair.simple, inventory)


def categorize(pair: SentencePair, inventory: ConnectiveInventory) -> ChangeCase:
    """Detect both sides and classify the pair."""
    return classify_annotations(*_detections(pair, inventory))


def substitute(sentence: Sentence, span: TokenSpan, replacement: tuple[str, ...] | list[str]) -> Sentence:
    """Replace the span's tokens with the replacement token sequence.

    The rebuilt sentence joins token surfaces with single spaces and is
    re-tokenized, so offsets are consistent. If the span started the
    sentence with a capitalized token, the replacement's first token is
    capitalized too.
    """
    surfaces = sentence.surface_forms
    if not (0 <= span.start < span.end <= len(surfaces)):
        raise ValueError(f"span [{span.start}, {span.end}) invalid for {len(surfaces)} tokens")
    replacement = list(replacement)
    if replacement and span.start == 0 and surfaces[0][:1].isupper():
        replacement[0] = replacement[0][:1].upper() + replacement[0][1:]
    return tokenize(" ".join([*surfaces[: span.start], *replacement, *surfaces[span.end :]]))


def verify_candidate(
    candidate: AltLexCandidate, inventory: ConnectiveInventory, sense_level: int = 2
) -> bool:
    """Substitute the connective into the candidate span and re-detect.

    True iff some resulting annotation carries the candidate's connective
    and its sense (level-2 equality by default, level-1 with
    ``sense_level=1``). Any other outcome discards the candidate.
    """
    substituted = substitute(candidate.nonexplicit_sentence, candidate.span, candidate.connective.parts[0])
    for ann in detect_explicit(substituted, inventory):
        if ann.connective_id != candidate.connective.id:
            continue
        if sense_level == 1:
            if ann.sense.level1 == candidate.sense.level1:
                return True
        elif ann.sense == candidate.sense:
            return True
    return False


def _mine_single(
    pair: SentencePair,
    direction: CaseKind,
    annotation: ExplicitAnnotation,
    inventory: ConnectiveInventory,
    stores: list[ParaphraseStore],
    sense_level: int,
) -> list[AltLexCandidate]:
    connective = inventory.by_id[annotation.connective_id]
    nonexp = pair.simple if direction is CaseKind.EXP_NON_EXP else pair.complex
    verified: list[AltLexCandidate] = []
    for store in stores:
        for paraphrase in expand(connective, store, inventory):
            for span in match_phrase(nonexp, paraphrase.target):
                candidate = AltLexCandidate(
                    pair=pair,
                    direction=direction,
                    connective=connective,
                    sense=annotation.sense,
                    paraphrase=paraphrase,
                    span=span,
                )
                if verify_candidate(candidate, inventory, sense_level=sense_level):
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
            list(Resource).index(c.paraphrase.resource),
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
    stores: list[ParaphraseStore],
    sense_level: int,
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
    return case, annotation, _mine_single(pair, case.kind, annotation, inventory, stores, sense_level)


def mine_pair(
    pair: SentencePair,
    inventory: ConnectiveInventory,
    stores: list[ParaphraseStore],
    sense_level: int = 2,
) -> list[AltLexCandidate]:
    """Verified AltLex candidates for one pair (empty unless the pair is a
    one-sided single-annotation case)."""
    return _mine_dispatch(pair, inventory, stores, sense_level)[2]


def mine_corpus(
    pairs: list[SentencePair],
    inventory: ConnectiveInventory,
    stores: list[ParaphraseStore],
    sense_level: int = 2,
) -> AltLexInventory:
    """Fold categorization counts and verified candidates over a corpus."""
    result = AltLexInventory()
    for pair in pairs:
        case, annotation, candidates = _mine_dispatch(pair, inventory, stores, sense_level)
        result._add_case(case)
        if annotation is not None:
            result._add_alignment(annotation.sense)
        for candidate in candidates:
            result._add_candidate(candidate)
    return result
