import copy
import random

import pytest

from altlex_miner.corpus import SentencePair
from altlex_miner.discourse import ExplicitAnnotation, Sense, detect_explicit
from altlex_miner.lexres import Resource
from altlex_miner.mining import (
    CaseKind,
    ChangeCase,
    OtherKind,
    classify_annotations,
    mine_corpus,
    substitute,
    verify_candidate,
)
from altlex_miner.text import TokenSpan, match_phrase, tokenize

from conftest import LANDMARK_SIMPLE_SUBSTITUTED, COMICS_COMPLEX_SUBSTITUTED


def _ann(conn_id, sense, start=0):
    return ExplicitAnnotation(connective_id=conn_id, span=TokenSpan(start, start + 1), sense=sense)


def _categorize(pair, inventory):
    return classify_annotations(detect_explicit(pair.complex, inventory), detect_explicit(pair.simple, inventory))


def _mine_one(pair, inventory, stores):
    """``mine_corpus`` over one pair: its records as (text, sense, resource,
    token count), and the case kinds it was counted under."""
    inv = mine_corpus([pair], inventory, stores)
    records = [(r.text, r.sense, r.resource, r.token_count) for r in inv.records.values()]
    return records, [case.kind for case in inv.per_case_counts]


def test_categorize_broadcast_exp_nonexp(broadcast_pair, inventory):
    assert _categorize(broadcast_pair, inventory) == ChangeCase.EXP_NON_EXP


def test_categorize_woodcuts_nonexp_exp(woodcuts_pair, inventory):
    assert _categorize(woodcuts_pair, inventory) == ChangeCase.NON_EXP_EXP


def test_categorize_identical_explicit_sides(inventory):
    raw = "The team was ready, but the plan was rejected."
    pair = SentencePair(complex=tokenize(raw), simple=tokenize(raw), source_id="self")
    assert _categorize(pair, inventory) == ChangeCase.EXP_EXP


def test_classify_same_sense_different_connective():
    case = classify_annotations([_ann("but", Sense.CONTRAST)], [_ann("however", Sense.CONTRAST)])
    assert case == ChangeCase.SAME_REL_DIFF_CONN


def test_classify_different_sense_different_connective():
    case = classify_annotations([_ann("but", Sense.CONTRAST)], [_ann("because", Sense.CAUSE)])
    assert case == ChangeCase.DIFF_REL_DIFF_CONN


def test_classify_multiple_beats_one_sided():
    # Two annotations on one side file under Other:Multiple even when the
    # other side is empty.
    anns = [_ann("but", Sense.CONTRAST, 0), _ann("so", Sense.CAUSE, 4)]
    assert classify_annotations(anns, []) == ChangeCase.MULTIPLE
    assert classify_annotations([], anns) == ChangeCase.MULTIPLE


def test_change_case_members_are_the_valid_pairs():
    # Each non-Other kind once without an Other kind, each Other kind once
    # under OTHER, and nothing else.
    pairs = [(case.kind, case.other_kind) for case in ChangeCase]
    valid = [(kind, None) for kind in CaseKind if kind is not CaseKind.OTHER]
    valid += [(CaseKind.OTHER, other) for other in OtherKind]
    assert len(pairs) == len(valid)
    assert set(pairs) == set(valid)


def test_substitute_comics(comics_pair):
    span = match_phrase(comics_pair.complex, ("despite",))[0]
    result = substitute(comics_pair.complex, span, ("though",))
    assert result.surface_forms == tokenize(COMICS_COMPLEX_SUBSTITUTED).surface_forms


def test_substitute_landmark(landmark_pair):
    span = match_phrase(landmark_pair.simple, ("since",))[0]
    result = substitute(landmark_pair.simple, span, ("because",))
    assert result.surface_forms == tokenize(LANDMARK_SIMPLE_SUBSTITUTED).surface_forms


def test_substitute_identity(comics_pair):
    span = match_phrase(comics_pair.complex, ("despite",))[0]
    result = substitute(comics_pair.complex, span, ("despite",))
    assert result.surface_forms == comics_pair.complex.surface_forms


def test_substitute_capitalizes_sentence_initial():
    s = tokenize("Despite the rain, we went on.")
    result = substitute(s, TokenSpan(0, 1), ("though",))
    assert result.surface_forms[0] == "Though"


def test_substitute_invalid_span():
    with pytest.raises(ValueError):
        substitute(tokenize("a b"), TokenSpan(1, 5), ("x",))


def test_verify_comics_true(comics_pair, inventory):
    span = match_phrase(comics_pair.complex, ("despite",))[0]
    assert verify_candidate(comics_pair.complex, span, inventory.by_id["though"], inventory) is True


def test_verify_landmark_false(landmark_pair, inventory):
    span = match_phrase(landmark_pair.simple, ("since",))[0]
    assert verify_candidate(landmark_pair.simple, span, inventory.by_id["because"], inventory) is False


def test_verify_filter_rejection_path(inventory):
    # Substituting into a span whose right side has no finite clause fails.
    sentence = tokenize("She left early owing to the office closure.")
    span = match_phrase(sentence, ("owing", "to", "the", "office", "closure"))[0]
    assert verify_candidate(sentence, span, inventory.by_id["because"], inventory) is False


def test_mine_pair_comics(comics_pair, inventory, fixture_stores):
    records, cases = _mine_one(comics_pair, inventory, fixture_stores)
    assert records == [(("despite",), Sense.CONTRAST, Resource.PPDB, 1)]
    assert cases == [CaseKind.NON_EXP_EXP]


def test_mine_pair_drones(drones_pair, inventory, fixture_stores):
    records, cases = _mine_one(drones_pair, inventory, fixture_stores)
    assert records == [(("used", "to"), Sense.ASYNCHRONOUS, Resource.PPDB, 1)]
    assert cases == [CaseKind.EXP_NON_EXP]


def test_mine_pair_broadcast_no_candidates(broadcast_pair, inventory, fixture_stores):
    assert _mine_one(broadcast_pair, inventory, fixture_stores)[0] == []


def test_mine_pair_nonexp_nonexp_skipped(inventory, fixture_stores):
    pair = SentencePair(
        complex=tokenize("The sky was clear."), simple=tokenize("The sky was blue."), source_id="x"
    )
    assert _mine_one(pair, inventory, fixture_stores) == ([], [CaseKind.NON_EXP_NON_EXP])


def test_mine_corpus_worked_examples(worked_example_pairs, inventory, fixture_stores):
    inv = mine_corpus(worked_example_pairs, inventory, fixture_stores)
    counts = {case.kind: n for case, n in inv.per_case_counts.items()}
    assert counts == {CaseKind.NON_EXP_EXP: 2, CaseKind.EXP_NON_EXP: 2}
    assert set(inv.records) == {(("despite",), Sense.CONTRAST)}
    record = inv.records[(("despite",), Sense.CONTRAST)]
    assert record.token_count == 1
    assert record.resource is Resource.PPDB
    assert record.example_pair_ids == ["comics"]
    assert inv.per_sense_alignment_counts == {
        Sense.CONTRAST: 2,
        Sense.SYNCHRONY: 1,
        Sense.CAUSE: 1,
    }


def test_mine_corpus_empty():
    inv = mine_corpus([], None, [])
    assert inv.total_pairs == 0
    assert inv.records == {}


def test_mine_corpus_duplicated_pairs_double_counts(worked_example_pairs, inventory, fixture_stores):
    once = mine_corpus(worked_example_pairs, inventory, fixture_stores)
    twice = mine_corpus(worked_example_pairs * 2, inventory, fixture_stores)
    assert set(twice.records) == set(once.records)
    for key, record in twice.records.items():
        assert record.token_count == 2 * once.records[key].token_count
    assert twice.total_pairs == 2 * once.total_pairs


def test_accepted_altlex_not_in_inventory(worked_example_pairs, drones_pair, inventory, fixture_stores):
    inv = mine_corpus(worked_example_pairs + [drones_pair], inventory, fixture_stores)
    for text, _ in inv.records:
        assert text not in inventory.forms


def test_merge_counts_and_records(worked_example_pairs, drones_pair, inventory, fixture_stores):
    a = mine_corpus(worked_example_pairs, inventory, fixture_stores)
    b = mine_corpus([drones_pair], inventory, fixture_stores)
    a_before, b_before = copy.deepcopy(a), copy.deepcopy(b)
    merged = a.merge(b)
    assert (a, b) == (a_before, b_before)
    assert merged.total_pairs == a.total_pairs + b.total_pairs
    assert set(merged.records) == set(a.records) | set(b.records)
    direct = mine_corpus(worked_example_pairs + [drones_pair], inventory, fixture_stores)
    assert {k: r.token_count for k, r in merged.records.items()} == {
        k: r.token_count for k, r in direct.records.items()
    }
    assert merged.per_case_counts == direct.per_case_counts
    # The merged records own their id lists: growing them leaves the inputs.
    assert merged.records
    for record in merged.records.values():
        record.token_count += 1
        record.example_pair_ids.append("extra")
    assert (a, b) == (a_before, b_before)


def test_overlap_resolution_prefers_higher_score(inventory):
    # Two verified candidates covering overlapping spans: the better-scored
    # paraphrase survives.
    from altlex_miner.lexres import ParaphraseStore

    pair = SentencePair(
        complex=tokenize("The office stayed open despite the storm warnings issued downtown."),
        simple=tokenize("The office stayed open, though the storm warnings were issued downtown."),
        source_id="ov",
    )
    store = ParaphraseStore(Resource.PPDB)
    store.add(("though",), ("despite",), 3.0)
    store.add(("though",), ("despite", "the"), 1.0)
    records, _ = _mine_one(pair, inventory, [store])
    assert [text for text, *_ in records] == [("despite",)]


def test_self_substitution_soundness_samples(inventory):
    rng = random.Random(2)
    entries = rng.sample(list(inventory.entries), 12)
    for entry in entries:
        if entry.discontinuous:
            raw = (
                f"{' '.join(entry.parts[0]).capitalize()} the team was ready "
                f"{' '.join(entry.parts[1])} the plan was approved."
            )
        else:
            raw = f"The team was ready, {' '.join(entry.parts[0])} the plan was approved."
        sentence = tokenize(raw)
        anns = detect_explicit(sentence, inventory)
        assert [a.connective_id for a in anns] == [entry.id], entry.id
        before = (anns[0].connective_id, anns[0].sense)
        substituted = substitute(sentence, anns[0].span, entry.parts[0])
        after = detect_explicit(substituted, inventory)
        assert [(a.connective_id, a.sense) for a in after] == [before]
