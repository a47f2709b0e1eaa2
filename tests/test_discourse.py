import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altlex_miner import discourse
from altlex_miner.discourse import (
    _BOUNDARY_TOKENS,
    _SHIPPED_INVENTORY,
    Sense,
    _is_verbish,
    detect_explicit,
    load_inventory,
)
from altlex_miner.text import InputError, read_lines, tokenize

from conftest import WOODCUTS_COMPLEX, WOODCUTS_SIMPLE, BROADCAST_COMPLEX, LANDMARK_SIMPLE


def test_default_inventory_has_100_entries(inventory):
    assert len(inventory) == 100


def test_but_top_sense_is_contrast(inventory):
    assert inventory.by_id["but"].top_sense is Sense.CONTRAST


def test_entry_weights_normalized(inventory):
    for entry in inventory:
        assert sum(w for _, w in entry.senses) == pytest.approx(1.0, abs=1e-9)
        weights = [w for _, w in entry.senses]
        assert weights == sorted(weights, reverse=True)


def test_discontinuous_entries_present(inventory):
    assert inventory.by_id["either..or"].parts == (("either",), ("or",))
    assert inventory.by_id["on the one hand..on the other hand"].discontinuous


def test_weight_sum_validation(tmp_path):
    path = tmp_path / "inv.tsv"
    path.write_text("but\t\tContrast:0.5,Concession:0.4\n", encoding="utf-8")
    with pytest.raises(InputError, match="sum"):
        load_inventory(path)


def test_duplicate_form_validation(tmp_path):
    path = tmp_path / "inv.tsv"
    # Forms are compared as tokens, so a space before the comma makes no new form.
    for text in ("but\t\tContrast:1.0\nbut\t\tCause:1.0\n", "as a result,\t\tCause:1.0\nas a result ,\t\tCause:1.0\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="duplicate"):
            load_inventory(path)


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_a_weight_that_is_not_finite_is_bad(tmp_path, weight):
    # nan <= 0 and abs(nan - 1) > 1e-9 are both false, so a nan weight
    # passed both checks and could become the top sense.
    path = tmp_path / "inv.tsv"
    path.write_text(f"# senses\nalthough\t\tContrast:{weight},Concession:1.0\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        load_inventory(path)
    assert str(info.value) == f"{path}: line 2: bad weight {weight!r}"


def test_a_form_ending_in_a_comma_is_detected(tmp_path):
    # The form is split as a sentence is: "result" and "," are two tokens.
    path = tmp_path / "inv.tsv"
    path.write_text("as a result,\t\tCause:1.0\n", encoding="utf-8")
    inv = load_inventory(path)
    anns = detect_explicit(tokenize("As a result, we left the house."), inv)
    assert [(a.connective_id, a.span.start, a.span.end) for a in anns] == [("as a result ,", 0, 4)]


def test_every_shipped_form_is_its_own_tokenization():
    # Tokenizing the shipped forms changed none of them.
    lines = [line for _, line in read_lines(_SHIPPED_INVENTORY) if not line.startswith("#")]
    forms = [field for line in lines for field in line.split("\t")[:2]]
    assert len(forms) == 200
    assert [tokenize(form).lower_forms for form in forms] == [tuple(form.lower().split()) for form in forms]


def test_a_sense_named_twice_is_rejected(tmp_path):
    # Counted once, Cause (0.6) would lose the top sense to Contrast (0.4).
    path = tmp_path / "inv.tsv"
    path.write_text("because\t\tContrast:0.4,Cause:0.3,Cause:0.3\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        load_inventory(path)
    assert str(info.value) == f"{path}: line 1: duplicate sense 'Cause'"


def test_unknown_sense_validation(tmp_path):
    path = tmp_path / "inv.tsv"
    path.write_text("but\t\tSarcasm:1.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="unknown sense"):
        load_inventory(path)


def test_woodcuts_simple_detects_but_contrast(inventory):
    anns = detect_explicit(tokenize(WOODCUTS_SIMPLE), inventory)
    assert [(a.connective_id, a.sense) for a in anns] == [("but", Sense.CONTRAST)]


def test_landmark_simple_since_rejected_by_usage_filter(inventory):
    # "since about the early 1800s": no finite clause to the right.
    assert detect_explicit(tokenize(LANDMARK_SIMPLE), inventory) == []


def test_empty_sentence(inventory):
    assert detect_explicit(tokenize(""), inventory) == []


def test_no_scan_starts_without_a_connective_token(inventory, monkeypatch):
    # Most sentences hold no token that starts a connective: detection
    # answers them without a scan.
    sentence = tokenize("The red fox ran far, the rain fell all day.")
    assert inventory.by_first_token.keys().isdisjoint(sentence.lower_forms)

    def failing_scan(*args):
        raise AssertionError("scan_explicit started")

    monkeypatch.setattr(discourse, "scan_explicit", failing_scan)
    assert detect_explicit(sentence, inventory) == []
    with pytest.raises(AssertionError, match="scan_explicit started"):
        detect_explicit(tokenize(WOODCUTS_SIMPLE), inventory)


def test_vp_coordination_not_discourse_usage(inventory):
    # "produced and published" is phrase-internal coordination.
    anns = detect_explicit(tokenize(WOODCUTS_COMPLEX), inventory)
    assert anns == []


def test_longest_match_wins(tmp_path):
    path = tmp_path / "inv.tsv"
    path.write_text("even though\t\tContrast:1.0\nthough\t\tContrast:1.0\n", encoding="utf-8")
    inv = load_inventory(path)
    anns = detect_explicit(tokenize("He stayed calm even though the ship was sinking."), inv)
    assert [a.connective_id for a in anns] == ["even though"]


def test_discontinuous_detection(inventory):
    anns = detect_explicit(tokenize("Either the team was ready or the plan was approved."), inventory)
    assert len(anns) == 1
    ann = anns[0]
    assert ann.connective_id == "either..or"
    assert ann.span.start == 0 and ann.span2 is not None
    assert ann.sense is Sense.ALTERNATIVE


def test_a_second_part_is_no_clause(tmp_path):
    # "is" is a verb, but as the second part of "whether..is" it is no
    # clause of the connective's right side; "waited" is one.
    path = tmp_path / "inv.tsv"
    path.write_text("whether\tis\tAlternative:1.0\n", encoding="utf-8")
    inv = load_inventory(path)
    assert detect_explicit(tokenize("We left whether the plan is ready."), inv) == []
    anns = detect_explicit(tokenize("We left whether the plan is ready and they waited."), inv)
    assert [(a.connective_id, a.span.start, a.span2.start) for a in anns] == [("whether..is", 2, 5)]


def test_every_boundary_token_is_one_token():
    # A boundary that splits into several tokens never precedes a coordinator.
    assert [tokenize(token).surface_forms for token in sorted(_BOUNDARY_TOKENS)] == [(t,) for t in sorted(_BOUNDARY_TOKENS)]


def test_comma_guard_allows_clause_level_coordination(inventory):
    anns = detect_explicit(tokenize("The team was ready, but the plan was rejected."), inventory)
    assert [a.connective_id for a in anns] == ["but"]


def test_sentence_initial_connective_needs_only_right_argument(inventory):
    anns = detect_explicit(tokenize(BROADCAST_COMPLEX), inventory)
    assert [(a.connective_id, a.sense) for a in anns] == [("when", Sense.SYNCHRONY)]


def test_annotation_spans_disjoint_random(inventory):
    rng = random.Random(5)
    forms = [" ".join(e.parts[0]) for e in inventory]
    fillers = ["the", "team", "was", "ready", "plan", "approved", ",", "storm", "hit"]
    for _ in range(200):
        words = []
        for _ in range(rng.randint(3, 14)):
            words.append(rng.choice(fillers) if rng.random() < 0.7 else rng.choice(forms))
        anns = detect_explicit(tokenize(" ".join(words)), inventory)
        claimed = set()
        for ann in anns:
            spans = [ann.span] + ([ann.span2] if ann.span2 else [])
            for sp in spans:
                for i in range(sp.start, sp.end):
                    assert i not in claimed
                    claimed.add(i)


def test_multiple_connectives_all_reported(inventory):
    raw = "Either the plan was approved or the team was ready, but the storm was coming."
    anns = detect_explicit(tokenize(raw), inventory)
    assert [a.connective_id for a in anns] == ["either..or", "but"]


def test_determinism(inventory):
    s = tokenize(WOODCUTS_SIMPLE)
    assert detect_explicit(s, inventory) == detect_explicit(s, inventory)


# The verb-suffix rule as a regex, the reference for ``str.endswith``.
_SUFFIX_RE = re.compile(r".*(ed|s|ing)$")


@given(
    st.text(alphabet="edsingax\nİß'’07 ", max_size=10),
    st.sampled_from(["", "ed", "s", "ing", "in", "d", "ed\n", "s\n", "’s", "7s"]),
    st.integers(0, 2),
)
def test_verb_suffix_check_agrees_with_the_regex(stem, ending, position):
    raw = stem + ending
    # isalpha() is tested first, so no newline reaches the regex's "$".
    for lower in {raw, raw.lower(), *tokenize(raw).surface_forms, *tokenize(raw.lower()).surface_forms}:
        by_regex = position > 0 and lower.isalpha() and _SUFFIX_RE.fullmatch(lower) is not None
        assert _is_verbish(lower, position) == (_is_verbish(lower, 0) or by_regex)
