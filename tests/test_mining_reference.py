"""``mine_corpus`` against a plain reference miner written from the spec.

The reference detects both sides, classifies the pair, looks for every
expansion of the one-sided connective at every start of the other side,
substitutes by re-tokenizing the joined text, re-detects and resolves
overlaps. The miner indexes expansions by first token, scans each side
once and splices token tuples; on any corpus both must give the same
inventory, example ids in order included.
"""

from collections import Counter
from unittest.mock import patch

from hypothesis import example, given
from hypothesis import strategies as st

from altlex_miner import mining
from altlex_miner.corpus import SentencePair
from altlex_miner.discourse import ConnectiveEntry, ConnectiveInventory, Sense, detect_explicit
from altlex_miner.lexres import ParaphraseStore, Resource, expand
from altlex_miner.mining import (
    CaseKind,
    _expansion_index,
    _matches,
    classify_annotations,
    mine_corpus,
    substitute,
)
from altlex_miner.text import TokenSpan, match_phrase, tokenize


def _entry(form, sense, second=""):
    parts = (tuple(form.split()), tuple(second.split())) if second else (tuple(form.split()),)
    return ConnectiveEntry(id="..".join(" ".join(p) for p in parts), parts=parts, senses=((sense, 1.0),))


INVENTORY = ConnectiveInventory(
    [
        _entry("because", Sense.CAUSE),
        _entry("although", Sense.CONCESSION),
        _entry("but", Sense.CONTRAST),
        _entry("as a result", Sense.CAUSE),
        _entry("either", Sense.ALTERNATIVE, "or"),
        _entry("when", Sense.SYNCHRONY),
        # Not a single regex token: never detected, only substituted.
        _entry("e.g.", Sense.INSTANTIATION),
    ]
)


def _store(resource, rows):
    store = ParaphraseStore(resource)
    for source, target, score in rows:
        store.add(tuple(source.split()), tuple(target.split()), score)
    return store


# Targets that share a first token ("due", "as", "even"), that overlap one
# another, that are inventory forms ("but"), and that both stores hold.
# "seeing as" outranks the "as" inside it, yet its substitution can lose
# the only verb ("seeing") left of the connective.
STORES = [
    _store(
        Resource.PPDB,
        [
            ("because", "due to", 3.0),
            ("because", "due to the fact", 2.0),
            ("because", "due", 1.0),
            ("because", "since", 2.0),
            ("because", "as", 1.5),
            ("because", "as a", 1.5),
            ("because", "seeing as", 2.0),
            ("because", "but", 2.5),
            ("although", "even though", 2.0),
            ("although", "though", 2.0),
            ("although", "even", 0.5),
            ("although", "despite", 1.0),
            ("when", "once", 1.0),
            ("when", "as", 1.0),
            ("as a result", "thus", 1.0),
            ("e.g.", "like", 1.0),
        ],
    ),
    _store(
        Resource.SYNONYM_LEXICON,
        [
            ("because", "since", 1.0),
            ("because", "as", 1.0),
            ("although", "though", 1.0),
            ("when", "once", 1.0),
            ("when", "whenever", 1.0),
        ],
    ),
]

VOCAB = [
    "the", "farmer", "rain", "watched", "was", "crossed", ",", ",", ".",
    "because", "Because", "although", "but", "when", "either", "or", "e.g.",
    "as", "As", "a", "result", "due", "Due", "to", "fact", "since", "Since",
    "even", "though", "despite", "once", "whenever", "thus", "like", "seeing",
]


def reference_mine(pairs, inventory, stores):
    """(per-case counts, per-sense alignment counts, records) straight from
    the spec; records map (text, sense) to (resource, count, example ids)."""
    cases, senses, records = Counter(), Counter(), {}
    rank = [Resource.PPDB, Resource.SYNONYM_LEXICON].index
    for pair in pairs:
        complex_anns = detect_explicit(pair.complex, inventory)
        simple_anns = detect_explicit(pair.simple, inventory)
        case = classify_annotations(complex_anns, simple_anns)
        cases[case] += 1
        if case.kind is CaseKind.EXP_NON_EXP:
            ann, other = complex_anns[0], pair.simple
        elif case.kind is CaseKind.NON_EXP_EXP:
            ann, other = simple_anns[0], pair.complex
        else:
            continue
        senses[ann.sense] += 1
        connective = inventory.by_id[ann.connective_id]
        verified = []
        for store in stores:
            for para in expand(connective, store, inventory):
                width = len(para.target)
                for start in range(len(other.lower_forms)):
                    if other.lower_forms[start : start + width] != para.target:
                        continue
                    words = list(connective.parts[0])
                    surfaces = other.surface_forms
                    if start == 0 and surfaces[0][:1].isupper():
                        words[0] = words[0][:1].upper() + words[0][1:]
                    substituted = tokenize(" ".join([*surfaces[:start], *words, *surfaces[start + width :]]))
                    if any(
                        a.connective_id == connective.id and a.sense == ann.sense
                        for a in detect_explicit(substituted, inventory)
                    ):
                        verified.append((para, start, start + width))
        verified.sort(key=lambda v: (-v[0].score, v[1], v[2], rank(v[0].resource), v[0].target))
        kept = []
        for para, start, end in verified:
            if all(end <= s or e <= start for _, s, e in kept):
                kept.append((para, start, end))
        for para, _, _ in sorted(kept, key=lambda k: (k[1], k[2])):
            resource, count, ids = records.get((para.target, ann.sense), (para.resource, 0, []))
            records[(para.target, ann.sense)] = (
                min(resource, para.resource, key=rank), count + 1, ids + [pair.source_id]
            )
    return dict(cases), dict(senses), records


def _mined(pairs, inventory, stores):
    inv = mine_corpus(pairs, inventory, stores)
    records = {
        key: (r.resource, r.token_count, r.example_pair_ids) for key, r in inv.records.items()
    }
    return inv.per_case_counts, inv.per_sense_alignment_counts, records


def _pairs(raw_pairs):
    return [
        SentencePair(complex=tokenize(c), simple=tokenize(s), source_id=f"p{i}")
        for i, (c, s) in enumerate(raw_pairs)
    ]


PLANTED = [
    ("The farmer watched , because the rain crossed .", "Due to the fact the rain was , the farmer watched ."),
    ("The rain was due to the fact , as the farmer watched .", "The farmer watched because the rain crossed ."),
    ("Since the rain was , the farmer watched .", "Because the rain was , the farmer watched ."),
    ("The farmer watched even though the rain was .", "The farmer watched , although the rain was ."),
    ("Once the rain crossed , the farmer watched .", "When the rain crossed , the farmer watched ."),
    ("The farmer watched , e.g. the rain was .", "The farmer watched like the rain was ."),
    ("When the rain crossed , the farmer watched .", "Whenever the rain crossed , the farmer watched ."),
]

# "seeing as" (2.0) fails verification: no verb is left of "because". The
# "as" it overlaps is verified next and kept.
BETTER_FAILS = [("The farmer watched because the rain crossed .", "The rain seeing as the farmer watched .")]

_SIDE = st.lists(st.sampled_from(VOCAB), max_size=10).map(" ".join)


@given(st.lists(st.tuples(_SIDE, _SIDE), min_size=1, max_size=6), st.booleans())
@example(PLANTED, False)
@example(PLANTED * 2, True)
@example(BETTER_FAILS, True)
def test_mine_corpus_equals_reference_miner(raw_pairs, synonyms_first):
    # Store order must not decide between equal-scored targets of the two
    # resources: PPDB wins either way.
    pairs = _pairs(raw_pairs)
    stores = STORES[::-1] if synonyms_first else STORES
    assert _mined(pairs, INVENTORY, stores) == reference_mine(pairs, INVENTORY, stores)


@given(st.lists(st.tuples(_SIDE, _SIDE), min_size=1, max_size=6))
@example(PLANTED)
def test_outputs_do_not_depend_on_expansion_order(raw_pairs):
    # The overlap ranking is the only candidate order: neither the store
    # order nor the order of an ``expand`` result may change what is mined.
    pairs = _pairs(raw_pairs)
    expected = _mined(pairs, INVENTORY, STORES)
    assert _mined(pairs, INVENTORY, STORES[::-1]) == expected
    real_expand = mining.expand
    with patch.object(mining, "expand", lambda *args: real_expand(*args)[::-1]):
        assert _mined(pairs, INVENTORY, STORES) == expected


def test_planted_corpus_exercises_the_miner():
    # The property's explicit example mines from both stores, at a
    # capitalized sentence start ("Due to" in p0) and among overlapping
    # targets ("due to" beats "due to the fact"); "e.g." is never detected.
    _, _, records = reference_mine(_pairs(PLANTED), INVENTORY, STORES)
    assert records == {
        (("due", "to"), Sense.CAUSE): (Resource.PPDB, 2, ["p0", "p1"]),
        (("as",), Sense.CAUSE): (Resource.PPDB, 1, ["p1"]),
        (("since",), Sense.CAUSE): (Resource.PPDB, 1, ["p2"]),
        (("even", "though"), Sense.CONCESSION): (Resource.PPDB, 1, ["p3"]),
        (("once",), Sense.SYNCHRONY): (Resource.PPDB, 1, ["p4"]),
        (("whenever",), Sense.SYNCHRONY): (Resource.SYNONYM_LEXICON, 1, ["p6"]),
    }


def _verifications(pairs):
    """Each ``verify_candidate`` call of one ``mine_corpus`` run, in call
    order, as (pair id, span, outcome)."""
    calls = []
    real_verify = mining.verify_candidate
    owner = {id(side): pair.source_id for pair in pairs for side in (pair.complex, pair.simple)}

    def spy(sentence, span, connective, inventory):
        ok = real_verify(sentence, span, connective, inventory)
        calls.append((owner[id(sentence)], span, ok))
        return ok

    with patch.object(mining, "verify_candidate", spy):
        mine_corpus(pairs, INVENTORY, STORES)
    return calls


def test_an_overlapped_match_is_never_verified():
    # In p0's "Due to the fact ...", "due to" (0-2) is kept first; "due to
    # the fact" (0-4) and "due" (0-1) overlap it and are dropped unverified.
    calls = _verifications(_pairs(PLANTED))
    assert [(span, ok) for pair_id, span, ok in calls if pair_id == "p0"] == [(TokenSpan(0, 2), True)]
    assert len(calls) == 7


def test_a_failed_better_match_leaves_the_overlapped_one_free():
    # The property's BETTER_FAILS example reaches this branch: the better
    # match fails, so the worse match it overlaps is verified and kept. The
    # synonym lexicon's "as" overlaps the kept one and is not verified.
    pairs = _pairs(BETTER_FAILS)
    assert _verifications(pairs) == [("p0", TokenSpan(2, 4), False), ("p0", TokenSpan(3, 4), True)]
    _, _, records = _mined(pairs, INVENTORY, STORES)
    assert records == {(("as",), Sense.CAUSE): (Resource.PPDB, 1, ["p0"])}


def test_each_store_expands_each_connective_once_per_call():
    pairs = _pairs(PLANTED * 3)
    calls = Counter()
    real_expand = mining.expand

    def spy(connective, store, inventory):
        calls[connective.id, store.resource] += 1
        return real_expand(connective, store, inventory)

    with patch.object(mining, "expand", spy):
        mine_corpus(pairs, INVENTORY, STORES)
    mined = {"because", "although", "when"}  # the connectives of PLANTED's one-sided pairs
    assert calls == {(c, store.resource): 1 for c in mined for store in STORES}


_RAW = st.text(alphabet=st.one_of(st.sampled_from("İßﬁ Aa.-'’,"), st.characters()), max_size=40)
_REPLACEMENT = st.lists(
    st.one_of(
        st.sampled_from(["e.g.", "because", "as", "a", "result", "ßo", "ﬁne", "İf", "don't", "well-known"]),
        st.text(min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=3,
)


@given(_RAW, _REPLACEMENT, st.data())
@example("So it was.", ["ßo"], None)
@example("Fine , it was", ["ﬁne", "e.g."], None)
@example("ß İs ﬁne", ["as", "a"], None)
@example("İf it rained", ["because"], None)
@example("Due to rain, we left.", ["e.g."], None)
def test_substitute_equals_tokenizing_the_joined_text(raw, replacement, data):
    sentence = tokenize(raw)
    if not sentence.surface_forms:
        return
    n = len(sentence.surface_forms)
    if data is None:
        span = TokenSpan(0, 1)
    else:
        start = data.draw(st.integers(0, n - 1))
        span = TokenSpan(start, data.draw(st.integers(start + 1, n)))
    words = list(replacement)
    surfaces = sentence.surface_forms
    if span.start == 0 and surfaces[0][:1].isupper():
        words[0] = words[0][:1].upper() + words[0][1:]
    expected = tokenize(" ".join([*surfaces[: span.start], *words, *surfaces[span.end :]]))
    got = substitute(sentence, span, replacement)
    assert (got.raw, got.surface_forms, got.lower_forms) == (
        expected.raw,
        expected.surface_forms,
        expected.lower_forms,
    )


@given(_SIDE)
@example("Due to the fact as a due to")
def test_expansion_index_matches_the_nested_loop(raw):
    # The index must give every match that match_phrase gives for each
    # expansion of each store, each as often; their order is not kept.
    sentence = tokenize(raw)
    for connective in INVENTORY:
        index = _expansion_index(connective, INVENTORY, STORES)
        nested = Counter(
            (para, span)
            for store in STORES
            for para in expand(connective, store, INVENTORY)
            for span in match_phrase(sentence, para.target)
        )
        assert Counter(_matches(index, sentence)) == nested
