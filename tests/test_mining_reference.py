"""``mine_corpus`` against a plain reference miner written from the spec.

The reference detects both sides, classifies the pair, looks for every
expansion of the one-sided connective at every start of the other side,
substitutes by re-tokenizing the joined text, re-detects and resolves
overlaps. The miner indexes expansions by first token, scans each side
once and splices token tuples; on any corpus both must give the same
inventory, example ids in order included.

Detection itself is checked against ``reference_detect``, a pinned copy of
the detector that looked up every token and built a span for every
textual match: the scan that visits only connective positions and stops
where its caller stops must give the same annotations, and
``verify_candidate`` the same verdict as re-detecting ``substitute``'s
tokens with the reference.
"""

from collections import Counter
from unittest.mock import patch

from hypothesis import example, given
from hypothesis import strategies as st

from altlex_miner import mining
from altlex_miner.corpus import SentencePair
from altlex_miner.discourse import (
    _BOUNDARY_TOKENS,
    _CLITIC_RE,
    _COMMA_GUARDED,
    _VERB_LIST,
    ConnectiveEntry,
    ConnectiveInventory,
    ExplicitAnnotation,
    Sense,
    detect_explicit,
    load_inventory,
    scan_explicit,
)
from altlex_miner.lexres import ParaphraseStore, Resource, expand
from altlex_miner.mining import (
    CaseKind,
    _expansion_index,
    _matches,
    classify_annotations,
    mine_corpus,
    substitute,
    verify_candidate,
)
from altlex_miner.text import Sentence, TokenSpan, match_phrase, tokenize


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


# The detector as it was before detection became one scan, pinned: it
# looks up every token, builds a span for every textual match and scans
# the whole sentence. Only its signature changed, to take the lowercased
# tokens, and its helpers' names.
def _reference_is_verbish(lower: str, position: int) -> bool:
    if lower in _VERB_LIST:
        return True
    if lower.endswith("n't") or lower.endswith("n’t"):
        return True
    if _CLITIC_RE.fullmatch(lower):
        return True
    if position > 0 and lower.isalpha() and lower.endswith(("ed", "s", "ing")):
        return True
    return False


def _reference_has_clause(lowers: tuple[str, ...], start: int, end: int) -> bool:
    for i in range(start, end):
        if _reference_is_verbish(lowers[i], i):
            return True
    return False


def _reference_match_at(lowers: tuple[str, ...], part: tuple[str, ...], pos: int, occupied: list[bool]) -> bool:
    if pos + len(part) > len(lowers):
        return False
    for offset, word in enumerate(part):
        i = pos + offset
        if occupied[i] or lowers[i] != word:
            return False
    return True


def reference_detect(lowers: tuple[str, ...], inventory: ConnectiveInventory) -> list[ExplicitAnnotation]:
    """Detect discourse-usage connective occurrences, longest match first.

    Scans left to right; at each free position the longest textually
    matching entry is the only one considered (shorter entries never fire at
    the same start). Accepted occurrences claim their token positions, so
    annotation spans never overlap.
    """
    n = len(lowers)
    occupied = [False] * n
    annotations: list[ExplicitAnnotation] = []
    by_first_token = inventory.by_first_token

    for pos, token in enumerate(lowers):
        bucket = by_first_token.get(token)
        if bucket is None:
            continue
        for entry in bucket:
            if not _reference_match_at(lowers, entry.parts[0], pos, occupied):
                continue
            span2 = None
            if entry.discontinuous:
                second = entry.parts[1]
                for j in range(pos + len(entry.parts[0]), n - len(second) + 1):
                    if _reference_match_at(lowers, second, j, occupied):
                        span2 = TokenSpan(j, j + len(second))
                        break
                else:
                    continue  # no free second part: try the next, shorter entry
            break
        else:
            continue  # no entry matches here

        span = TokenSpan(pos, pos + len(entry.parts[0]))
        if entry.id in _COMMA_GUARDED and pos > 0 and lowers[pos - 1] not in _BOUNDARY_TOKENS:
            continue
        # The right side is read around a second part, never inside it.
        if span2 is None:
            right_ok = _reference_has_clause(lowers, span.end, n)
        else:
            right_ok = _reference_has_clause(lowers, span.end, span2.start) or _reference_has_clause(lowers, span2.end, n)
        if not (right_ok and (pos == 0 or _reference_has_clause(lowers, 0, pos))):
            continue

        annotations.append(
            ExplicitAnnotation(connective_id=entry.id, span=span, span2=span2, sense=entry.top_sense)
        )
        for i in range(span.start, span.end):
            occupied[i] = True
        if span2 is not None:
            for i in range(span2.start, span2.end):
                occupied[i] = True

    return annotations


SHIPPED = load_inventory()

# Multi-token entries sharing first tokens, discontinuous entries whose
# parts are also entries, comma-guarded coordinators, and "ßo" and "e.g.",
# whose words ``tokenize`` splits otherwise or changes when capitalized.
CUSTOM = ConnectiveInventory(
    [
        _entry("as", Sense.SYNCHRONY),
        _entry("as a result", Sense.CAUSE),
        _entry("as if", Sense.CONCESSION),
        _entry("if", Sense.CONDITION, "then"),
        _entry("then", Sense.ASYNCHRONOUS),
        _entry("not only", Sense.CONJUNCTION, "but also"),
        _entry("either", Sense.ALTERNATIVE, "or"),
        _entry("or", Sense.ALTERNATIVE),
        _entry("and", Sense.CONJUNCTION),
        _entry("but", Sense.CONTRAST),
        _entry("because", Sense.CAUSE),
        _entry("ßo", Sense.CAUSE),
        _entry("e.g.", Sense.INSTANTIATION),
    ]
)


def _detection_tokens(inventory):
    """Every token of an inventory's parts, discontinuous ones included."""
    return sorted({token for entry in inventory for part in entry.parts for token in part})


_SPECIAL_TOKENS = sorted(
    {*_COMMA_GUARDED, *_BOUNDARY_TOKENS, *_VERB_LIST, "don't", "don’t", "it’s", "it's", "walked", "İs", "i̇s"}
)
_PSEUDO_WORD = st.text(alphabet="abdegilnorst'’", min_size=1, max_size=6)


def _token_tuples(inventory):
    pools = [_detection_tokens(inventory), _SPECIAL_TOKENS, _detection_tokens(CUSTOM)]
    token = st.one_of(*map(st.sampled_from, pools), _PSEUDO_WORD)
    return st.lists(token, max_size=16).map(tuple)


# Found only at the second connective position: the unguarded "and" fails.
_SECOND_POSITION = ("it", "was", "and", "rain", ",", "but", "it", "was")
# The clitic with ’ is the only verb on the right of "because".
_CURLY_CLITIC = ("because", "it’s")


@given(_token_tuples(SHIPPED))
@example(_SECOND_POSITION)
@example(_CURLY_CLITIC)
@example(("the", "farmer", "watched", ",", "because", "don’t"))
def test_scan_equals_the_pinned_detector_on_the_shipped_inventory(lowers):
    expected = reference_detect(lowers, SHIPPED)
    assert list(scan_explicit(lowers, SHIPPED)) == expected
    assert detect_explicit(Sentence(" ".join(lowers), lowers), SHIPPED) == expected


@given(_token_tuples(CUSTOM))
@example(("if", "it", "rained", "then", "not", "only", "was", "but", "also", "walked"))
@example(_SECOND_POSITION)
@example(_CURLY_CLITIC)
def test_scan_equals_the_pinned_detector_on_a_custom_inventory(lowers):
    expected = reference_detect(lowers, CUSTOM)
    assert list(scan_explicit(lowers, CUSTOM)) == expected
    assert detect_explicit(Sentence(" ".join(lowers), lowers), CUSTOM) == expected


def test_the_pinned_examples_reach_the_rules_they_name():
    # Each explicit example reaches the rule it pins: the connective that
    # fires is at the second connective position, and the only clitic is ’s.
    assert [a.connective_id for a in reference_detect(_SECOND_POSITION, SHIPPED)] == ["but"]
    assert [a.connective_id for a in reference_detect(_CURLY_CLITIC, SHIPPED)] == ["because"]


_VERIFY_VOCAB = [
    "the", "rain", "was", "walked", "crossed", ",", ".", "it’s", "As", "as", "a", "result", "If", "if",
    "then", "and", "but", "or", "either", "not", "only", "also", "So", "ßo", "e.g.", "Because", "because",
    "İs", "Then",
]


@given(
    st.lists(st.sampled_from(_VERIFY_VOCAB), min_size=1, max_size=12),
    st.sampled_from(list(CUSTOM) + [e for e in SHIPPED if not e.discontinuous][:20]),
    st.data(),
)
@example(["So", "it", "was", "."], CUSTOM.by_id["ßo"], None)
@example(["Because", "the", "rain", "was", ",", "it", "walked"], CUSTOM.by_id["e.g."], None)
@example(["If", "the", "rain", "was", ",", "then", "it", "walked"], CUSTOM.by_id["as a result"], None)
def test_verify_candidate_equals_redetecting_the_substituted_sentence(words, connective, data):
    # A ``None`` draw, as in the examples, is the first token's span.
    sentence = tokenize(" ".join(words))
    n = len(sentence)
    if data is None:
        span = TokenSpan(0, 1)
    else:
        start = data.draw(st.integers(0, n - 1))
        span = TokenSpan(start, data.draw(st.integers(start + 1, n)))
    inventory = CUSTOM if connective.id in CUSTOM.by_id else SHIPPED
    substituted = substitute(sentence, span, connective.parts[0])
    expected = any(a.connective_id == connective.id for a in reference_detect(substituted.lower_forms, inventory))
    assert verify_candidate(sentence, span, connective, inventory) is expected


# 60 one-sided pairs in which "since" verifies "because", half of them at
# a capitalized sentence start.
_REPEATED = [
    ("The farmer watched because the rain crossed .", "The farmer watched since the rain crossed ."),
    ("Because the rain was , the farmer watched .", "Since the rain was , the farmer watched ."),
] * 30


def test_verification_tokenizes_each_replacement_at_most_twice():
    # The connective's words are tokenized once per capitalization, not
    # once per verification: the tokens a verification splices in depend
    # on nothing else.
    pairs = _pairs(_REPEATED)
    verified, tokenized = Counter(), Counter()
    real_verify, real_tokenize = mining.verify_candidate, mining.tokenize

    def verify_spy(sentence, span, connective, inventory):
        verified[connective.parts[0]] += 1
        return real_verify(sentence, span, connective, inventory)

    def tokenize_spy(raw):
        tokenized[raw] += 1
        return real_tokenize(raw)

    with patch.object(mining, "verify_candidate", verify_spy), patch.object(mining, "tokenize", tokenize_spy):
        mine_corpus(pairs, INVENTORY, STORES)
    assert verified[("because",)] >= 50
    assert sum(tokenized.values()) <= 2 * len(verified)
