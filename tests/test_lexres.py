import codecs
import io
import sys
from contextlib import redirect_stderr
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altlex_miner import text
from altlex_miner.discourse import load_inventory
from altlex_miner.lexres import (
    _FLOAT_RE,
    _PPDB_SEP,
    _SCORE_RE,
    _VALUE_NUMBER_RE,
    ParaphraseStore,
    Resource,
    expand,
    load_ppdb,
    load_synonyms,
)
from altlex_miner.text import InputError, read_lines, tokenize

# The reference score rule, item by item: load_ppdb's one regex search must
# give every line, stored or not, this score.
_SCORE_FEATURE = "PPDB2.0Score"


def _feature_score(features: str) -> float | None:
    """The score feature's value, else the first number that begins a
    value, else None. A numeric score value begins a value itself, so a
    line has a score exactly when ``_VALUE_NUMBER_RE`` finds one."""
    for item in features.split():
        key, eq, value = item.partition("=")
        if eq and key == _SCORE_FEATURE:
            m = _FLOAT_RE.fullmatch(value)
            if m:
                return float(value)
    m = _VALUE_NUMBER_RE.search(" " + features)
    return float(m.group(1)) if m else None


def _reference_load_ppdb(path, min_score=0.0, keep=None):
    """The reference loader, one line at a time: every line is split,
    checked and scored, and stored if ``keep`` lets it. ``load_ppdb``
    must give the same store, skip count, warnings and errors."""
    store = ParaphraseStore(Resource.PPDB)
    for lineno, line in read_lines(path):
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


def test_load_ppdb_basic(tmp_path):
    path = tmp_path / "ppdb"
    path.write_text(
        "[X] ||| despite ||| though ||| PPDB2.0Score=3.5 p(e|f)=0.1 ||| 0-0 ||| Equivalence\n",
        encoding="utf-8",
    )
    store = load_ppdb(path, min_score=0.0)
    assert store.skipped == 0
    entries = store.lookup(("despite",))
    assert [(e.target, e.score) for e in entries] == [(("though",), 3.5)]
    # symmetric
    assert [e.target for e in store.lookup(("though",))] == [("despite",)]
    assert entries[0].resource is Resource.PPDB


def test_load_ppdb_min_score_filters_all(tmp_path):
    path = tmp_path / "ppdb"
    path.write_text(
        "[X] ||| despite ||| though ||| PPDB2.0Score=3.5 ||| 0-0 ||| Equivalence\n",
        encoding="utf-8",
    )
    store = load_ppdb(path, min_score=10.0)
    assert len(store) == 0


def test_load_ppdb_malformed_line_counted(tmp_path):
    path = tmp_path / "ppdb"
    path.write_text("despite ||| though\n", encoding="utf-8")
    store = load_ppdb(path)
    assert store.skipped == 1
    assert len(store) == 0


def test_load_ppdb_score_fallback_to_first_float(tmp_path):
    path = tmp_path / "ppdb"
    path.write_text(
        "[X] ||| in spite of ||| despite ||| p(e|f)=0.25 rarity=1 ||| 0-0 ||| Equivalence\n",
        encoding="utf-8",
    )
    store = load_ppdb(path)
    (entry,) = store.lookup(("in", "spite", "of"))
    assert entry.score == 0.25
    assert entry.target == ("despite",)


def test_load_synonyms(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("because\tsince\n", encoding="utf-8")
    store = load_synonyms(path)
    (entry,) = store.lookup(("because",))
    assert entry.target == ("since",)
    assert entry.score == 1.0
    assert entry.resource is Resource.SYNONYM_LEXICON


def test_phrases_are_tokenized_as_sentences_are(tmp_path):
    # Punctuation is a token of its own, in a phrase as in a sentence.
    ppdb, synonyms = tmp_path / "ppdb", tmp_path / "syn.tsv"
    ppdb.write_text("[X] ||| though ||| U.S. ||| PPDB2.0Score=3.5\n", encoding="utf-8")
    synonyms.write_text("because\tin view of that,\n", encoding="utf-8")
    assert [e.target for e in load_ppdb(ppdb).lookup(("though",))] == [("u", ".", "s", ".")]
    assert [e.target for e in load_synonyms(synonyms).lookup(("because",))] == [("in", "view", "of", "that", ",")]


# Words, punctuation, clitics and hyphens, U+FEFF, "İ", which grows under
# lowercasing, and whitespace that is not a space.
_PHRASE_PIECES = [
    "because", "In", "view", "of", "that", ",", ".", "u.s.", "don't", "a-", "'s", "İf", "\ufeff",
    " ", "  ", "\xa0", "\u3000", "\u2028", "\x85", "\x1c",
]
_PHRASE = st.lists(st.sampled_from(_PHRASE_PIECES), max_size=5).map("".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_PHRASE, _PHRASE), min_size=1, max_size=6))
def test_every_stored_phrase_is_its_fields_tokens(tmp_path_factory, pairs):
    # Of both loaders, with or without keep and with the PPDB pattern run on
    # every block: each source and target stored is its field's tokens,
    # lowercased, and a pair of two such phrases, empty or equal, is none.
    root = tmp_path_factory.mktemp("phrases")
    ppdb, synonyms = root / "ppdb", root / "syn.tsv"
    ppdb.write_text("".join(f"[X] ||| {s} ||| {t} ||| PPDB2.0Score=1\n" for s, t in pairs), encoding="utf-8")
    synonyms.write_text("".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")
    tokens = [(tokenize(s).lower_forms, tokenize(t).lower_forms) for s, t in pairs]
    kept = {pair for s, t in tokens if s and t and s != t for pair in ((s, t), (t, s))}
    with redirect_stderr(io.StringIO()), mock.patch.object(text, "_BLOCK_CHARS", 1):
        for keep in (None, frozenset(phrase for pair in tokens for phrase in pair)):
            for store in (load_ppdb(ppdb, keep=keep), load_synonyms(synonyms, keep=keep)):
                assert {(s, t) for s, targets in store._by_source.items() for t in targets} == kept


def test_load_synonyms_strips_utf8_bom(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("\ufeffbecause\tsince\n", encoding="utf-8")
    store = load_synonyms(path)
    assert [e.target for e in store.lookup(("because",))] == [("since",)]


def test_a_line_of_whitespace_and_bom_is_blank(tmp_path, capsys):
    # U+FEFF is no token, so such a line is blank: neither skipped nor
    # warned about.
    ppdb, synonyms = tmp_path / "ppdb", tmp_path / "syn.tsv"
    ppdb.write_text("[X] ||| despite ||| though ||| PPDB2.0Score=3.5\n\ufeff\n \ufeff\t\n", encoding="utf-8")
    synonyms.write_text("because\tsince\n\ufeff\n\ufeff \n", encoding="utf-8")
    stores = [load_ppdb(ppdb), load_synonyms(synonyms)]
    assert [(store.skipped, len(store)) for store in stores] == [(0, 2), (0, 2)]
    assert capsys.readouterr().err == ""


def test_load_synonyms_empty_file(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("", encoding="utf-8")
    assert len(load_synonyms(path)) == 0


def test_load_synonyms_duplicates_deduplicated(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("because\tsince\nbecause\tsince\n", encoding="utf-8")
    store = load_synonyms(path)
    assert len(store.lookup(("because",))) == 1


def test_expand_includes_paraphrase(tmp_path, inventory):
    path = tmp_path / "ppdb"
    path.write_text(
        "[X] ||| despite ||| though ||| PPDB2.0Score=3.5 ||| 0-0 ||| Equivalence\n",
        encoding="utf-8",
    )
    store = load_ppdb(path)
    results = expand(inventory.by_id["though"], store, inventory)
    assert [e.target for e in results] == [("despite",)]


def test_expand_excludes_inventory_connectives(tmp_path, inventory):
    # "since" is itself an inventory connective, so it is not an AltLex.
    path = tmp_path / "syn.tsv"
    path.write_text("because\tsince\n", encoding="utf-8")
    store = load_synonyms(path)
    assert expand(inventory.by_id["because"], store, inventory) == []


def test_expand_absent_connective(tmp_path, inventory):
    path = tmp_path / "syn.tsv"
    path.write_text("because\tsince\n", encoding="utf-8")
    store = load_synonyms(path)
    assert expand(inventory.by_id["though"], store, inventory) == []


def test_expand_sorted_by_score_then_target(tmp_path, inventory):
    path = tmp_path / "ppdb"
    lines = [
        "[X] ||| though ||| zealously ||| PPDB2.0Score=2.0 ||| 0-0 ||| x",
        "[X] ||| though ||| abruptly ||| PPDB2.0Score=2.0 ||| 0-0 ||| x",
        "[X] ||| though ||| despite ||| PPDB2.0Score=3.0 ||| 0-0 ||| x",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    store = load_ppdb(path)
    results = expand(inventory.by_id["though"], store, inventory)
    assert [e.target for e in results] == [("despite",), ("abruptly",), ("zealously",)]


def test_expand_symmetry(tmp_path, inventory):
    path = tmp_path / "ppdb"
    path.write_text("[X] ||| despite ||| regardless of ||| PPDB2.0Score=1.5 ||| 0 ||| x\n", encoding="utf-8")
    store = load_ppdb(path)
    assert [e.target for e in store.lookup(("despite",))] == [("regardless", "of")]
    assert [e.target for e in store.lookup(("regardless", "of"))] == [("despite",)]


def test_load_ppdb_cr_and_crlf_line_ends(tmp_path):
    path = tmp_path / "ppdb"
    path.write_bytes(
        b"\xef\xbb\xbf[X] ||| though ||| despite ||| PPDB2.0Score=3.0\r\n"
        b"[X] ||| though ||| even so ||| PPDB2.0Score=2.0\r"
        b"[X] ||| before ||| used to ||| PPDB2.0Score=1.0\n"
    )
    store = load_ppdb(path)
    assert store.skipped == 0
    assert [e.target for e in store.lookup(("though",))] == [("despite",), ("even", "so")]
    assert [e.target for e in store.lookup(("before",))] == [("used", "to")]


# Lines whose source or target is a connective's first part ("though",
# "in short", "nevertheless" only as a target, "but"/"however" both), lines
# no connective reaches, malformed and identity lines of both kinds, and a
# duplicate pair whose second copy scores better. The score key's name holds
# the digits "2.0", which are no score: of the two "because" lines the
# first scores 0.75 and the second has no score.
KEEP_PPDB_RELEVANT = [
    "[X] ||| though ||| despite ||| PPDB2.0Score=3.0 ||| 0 ||| x",
    "[X] ||| In Short ||| briefly ||| PPDB2.0Score=1.5",
    "[X] ||| in spite of this ||| nevertheless ||| PPDB2.0Score=2.0 ||| 0 ||| x",
    "[X] ||| though ||| despite ||| PPDB2.0Score=4.0 ||| 0 ||| x",
    "[X] ||| but ||| however ||| PPDB2.0Score=0.5",
    "[X] ||| because ||| given that ||| PPDB2.0Score=abc 0.75",
    "[X] ||| because ||| seeing that ||| PPDB2.0Score= x",
]
KEEP_PPDB_OTHER = [
    "[X] ||| rock ||| stone ||| PPDB2.0Score=5.0 ||| 0 ||| x",
    "[X] ||| despite ||| in spite of ||| PPDB2.0Score=2.5",
    "[X] ||| because ||| Because ||| PPDB2.0Score=1.0",
    "[X] ||| rock ||| rock ||| PPDB2.0Score=1.0",
    "though ||| despite",
    "[X] ||| pebble ||| gravel",
    "[X] ||| unless ||| except if ||| no score here",
    "[X] ||| pebble ||| gravel ||| no score here",
    "[X] |||  ||| though ||| PPDB2.0Score=1.0",
    # Unreachable lines get the same score rule as the others: the first has
    # a number, though not as its score key's value; the other two have
    # none, the last only the digits of the key's name.
    "[X] ||| pebble ||| gravel ||| PPDB2.0Score=abc 0.75",
    "[X] ||| pebble ||| cobble ||| Score= none",
    "[X] ||| pebble ||| shale ||| PPDB2.0Score= x",
    "  \t ",
]
KEEP_SYNONYM_RELEVANT = ["because\tsince", "after all\tbecause", "because\towing to", "so\ttherefore"]
KEEP_SYNONYM_OTHER = ["rock\tstone", "while\twhile", "just one field", "a\tb\tc", "pebble\tgravel"]


def _interleave(relevant, other):
    lines = []
    for i in range(max(len(relevant), len(other))):
        lines.extend(relevant[i : i + 1] + other[i : i + 1])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("min_score", [0.0, 2.0])
def test_load_ppdb_keep_is_exact(tmp_path, inventory, min_score):
    keep = {e.parts[0] for e in inventory}
    mixed = tmp_path / "mixed"
    mixed.write_text(_interleave(KEEP_PPDB_RELEVANT, KEEP_PPDB_OTHER), encoding="utf-8")
    relevant = tmp_path / "relevant"
    relevant.write_text("\n".join(KEEP_PPDB_RELEVANT) + "\n", encoding="utf-8")
    full = load_ppdb(mixed, min_score=min_score)
    kept = load_ppdb(mixed, min_score=min_score, keep=keep)
    for form in sorted(keep):
        assert kept.lookup(form) == full.lookup(form)
    assert kept.skipped == full.skipped == 10
    assert len(kept) == len(load_ppdb(relevant, min_score=min_score)) < len(full)
    assert kept.lookup(("though",))[0].score == 4.0
    because = {e.target: e.score for e in kept.lookup(("because",))}
    assert because == ({("given", "that"): 0.75} if min_score <= 0.75 else {})
    assert kept.lookup(("nevertheless",))[0].target == ("in", "spite", "of", "this")
    assert kept.lookup(("rock",)) == []


_FEATURE_PIECES = ["PPDB2.0Score", "PPDB1.0Score", "=", "p(e|f)", "0.75", "-1", "2e3", "3.", "abc", "x1"]


@settings(max_examples=60)
@given(st.lists(st.sampled_from(_FEATURE_PIECES + [" "]), min_size=1, max_size=8).map("".join))
def test_stored_and_unstored_lines_agree_on_a_score(tmp_path_factory, features):
    # The stored line's score is parsed; the unstored one is only tested
    # for having one. Both are skipped, or neither.
    path = tmp_path_factory.mktemp("ppdb") / "ppdb"
    path.write_text(
        f"[X] ||| because ||| given that ||| {features}\n[X] ||| pebble ||| gravel ||| {features}\n",
        encoding="utf-8",
    )
    store = load_ppdb(path, min_score=float("-inf"), keep={("because",)})
    assert store.skipped in (0, 2)
    assert (store.skipped == 0) == (_feature_score(features) is not None)
    assert len(store) == (2 if store.skipped == 0 else 0)


# Whitespace that str.split and re's \s both split on (NBSP, U+3000, U+0085,
# \x1c), U+FEFF, which neither does, and near-misses of a score item.
_SCORE_PIECES = _FEATURE_PIECES + [
    "PPDB2.0Score=", "xPPDB2.0Score=1", "==", "1e", ".5", "\t", "\xa0", "\u3000", "\x85", "\x1c", "\ufeff",
]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_SCORE_PIECES + [" "]), min_size=1, max_size=10).map("".join))
@example("PPDB2.0Score=abc PPDB2.0Score=x\xa0PPDB2.0Score=0.5 p(e|f)=0.75")
@example("PPDB2.0Score=1e PPDB2.0Score=\ufeff2 PPDB2.0Score=-1\u3000p=3")
@example("xPPDB2.0Score=1\x85PPDB2.0Score=.5")
@example("p(e|f)=0.75 xPPDB2.0Score=1 PPDB2.0Score=2e3x")
def test_every_line_gets_the_reference_score(tmp_path_factory, features):
    # Stored with keep, stored without it, or dropped by keep: the line is
    # skipped exactly when the reference finds no score, and a stored line
    # holds the reference's score.
    path = tmp_path_factory.mktemp("ppdb") / "ppdb"
    path.write_text(f"[X] ||| because ||| given that ||| {features}\n", encoding="utf-8")
    score = _feature_score(features)
    for keep, stored in ((None, True), ({("because",)}, True), ({("pebble",)}, False)):
        store = load_ppdb(path, min_score=float("-inf"), keep=keep)
        assert store.skipped == (score is None)
        expected = [(("given", "that"), score)] if stored and score is not None else []
        assert [(e.target, e.score) for e in store.lookup(("because",))] == expected


def test_load_synonyms_keep_is_exact(tmp_path, inventory):
    keep = {e.parts[0] for e in inventory}
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text(_interleave(KEEP_SYNONYM_RELEVANT, KEEP_SYNONYM_OTHER), encoding="utf-8")
    relevant = tmp_path / "relevant.tsv"
    relevant.write_text("\n".join(KEEP_SYNONYM_RELEVANT) + "\n", encoding="utf-8")
    full = load_synonyms(mixed)
    kept = load_synonyms(mixed, keep=keep)
    for form in sorted(keep):
        assert kept.lookup(form) == full.lookup(form)
    assert kept.skipped == full.skipped == 3
    assert len(kept) == len(load_synonyms(relevant)) < len(full)
    assert kept.lookup(("rock",)) == []


def test_lookup_memo_follows_add_and_returns_fresh_lists():
    store = ParaphraseStore(Resource.PPDB)
    store.add(("though",), ("despite",), 2.0)
    first = store.lookup(("though",))
    assert [e.target for e in first] == [("despite",)]
    first.clear()
    assert [e.target for e in store.lookup(("though",))] == [("despite",)]
    store.add(("though",), ("even", "so"), 3.0)
    assert [e.target for e in store.lookup(("though",))] == [("even", "so"), ("despite",)]
    store.add(("even", "so"), ("though",), 1.0)  # a worse duplicate changes nothing
    assert [(e.target, e.score) for e in store.lookup(("though",))] == [
        (("even", "so"), 3.0),
        (("despite",), 2.0),
    ]


# Phrases for the reference comparison: keep phrases of the shipped
# inventory, plain phrases no connective reaches, and phrases holding
# punctuation, an apostrophe or a hyphen, which ``tokenize`` splits or keeps
# whole; odd ones lowercase to a keep phrase (the Kelvin sign lowercases to
# "k"), grow under lowercasing ("İ"), or are the uppercase, non-ASCII and
# "|" keep phrases of the fourth keep set.
_PLAIN_FORMS = [
    "though", "because", "in short", "as a result", "in the end", "on the other hand",
    "rock", "stone", "in spite of", "on the whole", "all in all", "a great deal",
    "that,", "as a result ,", "in view of that,", "u.s.", "don't", "a-", "it 's",
]
_ODD_FORMS = ["a|b", "café", "li\u212aewise", "İf", "Because"]
_THIRTY = " ".join(f"F{i}=0.{i}" for i in range(29))
# Feature columns whose first item's value begins with a number, one with
# the score item first and one with it last among 30 items; then columns
# without such a first item, one of them with no item at all.
_SCORED_FEATURES = [
    "PPDB2.0Score=3.5", "PPDB2.0Score=0.5 Abstract=0", "Abstract=0 PPDB2.0Score=2.5", "p(e|f)=0.25 x=1",
    "A=1\tB=2", "A=1\xa0B", "A=1\x1cB", "A=-2|3 x", f"PPDB2.0Score=1.5 {_THIRTY}", f"{_THIRTY} PPDB2.0Score=1.5",
]
_OTHER_FEATURES = ["abc", "x=1=2 y", "=5", "PPDB2.0Score=abc", "-1.5", "x=1.5e", "x=.5 y=2", "", "A=\u0663 B=1"]
# Changes that ``tokenize`` and lowercasing undo: other whitespace between
# tokens, another letter case, whitespace around the phrase.
_PHRASE_CHANGES = [
    lambda p: p.replace(" ", "  "), lambda p: p.replace(" ", "  ", 1), lambda p: p.replace(" ", "\t"),
    lambda p: p.replace(" ", "\xa0"), lambda p: p.replace(" ", "\u3000"), str.upper, str.title, str.capitalize,
    lambda p: " " + p, lambda p: p + "  ",
]


@st.composite
def _ppdb_line(draw):
    """A line of plain phrases, which the pattern blanks unless one is a
    keep phrase, with up to two changes that may stop it."""
    fields = ["[X]", *draw(st.lists(st.sampled_from(_PLAIN_FORMS), min_size=2, max_size=2, unique=True))]
    fields += [draw(st.sampled_from(_SCORED_FEATURES)), "0-0", "Equivalence"]
    count, separator = draw(st.sampled_from([4, 5, 6])), _PPDB_SEP
    changes = st.lists(st.sampled_from(["phrase", "identity", "odd", "lhs", "features", "fields", "sep"]), max_size=2)
    for change in draw(changes):
        side = draw(st.sampled_from([1, 2]))
        if change == "phrase":
            fields[side] = draw(st.sampled_from(_PHRASE_CHANGES))(fields[side])
        elif change == "identity":  # the source, perhaps in another case or spacing
            fields[2] = draw(st.sampled_from([lambda p: p, *_PHRASE_CHANGES]))(fields[1])
        elif change == "odd":
            fields[side] = draw(st.sampled_from(_ODD_FORMS))
        elif change == "lhs":
            fields[0] = draw(st.sampled_from(["", "[A|B]", "[X] y", "[X]\t"]))
        elif change == "features":
            fields[3] = draw(st.sampled_from(_OTHER_FEATURES))
        elif change == "fields":
            count = draw(st.sampled_from([2, 3]))
        else:
            separator = draw(st.sampled_from(["|||", " |||| "]))
    return separator.join(fields[:count]).encode("utf-8")


# Blank and BOM-only lines, undecodable bytes inside a line, and a gzip
# file's first bytes.
_ODD_LINES = [
    b"", b" ", codecs.BOM_UTF8, b" \xef\xbb\xbf\t", b"[X] ||| \xff ||| rock ||| A=1", b"\xe2\x82", b"\x1f\x8b\x08\x00",
]
# Files with or without a BOM; each line ends in "\n", "\r\n", "\r" or
# nothing, which joins it to the next or leaves the file's last line open.
_LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r", b""])
_PPDB_FILES = st.tuples(
    st.sampled_from([b"", codecs.BOM_UTF8]),
    st.lists(st.tuples(st.one_of(_ppdb_line(), _ppdb_line(), st.sampled_from(_ODD_LINES)), _LINE_ENDS), max_size=10),
).map(lambda file: file[0] + b"".join(line + end for line, end in file[1]))

# No keep; an empty one; the first parts `mine` keeps; phrases no line of
# plain tokens can be; and the tokens of punctuated phrases above.
_KEEPS = [
    None,
    frozenset(),
    frozenset(e.parts[0] for e in load_inventory()),
    frozenset({("Because",), ("café",), ("a|b",)}),
    frozenset({("that", ","), ("u", ".", "s", "."), ("a", "-")}),
]


def _outcome(load, path, min_score, keep):
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            store = load(path, min_score=min_score, keep=keep)
        except InputError as exc:
            return None, None, err.getvalue(), str(exc)
    return store._by_source, store.skipped, err.getvalue(), None


@settings(max_examples=200, deadline=None)
@given(_PPDB_FILES, st.sampled_from([0.0, 2.0]))
@example(b"[X] ||| rock ||| rock ||| A=1\n", 0.0)
@example(b"[X] ||| rock ||| though ||| A=1\n", 0.0)
@example(b"[X] ||| Though ||| rock ||| A=1\n", 0.0)
@example(b"[X] ||| in  short ||| rock ||| A=1\n", 0.0)
@example(b"\x1f\x8b\x08\x00\n", 0.0)
def test_load_ppdb_matches_its_per_line_reference(tmp_path_factory, data, min_score):
    # Whatever its pattern blanks, load_ppdb gives the store, skip count,
    # warnings and error of the per-line reference, at every block size.
    path = tmp_path_factory.mktemp("ppdb") / "ppdb"
    path.write_bytes(data)
    for keep in _KEEPS:
        expected = _outcome(_reference_load_ppdb, path, min_score, keep)
        for chars in (1, 7, text._BLOCK_CHARS):
            with mock.patch.object(text, "_BLOCK_CHARS", chars):
                assert _outcome(load_ppdb, path, min_score, keep) == expected
