import pytest
from hypothesis import given
from hypothesis import strategies as st

from altlex_miner.text import TokenSpan, match_phrase, tokenize


def surfaces(sentence):
    return [t.surface for t in sentence.tokens]


def test_punctuation_split():
    assert surfaces(tokenize("He ran, but fell.")) == ["He", "ran", ",", "but", "fell", "."]


def test_empty_input():
    assert tokenize("").tokens == ()
    assert tokenize("   \t\n").tokens == ()


def test_span_reconstructs_raw():
    s = tokenize("used to check farm fields")
    assert len(s.tokens) == 5
    assert s.raw[s.tokens[0].char_start : s.tokens[1].char_end] == "used to"


def test_offsets_address_surface():
    s = tokenize('She said: "African-Americans don\'t wait."')
    for tok in s.tokens:
        assert s.raw[tok.char_start : tok.char_end] == tok.surface
        assert tok.lowercased == tok.surface.lower()


def test_clitics_and_hyphens_stay_single_tokens():
    assert surfaces(tokenize("it's don't African-Americans")) == [
        "it's",
        "don't",
        "African-Americans",
    ]


def test_tokens_strictly_ordered():
    s = tokenize("a (b) c; d!")
    starts = [t.char_start for t in s.tokens]
    assert starts == sorted(starts)
    for prev, cur in zip(s.tokens, s.tokens[1:]):
        assert prev.char_end <= cur.char_start


@given(st.text(max_size=200))
def test_round_trip(raw):
    first = [t.surface for t in tokenize(raw).tokens]
    again = [t.surface for t in tokenize(" ".join(first)).tokens]
    assert first == again


@given(st.text(max_size=200))
def test_deterministic(raw):
    assert tokenize(raw) == tokenize(raw)


# Text mixing arbitrary characters with ones whose case mapping changes
# length or splits them: "İ".lower() has two code points, "ß".upper() and
# "ﬁ".upper() have two letters.
_CASE_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from("İßﬁ -'"), st.characters()), max_size=200
)


@given(_CASE_TEXT)
def test_lower_forms_lowercase_each_surface(raw):
    s = tokenize(raw)
    assert len(s.lower_forms) == len(s.surface_forms) == len(s)
    for surface, lower in zip(s.surface_forms, s.lower_forms):
        assert lower == surface.lower()


@given(_CASE_TEXT)
def test_token_view_offsets_address_surfaces(raw):
    s = tokenize(raw)
    assert tuple(t.surface for t in s.tokens) == s.surface_forms
    assert tuple(t.lowercased for t in s.tokens) == s.lower_forms
    for t in s.tokens:
        assert s.raw[t.char_start : t.char_end] == t.surface


def test_match_phrase_single():
    s = tokenize("He used to check fields")
    assert match_phrase(s, ["used", "to"]) == [TokenSpan(1, 3)]


def test_match_phrase_multiple():
    s = tokenize("a b a b")
    assert match_phrase(s, ["a", "b"]) == [TokenSpan(0, 2), TokenSpan(2, 4)]


def test_match_phrase_absent():
    assert match_phrase(tokenize("a b c"), ["zzz"]) == []


def test_match_phrase_case_insensitive():
    assert match_phrase(tokenize("When the rain came"), ["when"]) == [TokenSpan(0, 1)]


def test_match_phrase_rejects_empty():
    with pytest.raises(ValueError):
        match_phrase(tokenize("a"), [])


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=12))
def test_match_phrase_spans_sorted_unique_starts(letters):
    s = tokenize(" ".join(letters))
    spans = match_phrase(s, ["a", "b"])
    starts = [sp.start for sp in spans]
    assert starts == sorted(starts)
    assert len(starts) == len(set(starts))
    for sp in spans:
        assert s.lowers(sp) == ("a", "b")
