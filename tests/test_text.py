import codecs
import os
import threading
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altlex_miner.text import TokenSpan, match_phrase, read_lines, tokenize


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


@given(
    st.lists(st.sampled_from("abc"), max_size=8),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
)
def test_match_phrase_equals_brute_force(letters, phrase):
    # Phrases longer than the sentence are included: they must match nowhere.
    s = tokenize(" ".join(letters))
    width = len(phrase)
    expected = [
        TokenSpan(i, i + width)
        for i in range(len(s) - width + 1)
        if s.lower_forms[i : i + width] == tuple(phrase)
    ]
    assert match_phrase(s, phrase) == expected
    assert match_phrase(s, tuple(phrase)) == expected


class _BadInput(Exception):
    pass


def _spec_lines(data):
    """What ``read_lines`` must give for ``data``, written from its
    contract: ([(line number, line), ...] of the non-blank lines, number of
    the line holding the first undecodable byte or None)."""
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    try:
        text, bad_line = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text = data[: exc.start].decode("utf-8")
        bad_line = text.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    kept = [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]
    if bad_line is not None:
        kept = [(n, line) for n, line in kept if n < bad_line]
    return kept, bad_line


# BOMs, every line end, characters that end a line for str.splitlines but
# not in a file, whitespace, invalid and truncated UTF-8, and lines long
# enough to cross the 8 KiB chunks text mode decodes in; 8191 bytes put a
# following "\r\n" across the first chunk boundary.
_PIECES = [
    b"a", b"b c", b" ", b"\t", b"\n", b"\r", b"\r\n", codecs.BOM_UTF8,
    "\u2028".encode(), "\x85".encode(), b"\f", b"\v", b"\x1c", "\xe9".encode(), "\u20ac".encode(),
    b"\xff", b"\xe2\x82", b"\xc3", b"x" * 8191, b"y" * 9000,
]


@contextmanager
def _pipe_of(data):
    """A ``/dev/fd`` path to the read end of a pipe that a thread writes
    ``data`` into, as a shell's ``<(...)`` gives: the bytes can be read
    once, in chunks as the pipe passes them on."""
    read_end, write_end = os.pipe()

    def write():
        try:
            with open(write_end, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at an undecodable byte
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)  # the last read end: a blocked write fails
        writer.join(timeout=10)
        assert not writer.is_alive()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join))
@example(b"x" * 8191 + b"\r\nb\rc")
@example(b"x" * 8191 + b"\r" + b"\xff")
@example(b"x" * 8191 + b"\r\n" + b"\xff")
@example(b"x" * 8190 + "\u20ac".encode() + b"\n\xff")
@example(codecs.BOM_UTF8 + codecs.BOM_UTF8 + b"a\n \n")
@example(b"\xef\xbb")
def test_read_lines_matches_its_spec(tmp_path_factory, data):
    # Over a file and over a pipe, whose bytes cannot be read again to find
    # an undecodable byte's line.
    root = tmp_path_factory.mktemp("read_lines")
    file = root / "input.txt"
    file.write_bytes(data)
    for source in (nullcontext(file), _pipe_of(data)):
        with source as path:
            expected, bad_line = _spec_lines(data)
            got = []
            try:
                for item in read_lines(path, _BadInput):
                    got.append(item)
            except _BadInput as exc:
                assert bad_line is not None
                assert str(exc) == f"{path}: line {bad_line}: invalid UTF-8"
                # Lines before the bad one may already have been yielded, as read.
                assert got == expected[: len(got)]
            else:
                assert bad_line is None
                assert got == expected
