import codecs
import os
import string
import threading
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altlex_miner import text
from altlex_miner.text import InputError, TokenSpan, match_phrase, read_blocks, read_lines, tokenize


def surfaces(sentence):
    return list(sentence.surface_forms)


def test_punctuation_split():
    assert surfaces(tokenize("He ran, but fell.")) == ["He", "ran", ",", "but", "fell", "."]


def test_empty_input():
    assert tokenize("").surface_forms == ()
    assert tokenize("   \t\n").surface_forms == ()


def test_clitics_and_hyphens_stay_single_tokens():
    assert surfaces(tokenize("it's don't African-Americans")) == [
        "it's",
        "don't",
        "African-Americans",
    ]


def test_stray_bom_is_no_token():
    # U+FEFF inside a file, as concatenating two files that begin with a
    # BOM leaves it, would hide a sentence-initial connective as a token.
    assert surfaces(tokenize("\ufeffBecause it rained, we left.")) == surfaces(tokenize("Because it rained, we left."))
    assert surfaces(tokenize("a\ufeffb \ufeff")) == ["a", "b"]


@given(st.text(max_size=200))
def test_round_trip(raw):
    first = tokenize(raw).surface_forms
    again = tokenize(" ".join(first)).surface_forms
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


# ASCII text with capitals, the characters a token may hold or end at, and
# the ASCII controls that ``str.isspace`` takes for whitespace.
_ASCII_TEXT = st.text(alphabet=string.ascii_letters + string.digits + "_-'. \x0b\x0c\x1c\x1d\x1e\x1f", max_size=80)
# The same with one piece that is not ASCII. Lowercasing the whole text
# gets two of them wrong: "İ" lowers to two code points, the second no word
# character; the sigma of "ΟΔΟΣ.Α" is final in its token but not in the
# string. KELVIN SIGN lowers to ASCII "k".
_MOSTLY_ASCII_TEXT = st.tuples(_ASCII_TEXT, st.sampled_from(["İ", "\u212a", "ΟΔΟΣ.Α"]), _ASCII_TEXT).map("".join)


@given(st.one_of(_ASCII_TEXT, _MOSTLY_ASCII_TEXT))
@example("ΟΔΟΣ.Α")
@example("aİb")
@example("Why-Not O'Brien.\x1cX")
def test_tokenize_lowercases_each_token_on_its_own(raw):
    # Lowercasing the whole text would give ASCII text the same tokens, but
    # not text holding one of these pieces.
    tokens = tuple(text._TOKEN_RE.findall(raw))
    s = tokenize(raw)
    assert s.lower_forms == tuple(t.lower() for t in tokens)
    assert s.surface_forms == tokens
    assert s.first_surface == (tokens[0] if tokens else "")


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
        assert s.lower_forms[sp.start : sp.end] == ("a", "b")


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


def _spec_lines(data):
    """What ``read_lines`` must give for ``data``, written from its
    contract: ([(line number, line), ...] of the lines holding more than
    whitespace and U+FEFF, number of the line holding the first
    undecodable byte or None)."""
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    try:
        text, bad_line = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text = data[: exc.start].decode("utf-8")
        bad_line = text.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    kept = [(n, line) for n, line in enumerate(lines, start=1) if line.replace("\ufeff", "").strip()]
    if bad_line is not None:
        kept = [(n, line) for n, line in kept if n < bad_line]
    return kept, bad_line


# BOMs, every line end, characters that end a line for str.splitlines but
# not in a file, whitespace, invalid and truncated UTF-8, and lines long
# enough to cross the 8 KiB chunks text mode decodes in; 8191 bytes put a
# following "\r\n" across the first chunk boundary. Blocks of 1 and 7
# characters put a block seam inside a "\r\n", a multi-byte character, a
# BOM and an undecodable sequence.
_BLOCK_SIZES = (1, 7, text._BLOCK_CHARS)
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
@example(b"a\n" + codecs.BOM_UTF8 + b"\n \t" + codecs.BOM_UTF8 + "\u2028".encode() + b"\nb")
@example(b"\xef\xbb")
def test_read_lines_matches_its_spec(tmp_path_factory, data):
    # Over a file and over a pipe, whose bytes cannot be read again to find
    # an undecodable byte's line, at every block size.
    root = tmp_path_factory.mktemp("read_lines")
    file = root / "input.txt"
    file.write_bytes(data)
    for chars in _BLOCK_SIZES:
        for source in (nullcontext(file), _pipe_of(data)):
            with mock.patch.object(text, "_BLOCK_CHARS", chars), source as path:
                expected, bad_line = _spec_lines(data)
                got = []
                try:
                    for item in read_lines(path):
                        got.append(item)
                except InputError as exc:
                    assert bad_line is not None
                    assert str(exc) == f"{path}: line {bad_line}: invalid UTF-8"
                    # Every line before the bad one has been yielded, as read.
                    assert got == expected
                else:
                    assert bad_line is None
                    assert got == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join), st.sampled_from(_BLOCK_SIZES))
@example(codecs.BOM_UTF8, 1)
@example(codecs.BOM_UTF8 + b"a", 1)
@example(b"a\r\nb\xe2\x82\xacc\r", 7)
@example(b"x" * 8191 + b"\r\n" + b"\xff", 7)
def test_read_blocks_are_the_translated_text_in_whole_lines(tmp_path_factory, data, chars):
    # The text as read_blocks must give it, from its contract: without a
    # leading BOM, every line end a "\n", the last line ended too, and cut
    # before the line holding the first undecodable byte.
    _, bad_line = _spec_lines(data)
    translated = data.decode("utf-8", "surrogateescape").removeprefix("\ufeff")
    lines = translated.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    expected = "".join(line + "\n" for line in lines[: None if bad_line is None else bad_line - 1])
    path = tmp_path_factory.mktemp("read_blocks") / "input.txt"
    path.write_bytes(data)
    blocks = []
    with mock.patch.object(text, "_BLOCK_CHARS", chars):
        try:
            for block in read_blocks(path):
                blocks.append(block)
        except InputError as exc:
            assert str(exc) == f"{path}: line {bad_line}: invalid UTF-8"
        else:
            assert bad_line is None
    assert "".join(block for _, block in blocks) == expected
    first = 1
    for number, block in blocks:
        assert number == first and block.endswith("\n")
        first += block.count("\n")
