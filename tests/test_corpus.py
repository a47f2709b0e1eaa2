import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altlex_miner import cli
from altlex_miner.corpus import (
    AgreementTable,
    align_articles,
    cohen_kappa,
    compute_idf,
    load_agreement_tsv,
    load_aligned_tsv,
    list_article_dir,
    load_article_dir,
    read_aligned_rows,
    tfidf_cosine,
)
from altlex_miner.mining import ChangeCase
from altlex_miner.text import InputError, tokenize

from conftest import UNICODE_LINE_BREAKS, WOODCUTS_COMPLEX, WOODCUTS_SIMPLE
from test_mining import _categorize


def test_load_aligned_tsv_two_lines(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a b\tc d\ne f\tg h\n", encoding="utf-8")
    pairs = load_aligned_tsv(path)
    assert len(pairs) == 2
    assert pairs[0].similarity == 1.0
    assert pairs[0].source_id == "1"
    assert pairs[1].complex.surface_forms == ("e", "f")


def test_load_aligned_tsv_strips_utf8_bom(tmp_path, inventory):
    # A BOM read as text would become token 0 and hide the sentence-initial
    # connective, moving the pair from Exp-NonExp to NonExp-NonExp.
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "\ufeffAlthough the farmer watched the road, the storm crossed the river.\t"
        "The farmer watched the road. The storm crossed the river.\n",
        encoding="utf-8",
    )
    (pair,) = load_aligned_tsv(path)
    assert pair.complex.surface_forms[0] == "Although"
    assert _categorize(pair, inventory) == ChangeCase.EXP_NON_EXP


def test_load_aligned_tsv_malformed_line(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\nx\ty\tz\tw\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: line 2: "):
        load_aligned_tsv(path)


def test_read_aligned_rows_reads_what_align_writes(tmp_path):
    # A third field, the similarity ``align`` writes, is checked and
    # dropped; the source id stays the line number.
    path = tmp_path / "aligned.tsv"
    path.write_text("a\tb\t0.500000\nc\td\nE\tf\t1.000000\ng\th\t0\n", encoding="utf-8")
    assert list(read_aligned_rows(path)) == [("1", "a", "b"), ("2", "c", "d"), ("3", "E", "f"), ("4", "g", "h")]


@pytest.mark.parametrize(
    "similarity", ["", "nan", "inf", "-0.1", "1.5", "1.000001", "2", ".5", "x", "\u0660.5", " 0.5"]
)
def test_read_aligned_rows_rejects_a_bad_similarity(tmp_path, similarity):
    path = tmp_path / "aligned.tsv"
    path.write_text(f"a\tb\t0.5\nc\td\t{similarity}\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: line 2: similarity "):
        list(read_aligned_rows(path))


def test_read_aligned_rows_keeps_line_numbers_across_line_ends(tmp_path):
    # CR and CRLF end a line as LF does, as text-mode reading treats them;
    # the line number is the row's source id.
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"\xef\xbb\xbfa\tb\r\nc\td\re\tf\n\ng\th")
    assert list(read_aligned_rows(path)) == [("1", "a", "b"), ("2", "c", "d"), ("3", "e", "f"), ("5", "g", "h")]


def test_read_aligned_rows_invalid_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"\xef\xbb\xbfa\tb\r\nc\td\re\tf\nbad \xff\tg\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: line 4: invalid UTF-8$"):
        list(read_aligned_rows(path))


def test_load_aligned_tsv_woodcuts_pair(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"{WOODCUTS_COMPLEX}\t{WOODCUTS_SIMPLE}\n", encoding="utf-8")
    (pair,) = load_aligned_tsv(path)
    assert "whilst" in pair.complex.lower_forms


def test_load_aligned_tsv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_aligned_tsv(tmp_path / "nope.tsv")


def test_tfidf_identical_sentences():
    s = tokenize("the cat sat")
    idf = {"the": 1.0, "cat": 1.0, "sat": 1.0}
    assert tfidf_cosine(s, s, idf) == pytest.approx(1.0, abs=1e-12)


def test_tfidf_disjoint_vocabulary():
    idf = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
    assert tfidf_cosine(tokenize("a b"), tokenize("c d"), idf) == 0.0


def test_tfidf_derived_value():
    # Independent hand-computed oracle: dot = 0.1*0.1 + 1*1 = 1.01,
    # both squared norms = 0.01 + 1 + 4 = 5.01, cosine = 1.01/5.01.
    idf = {"the": 0.1, "cat": 1.0, "sat": 2.0, "ran": 2.0}
    got = tfidf_cosine(tokenize("the cat sat"), tokenize("the cat ran"), idf)
    assert got == pytest.approx(0.20159680638722555, abs=1e-15)


def test_tfidf_empty_vector():
    idf = {"a": 1.0}
    assert tfidf_cosine(tokenize(""), tokenize("a"), idf) == 0.0


@given(
    st.lists(st.sampled_from("abcde"), min_size=0, max_size=8),
    st.lists(st.sampled_from("abcde"), min_size=0, max_size=8),
)
def test_tfidf_symmetric(words_a, words_b):
    a, b = tokenize(" ".join(words_a)), tokenize(" ".join(words_b))
    idf = {c: 0.5 + i for i, c in enumerate("abcde")}
    assert tfidf_cosine(a, b, idf) == tfidf_cosine(b, a, idf)


def _sentences(raws):
    return tuple(tokenize(r) for r in raws)


def test_align_identical_articles():
    raws = ["the red fox ran.", "a cold night fell.", "we watched the stars."]
    pairs = align_articles(_sentences(raws), _sentences(raws), "a", 1, threshold=0.5)
    assert len(pairs) == 3
    for i, pair in enumerate(pairs):
        assert pair.similarity == pytest.approx(1.0, abs=1e-9)
        assert pair.complex.raw == raws[i]
        assert pair.source_id == f"a:1:{i}"


def test_align_drops_dissimilar():
    complex_a = _sentences(["the red fox ran fast."])
    simple_a = _sentences(["nothing shared here whatsoever."])
    assert align_articles(complex_a, simple_a, "a", 1, threshold=0.5) == []


def test_align_three_by_three_matches_bruteforce():
    complex_raws = [
        "the red fox ran through the forest.",
        "heavy rain flooded the village square.",
        "astronomers mapped the bright comet trail.",
    ]
    simple_raws = [
        "the fox ran through the forest.",
        "rain flooded the village.",
        "astronomers mapped the comet.",
    ]
    ca = _sentences(complex_raws)
    sa = _sentences(simple_raws)
    pairs = align_articles(ca, sa, "t", 1, threshold=0.5)

    # Exhaustive 9-pair oracle: argmax per simple sentence with threshold.
    idf = compute_idf(list(ca) + list(sa))
    expected = []
    for si, s in enumerate(sa):
        sims = [tfidf_cosine(s, c, idf) for c in ca]
        best = max(range(3), key=lambda i: (sims[i], -i))
        if sims[best] >= 0.5:
            expected.append((best, si, sims[best]))
    assert [(complex_raws.index(p.complex.raw), int(p.source_id.split(":")[2])) for p in pairs] == [
        (b, s) for b, s, _ in expected
    ]
    for pair, (_, _, sim) in zip(pairs, expected):
        assert pair.similarity == pytest.approx(sim, abs=1e-12)
    assert len(pairs) == 3


def test_align_threshold_monotonic():
    rng = random.Random(7)
    vocab = ["sun", "moon", "tide", "wind", "leaf", "stone", "bird", "rain"]
    make = lambda: " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
    ca = _sentences([make() for _ in range(5)])
    sa = _sentences([make() for _ in range(5)])
    counts = [len(align_articles(ca, sa, "m", 1, threshold=t)) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert counts == sorted(counts, reverse=True)


def test_align_empty_article():
    assert align_articles(_sentences([]), _sentences(["a b."]), "e", 1, 0.5) == []


def test_align_output_similarities_above_threshold():
    rng = random.Random(3)
    vocab = ["alpha", "beta", "gamma", "delta"]
    make = lambda: " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
    ca = _sentences([make() for _ in range(4)])
    sa = _sentences([make() for _ in range(4)])
    for pair in align_articles(ca, sa, "x", 2, threshold=0.4):
        assert pair.similarity >= 0.4 - 1e-12


# Level 0 draws from three words and the simple levels from five, so some
# simple levels share no term with level 0 and the levels' vocabularies differ.
_COMPLEX_LEVEL = st.lists(
    st.lists(st.sampled_from(["sun", "moon", "tide"]), max_size=4).map(" ".join), max_size=6
)
_SIMPLE_LEVEL = st.lists(
    st.lists(st.sampled_from(["sun", "moon", "tide", "rock", "fern"]), max_size=4).map(" ".join),
    max_size=6,
)


def _reference_pairs(art_id, complex_raws, simple_levels, threshold):
    """What the brute-force reference aligns for one article, given its
    level-0 lines and ``(level, lines)`` simplified levels in order: each
    pair's ``(source id, level-0 line index, similarity)``."""
    cx = [tokenize(r) for r in complex_raws]
    expected = []
    for level, raws in simple_levels:
        sx = [tokenize(r) for r in raws]
        idf = compute_idf(cx + sx)
        for si, s in enumerate(sx if cx else ()):
            row = [tfidf_cosine(s, c, idf) for c in cx]
            best = max(row)
            if best >= threshold:
                expected.append((f"{art_id}:{level}:{si}", row.index(best), min(best, 1.0)))
    return expected


@given(_COMPLEX_LEVEL, st.lists(_SIMPLE_LEVEL, min_size=1, max_size=4), st.sampled_from([0.0, 1.0]))
@example(["sun moon", "tide"], [[], ["rock fern", "rock"], ["sun", "", "moon tide"]], 0.0)
@example(["sun", "sun sun", "sun moon"], [["sun sun sun", "sun"], ["fern"]], 1.0)
@example([], [["sun"]], 0.0)
def test_align_articles_equals_per_level_reference(complex_raws, simple_levels, threshold):
    # Each level aligned against level 0 must give, bit for bit, what the
    # brute-force reference gives.
    cx = _sentences(complex_raws)
    got = [
        (p.source_id, next(i for i, c in enumerate(cx) if c is p.complex), p.similarity)
        for level, raws in enumerate(simple_levels, start=1)
        for p in align_articles(cx, _sentences(raws), "p", level, threshold)
    ]
    assert got == _reference_pairs("p", complex_raws, enumerate(simple_levels, start=1), threshold)


# A file's lines: sentences, and blank lines the reader skips, so that a
# level can be empty, all blank or mixed.
_FILE_LINES = st.lists(
    st.one_of(
        st.sampled_from(["", " \t"]),
        st.lists(st.sampled_from(["sun", "moon", "tide", "rock", "fern"]), min_size=1, max_size=4).map(" ".join),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_FILE_LINES, st.dictionaries(st.integers(1, 5), _FILE_LINES, max_size=5)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([0.0, 0.5, 1.0]),
)
@example(
    [
        (["sun moon", "", "tide"], {1: ["sun", "moon tide"], 2: [], 3: ["", " \t"], 4: ["rock"], 5: ["tide", "sun"]}),
        ([" \t"], {1: ["sun"], 5: ["moon"]}),
        (["sun sun", "sun", "moon"], {2: ["sun", "fern", "sun moon"], 3: []}),
    ],
    0.0,
)
def test_cli_align_over_article_files_equals_per_level_reference(articles, threshold):
    # Reading level by level from written files must give the reference's
    # pairs, in article then level order, with the same similarity bits.
    sentences = lambda lines: [line for line in lines if line.strip()]
    expected, originals = [], {}
    with tempfile.TemporaryDirectory() as root:
        for i, (original, simplified) in enumerate(articles):
            art_id = f"a{i}"
            for level, lines in {0: original, **simplified}.items():
                text = "".join(f"{line}\n" for line in lines)
                Path(root, f"{art_id}.{level}.txt").write_text(text, encoding="utf-8")
            originals[art_id] = sentences(original)
            levels = [(level, sentences(simplified[level])) for level in sorted(simplified)]
            expected += _reference_pairs(art_id, originals[art_id], levels, threshold)
        got = [
            (p.source_id, originals[p.source_id.split(":")[0]].index(p.complex.raw), p.similarity)
            for p in cli._align(cli._list_articles(root), threshold)
        ]
    assert got == expected


def test_load_article_dir(tmp_path):
    (tmp_path / "story.0.txt").write_text("one two.\nthree four.\n", encoding="utf-8")
    (tmp_path / "story.1.txt").write_text("one two.\n", encoding="utf-8")
    (tmp_path / "README").write_text("ignore me", encoding="utf-8")
    articles = load_article_dir(tmp_path)
    assert set(articles) == {"story"}
    assert set(articles["story"]) == {0, 1}
    assert len(articles["story"][0]) == 2


@pytest.mark.parametrize("sep", UNICODE_LINE_BREAKS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_article_lines_end_only_at_newline(tmp_path, sep):
    # One line holding the separator is one sentence, so the source ids of
    # the lines after it do not shift.
    (tmp_path / "s.0.txt").write_text(f"one{sep}two.\nthree four.\n", encoding="utf-8")
    (tmp_path / "s.1.txt").write_text(f"one{sep}two.\r\nthree four.\n", encoding="utf-8")
    levels = load_article_dir(tmp_path)["s"]
    assert [s.raw for s in levels[1]] == [f"one{sep}two.", "three four."]
    pairs = align_articles(levels[0], levels[1], "s", 1, threshold=0.5)
    assert [(p.source_id, p.complex.raw) for p in pairs] == [
        ("s:1:0", f"one{sep}two."),
        ("s:1:1", "three four."),
    ]


def test_article_file_name_must_match_whole(tmp_path):
    # A name that ends in a newline after ".txt" is no article file; read
    # as one, it would be a second file for level 1 of "a".
    for name in ("a.0.txt", "a.1.txt", "a.1.txt\n", "b.0.txt\n"):
        (tmp_path / name).write_text("One line.\n", encoding="utf-8")
    assert list_article_dir(tmp_path) == {"a": {0: str(tmp_path / "a.0.txt"), 1: str(tmp_path / "a.1.txt")}}


def test_load_article_dir_not_a_dir(tmp_path):
    with pytest.raises(InputError):
        load_article_dir(tmp_path / "missing")


def test_kappa_perfect_agreement():
    assert cohen_kappa(AgreementTable(both_yes=50, both_no=50)) == 1.0


def test_kappa_chance_level():
    table = AgreementTable(both_yes=25, both_no=25, a_yes_b_no=25, a_no_b_yes=25)
    assert cohen_kappa(table) == 0.0


def test_kappa_derived_value():
    # Hand-computed: p_o = 0.85, p_e = 0.48*0.47 + 0.52*0.53 = 0.5012,
    # kappa = 0.3488/0.4988.
    table = AgreementTable(both_yes=40, both_no=45, a_yes_b_no=8, a_no_b_yes=7)
    assert cohen_kappa(table) == pytest.approx(0.6992782678428228, abs=1e-9)


def test_kappa_empty_table():
    with pytest.raises(ValueError):
        cohen_kappa(AgreementTable())


def test_kappa_degenerate():
    assert cohen_kappa(AgreementTable(both_yes=10)) == 1.0
    assert cohen_kappa(AgreementTable(both_no=10)) == 1.0


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
)
def test_kappa_range_and_diagonal(yy, nn, yn, ny):
    table = AgreementTable(both_yes=yy, both_no=nn, a_yes_b_no=yn, a_no_b_yes=ny)
    if table.total == 0:
        return
    value = cohen_kappa(table)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
    if yn == 0 and ny == 0:
        assert value == pytest.approx(1.0)
    elif value == pytest.approx(1.0, abs=1e-12):
        assert yn == 0 and ny == 0


def test_load_agreement_tsv(tmp_path):
    path = tmp_path / "agree.tsv"
    path.write_text("p1\t1\t1\np2\t0\t0\np3\t1\t0\np4\t0\t1\n", encoding="utf-8")
    table = load_agreement_tsv(path)
    assert (table.both_yes, table.both_no, table.a_yes_b_no, table.a_no_b_yes) == (1, 1, 1, 1)


def test_load_agreement_tsv_malformed(tmp_path):
    path = tmp_path / "agree.tsv"
    path.write_text("p1\t1\t1\np2\t2\t0\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: line 2: "):
        load_agreement_tsv(path)
