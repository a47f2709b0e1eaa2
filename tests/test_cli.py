import collections
import contextlib
import errno
import gc
import gzip
import io
import json
import multiprocessing
import os
import pickle
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altlex_miner import SentencePair, Sentence, cli, load_ppdb, load_synonyms
from altlex_miner.cli import main, percent_rows

from conftest import (
    WOODCUTS_COMPLEX,
    WOODCUTS_SIMPLE,
    BROADCAST_COMPLEX,
    BROADCAST_SIMPLE,
    LANDMARK_COMPLEX,
    LANDMARK_SIMPLE,
    COMICS_COMPLEX,
    COMICS_SIMPLE,
    COMICS_COMPLEX_SUBSTITUTED,
    DRONES_COMPLEX,
    DRONES_SIMPLE,
    PPDB_FIXTURE_LINES,
    SYNONYM_FIXTURE_LINES,
    UNICODE_LINE_BREAKS,
)

EXAMPLE_ROWS = [
    (WOODCUTS_COMPLEX, WOODCUTS_SIMPLE),
    (BROADCAST_COMPLEX, BROADCAST_SIMPLE),
    (LANDMARK_COMPLEX, LANDMARK_SIMPLE),
    (COMICS_COMPLEX, COMICS_SIMPLE),
]


@pytest.fixture
def example_corpus(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("".join(f"{c}\t{s}\n" for c, s in EXAMPLE_ROWS), encoding="utf-8")
    return path


def _mine_args(corpus, out_dir, ppdb, synonyms, extra=()):
    return [
        "mine",
        str(corpus),
        "--ppdb",
        str(ppdb),
        "--synonyms",
        str(synonyms),
        "--output-dir",
        str(out_dir),
        *extra,
    ]


def test_mine_example_corpus(tmp_path, example_corpus, ppdb_file, synonym_file, capsys):
    out = tmp_path / "out"
    assert main(_mine_args(example_corpus, out, ppdb_file, synonym_file)) == 0
    cases = (out / "cases.tsv").read_text().splitlines()
    assert cases[0] == "case\tcount\tpercent"
    rows = [line.split("\t") for line in cases[1:]]
    by_name = {r[0]: r for r in rows}
    assert by_name["NonExp-Exp"][1] == "2"
    assert by_name["Exp-NonExp"][1] == "2"
    assert by_name["Total"][1] == "4"
    assert sum(int(r[1]) for r in rows if r[0] != "Total") == 4

    altlex_lines = (out / "altlexes.tsv").read_text().splitlines()
    assert len(altlex_lines) == 2
    fields = altlex_lines[1].split("\t")
    assert fields[:4] == ["despite", "Contrast", "PPDB", "1"]
    assert fields[4] == "2"  # Contrast alignments
    assert fields[5] == "4"  # line number of the comics row

    payload = json.loads((out / "altlexes.json").read_text())
    assert payload["total_pairs"] == 4
    assert payload["cases"]["NonExp-Exp"] == 2
    assert payload["altlexes"][0]["text"] == "despite"


def test_mine_empty_corpus(tmp_path, ppdb_file, synonym_file, capsys):
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(_mine_args(corpus, out, ppdb_file, synonym_file)) == 0
    cases = (out / "cases.tsv").read_text().splitlines()
    assert all(line.split("\t")[1] == "0" for line in cases[1:])
    payload = json.loads((out / "altlexes.json").read_text())
    assert payload["altlexes"] == []


def test_mine_percentages_sum(tmp_path, example_corpus, ppdb_file, synonym_file):
    out = tmp_path / "out"
    main(_mine_args(example_corpus, out, ppdb_file, synonym_file))
    rows = (out / "cases.tsv").read_text().splitlines()[1:]
    total = sum(float(r.split("\t")[2]) for r in rows if not r.startswith("Total"))
    assert abs(total - 100.0) < 0.01


def test_mine_deterministic_across_worker_counts(
    tmp_path, example_corpus, ppdb_file, synonym_file, monkeypatch, pool_starts
):
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 1)  # four tasks, so eight workers start a pool
    outputs = []
    for workers in ("1", "8"):
        out = tmp_path / f"out{workers}"
        code = main(
            _mine_args(example_corpus, out, ppdb_file, synonym_file, ("--workers", workers))
        )
        assert code == 0
        outputs.append(
            tuple((out / name).read_bytes() for name in ("cases.tsv", "altlexes.tsv", "altlexes.json"))
        )
    assert outputs[0] == outputs[1]
    assert pool_starts == [2]


# Rows whose outputs are pinned byte for byte. Rows 1 and 2 give a
# Contrast tie at one token each, listed before row 2's "despite" sorts
# first; rows 5, 6 and 7 are the three Other kinds.
_GOLDEN_ROWS = [
    (WOODCUTS_COMPLEX, WOODCUTS_SIMPLE),  # NonExp-Exp: "whilst", from the lexicon
    (COMICS_COMPLEX, COMICS_SIMPLE),  # NonExp-Exp: "despite", from PPDB
    (DRONES_COMPLEX, DRONES_SIMPLE),  # Exp-NonExp: "used to"
    (LANDMARK_COMPLEX, LANDMARK_SIMPLE),  # Exp-NonExp, no match verified
    (COMICS_SIMPLE, WOODCUTS_SIMPLE),  # SameRel-DiffConn
    (BROADCAST_COMPLEX, LANDMARK_COMPLEX),  # DiffRel-DiffConn
    (f"{DRONES_COMPLEX} {COMICS_SIMPLE}", BROADCAST_SIMPLE),  # Multiple
    (BROADCAST_SIMPLE, COMICS_COMPLEX),  # NonExp-NonExp
    (COMICS_SIMPLE, COMICS_COMPLEX_SUBSTITUTED),  # Exp-Exp
    (DRONES_SIMPLE, DRONES_COMPLEX),  # NonExp-Exp: "used to" again
    (BROADCAST_COMPLEX, BROADCAST_SIMPLE),  # Exp-NonExp, no match verified
]
_GOLDEN_CASES = """\
case\tcount\tpercent
NonExp-NonExp\t1\t9.09
Exp-Exp\t1\t9.09
NonExp-Exp\t3\t27.28
Exp-NonExp\t3\t27.27
Other\t3\t27.27
Total\t11\t100.00
"""
_GOLDEN_ALTLEXES = """\
text\tsense\tresource\ttoken_count\tsense_alignments\texample_pair_ids
used to\tAsynchronous\tPPDB\t2\t2\t3;10
despite\tContrast\tPPDB\t1\t2\t2
whilst\tContrast\tSynonymLexicon\t1\t2\t1
"""
_GOLDEN_JSON = {
    "total_pairs": 11,
    "cases": {"NonExp-NonExp": 1, "Exp-Exp": 1, "NonExp-Exp": 3, "Exp-NonExp": 3, "Other": 3},
    "other_breakdown": {"SameRel-DiffConn": 1, "DiffRel-DiffConn": 1, "Multiple": 1},
    "sense_alignments": {
        "Asynchronous": 2, "Synchrony": 1, "Cause": 1, "Condition": 0, "Contrast": 2, "Concession": 0,
        "Conjunction": 0, "Instantiation": 0, "Restatement": 0, "Alternative": 0, "Exception": 0, "List": 0,
    },
    "altlexes": [
        {"text": "used to", "sense": "Asynchronous", "resource": "PPDB", "token_count": 2,
         "example_pair_ids": ["3", "10"]},
        {"text": "despite", "sense": "Contrast", "resource": "PPDB", "token_count": 1, "example_pair_ids": ["2"]},
        {"text": "whilst", "sense": "Contrast", "resource": "SynonymLexicon", "token_count": 1,
         "example_pair_ids": ["1"]},
    ],
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mine_outputs_are_pinned_byte_for_byte(tmp_path, ppdb_file, workers, capsys, monkeypatch, pool_starts):
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 4)  # three tasks, so two workers start a pool
    corpus = tmp_path / "pairs.tsv"
    corpus.write_text("".join(f"{c}\t{s}\n" for c, s in _GOLDEN_ROWS), encoding="utf-8")
    synonyms = tmp_path / "synonyms.tsv"
    synonyms.write_text("\n".join([*SYNONYM_FIXTURE_LINES, "but\twhilst"]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_mine_args(corpus, out, ppdb_file, synonyms, ("--workers", workers))) == 0
    assert (out / "cases.tsv").read_bytes() == _GOLDEN_CASES.encode()
    assert (out / "altlexes.tsv").read_bytes() == _GOLDEN_ALTLEXES.encode()
    assert (out / "altlexes.json").read_bytes() == (json.dumps(_GOLDEN_JSON, indent=2) + "\n").encode()
    assert capsys.readouterr().out == (
        "pairs: 11\naltlex types: 3\naltlex tokens: 4\n"
        f"wrote {out / 'cases.tsv'}, {out / 'altlexes.tsv'}, {out / 'altlexes.json'}\n"
    )
    assert pool_starts == ([] if workers == "1" else [2])


_OUTPUT_NAMES = ("cases.tsv", "altlexes.tsv", "altlexes.json")
# A BOM read as text would hide this sentence-initial connective.
_INITIAL_CONNECTIVE = "Although the farmer watched the road, the storm crossed the river."
# Sentences: the example sides, which mine AltLexes, that one, and short
# random ones that mix connectives with verbs.
_LINE = st.one_of(
    st.sampled_from([side for row in EXAMPLE_ROWS for side in row] + [_INITIAL_CONNECTIVE]),
    st.lists(
        st.sampled_from(["we", "left", "though", "because", "since", "despite", "it", "rained", ",", "."]),
        min_size=1,
        max_size=8,
    ).map(" ".join),
)
_LINE_ENDS = {"crlf": ("\r\n",), "cr": ("\r",), "mixed": ("\r\n", "\r", "\n"), "lf": ("\n",)}


def _encode(lines, bom, ends):
    """The lines as UTF-8 bytes, line i ended by ``ends[i % len(ends)]``."""
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    return ("\ufeff" if bom else "").encode() + text.encode("utf-8")


def _write_input(root, kind, files, bom, ends):
    """Write ``files`` ({name: lines}) as one TSV or as an article dir."""
    root.mkdir()
    for name, lines in files.items():
        (root / name).write_bytes(_encode(lines, bom, ends))
    return root / "pairs.tsv" if kind == "tsv" else root


def _mined_outputs(path, out, ppdb_file, synonym_file, workers):
    extra = ("--workers", workers, "--threshold", "0.3")
    assert main(_mine_args(path, out, ppdb_file, synonym_file, extra)) == 0
    return tuple((out / name).read_bytes() for name in _OUTPUT_NAMES)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["tsv", "articles"]),
    complex_lines=st.lists(_LINE, min_size=1, max_size=6),
    simple_lines=st.lists(_LINE, min_size=1, max_size=6),
    bom=st.booleans(),
    style=st.sampled_from(["crlf", "cr", "mixed"]),
)
@example(
    kind="tsv",
    complex_lines=[_INITIAL_CONNECTIVE, COMICS_COMPLEX],
    simple_lines=[BROADCAST_SIMPLE, COMICS_SIMPLE],
    bom=True,
    style="mixed",
)
@example(
    kind="articles",
    complex_lines=[_INITIAL_CONNECTIVE, COMICS_COMPLEX],
    simple_lines=[_INITIAL_CONNECTIVE, COMICS_SIMPLE],
    bom=True,
    style="cr",
)
def test_line_ends_do_not_change_outputs(
    ppdb_file, synonym_file, kind, complex_lines, simple_lines, bom, style
):
    # A BOM and CR, CRLF or mixed line ends read as the LF form does, with
    # one worker and with two, mining one row or article a task.
    if kind == "tsv":
        files = {"pairs.tsv": [f"{c}\t{s}" for c, s in zip(complex_lines, simple_lines)]}
    else:  # two articles, so two workers each get one
        files = {
            "a.0.txt": complex_lines,
            "a.1.txt": simple_lines,
            "a.2.txt": complex_lines[::-1],
            "b.0.txt": simple_lines,
            "b.1.txt": complex_lines,
        }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lf = _write_input(tmp / "lf", kind, files, False, _LINE_ENDS["lf"])
        expected = _mined_outputs(lf, tmp / "out-lf", ppdb_file, synonym_file, "1")
        other = _write_input(tmp / "other", kind, files, bom, _LINE_ENDS[style])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_ROWS_PER_TASK", 1)
            patch.setattr(cli.os, "cpu_count", lambda: 2)
            for workers in ("1", "2"):
                assert _mined_outputs(other, tmp / f"out{workers}", ppdb_file, synonym_file, workers) == expected


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched mine_corpus",
)
def test_mine_crashed_worker_is_input_error(
    tmp_path, example_corpus, ppdb_file, synonym_file, monkeypatch, capsys, pool_starts
):
    test_process = os.getpid()

    def crash(*args, **kwargs):
        assert os.getpid() != test_process, "mined in the test's own process, not a worker"
        os._exit(3)

    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 2)  # two tasks
    monkeypatch.setattr(cli, "mine_corpus", crash)
    args = _mine_args(example_corpus, tmp_path / "out", ppdb_file, synonym_file, ["--workers", "2"])
    assert main(args) == 2
    assert "error: mining worker process exited unexpectedly" in capsys.readouterr().err
    assert pool_starts == [2]


def _article_dir(tmp_path):
    # Level 0 holds the complex sides of the example rows and levels 1 and 2
    # their simple sides; at threshold 0.4 all ten simple lines align, and
    # the three comics pairs yield "despite".
    art = tmp_path / "articles"
    art.mkdir()
    for level, column in ((0, 0), (1, 1), (2, 1)):
        text = "".join(f"{row[column]}\n" for row in EXAMPLE_ROWS)
        (art / f"a.{level}.txt").write_text(text, encoding="utf-8")
    (art / "b.0.txt").write_text(f"{COMICS_COMPLEX}\n{LANDMARK_COMPLEX}\n", encoding="utf-8")
    (art / "b.1.txt").write_text(f"{LANDMARK_SIMPLE}\n{COMICS_SIMPLE}\n", encoding="utf-8")
    return art


def _sharded_article_dir(tmp_path):
    # Five articles, one without level 0 and one with an empty level: with
    # two and with three workers, some shard holds more than one article.
    art = _article_dir(tmp_path)
    (art / "c.0.txt").write_text(f"{WOODCUTS_COMPLEX}\n{BROADCAST_COMPLEX}\n", encoding="utf-8")
    (art / "c.3.txt").write_text(f"{BROADCAST_SIMPLE}\n{WOODCUTS_SIMPLE}\n", encoding="utf-8")
    (art / "d.1.txt").write_text(f"{COMICS_SIMPLE}\n", encoding="utf-8")
    (art / "e.0.txt").write_text(f"{COMICS_COMPLEX}\n", encoding="utf-8")
    (art / "e.1.txt").write_text(f"{COMICS_SIMPLE}\n", encoding="utf-8")
    (art / "e.2.txt").write_text("", encoding="utf-8")
    return art


def test_mine_article_dir_deterministic_across_worker_counts(tmp_path, ppdb_file, synonym_file, capsys):
    art = _sharded_article_dir(tmp_path)
    outputs = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"out{workers}"
        extra = ("--workers", workers, "--threshold", "0.4")
        assert main(_mine_args(art, out, ppdb_file, synonym_file, extra)) == 0
        assert capsys.readouterr().err.count("warning: d: no level-0 file, skipping") == 1
        outputs.append(
            tuple((out / name).read_bytes() for name in ("cases.tsv", "altlexes.tsv", "altlexes.json"))
        )
    payload = json.loads(outputs[0][2])
    assert payload["total_pairs"] == 13
    assert [a["example_pair_ids"] for a in payload["altlexes"]] == [
        ["a:1:3", "a:2:3", "b:1:1", "e:1:0"]
    ]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "bad_file", ["utf-8", "level", "duplicate-level", "utf-8-last-level", "semicolon-id", "tab-id"]
)
def test_mine_article_shard_errors_are_input_errors(tmp_path, ppdb_file, synonym_file, capsys, bad_file):
    art = _sharded_article_dir(tmp_path)
    if bad_file == "utf-8":
        bad = art / "e.1.txt"
        bad.write_bytes(b"a\nb\nbad \xff byte\n")
        message = f"error: {bad}: line 3: invalid UTF-8"
    elif bad_file == "level":
        bad = art / "e.7.txt"
        bad.write_text("A sentence.\n", encoding="utf-8")
        message = f"error: {bad}: article level 7 outside 0..5"
    elif bad_file == "duplicate-level":
        bad = art / "e.01.txt"
        bad.write_text("A sentence.\n", encoding="utf-8")
        message = f"error: {bad} and {art / 'e.1.txt'}: both are article level 1"
    elif bad_file.endswith("-id"):
        # An id with ";" would split altlexes.tsv's example id list, one
        # with a tab its columns.
        bad = art / ("a;b.1.txt" if bad_file == "semicolon-id" else "a\tb.0.txt")
        bad.write_text("A sentence.\n", encoding="utf-8")
        message = f"error: {bad}: article id"
    else:
        # The last level of the last article: every level before it has
        # been aligned, and in one process mined, when the bad byte is read.
        bad = art / "e.2.txt"
        bad.write_bytes(COMICS_SIMPLE.encode() + b"\n\nbad \xff byte\n")
        message = f"error: {bad}: line 3: invalid UTF-8"
    out = tmp_path / "out"
    aligned = tmp_path / "aligned" / "pairs.tsv"
    aligned.parent.mkdir()
    for argv in (
        _mine_args(art, out, ppdb_file, synonym_file, ("--workers", "1")),
        _mine_args(art, out, ppdb_file, synonym_file, ("--workers", "2")),
        ["align", str(art), "-o", str(aligned)],
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
        # No output directory, no partial -o file and no temporary file.
        assert not out.exists()
        assert list(aligned.parent.iterdir()) == []


def _fill_tuple_free_lists():
    """Park the most tuples CPython keeps of each small size on its free
    lists. tracemalloc counts a parked tuple as live, and CPython 3.11 parks
    every freed 20-item tuple but never reuses one, so without this a run
    seems to hold one more tuple per 20-token sentence it tokenized."""
    held = [tuple(range(size)) for size in range(1, 21) for _ in range(2000)]
    del held


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mine_rows_memory_does_not_grow_with_rows(inventory, ppdb_file, synonym_file):
    # Rows are tokenized one pair at a time as mining reaches them, so four
    # times the rows (all built before tracing) need about the same peak.
    stores = [load_ppdb(ppdb_file), load_synonyms(synonym_file)]
    rows = [(str(i), *EXAMPLE_ROWS[i % len(EXAMPLE_ROWS)]) for i in range(1200)]
    _fill_tuple_free_lists()
    cli._mine_rows(rows, inventory, stores)
    small = _traced_peak(cli._mine_rows, rows[:300], inventory, stores)
    large = _traced_peak(cli._mine_rows, rows, inventory, stores)
    assert large < 1.5 * small


def _write_memory_article(art, art_id, levels):
    """Level 0 holds the example rows' complex sides and every other level
    their simple sides, 40 times each with a numbered word."""
    for level in levels:
        column = min(level, 1)
        text = "".join(f"{row[column]} w{i}\n" for i in range(40) for row in EXAMPLE_ROWS)
        (art / f"{art_id}.{level}.txt").write_text(text, encoding="utf-8")


def test_mine_articles_memory_does_not_grow_with_articles(tmp_path, inventory, ppdb_file, synonym_file):
    # Each article is read, aligned and mined before the next is read, so
    # four equal articles need about the peak of one.
    art = tmp_path / "articles"
    art.mkdir()
    for art_id in "abcd":
        _write_memory_article(art, art_id, range(3))
    stores = [load_ppdb(ppdb_file), load_synonyms(synonym_file)]
    articles = cli._list_articles(art)
    _fill_tuple_free_lists()
    cli._mine_articles(articles, 0.4, inventory, stores)
    small = _traced_peak(cli._mine_articles, articles[:1], 0.4, inventory, stores)
    large = _traced_peak(cli._mine_articles, articles, 0.4, inventory, stores)
    assert large < 1.5 * small


def test_mine_article_memory_does_not_grow_with_levels(tmp_path, inventory, ppdb_file, synonym_file):
    # Each simplified level is read, aligned and mined before the next is
    # read, so an article with levels 0-5 needs about the peak of the same
    # article with levels 0-2.
    stores = [load_ppdb(ppdb_file), load_synonyms(synonym_file)]
    peaks = []
    for levels in (range(3), range(6)):
        art = tmp_path / f"levels-{len(levels)}"
        art.mkdir()
        _write_memory_article(art, "a", levels)
        articles = cli._list_articles(art)
        _fill_tuple_free_lists()
        cli._mine_articles(articles, 0.4, inventory, stores)
        peaks.append(_traced_peak(cli._mine_articles, articles, 0.4, inventory, stores))
    assert peaks[1] < 1.1 * peaks[0]


def test_align_reads_each_file_with_no_earlier_level_alive(
    tmp_path, monkeypatch, inventory, ppdb_file, synonym_file
):
    # While an article's levels are read its level 0 is alive, and no
    # sentence of an earlier level or article is. Draining the pairs keeps
    # none, so every sentence alive is one the aligner holds; mining them
    # must keep none either, not even the last pair it mined.
    art = tmp_path / "articles"
    art.mkdir()
    for art_id in "ab":
        for level in range(4):
            text = "".join(f"{row[min(level, 1)]} tag{art_id}{level}\n" for row in EXAMPLE_ROWS)
            (art / f"{art_id}.{level}.txt").write_text(text, encoding="utf-8")
    alive_at_reads = []
    read_article = cli.read_article

    def counting_read_article(*args):
        gc.collect()
        tags = (o.raw.rpartition(" ")[2] for o in gc.get_objects() if isinstance(o, Sentence))
        alive_at_reads.append(sorted({tag for tag in tags if tag.startswith("tag")}))
        return read_article(*args)

    monkeypatch.setattr(cli, "read_article", counting_read_article)
    articles = cli._list_articles(art)
    expected = [[], ["taga0"], ["taga0"], ["taga0"], [], ["tagb0"], ["tagb0"], ["tagb0"]]
    collections.deque(cli._align(articles, 0.4), maxlen=0)
    assert alive_at_reads == expected
    alive_at_reads.clear()
    stores = [load_ppdb(ppdb_file), load_synonyms(synonym_file)]
    assert cli._mine_articles(articles, 0.4, inventory, stores).total_pairs == 2 * 3 * len(EXAMPLE_ROWS)
    assert alive_at_reads == expected


def test_align_memory_does_not_grow_with_articles(tmp_path, capsys):
    # Rows are written as each level is aligned, so aligning four equal
    # articles needs about the peak of one.
    dirs = []
    for count in (1, 4):
        art = tmp_path / f"articles-{count}"
        art.mkdir()
        for art_id in "abcd"[:count]:
            _write_memory_article(art, art_id, range(3))
        dirs.append(art)
    argv = lambda art: ["align", str(art), "--threshold", "0.4", "-o", str(art.with_suffix(".tsv"))]
    _fill_tuple_free_lists()
    assert main(argv(dirs[1])) == 0
    small, large = (_traced_peak(main, argv(art)) for art in dirs)
    assert "1280 pairs written" in capsys.readouterr().out
    assert large < 1.1 * small


_MODULES_AFTER_RUN = """
import os, sys
from altlex_miner import cli
cpus = None if sys.argv[2] == "None" else int(sys.argv[2])
os.cpu_count = lambda: cpus
cli._ROWS_PER_TASK = int(sys.argv[3])
code = cli.main(sys.argv[4:])
print(code, " ".join(name for name in sys.argv[1].split(",") if name in sys.modules))
"""


def _modules_after_run(argv, modules, cpus=2, rows_per_task=1000):
    """Run ``cli.main(argv)`` in a fresh interpreter whose ``os.cpu_count()``
    returns ``cpus``; its exit code and which of ``modules`` it imported, in
    this process only."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_RUN, ",".join(modules), str(cpus), str(rows_per_task), *map(str, argv)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.splitlines()[-1]


def test_runs_import_numpy_and_the_pool_only_where_used(tmp_path, example_corpus, ppdb_file, synonym_file):
    # Workers align article shards, so the parent never needs numpy or the
    # module that imports it. A run that would start one process, for one
    # worker, one CPU or one task, starts no pool.
    art = _sharded_article_dir(tmp_path)
    rows = _write_rows(tmp_path / "rows.tsv", 12)
    modules = ("numpy", "altlex_miner.similarity", "concurrent.futures.process")
    runs = [
        # (input, --workers, CPUs, rows per task, expected)
        (art, 2, 2, 1000, "0 concurrent.futures.process"),
        (rows, 6, 2, 2, "0 concurrent.futures.process"),
        (rows, 6, 1, 2, "0 "),
        (rows, 6, None, 2, "0 "),
        (example_corpus, 2, 2, 1000, "0 "),  # one task
        (example_corpus, 1, 2, 1, "0 "),
    ]
    for corpus, workers, cpus, per_task, expected in runs:
        argv = _mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file, ("--workers", str(workers)))
        assert _modules_after_run(argv, modules, cpus, per_task) == expected, (corpus, workers, cpus)


_THREADS_AFTER_ENTRYPOINT = """
import os, sys
from altlex_miner import cli
sys.argv = ["altlex-miner", "align", *sys.argv[1:]]
try:
    cli.entrypoint()
except SystemExit as exc:
    code = exc.code
print(code, len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
@pytest.mark.skipif(os.cpu_count() == 1, reason="OpenBLAS starts no extra thread on one CPU")
def test_cli_process_starts_numpy_with_one_thread(tmp_path, monkeypatch):
    # Alignment calls no BLAS routine, so the console script keeps OpenBLAS
    # from starting threads that would only spin; a caller's value wins,
    # and ``main`` leaves the environment of in-process callers alone.
    art = tmp_path / "articles"
    art.mkdir()
    (art / "a.0.txt").write_text("Although it rained, we left.\nThe sun rose.\n", encoding="utf-8")
    (art / "a.1.txt").write_text("It rained. We left.\nThe sun rose.\n", encoding="utf-8")
    argv = [str(art), "-o", str(tmp_path / "aligned.tsv")]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # OpenBLAS also reads these two when its own variable is unset.
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])

    def run(extra_env):
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_AFTER_ENTRYPOINT, *argv],
            env={**env, **extra_env}, capture_output=True, text=True, check=True, timeout=120,
        )
        return out.stdout.splitlines()[-1].split()

    assert run({}) == ["0", "1", "1"]
    code, _, kept = run({"OPENBLAS_NUM_THREADS": "2"})
    assert (code, kept) == ("0", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["align", *argv]) == 0
    assert dict(os.environ) == before


def _pickled_types(obj) -> set[type]:
    """The type of every object that pickling ``obj`` visits."""
    seen: set[type] = set()

    class Recorder(pickle.Pickler):
        def persistent_id(self, value):
            seen.add(type(value))
            return None

    Recorder(io.BytesIO()).dump(obj)
    return seen


@pytest.mark.parametrize("input_kind", ["aligned-tsv", "article-dir"])
def test_mine_pool_ships_text_rows(
    tmp_path, example_corpus, ppdb_file, synonym_file, monkeypatch, input_kind
):
    sent = []

    class InProcessPool:
        """Runs the shards in this process and keeps what ``map`` receives."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            shards = list(shards)
            sent.extend((fn, shard) for shard in shards)
            return [fn(shard) for shard in shards]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 2)  # the four rows, or the two articles, make two tasks
    corpus = example_corpus if input_kind == "aligned-tsv" else _article_dir(tmp_path)
    assert main(_mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file, ("--workers", "2"))) == 0
    assert len(sent) == 2
    for fn, shard in sent:
        assert shard
        # Raw (source_id, complex, simple) rows, or (article_id, ((level,
        # file path), ...)) entries: nothing read from an article file.
        shape = (3, str) if input_kind == "aligned-tsv" else (2, tuple)
        for item in shard:
            assert isinstance(item, tuple) and len(item) == shape[0] and type(item[-1]) is shape[1]
        assert _pickled_types(shard) <= {list, tuple, str, int}
        assert not _pickled_types((fn, shard)) & {Sentence, SentencePair}


def _map_only_pool(log, sent=None):
    """A stand-in for the process pool that offers only ``map``, as
    perfbench's traced pool does, and runs each task in this process when
    its result is read. ``log`` gets ``("start", max_workers)`` and
    ``("map", number of tasks)`` entries, and ``sent``, if given, each
    task."""

    class MapOnlyPool:
        def __init__(self, max_workers):
            log.append(("start", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            log.append(("map", len(tasks)))
            if sent is not None:
                sent.extend(tasks)
            return (fn(task) for task in tasks)

    return MapOnlyPool


def _write_rows(path, count):
    """``count`` example rows, cycling through EXAMPLE_ROWS, as a TSV."""
    rows = (EXAMPLE_ROWS[i % len(EXAMPLE_ROWS)] for i in range(count))
    path.write_text("".join(f"{c}\t{s}\n" for c, s in rows), encoding="utf-8")
    return path


def test_mine_pool_never_starts_more_processes_than_tasks(tmp_path, ppdb_file, synonym_file, monkeypatch):
    # The fork start method launches every ``max_workers`` process up front,
    # so a pool larger than its task list forks processes that never work.
    # An input that ends inside the first window of 2 x workers tasks starts
    # one process per task, and one of a single task starts no pool; a
    # longer one streams out in such windows.
    cases = [
        # (input, workers, rows per task, expected log)
        (_write_rows(tmp_path / "two.tsv", 2), 6, 1000, []),
        (_write_rows(tmp_path / "400.tsv", 400), 6, 1000, [("start", 2), ("map", 2)]),  # the first task is 200 rows
        (_write_rows(tmp_path / "small.tsv", 23), 6, 5, [("start", 5), ("map", 5)]),
        (_write_rows(tmp_path / "chunked.tsv", 23), 2, 2, [("start", 2), ("map", 4), ("map", 4), ("map", 4)]),
        (tmp_path / "chunked.tsv", 3, 4, [("start", 3), ("map", 6)]),
        (_sharded_article_dir(tmp_path), 2, 1000, [("start", 2), ("map", 4)]),  # four with level 0
        (tmp_path / "articles", 3, 1000, [("start", 3), ("map", 4)]),
    ]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)  # more CPUs than workers
    for corpus, workers, per_task, expected in cases:
        log = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _map_only_pool(log))
        monkeypatch.setattr(cli, "_ROWS_PER_TASK", per_task)
        extra = ("--workers", str(workers), "--threshold", "0.4")
        assert main(_mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file, extra)) == 0
        assert log == expected


@pytest.mark.parametrize("cpus, processes", [(2, 2), (1, 1), (None, 1)])
def test_mine_pool_never_starts_more_processes_than_cpus(
    tmp_path, ppdb_file, synonym_file, monkeypatch, cpus, processes
):
    # Twelve rows in tasks of two are six tasks whatever the machine, so
    # the outputs do not depend on it; only as many processes as it has
    # CPUs start to mine them, in windows of two tasks a process. On one
    # CPU, or an unknown number, they are mined here, without a pool.
    log = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _map_only_pool(log))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 2)
    corpus = _write_rows(tmp_path / "pairs.tsv", 12)
    assert main(_mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file, ("--workers", "6"))) == 0
    assert log == ([("start", processes), ("map", 4), ("map", 2)] if processes > 1 else [])


@pytest.mark.parametrize("input_kind", ["aligned-tsv", "article-dir"])
def test_tasks_depend_on_the_input_alone(tmp_path, ppdb_file, synonym_file, monkeypatch, input_kind):
    # The pool is handed the same tasks for any --workers and any machine;
    # only the windows they go out in change, two tasks a process.
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 2)
    if input_kind == "aligned-tsv":
        corpus, sizes = _write_rows(tmp_path / "pairs.tsv", 23), [2] * 11 + [1]
    else:
        corpus, sizes = _sharded_article_dir(tmp_path), [1] * 4  # one task per article with level 0
    handed = []
    for cpus, workers in ((8, 2), (8, 3), (8, 6), (2, 6)):
        log, sent = [], []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _map_only_pool(log, sent))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        extra = ("--workers", str(workers), "--threshold", "0.4")
        assert main(_mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file, extra)) == 0
        assert max(count for entry, count in log if entry == "map") <= 2 * min(cpus, workers)
        handed.append(sent)
    assert [len(task) for task in handed[0]] == sizes
    assert handed[0] == handed[1] == handed[2] == handed[3]


_ARTICLE_LEVELS = {0: 0, 1: 1, 2: 1}  # level: EXAMPLE_ROWS column


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["tsv", "articles"]),
    # Row indexes into EXAMPLE_ROWS: the TSV's rows, or each article's lines.
    groups=st.lists(st.lists(st.integers(0, len(EXAMPLE_ROWS) - 1), min_size=1, max_size=4), max_size=8),
    per_task=st.integers(1, 7),
    workers=st.integers(1, 3),
)
@example(kind="tsv", groups=[[0, 1, 2, 3]] * 6, per_task=1, workers=2)
@example(kind="articles", groups=[[3], [0, 3], [1], [2, 3], [3, 1], [0], [1, 3]], per_task=1, workers=3)
def test_task_size_and_worker_count_do_not_change_outputs(
    ppdb_file, synonym_file, kind, groups, per_task, workers
):
    # Whether the input is split into shards or streamed in windows of
    # tasks, and however it is cut into tasks, the files equal those of one
    # worker mining the whole stream.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp = Path(tmp)
        if kind == "tsv":
            corpus = tmp / "pairs.tsv"
            rows = [EXAMPLE_ROWS[i] for group in groups for i in group]
            corpus.write_text("".join(f"{c}\t{s}\n" for c, s in rows), encoding="utf-8")
        else:
            corpus = tmp / "articles"
            corpus.mkdir()
            for n, group in enumerate(groups):
                for level, column in _ARTICLE_LEVELS.items():
                    lines = "".join(f"{EXAMPLE_ROWS[i][column]}\n" for i in group)
                    (corpus / f"a{n}.{level}.txt").write_text(lines, encoding="utf-8")
        expected = _mined_outputs(corpus, tmp / "serial", ppdb_file, synonym_file, "1")
        log = []
        patch.setattr(cli, "ProcessPoolExecutor", _map_only_pool(log))
        patch.setattr(cli, "_ROWS_PER_TASK", per_task)
        assert _mined_outputs(corpus, tmp / "pooled", ppdb_file, synonym_file, str(workers)) == expected
        if log:  # never more processes than tasks
            (_, processes), (_, tasks) = log[:2]
            assert processes <= tasks


def test_mine_pool_parent_memory_does_not_grow_with_rows(
    tmp_path, ppdb_file, synonym_file, monkeypatch, capsys, pool_starts
):
    # The parent holds at most two windows of raw rows, never the whole
    # input: four times the rows, streamed through a real pool in tasks of
    # 100, need about the same peak in this process.
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 100)
    peaks = []
    for count in (1000, 4000):
        corpus = _write_rows(tmp_path / f"pairs{count}.tsv", count)
        args = _mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file, ("--workers", "2"))
        assert main(args) == 0  # warm: imports, caches and the pool's modules
        _fill_tuple_free_lists()
        peaks.append(_traced_peak(main, args))
    small, large = peaks
    assert large < 1.5 * small
    assert pool_starts == [2] * 4


def test_mine_pool_malformed_last_row_is_input_error(tmp_path, ppdb_file, synonym_file, monkeypatch, capsys):
    # The parent reads the bad row after handing the pool three windows of
    # one-row tasks; the run still writes nothing. Leaving the pool's block
    # waits for every task handed out, so the parent first cancels those
    # not yet started.
    from concurrent.futures import ProcessPoolExecutor

    shutdowns = []

    class ShutdownRecordingPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append((wait, cancel_futures))
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", ShutdownRecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 1)
    corpus = _write_rows(tmp_path / "pairs.tsv", 12)
    with corpus.open("a", encoding="utf-8") as fh:
        fh.write("one field only\n")
    out = tmp_path / "out"
    assert main(_mine_args(corpus, out, ppdb_file, synonym_file, ("--workers", "2"))) == 2
    assert f"error: {corpus}: line 13: expected 2 or 3 tab-separated fields, got 1" in capsys.readouterr().err
    assert shutdowns[0] == (True, True)
    assert not out.exists()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched mine_corpus",
)
def test_mine_worker_crash_after_the_first_window_is_input_error(
    tmp_path, ppdb_file, synonym_file, monkeypatch, capsys, pool_starts
):
    # One-row tasks in windows of four: row 9 is mined in the third window.
    mine_corpus = cli.mine_corpus
    test_process = os.getpid()

    def crash_on_row_9(pairs, *args):
        pairs = list(pairs)
        if any(pair.source_id == "9" for pair in pairs):
            assert os.getpid() != test_process, "mined in the test's own process, not a worker"
            os._exit(3)
        return mine_corpus(pairs, *args)

    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 1)
    monkeypatch.setattr(cli, "mine_corpus", crash_on_row_9)
    corpus = _write_rows(tmp_path / "pairs.tsv", 12)
    out = tmp_path / "out"
    assert main(_mine_args(corpus, out, ppdb_file, synonym_file, ("--workers", "2"))) == 2
    assert "error: mining worker process exited unexpectedly" in capsys.readouterr().err
    assert not out.exists()
    assert pool_starts == [2]


@pytest.mark.parametrize("input_kind", ["aligned-tsv", "article-dir"])
def test_mine_invalid_utf8_names_file_and_line(tmp_path, ppdb_file, synonym_file, capsys, input_kind):
    data = b"\xef\xbb\xbfa\tb\r\nc\td\nbad \xff byte\tx\n"
    if input_kind == "aligned-tsv":
        corpus = bad = tmp_path / "pairs.tsv"
    else:
        corpus = tmp_path / "articles"
        corpus.mkdir()
        bad = corpus / "a.0.txt"
    bad.write_bytes(data)
    assert main(_mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file)) == 2
    assert f"error: {bad}: line 3: invalid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mine_reports_the_first_faulty_line(tmp_path, ppdb_file, synonym_file, capsys, workers):
    # A malformed row and an undecodable byte in the same 8 KiB chunk: the
    # malformed row comes first, so its line is the one reported.
    corpus = tmp_path / "pairs.tsv"
    corpus.write_bytes(b"onlyone\nb\xff\tc\n")
    out = tmp_path / "out"
    assert main(_mine_args(corpus, out, ppdb_file, synonym_file, ("--workers", workers))) == 2
    err = capsys.readouterr().err
    assert f"error: {corpus}: line 1: expected 2 or 3 tab-separated fields, got 1" in err
    assert "invalid UTF-8" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, line",
    [("--ppdb", b"[X] ||| though ||| despite ||| PPDB2.0Score=3.0"), ("--synonyms", b"because\tsince")],
    ids=["ppdb", "synonyms"],
)
def test_mine_invalid_utf8_resource_names_file_and_line(
    tmp_path, example_corpus, ppdb_file, synonym_file, capsys, flag, line
):
    bad = tmp_path / "resource.txt"
    bad.write_bytes(b"\xef\xbb\xbf" + line + b"\r\n" + line + b"\r" + line.replace(b"e", b"\xff", 1) + b"\n")
    argv = _mine_args(example_corpus, tmp_path / "out", ppdb_file, synonym_file)
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 3: invalid UTF-8\n"


@pytest.mark.parametrize(
    "reader, line",
    [("inventory", b"# comment"), ("agreement", b"p1\t1\t0"), ("config", b"# comment")],
    ids=["inventory", "agreement", "config"],
)
def test_invalid_utf8_names_file_and_line(tmp_path, example_corpus, capsys, reader, line):
    bad = tmp_path / "input.txt"
    bad.write_bytes(b"\xef\xbb\xbf" + line + b"\r\n" + line + b"\rbad \xff byte\n")
    out = str(tmp_path / "out")
    argv = {
        "inventory": ["mine", str(example_corpus), "--inventory", str(bad), "--output-dir", out],
        "agreement": ["kappa", str(bad)],
        "config": ["mine", str(example_corpus), "--config", str(bad), "--output-dir", out],
    }[reader]
    assert main(argv) == 2
    assert f"error: {bad}: line 3: invalid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "reader, line",
    [
        ("pairs", b"only one field"),
        ("inventory", b"but\tContrast:1.0"),
        ("agreement", b"p2\t1"),
        ("config", b"bogus=1"),
    ],
    ids=["pairs", "inventory", "agreement", "config"],
)
def test_malformed_line_names_file_and_line(tmp_path, example_corpus, capsys, reader, line):
    # Every strict reader reports its first malformed line the same way.
    good = {"pairs": b"a\tb", "inventory": b"but\t\tContrast:1.0", "agreement": b"p1\t1\t1", "config": b"# ok"}
    bad = tmp_path / "input.txt"
    bad.write_bytes(good[reader] + b"\n" + line + b"\n")
    out = str(tmp_path / "out")
    argv = {
        "pairs": ["mine", str(bad), "--output-dir", out],
        "inventory": ["mine", str(example_corpus), "--inventory", str(bad), "--output-dir", out],
        "agreement": ["kappa", str(bad)],
        "config": ["mine", str(example_corpus), "--config", str(bad), "--output-dir", out],
    }[reader]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: ")


@pytest.mark.parametrize("flag", ["--ppdb", "--synonyms", "--inventory"])
def test_gzipped_resource_says_it_is_compressed(tmp_path, example_corpus, ppdb_file, synonym_file, capsys, flag):
    # PPDB is distributed gzip-compressed; a .gz passed as is fails on its
    # first line, and the message says how to mend it.
    bad = tmp_path / "ppdb-2.0-s-all.gz"
    bad.write_bytes(gzip.compress(("\n".join(PPDB_FIXTURE_LINES) + "\n").encode("utf-8")))
    argv = _mine_args(example_corpus, tmp_path / "out", ppdb_file, synonym_file, (flag, str(bad)))
    assert main(argv) == 2
    message = f"error: {bad}: line 1: invalid UTF-8 (gzip-compressed: decompress it first)\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("reader", ["inventory", "config"])
@pytest.mark.parametrize("sep", UNICODE_LINE_BREAKS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_readers_end_lines_only_at_newline(tmp_path, example_corpus, reader, sep):
    # A comment holding a Unicode line break stays one comment line; split
    # there, its second half would be a malformed entry.
    path = tmp_path / "input.txt"
    out = str(tmp_path / "out")
    if reader == "inventory":
        path.write_text(f"# note{sep}more\nbut\t\tContrast:1.0\n", encoding="utf-8")
        argv = ["mine", str(example_corpus), "--inventory", str(path), "--output-dir", out]
    else:
        path.write_text(f"# note{sep}more\noutput-dir={out}\n", encoding="utf-8")
        argv = ["mine", str(example_corpus), "--config", str(path)]
    assert main(argv) == 0
    assert (tmp_path / "out" / "cases.tsv").exists()


def test_mine_loads_only_lines_a_connective_reaches(
    tmp_path, example_corpus, ppdb_file, synonym_file, monkeypatch, inventory
):
    calls = {}

    def recording(name, load):
        def wrapper(*args, **kwargs):
            calls[name] = kwargs
            return load(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "load_ppdb", recording("ppdb", cli.load_ppdb))
    monkeypatch.setattr(cli, "load_synonyms", recording("synonyms", cli.load_synonyms))
    extra = ("--min-score", "1.0")
    assert main(_mine_args(example_corpus, tmp_path / "out", ppdb_file, synonym_file, extra)) == 0
    first_parts = {e.parts[0] for e in inventory}
    assert calls == {
        "ppdb": {"min_score": 1.0, "keep": first_parts},
        "synonyms": {"keep": first_parts},
    }


def test_mine_missing_resource_is_input_error(tmp_path, example_corpus):
    out = tmp_path / "out"
    code = main(["mine", str(example_corpus), "--ppdb", str(tmp_path / "nope"), "--output-dir", str(out)])
    assert code == 2


def test_mine_malformed_corpus_is_input_error(tmp_path, ppdb_file, synonym_file):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text("only one field\n", encoding="utf-8")
    code = main(_mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file))
    assert code == 2


def test_usage_error_exit_code():
    for argv in (
        ["mine"],  # missing INPUT positional
        ["frobnicate"],
        # Removed options that could not change a result.
        ["mine", "pairs.tsv", "--sense-level", "1"],
        ["mine", "pairs.tsv", "--input-kind", "aligned-tsv"],
        ["kappa", "agree.tsv", "--config", "run.cfg"],  # no config key sets the one path it reads
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


def test_align_identical_levels(tmp_path, capsys):
    art = tmp_path / "articles"
    art.mkdir()
    text = "The fox ran far.\nRain fell on the town.\nShips sailed north.\n"
    (art / "story.0.txt").write_text(text, encoding="utf-8")
    (art / "story.1.txt").write_text(text, encoding="utf-8")
    out = tmp_path / "aligned.tsv"
    assert main(["align", str(art), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 3
        assert float(fields[2]) == pytest.approx(1.0, abs=1e-6)
    assert "3 pairs" in capsys.readouterr().out


def test_align_empty_dir(tmp_path, capsys):
    art = tmp_path / "articles"
    art.mkdir()
    out = tmp_path / "aligned.tsv"
    assert main(["align", str(art), "--output", str(out)]) == 0
    assert out.read_text() == ""
    assert "0 pairs" in capsys.readouterr().out


def test_align_missing_dir_is_input_error(tmp_path):
    assert main(["align", str(tmp_path / "nope")]) == 2


def test_align_bad_article_level_is_input_error(tmp_path, capsys):
    for bad_name, message in (
        ("story.7.txt", "story.7.txt: article level 7 outside 0..5"),
        # A second file for level 0: neither may silently replace the other.
        ("story.00.txt", "story.0.txt and {art}/story.00.txt: both are article level 0"),
    ):
        art = tmp_path / bad_name / "articles"
        art.mkdir(parents=True)
        (art / "story.0.txt").write_text("A sentence.\n", encoding="utf-8")
        (art / "story.1.txt").write_text("A sentence.\n", encoding="utf-8")
        (art / bad_name).write_text("A sentence.\n", encoding="utf-8")
        out = tmp_path / bad_name / "o.tsv"
        assert main(["align", str(art), "--output", str(out)]) == 2
        assert message.format(art=art) in capsys.readouterr().err
        assert not out.exists()


def test_mine_article_dir_input(tmp_path, ppdb_file, synonym_file):
    art = tmp_path / "articles"
    art.mkdir()
    (art / "a.0.txt").write_text(f"{COMICS_SIMPLE}\n", encoding="utf-8")
    (art / "a.1.txt").write_text(f"{COMICS_SIMPLE}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(_mine_args(art, out, ppdb_file, synonym_file)) == 0
    payload = json.loads((out / "altlexes.json").read_text())
    assert payload["total_pairs"] == 1
    assert payload["cases"]["Exp-Exp"] == 1


def test_altlex_rows_replayable_through_mine_pair(
    tmp_path, example_corpus, ppdb_file, synonym_file, inventory, fixture_stores
):
    # Every emitted AltLex row must be reproducible by mining one of its
    # example pairs alone.
    from altlex_miner import load_aligned_tsv, mine_corpus
    from altlex_miner.discourse import Sense

    out = tmp_path / "out"
    assert main(_mine_args(example_corpus, out, ppdb_file, synonym_file)) == 0
    pairs_by_id = {p.source_id: p for p in load_aligned_tsv(example_corpus)}
    rows = (out / "altlexes.tsv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        text, sense_name, _, _, _, ids = row.split("\t")
        replayed = mine_corpus([pairs_by_id[ids.split(";")[0]]], inventory, fixture_stores)
        found = {(" ".join(r.text), r.sense) for r in replayed.records.values()}
        assert (text, Sense(sense_name)) in found


def test_align_warns_on_missing_level_zero(tmp_path, capsys):
    art = tmp_path / "articles"
    art.mkdir()
    (art / "orphan.1.txt").write_text("A sentence here.\n", encoding="utf-8")
    out = tmp_path / "aligned.tsv"
    assert main(["align", str(art), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert "no level-0 file" in captured.err
    assert "0 pairs" in captured.out


def test_kappa_all_agree(tmp_path, capsys):
    path = tmp_path / "agree.tsv"
    path.write_text("".join(f"p{i}\t1\t1\n" for i in range(10)) + "".join(f"q{i}\t0\t0\n" for i in range(10)), encoding="utf-8")
    assert main(["kappa", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1.000"


def test_kappa_balanced_disagreement(tmp_path, capsys):
    rows = ["a\t1\t1", "b\t0\t0", "c\t1\t0", "d\t0\t1"]
    path = tmp_path / "agree.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["kappa", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0.000"


def test_kappa_derived_value(tmp_path, capsys):
    lines = (
        ["\t1\t1"] * 40 + ["\t0\t0"] * 45 + ["\t1\t0"] * 8 + ["\t0\t1"] * 7
    )
    path = tmp_path / "agree.tsv"
    path.write_text("".join(f"p{i}{line}\n" for i, line in enumerate(lines)), encoding="utf-8")
    assert main(["kappa", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0.699"


def test_kappa_malformed_row(tmp_path, capsys):
    path = tmp_path / "agree.tsv"
    path.write_text("p1\t1\t1\np2\tx\t0\n", encoding="utf-8")
    assert main(["kappa", str(path)]) == 2
    assert f"error: {path}: line 2: expected pair_id" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
def test_kappa_without_rows_names_the_file(tmp_path, capsys, text):
    path = tmp_path / "agree.tsv"
    path.write_text(text, encoding="utf-8")
    assert main(["kappa", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: no agreement rows\n"


def test_config_file_flags_override(tmp_path, example_corpus, ppdb_file, synonym_file):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"ppdb={ppdb_file}\nsynonyms={synonym_file}\noutput-dir={tmp_path / 'from_config'}\nworkers=2\n",
        encoding="utf-8",
    )
    assert main(["mine", str(example_corpus), "--config", str(config)]) == 0
    assert (tmp_path / "from_config" / "cases.tsv").exists()

    # explicit flag beats the config value
    assert main(
        [
            "mine",
            str(example_corpus),
            "--config",
            str(config),
            "--output-dir",
            str(tmp_path / "from_flag"),
        ]
    ) == 0
    assert (tmp_path / "from_flag" / "cases.tsv").exists()


def test_config_file_bad_key(tmp_path, example_corpus, capsys):
    # A config file that sets a removed option's key is rejected, not ignored.
    config = tmp_path / "run.cfg"
    for line in ("nonsense=1", "sense_level=1", "input_kind=article-dir"):
        config.write_text(line + "\n", encoding="utf-8")
        assert main(["mine", str(example_corpus), "--config", str(config)]) == 2
        key = line.partition("=")[0]
        assert f"error: {config}: line 1: unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_min_score_is_input_error(
    tmp_path, example_corpus, ppdb_file, synonym_file, capsys, value
):
    # nan keeps no PPDB line, inf none and -inf all: the run would exit 0
    # with results that no score cutoff gives.
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"min_score = {value}\n", encoding="utf-8")
    for extra, where in (
        ([f"--min-score={value}"], ""),
        (["--config", str(config)], f"{config}: line 1: bad value for min_score: "),
    ):
        assert main(_mine_args(example_corpus, out, ppdb_file, synonym_file, extra)) == 2
        assert f"error: {where}min_score must be finite, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, reason",
    [("threshold", "2", "threshold 2.0 outside [0, 1]"), ("workers", "0", "workers must be >= 1, got 0")],
)
def test_a_bad_config_value_names_its_line(tmp_path, example_corpus, capsys, key, value, reason):
    # Also when a flag overrides the key, as for an unknown key.
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"# run settings\n{key}={value}\n", encoding="utf-8")
    for extra in ([], [f"--{key}", "1"]):
        assert main(["mine", str(example_corpus), "--config", str(config), "--output-dir", str(out), *extra]) == 2
        assert capsys.readouterr().err == f"error: {config}: line 2: bad value for {key}: {reason}\n"
    assert not out.exists()


# Pieces of every input format, so that random input gets past the first
# check of each reader: separators, line ends, a BOM, bytes that are not
# UTF-8, a character whose lowercase is longer, config keys, numbers,
# senses and connectives.
_FRAGMENTS = [
    b"\t", b"\n", b"\r", b"\r\n", b" ", b",", b":", b"=", b"#", b"|||", b"[X]",
    b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xc4\xb0", b"\xe2\x80\xa8",
    b"0", b"1", b"-1", b"0.5", b"1e999", b"nan", b"PPDB2.0Score=", b"Cause:1.0", b"Contrast:0.5",
    b"threshold", b"min_score", b"workers", b"ppdb", b"inventory",
    b"although", b"because", b"since", b"it rained", b"we left", b".",
]
_INPUT_BYTES = st.binary(max_size=48) | st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map(b"".join)
_VALID_INPUTS = {
    "pairs.tsv": "".join(f"{c}\t{s}\n" for c, s in EXAMPLE_ROWS[:2]),
    "articles/a.0.txt": "Although it rained, we left.\nThe sun rose.\n",
    "articles/a.1.txt": "It rained. We left.\nThe sun rose.\n",
    "ppdb.txt": "\n".join(PPDB_FIXTURE_LINES) + "\n",
    "synonyms.tsv": "\n".join(SYNONYM_FIXTURE_LINES) + "\n",
    "inventory.tsv": "although\t\tContrast:0.55,Concession:0.45\nbecause\t\tCause:1.0\n",
    "run.cfg": "threshold=0.4\nmin_score=0.5\n",
    "agreement.tsv": "p\t1\t1\nq\t0\t1\n",
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_VALID_INPUTS)), _INPUT_BYTES)
def test_no_input_gives_a_traceback(name, data):
    # Random bytes in one input file, the others valid: every command ends
    # with an exit code, never with an exception. Outputs go to explicit
    # paths and --workers is 1, so no config value can write elsewhere or
    # start a pool.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "articles").mkdir()
        for file_name, text in _VALID_INPUTS.items():
            (root / file_name).write_bytes(text.encode("utf-8"))
        (root / name).write_bytes(data)
        config = ["--config", str(root / "run.cfg")]
        resources = [
            "--ppdb", str(root / "ppdb.txt"), "--synonyms", str(root / "synonyms.tsv"),
            "--inventory", str(root / "inventory.tsv"), "--workers", "1",
            "--output-dir", str(root / "out"), *config,
        ]
        runs = [
            ["align", str(root / "articles"), "--output", str(root / "aligned.tsv"), *config],
            ["mine", str(root / "pairs.tsv"), *resources],
            ["mine", str(root / "articles"), *resources],
            ["kappa", str(root / "agreement.tsv")],
        ]
        for argv in runs:
            assert main(argv) in (0, 1, 2), argv


def test_percent_rows_sum_exact():
    for counts in ([1, 1, 1, 1, 3], [1, 1, 1], [2, 2], [7, 13, 29, 1, 0]):
        rows = percent_rows(counts)
        assert round(sum(rows), 2) == 100.0
    assert percent_rows([0, 0]) == [0.0, 0.0]


def test_module_entrypoint_smoke(tmp_path):
    path = tmp_path / "agree.tsv"
    path.write_text("p\t1\t1\nq\t0\t0\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "altlex_miner", "kappa", str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "1.000"


def _align_dir(tmp_path):
    art = tmp_path / "articles"
    art.mkdir()
    (art / "s.0.txt").write_text("The fox ran far.\nRain fell on the town.\n", encoding="utf-8")
    (art / "s.1.txt").write_text("Rain fell on the town.\nThe fox ran far.\n", encoding="utf-8")
    return art


def _cli_env():
    """The environment of a child process with this package on its path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_cli(argv, **kwargs):
    """``altlex-miner ARGV`` in a child process, with this package on its path."""
    argv = [sys.executable, "-m", "altlex_miner", *argv]
    return subprocess.run(argv, env=_cli_env(), capture_output=True, text=True, **kwargs)


_ALIGNED = "Rain fell on the town.\tRain fell on the town.\t1.000000\nThe fox ran far.\tThe fox ran far.\t1.000000\n"


def test_align_through_a_symlink_rewrites_its_target(tmp_path):
    target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    assert main(["align", str(_align_dir(tmp_path)), "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == _ALIGNED
    assert sorted(p.name for p in tmp_path.iterdir()) == ["articles", "link.tsv", "target.tsv"]


def test_align_keeps_the_outputs_mode(tmp_path):
    out = tmp_path / "aligned.tsv"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o640)
    assert main(["align", str(_align_dir(tmp_path)), "-o", str(out)]) == 0
    assert out.stat().st_mode & 0o7777 == 0o640
    assert out.read_text(encoding="utf-8") == _ALIGNED


def test_align_into_a_fifo(tmp_path):
    # A FIFO is written, not replaced by a regular file.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdout.write(open(sys.argv[1]).read())", str(fifo)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert main(["align", str(_align_dir(tmp_path)), "-o", str(fifo)]) == 0
        assert reader.communicate(timeout=30)[0] == _ALIGNED
    finally:
        reader.kill()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


@pytest.mark.skipif(not Path("/proc/self/fd/1").exists(), reason="needs /proc/self/fd")
def test_align_into_a_link_to_stdout_on_a_pipe(tmp_path):
    # What /dev/stdout is: a link to /proc/self/fd/1, here a pipe. Resolving
    # it names no path, so the output's type is checked through the link.
    link = tmp_path / "stdout"
    link.symlink_to("/proc/self/fd/1")
    run = _run_cli(["align", str(_align_dir(tmp_path)), "-o", str(link)])
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"{_ALIGNED}2 pairs written to {link}\n"
    assert link.is_symlink()


def test_align_rejects_a_sentence_holding_a_tab(tmp_path, capsys):
    # Its row would have more than three fields; ``mine`` on the article
    # directory itself mines the sentence as it is.
    art = _align_dir(tmp_path)
    (art / "s.1.txt").write_text("The fox ran far.\nRain fell\ton the town.\n", encoding="utf-8")
    out = tmp_path / "aligned.tsv"
    out.write_text("old\n", encoding="utf-8")
    assert main(["align", str(art), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: aligned pair s:1:1: sentence 'Rain fell\\ton the town.' holds a tab, which would split its row\n"
    )
    assert out.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aligned.tsv", "articles"]


def test_mine_through_a_symlink_rewrites_its_target(tmp_path, example_corpus, ppdb_file, synonym_file):
    out, target = tmp_path / "out", tmp_path / "kept.json"
    out.mkdir()
    target.write_text("old\n", encoding="utf-8")
    (out / "altlexes.json").symlink_to(target)
    assert main(_mine_args(example_corpus, out, ppdb_file, synonym_file)) == 0
    assert (out / "altlexes.json").is_symlink()
    assert json.loads(target.read_text(encoding="utf-8"))["total_pairs"] == 4


def test_mine_write_error_names_the_file_and_keeps_the_previous_outputs(
    tmp_path, example_corpus, ppdb_file, synonym_file
):
    # RLIMIT_FSIZE, set in the child only, makes a write past 512 bytes fail
    # with EFBIG (Python ignores SIGXFSZ): altlexes.json, the one output of
    # more than 512 bytes. No output may change, and no temporary file stay.
    resource = pytest.importorskip("resource")
    out = tmp_path / "out"
    out.mkdir()
    previous = {name: f"previous {name}\n".encode() for name in _OUTPUT_NAMES}
    for name, data in previous.items():
        (out / name).write_bytes(data)
    run = _run_cli(
        _mine_args(example_corpus, out, ppdb_file, synonym_file),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (512, 512)),
    )
    assert run.returncode == 2
    assert run.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{out / 'altlexes.json'}'\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == previous


@pytest.mark.parametrize("stopped_in", ["mine_corpus", "write_altlexes_json"])
@pytest.mark.parametrize(
    "exc, message, code", [(KeyboardInterrupt, "interrupted", 130), (MemoryError, "out of memory", 2)]
)
def test_an_interrupt_or_no_memory_ends_with_one_line(
    tmp_path, example_corpus, ppdb_file, synonym_file, monkeypatch, capsys, stopped_in, exc, message, code
):
    # Ctrl-C, or a MemoryError, while mining or while the last output is
    # written: one line, no traceback, and neither a changed output nor a
    # temporary file is left.
    out = tmp_path / "out"
    out.mkdir()
    previous = {name: f"previous {name}\n".encode() for name in _OUTPUT_NAMES}
    for name, data in previous.items():
        (out / name).write_bytes(data)

    def stop(*args):
        raise exc

    monkeypatch.setattr(cli, stopped_in, stop)
    assert main(_mine_args(example_corpus, out, ppdb_file, synonym_file, ("--workers", "1"))) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == previous

_ROUND_TRIP_TEXT = [
    "because ", "Because ", "since ", "though ", "despite ", "so ", "but ", "the ", "storm ", "crossed ",
    "river ", "farmer ", "watched ", "road ", "it ", "rained ", ", ", ". ", "İ", "\ufeff", "\u2028", " ", "\t",
]
_ROUND_TRIP_SENTENCE = st.lists(st.sampled_from(_ROUND_TRIP_TEXT), max_size=6).map("".join)
_BOM_HIDDEN = "\ufeffBecause the storm crossed the river, the farmer watched the road."
# A complex and a simple sentence: an example row, which mines AltLexes, or
# two random ones.
_ROUND_TRIP_ROW = st.sampled_from([*EXAMPLE_ROWS, (DRONES_COMPLEX, DRONES_SIMPLE)]) | st.tuples(
    _ROUND_TRIP_SENTENCE, _ROUND_TRIP_SENTENCE
)


@settings(max_examples=40, deadline=None)
@given(
    articles=st.lists(st.lists(_ROUND_TRIP_ROW, min_size=1, max_size=4), max_size=2),
    threshold=st.sampled_from(["0", "0.3", "0.5"]),
)
@example(
    # A stray BOM before level 0's second sentence, which is the complex
    # side of align's first row.
    articles=[[("It rained.", "It rained."), (_BOM_HIDDEN, _BOM_HIDDEN[1:])]],
    threshold="0.5",
)
def test_mine_reads_what_align_writes(articles, threshold, ppdb_file, synonym_file):
    # The paper's two steps, align then mine, give what mine gives on the
    # article directory itself, up to the example ids: line numbers here,
    # <article>:<level>:<index> there. A sentence holding a tab cannot
    # round-trip, so align rejects it and writes nothing.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        art = root / "articles"
        art.mkdir()
        for i, rows in enumerate(articles):
            # Level 0 holds the complex sides, level 1 the simple sides in
            # reverse and level 2 in order.
            levels = ([c for c, _ in rows], [s for _, s in reversed(rows)], [s for _, s in rows])
            for level, sentences in enumerate(levels):
                (art / f"a{i}.{level}.txt").write_text("".join(s + "\n" for s in sentences), encoding="utf-8")
        aligned = root / "aligned.tsv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["align", str(art), "--threshold", threshold, "-o", str(aligned)])
        assert main(_mine_args(art, root / "direct", ppdb_file, synonym_file, ("--threshold", threshold))) == 0
        pairs = list(cli._align(cli._list_articles(art), float(threshold)))
        if any("\t" in p.complex.raw + p.simple.raw for p in pairs):
            assert code == 2 and "holds a tab" in err.getvalue() and not aligned.exists()
            return
        assert code == 0
        assert main(_mine_args(aligned, root / "two-step", ppdb_file, synonym_file)) == 0
        direct, two_step = root / "direct", root / "two-step"
        assert (two_step / "cases.tsv").read_bytes() == (direct / "cases.tsv").read_bytes()
        rows = lambda out: [row.rpartition("\t") for row in (out / "altlexes.tsv").read_text().splitlines()]
        without_ids = lambda out: [(row, ids.count(";")) for row, _, ids in rows(out)]
        assert without_ids(two_step) == without_ids(direct)


def _run_with_closed_stdout(argv, cwd, unbuffered):
    """``altlex-miner ARGV`` in a child process whose stdout is a pipe that
    its reader has closed, as ``| head -0`` leaves it: (exit code, stderr)."""
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "altlex_miner", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    child.stdout.close()  # before the child can have started writing
    stderr = child.stderr.read()
    return child.wait(timeout=60), stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["mine", "align", "kappa"])
def test_a_closed_stdout_is_no_error(tmp_path, example_corpus, ppdb_file, synonym_file, command, unbuffered):
    # The outputs are written before the summary is printed, so a reader
    # that stops early, such as ``head``, loses only the summary.
    (tmp_path / "agree.tsv").write_text("p\t1\t1\nq\t0\t1\n", encoding="utf-8")
    argv = {
        "mine": _mine_args(example_corpus, "out", ppdb_file, synonym_file),
        "align": ["align", str(_align_dir(tmp_path)), "-o", "aligned.tsv"],
        "kappa": ["kappa", "agree.tsv"],
    }[command]
    assert _run_with_closed_stdout(argv, tmp_path, unbuffered) == (0, "")
    if command == "mine":
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(_OUTPUT_NAMES)
    if command == "align":
        assert (tmp_path / "aligned.tsv").read_text(encoding="utf-8") == _ALIGNED


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_an_output_on_a_closed_stdout_is_an_error(tmp_path, unbuffered):
    # Here the closed pipe is an output the user named, so the run fails.
    argv = ["align", str(_align_dir(tmp_path)), "-o", "/dev/stdout"]
    broken = f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}: '/dev/stdout'\n"
    assert _run_with_closed_stdout(argv, tmp_path, unbuffered) == (2, broken)


def test_a_write_error_names_the_output_not_a_temporary_file(
    tmp_path, example_corpus, ppdb_file, synonym_file, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    missing = f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
    assert main(["align", str(_align_dir(tmp_path)), "-o", "nodir/x.tsv"]) == 2
    assert capsys.readouterr().err == f"{missing}: 'nodir/x.tsv'\n"
    # cases.tsv is a link into a missing directory: the first output fails,
    # and the other two are left as they were.
    out = tmp_path / "out"
    out.mkdir()
    (out / "cases.tsv").symlink_to(tmp_path / "gone" / "cases.tsv")
    previous = {name: f"previous {name}\n".encode() for name in _OUTPUT_NAMES[1:]}
    for name, data in previous.items():
        (out / name).write_bytes(data)
    assert main(_mine_args(example_corpus, "out", ppdb_file, synonym_file)) == 2
    assert capsys.readouterr().err == f"{missing}: 'out/cases.tsv'\n"
    assert {p.name: p.read_bytes() for p in out.iterdir() if not p.is_symlink()} == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["articles", "out", "pairs.tsv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(_OUTPUT_NAMES)


def test_a_line_of_whitespace_and_bom_is_blank(tmp_path, ppdb_file, synonym_file, capsys):
    # U+FEFF is no token, so a line holding only it and whitespace is a
    # blank line: no row of a pairs file, and no empty sentence of an article.
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\n\ufeff\n \ufeff\t\n", encoding="utf-8")
    assert main(_mine_args(pairs, tmp_path / "out", ppdb_file, synonym_file)) == 0
    assert capsys.readouterr().out.startswith("pairs: 1\n")
    art = _align_dir(tmp_path)
    (art / "s.1.txt").write_text("Rain fell on the town.\n\ufeff\nThe fox ran far.\n", encoding="utf-8")
    aligned = tmp_path / "aligned.tsv"
    assert main(["align", str(art), "--threshold", "0", "-o", str(aligned)]) == 0
    assert aligned.read_text(encoding="utf-8") == _ALIGNED


def test_resource_warnings_name_each_skipped_line(tmp_path, example_corpus, ppdb_file, synonym_file):
    # A skipped PPDB or synonym line is reported on stderr, in file order,
    # and mines as if it were not there.
    noisy_ppdb, noisy_synonyms = tmp_path / "noisy_ppdb.txt", tmp_path / "noisy_synonyms.tsv"
    noisy_ppdb.write_text(
        "[X] ||| despite ||| though\n"
        "[X] ||| despite ||| despite ||| PPDB2.0Score=1.0\n"
        "[X] ||| despite ||| notwithstanding ||| Equivalence\n"
        + ppdb_file.read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    noisy_synonyms.write_text(
        "because\tsince\tas\nsince\tsince\n" + synonym_file.read_text(encoding="utf-8"), encoding="utf-8"
    )
    run = _run_cli(_mine_args(example_corpus, tmp_path / "noisy", noisy_ppdb, noisy_synonyms))
    assert run.returncode == 0
    assert run.stderr == (
        f"{noisy_ppdb}: line 1: skipping line with 3 fields\n"
        f"{noisy_ppdb}: line 2: skipping empty or identity paraphrase\n"
        f"{noisy_ppdb}: line 3: no score found in feature column\n"
        f"{noisy_synonyms}: line 1: skipping line with 3 fields\n"
        f"{noisy_synonyms}: line 2: skipping empty or identity synonym pair\n"
    )
    assert main(_mine_args(example_corpus, tmp_path / "clean", ppdb_file, synonym_file)) == 0
    outputs = lambda out: {name: (out / name).read_bytes() for name in _OUTPUT_NAMES}
    assert outputs(tmp_path / "noisy") == outputs(tmp_path / "clean")
