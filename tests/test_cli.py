import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altlex_miner import SentencePair, Sentence, Token, cli, load_ppdb, load_synonyms
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


def test_mine_deterministic_across_worker_counts(tmp_path, example_corpus, ppdb_file, synonym_file):
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
    # one worker and with two.
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
        for workers in ("1", "2"):
            assert _mined_outputs(other, tmp / f"out{workers}", ppdb_file, synonym_file, workers) == expected


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched mine_corpus",
)
def test_mine_crashed_worker_is_input_error(
    tmp_path, example_corpus, ppdb_file, synonym_file, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "mine_corpus", lambda *args, **kwargs: os._exit(3))
    args = _mine_args(example_corpus, tmp_path / "out", ppdb_file, synonym_file, ["--workers", "2"])
    assert main(args) == 2
    assert "error: mining worker process exited unexpectedly" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad_file", ["utf-8", "level", "duplicate-level"])
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
    else:
        bad = art / "e.01.txt"
        bad.write_text("A sentence.\n", encoding="utf-8")
        message = f"error: {bad} and {art / 'e.1.txt'}: both are article level 1"
    args = _mine_args(art, tmp_path / "out", ppdb_file, synonym_file, ("--workers", "2"))
    assert main(args) == 2
    assert message in capsys.readouterr().err


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


def test_mine_articles_memory_does_not_grow_with_articles(tmp_path, inventory, ppdb_file, synonym_file):
    # Each article is read, aligned and mined before the next is read, so
    # four equal articles need about the peak of one.
    art = tmp_path / "articles"
    art.mkdir()
    for art_id in "abcd":
        for level, column in ((0, 0), (1, 1), (2, 1)):
            text = "".join(f"{row[column]} w{i}\n" for i in range(40) for row in EXAMPLE_ROWS)
            (art / f"{art_id}.{level}.txt").write_text(text, encoding="utf-8")
    stores = [load_ppdb(ppdb_file), load_synonyms(synonym_file)]
    articles = cli._list_articles(art)
    _fill_tuple_free_lists()
    cli._mine_articles(articles, 0.4, inventory, stores)
    small = _traced_peak(cli._mine_articles, articles[:1], 0.4, inventory, stores)
    large = _traced_peak(cli._mine_articles, articles, 0.4, inventory, stores)
    assert large < 1.5 * small


_MODULES_AFTER_RUN = """
import sys
from altlex_miner import cli
code = cli.main(sys.argv[2:])
print(code, " ".join(name for name in sys.argv[1].split(",") if name in sys.modules))
"""


def _modules_after_run(argv, modules):
    """Run ``cli.main(argv)`` in a fresh interpreter; its exit code and which
    of ``modules`` it imported, in this process only."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_RUN, ",".join(modules), *map(str, argv)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.splitlines()[-1]


def test_runs_import_numpy_and_the_pool_only_where_used(tmp_path, example_corpus, ppdb_file, synonym_file):
    # Workers align article shards, so the parent never needs numpy; a run
    # with one worker never starts a pool.
    art = _sharded_article_dir(tmp_path)
    modules = ("numpy", "concurrent.futures.process")
    sharded = _mine_args(art, tmp_path / "a", ppdb_file, synonym_file, ("--workers", "2"))
    assert _modules_after_run(sharded, modules) == "0 concurrent.futures.process"
    serial = _mine_args(example_corpus, tmp_path / "t", ppdb_file, synonym_file, ("--workers", "1"))
    assert _modules_after_run(serial, modules) == "0 "


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
        assert not _pickled_types((fn, shard)) & {Sentence, SentencePair, Token}


def _map_only_pool(log):
    """A stand-in for the process pool that offers only ``map``, as
    perfbench's traced pool does, and runs each task in this process when
    its result is read. ``log`` gets ``("start", max_workers)`` and
    ``("map", number of tasks)`` entries."""

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
    # An input that ends inside the first window of 2 x workers tasks goes
    # out as at most ``workers`` shards; a longer one streams out in such
    # windows.
    cases = [
        # (input, workers, rows per task, expected log)
        (_write_rows(tmp_path / "two.tsv", 2), 6, 1000, [("start", 2), ("map", 2)]),
        (_write_rows(tmp_path / "small.tsv", 23), 6, 5, [("start", 6), ("map", 6)]),
        (_write_rows(tmp_path / "chunked.tsv", 23), 2, 2, [("start", 2), ("map", 4), ("map", 4), ("map", 4)]),
        (tmp_path / "chunked.tsv", 3, 4, [("start", 3), ("map", 6)]),
        (_sharded_article_dir(tmp_path), 2, 1000, [("start", 2), ("map", 4)]),  # four with level 0
        (tmp_path / "articles", 3, 1000, [("start", 3), ("map", 3)]),
    ]
    for corpus, workers, per_task, expected in cases:
        log = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _map_only_pool(log))
        monkeypatch.setattr(cli, "_ROWS_PER_TASK", per_task)
        extra = ("--workers", str(workers), "--threshold", "0.4")
        assert main(_mine_args(corpus, tmp_path / "out", ppdb_file, synonym_file, extra)) == 0
        assert log == expected


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


def test_mine_pool_parent_memory_does_not_grow_with_rows(tmp_path, ppdb_file, synonym_file, monkeypatch, capsys):
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


def test_mine_pool_malformed_last_row_is_input_error(tmp_path, ppdb_file, synonym_file, monkeypatch, capsys):
    # The parent reads the bad row after handing the pool three windows of
    # one-row tasks; the run still writes nothing.
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 1)
    corpus = _write_rows(tmp_path / "pairs.tsv", 12)
    with corpus.open("a", encoding="utf-8") as fh:
        fh.write("one field only\n")
    out = tmp_path / "out"
    assert main(_mine_args(corpus, out, ppdb_file, synonym_file, ("--workers", "2"))) == 2
    assert f"error: {corpus}: line 13: expected 2 tab-separated fields, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched mine_corpus",
)
def test_mine_worker_crash_after_the_first_window_is_input_error(
    tmp_path, ppdb_file, synonym_file, monkeypatch, capsys
):
    # One-row tasks in windows of four: row 9 is mined in the third window.
    mine_corpus = cli.mine_corpus

    def crash_on_row_9(pairs, *args):
        pairs = list(pairs)
        if any(pair.source_id == "9" for pair in pairs):
            os._exit(3)
        return mine_corpus(pairs, *args)

    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 1)
    monkeypatch.setattr(cli, "mine_corpus", crash_on_row_9)
    corpus = _write_rows(tmp_path / "pairs.tsv", 12)
    out = tmp_path / "out"
    assert main(_mine_args(corpus, out, ppdb_file, synonym_file, ("--workers", "2"))) == 2
    assert "error: mining worker process exited unexpectedly" in capsys.readouterr().err
    assert not out.exists()


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
    assert f"error: {bad}: line 3: invalid UTF-8" in capsys.readouterr().err


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
    # Every emitted AltLex row must be reproducible by replaying one of its
    # example pairs through mine_pair alone.
    from altlex_miner import load_aligned_tsv, mine_pair
    from altlex_miner.discourse import Sense

    out = tmp_path / "out"
    assert main(_mine_args(example_corpus, out, ppdb_file, synonym_file)) == 0
    pairs_by_id = {p.source_id: p for p in load_aligned_tsv(example_corpus)}
    rows = (out / "altlexes.tsv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        text, sense_name, _, _, _, ids = row.split("\t")
        replayed = mine_pair(pairs_by_id[ids.split(";")[0]], inventory, fixture_stores)
        found = {(" ".join(c.paraphrase.target), c.sense) for c in replayed}
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
    assert "row 2" in capsys.readouterr().err


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
        assert f"error: {config}:1: unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_min_score_is_input_error(
    tmp_path, example_corpus, ppdb_file, synonym_file, capsys, value
):
    # nan keeps no PPDB line, inf none and -inf all: the run would exit 0
    # with results that no score cutoff gives.
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"min_score = {value}\n", encoding="utf-8")
    for extra in ([f"--min-score={value}"], ["--config", str(config)]):
        assert main(_mine_args(example_corpus, out, ppdb_file, synonym_file, extra)) == 2
        assert f"error: min_score must be finite, got {float(value)}" in capsys.readouterr().err
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
            ["kappa", str(root / "agreement.tsv"), *config],
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
    out = subprocess.run(
        [sys.executable, "-m", "altlex_miner", "kappa", str(path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "1.000"
