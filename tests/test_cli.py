import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from altlex_miner import SentencePair, Sentence, Token, cli
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


def test_mine_article_dir_deterministic_across_worker_counts(tmp_path, ppdb_file, synonym_file):
    art = _article_dir(tmp_path)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        extra = ("--workers", workers, "--threshold", "0.4")
        assert main(_mine_args(art, out, ppdb_file, synonym_file, extra)) == 0
        outputs.append(
            tuple((out / name).read_bytes() for name in ("cases.tsv", "altlexes.tsv", "altlexes.json"))
        )
    payload = json.loads(outputs[0][2])
    assert payload["total_pairs"] == 10
    assert [a["example_pair_ids"] for a in payload["altlexes"]] == [["a:1:3", "a:2:3", "b:1:1"]]
    assert outputs[0] == outputs[1]


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
        for row in shard:
            assert isinstance(row, tuple) and len(row) == 3
            assert all(type(field) is str for field in row)
        assert not _pickled_types((fn, shard)) & {Sentence, SentencePair, Token}


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


def test_mine_sense_level_flag(tmp_path, example_corpus, ppdb_file, synonym_file):
    out = tmp_path / "out"
    code = main(
        _mine_args(example_corpus, out, ppdb_file, synonym_file, ("--sense-level", "1"))
    )
    assert code == 0
    assert "despite" in (out / "altlexes.tsv").read_text()


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
    with pytest.raises(SystemExit) as exc:
        main(["mine"])  # missing INPUT positional
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


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
    art = tmp_path / "articles"
    art.mkdir()
    (art / "story.0.txt").write_text("A sentence.\n", encoding="utf-8")
    (art / "story.7.txt").write_text("A sentence.\n", encoding="utf-8")
    assert main(["align", str(art), "--output", str(tmp_path / "o.tsv")]) == 2
    assert "level" in capsys.readouterr().err


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


def test_config_file_bad_key(tmp_path, example_corpus):
    config = tmp_path / "run.cfg"
    config.write_text("nonsense=1\n", encoding="utf-8")
    assert main(["mine", str(example_corpus), "--config", str(config)]) == 2


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
