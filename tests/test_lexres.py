import pytest

from altlex_miner.lexres import Resource, expand, load_ppdb, load_synonyms


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


def test_load_synonyms_strips_utf8_bom(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("\ufeffbecause\tsince\n", encoding="utf-8")
    store = load_synonyms(path)
    assert [e.target for e in store.lookup(("because",))] == [("since",)]


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


def test_mean_expansions_instrumentation(tmp_path, inventory):
    path = tmp_path / "ppdb"
    lines = [
        "[X] ||| though ||| despite ||| PPDB2.0Score=3.0 ||| 0 ||| x",
        "[X] ||| though ||| in spite of this ||| PPDB2.0Score=2.0 ||| 0 ||| x",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    store = load_ppdb(path)
    assert store.mean_expansions == 0.0
    expand(inventory.by_id["though"], store, inventory)
    expand(inventory.by_id["because"], store, inventory)
    assert store.mean_expansions == pytest.approx(1.0)  # 2 results over 2 queries
