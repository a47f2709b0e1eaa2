"""Acceptance suite: one test per release criterion, each printing a
PASS line (failures surface as normal pytest failures).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import random
import resource
import time

import pytest

from altlex_miner import cli
from altlex_miner.cli import main, percent_rows
from altlex_miner.corpus import (
    AgreementTable,
    SentencePair,
    align_articles,
    cohen_kappa,
    compute_idf,
    tfidf_cosine,
)
from altlex_miner.discourse import Sense, detect_explicit
from altlex_miner.lexres import ParaphraseStore, Resource
from altlex_miner.mining import (
    AltLexInventory,
    AltLexRecord,
    CaseKind,
    ChangeCase,
    classify_annotations,
    mine_corpus,
    substitute,
    verify_candidate,
)
from altlex_miner.text import match_phrase, tokenize

from test_mining import _ann, _categorize, _mine_one


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_c1_worked_example_suite(
    woodcuts_pair, broadcast_pair, landmark_pair, comics_pair, drones_pair, inventory, fixture_stores
):
    start = time.perf_counter()

    # "whilst" pair: NonExp-Exp, simple side Contrast on "but".
    assert _categorize(woodcuts_pair, inventory) == ChangeCase.NON_EXP_EXP
    anns = detect_explicit(woodcuts_pair.simple, inventory)
    assert [(a.connective_id, a.sense) for a in anns] == [("but", Sense.CONTRAST)]

    # argument-removal pair: Exp-NonExp with Synchrony on "when"; mining yields nothing.
    assert _categorize(broadcast_pair, inventory) == ChangeCase.EXP_NON_EXP
    anns = detect_explicit(broadcast_pair.complex, inventory)
    assert [(a.connective_id, a.sense) for a in anns] == [("when", Sense.SYNCHRONY)]
    assert _mine_one(broadcast_pair, inventory, fixture_stores)[0] == []

    # "despite" -> Contrast verifies true after substitution.
    though = inventory.by_id["though"]
    assert though.top_sense is Sense.CONTRAST
    span = match_phrase(comics_pair.complex, ("despite",))[0]
    assert verify_candidate(comics_pair.complex, span, though, inventory) is True

    # temporal-PP "since" -> Cause verifies false after substitution.
    because = inventory.by_id["because"]
    assert because.top_sense is Sense.CAUSE
    span = match_phrase(landmark_pair.simple, ("since",))[0]
    assert verify_candidate(landmark_pair.simple, span, because, inventory) is False

    # drones pair: Exp-NonExp "before" Asynchronous mines AltLex "used to".
    assert _categorize(drones_pair, inventory) == ChangeCase.EXP_NON_EXP
    mined, _ = _mine_one(drones_pair, inventory, fixture_stores)
    assert [(text, sense) for text, sense, *_ in mined] == [(("used", "to"), Sense.ASYNCHRONOUS)]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"worked-example suite took {elapsed:.3f}s"
    _report("1 worked-example end-to-end suite")


def test_c2_categorization_totality():
    rng = random.Random(42)
    conn_pool = ["but", "because", "when", "so", "however", "though"]
    senses = list(Sense)
    for _ in range(10_000):
        complex_anns = [
            _ann(rng.choice(conn_pool), rng.choice(senses), start=3 * i)
            for i in range(rng.randint(0, 3))
        ]
        simple_anns = [
            _ann(rng.choice(conn_pool), rng.choice(senses), start=3 * i)
            for i in range(rng.randint(0, 3))
        ]
        case = classify_annotations(complex_anns, simple_anns)

        nc, ns = len(complex_anns), len(simple_anns)
        fires = {
            CaseKind.OTHER: nc > 1
            or ns > 1
            or (
                nc == 1
                and ns == 1
                and (
                    complex_anns[0].connective_id != simple_anns[0].connective_id
                    or complex_anns[0].sense != simple_anns[0].sense
                )
            ),
            CaseKind.NON_EXP_NON_EXP: nc == 0 and ns == 0,
            CaseKind.EXP_EXP: nc == 1
            and ns == 1
            and complex_anns[0].connective_id == simple_anns[0].connective_id
            and complex_anns[0].sense == simple_anns[0].sense,
            CaseKind.NON_EXP_EXP: nc == 0 and ns == 1,
            CaseKind.EXP_NON_EXP: nc == 1 and ns == 0,
        }
        firing = [kind for kind, fired in fires.items() if fired]
        assert len(firing) == 1
        assert case.kind is firing[0]
        assert (case.other_kind is not None) == (case.kind is CaseKind.OTHER)
    _report("2 categorization totality (10,000 configurations)")


def test_c3_self_substitution_soundness(inventory):
    failures = []
    for entry in inventory:
        if entry.discontinuous:
            raw = (
                f"{' '.join(entry.parts[0]).capitalize()} the team was ready "
                f"{' '.join(entry.parts[1])} the plan was approved."
            )
        else:
            raw = f"The team was ready, {' '.join(entry.parts[0])} the plan was approved."
        sentence = tokenize(raw)
        anns = detect_explicit(sentence, inventory)
        if [a.connective_id for a in anns] != [entry.id]:
            failures.append((entry.id, "not detected", [a.connective_id for a in anns]))
            continue
        before = (anns[0].connective_id, anns[0].sense)
        redetected = detect_explicit(substitute(sentence, anns[0].span, entry.parts[0]), inventory)
        if [(a.connective_id, a.sense) for a in redetected] != [before]:
            failures.append((entry.id, "changed after self-substitution", redetected))
    assert failures == []
    _report("3 self-substitution soundness (100 connectives)")


def _random_inventory(rng):
    inv = AltLexInventory()
    texts = [("despite",), ("used", "to"), ("caused", "by"), ("resulting",), ("owing", "to")]
    senses = list(Sense)
    for _ in range(rng.randint(0, 6)):
        text = rng.choice(texts)
        sense = rng.choice(senses)
        key = (text, sense)
        record = inv.records.get(key)
        if record is None:
            resource_kind = rng.choice(list(Resource))
            record = AltLexRecord(text=text, sense=sense, resource=resource_kind)
            inv.records[key] = record
        record.token_count += rng.randint(1, 3)
        record.example_pair_ids.append(str(rng.randint(1, 99)))
    kinds = list(ChangeCase)
    for case in rng.sample(kinds, rng.randint(0, len(kinds))):
        inv.per_case_counts[case] = rng.randint(1, 9)
    for sense in rng.sample(senses, rng.randint(0, 4)):
        inv.per_sense_alignment_counts[sense] = rng.randint(1, 9)
    return inv


def _count_view(inv):
    return (
        {k: r.token_count for k, r in inv.records.items()},
        dict(inv.per_case_counts),
        dict(inv.per_sense_alignment_counts),
    )


def _full_view(inv):
    return (
        {k: (r.token_count, r.resource, tuple(r.example_pair_ids)) for k, r in inv.records.items()},
        dict(inv.per_case_counts),
        dict(inv.per_sense_alignment_counts),
    )


def test_c4_merge_algebra():
    rng = random.Random(1234)
    for _ in range(1000):
        a, b, c = (_random_inventory(rng) for _ in range(3))
        ab, ba = a.merge(b), b.merge(a)
        assert set(ab.records) == set(ba.records)
        assert _count_view(ab) == _count_view(ba)
        assert _full_view(a.merge(b).merge(c)) == _full_view(a.merge(b.merge(c)))
    _report("4 inventory-merge algebra (1,000 trials)")


def test_update_folds_as_a_merge_chain():
    # ``mine`` folds each task's result into one inventory in place; that
    # must equal merging them left to right, and leave each folded one as
    # it was.
    rng = random.Random(4321)
    for _ in range(300):
        parts = [_random_inventory(rng) for _ in range(rng.randint(1, 5))]
        before = [_full_view(inv) for inv in parts]
        chained = functools.reduce(AltLexInventory.merge, parts)
        folded = AltLexInventory()
        for inv in parts:
            folded.update(inv)
        assert _full_view(folded) == _full_view(chained)
        assert [_full_view(inv) for inv in parts] == before
    _report("4 in-place fold equals the merge chain (300 trials)")


def test_c5_alignment_oracle_equivalence():
    rng = random.Random(99)
    vocab = ["sun", "moon", "tide", "wind", "leaf", "stone", "bird", "rain", "ship", "rock", "fern", "dust"]
    start = time.perf_counter()
    for trial in range(500):
        make = lambda: tokenize(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8))))
        cx = [make() for _ in range(rng.randint(1, 8))]
        sx = [make() for _ in range(rng.randint(1, 8))]
        threshold = rng.choice([0.0, 0.2, 0.5, 0.8])
        got = align_articles(tuple(cx), tuple(sx), "c", 1, threshold=threshold)

        idf = compute_idf(cx + sx)
        expected = []
        for si, s in enumerate(sx):
            sims = [tfidf_cosine(s, c, idf) for c in cx]
            best = max(range(len(cx)), key=lambda i: (sims[i], -i))
            if sims[best] >= threshold:
                expected.append((si, best, sims[best]))

        got_view = [
            (int(p.source_id.split(":")[2]), [c.raw for c in cx].index(p.complex.raw), p.similarity)
            for p in got
        ]
        assert len(got_view) == len(expected), f"trial {trial}"
        for (gsi, gci, gsim), (esi, eci, esim) in zip(got_view, expected):
            assert (gsi, gci) == (esi, eci), f"trial {trial}"
            assert gsim == pytest.approx(min(esim, 1.0), abs=1e-9), f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"alignment property took {elapsed:.2f}s"
    _report(f"5 alignment oracle equivalence (500 trials, {elapsed:.2f}s)")


def test_c6_kappa_values():
    assert cohen_kappa(AgreementTable(both_yes=50, both_no=50)) == 1.0
    balanced = AgreementTable(both_yes=25, both_no=25, a_yes_b_no=25, a_no_b_yes=25)
    assert cohen_kappa(balanced) == 0.0
    hand = AgreementTable(both_yes=40, both_no=45, a_yes_b_no=8, a_no_b_yes=7)
    assert cohen_kappa(hand) == pytest.approx(0.6992782678428228, abs=1e-9)
    _report("6 kappa values")


def test_c7_mine_determinism_across_workers(
    tmp_path, ppdb_file, synonym_file, worked_example_pairs, monkeypatch, pool_starts
):
    monkeypatch.setattr(cli, "_ROWS_PER_TASK", 1)  # four tasks, so eight workers start a pool
    corpus = tmp_path / "pairs.tsv"
    corpus.write_text(
        "".join(f"{p.complex.raw}\t{p.simple.raw}\n" for p in worked_example_pairs), encoding="utf-8"
    )
    blobs = []
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        code = main(
            [
                "mine",
                str(corpus),
                "--ppdb",
                str(ppdb_file),
                "--synonyms",
                str(synonym_file),
                "--workers",
                workers,
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        blobs.append(
            tuple((out / n).read_bytes() for n in ("cases.tsv", "altlexes.tsv", "altlexes.json"))
        )
    assert blobs[0] == blobs[1]
    assert pool_starts == [2]
    _report("7 byte-identical outputs for worker counts 1 and 8")


def test_c8_report_percentages(tmp_path, ppdb_file, synonym_file, worked_example_pairs, inventory):
    explicit = "The team was ready, but the plan was rejected."
    other_simple = "The plan was rejected because the team was ready."
    fixtures = {
        "examples": [(p.complex.raw, p.simple.raw) for p in worked_example_pairs],
        "mixed7": [
            ("The sky was clear.", "The sky was blue."),
            ("The harvest was lost.", "The crops failed."),
            ("A letter arrived late.", "The letter came late."),
            (explicit, explicit),
            ("The plan was approved in the night.", explicit.replace("rejected", "approved")),
            ("When the show was broadcast, Rupert Boneham won the million dollars.",
             "Rupert Boneham won the million dollars."),
            (explicit, other_simple),
        ],
    }
    for name, rows in fixtures.items():
        corpus = tmp_path / f"{name}.tsv"
        corpus.write_text("".join(f"{c}\t{s}\n" for c, s in rows), encoding="utf-8")
        out = tmp_path / f"out_{name}"
        assert (
            main(
                [
                    "mine",
                    str(corpus),
                    "--ppdb",
                    str(ppdb_file),
                    "--synonyms",
                    str(synonym_file),
                    "--output-dir",
                    str(out),
                ]
            )
            == 0
        )
        lines = (out / "cases.tsv").read_text().splitlines()[1:]
        body = [line.split("\t") for line in lines if not line.startswith("Total")]
        assert abs(sum(float(f[2]) for f in body) - 100.0) <= 0.01, name

    rng = random.Random(8)
    for _ in range(200):
        counts = [rng.randint(0, 40) for _ in range(5)]
        if sum(counts) == 0:
            continue
        assert abs(sum(percent_rows(counts)) - 100.0) <= 0.01
    _report("8 report percentages sum to 100.00")


def _synthetic_pairs(count, rng):
    nouns = [
        "farmer", "village", "storm", "harvest", "river", "bridge", "market",
        "winter", "cattle", "road", "tower", "letter", "captain", "garden",
        "forest", "engine", "doctor", "teacher", "mountain", "orchard",
    ]
    verbs = [
        "rebuilt", "crossed", "watched", "planted", "repaired", "guarded",
        "visited", "painted", "measured", "cleaned",
    ]
    connectives = ["because", "although", "until", "unless", "whereas"]
    pairs = []
    for i in range(count):
        n1, n2 = rng.choice(nouns), rng.choice(nouns)
        v1, v2 = rng.choice(verbs), rng.choice(verbs)
        kind = rng.random()
        if kind < 0.6:
            complex_raw = f"The {n1} {v1} the {n2}."
            simple_raw = f"The {n2} was {v2}."
        elif kind < 0.8:
            conn = rng.choice(connectives)
            complex_raw = f"The {n1} {v1} the {n2}, {conn} the {n2} was {v2}."
            simple_raw = f"The {n1} {v1} the {n2}."
        elif kind < 0.9:
            conn = rng.choice(connectives)
            complex_raw = f"The {n1} {v1} the {n2}."
            simple_raw = f"The {n1} {v1} the {n2}, {conn} the {n2} was {v2}."
        else:
            complex_raw = f"The {n1} flourishes despite no longer having its {n2}."
            simple_raw = f"The {n1} does well, though they do not have their {n2}."
        pairs.append(
            SentencePair(
                complex=tokenize(complex_raw), simple=tokenize(simple_raw), source_id=str(i)
            )
        )
    return pairs


def test_c9_scale_smoke(inventory):
    rng = random.Random(7)
    store = ParaphraseStore(Resource.PPDB)
    store.add(("though",), ("despite",), 3.0)
    store.add(("before",), ("used", "to"), 2.0)

    start = time.perf_counter()
    pairs = _synthetic_pairs(50_000, rng)
    inv = mine_corpus(pairs, inventory, [store])
    elapsed = time.perf_counter() - start

    assert inv.total_pairs == 50_000
    assert (("despite",), Sense.CONTRAST) in inv.records
    assert elapsed < 60.0, f"50k-pair mining took {elapsed:.1f}s"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 1024 * 1024, f"peak RSS {peak_kb / 1024:.0f} MiB"
    _report(f"9 scale smoke (50,000 pairs in {elapsed:.1f}s, peak {peak_kb / 1024:.0f} MiB)")
