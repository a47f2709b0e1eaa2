import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import altlex_miner
from altlex_miner import similarity
from altlex_miner.corpus import compute_idf, tfidf_cosine
from altlex_miner.text import tokenize

VOCAB_WORDS = ["sun", "moon", "tide", "wind", "leaf", "stone", "bird", "rain", "ship", "rock"]


def _random_sentences(rng, count):
    return [
        tokenize(" ".join(rng.choice(VOCAB_WORDS) for _ in range(rng.randint(1, 7))))
        for _ in range(count)
    ]


def _weights(sentences, vocab, idf):
    """CSR tf*idf weights of ``sentences`` under a ``compute_idf`` table."""
    indptr, indices, counts = similarity.csr_counts(sentences, vocab)
    idf_by_id = np.array([idf.get(term, 0.0) for term in vocab])  # vocab is in id order
    return indptr, indices, counts * idf_by_id[indices]


def _matrices(rng):
    a = _random_sentences(rng, rng.randint(1, 6))
    b = _random_sentences(rng, rng.randint(1, 6))
    idf = compute_idf(a + b)
    vocab = similarity.build_vocab([a, b])
    csr_a = _weights(a, vocab, idf)
    csr_b = _weights(b, vocab, idf)
    reference = np.array([[tfidf_cosine(sa, sb, idf) for sb in b] for sa in a])
    return csr_a, csr_b, len(vocab), reference


def test_numpy_fallback_matches_reference():
    rng = random.Random(12)
    for _ in range(30):
        csr_a, csr_b, nv, reference = _matrices(rng)
        got = similarity.cosine_matrix(csr_a, csr_b, nv)
        assert got.tolist() == reference.tolist()


def test_zero_rows_give_zero_similarity():
    a = [tokenize(""), tokenize("sun moon")]
    b = [tokenize("sun moon")]
    idf = compute_idf(a + b)
    vocab = similarity.build_vocab([a, b])
    sims = similarity.cosine_matrix(
        _weights(a, vocab, idf), _weights(b, vocab, idf), len(vocab)
    )
    assert sims[0, 0] == 0.0
    assert sims[1, 0] == pytest.approx(1.0, abs=1e-12)


# Sentences over three words, empty ones included; a side repeats sentences
# often, so rows tie exactly.
_SIDE = st.lists(
    st.lists(st.sampled_from(["sun", "moon", "tide"]), max_size=4).map(" ".join),
    min_size=1,
    max_size=7,
)


@given(_SIDE, _SIDE)
@example(["", "sun moon", "", "tide", ""], ["", "moon", "", "sun tide", ""])
@example(["sun moon", "sun moon", "tide"], ["tide", "sun moon", "sun moon", "moon sun"])
@example(["sun", "sun sun", ""], ["sun sun sun", "", "sun"])
@example([""], ["", ""])
def test_kernel_matches_brute_force_reference(simple_raws, complex_raws):
    sx = [tokenize(r) for r in simple_raws]
    cx = [tokenize(r) for r in complex_raws]
    idf = compute_idf(sx + cx)
    vocab = similarity.build_vocab([cx, sx])
    sims = similarity.cosine_matrix(
        _weights(sx, vocab, idf), _weights(cx, vocab, idf), len(vocab)
    )
    reference = [[tfidf_cosine(s, c, idf) for c in cx] for s in sx]
    assert sims.shape == (len(sx), len(cx))
    assert sims.tolist() == reference
    # Alignment picks each row's first maximum, as a scan of the reference
    # would; "sun" against "sun sun sun" and "sun" must tie or not tie alike.
    for ref_row, best in zip(reference, sims.argmax(axis=1).tolist()):
        assert best == ref_row.index(max(ref_row))


def test_kernel_blocks_do_not_change_bits(monkeypatch):
    rng = random.Random(5)
    sx = _random_sentences(rng, 40) + [tokenize("")]
    cx = [tokenize("")] + _random_sentences(rng, 30)
    idf = compute_idf(sx + cx)
    vocab = similarity.build_vocab([cx, sx])
    a = _weights(sx, vocab, idf)
    b = _weights(cx, vocab, idf)
    default = similarity.cosine_matrix(a, b, len(vocab))
    monkeypatch.setattr(similarity, "_BLOCK_PRODUCTS", 1)
    one_row_blocks = similarity.cosine_matrix(a, b, len(vocab))
    assert np.array_equal(one_row_blocks.view(np.int64), default.view(np.int64))


@pytest.mark.parametrize("raws", [[], [""]], ids=["no-sentences", "empty-sentence"])
def test_csr_weights_without_terms(raws):
    counts = similarity.csr_counts([tokenize(r) for r in raws], {})
    indptr, indices, data = similarity.csr_weights(counts, np.zeros(0, np.int64), len(raws))
    assert indptr.tolist() == [0] * (len(raws) + 1)
    assert indices.size == 0 and data.size == 0
    assert (indptr.dtype, indices.dtype, data.dtype) == (np.int64, np.int64, np.float64)


def test_csr_weights_sums_a_repeated_term():
    sentences = [tokenize("tide tide tide"), tokenize(""), tokenize("moon sun moon")]
    idf = compute_idf(sentences)
    vocab = similarity.build_vocab([sentences])
    counts = similarity.csr_counts(sentences, vocab)
    assert counts[2].tolist() == [3, 2, 1]
    df = np.bincount(counts[1], minlength=len(vocab))
    indptr, indices, data = similarity.csr_weights(counts, df, len(sentences))
    assert indptr.tolist() == [0, 1, 1, 3]
    assert indices.tolist() == [vocab["tide"], vocab["moon"], vocab["sun"]]
    assert data.tolist() == [3 * idf["tide"], 2 * idf["moon"], 1 * idf["sun"]]


def test_csr_weights_match_compute_idf_bits():
    # 20 documents, "sun" in 19: np.log gives ln(21 / 20) one bit away from
    # math.log on some builds, so the weights must take compute_idf's path.
    sentences = [tokenize("sun")] * 18 + [tokenize("moon sun moon"), tokenize("tide")]
    idf = compute_idf(sentences)
    vocab = similarity.build_vocab([sentences])
    counts = similarity.csr_counts(sentences, vocab)
    df = np.bincount(counts[1], minlength=len(vocab))
    weights = similarity.csr_weights(counts, df, len(sentences))
    assert [w.tolist() for w in weights] == [w.tolist() for w in _weights(sentences, vocab, idf)]


def test_tsv_mine_does_not_import_scipy(tmp_path, ppdb_file, synonym_file):
    # scipy is only needed to align article directories; importing it on
    # every run would add its memory and start-up cost to TSV-only runs.
    corpus = tmp_path / "pairs.tsv"
    corpus.write_text("Although it rained, we left.\tIt rained. We left.\n", encoding="utf-8")
    argv = ["mine", str(corpus), "--ppdb", str(ppdb_file), "--synonyms", str(synonym_file),
            "--output-dir", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from altlex_miner import cli\n"
        f"print(cli.main({argv!r}), 'scipy' in sys.modules)\n"
    )
    src = str(Path(altlex_miner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 False"


def test_tsv_mine_does_not_import_numpy(tmp_path, ppdb_file, synonym_file):
    # numpy, like scipy, is only needed to align article directories; a
    # module-level import anywhere in the package would make every TSV run
    # pay for it.
    corpus = tmp_path / "pairs.tsv"
    corpus.write_text("Although it rained, we left.\tIt rained. We left.\n", encoding="utf-8")
    argv = ["mine", str(corpus), "--ppdb", str(ppdb_file), "--synonyms", str(synonym_file),
            "--output-dir", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from altlex_miner import cli\n"
        f"print(cli.main({argv!r}), 'numpy' in sys.modules)\n"
    )
    src = str(Path(altlex_miner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 False"


def test_article_dir_align_and_mine_do_not_import_scipy(tmp_path, ppdb_file, synonym_file):
    # Alignment needs numpy alone; scipy is no dependency.
    art = tmp_path / "articles"
    art.mkdir()
    (art / "a.0.txt").write_text("Although it rained, we left.\nThe sun rose.\n", encoding="utf-8")
    (art / "a.1.txt").write_text("It rained. We left.\nThe sun rose.\n", encoding="utf-8")
    mine = ["mine", str(art), "--ppdb", str(ppdb_file), "--synonyms", str(synonym_file),
            "--output-dir", str(tmp_path / "out")]
    align = ["align", str(art), "--output", str(tmp_path / "aligned.tsv")]
    code = (
        "import sys\n"
        "from altlex_miner import cli\n"
        f"print(cli.main({mine!r}), cli.main({align!r}), 'numpy' in sys.modules, 'scipy' in sys.modules)\n"
    )
    src = str(Path(altlex_miner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 0 True False"
