import ast
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

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


# One product per block, a few, and the default: the block bounds must not
# change a bit of any cell, nor which column is a row's first maximum.
BLOCK_SIZES = (1, 7, similarity._BLOCK_PRODUCTS)


def _assembled(a, b, vocab_size):
    """The cosine matrix assembled from ``cosine_blocks``, whose blocks must
    cover A's rows in order, hold float64 and keep to the cell bound."""
    m = len(b[0]) - 1
    blocks = []
    for r0, block in similarity.cosine_blocks(a, b, vocab_size):
        assert r0 == sum(len(x) for x in blocks)
        assert block.dtype == np.float64 and block.shape[1] == m
        assert len(block) == 1 or block.size <= similarity._BLOCK_PRODUCTS
        blocks.append(block)
    assert sum(len(x) for x in blocks) == len(a[0]) - 1
    return np.concatenate(blocks) if blocks else np.zeros((0, m))


def _kernel(a, b, vocab_size):
    """The assembled matrix and ``cosine_matrix``'s ``(best, score)``, which
    must be its rows' first maxima and be the same bits at every block size
    in BLOCK_SIZES."""
    results = []
    for size in BLOCK_SIZES:
        with mock.patch.object(similarity, "_BLOCK_PRODUCTS", size):
            sims = _assembled(a, b, vocab_size)
            best, score = similarity.cosine_matrix(a, b, vocab_size)
        assert best.tolist() == sims.argmax(axis=1).tolist()
        assert np.array_equal(score.view(np.int64), sims.max(axis=1).view(np.int64))
        results.append((sims, best, score))
    sims, best, score = results[-1]
    for other_sims, other_best, other_score in results[:-1]:
        assert np.array_equal(other_sims.view(np.int64), sims.view(np.int64))
        assert other_best.tolist() == best.tolist()
        assert np.array_equal(other_score.view(np.int64), score.view(np.int64))
    return sims, best, score


def test_numpy_fallback_matches_reference():
    rng = random.Random(12)
    for _ in range(30):
        csr_a, csr_b, nv, reference = _matrices(rng)
        got, _, _ = _kernel(csr_a, csr_b, nv)
        assert got.tolist() == reference.tolist()


def test_zero_rows_give_zero_similarity():
    a = [tokenize(""), tokenize("sun moon")]
    b = [tokenize("sun moon")]
    idf = compute_idf(a + b)
    vocab = similarity.build_vocab([a, b])
    sims, _, _ = _kernel(_weights(a, vocab, idf), _weights(b, vocab, idf), len(vocab))
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
# No term is shared, so every block, at every size, has no products at all.
@example(["sun moon", "sun", "moon moon"], ["tide", "tide tide"])
def test_kernel_matches_brute_force_reference(simple_raws, complex_raws):
    sx = [tokenize(r) for r in simple_raws]
    cx = [tokenize(r) for r in complex_raws]
    idf = compute_idf(sx + cx)
    vocab = similarity.build_vocab([cx, sx])
    sims, best, _ = _kernel(_weights(sx, vocab, idf), _weights(cx, vocab, idf), len(vocab))
    reference = [[tfidf_cosine(s, c, idf) for c in cx] for s in sx]
    assert sims.shape == (len(sx), len(cx))
    assert sims.tolist() == reference
    # Alignment picks each row's first maximum, as a scan of the reference
    # would; "sun" against "sun sun sun" and "sun" must tie or not tie alike.
    for ref_row, got in zip(reference, best.tolist()):
        assert got == ref_row.index(max(ref_row))


def test_kernel_blocks_do_not_change_bits():
    rng = random.Random(5)
    sx = _random_sentences(rng, 40) + [tokenize("")]
    cx = [tokenize("")] + _random_sentences(rng, 30)
    idf = compute_idf(sx + cx)
    vocab = similarity.build_vocab([cx, sx])
    a = _weights(sx, vocab, idf)
    b = _weights(cx, vocab, idf)
    # _kernel compares every block size's cells, best columns and scores
    # bit for bit with the default's.
    _kernel(a, b, len(vocab))
    with mock.patch.object(similarity, "_BLOCK_PRODUCTS", 1):
        one_row_blocks = [len(block) for _, block in similarity.cosine_blocks(a, b, len(vocab))]
    assert one_row_blocks == [1] * len(sx)


def test_best_matches_holds_no_full_matrix():
    # 2,000 x 2,000 float64 cells take 30.5 MiB, and a matrix of them with
    # its denominators twice that; alignment may hold one block of rows.
    rng = random.Random(3)
    words = [f"w{i}" for i in range(3000)]
    complex_side, simple_side = (
        [tokenize(" ".join(rng.choices(words, k=4))) for _ in range(2000)] for _ in range(2)
    )
    similarity.best_matches(complex_side[:1], simple_side[:1])  # numpy imported untraced
    tracemalloc.start()
    try:
        best, scores = similarity.best_matches(complex_side, simple_side)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(best) == len(scores) == 2000
    assert peak < 8 * 2**20


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


_BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum", "linalg"}


def test_kernel_calls_no_blas_routine():
    # The console script starts OpenBLAS with one thread; that costs
    # alignment nothing only while the kernel makes no BLAS call.
    tree = ast.parse(Path(similarity.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append((node.lineno, node.attr))
    assert found == []


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
