import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def _matrices(rng):
    a = _random_sentences(rng, rng.randint(1, 6))
    b = _random_sentences(rng, rng.randint(1, 6))
    idf = compute_idf(a + b)
    vocab = similarity.build_vocab([a, b])
    csr_a = similarity.csr_weights(a, vocab, idf)
    csr_b = similarity.csr_weights(b, vocab, idf)
    reference = np.array([[tfidf_cosine(sa, sb, idf) for sb in b] for sa in a])
    return csr_a, csr_b, len(vocab), reference


def test_numpy_fallback_matches_reference():
    rng = random.Random(12)
    for _ in range(30):
        csr_a, csr_b, nv, reference = _matrices(rng)
        got = similarity.cosine_matrix(csr_a, csr_b, nv)
        assert got == pytest.approx(reference, abs=1e-12)


def test_zero_rows_give_zero_similarity():
    a = [tokenize(""), tokenize("sun moon")]
    b = [tokenize("sun moon")]
    idf = compute_idf(a + b)
    vocab = similarity.build_vocab([a, b])
    sims = similarity.cosine_matrix(
        similarity.csr_weights(a, vocab, idf), similarity.csr_weights(b, vocab, idf), len(vocab)
    )
    assert sims[0, 0] == 0.0
    assert sims[1, 0] == pytest.approx(1.0, abs=1e-12)


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
