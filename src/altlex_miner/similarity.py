"""Pairwise TF-IDF cosine similarity for article alignment.

Aligning two articles needs an (n_simple x n_complex) cosine matrix over
sparse TF-IDF vectors. ``csr_weights`` builds each side as CSR arrays and
``cosine_matrix`` multiplies them with ``scipy.sparse``; the result agrees
with the pure-Python reference ``corpus.tfidf_cosine`` to ~1e-12.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .text import Sentence


def build_vocab(sentence_groups: list[list[Sentence]]) -> dict[str, int]:
    """Assign vocabulary ids in lexicographic term order, so ids and the
    CSR rows built from them do not depend on sentence order."""
    terms: set[str] = set()
    for group in sentence_groups:
        for s in group:
            terms.update(s.lower_forms)
    return {term: i for i, term in enumerate(sorted(terms))}


def csr_weights(
    sentences: list[Sentence], vocab: dict[str, int], idf: dict[str, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build CSR arrays of tf*idf weights, indices ascending per row."""
    indptr = np.zeros(len(sentences) + 1, dtype=np.int64)
    idx_chunks: list[list[int]] = []
    dat_chunks: list[list[float]] = []
    for row, s in enumerate(sentences):
        counts = Counter(s.lower_forms)
        ids = sorted(vocab[t] for t in counts)
        idx_chunks.append(ids)
        by_id = {vocab[t]: c * idf[t] for t, c in counts.items()}
        dat_chunks.append([by_id[i] for i in ids])
        indptr[row + 1] = indptr[row] + len(ids)
    indices = np.array([i for chunk in idx_chunks for i in chunk], dtype=np.int64)
    data = np.array([d for chunk in dat_chunks for d in chunk], dtype=np.float64)
    return indptr, indices, data


def cosine_matrix(a, b, vocab_size: int) -> np.ndarray:
    """Pairwise cosine matrix between two ``(indptr, indices, data)`` CSR
    weight sets; rows or columns with an all-zero vector give 0.0."""
    # Imported here: TSV-only runs never align, and scipy costs ~20 MiB and
    # ~0.2 s to import.
    from scipy.sparse import csr_matrix

    sa = csr_matrix((a[2], a[1], a[0]), shape=(len(a[0]) - 1, vocab_size))
    sb = csr_matrix((b[2], b[1], b[0]), shape=(len(b[0]) - 1, vocab_size))
    anorm = np.sqrt(sa.multiply(sa).sum(axis=1).A1)
    bnorm = np.sqrt(sb.multiply(sb).sum(axis=1).A1)
    denom = np.outer(anorm, bnorm)
    return np.divide((sa @ sb.T).toarray(), denom, out=np.zeros_like(denom), where=denom > 0)
