"""Pairwise TF-IDF cosine similarity for article alignment.

``corpus.align_articles`` is given the sentences of level 0 and of one
simplified level, and needs each simple sentence's best complex sentence
over sparse TF-IDF vectors. ``best_matches`` finds them:
``csr_counts`` builds each side's term counts as CSR arrays,
``csr_weights`` weights them by the level pair's IDF, ``cosine_blocks``
computes the cosines a block of simple rows at a time with numpy alone,
and ``cosine_matrix`` reduces each block to its rows' first maxima before
the next is built. No n x m array is ever held. Every cosine equals the
pure-Python reference ``corpus.tfidf_cosine`` bit for bit.

This is the package's only module that imports numpy, and
``corpus.align_articles`` imports it only when it aligns: TSV runs never
align, and importing numpy costs 13.8 MiB of RSS and 0.08-0.11 s (2-vCPU
VM). With OpenBLAS's default pool the import also starts a thread per
further CPU, which spins (0.03-0.06 s of CPU in the next 0.5 s, with no
BLAS call). This module calls no BLAS routine, so the CLI starts OpenBLAS
with one thread.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

from .text import Sentence

# Most products, and most cells, ``cosine_blocks`` holds for one block of
# rows. It bounds the temporaries. On the benchmark's article-align input
# (2-vCPU VM), a run with 1 << 15 peaks at 39.5 MiB of RSS against 42.2 MiB
# with 1 << 16, and aligns in the same time; both ran faster than larger
# blocks or one unblocked product.
_BLOCK_PRODUCTS = 1 << 15


def build_vocab(sentence_groups: Sequence[Sequence[Sentence]]) -> dict[str, int]:
    """Assign vocabulary ids in lexicographic term order, so ids and the
    CSR rows built from them do not depend on sentence order."""
    terms = set(chain.from_iterable(s.lower_forms for group in sentence_groups for s in group))
    return {term: i for i, term in enumerate(sorted(terms))}


def csr_counts(
    sentences: Sequence[Sentence], vocab: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build CSR arrays of term counts, indices ascending per row: the
    skeleton ``csr_weights`` weights. Each row holds a term at most once.

    ``vocab`` ids must be ``0 .. len(vocab) - 1``, as ``build_vocab`` makes
    them.
    """
    forms = [s.lower_forms for s in sentences]
    n_rows = len(forms)
    lengths = np.fromiter(map(len, forms), np.int64, n_rows)
    # ``map`` over the chained tokens runs in C: level 0 is counted again
    # for every level aligned against it.
    ids = np.fromiter(map(vocab.__getitem__, chain.from_iterable(forms)), np.int64, int(lengths.sum()))
    # One key per (row, term); sorting the keys sorts rows, then ids within a row.
    width = max(len(vocab), 1)
    keys, counts = np.unique(np.repeat(np.arange(n_rows), lengths) * width + ids, return_counts=True)
    rows, indices = np.divmod(keys, width)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, indices, counts


def csr_weights(counts, df: np.ndarray, n_docs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight a ``csr_counts`` skeleton by tf*idf, where ``df`` holds each
    term id's document frequency among ``n_docs`` sentences.

    idf is ``corpus.compute_idf``'s ``ln((N + 1) / (df + 1)) + 1``, taken
    with ``math.log`` on Python numbers as there, so that every weight has
    the reference's bits.
    """
    indptr, indices, tf = counts
    values, inverse = np.unique(df[indices], return_inverse=True)
    idf = [math.log((n_docs + 1) / (d + 1)) + 1.0 for d in values.tolist()]
    return indptr, indices, tf * np.array(idf)[inverse]


def best_matches(
    complex_sentences: Sequence[Sentence], simple_sentences: Sequence[Sentence]
) -> tuple[list[int], list[float]]:
    """Each simple sentence's most similar complex sentence (the first one
    on ties) and that cosine, as ``(best, scores)`` lists.
    ``complex_sentences`` must not be empty.

    The IDF treats the complex and the simple sentences as the documents.
    Vocabulary ids are in lexicographic order, so each dot product and
    norm is summed in ascending term order, as the reference sums it.
    Memory holds one block of ``cosine_blocks`` rows, not the matrix.
    """
    vocab = build_vocab([complex_sentences, simple_sentences])
    size = len(vocab)
    complex_counts = csr_counts(complex_sentences, vocab)
    simple_counts = csr_counts(simple_sentences, vocab)
    df = np.bincount(complex_counts[1], minlength=size) + np.bincount(simple_counts[1], minlength=size)
    n_docs = len(complex_sentences) + len(simple_sentences)
    best, score = cosine_matrix(
        csr_weights(simple_counts, df, n_docs), csr_weights(complex_counts, df, n_docs), size
    )
    return best.tolist(), score.tolist()


def _squared_norms(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each CSR row, summed in ascending term
    order as the reference sums it; 1.0 for an empty row, whose dot
    products are all 0, so that its cells divide to 0.0."""
    n = len(indptr) - 1
    norms = np.bincount(np.repeat(np.arange(n), np.diff(indptr)), data * data, minlength=n)
    # bincount returns integers when there are no terms at all.
    norms = norms.astype(np.float64, copy=False)
    norms[norms == 0.0] = 1.0
    return norms


def cosine_blocks(a, b, vocab_size: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(r0, block)`` over consecutive blocks of A's rows, where
    ``block[i, j]`` is the cosine of A row ``r0 + i`` and B row ``j`` for
    two ``(indptr, indices, data)`` CSR weight sets; rows or columns with
    an all-zero vector give 0.0.

    A block holds at most ``_BLOCK_PRODUCTS`` products and at most
    ``_BLOCK_PRODUCTS`` cells, but always at least one row. Each dot
    product and each squared norm is summed in ascending term order, and a
    cell is ``dot / sqrt(na2 * nb2)``, all as ``corpus.tfidf_cosine``
    computes it. The bits matter: alignment ties are broken by exact
    comparison.
    """
    a_ptr, a_idx, a_dat = a
    b_ptr, b_idx, b_dat = b
    n, m = len(a_ptr) - 1, len(b_ptr) - 1
    a_norms = _squared_norms(a_ptr, a_dat)
    b_norms = _squared_norms(b_ptr, b_dat)
    # B transposed into postings: the B rows holding each term, ascending.
    order = np.argsort(b_idx, kind="stable")
    post_row = np.repeat(np.arange(m), np.diff(b_ptr))[order]
    post_dat = b_dat[order]
    post_ptr = np.zeros(vocab_size + 1, dtype=np.int64)
    np.cumsum(np.bincount(b_idx, minlength=vocab_size), out=post_ptr[1:])

    # Each A nonzero meets every posting of its term: ``fan`` products.
    # Product ``k`` of the level multiplies its A nonzero by posting
    # ``k + shift`` and adds into cell ``row_offset + posting row``, counted
    # from the block's first cell.
    first = post_ptr[a_idx]
    fan = post_ptr[a_idx + 1] - first
    row_offset = np.repeat(np.arange(n) * m, np.diff(a_ptr))
    products_before = np.zeros(len(fan) + 1, dtype=np.int64)
    np.cumsum(fan, out=products_before[1:])
    shift = first - products_before[:-1]
    products_before_row = products_before[a_ptr]

    # Blocks of whole rows, so that no cell's sum is split between blocks.
    max_rows = max(_BLOCK_PRODUCTS // max(m, 1), 1)
    r0 = 0
    while r0 < n:
        limit = products_before_row[r0] + _BLOCK_PRODUCTS
        r1 = int(np.searchsorted(products_before_row, limit, side="right")) - 1
        r1 = max(min(r1, r0 + max_rows), r0 + 1)
        lo, hi = a_ptr[r0], a_ptr[r1]
        fans = fan[lo:hi]
        # Products ordered by A row, then term: every cell sums its terms in
        # ascending order, as a CSR matrix product does. Each array is one
        # ``repeat`` updated in place.
        pos = np.arange(products_before[lo], products_before[hi])
        pos += np.repeat(shift[lo:hi], fans)
        keys = np.repeat(row_offset[lo:hi] - r0 * m, fans)
        keys += post_row[pos]
        products = np.repeat(a_dat[lo:hi], fans)
        products *= post_dat[pos]
        dot = np.bincount(keys, products, minlength=(r1 - r0) * m).reshape(r1 - r0, m)
        cells = np.outer(a_norms[r0:r1], b_norms)
        np.sqrt(cells, out=cells)
        # Into the float denominators: with no products at all, bincount
        # returns integer zeros.
        yield r0, np.divide(dot, cells, out=cells)
        r0 = r1


def cosine_matrix(a, b, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """For each row of CSR weight set ``a``, the first row of ``b`` with the
    highest cosine and that cosine, as ``(best, score)`` arrays: the
    ``cosine_blocks`` matrix reduced by ``argmax`` and ``max`` along its
    rows, one block at a time. ``b`` must have at least one row.
    """
    n = len(a[0]) - 1
    best = np.zeros(n, dtype=np.int64)
    score = np.zeros(n)
    for r0, block in cosine_blocks(a, b, vocab_size):
        r1 = r0 + len(block)
        best[r0:r1] = block.argmax(axis=1)
        score[r0:r1] = block[np.arange(len(block)), best[r0:r1]]
    return best, score
