"""Parallel-corpus ingestion, sentence alignment, and agreement statistics.

Two corpus forms are supported: pre-aligned TSV files (one
``complex<TAB>simple`` pair per line) and article-aligned directories of
``<articleid>.<level>.txt`` files (level 0 is the most complex; each higher
level is aligned against level 0 independently). Alignment pairs every
simple-side sentence with its highest TF-IDF-cosine complex-side sentence
and drops pairs below a threshold.

Every file is streamed through ``text.read_lines``, so the TSV, article
and agreement readers share its line ends, blank-line skip and
``PATH: line N: invalid UTF-8`` error.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import similarity
from .text import Sentence, read_lines, tokenize


class CorpusFormatError(Exception):
    """Raised for malformed corpus, article, or agreement files."""


@dataclass(frozen=True, slots=True)
class SentencePair:
    """An aligned complex/simple sentence pair with provenance."""

    complex: Sentence
    simple: Sentence
    source_id: str
    similarity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity <= 1.0 + 1e-9:
            raise ValueError(f"similarity {self.similarity} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class Article:
    """One article at one complexity level (0 = original, up to 5)."""

    id: str
    level: int
    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.level <= 5:
            raise ValueError(f"article level {self.level} outside 0..5")


@dataclass(frozen=True, slots=True)
class AgreementTable:
    """2x2 yes/no contingency counts for two annotators."""

    both_yes: int = 0
    both_no: int = 0
    a_yes_b_no: int = 0
    a_no_b_yes: int = 0

    @property
    def total(self) -> int:
        return self.both_yes + self.both_no + self.a_yes_b_no + self.a_no_b_yes


def read_aligned_rows(path: str | Path) -> Iterator[tuple[str, str, str]]:
    """Stream a pre-aligned 2-column TSV as ``(source_id, complex_raw,
    simple_raw)`` rows without tokenizing; the source id is the line number.

    Raises CorpusFormatError naming the line for an undecodable byte or any
    line that does not have exactly two tab-separated fields, once reading
    reaches it; the rows before it have been yielded. Blank lines are
    skipped.
    """
    for lineno, line in read_lines(path, CorpusFormatError):
        fields = line.split("\t")
        if len(fields) != 2:
            raise CorpusFormatError(
                f"{path}: line {lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        yield str(lineno), fields[0], fields[1]


def pairs_from_rows(rows: Iterable[tuple[str, str, str]]) -> Iterator[SentencePair]:
    """Tokenize ``(source_id, complex_raw, simple_raw)`` rows into pairs with
    similarity 1.0, one pair per row as it is consumed: a caller that reads
    each pair once never holds more than one tokenized pair."""
    for source_id, complex_raw, simple_raw in rows:
        yield SentencePair(complex=tokenize(complex_raw), simple=tokenize(simple_raw), source_id=source_id)


def load_aligned_tsv(path: str | Path) -> list[SentencePair]:
    """Load a pre-aligned 2-column TSV; similarity is 1.0 for every pair.

    Raises CorpusFormatError as ``read_aligned_rows`` does.
    """
    return list(pairs_from_rows(read_aligned_rows(path)))


_ARTICLE_FILE_RE = re.compile(r"^(?P<id>.+)\.(?P<level>\d+)\.txt$")


def list_article_dir(path: str | Path) -> dict[str, dict[int, str]]:
    """List ``<articleid>.<level>.txt`` files as {article_id: {level: file
    path}}, without reading them. Files not matching the naming pattern are
    ignored. A level outside 0..5, or two files for one article level (such
    as ``s.0.txt`` and ``s.00.txt``), raises CorpusFormatError naming the
    files.
    """
    root = Path(path)
    if not root.is_dir():
        raise CorpusFormatError(f"{path}: not a directory")
    files: dict[str, dict[int, str]] = {}
    for file in sorted(root.iterdir()):
        m = _ARTICLE_FILE_RE.match(file.name)
        if m is None or not file.is_file():
            continue
        level = int(m.group("level"))
        if not 0 <= level <= 5:
            raise CorpusFormatError(f"{file}: article level {level} outside 0..5")
        levels = files.setdefault(m.group("id"), {})
        if level in levels:
            raise CorpusFormatError(f"{levels[level]} and {file}: both are article level {level}")
        levels[level] = str(file)
    return files


def read_article(art_id: str, files: Iterable[tuple[int, str]]) -> dict[int, Article]:
    """Read and tokenize one article's ``(level, file path)`` files, one
    sentence per non-blank line as ``text.read_lines`` reads them, into
    {level: Article}. A Unicode line or paragraph separator inside a line
    stays in its sentence."""
    return {
        level: Article(
            id=art_id,
            level=level,
            sentences=tuple(tokenize(line) for _, line in read_lines(path, CorpusFormatError)),
        )
        for level, path in files
    }


def load_article_dir(path: str | Path) -> dict[str, dict[int, Article]]:
    """Load ``<articleid>.<level>.txt`` files, one sentence per line, as
    {article_id: {level: Article}}; see ``list_article_dir``."""
    return {
        art_id: read_article(art_id, files.items())
        for art_id, files in list_article_dir(path).items()
    }


def tfidf_cosine(a: Sentence, b: Sentence, idf: dict[str, float]) -> float:
    """Cosine of the two sentences' TF-IDF vectors over lowercased types.

    Terms missing from ``idf`` get weight 0. Returns 0.0 when either vector
    is all-zero. This is the reference the alignment kernel is checked
    against; accumulation runs in sorted term order.
    """
    counts_a = Counter(a.lower_forms)
    counts_b = Counter(b.lower_forms)
    dot = na = nb = 0.0
    for term in sorted(counts_a.keys() | counts_b.keys()):
        w = idf.get(term, 0.0)
        wa = counts_a.get(term, 0) * w
        wb = counts_b.get(term, 0) * w
        dot += wa * wb
        na += wa * wa
        nb += wb * wb
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / math.sqrt(na * nb)


def compute_idf(sentences: list[Sentence]) -> dict[str, float]:
    """Smoothed IDF treating each sentence as one document:
    idf(t) = ln((N + 1) / (df + 1)) + 1.
    """
    n = len(sentences)
    df: Counter[str] = Counter()
    for s in sentences:
        df.update(set(s.lower_forms))
    return {term: math.log((n + 1) / (d + 1)) + 1.0 for term, d in df.items()}


def align_articles(
    complex_article: Article, simple_articles: list[Article], threshold: float = 0.5
) -> list[SentencePair]:
    """Pair each sentence of each simple article with its best complex
    sentence, in the order of ``simple_articles`` and then of the sentences.

    Simple-side-driven argmax (first maximum wins ties); pairs with
    similarity below ``threshold`` are dropped. For each simple article, IDF
    is computed over the union of its and the complex article's sentences,
    as ``compute_idf`` computes it.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    cx = complex_article.sentences
    levels = [a for a in simple_articles if a.sentences] if cx else []
    if not levels:
        return []
    matches = similarity.best_matches(list(cx), [list(a.sentences) for a in levels])
    pairs: list[SentencePair] = []
    for simple_article, (best, scores) in zip(levels, matches):
        sx = simple_article.sentences
        for si, (ci, score) in enumerate(zip(best, scores)):
            if score < threshold:
                continue
            pairs.append(
                SentencePair(
                    complex=cx[ci],
                    simple=sx[si],
                    source_id=f"{simple_article.id}:{simple_article.level}:{si}",
                    similarity=min(score, 1.0),
                )
            )
    return pairs


def cohen_kappa(table: AgreementTable) -> float:
    """Cohen's kappa for a 2x2 agreement table.

    Degenerate tables (chance agreement 1) return 1.0 under perfect observed
    agreement and raise otherwise; empty tables raise.
    """
    total = table.total
    if total == 0:
        raise ValueError("agreement table is empty")
    p_o = (table.both_yes + table.both_no) / total
    pa_yes = (table.both_yes + table.a_yes_b_no) / total
    pb_yes = (table.both_yes + table.a_no_b_yes) / total
    p_e = pa_yes * pb_yes + (1.0 - pa_yes) * (1.0 - pb_yes)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise ValueError("degenerate table: chance agreement is 1 but observed agreement is not")
    return (p_o - p_e) / (1.0 - p_e)


def load_agreement_tsv(path: str | Path) -> AgreementTable:
    """Read ``pair_id<TAB>a(0|1)<TAB>b(0|1)`` rows into an AgreementTable."""
    yy = nn = yn = ny = 0
    for lineno, line in read_lines(path, CorpusFormatError):
        fields = line.split("\t")
        if len(fields) != 3 or fields[1] not in ("0", "1") or fields[2] not in ("0", "1"):
            raise CorpusFormatError(
                f"{path}: row {lineno}: expected pair_id<TAB>0|1<TAB>0|1"
            )
        a, b = fields[1] == "1", fields[2] == "1"
        if a and b:
            yy += 1
        elif not a and not b:
            nn += 1
        elif a:
            yn += 1
        else:
            ny += 1
    return AgreementTable(both_yes=yy, both_no=nn, a_yes_b_no=yn, a_no_b_yes=ny)
