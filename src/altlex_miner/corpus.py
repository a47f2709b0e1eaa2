"""Parallel-corpus ingestion, sentence alignment, and agreement statistics.

Two corpus forms are supported: pre-aligned TSV files (one
``complex<TAB>simple`` pair per line) and article-aligned directories of
``<articleid>.<level>.txt`` files, each level read as a tuple of Sentences
(level 0 is the most complex). ``align_articles(complex_sentences,
simple_sentences, article_id, level)`` pairs each sentence of a higher
level with its highest TF-IDF-cosine sentence of level 0, as pair
``<articleid>:<level>:<index>``, and drops pairs below a threshold.

Every file is streamed through ``text.read_lines``, so the TSV, article
and agreement readers share its line ends, blank-line skip and
``PATH: line N: invalid UTF-8`` InputError.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from .text import InputError, Sentence, read_lines, tokenize


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
    """Stream a pre-aligned TSV as ``(source_id, complex_raw, simple_raw)``
    rows without tokenizing; the source id is the line number. A third
    field, the similarity ``align`` writes, must be a decimal in [0, 1] and
    is not used: ``align`` has applied its threshold.

    Raises InputError naming the line for an undecodable byte or any other
    bad line, once reading reaches it; the rows before it have been yielded.
    Blank lines are skipped.
    """
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) == 3 and not re.fullmatch(r"0(\.[0-9]*)?|1(\.0*)?", similarity := fields.pop()):
            raise InputError(f"{path}: line {lineno}: similarity {similarity!r} is not a number in [0, 1]")
        if len(fields) != 2:
            raise InputError(f"{path}: line {lineno}: expected 2 or 3 tab-separated fields, got {len(fields)}")
        yield str(lineno), fields[0], fields[1]


def pairs_from_rows(rows: Iterable[tuple[str, str, str]]) -> Iterator[SentencePair]:
    """Tokenize ``(source_id, complex_raw, simple_raw)`` rows into pairs with
    similarity 1.0, one pair per row as it is consumed: a caller that reads
    each pair once never holds more than one tokenized pair."""
    for source_id, complex_raw, simple_raw in rows:
        yield SentencePair(complex=tokenize(complex_raw), simple=tokenize(simple_raw), source_id=source_id)


def load_aligned_tsv(path: str | Path) -> list[SentencePair]:
    """Load a pre-aligned TSV; similarity is 1.0 for every pair.

    Raises InputError as ``read_aligned_rows`` does.
    """
    return list(pairs_from_rows(read_aligned_rows(path)))


_ARTICLE_FILE_RE = re.compile(r"(?P<id>.+)\.(?P<level>\d+)\.txt")


def list_article_dir(path: str | Path) -> dict[str, dict[int, str]]:
    """List ``<articleid>.<level>.txt`` files as {article_id: {level: file
    path}}, without reading them. Files not matching the naming pattern are
    ignored. A level outside 0..5, two files for one article level (such
    as ``s.0.txt`` and ``s.00.txt``), or an id holding ``;``, a tab or a
    carriage return, which would split an example id list, a column or a
    line of ``altlexes.tsv``, raises InputError naming the files.
    """
    root = Path(path)
    if not root.is_dir():
        raise InputError(f"{path}: not a directory")
    files: dict[str, dict[int, str]] = {}
    for file in sorted(root.iterdir()):
        m = _ARTICLE_FILE_RE.fullmatch(file.name)
        if m is None or not file.is_file():
            continue
        art_id, level = m.group("id"), int(m.group("level"))
        if not 0 <= level <= 5:
            raise InputError(f"{file}: article level {level} outside 0..5")
        if any(c in art_id for c in ";\t\r"):
            raise InputError(f"{file}: article id {art_id!r} holds ';', a tab or a carriage return")
        levels = files.setdefault(art_id, {})
        if level in levels:
            raise InputError(f"{levels[level]} and {file}: both are article level {level}")
        levels[level] = str(file)
    return files


def read_article(path: str | Path) -> tuple[Sentence, ...]:
    """Read and tokenize one article level's file, one sentence per
    non-blank line as ``text.read_lines`` reads them. A Unicode line or
    paragraph separator inside a line stays in its sentence."""
    return tuple(tokenize(line) for _, line in read_lines(path))


def load_article_dir(path: str | Path) -> dict[str, dict[int, tuple[Sentence, ...]]]:
    """Load ``<articleid>.<level>.txt`` files, one sentence per line, as
    {article_id: {level: sentences}}; see ``list_article_dir``."""
    return {
        art_id: {level: read_article(file) for level, file in files.items()}
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
    complex_sentences: Sequence[Sentence], simple_sentences: Sequence[Sentence],
    article_id: str, level: int, threshold: float = 0.5,
) -> list[SentencePair]:
    """Pair each of ``simple_sentences``, level ``level`` of article
    ``article_id``, with its best of ``complex_sentences``, in simple
    sentence order, as pair ``<article_id>:<level>:<simple index>``.

    Simple-side-driven argmax (first maximum wins ties); pairs with
    similarity below ``threshold`` are dropped. IDF is computed over the
    union of both levels' sentences, as ``compute_idf`` computes it.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    if not (complex_sentences and simple_sentences):
        return []
    from .similarity import best_matches  # numpy, which TSV runs never need

    best, scores = best_matches(complex_sentences, simple_sentences)
    return [
        SentencePair(
            complex=complex_sentences[ci],
            simple=simple_sentences[si],
            source_id=f"{article_id}:{level}:{si}",
            similarity=min(score, 1.0),
        )
        for si, (ci, score) in enumerate(zip(best, scores))
        if score >= threshold
    ]


def cohen_kappa(table: AgreementTable) -> float:
    """Cohen's kappa for a 2x2 agreement table.

    A degenerate table (chance agreement 1) returns 1.0: both annotators
    then gave every pair the same answer. An empty table raises.
    """
    total = table.total
    if total == 0:
        raise ValueError("agreement table is empty")
    p_o = (table.both_yes + table.both_no) / total
    pa_yes = (table.both_yes + table.a_yes_b_no) / total
    pb_yes = (table.both_yes + table.a_no_b_yes) / total
    p_e = pa_yes * pb_yes + (1.0 - pa_yes) * (1.0 - pb_yes)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def load_agreement_tsv(path: str | Path) -> AgreementTable:
    """Read ``pair_id<TAB>a(0|1)<TAB>b(0|1)`` rows into an AgreementTable;
    a file without a row raises InputError."""
    answers: Counter[tuple[str, str]] = Counter()
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 3 or fields[1] not in ("0", "1") or fields[2] not in ("0", "1"):
            raise InputError(f"{path}: line {lineno}: expected pair_id<TAB>0|1<TAB>0|1")
        answers[fields[1], fields[2]] += 1
    if not answers:
        raise InputError(f"{path}: no agreement rows")
    return AgreementTable(
        both_yes=answers["1", "1"], both_no=answers["0", "0"], a_yes_b_no=answers["1", "0"], a_no_b_yes=answers["0", "1"]
    )
