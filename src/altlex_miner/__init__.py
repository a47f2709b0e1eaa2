"""Mine alternative lexicalizations of discourse relations from
complex/simple parallel corpora."""

from .corpus import (
    AgreementTable,
    SentencePair,
    align_articles,
    cohen_kappa,
    load_aligned_tsv,
    load_article_dir,
    tfidf_cosine,
)
from .discourse import (
    ConnectiveEntry,
    ConnectiveInventory,
    ExplicitAnnotation,
    Sense,
    detect_explicit,
    load_inventory,
)
from .lexres import ParaphraseEntry, ParaphraseStore, Resource, expand, load_ppdb, load_synonyms
from .mining import (
    AltLexInventory,
    AltLexRecord,
    CaseKind,
    ChangeCase,
    OtherKind,
    mine_corpus,
    substitute,
    verify_candidate,
)
from .text import InputError, Sentence, TokenSpan, match_phrase, tokenize

__version__ = "0.1.0"

__all__ = [
    "AgreementTable",
    "AltLexInventory",
    "AltLexRecord",
    "CaseKind",
    "ChangeCase",
    "ConnectiveEntry",
    "ConnectiveInventory",
    "ExplicitAnnotation",
    "InputError",
    "OtherKind",
    "ParaphraseEntry",
    "ParaphraseStore",
    "Resource",
    "Sense",
    "Sentence",
    "SentencePair",
    "TokenSpan",
    "align_articles",
    "cohen_kappa",
    "detect_explicit",
    "expand",
    "load_aligned_tsv",
    "load_article_dir",
    "load_inventory",
    "load_ppdb",
    "load_synonyms",
    "match_phrase",
    "mine_corpus",
    "substitute",
    "tfidf_cosine",
    "tokenize",
    "verify_candidate",
]
