"""Seeded input generator for the four benchmark workloads.

Every workload is built from ``random.Random`` seeded with a string that
names the input family and the seed, so the same seed gives byte-identical
files on any machine and under any ``PYTHONHASHSEED``. ``tsv-serial`` and
``tsv-sharded`` share one input family, so for the same seed they mine the
same pairs and their outputs must agree byte for byte.

Each workload also gets an empty input of the same kind (an empty TSV or an
empty article directory) with the same resources and flags; the set-up time
metric runs that command.

The generator only writes files. What the program is expected to output
(pair totals, case counts, AltLexes) is derived from how the inputs
were built and returned in ``Workload.expected``; the program never sees it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("tsv-serial", "tsv-sharded", "article-align", "paraphrase-dense")

# Sizes. Each is chosen so that one `mine` run takes about one to three
# seconds on a 2-core box without numba, which puts several timed runs in a
# benchmark run.
TSV_PAIRS = 12_000
ARTICLES = 2
ARTICLE_LEVELS = 4  # levels 0..3; each higher level is aligned against level 0
ARTICLE_LINES = 1_000
DENSE_PAIRS = 1_500
DENSE_EXPANSIONS = 40  # PPDB expansions per connective
DENSE_PADDING = 50_000  # PPDB lines no connective can reach
DENSE_MALFORMED = 25  # PPDB lines the loader must skip

# The template mix of the acceptance suite's synthetic pairs.
NOUNS = (
    "farmer", "village", "storm", "harvest", "river", "bridge", "market",
    "winter", "cattle", "road", "tower", "letter", "captain", "garden",
    "forest", "engine", "doctor", "teacher", "mountain", "orchard",
)
VERBS = (
    "rebuilt", "crossed", "watched", "planted", "repaired", "guarded",
    "visited", "painted", "measured", "cleaned",
)
TSV_CONNECTIVES = ("because", "although", "until", "unless", "whereas")
# The detector takes a non-initial -ed word as a clause cue; "rebuilt" is not
# one, so paraphrase-dense builds its clauses from the other verbs only.
CLAUSE_VERBS = tuple(v for v in VERBS if v.endswith("ed"))

# Connectives planted in paraphrase-dense, with the top sense the shipped
# PDTB table gives each. None is comma-guarded, so a substitution
# mid-sentence re-detects it whenever both sides hold a clause.
DENSE_CONNECTIVES = {
    "because": "Cause",
    "although": "Contrast",
    "until": "Asynchronous",
    "unless": "Condition",
    "whereas": "Contrast",
    "after": "Asynchronous",
}

# Shared small resources: the two PPDB lines of the acceptance suite's scale
# test and one synonym line whose target never occurs in the inputs.
SMALL_PPDB = (
    "[RB] ||| though ||| despite ||| PPDB2.0Score=3.0\n"
    "[IN] ||| before ||| used to ||| PPDB2.0Score=2.0\n"
)
SYNONYMS = "because\tgiven that\n"

# Pseudo-words for paraphrases, padding and article filler: consonant-vowel
# syllables without "e", so no word ends in -ed, -s or -ing (the detector's
# verb cues) and none is an English connective.
_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)


@dataclass
class Workload:
    """One generated workload: the CLI arguments (relative to ``root``) for
    the real input and for its empty set-up input, plus expected outputs."""

    root: Path
    argv: list[str]
    setup_argv: list[str]
    input_pairs: int
    expected: dict = field(default_factory=dict)
    # A command whose outputs this workload's outputs must equal byte for byte.
    reference_argv: list[str] | None = None


def _rng(family: str, seed: int) -> random.Random:
    return random.Random(f"altlex-perfbench:{family}:{seed}")


def _pseudo_words(rng: random.Random, syllables: int, count: int) -> list[str]:
    words: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(syllables))
        if word not in words:
            words.add(word)
            out.append(word)
    return out


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _mine_argv(input_path: str, workers: int, output_dir: str) -> list[str]:
    return [
        "mine", input_path,
        "--ppdb", "ppdb.txt",
        "--synonyms", "synonyms.tsv",
        "--workers", str(workers),
        "--output-dir", output_dir,
    ]


# --------------------------------------------------------------------------
# tsv-serial / tsv-sharded


def _gen_tsv(name: str, seed: int, root: Path) -> Workload:
    """Pairs in the acceptance suite's template mix. Each "though" pair
    mines the AltLex "despite" once."""
    rng = _rng("tsv", seed)
    lines, despite = [], 0
    for _ in range(TSV_PAIRS):
        n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
        v1, v2 = rng.choice(VERBS), rng.choice(VERBS)
        kind = rng.random()
        if kind < 0.6:
            complex_raw = f"The {n1} {v1} the {n2}."
            simple_raw = f"The {n2} was {v2}."
        elif kind < 0.8:
            conn = rng.choice(TSV_CONNECTIVES)
            complex_raw = f"The {n1} {v1} the {n2}, {conn} the {n2} was {v2}."
            simple_raw = f"The {n1} {v1} the {n2}."
        elif kind < 0.9:
            conn = rng.choice(TSV_CONNECTIVES)
            complex_raw = f"The {n1} {v1} the {n2}."
            simple_raw = f"The {n1} {v1} the {n2}, {conn} the {n2} was {v2}."
        else:
            complex_raw = f"The {n1} flourishes despite no longer having its {n2}."
            simple_raw = f"The {n1} does well, though they do not have their {n2}."
            despite += 1
        lines.append(f"{complex_raw}\t{simple_raw}\n")
    _write(root / "pairs.tsv", "".join(lines))
    _write(root / "empty.tsv", "")
    _write(root / "ppdb.txt", SMALL_PPDB)
    _write(root / "synonyms.tsv", SYNONYMS)
    workers = 1 if name == "tsv-serial" else 2
    altlexes = {("despite", "Contrast"): despite} if despite else {}
    return Workload(
        root=root,
        argv=_mine_argv("pairs.tsv", workers, "out"),
        setup_argv=_mine_argv("empty.tsv", workers, "out-setup"),
        input_pairs=len(lines),
        expected={"altlexes": altlexes},
        reference_argv=None if workers == 1 else _mine_argv("pairs.tsv", 1, "out-serial"),
    )


# --------------------------------------------------------------------------
# article-align


def _tfidf_cosine(a: list[str], b: list[str], idf: dict[str, float]) -> float:
    ca, cb = Counter(a), Counter(b)
    dot = sum(ca[t] * cb[t] * idf[t] ** 2 for t in ca.keys() & cb.keys())
    na = sum((c * idf[t]) ** 2 for t, c in ca.items())
    nb = sum((c * idf[t]) ** 2 for t, c in cb.items())
    return dot / math.sqrt(na * nb) if na and nb else 0.0


def _idf(docs: list[list[str]]) -> dict[str, float]:
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    n = len(docs)
    return {t: math.log((n + 1) / (d + 1)) + 1.0 for t, d in df.items()}


def _render(tokens: list[str]) -> str:
    text = " ".join(tokens)
    return text.replace(" ,", ",").replace(" .", ".")


# Derived simple lines must keep this much cosine with their source line, so
# alignment (threshold 0.5, argmax over complex lines) certainly keeps them.
_KEEP_MARGIN = 0.55


def _gen_article(name: str, seed: int, root: Path) -> Workload:
    """A few large articles, levels 0..3. Level 0 is half connective-bearing
    templates and half random pseudo-word lines. Every higher level holds
    lines derived from level-0 lines (kept by alignment, cosine >= 0.55 to
    their source) and lines over a disjoint vocabulary (cosine 0 with every
    level-0 line, so dropped); the expected pair count follows."""
    rng = _rng("article", seed)
    vocab = _pseudo_words(rng, 3, 6000)
    seen, unseen = vocab[:5000], vocab[5000:]
    art_dir = root / "articles"
    art_dir.mkdir(parents=True, exist_ok=True)
    (root / "articles-empty").mkdir(parents=True, exist_ok=True)
    expected_pairs = 0
    for art in range(ARTICLES):
        complex_lines: list[list[str]] = []
        for _ in range(ARTICLE_LINES):
            if rng.random() < 0.5:
                n1, n2, n3 = rng.choice(NOUNS), rng.choice(NOUNS), rng.choice(NOUNS)
                conn = rng.choice(TSV_CONNECTIVES)
                complex_lines.append(
                    ["the", n1, rng.choice(VERBS), "the", n2, ",", conn, "the", n3, "was", rng.choice(VERBS), "."]
                )
            else:
                complex_lines.append([rng.choice(seen) for _ in range(rng.randint(8, 25))])
        art_id = f"art{art}"
        _write(art_dir / f"{art_id}.0.txt", "".join(_render(t).capitalize() + "\n" for t in complex_lines))
        for level in range(1, ARTICLE_LEVELS):
            simple: list[tuple[int | None, list[str]]] = []
            for _ in range(ARTICLE_LINES):
                r = rng.random()
                if r < 0.1:
                    simple.append((None, [rng.choice(unseen) for _ in range(rng.randint(8, 25))]))
                    continue
                src = rng.randrange(ARTICLE_LINES)
                tokens = list(complex_lines[src])
                if tokens[-1] == ".":  # template: drop the connective most of the time
                    if rng.random() < 0.8:
                        del tokens[6]
                else:  # random line: drop a few words
                    for _ in range(rng.randint(0, len(tokens) // 4)):
                        del tokens[rng.randrange(len(tokens))]
                simple.append((src, tokens))
            # Replace any derived line that falls under the margin by a copy
            # of its source, then re-check: the IDF shifts with each change.
            while True:
                idf = _idf(complex_lines + [t for _, t in simple])
                weak = [
                    i for i, (src, t) in enumerate(simple)
                    if src is not None and _tfidf_cosine(t, complex_lines[src], idf) < _KEEP_MARGIN
                ]
                if not weak:
                    break
                for i in weak:
                    src = simple[i][0]
                    simple[i] = (src, list(complex_lines[src]))
            expected_pairs += sum(1 for src, _ in simple if src is not None)
            _write(
                art_dir / f"{art_id}.{level}.txt",
                "".join(_render(t).capitalize() + "\n" for _, t in simple),
            )
    _write(root / "ppdb.txt", SMALL_PPDB)
    _write(root / "synonyms.tsv", SYNONYMS)
    return Workload(
        root=root,
        argv=_mine_argv("articles", 1, "out"),
        setup_argv=_mine_argv("articles-empty", 1, "out-setup"),
        input_pairs=expected_pairs,
    )


# --------------------------------------------------------------------------
# paraphrase-dense


def _clause(rng: random.Random) -> list[str]:
    return ["the", rng.choice(NOUNS), rng.choice(CLAUSE_VERBS), "the", rng.choice(NOUNS)]


def _gen_dense(name: str, seed: int, root: Path) -> Workload:
    """One-sided pairs. The explicit side holds one connective; the other
    side holds 2-5 of its PPDB expansions, each between two clauses so the
    substitution re-detects the connective, and half the time one more at
    the sentence end, where no clause follows and verification rejects it."""
    rng = _rng("dense", seed)
    words = iter(_pseudo_words(rng, 3, len(DENSE_CONNECTIVES) * DENSE_EXPANSIONS * 3))
    expansions: dict[str, list[tuple[str, ...]]] = {}
    ppdb_lines = []
    for conn in DENSE_CONNECTIVES:
        expansions[conn] = []
        for _ in range(DENSE_EXPANSIONS):
            phrase = tuple(next(words) for _ in range(rng.randint(1, 3)))
            expansions[conn].append(phrase)
            score = rng.uniform(1.0, 5.0)
            ppdb_lines.append(f"[RB] ||| {conn} ||| {' '.join(phrase)} ||| PPDB2.0Score={score:.4f} Abstract=0\n")
    padding = _pseudo_words(rng, 4, 2 * DENSE_PADDING)
    for i in range(DENSE_PADDING):
        score = rng.uniform(0.0, 5.0)
        ppdb_lines.append(f"[NN] ||| {padding[2 * i]} ||| {padding[2 * i + 1]} ||| PPDB2.0Score={score:.4f}\n")
    for i in range(DENSE_MALFORMED):
        ppdb_lines.append(f"[NN] ||| {padding[i]} without a feature column\n")
    rng.shuffle(ppdb_lines)

    lines, cases, altlexes = [], Counter(), Counter()
    conns = list(DENSE_CONNECTIVES)
    for _ in range(DENSE_PAIRS):
        conn = rng.choice(conns)
        sense = DENSE_CONNECTIVES[conn]
        chosen = rng.sample(expansions[conn], rng.randint(2, 5) + 1)
        planted, decoy = chosen[:-1], chosen[-1]
        tokens = _clause(rng)
        for phrase in planted:
            tokens += list(phrase) + _clause(rng)
            altlexes[(" ".join(phrase), sense)] += 1
        if rng.random() < 0.5:
            tokens += list(decoy)
        nonexp = _render(tokens + ["."]).capitalize()
        explicit = _clause(rng) + [",", conn, "the", rng.choice(NOUNS), "was", rng.choice(CLAUSE_VERBS), "."]
        explicit = _render(explicit).capitalize()
        if rng.random() < 0.5:
            lines.append(f"{explicit}\t{nonexp}\n")
            cases["Exp-NonExp"] += 1
        else:
            lines.append(f"{nonexp}\t{explicit}\n")
            cases["NonExp-Exp"] += 1
    _write(root / "pairs.tsv", "".join(lines))
    _write(root / "empty.tsv", "")
    _write(root / "ppdb.txt", "".join(ppdb_lines))
    _write(root / "synonyms.tsv", SYNONYMS)
    return Workload(
        root=root,
        argv=_mine_argv("pairs.tsv", 1, "out"),
        setup_argv=_mine_argv("empty.tsv", 1, "out-setup"),
        input_pairs=len(lines),
        expected={"cases": dict(cases), "altlexes": dict(altlexes)},
    )


_GENERATORS = {
    "tsv-serial": _gen_tsv,
    "tsv-sharded": _gen_tsv,
    "article-align": _gen_article,
    "paraphrase-dense": _gen_dense,
}


def generate(name: str, seed: int, root: Path) -> Workload:
    """Write workload ``name``'s inputs for ``seed`` under ``root``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    root.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[name](name, seed, root)

