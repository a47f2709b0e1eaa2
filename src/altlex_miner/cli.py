"""Command-line front end: align, mine, and kappa subcommands.

Outputs are deterministic: fixed row orders, fixed float formats, and
largest-remainder percentage rounding so report percentages always sum to
100.00.

``mine`` streams its input. An aligned TSV is read one raw text row at a
time; an article directory is listed as article ids and their file names,
and each article is read only when mining reaches it. With ``--workers 1``
that stream is mined in this process: a row is tokenized into its pair
only when mining reaches it, and an article is read and aligned only when
the pairs of the one before it are mined.

With ``--workers N`` the parent cuts the stream into tasks without
tokenizing it: 1,000 rows, or one article, per task. It hands the tasks to
the process pool in windows of 2N, handing out the next window before it
folds the results of the one before. Each worker reads, tokenizes, aligns
and mines its task and returns an AltLexInventory, and the parent folds
the results in task order, so the emitted files are byte-identical for
any worker count. An input that ends inside the first window is split
into at most N contiguous shards instead, and a single shard is mined in
this process, without a pool. The parent holds at most two windows of
raw rows or article names, and each worker one pair or one article at a
time; beyond the mined inventory, memory does not grow with the corpus.

Exit codes: 0 success, 1 usage error, 2 input/parse error or a crashed
worker process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

from .corpus import (
    CorpusFormatError,
    SentencePair,
    cohen_kappa,
    align_articles,
    load_agreement_tsv,
    load_aligned_tsv,  # noqa: F401 - bound by perfbench's tracer
    list_article_dir,
    load_article_dir,  # noqa: F401 - bound by perfbench's tracer
    pairs_from_rows,
    read_aligned_rows,
    read_article,
)
from .discourse import ConnectiveInventory, InventoryError, Sense, load_inventory
from .lexres import ParaphraseStore, ResourceError, load_ppdb, load_synonyms
from .mining import AltLexInventory, CaseKind, OtherKind, mine_corpus
from .text import read_lines

USAGE_ERROR = 1
INPUT_ERROR = 2


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    input_path: str | None = None
    ppdb: str | None = None
    synonyms: str | None = None
    inventory: str | None = None
    threshold: float = 0.5
    min_score: float = 0.0
    workers: int = 1
    output_dir: str = "altlex_out"
    output: str = "aligned_pairs.tsv"

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")
        if not math.isfinite(self.min_score):  # nan would keep no PPDB line, inf none or all
            raise ConfigError(f"min_score must be finite, got {self.min_score}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


_CONFIG_TYPES = {
    "ppdb": str,
    "synonyms": str,
    "inventory": str,
    "threshold": float,
    "min_score": float,
    "workers": int,
    "output_dir": str,
    "output": str,
}


def load_config_file(path: str) -> dict:
    """Flat key=value config; '#' comments; keys match the long flag names."""
    values: dict = {}
    try:
        for lineno, line in read_lines(path, ConfigError):
            line = line.strip()
            if line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](value.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < explicit flags."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "input_path", None) is not None:
        values["input_path"] = args.input_path
    return RunConfig(**values)


def percent_rows(counts: list[int]) -> list[float]:
    """Largest-remainder rounding to 2 decimals; rows sum to exactly 100.00
    whenever the counts do not sum to zero."""
    total = sum(counts)
    if total == 0:
        return [0.0 for _ in counts]
    exact = [c * 10000 / total for c in counts]
    floors = [int(e) for e in exact]
    leftover = 10000 - sum(floors)
    order = sorted(range(len(counts)), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in order[:leftover]:
        floors[i] += 1
    return [f / 100 for f in floors]


def _case_totals(inv: AltLexInventory) -> dict[CaseKind, int]:
    totals = {kind: 0 for kind in CaseKind}
    for case, count in inv.per_case_counts.items():
        totals[case.kind] += count
    return totals


def write_cases_tsv(path: Path, inv: AltLexInventory) -> None:
    totals = _case_totals(inv)
    kinds = list(CaseKind)
    counts = [totals[k] for k in kinds]
    percents = percent_rows(counts)
    lines = ["case\tcount\tpercent"]
    for kind, count, pct in zip(kinds, counts, percents):
        lines.append(f"{kind.value}\t{count}\t{pct:.2f}")
    lines.append(f"Total\t{sum(counts)}\t{sum(percents):.2f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ordered_records(inv: AltLexInventory):
    sense_order = {s: i for i, s in enumerate(Sense)}
    return sorted(
        inv.records.values(),
        key=lambda r: (sense_order[r.sense], -r.token_count, " ".join(r.text)),
    )


def write_altlexes_tsv(path: Path, inv: AltLexInventory) -> None:
    lines = ["text\tsense\tresource\ttoken_count\tsense_alignments\texample_pair_ids"]
    for rec in _ordered_records(inv):
        alignments = inv.per_sense_alignment_counts.get(rec.sense, 0)
        lines.append(
            "\t".join(
                (
                    " ".join(rec.text),
                    rec.sense.value,
                    rec.resource.value,
                    str(rec.token_count),
                    str(alignments),
                    ";".join(rec.example_pair_ids),
                )
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_altlexes_json(path: Path, inv: AltLexInventory) -> None:
    totals = _case_totals(inv)
    other = {k.value: 0 for k in OtherKind}
    for case, count in inv.per_case_counts.items():
        if case.other_kind is not None:
            other[case.other_kind.value] += count
    payload = {
        "total_pairs": inv.total_pairs,
        "cases": {kind.value: totals[kind] for kind in CaseKind},
        "other_breakdown": other,
        "sense_alignments": {s.value: inv.per_sense_alignment_counts.get(s, 0) for s in Sense},
        "altlexes": [
            {
                "text": " ".join(rec.text),
                "sense": rec.sense.value,
                "resource": rec.resource.value,
                "token_count": rec.token_count,
                "example_pair_ids": list(rec.example_pair_ids),
            }
            for rec in _ordered_records(inv)
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _load_stores(config: RunConfig, inventory: ConnectiveInventory) -> list[ParaphraseStore]:
    """The paraphrase stores, holding only the lines that can expand a
    connective: mining looks up nothing but each connective's first part."""
    keep = {entry.parts[0] for entry in inventory}
    stores: list[ParaphraseStore] = []
    if config.ppdb:
        stores.append(load_ppdb(config.ppdb, min_score=config.min_score, keep=keep))
    if config.synonyms:
        stores.append(load_synonyms(config.synonyms, keep=keep))
    return stores


def _list_articles(path: str | Path) -> list[tuple[str, tuple[tuple[int, str], ...]]]:
    """The articles to align, in id order, as ``(article_id, ((level, file
    path), ...))`` with levels ascending; an article without a level-0 file
    is skipped with a warning. No file is read."""
    articles = []
    for art_id, files in sorted(list_article_dir(path).items()):
        if 0 not in files:
            print(f"warning: {art_id}: no level-0 file, skipping", file=sys.stderr)
            continue
        articles.append((art_id, tuple(sorted(files.items()))))
    return articles


def _align(articles: Iterable[tuple], threshold: float) -> Iterator[SentencePair]:
    """Read and align ``_list_articles`` entries: every level of an article
    against its level 0, in article then level order. Each article is read
    only once the pairs of the one before it have been consumed."""
    for art_id, files in articles:
        original, *simplified = read_article(art_id, files).values()  # level 0 first
        yield from align_articles(original, simplified, threshold)


# Mining 1,000 of the benchmark's TSV rows takes about 20 ms on a 2-vCPU
# VM, so the inventory and stores pickled with each task (about 8 KB, 0.3 ms
# each way) cost little.
_ROWS_PER_TASK = 1000


def _shards(items: list, n: int) -> list[list]:
    n = max(1, min(n, len(items)) if items else 1)
    size, extra = divmod(len(items), n)
    shards, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        shards.append(items[start:end])
        start = end
    return shards


def _tasks(items: Iterable, size: int) -> Iterator[list]:
    """``items`` in consecutive lists of ``size``; the last may be shorter."""
    items = iter(items)
    while task := list(islice(items, size)):
        yield task


def _mine_rows(rows, inventory, stores):
    """Tokenize and mine raw TSV rows, one pair at a time."""
    return mine_corpus(pairs_from_rows(rows), inventory, stores)


def _mine_articles(articles, threshold, inventory, stores):
    """Read, align and mine ``_list_articles`` entries, one article at a
    time."""
    return mine_corpus(_align(articles, threshold), inventory, stores)


def ProcessPoolExecutor(*args, **kwargs):  # noqa: N802 - perfbench and tests rebind this name
    """A ``concurrent.futures.ProcessPoolExecutor``, imported only by runs
    that start a pool."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(*args, **kwargs)


def _mine_in_pool(work, tasks: Iterator[list], workers: int) -> AltLexInventory | None:
    """Mine ``tasks`` with ``work`` in ``workers`` processes and fold the
    results in task order; None if a worker process died.

    Tasks go to the pool in windows of ``2 * workers``, at most two
    windows at a time: the one being folded and the next. The pool is
    never handed the task stream itself, because ``Executor.map`` submits
    all it is given at once. If the input ends inside the first window, it
    is split into at most ``workers`` contiguous shards instead, and a
    single shard is mined here.
    """
    ahead = 2 * workers
    window = list(islice(tasks, ahead))
    if len(window) < ahead:
        window = _shards([item for task in window for item in task], workers)
        if len(window) == 1:
            return work(window[0])
    from concurrent.futures.process import BrokenProcessPool

    inv = AltLexInventory()
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(window))) as pool:
            results = pool.map(work, window)
            while window:
                # Hand out the next window before folding this one, so the
                # workers do not wait for the parent between windows.
                window = list(islice(tasks, ahead))
                following = pool.map(work, window) if window else ()
                for result in results:
                    inv.update(result)
                results = following
    except BrokenProcessPool:
        print("error: mining worker process exited unexpectedly", file=sys.stderr)
        return None
    return inv


def cmd_mine(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    inventory = load_inventory(config.inventory)
    stores = _load_stores(config, inventory)
    if Path(config.input_path).is_dir():
        items = _list_articles(config.input_path)
        per_task = 1  # large articles balance across workers
        work = partial(_mine_articles, threshold=config.threshold, inventory=inventory, stores=stores)
    else:
        items = read_aligned_rows(config.input_path)
        per_task = _ROWS_PER_TASK
        work = partial(_mine_rows, inventory=inventory, stores=stores)

    if config.workers == 1:
        inv = work(items)
    else:
        inv = _mine_in_pool(work, _tasks(items, per_task), config.workers)
        if inv is None:
            return INPUT_ERROR

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_cases_tsv(out / "cases.tsv", inv)
    write_altlexes_tsv(out / "altlexes.tsv", inv)
    write_altlexes_json(out / "altlexes.json", inv)
    print(f"pairs: {inv.total_pairs}")
    print(f"altlex types: {len(inv.records)}")
    print(f"altlex tokens: {sum(r.token_count for r in inv.records.values())}")
    print(f"wrote {out / 'cases.tsv'}, {out / 'altlexes.tsv'}, {out / 'altlexes.json'}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    # All pairs before the first byte, so a failed run writes no partial file.
    pairs = list(_align(_list_articles(config.input_path), config.threshold))
    lines = "".join(f"{p.complex.raw}\t{p.simple.raw}\t{p.similarity:.6f}\n" for p in pairs)
    Path(config.output).write_text(lines, encoding="utf-8")
    print(f"{len(pairs)} pairs written to {config.output}")
    return 0


def cmd_kappa(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    table = load_agreement_tsv(config.input_path)
    try:
        value = cohen_kappa(table)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    print(f"{value:.3f}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="altlex-miner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_align = sub.add_parser("align", help="align article-level corpora at sentence level")
    p_align.add_argument("input_path", metavar="ARTICLES_DIR")
    p_align.add_argument("--threshold", type=float, default=None, help="similarity cutoff (default 0.5)")
    p_align.add_argument("-o", "--output", default=None, help="output TSV path")
    p_align.add_argument("--config", default=None, help="key=value config file")
    p_align.set_defaults(func=cmd_align)

    p_mine = sub.add_parser("mine", help="mine AltLexes from an aligned corpus")
    p_mine.add_argument("input_path", metavar="INPUT", help="aligned TSV file or article directory")
    p_mine.add_argument("--ppdb", default=None, help="PPDB flat file")
    p_mine.add_argument("--synonyms", default=None, help="word<TAB>synonym lexicon")
    p_mine.add_argument("--inventory", default=None, help="connective inventory TSV (default: shipped)")
    p_mine.add_argument("--threshold", type=float, default=None, help="alignment cutoff for article dirs")
    p_mine.add_argument("--min-score", type=float, default=None, help="minimum paraphrase score")
    p_mine.add_argument("--workers", type=int, default=None)
    p_mine.add_argument("--output-dir", default=None)
    p_mine.add_argument("--config", default=None, help="key=value config file")
    p_mine.set_defaults(func=cmd_mine)

    p_kappa = sub.add_parser("kappa", help="Cohen's kappa from an agreement TSV")
    p_kappa.add_argument("input_path", metavar="AGREEMENT_TSV")
    p_kappa.add_argument("--config", default=None, help="key=value config file")
    p_kappa.set_defaults(func=cmd_kappa)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusFormatError, InventoryError, ResourceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())
