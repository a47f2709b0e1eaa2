"""Command-line front end: align, mine, and kappa subcommands.

Outputs are deterministic: fixed row orders, fixed float formats, and
largest-remainder percentage rounding so report percentages always sum to
100.00. With ``--workers N`` the parent only reads raw text rows and
splits them into N contiguous shards; each worker tokenizes and mines its
shard and returns an AltLexInventory. Shard results merge in index order,
so the emitted files are byte-identical for any worker count.

Exit codes: 0 success, 1 usage error, 2 input/parse error or a crashed
worker process.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .corpus import (
    CorpusFormatError,
    SentencePair,
    cohen_kappa,
    align_articles,
    load_agreement_tsv,
    load_aligned_tsv,
    load_article_dir,
    pairs_from_rows,
    read_aligned_rows,
)
from .discourse import InventoryError, Sense, load_inventory
from .lexres import ParaphraseStore, ResourceError, load_ppdb, load_synonyms
from .mining import AltLexInventory, CaseKind, OtherKind, mine_corpus

USAGE_ERROR = 1
INPUT_ERROR = 2


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    input_path: str | None = None
    input_kind: str | None = None  # aligned-tsv | article-dir
    ppdb: str | None = None
    synonyms: str | None = None
    inventory: str | None = None
    threshold: float = 0.5
    min_score: float = 0.0
    sense_level: int = 2
    workers: int = 1
    output_dir: str = "altlex_out"
    output: str = "aligned_pairs.tsv"

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.sense_level not in (1, 2):
            raise ConfigError(f"sense-level must be 1 or 2, got {self.sense_level}")


_CONFIG_TYPES = {
    "input_kind": str,
    "ppdb": str,
    "synonyms": str,
    "inventory": str,
    "threshold": float,
    "min_score": float,
    "sense_level": int,
    "workers": int,
    "output_dir": str,
    "output": str,
}


def load_config_file(path: str) -> dict:
    """Flat key=value config; '#' comments; keys match the long flag names."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
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


def _sorted_records(inv: AltLexInventory):
    sense_order = {s: i for i, s in enumerate(Sense)}
    return sorted(
        inv.records.values(),
        key=lambda r: (sense_order[r.sense], -r.token_count, " ".join(r.text)),
    )


def write_altlexes_tsv(path: Path, inv: AltLexInventory) -> None:
    lines = ["text\tsense\tresource\ttoken_count\tsense_alignments\texample_pair_ids"]
    for rec in _sorted_records(inv):
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
            for rec in _sorted_records(inv)
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _load_stores(config: RunConfig) -> list[ParaphraseStore]:
    stores: list[ParaphraseStore] = []
    if config.ppdb:
        stores.append(load_ppdb(config.ppdb, min_score=config.min_score))
    if config.synonyms:
        stores.append(load_synonyms(config.synonyms))
    return stores


def _align_article_dir(path: str | Path, threshold: float) -> list[SentencePair]:
    """Align every level of each article against its level 0, in article-id
    then level order."""
    pairs: list[SentencePair] = []
    articles = load_article_dir(path)
    for art_id in sorted(articles):
        levels = articles[art_id]
        if 0 not in levels:
            print(f"warning: {art_id}: no level-0 file, skipping", file=sys.stderr)
            continue
        for level in sorted(levels):
            if level != 0:
                pairs.extend(align_articles(levels[0], levels[level], threshold))
    return pairs


def _load_input(config: RunConfig, sharded: bool) -> list:
    """The run's input: SentencePairs to mine in this process or, when
    ``sharded``, raw ``(source_id, complex, simple)`` rows for the workers to
    tokenize. An aligned TSV is then only split into rows; article
    directories are still aligned here, which needs their tokens."""
    kind = config.input_kind
    path = Path(config.input_path)
    if kind is None:
        kind = "article-dir" if path.is_dir() else "aligned-tsv"
    if kind == "aligned-tsv":
        return read_aligned_rows(path) if sharded else load_aligned_tsv(path)
    if kind == "article-dir":
        pairs = _align_article_dir(path, config.threshold)
        return [(p.source_id, p.complex.raw, p.simple.raw) for p in pairs] if sharded else pairs
    raise ConfigError(f"unknown input kind {kind!r}")


def _shards(items: list, n: int) -> list[list]:
    n = max(1, min(n, len(items)) if items else 1)
    size, extra = divmod(len(items), n)
    shards, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        shards.append(items[start:end])
        start = end
    return shards


def _mine_shard(rows, inventory, stores, sense_level):
    """Tokenize and mine one shard of raw rows; what each pool worker runs."""
    return mine_corpus(pairs_from_rows(rows), inventory, stores, sense_level=sense_level)


def cmd_mine(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    inventory = load_inventory(config.inventory)
    stores = _load_stores(config)

    if config.workers == 1:
        pairs = _load_input(config, sharded=False)
        inv = mine_corpus(pairs, inventory, stores, sense_level=config.sense_level)
    else:
        worker = partial(
            _mine_shard, inventory=inventory, stores=stores, sense_level=config.sense_level
        )
        shards = _shards(_load_input(config, sharded=True), config.workers)
        if len(shards) == 1:  # at most one row: not worth starting a pool
            results = [worker(shards[0])]
        else:
            try:
                with ProcessPoolExecutor(max_workers=config.workers) as pool:
                    results = list(pool.map(worker, shards))
            except BrokenProcessPool:
                print("error: mining worker process exited unexpectedly", file=sys.stderr)
                return INPUT_ERROR
        inv = AltLexInventory()
        for shard_inv in results:
            inv = inv.merge(shard_inv)

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
    pairs = _align_article_dir(config.input_path, config.threshold)
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
    p_mine.add_argument("--input-kind", choices=("aligned-tsv", "article-dir"), default=None)
    p_mine.add_argument("--ppdb", default=None, help="PPDB flat file")
    p_mine.add_argument("--synonyms", default=None, help="word<TAB>synonym lexicon")
    p_mine.add_argument("--inventory", default=None, help="connective inventory TSV (default: shipped)")
    p_mine.add_argument("--threshold", type=float, default=None, help="alignment cutoff for article dirs")
    p_mine.add_argument("--min-score", type=float, default=None, help="minimum paraphrase score")
    p_mine.add_argument("--sense-level", type=int, choices=(1, 2), default=None)
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
