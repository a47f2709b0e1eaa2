"""Command-line front end: align, mine, and kappa subcommands.

Outputs are deterministic: fixed row orders, fixed float formats, and
largest-remainder percentage rounding so report percentages always sum to
100.00. ``mine`` builds its report, what ``altlexes.json`` holds, once;
``cases.tsv``, ``altlexes.tsv`` and the summary lines are read from it.

``mine`` and ``align`` stream their input. An aligned TSV is read in
blocks of whole lines and yielded one raw text row at a time; an article
directory is listed as article ids and their file names, and each file is
read only when alignment reaches it.
An article's level 0 is read once; each simplified level is then read,
aligned against level 0 and its pairs consumed before the next level is
read, and the article is released before the next one's level 0 is read.
``align`` writes each pair as it is aligned.

``mine`` cuts the stream into tasks without tokenizing it: 1,000 rows (the
first 200), or one article, per task, whatever ``--workers`` and the
machine. One rule sets how many processes mine them: the least of
``--workers``, the CPUs and the tasks in a first window of 2 x
min(``--workers``, CPUs) tasks. With one, the stream is mined in this
process, a row tokenized into its pair only when mining reaches it. With
more, a process pool is handed the tasks in such windows, the next window
before the parent folds the results of the one before. Each worker reads,
tokenizes, aligns and mines its task and returns an AltLexInventory, and
the parent folds the results in task order, so the emitted files are
byte-identical for any worker count. The parent holds at most two windows
of raw rows or article names, and each worker one pair, or level 0 and
one simplified level of an article, at a time; beyond the mined
inventory, memory does not grow with the corpus.

Exit codes: 0 success, 1 usage error, 2 a crashed worker process, an
unwritable output, no memory left, or an input error: an unreadable file,
a bad value, or a malformed line, reported as ``PATH: line N: reason``;
130, 143 and 129 a run stopped by Ctrl-C, SIGTERM or SIGHUP (128 + the
signal's number). Outputs are replaced only once all are written, so a
failed or stopped run leaves each as it was, and a failed or stopped
``mine`` stops its worker processes before it exits; workers ignore the
three signals, which a terminal sends to the whole process group, and
leave them to the parent; a worker exits once its parent has died, also
of SIGKILL. Workers that cannot start give ``error:
starting worker processes: ...``.
A stdout closed by its reader, as by ``| head``, is no error: the outputs
are written before the summary is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import stat
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, islice
from pathlib import Path

from .corpus import (
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
from .discourse import ConnectiveInventory, Sense, load_inventory
from .lexres import ParaphraseStore, load_ppdb, load_synonyms
from .mining import AltLexInventory, CaseKind, OtherKind, mine_corpus
from .text import InputError, read_lines

USAGE_ERROR = 1
INPUT_ERROR = 2
INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


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
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")
        if not math.isfinite(self.min_score):  # nan would keep no PPDB line, inf none or all
            raise ValueError(f"min_score must be finite, got {self.min_score}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# A config key's type is its field's default's, str where that is None.
_CONFIG_TYPES = {
    f.name: str if f.default is None else type(f.default) for f in fields(RunConfig) if f.name != "input_path"
}


def load_config_file(path: str) -> tuple[dict, dict[str, str]]:
    """Flat key=value config; '#' comments; keys match the long flag names.
    Returns the values and, for each, the ``PATH: line N`` that set it."""
    values: dict = {}
    lines: dict[str, str] = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise InputError(f"{path}: line {lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise InputError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](value.strip())
            RunConfig(**{key: values[key]})  # a range check names this line too
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
        lines[key] = f"{path}: line {lineno}"
    return values, lines


def build_run_config(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str]]:
    """Defaults < config file < explicit flags. Returns the config and, for
    each value a config file set and no flag overrode, the ``PATH: line N``
    that set it."""
    values, set_at = load_config_file(args.config) if args.config else ({}, {})
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)  # align has no resource flags
        if flag is not None:
            values[key] = flag
            set_at.pop(key, None)
    return RunConfig(input_path=args.input_path, **values), set_at


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


def _report(inv: AltLexInventory) -> dict:
    """What ``altlexes.json`` holds, built once for all three files and the
    summary: the totals of the five cases, Other's three kinds, alignments
    per sense, and the records ordered by sense, descending token count,
    then text."""
    cases = {kind.value: 0 for kind in CaseKind}
    other = {kind.value: 0 for kind in OtherKind}
    for case, count in inv.per_case_counts.items():
        cases[case.kind.value] += count
        if case.other_kind is not None:
            other[case.other_kind.value] += count
    sense_rank = {sense.value: rank for rank, sense in enumerate(Sense)}
    altlexes = [
        {
            "text": " ".join(rec.text),
            "sense": rec.sense.value,
            "resource": rec.resource.value,
            "token_count": rec.token_count,
            "example_pair_ids": rec.example_pair_ids,
        }
        for rec in inv.records.values()
    ]
    altlexes.sort(key=lambda a: (sense_rank[a["sense"]], -a["token_count"], a["text"]))
    return {
        "total_pairs": inv.total_pairs,
        "cases": cases,
        "other_breakdown": other,
        "sense_alignments": {s.value: inv.per_sense_alignment_counts.get(s, 0) for s in Sense},
        "altlexes": altlexes,
    }


def write_cases_tsv(write: Callable[[str], object], report: dict) -> None:
    counts = list(report["cases"].values())
    percents = percent_rows(counts)
    lines = ["case\tcount\tpercent"]
    for kind, count, pct in zip(report["cases"], counts, percents):
        lines.append(f"{kind}\t{count}\t{pct:.2f}")
    lines.append(f"Total\t{sum(counts)}\t{sum(percents):.2f}")
    write("\n".join(lines) + "\n")


def write_altlexes_tsv(write: Callable[[str], object], report: dict) -> None:
    lines = ["text\tsense\tresource\ttoken_count\tsense_alignments\texample_pair_ids"]
    for a in report["altlexes"]:
        alignments = report["sense_alignments"][a["sense"]]
        ids = ";".join(a["example_pair_ids"])
        lines.append(f"{a['text']}\t{a['sense']}\t{a['resource']}\t{a['token_count']}\t{alignments}\t{ids}")
    write("\n".join(lines) + "\n")


def write_altlexes_json(write: Callable[[str], object], report: dict) -> None:
    write(json.dumps(report, indent=2) + "\n")


@contextmanager
def _replacing(*outputs: str | Path) -> Iterator[list[Callable[[str], object]]]:
    """Yield a ``write(text)`` per output, into a temporary file beside it,
    or beside its symlink's target, and replace the outputs once the block
    has ended and all are closed; a failure removes them. An existing output
    keeps its mode bits; one that is not a regular file is written directly."""
    def named(output, call, *args):  # an OSError, such as a full disk's, names the output, not a temporary file
        try:
            return call(*args)
        except OSError as exc:
            exc.filename = str(output)
            del exc.filename2  # os.replace's target: one name, the one the user gave
            raise

    files, replacing = [], {}  # [(output, file)], {temporary file: (output, target)}
    try:
        for output in outputs:
            mode = os.stat(output).st_mode if os.path.exists(output) else None
            if mode and not stat.S_ISREG(mode):  # through a link: /dev/stdout on a pipe resolves to no path
                files.append((output, open(output, "w", encoding="utf-8")))
                continue
            target = Path(os.path.realpath(output))
            temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            files.append((output, named(output, lambda: open(temporary, "x", encoding="utf-8"))))
            replacing[temporary] = output, target
            if mode:
                named(output, os.chmod, temporary, stat.S_IMODE(mode))
        yield [partial(named, output, fh.write) for output, fh in files]
        for output, fh in files:
            named(output, fh.close)
        for temporary, (output, target) in replacing.items():
            named(output, os.replace, temporary, target)
    finally:
        for _, fh in files:
            with suppress(OSError):  # a no-op once closed; else the error raised says more
                fh.close()
        for temporary in replacing:
            temporary.unlink(missing_ok=True)  # replaced already, or left by a failure


def _load(config: RunConfig, set_at: dict[str, str], key: str, load: Callable, **kwargs):
    """``load`` of the resource path set for ``key``; an OSError for a path
    from a config file names the file and line that ``set_at`` gives."""
    try:
        return load(getattr(config, key), **kwargs)
    except OSError as exc:
        if key not in set_at:
            raise
        raise InputError(f"{set_at[key]}: {key}: {exc}") from exc


def _load_stores(config: RunConfig, set_at: dict[str, str], inventory: ConnectiveInventory) -> list[ParaphraseStore]:
    """The paraphrase stores, holding only the lines that can expand a
    connective: mining looks up nothing but each connective's first part."""
    keep = {entry.parts[0] for entry in inventory}
    stores: list[ParaphraseStore] = []
    if config.ppdb:
        stores.append(_load(config, set_at, "ppdb", load_ppdb, min_score=config.min_score, keep=keep))
    if config.synonyms:
        stores.append(_load(config, set_at, "synonyms", load_synonyms, keep=keep))
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
    """Read and align ``_list_articles`` entries: each simplified level of
    an article against its level 0, in article then level order.

    Level 0 is read once per article. Each simplified level is read only
    once the pairs of the level before it have been consumed, and no level
    before it, nor the article before, is still held when the next file is
    read.
    """
    for art_id, ((_, original_file), *simplified) in articles:
        original = read_article(original_file)
        for level, file in simplified:
            yield from align_articles(original, read_article(file), art_id, level, threshold)
        del original  # before the next article's level 0 is read


# Mining 1,000 of the benchmark's TSV rows takes about 20 ms on a 2-vCPU VM.
# The inventory and stores are pickled with each task; with a dense PPDB that
# is 2.72 MB, 64-74 ms to dump and 113-157 ms to load.
_ROWS_PER_TASK = 1000
# The first task is smaller, so that the few hundred rows of the benchmark's
# own tests of its pooled workload still make two tasks.
_FIRST_TASK_ROWS = 200


def _tasks(items: Iterator, size: int) -> Iterator[list]:
    """``items`` in consecutive lists of ``size``, the first of at most
    ``_FIRST_TASK_ROWS``; the last may be shorter."""
    task = list(islice(items, min(size, _FIRST_TASK_ROWS)))
    while task:
        yield task
        task = list(islice(items, size))


def _mine_task(read, items, inventory, stores):
    """Mine the pairs that ``read`` makes of a task's items one at a time:
    ``pairs_from_rows`` of raw TSV rows, ``_align`` of article entries."""
    return mine_corpus(read(items), inventory, stores)


# The signals that stop a run: Ctrl-C's, and the two that ``entrypoint`` handles.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)


def _leave_signals_to_parent() -> None:
    """A pool worker's initializer: the parent, stopped by the signal, kills
    its workers, and a worker that also stopped would print a traceback.

    A parent killed by a signal no handler sees, such as SIGKILL, stops no
    worker, so a daemon thread does: it waits until the parent's sentinel
    pipe closes and exits the worker. Under fork a worker also holds its
    elder siblings' write ends, so the workers exit youngest first."""
    import threading
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    for signum in _STOP_SIGNALS:
        signal.signal(signum, signal.SIG_IGN)
    sentinel = parent_process().sentinel

    def exit_with_parent() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, name="exit-with-parent", daemon=True).start()


def ProcessPoolExecutor(*args, **kwargs):  # noqa: N802 - perfbench and tests rebind this name
    """A ``concurrent.futures.ProcessPoolExecutor``, imported only by runs
    that start a pool."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(*args, **kwargs)


def _mine(work, items: Iterable, per_task: int, workers: int) -> AltLexInventory:
    """Mine ``items`` with ``work`` in tasks of ``per_task`` items and fold
    the results in task order; a dead worker raises ChildProcessError.

    The one dispatch rule: ``min(workers, CPUs, tasks in the first window)``
    processes, a window being ``2 * min(workers, CPUs)`` tasks and CPUs one
    if unknown. One process mines here, reading no item ahead unless a first
    window was read. More are a pool, handed the windows at most two at a
    time: the one being folded and the next, never the task stream, all of
    which ``Executor.map`` would submit at once. Any failure or interrupt
    stops the workers and cancels the tasks not yet started.
    """
    items = iter(items)
    tasks = _tasks(items, per_task)
    processes = min(workers, os.cpu_count() or 1)
    ahead = 2 * processes
    window = list(islice(tasks, ahead)) if processes > 1 else []
    processes = min(processes, len(window))
    if processes <= 1:  # a first window of one task, or none, held the whole input
        return work(chain(*window, items))
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool

    def start(call, *args, **kwargs):
        # The pool's threads, started here, block the stop signals, so that
        # each reaches this thread, the one that runs Python's handlers: one
        # taken by a pool thread would wait while this one waits in a read.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            return call(*args, **kwargs)
        except OSError as exc:  # the pool's own names no file, so say what failed
            raise OSError(f"starting worker processes: {exc}") from exc
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    inv = AltLexInventory()
    alive = set(multiprocessing.active_children())
    with start(ProcessPoolExecutor, max_workers=processes, initializer=_leave_signals_to_parent) as pool:
        try:
            results = start(pool.map, work, window)
            while window:
                # Hand out the next window before folding this one, so the
                # workers do not wait for the parent between windows.
                window = list(islice(tasks, ahead))
                following = start(pool.map, work, window) if window else ()
                for result in results:
                    inv.update(result)
                results = following
        except BaseException as exc:
            # Leaving the block waits for every task handed out, and for
            # ever on a worker whose pool failed to start the rest. SIGKILL,
            # which no handler a worker inherits can catch, bounds the join.
            for child in set(multiprocessing.active_children()) - alive:
                child.kill()
                child.join()
            pool.shutdown(wait=True, cancel_futures=True)
            if isinstance(exc, BrokenProcessPool):
                raise ChildProcessError("mining worker process exited unexpectedly") from exc
            raise
    return inv


def cmd_mine(args: argparse.Namespace) -> int:
    config, set_at = build_run_config(args)
    # The input is checked before any resource is read: a PPDB can take long.
    if Path(config.input_path).is_dir():
        items = _list_articles(config.input_path)
        per_task = 1  # large articles balance across workers
        read = partial(_align, threshold=config.threshold)
    else:
        os.stat(config.input_path)
        items = read_aligned_rows(config.input_path)
        per_task = _ROWS_PER_TASK
        read = pairs_from_rows
    inventory = _load(config, set_at, "inventory", load_inventory)
    work = partial(_mine_task, read, inventory=inventory, stores=_load_stores(config, set_at, inventory))

    inv = _mine(work, items, per_task, config.workers)

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = _report(inv)
    with _replacing(out / "cases.tsv", out / "altlexes.tsv", out / "altlexes.json") as (cases, altlexes, altlexes_json):
        write_cases_tsv(cases, report)
        write_altlexes_tsv(altlexes, report)
        write_altlexes_json(altlexes_json, report)
    print(f"pairs: {report['total_pairs']}")
    print(f"altlex types: {len(report['altlexes'])}")
    print(f"altlex tokens: {sum(a['token_count'] for a in report['altlexes'])}")
    print(f"wrote {out / 'cases.tsv'}, {out / 'altlexes.tsv'}, {out / 'altlexes.json'}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    config, _ = build_run_config(args)
    articles = _list_articles(config.input_path)
    count = 0
    with _replacing(config.output) as (write,):
        for p in _align(articles, config.threshold):
            if "\t" in (raw := p.complex.raw) or "\t" in (raw := p.simple.raw):
                raise InputError(f"aligned pair {p.source_id}: sentence {raw!r} holds a tab, which would split its row")
            write(f"{p.complex.raw}\t{p.simple.raw}\t{p.similarity:.6f}\n")
            count += 1
    print(f"{count} pairs written to {config.output}")
    return 0


def cmd_kappa(args: argparse.Namespace) -> int:
    table = load_agreement_tsv(args.input_path)
    print(f"{cohen_kappa(table):.3f}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="altlex-miner", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_align = sub.add_parser("align", help="align article-level corpora at sentence level")
    p_align.add_argument("input_path", metavar="ARTICLES_DIR", help="directory of <articleid>.<level>.txt files")
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
    p_mine.add_argument("--min-score", type=float, default=None, help="minimum PPDB score of a kept line (default 0)")
    p_mine.add_argument("--workers", type=int, default=None, help="processes to mine in (default 1)")
    p_mine.add_argument("--output-dir", default=None, help="directory of the three output files (default altlex_out)")
    p_mine.add_argument("--config", default=None, help="key=value config file")
    p_mine.set_defaults(func=cmd_mine)

    p_kappa = sub.add_parser("kappa", help="Cohen's kappa from an agreement TSV")
    p_kappa.add_argument("input_path", metavar="AGREEMENT_TSV", help="pair_id<TAB>0|1<TAB>0|1 rows")
    p_kappa.set_defaults(func=cmd_kappa)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except (InputError, OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError) and exc.filename is None:  # stdout closed by its reader, as by `| head`
            with open(os.devnull, "w") as devnull:  # for what is still buffered, flushed at exit
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except MemoryError:  # whose message is empty
        print("error: out of memory", file=sys.stderr)
        return INPUT_ERROR
    except KeyboardInterrupt as exc:  # Ctrl-C, or a signal that ``_stop`` turns into one
        message, code = exc.args or ("interrupted", INTERRUPTED)
        print(f"error: {message}", file=sys.stderr)
        return code


def _stop(signum, frame):
    """Unwind as Ctrl-C does, so that temporary files and workers go too."""
    raise KeyboardInterrupt(f"stopped by {signal.Signals(signum).name}", 128 + signum)


def entrypoint() -> None:
    """The console script and ``python -m altlex_miner``. Alignment calls
    no BLAS routine, so OpenBLAS gets one thread instead of a pool that
    spins on the other CPUs; set before numpy is imported or a worker
    starts, so workers inherit it. A value already set wins. SIGTERM and
    SIGHUP stop a run as Ctrl-C does; a caller of ``main`` keeps its own
    handlers."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _stop)
    sys.exit(main())
