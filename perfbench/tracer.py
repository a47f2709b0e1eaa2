"""In-process span tracing of one `mine` run, without changing the program.

``traced_mine`` imports ``altlex_miner`` and binds timing wrappers around the
functions one module calls in another, at the names the caller looks up:
``cli.load_ppdb``, ``mining.detect_explicit``, ``similarity.cosine_matrix``
and so on. It then calls ``altlex_miner.cli.main`` and restores every name.
Each call records a span (name, start, end, parent) in memory; the spans are
written out only when the run ends.

A span's self time is its duration minus the time its child spans cover.
The run's two root spans, the package import and ``cli.main``, cover the
whole traced wall time, so the self times of all spans add up to it.

Work inside the ``--workers`` process pool is not traced: forked workers
restore the original functions before they start. The pool's own span and
the pickled sizes of what it sends and receives are recorded in the parent.
Pickling for those sizes runs in ``trace.pickle`` spans, so it counts as
tracing overhead, not as ``cli.pool`` self time.
"""

from __future__ import annotations

import gzip
import importlib
import multiprocessing
import os
import pickle
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

_ROOT = -1


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack = [_ROOT]

    def _open(self, name: str) -> tuple[str, int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return name, idx, perf_counter()

    def _close(self, handle: tuple[str, int, float]) -> None:
        end = perf_counter()
        name, idx, start = handle
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1])

    @contextmanager
    def span(self, name: str):
        handle = self._open(name)
        try:
            yield
        finally:
            self._close(handle)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a ``name`` span per call; ``count(counts, result,
        args)`` adds layer counters from each result."""

        @wraps(fn)
        def traced(*args, **kwargs):
            handle = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(handle)
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, summed self time, summed duration)}, in
        seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent != _ROOT:
                covered[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + (end - start - child), total_s + (end - start))
        return out

    def wall_s(self) -> float:
        roots = [s for s in self.spans if s[3] == _ROOT]
        return sum(end - start for _, start, end, _ in roots)

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped TSV: index, name, start, end, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def _count_store(counts, store, args):
    counts["lexres.load_ppdb.entries"] += len(store)
    counts["lexres.load_ppdb.skipped"] += store.skipped


def _count_pairs_out(counts, pairs, args):
    counts["corpus.align_articles.pairs_out"] += len(pairs)


def _count_cells(counts, matrix, args):
    counts["similarity.cosine_matrix.cells"] += (len(args[0][0]) - 1) * (len(args[1][0]) - 1)


def _count_expand(counts, entries, args):
    counts["lexres.expand.results"] += len(entries)


def _count_accepted(counts, ok, args):
    counts["mining.verify_candidate.accepted"] += bool(ok)


def _pool_class(tracer: Tracer, real_pool, restore):
    """A stand-in for ``ProcessPoolExecutor`` that records the ``cli.pool``
    span from construction to shutdown and the pickled bytes it moves."""
    # Forked workers inherit the wrapped names; spawned ones import afresh.
    fork = multiprocessing.get_start_method() == "fork"

    class TracedPool:
        def __init__(self, *args, **kwargs):
            self._handle = tracer._open("cli.pool")
            if fork:
                kwargs["initializer"] = restore
            self._pool = real_pool(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            try:
                return self._pool.__exit__(*exc)
            finally:
                tracer._close(self._handle)

        def map(self, fn, *iterables, **kwargs):
            calls = list(zip(*iterables))
            with tracer.span("trace.pickle"):
                tracer.counts["cli.shard_bytes"] += sum(len(pickle.dumps((fn, args))) for args in calls)
            for result in self._pool.map(fn, *zip(*calls), **kwargs):
                with tracer.span("trace.pickle"):
                    tracer.counts["cli.result_bytes"] += len(pickle.dumps(result))
                yield result

    return TracedPool


def traced_mine(tracer: Tracer, argv: list[str], cwd: Path) -> int:
    """Run ``altlex_miner.cli.main(argv)`` in ``cwd`` under ``tracer``.

    The package must be importable and not yet imported, so the import
    span covers what a fresh process pays.
    """
    with tracer.span("altlex_miner.import"):
        cli = importlib.import_module("altlex_miner.cli")
    corpus = importlib.import_module("altlex_miner.corpus")
    mining = importlib.import_module("altlex_miner.mining")
    similarity = importlib.import_module("altlex_miner.similarity")

    bindings = [
        (cli, "load_inventory", "discourse.load_inventory", None),
        (cli, "load_ppdb", "lexres.load_ppdb", _count_store),
        (cli, "load_synonyms", "lexres.load_synonyms", None),
        (cli, "load_aligned_tsv", "corpus.load_aligned_tsv", None),
        (cli, "load_article_dir", "corpus.load_article_dir", None),
        (cli, "align_articles", "corpus.align_articles", _count_pairs_out),
        (cli, "mine_corpus", "mining.mine_corpus", None),
        (cli, "write_cases_tsv", "cli.write", None),
        (cli, "write_altlexes_tsv", "cli.write", None),
        (cli, "write_altlexes_json", "cli.write", None),
        (corpus, "tokenize", "text.tokenize", None),
        (corpus, "compute_idf", "corpus.compute_idf", None),
        (similarity, "build_vocab", "similarity.build_vocab", None),
        (similarity, "csr_weights", "similarity.csr_weights", None),
        (similarity, "cosine_matrix", "similarity.cosine_matrix", _count_cells),
        (mining, "tokenize", "text.tokenize", None),
        (mining, "match_phrase", "text.match_phrase", None),
        (mining, "detect_explicit", "discourse.detect_explicit", None),
        (mining, "expand", "lexres.expand", _count_expand),
        (mining, "substitute", "mining.substitute", None),
        (mining, "verify_candidate", "mining.verify_candidate", _count_accepted),
        (mining.AltLexInventory, "merge", "mining.merge", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in bindings]
    originals.append((cli, "ProcessPoolExecutor", cli.ProcessPoolExecutor))

    def restore():
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)

    for owner, attr, name, count in bindings:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    cli.ProcessPoolExecutor = _pool_class(tracer, cli.ProcessPoolExecutor, restore)
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        os.chdir(previous)
        restore()
