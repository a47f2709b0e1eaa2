"""End-to-end benchmark of `altlex-miner mine` on seeded workloads.

Usage, from the root of a source checkout (the package is not installed;
``src/`` goes on ``PYTHONPATH``):

    python3 perfbench/run.py --workload tsv-serial --seed 1 --seconds 28 --trace 0

One run of this script:

1. generates the workload's inputs from ``--seed`` (see ``workloads.py``)
   under ``.perfbench/work/``, and removes them at the end;
2. runs the workload's exact command once on an empty input of the same
   kind, untimed, to warm the bytecode and page caches;
3. with ``--trace 0``, for ``--seconds`` seconds (at least ``MIN_RUNS``
   rounds), runs rounds of fresh processes, closed loop: ``SETUP_PER_ROUND``
   runs of the command on the empty input, whose wall time is ``setup_s``
   (import, inventory and resource loading, empty outputs), then one of the
   real command. It reports the medians of the end-to-end metrics.
   Alternating spreads both kinds of sample over the same stretch of time,
   so drift in machine speed moves their medians alike;
4. with ``--trace 1``, makes untraced runs for half of ``--seconds``, then
   one traced run inside this process (``tracer.py``), and reports the
   per-layer metrics and the tracing overhead.

Every run's outputs are checked (``checks.py``); a run that exits non-zero
or fails a check counts in ``failed`` and its timings are not used. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record, with every sample, the sample
counts and the environment, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import cases_total, check_outputs, clear_outputs, read_outputs
from tracer import Tracer, traced_mine
from workloads import WORKLOADS, Workload, generate

MIN_RUNS = 3
# Set-up runs per round. One takes about 0.2-0.5 s, a fifth of a timed run
# or less, so several per round give its median many more samples.
SETUP_PER_ROUND = 3
# Each benchmark run must end within 180 s; stop starting commands after this.
DEADLINE_S = 160.0

END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Layer metrics read from the traced run: span self times and call counts,
# plus the counters tracer.py adds.
SELF_TIMES = (
    "text.tokenize", "text.match_phrase",
    "corpus.load_aligned_tsv", "corpus.load_article_dir", "corpus.compute_idf", "corpus.align_articles",
    "similarity.build_vocab", "similarity.csr_weights", "similarity.cosine_matrix",
    "discourse.load_inventory", "discourse.detect_explicit",
    "lexres.load_ppdb", "lexres.load_synonyms", "lexres.expand",
    "mining.substitute", "mining.verify_candidate", "mining.mine_corpus", "mining.merge",
    "cli.write", "cli.main", "altlex_miner.import",
)
CALLS = (
    "text.tokenize", "text.match_phrase", "discourse.detect_explicit", "lexres.expand",
    "mining.verify_candidate", "mining.merge",
)
COUNTERS = {
    "corpus.align_articles.pairs_out": "count",
    "similarity.cosine_matrix.cells": "count",
    "lexres.load_ppdb.entries": "count",
    "lexres.load_ppdb.skipped": "count",
    "lexres.expand.results": "count",
    "mining.verify_candidate.accepted": "count",
    "cli.shard_bytes": "bytes",
    "cli.result_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update(COUNTERS)
    units.update({
        "mining.verify_candidate.accept_ratio": "ratio",
        "cli.pool.wall_s": "s",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "error_rate": "ratio",
    })
    return units


@dataclass
class CliRun:
    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    total_pairs: int | None = None
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems


def spawn_cli(argv: list[str], cwd: Path, src: Path, timeout: float) -> tuple[float, float, float, int]:
    """Run ``python -m altlex_miner ARGV`` in ``cwd`` as a fresh process.

    Returns (wall s from launch to exit, user+sys CPU s, peak RSS MiB, exit
    code). CPU and RSS come from ``wait4`` on this child, so they include the
    worker processes it reaped and nothing from earlier runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "altlex_miner", *argv], cwd=cwd, env=env, stdout=out, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


class Session:
    """Runs one workload's commands, checks each, and keeps every result.

    ``self.reference`` holds the outputs every later run must equal: the
    workload's reference command's if it has one, else the first passing
    timed run's.
    """

    def __init__(self, workload: Workload, src: Path, deadline: float):
        self.wl = workload
        self.src = src
        self.deadline = deadline
        self.runs: list[CliRun] = []
        self.reference: dict[str, bytes] | None = None

    @property
    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def _problems(self, code, outputs, input_pairs, expected, reference) -> tuple[str, ...]:
        if code != 0:
            stderr = (self.wl.root / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            return (f"exit code {code}: {stderr.strip()[-500:]}",)
        return tuple(check_outputs(outputs, input_pairs, expected, reference))

    def mine(self, label, argv, input_pairs, expected, reference=None) -> tuple[CliRun, dict[str, bytes]]:
        out_dir = self.wl.root / argv[argv.index("--output-dir") + 1]
        clear_outputs(out_dir)
        wall, cpu, rss, code = spawn_cli(argv, self.wl.root, self.src, max(1.0, self.time_left))
        outputs = read_outputs(out_dir)
        problems = self._problems(code, outputs, input_pairs, expected, reference)
        run = CliRun(label, wall, cpu, rss, code, cases_total(outputs), problems)
        self.runs.append(run)
        return run, outputs

    def setup(self, label: str) -> CliRun:
        """The command on the empty input."""
        return self.mine(label, self.wl.setup_argv, 0, {"cases": {}, "altlexes": {}})[0]

    def run_reference(self) -> None:
        if self.wl.reference_argv is not None:
            run, outputs = self.mine("reference", self.wl.reference_argv, self.wl.input_pairs, self.wl.expected)
            if run.ok:
                self.reference = outputs

    def timed(self, seconds: float, with_setup: bool) -> tuple[list[CliRun], list[CliRun]]:
        """Closed loop: the next run starts when the previous one exits.
        Returns the set-up runs and the runs of the real command."""
        setups: list[CliRun] = []
        runs: list[CliRun] = []
        start = time.monotonic()
        last = 0.0
        while len(runs) < MIN_RUNS or time.monotonic() - start + last <= seconds:
            if self.time_left < 2 * last + 1.0:
                break
            round_start = time.monotonic()
            if with_setup:
                setups.extend(self.setup("setup") for _ in range(SETUP_PER_ROUND))
            run, outputs = self.mine("timed", self.wl.argv, self.wl.input_pairs, self.wl.expected, self.reference)
            if self.reference is None and run.ok:
                self.reference = outputs
            runs.append(run)
            last = time.monotonic() - round_start
        return setups, runs

    def traced(self, tracer: Tracer) -> CliRun:
        """The workload's command in this process, under ``tracer``."""
        argv = self.wl.argv[: self.wl.argv.index("--output-dir")] + ["--output-dir", "out-traced"]
        sys.path.insert(0, str(self.src))
        with open(self.wl.root / "stdout.txt", "w") as out, open(self.wl.root / "stderr.txt", "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = traced_mine(tracer, argv, self.wl.root)
        outputs = read_outputs(self.wl.root / "out-traced")
        problems = self._problems(code, outputs, self.wl.input_pairs, self.wl.expected, self.reference)
        # CPU and RSS of this process are not the run's own; they stay 0.
        run = CliRun("traced", tracer.wall_s(), 0.0, 0.0, code, cases_total(outputs), problems)
        self.runs.append(run)
        return run


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setup: list[CliRun], timed: list[CliRun]) -> dict[str, float]:
    # Only runs whose outputs pass count; with none, the metric reads 0 and
    # ``correct`` is false.
    good = [r for r in timed if r.ok]
    good_setup = [r for r in setup if r.ok]
    return {
        "wall_s": _median([r.wall_s for r in good]),
        "pairs_per_s": _median([(r.total_pairs or 0) / r.wall_s for r in good]),
        "cpu_s": _median([r.cpu_s for r in good]),
        "peak_rss_mib": _median([r.peak_rss_mib for r in good]),
        "setup_s": _median([r.wall_s for r in good_setup]),
    }


def per_layer(tracer: Tracer, untraced: list[CliRun], all_runs: list[CliRun]) -> dict[str, float]:
    times = tracer.layer_times()
    counts = tracer.counts
    values: dict[str, float] = {}
    for name in CALLS:
        values[f"{name}.calls"] = times.get(name, (0, 0.0, 0.0))[0]
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = times.get(name, (0, 0.0, 0.0))[1]
    for name in COUNTERS:
        values[name] = counts[name]
    verified = values["mining.verify_candidate.calls"]
    values["mining.verify_candidate.accept_ratio"] = (
        counts["mining.verify_candidate.accepted"] / verified if verified else 0.0
    )
    # Self time, so the benchmark's own pickling (trace.pickle) is left out.
    values["cli.pool.wall_s"] = times.get("cli.pool", (0, 0.0, 0.0))[1]
    values["trace.spans"] = len(tracer.spans)
    values["trace.wall_s"] = tracer.wall_s()
    values["trace.untraced_wall_s"] = _median([r.wall_s for r in untraced if r.ok])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["error_rate"] = sum(not r.ok for r in all_runs) / len(all_runs)
    return values


def environment() -> dict:
    """What article-align speed depends on: numba, the numpy fallback flag,
    BLAS threads, and the Python, numpy and core counts."""
    import numpy

    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": numba_importable,
        "ALTLEX_MINER_DISABLE_NUMBA": os.environ.get("ALTLEX_MINER_DISABLE_NUMBA"),
        "blas": blas.get("name"),
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "altlex_miner" / "cli.py").is_file():
        print(f"error: no altlex_miner sources under {src}", file=sys.stderr)
        return 2
    state = root / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        session = Session(generate(args.workload, args.seed, work), src, deadline)
        session.setup("warmup")
        session.run_reference()
        if args.trace == 0:
            metrics = end_to_end(*session.timed(args.seconds, with_setup=True))
            units = END_TO_END
        else:
            _, untraced = session.timed(args.seconds / 2, with_setup=False)
            tracer = Tracer()
            session.traced(tracer)
            tracer.dump(results / f"{tag}.spans.tsv.gz")
            metrics = per_layer(tracer, untraced, session.runs)
            units = per_layer_units()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(session.runs)
    failed = sum(not r.ok for r in session.runs)
    correct = failed == 0 and any(r.ok and r.label in ("timed", "traced") for r in session.runs)
    env = environment()
    counts = {label: sum(r.label == label for r in session.runs) for label in ("setup", "timed", "traced")}
    for run in session.runs:
        for problem in run.problems:
            print(f"{run.label} run failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_pairs": session.wl.input_pairs,
        "argv": session.wl.argv,
        "setup_argv": session.wl.setup_argv,
        "samples": counts,
        "environment": env,
        "runs": [asdict(r) for r in session.runs],
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"samples: {json.dumps(counts)}")
    print(f"environment: {json.dumps(env)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
