"""Shared fixtures: the worked-example sentence pairs, small paraphrase
resource files used across the suite, and a harness that runs the command
line in a child process."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from altlex_miner import SentencePair, cli, load_inventory, load_ppdb, load_synonyms, tokenize

WOODCUTS_COMPLEX = (
    "These works he produced and published himself, whilst his much larger "
    "woodcuts were mostly commissioned work."
)
WOODCUTS_SIMPLE = (
    "He created and published his works himself, but his larger works were "
    "mostly commissioned work to be sold."
)
BROADCAST_COMPLEX = "When the show was broadcast, Rupert Boneham won the million dollars."
BROADCAST_SIMPLE = "Rupert Boneham won the million dollars."
LANDMARK_COMPLEX = (
    "It's a very special place because this site, this area, has been tied to "
    "the history and life of African-Americans since about the early 1800s."
)
LANDMARK_SIMPLE = "It has been tied to the history and life of African-Americans since about the early 1800s."
LANDMARK_SIMPLE_SUBSTITUTED = (
    "It has been tied to the history and life of African-Americans because about the early 1800s."
)
COMICS_COMPLEX = (
    "Today, the comic arm of the company flourishes despite no longer having "
    "its own universe of super powered characters."
)
COMICS_SIMPLE = (
    "Today, the company does very well even though they do not have their own "
    "universe of super powered characters."
)
COMICS_COMPLEX_SUBSTITUTED = (
    "Today, the comic arm of the company flourishes though no longer having "
    "its own universe of super powered characters."
)
DRONES_COMPLEX = (
    "Now they have drones in 15 states, including California and Texas. Before "
    "they started the business, the two covered fields on foot or in vehicles."
)
DRONES_SIMPLE = (
    "Now they have drones in 15 states, including California and Texas. Fiene "
    "used to check farm fields on foot or with vehicles."
)

# Characters ``str.splitlines`` breaks a line at that end no line in a file
# read as text: every reader must keep them inside their line.
UNICODE_LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\f", "\v", "\x1c", "\x1d", "\x1e"]


@pytest.fixture(scope="session")
def inventory():
    return load_inventory()


def _pair(complex_raw, simple_raw, source_id):
    return SentencePair(
        complex=tokenize(complex_raw), simple=tokenize(simple_raw), source_id=source_id
    )


@pytest.fixture(scope="session")
def woodcuts_pair():
    return _pair(WOODCUTS_COMPLEX, WOODCUTS_SIMPLE, "woodcuts")


@pytest.fixture(scope="session")
def broadcast_pair():
    return _pair(BROADCAST_COMPLEX, BROADCAST_SIMPLE, "broadcast")


@pytest.fixture(scope="session")
def landmark_pair():
    return _pair(LANDMARK_COMPLEX, LANDMARK_SIMPLE, "landmark")


@pytest.fixture(scope="session")
def comics_pair():
    return _pair(COMICS_COMPLEX, COMICS_SIMPLE, "comics")


@pytest.fixture(scope="session")
def drones_pair():
    return _pair(DRONES_COMPLEX, DRONES_SIMPLE, "drones")


@pytest.fixture(scope="session")
def worked_example_pairs(woodcuts_pair, broadcast_pair, landmark_pair, comics_pair):
    return [woodcuts_pair, broadcast_pair, landmark_pair, comics_pair]


PPDB_FIXTURE_LINES = [
    "[X] ||| despite ||| though ||| PPDB2.0Score=3.5 p(e|f)=0.1 ||| 0-0 ||| Equivalence",
    "[X] ||| before ||| used to ||| PPDB2.0Score=2.1 p(e|f)=0.2 ||| 0-0 ||| Equivalence",
]
SYNONYM_FIXTURE_LINES = ["because\tsince"]


@pytest.fixture(scope="session")
def ppdb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("resources") / "ppdb_fixture.txt"
    path.write_text("\n".join(PPDB_FIXTURE_LINES) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def synonym_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("resources") / "synonyms.tsv"
    path.write_text("\n".join(SYNONYM_FIXTURE_LINES) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fixture_stores(ppdb_file, synonym_file):
    return [load_ppdb(ppdb_file), load_synonyms(synonym_file)]


@pytest.fixture
def pool_starts(monkeypatch):
    """The process count of each pool that ``mine`` starts, on a machine
    taken to have two CPUs, so that an input of two tasks or more starts one
    also where the host has one CPU."""
    from altlex_miner import cli

    starts = []
    pool = cli.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        starts.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    return starts


def cli_env():
    """The environment of a child process with this package on its path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


# The console script on a machine taken to have ``cpus`` CPUs, so that a run
# of that many tasks or more starts a pool of them also where the host has
# fewer. SIGINT raises KeyboardInterrupt, as under a terminal, even if it
# was ignored here.
_ENTRYPOINT_ON_CPUS = (
    "import os, signal; os.cpu_count = lambda: {cpus}; signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from altlex_miner import cli; cli.entrypoint()"
)
# Seconds a child run, or a write to its input, may take.
_DEADLINE = 10
# SIGHUP, SIGINT and SIGTERM as a signal mask of /proc/PID/status.
STOP_SIGNALS_MASK = sum(1 << (s - 1) for s in (signal.SIGHUP, signal.SIGINT, signal.SIGTERM))


def _proc_status(path: Path) -> dict | None:
    """The fields of a /proc/.../status file, or None once its process or thread has exited."""
    try:
        return dict(line.split(":\t", 1) for line in path.read_text().splitlines() if ":\t" in line)
    except OSError:
        return None


@dataclass
class CliChild:
    """An ``altlex-miner`` child process, leader of its own session, whose
    stdout and stderr go to files: a worker left behind would hold a pipe
    open, and reading it to EOF would block."""

    process: subprocess.Popen
    stdout: Path
    stderr: Path

    def wait(self) -> int:
        return self.process.wait(timeout=_DEADLINE)

    def group_alive(self) -> bool:
        """Whether any process of the child's group is left."""
        try:
            os.killpg(self.process.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def wait_for_workers(self, count: int) -> None:
        """Wait until ``count`` children of the child ignore SIGHUP, SIGINT
        and SIGTERM, as a pool worker does once its initializer has run, and
        the child's main thread blocks none of them, as once it has handed
        out the pool's first tasks."""
        deadline = time.monotonic() + _DEADLINE
        while (
            sum(map(self._is_a_worker_ignoring_stop_signals, Path("/proc").glob("[0-9]*/status"))) < count
            or self.blocked_signals().get(self.process.pid, 0) & STOP_SIGNALS_MASK
        ):
            assert time.monotonic() < deadline and self.process.poll() is None, self.stderr.read_text()
            time.sleep(0.01)

    def _is_a_worker_ignoring_stop_signals(self, path: Path) -> bool:
        status = _proc_status(path)
        ignored = status is not None and int(status["SigIgn"], 16) & STOP_SIGNALS_MASK == STOP_SIGNALS_MASK
        return ignored and int(status["PPid"]) == self.process.pid

    def blocked_signals(self) -> dict[int, int]:
        """The blocked-signal mask of each thread of the child, by thread id."""
        paths = Path(f"/proc/{self.process.pid}/task").glob("*/status")
        return {int(path.parent.name): int(status["SigBlk"], 16) for path in paths if (status := _proc_status(path))}


@pytest.fixture
def cli_child(tmp_path):
    """``start(argv, name="child", limits=(), fifo=None, cpus=2)``: run
    ``cli.entrypoint`` with ``argv`` in a child process (see ``CliChild``)
    that takes the machine to have ``cpus`` CPUs. ``limits`` are
    ``(resource, value)`` pairs of ``setrlimit`` for the child alone. With
    ``fifo=(path, data)``, ``path`` is made a FIFO, ``data`` is written to it
    and the FIFO is held open, so the child then waits in its read. Teardown
    kills each child's process group."""
    started, fifos = [], []

    def start(argv, name="child", limits=(), fifo=None, cpus=2):
        if fifo is not None:
            os.mkfifo(fifo[0])
            # Read-write, so that opening blocks on no reader, and without
            # blocking, so that a child that stops reading cannot hang the write.
            fifos.append(os.open(fifo[0], os.O_RDWR | os.O_NONBLOCK))
        out, err = tmp_path / f"{name}.out", tmp_path / f"{name}.err"

        def set_limits():
            import resource

            for kind, value in limits:
                resource.setrlimit(kind, (value, value))

        with out.open("w") as stdout, err.open("w") as stderr:
            process = subprocess.Popen(
                [sys.executable, "-c", _ENTRYPOINT_ON_CPUS.format(cpus=cpus), *map(str, argv)],
                env=cli_env(),
                stdout=stdout,
                stderr=stderr,
                start_new_session=True,
                preexec_fn=set_limits if limits else None,
            )
        started.append(process)
        child = CliChild(process, out, err)
        if fifo is not None:
            data, deadline = memoryview(fifo[1]), time.monotonic() + _DEADLINE
            while data:
                try:
                    data = data[os.write(fifos[-1], data) :]
                except BlockingIOError:
                    assert time.monotonic() < deadline and process.poll() is None, err.read_text()
                    time.sleep(0.01)
        return child

    yield start
    for process in started:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=_DEADLINE)
    for fd in fifos:
        os.close(fd)
