"""Tests of the benchmark itself: generator determinism, output checks,
exact repetition of the traced layer counts, and the metric list.

Run from the repository root with ``python3 -m pytest perfbench``. Inputs
are generated at reduced sizes so the suite takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from checks import check_outputs, read_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "TSV_PAIRS", 400)
    monkeypatch.setattr(workloads, "ARTICLE_LINES", 80)
    monkeypatch.setattr(workloads, "DENSE_PAIRS", 120)
    monkeypatch.setattr(workloads, "DENSE_PADDING", 300)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, small_sizes, name):
    a = workloads.generate(name, 7, tmp_path / "a")
    b = workloads.generate(name, 7, tmp_path / "b")
    c = workloads.generate(name, 8, tmp_path / "c")
    assert _files(a.root) == _files(b.root)
    assert (a.argv, a.setup_argv, a.input_pairs, a.expected) == (b.argv, b.setup_argv, b.input_pairs, b.expected)
    assert _files(a.root) != _files(c.root)


def test_tsv_workloads_share_their_input(tmp_path, small_sizes):
    serial = workloads.generate("tsv-serial", 3, tmp_path / "serial")
    sharded = workloads.generate("tsv-sharded", 3, tmp_path / "sharded")
    assert _files(serial.root) == _files(sharded.root)
    assert sharded.reference_argv[sharded.reference_argv.index("--workers") + 1] == "1"
    assert sharded.argv[sharded.argv.index("--workers") + 1] == "2"


_TRACE_ONE = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer, traced_mine
tracer = Tracer()
argv = json.loads(sys.argv[4])
code = traced_mine(tracer, argv, Path(sys.argv[3]))
calls = {name: calls for name, (calls, _, _) in tracer.layer_times().items()}
print(json.dumps({"code": code, "calls": calls, "counts": dict(tracer.counts)}))
"""


def _traced_counts(wl) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _TRACE_ONE, str(HERE), str(ROOT / "src"), str(wl.root), json.dumps(wl.argv)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_counts_repeat_and_outputs_pass(tmp_path, small_sizes, name):
    wl = workloads.generate(name, 11, tmp_path / "w")
    first = _traced_counts(wl)
    first_outputs = read_outputs(wl.root / "out")
    second = _traced_counts(wl)
    assert first["code"] == 0
    assert first == second
    assert check_outputs(read_outputs(wl.root / "out"), wl.input_pairs, wl.expected, first_outputs) == []
    # Each workload exercises the layer it exists for.
    layer = {
        "tsv-serial": "discourse.detect_explicit",
        "tsv-sharded": "cli.pool",
        "article-align": "similarity.cosine_matrix",
        "paraphrase-dense": "mining.verify_candidate",
    }[name]
    assert first["calls"].get(layer, 0) > 0


def test_checks_reject_wrong_outputs(tmp_path, small_sizes):
    wl = workloads.generate("paraphrase-dense", 5, tmp_path / "w")
    _traced_counts(wl)
    outputs = read_outputs(wl.root / "out")
    assert check_outputs(outputs, wl.input_pairs, wl.expected) == []
    assert check_outputs(outputs, wl.input_pairs + 1, wl.expected)
    expected = dict(wl.expected, altlexes={**wl.expected["altlexes"], ("zzz", "Cause"): 1})
    assert check_outputs(outputs, wl.input_pairs, expected)
    bad_pct = {**outputs, "cases.tsv": outputs["cases.tsv"].replace(b"\t0.00\n", b"\t0.01\n", 1)}
    assert check_outputs(bad_pct, wl.input_pairs, wl.expected)
    other = {**outputs, "altlexes.tsv": outputs["altlexes.tsv"] + b"\n"}
    assert check_outputs(outputs, wl.input_pairs, wl.expected, reference=other)


def test_metric_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tsv-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_failed_runs_give_no_timings():
    failed = run.CliRun("timed", 0.01, 0.01, 1.0, 1, None, ("exit code 1",))
    metrics = run.end_to_end([failed], [failed])
    assert metrics == {name: 0.0 for name in run.END_TO_END}


def test_pool_time_leaves_out_trace_pickling():
    tracer = run.Tracer()
    tracer.spans = [("cli.main", 0.0, 10.0, -1), ("cli.pool", 1.0, 5.0, 0), ("trace.pickle", 1.0, 2.0, 1)]
    ok = run.CliRun("traced", 10.0, 0.0, 0.0, 0, 1)
    assert run.per_layer(tracer, [], [ok])["cli.pool.wall_s"] == pytest.approx(3.0)
