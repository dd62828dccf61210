"""Tests of the benchmark itself: the memory guard and a smoke run.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import footprint  # noqa: E402
import tracer  # noqa: E402

GIB = 2**30
TINY = {"implement": ["--modes", "4"], "orbit": ["--modes", "4"],
        "module": ["--modes", "2", "--generators", "2"]}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_and_units():
    spec = _spec()
    names = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", entry["name"])
            if "unit" in entry:
                assert re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", entry["unit"])
            names.append(entry["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload, modes, generators", [
    ("module", 6, 6),
    ("orbit", 16, 0),
    ("implement", 16, 0),
])
def test_guard_refuses_oversized_configurations(workload, modes, generators):
    with pytest.raises(footprint.FootprintError):
        footprint.check(workload, modes, generators, memory_bytes=8 * GIB)


@pytest.mark.parametrize("workload, modes, generators", [
    ("implement", 8, 0),
    ("orbit", 14, 0),
    ("module", 4, 4),
])
def test_guard_accepts_default_sizes(workload, modes, generators):
    assert footprint.check(workload, modes, generators, memory_bytes=8 * GIB) > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_end_to_end(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", *TINY[workload])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in [*expected.items(), ("error_rate", "ratio")]:
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}") for line in lines), name
    assert "  error_rate = 0 ratio" in lines


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_traced(workload, tmp_path):
    spans = tmp_path / "spans.tsv"
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1", "--spans", str(spans), *TINY[workload])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}") for line in lines), name
    for name in tracer.SPAN_NAMES:
        assert any(line.startswith(f"  {name}.self_s = ") for line in lines), name

    # each job's self times add up to its wall time
    rows = [line.split("\t") for line in spans.read_text().splitlines()[1:]]
    child = defaultdict(float)
    for job, sid, parent, name, start, end in rows:
        child[parent] += float(end) - float(start)
    own, wall = defaultdict(float), {}
    for job, sid, parent, name, start, end in rows:
        own[job] += float(end) - float(start) - child[sid]
        if name == "job":
            assert parent == "-1"
            wall[job] = float(end) - float(start)
    assert wall and set(own) == set(wall)
    for job, total in wall.items():
        assert own[job] == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_idle_wait_returns_in_an_idle_process():
    import worker

    assert worker._other_threads_ticks() is not None
    assert worker.wait_until_idle() < worker.IDLE_WAIT_MAX_S


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "implement", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
