"""Tests of the benchmark itself, on scaled-down passes.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorplane.cli as cli_module
import run as runner
import workloads
from mirrorplane.authz import AuthzEngine
from mirrorplane.cloud import Cloud
from mirrorplane.world import World
from tracing import LAYER_FUNCTIONS, Span, Tracer, instrument, self_times

BENCH = Path(runner.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = workloads.Scale(principals=60, reserve=20, buckets=12, cycles=5, jobs=60,
                        big_group_size=20, stale_tokens=4, min_passes=1)


def small_run(tmp_path, name, seed=3, trace=False):
    workdir = tmp_path / f"{name}-{seed}-{int(trace)}"
    workdir.mkdir()
    return workloads.run_workload(name, seed, 0, trace, workdir, scale=SMALL)


@pytest.mark.parametrize("name", runner.WORKLOADS)
def test_same_seed_same_digest_and_another_seed_differs(tmp_path, name):
    first = small_run(tmp_path, name, seed=3)
    again = small_run(tmp_path, name, seed=3, trace=True)
    other = small_run(tmp_path, name, seed=4)
    assert first.run.failed == again.run.failed == other.run.failed == 0
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_digest_does_not_depend_on_the_hash_seed(tmp_path):
    code = (
        "import pathlib, sys, workloads, test_perfbench as t;"
        "o = workloads.run_workload('data-plane', 3, 0, False, pathlib.Path(sys.argv[1]),"
        " scale=t.SMALL); print(o.digest)"
    )
    env = {"PYTHONPATH": f"{BENCH.parent / 'src'}:{BENCH}:{BENCH / 'tests'}"}
    digests = set()
    for hash_seed in ("1", "2"):
        workdir = tmp_path / hash_seed
        workdir.mkdir()
        proc = subprocess.run([sys.executable, "-c", code, str(workdir)], capture_output=True,
                              text=True, timeout=120, env={**env, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert digests == {small_run(tmp_path, "data-plane").digest}


@pytest.mark.parametrize("name", runner.WORKLOADS)
def test_traced_pass_exercises_every_layer_function(tmp_path, name):
    layers = small_run(tmp_path, name, trace=True).layers
    assert [k for k in layers if k.endswith(".calls") and layers[k] == 0] == []
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])


def originals():
    return {(owner, attr): owner.__dict__[attr] for _, owner, attr in LAYER_FUNCTIONS}


def test_wrappers_exist_only_during_the_traced_passes(tmp_path, monkeypatch):
    before = originals()
    original = Cloud.__dict__["active_mirror_for"]
    seen = []
    real_pass = workloads.PASSES["control-loop"]

    def spy(*args):
        seen.append(Cloud.__dict__["active_mirror_for"] is original)
        return real_pass(*args)

    monkeypatch.setitem(workloads.PASSES, "control-loop", spy)
    small_run(tmp_path, "control-loop", trace=True)
    assert seen == [True, False] * workloads.TRACE_PAIRS
    assert originals() == before


def test_instrument_restores_originals_after_an_exception():
    before = originals()
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            assert World.__dict__["load"] is not before[(World, "load")]
            assert cli_module.dispatch is not before[(cli_module, "dispatch")]
            raise RuntimeError("boom")
    assert originals() == before


def test_self_time_subtracts_the_interval_children_cover():
    spans = [
        Span("root", 1, None, 0, 100),
        Span("a", 2, 1, 10, 30),
        Span("b", 3, 1, 40, 70),
        Span("g", 4, 3, 45, 65),
        Span("late", 5, 1, 90, 120),  # clipped to the parent's end
    ]
    assert self_times(spans) == {1: 100 - 20 - 30 - 10, 2: 20, 3: 10, 4: 20, 5: 30}


def test_spans_stay_in_memory_until_dumped(tmp_path):
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda f: f() + f())
    inner = tracer.wrap("inner", lambda: 1)
    path = tmp_path / "spans.jsonl"
    assert outer(inner) == 2
    assert [s.name for s in tracer.spans] == ["inner", "inner", "outer"]
    assert not path.exists()
    tracer.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    parent = next(r["span_id"] for r in rows if r["name"] == "outer")
    assert [r["parent_id"] for r in rows] == [parent, parent, None]


def test_traced_run_dumps_spans_once(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.SCALES, "data-plane", SMALL)
    monkeypatch.setattr(runner, "ROOT", tmp_path)
    dumps = []
    real_dump = Tracer.dump
    monkeypatch.setattr(Tracer, "dump", lambda self, path: dumps.append(path) or real_dump(self, path))
    spans = tmp_path / "spans.jsonl"
    args = argparse.Namespace(workload="data-plane", seed=2, seconds=0, trace=1, spans=spans)
    assert runner.run_one(args) == 0
    assert dumps == [spans]
    assert len(spans.read_text().splitlines()) > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_carries_every_declared_metric(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.SCALES, "operator-cli", SMALL)
    monkeypatch.setattr(runner, "ROOT", tmp_path)
    args = argparse.Namespace(workload="operator-cli", seed=5, seconds=0, trace=trace, spans=None)
    assert runner.run_one(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert not (tmp_path / ".bench_tmp").exists()


def test_a_wrong_decision_is_counted_and_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(AuthzEngine, "_in_reader_group", lambda self, bucket, subject: False)
    outcome = small_run(tmp_path, "data-plane")
    assert outcome.run.failed > 0
    assert any("decisions differ" in m for m in outcome.run.mismatches)


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "control-loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
