"""The output layout of every `scripts/time_*.py`, run at tiny sizes.

A timing script's JSON is what a perf change commits as its before and after
numbers, so its keys are pinned here: the host line, each measurement's
per-round values and median, the script's own scalars, and the ratio key.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("time_*.py"))
# Per-size values that are plain numbers, not a measurement's summary.
SCALARS = {"time_persist.py": ("build_s", "events", "state_bytes"),
           "time_reads.py": ("build_s", "nodes"), "time_reconcile.py": ("mirrors_created",)}


def run_script(script: str, sizes: list[int], out: Path, rounds: int = 1):
    argv = [sys.executable, str(ROOT / "scripts" / script), "--label", "test",
            "--rounds", str(rounds), "--sizes", *map(str, sizes), "--out", str(out)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def timed_run(script: str, sizes: list[int], out: Path) -> dict:
    done = run_script(script, sizes, out)
    assert done.returncode == 0, done.stderr
    data = json.loads(out.read_text())
    assert isinstance(data["method"], str) and data["method"]
    run = data["runs"]["test"]
    assert json.loads(done.stdout) == run
    return run


def check_layout(script: str, run: dict, sizes: list[int]) -> None:
    assert isinstance(run["host"], str) and "CPUs" in run["host"]
    assert run["rounds"] == 1
    assert sorted(run["sizes"], key=int) == [str(n) for n in sizes]
    measured = None
    for entry in run["sizes"].values():
        for name in SCALARS[script]:
            assert isinstance(entry[name], (int, float)), (name, entry[name])
        names = {k for k, v in entry.items() if isinstance(v, dict)}
        assert measured in (None, names)
        measured = names
        assert set(entry) == names | set(SCALARS[script])
        for name in names:
            assert isinstance(entry[name]["median"], float)
            assert len(entry[name]["rounds"]) == 1
    assert measured
    large, before = sizes[-1], sizes[-2]
    assert [k for k in run if k.startswith("ratio_")] == [f"ratio_{large}_to_{before}"]
    ratios = run[f"ratio_{large}_to_{before}"]
    assert set(ratios) == measured
    for ratio in ratios.values():
        assert set(ratio) == {"median", "range", "rounds"}
        assert len(ratio["rounds"]) == 1 and len(ratio["range"]) == 2


def test_every_timing_script_is_covered():
    assert SCRIPTS == sorted(SCALARS)


@pytest.mark.parametrize("sizes", [[20, 30], [20, 30, 40]], ids=["two_sizes", "three_sizes"])
@pytest.mark.parametrize("script", SCRIPTS)
def test_layout(script, sizes, tmp_path):
    check_layout(script, timed_run(script, sizes, tmp_path / "out.json"), sizes)


@pytest.mark.parametrize("script", SCRIPTS)
def test_a_round_count_below_one_is_a_usage_error(script, tmp_path):
    done = run_script(script, [20, 30], tmp_path / "out.json", rounds=0)
    assert done.returncode == 2 and "--rounds must be at least 1" in done.stderr
    assert "Traceback" not in done.stderr and not (tmp_path / "out.json").exists()
