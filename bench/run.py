"""Run the mirrorplane benchmark.

    python3 bench/run.py --workload control-loop --seed 1 --seconds 45 --trace 0

Run from the repository root; the program is imported from ``src/`` as it
stands, with nothing installed.  ``--workload all`` (the default) runs each
workload in its own process, one after another.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced pass.  The exit code is 0 only
when every checked outcome matched the model.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("control-loop", "operator-cli", "data-plane")

# Per workload, where the gated metrics come from: the samples of p50_ms, the
# samples of tail_ms and its percentile (the highest with at least ten samples
# beyond it at the minimum pass count), and the named rate of rate_per_s.
GATED = {
    "control-loop": ("cycle_s", "cycle_s", 0.90, "heavy_events_per_s"),
    "operator-cli": ("read_s", "command_s", 0.90, "replay_cmds_per_s"),
    "data-plane": ("job_s", "job_s", 0.99, "decisions_per_s"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def details(name: str, outcome) -> dict[str, tuple[float, str, int]]:
    """Every named measurement of the workload: name -> (value, unit, samples)."""
    s, t = outcome.run.samples, outcome.run.totals

    def median(key, scale, unit):
        return statistics.median(s[key]) * scale, unit, len(s[key])

    def tail(key, q, scale, unit):
        return percentile(s[key], q) * scale, unit, len(s[key])

    out = {"setup_s": median("setup_s", 1, "s")}
    if name == "control-loop":
        out.update(
            converge_ms=median("converge_s", 1e3, "ms"),
            tick_p50_ms=median("tick_s", 1e3, "ms"),
            tick_p90_ms=tail("tick_s", 0.9, 1e3, "ms"),
            sync_p50_ms=median("sync_s", 1e3, "ms"),
            rotate_ms=median("rotate_s", 1e3, "ms"),
            heavy_events_per_s=(t["heavy_events"] / t["heavy_s"], "1/s", int(t["heavy_events"])),
        )
    elif name == "operator-cli":
        out.update(
            cli_read_p50_ms=median("read_s", 1e3, "ms"),
            cli_write_p50_ms=median("write_s", 1e3, "ms"),
            cli_p90_ms=tail("command_s", 0.9, 1e3, "ms"),
            replay_cmds_per_s=(t["replay_commands"] / t["replay_s"], "1/s",
                               int(t["replay_commands"])),
        )
    else:
        out.update(
            decisions_per_s=(t["decisions"] / sum(s["job_s"]), "1/s", int(t["decisions"])),
            job_p50_us=median("job_s", 1e6, "us"),
            job_p99_us=tail("job_s", 0.99, 1e6, "us"),
        )
    run = outcome.run
    out["failed_ratio"] = (run.failed / run.attempted, "ratio", run.attempted)
    return out


def end_to_end(name: str, outcome, named: dict) -> dict[str, tuple[float, str]]:
    """The gated metrics; each workload fills them from its own requests.

    p50_ms is the median steady control cycle (tick then reader sync), read
    command or job, and tail_ms the p90 cycle, p90 command of any kind or p99
    job.  rate_per_s is audit events per second of the converge and rotation
    ticks, replayed scenario commands per second, or decisions per second.
    """
    median_of, tail_of, q, rate = GATED[name]
    s = outcome.run.samples
    return {
        "setup_s": named["setup_s"][:2],
        "p50_ms": (statistics.median(s[median_of]) * 1e3, "ms"),
        "tail_ms": (percentile(s[tail_of], q) * 1e3, "ms"),
        "rate_per_s": named[rate][:2],
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


LAYER_UNITS = (("calls", "count"), ("self_ms", "ms"), ("_ratio", "ratio"), ("_pct", "%"),
               ("_bytes", "B"))


def layer_unit(metric: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS if metric.endswith(suffix)), "count")


def run_one(args) -> int:
    import workloads

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = workloads.run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    run = outcome.run
    for what in run.mismatches:
        print(f"mismatch: {what}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(outcome.pass_s)} "
          f"attempted={run.attempted} failed={run.failed} digest={outcome.digest}")
    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in outcome.layers.items()}
        print("# all loops are closed and single-threaded and nothing queues, "
              "so no layer has a wait time")
    else:
        named = details(args.workload, outcome)
        for label, (value, unit, count) in named.items():
            print(f"# {label} = {value:.6g} {unit} (n={count})")
        metrics = end_to_end(args.workload, outcome, named)
    if args.spans and outcome.tracer is not None:
        outcome.tracer.dump(args.spans)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, check=False).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write the traced pass's spans here as JSON lines")
    args = parser.parse_args()
    if not (ROOT / "src" / "mirrorplane" / "__init__.py").is_file():
        print(f"error: no mirrorplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
