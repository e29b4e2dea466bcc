"""Time `verify`, `verify --converged` and `cloud tree` on the operator-cli world.

Builds the benchmark's operator-cli world at 1k, 2k and 4k principals (or at
the ``--sizes`` given) through ``bench/workloads.operator_cli_setup`` (buckets
and reserve scale with the principals, as in the 1k benchmark) and loads each
back from its state file.
Then, in each of several rounds, it takes the median wall time of a few calls
of ``verify_world``, ``verify_world(..., True)`` and ``Cloud.render_tree`` on
every size, so the sizes of one round share the state of the host.  Each run
is stored in the output file under a label, so two source trees can be
compared:

    python scripts/time_reads.py --src /path/to/other/checkout/src --label parent
    python scripts/time_reads.py --label change

Per label the output holds every round's median, the median over the rounds,
and the ratio of the largest size to the smallest in each round, with its
median and range.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1000, 2000, 4000)
READS = ("verify_s", "verify_converged_s", "render_tree_s")
REPEATS = 9


def build(principals: int) -> tuple[object, dict]:
    from mirrorplane.world import World
    from workloads import Run, Scale, operator_cli_setup

    scale = Scale(principals=principals, reserve=principals // 10, buckets=principals // 4)
    run = Run()
    with tempfile.TemporaryDirectory() as workdir:
        state = Path(workdir) / "world.json"
        begin = time.perf_counter()
        operator_cli_setup(1, scale, run, state)
        build_s = time.perf_counter() - begin
        if run.failed:
            raise SystemExit(f"world build at {principals} disagrees with the model: {run.mismatches}")
        world = World.load(state)
    return world, {"build_s": round(build_s, 2), "nodes": len(world.cloud.nodes())}


def median_call(read) -> float:
    samples = []
    for _ in range(REPEATS):
        gc.collect()
        begin = time.perf_counter()
        read()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="Source tree whose mirrorplane package is timed.")
    parser.add_argument("--label", required=True, help="Key of this run in the output file.")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_reads.json")
    args = parser.parse_args()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    from mirrorplane.verify import verify_world

    built = {n: build(n) for n in args.sizes}
    rounds: dict[int, dict[str, list[float]]] = {n: {r: [] for r in READS} for n in args.sizes}
    for _ in range(args.rounds):
        for n, (world, _info) in built.items():
            reads = {
                "verify_s": lambda: verify_world(world),
                "verify_converged_s": lambda: verify_world(world, True),
                "render_tree_s": world.cloud.render_tree,
            }
            for name in READS:
                rounds[n][name].append(median_call(reads[name]))

    sizes = {}
    for n, (_world, info) in built.items():
        sizes[str(n)] = dict(info, **{
            name: {"median": round(statistics.median(times), 4),
                   "rounds": [round(t, 4) for t in times]}
            for name, times in rounds[n].items()
        })
    first, last = args.sizes[0], args.sizes[-1]
    ratios = {}
    for name in READS:
        per_round = [b / a for a, b in zip(rounds[first][name], rounds[last][name])]
        ratios[name] = {"median": round(statistics.median(per_round), 1),
                        "range": [round(min(per_round), 1), round(max(per_round), 1)],
                        "rounds": [round(r, 1) for r in per_round]}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["method"] = (
        f"{args.rounds} rounds over the worlds operator_cli_setup writes at seed 1, loaded back "
        f"from their state files; each round times every size, each time the median of "
        f"{REPEATS} calls with gc.collect() before each call"
    )
    data.setdefault("runs", {})[args.label] = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "sizes": sizes,
        f"ratio_{last}_to_{first}": ratios,
    }
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data["runs"][args.label], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
