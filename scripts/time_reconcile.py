"""Time the directory build, the first reconcile tick and a no-op tick.

Builds the benchmark's organization (``bench/org.py``: shuffled join order,
about 70 % human, 2 % underscore names) at 1k, 4k and 16k principals through
``bench/workloads.build_directory``.  In each of several rounds every size is
built afresh and timed three ways: the directory build, the first tick (which
creates every mirror) and the tick after it (which finds nothing to do).  Each
tick's report is checked against the generator's model, so a fast wrong tick
fails the run.  Each run is stored in the output file under a label, so two
source trees can be compared:

    python scripts/time_reconcile.py --src /path/to/other/checkout/src --label parent
    python scripts/time_reconcile.py --label change

Per label the output holds every round's time, the median over the rounds,
and the ratio of the largest size to the one before it in each round, with
its median and range.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1000, 4000, 16000)
PHASES = ("build_s", "first_tick_s", "noop_tick_s")


def timed(call):
    gc.collect()
    begin = time.perf_counter()
    result = call()
    return result, time.perf_counter() - begin


def one_round(principals: int) -> dict[str, float]:
    from workloads import Run, Scale, build_directory, check_tick

    run = Run()
    (world, model, _org), build_s = timed(
        lambda: build_directory(1, Scale(principals=principals, reserve=0))
    )
    first, first_s = timed(world.reconciler.reconcile_tick)
    check_tick(run, first, model.expect_tick())
    noop, noop_s = timed(world.reconciler.reconcile_tick)
    check_tick(run, noop, model.expect_tick())
    if run.failed or noop.has_changes:
        raise SystemExit(f"ticks at {principals} disagree with the model: {run.mismatches}")
    return {"build_s": build_s, "first_tick_s": first_s, "noop_tick_s": noop_s,
            "created": len(first.created)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="Source tree whose mirrorplane package is timed.")
    parser.add_argument("--label", required=True, help="Key of this run in the output file.")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_reconcile.json")
    args = parser.parse_args()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]

    rounds: dict[int, dict[str, list[float]]] = {n: {p: [] for p in PHASES} for n in args.sizes}
    created = {}
    for _ in range(args.rounds):
        for n in args.sizes:
            times = one_round(n)
            created[n] = times["created"]
            for phase in PHASES:
                rounds[n][phase].append(times[phase])

    sizes = {}
    for n in args.sizes:
        sizes[str(n)] = dict({"mirrors_created": created[n]}, **{
            phase: {"median": round(statistics.median(times), 4),
                    "rounds": [round(t, 4) for t in times]}
            for phase, times in rounds[n].items()
        })
    run = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "sizes": sizes,
    }
    if len(args.sizes) > 1:
        small, large = args.sizes[-2], args.sizes[-1]
        ratios = {}
        for phase in PHASES:
            per_round = [b / a for a, b in zip(rounds[small][phase], rounds[large][phase])]
            ratios[phase] = {"median": round(statistics.median(per_round), 1),
                             "range": [round(min(per_round), 1), round(max(per_round), 1)],
                             "rounds": [round(r, 1) for r in per_round]}
        run[f"ratio_{large}_to_{small}"] = ratios
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["method"] = (
        "rounds over the organization bench/org.py generates at seed 1 (reserve 0); each "
        "round builds every size afresh and times the directory build, the first tick and "
        "the no-op tick after it, once each, with gc.collect() before each"
    )
    data.setdefault("runs", {})[args.label] = dict(run, rounds=args.rounds)
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(data["runs"][args.label], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
