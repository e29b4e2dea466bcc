"""Time `verify`, `verify --converged` and `cloud tree` on the operator-cli world.

Builds the benchmark's operator-cli world at 1k, 2k and 4k principals (or at
the ``--sizes`` given) through ``bench/workloads.operator_cli_setup`` (buckets
and reserve scale with the principals, as in the 1k benchmark) and loads each
back from its state file; a build that disagrees with the generator's model
fails the run.  Then, in each of several rounds, it takes the median wall time
of a few calls of ``verify_world``, ``verify_world(..., True)`` and
``Cloud.render_tree`` on every size.  The flags, rounds and output file are
``scripts/timing.py``'s.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path

import timing

REPEATS = 9


def build(principals: int) -> tuple[object, dict]:
    from mirrorplane.world import World
    from workloads import Run, Scale, operator_cli_setup

    scale = Scale(principals=principals, reserve=principals // 10, buckets=principals // 4)
    run = Run()
    with tempfile.TemporaryDirectory() as workdir:
        state = Path(workdir) / "world.json"
        _, build_s = timing.timed(lambda: operator_cli_setup(1, scale, run, state))
        if run.failed:
            raise SystemExit(f"world build at {principals} disagrees with the model: {run.mismatches}")
        world = World.load(state)
    return world, {"build_s": round(build_s, 2), "nodes": len(world.cloud.nodes())}


def measure(built: tuple[object, dict]) -> tuple[dict[str, float], dict]:
    from mirrorplane.verify import verify_world

    world, info = built
    reads = {
        "verify_s": lambda: verify_world(world),
        "verify_converged_s": lambda: verify_world(world, True),
        "render_tree_s": world.cloud.render_tree,
    }
    return {name: statistics.median(timing.timed(read)[1] for _ in range(REPEATS))
            for name, read in reads.items()}, info


if __name__ == "__main__":
    timing.main(
        __doc__, sizes=(1000, 2000, 4000), out="BENCH_reads.json", prepare=build, measure=measure,
        method=("rounds over the worlds operator_cli_setup writes at seed 1, loaded back from "
                "their state files; each round times every size, each time the median of "
                f"{REPEATS} calls with gc.collect() before each call"),
    )
