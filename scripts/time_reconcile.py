"""Time the directory build, the first reconcile tick and a no-op tick.

Builds the benchmark's organization (``bench/org.py``: shuffled join order,
about 70 % human, 2 % underscore names) at 1k, 4k and 16k principals through
``bench/workloads.build_directory``.  In each of several rounds every size is
built afresh and timed three ways: the directory build, the first tick (which
creates every mirror) and the tick after it (which finds nothing to do).  Each
tick's report is checked against the generator's model, so a fast wrong tick
fails the run.  The flags, rounds and output file are ``scripts/timing.py``'s.
"""

from __future__ import annotations

import timing


def measure(principals: int) -> tuple[dict[str, float], dict]:
    from workloads import Run, Scale, build_directory, check_tick

    run = Run()
    (world, model, _org), build_s = timing.timed(
        lambda: build_directory(1, Scale(principals=principals, reserve=0))
    )
    first, first_s = timing.timed(world.reconciler.reconcile_tick)
    check_tick(run, first, model.expect_tick())
    noop, noop_s = timing.timed(world.reconciler.reconcile_tick)
    check_tick(run, noop, model.expect_tick())
    if run.failed or noop.has_changes:
        raise SystemExit(f"ticks at {principals} disagree with the model: {run.mismatches}")
    return ({"build_s": build_s, "first_tick_s": first_s, "noop_tick_s": noop_s},
            {"mirrors_created": len(first.created)})


if __name__ == "__main__":
    timing.main(
        __doc__, sizes=(1000, 4000, 16000), out="BENCH_reconcile.json", measure=measure,
        method=("rounds over the organization bench/org.py generates at seed 1 (reserve 0); each "
                "round builds every size afresh and times the directory build, the first tick and "
                "the no-op tick after it, once each, with gc.collect() before each"),
    )
