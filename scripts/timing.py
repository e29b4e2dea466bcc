"""The timing protocol every ``scripts/time_*.py`` shares.

A timing script passes ``main`` its docstring, its default sizes, output file
and method text, and its ``measure`` function (and ``prepare``, when a size is
set up once for all rounds).  ``main`` parses ``--src``, ``--label``,
``--rounds``, ``--sizes`` and ``--out``, puts ``--src`` and ``bench/`` on
``sys.path``, and in each round measures every size in turn, so the sizes of
one round share the state of the host.  Each run is stored in the output file
under its label, so two source trees can be compared:

    python scripts/time_<topic>.py --src /path/to/other/checkout/src --label parent
    python scripts/time_<topic>.py --label change

Per label the output holds the host, the number of rounds, every round's value
of each measurement with their median, and the ratio of the largest size to
the one before it in each round, with its median and range.
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
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent


def timed(call: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``call`` after a ``gc.collect()``; return its result and wall time."""
    gc.collect()
    begin = time.perf_counter()
    result = call()
    return result, time.perf_counter() - begin


def summary(values: list[float], digits: int) -> dict:
    return {"median": round(statistics.median(values), digits),
            "rounds": [round(v, digits) for v in values]}


def main(doc: str, *, sizes: tuple[int, ...], out: str, method: str,
         measure: Callable[[Any], tuple[dict[str, float], dict[str, Any]]],
         prepare: Callable[[int], Any] = lambda n: n) -> None:
    """Time ``measure(prepare(n))`` for every size in every round.

    ``measure`` returns one round's named times in seconds and the size's
    scalars, which are stored as they are.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="Source tree whose mirrorplane package is timed.")
    parser.add_argument("--label", required=True, help="Key of this run in the output file.")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(sizes))
    parser.add_argument("--out", type=Path, default=ROOT / out)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]

    prepared = {n: prepare(n) for n in args.sizes}
    times: dict[int, dict[str, list[float]]] = {n: {} for n in args.sizes}
    scalars: dict[int, dict[str, Any]] = {}
    for _ in range(args.rounds):
        for n in args.sizes:
            got, scalars[n] = measure(prepared[n])
            for name, seconds in got.items():
                times[n].setdefault(name, []).append(seconds)

    run: dict[str, Any] = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "rounds": args.rounds,
        "sizes": {str(n): dict(scalars[n], **{name: summary(values, 4)
                                               for name, values in times[n].items()})
                  for n in args.sizes},
    }
    if len(args.sizes) > 1:
        before, large = args.sizes[-2:]
        ratios = {}
        for name in times[large]:
            per_round = [b / a for a, b in zip(times[before][name], times[large][name])]
            ratios[name] = dict(summary(per_round, 1),
                                range=[round(min(per_round), 1), round(max(per_round), 1)])
        run[f"ratio_{large}_to_{before}"] = ratios
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["method"] = method
    data.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(json.dumps(run, indent=2, sort_keys=True))
