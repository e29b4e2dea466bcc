"""Time the state file's load and save, eight CLI commands and a scenario on the operator-cli world.

Builds the benchmark's operator-cli world at 1k, 4k and 16k principals (or at
the ``--sizes`` given) through ``bench/workloads.operator_cli_setup`` (buckets
and reserve scale with the principals, as in the 1k benchmark), which writes
the state file and its audit sidecar; a build that disagrees with the
generator's model fails the run.  Then, in each of several rounds, it times on
every size, once each: ``World.load`` of the state file, ``World.save`` of the
world just loaded to a second file, which must hold the state file's bytes,
and the in-process CLI commands ``clock show``, ``dir show`` of the first
bucket's owner, ``cloud show`` of that owner's active mirror, ``clock advance
1m``, ``reconcile --once`` (a no-op tick), ``report last``, ``dir add-user`` of
a new headless user and ``readers join`` of that user to the first bucket's
reader group on the state file, each of which must exit 0; the user must then
be in the directory and that group loaded back.  ``dir show`` and ``cloud
show`` are the benchmark's two reads on either side of the operator-cli
workload's median read: the first decodes the directory alone, the second the
cloud alone, and neither reads the audit.  Last, it times one ``scenario run``
of the benchmark's replay mix (``clock show``, ``dir show``, ``cloud show``,
``report last``, ``clock advance 1m``, ``readers join`` of the new user to the
last bucket's reader group, ``authz token`` for that bucket's owner and
``authz check`` of the token on the bucket), every entry of which must be
``ok``.  Then the state file's ``directory``, ``cloud`` and ``vault`` lines must
equal the re-encoding of a fully decoded reload, or the run fails: a save
writes a store with no mutation back as loaded.  Last, it times ``state
import`` into a second state file of a copy of the state file
(``import_working_s``) and of its ``state export --reveal-secrets`` output
(``import_export_s``); each must write the state file's bytes and its sidecar's.
The writes change the state file, so each round starts two minutes, one tick,
one user and one token later.
The flags, rounds and output file are ``scripts/timing.py``'s.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path

import timing

COMMANDS = {
    "clock_show_s": ["clock", "show"],
    "dir_show_s": ["dir", "show", "{owner}"],  # filled in for each world
    "cloud_show_s": ["cloud", "show", "{email}"],
    "clock_advance_s": ["clock", "advance", "1m"],
    "reconcile_once_s": ["reconcile", "--once"],
    "report_last_s": ["report", "last"],
}
USERS = (f"timed-user-{n}" for n in itertools.count(1))


def build(principals: int) -> tuple[tempfile.TemporaryDirectory, Path, dict, list[str]]:
    from mirrorplane.world import World
    from workloads import Run, Scale, operator_cli_setup

    scale = Scale(principals=principals, reserve=principals // 10, buckets=principals // 4)
    run = Run()
    workdir = tempfile.TemporaryDirectory()  # removed when the run ends
    state = Path(workdir.name) / "world.json"
    _, build_s = timing.timed(lambda: operator_cli_setup(1, scale, run, state))
    if run.failed:
        raise SystemExit(f"world build at {principals} disagrees with the model: {run.mismatches}")
    world = World.load(state)
    info = {"build_s": round(build_s, 2), "events": len(world.audit),
            "state_bytes": state.stat().st_size}
    return workdir, state, info, [pair.bucket_id for pair in world.onboarder.pairs()]


def replay_script(state: Path, bucket: str, user: str) -> list[str]:
    """The replay mix on ``bucket`` and its owner, with the round's new ``user`` as the reader."""
    from mirrorplane import PrincipalKind
    from mirrorplane.onboarder import principal_for_bucket
    from mirrorplane.world import World

    world = World.load(state)
    owner = principal_for_bucket(bucket)
    email = world.cloud.active_mirror_for(owner)
    human = world.directory.principal(owner).kind is PrincipalKind.HUMAN
    caller = f"workspace:{owner}" if human else owner
    return ["clock show", f"dir show {owner}", f"cloud show {email}", "report last",
            "clock advance 1m", f"readers join {bucket} {user}",
            f"authz token --as {caller} {email}",
            f"authz check {world.tokens.next_id()} {bucket} read"]


def check_written_back(state: Path) -> None:
    """Fail unless the audited stores' lines are what a fully decoded reload encodes."""
    from mirrorplane.world import World, compact_json

    text = state.read_text(encoding="utf-8")
    lines = dict(line.split(":", 1) for line in text.split("\n") if line.startswith('"'))
    world = World.load(state).decode()
    for key in ("directory", "cloud", "vault"):
        if lines[f'"{key}"'][:-1] != compact_json(getattr(world, key).to_dict()):
            raise SystemExit(f"the {key} line of {state} is not its store's encoding")


def measure(built: tuple[tempfile.TemporaryDirectory, Path, dict, list[str]]
            ) -> tuple[dict[str, float], dict]:
    from mirrorplane.onboarder import ldap_reader_group, principal_for_bucket
    from mirrorplane.world import World
    from workloads import run_cli

    _, state, info, buckets = built
    bucket = buckets[0]
    world, load_s = timing.timed(lambda: World.load(state))
    saved = state.with_name("saved.json")
    _, save_s = timing.timed(lambda: world.save(saved))
    if saved.read_bytes() != state.read_bytes():
        raise SystemExit(f"World.save of the world loaded from {state} changed its bytes")
    times = {"load_s": load_s, "save_s": save_s}
    owner = principal_for_bucket(bucket)
    reads = {"owner": owner, "email": world.cloud.active_mirror_for(owner)}
    user = next(USERS)
    writes = {"dir_add_user_s": ["dir", "add-user", user, "--kind", "headless"],
              "readers_join_s": ["readers", "join", bucket, user]}
    for name, argv in {**COMMANDS, **writes}.items():
        argv = [arg.format(**reads) for arg in argv]
        (code, out), times[name] = timing.timed(lambda: run_cli(state, argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}: {out}")
    directory = World.load(state).directory
    if user not in directory.group(ldap_reader_group(bucket)).members:
        raise SystemExit(f"readers join {bucket} {user} exited 0, but {state} does not hold it")

    script, transcript = state.with_name("replay.txt"), state.with_name("replay.json")
    lines = replay_script(state, buckets[-1], user)
    script.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    argv = ["scenario", "run", str(script), "--strict", "--transcript", str(transcript)]
    (code, out), times["scenario_s"] = timing.timed(lambda: run_cli(state, argv))
    entries = json.loads(transcript.read_text(encoding="utf-8"))["entries"]
    if code != 0 or [entry["status"] for entry in entries] != ["ok"] * len(lines):
        raise SystemExit(f"scenario run exited {code}: {out}")
    check_written_back(state)

    copy, export = state.with_name("copy.json"), state.with_name("export.json")
    copy.write_bytes(state.read_bytes())
    run_cli(state, ["state", "export", "--reveal-secrets", "-o", str(export)])
    imported = state.with_name("imported.json")
    for name, source in (("import_working_s", copy), ("import_export_s", export)):
        argv = ["state", "import", str(source)]
        (code, out), times[name] = timing.timed(lambda: run_cli(imported, argv))
        sidecars = {Path(f"{path}.audit.jsonl").read_bytes() for path in (state, imported)}
        if code != 0 or imported.read_bytes() != state.read_bytes() or len(sidecars) != 1:
            raise SystemExit(f"state import {source} exited {code} or wrote another world: {out}")
    return times, info


if __name__ == "__main__":
    timing.main(
        __doc__, sizes=(1000, 4000, 16000), out="BENCH_persist.json", prepare=build,
        measure=measure,
        method=("rounds over the worlds operator_cli_setup writes at seed 1 with their sidecars; "
                "each round times, on every size and once each with gc.collect() before each, "
                "World.load, World.save of the loaded world to another file, and the in-process "
                "CLI commands clock show, dir show of the first bucket's owner, cloud show of its "
                "active mirror, clock advance 1m, reconcile --once, report last, dir "
                "add-user of a new headless user and readers join of that user on the state file, "
                "then one scenario run of the benchmark's replay mix (scenario_s); the directory, "
                "cloud and vault lines must then equal a fully decoded reload's encoding; last, "
                "state import into another state file of a copy of the state file "
                "(import_working_s) and of its state export --reveal-secrets output "
                "(import_export_s), each of which must write the state file's and sidecar's bytes"),
    )
