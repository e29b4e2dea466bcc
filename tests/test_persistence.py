"""Crash-safe state writes and the append-only audit sidecar."""

import contextlib
import gc
import io
import json
import os
import shutil
import stat
import threading
import types
import weakref
from pathlib import Path

import pytest

from mirrorplane import AccessAction, DecisionReason, PrincipalKind, audit, cli
from mirrorplane.cli import Session, dispatch, main
from mirrorplane.cloud import AccountStatus
from mirrorplane.codec import encode
from mirrorplane.directory import Directory
from mirrorplane.errors import SchemaError
from mirrorplane.onboarder import cloud_reader_group
from mirrorplane.world import _STORES, World, _spans, compact_json

import oracles
from conftest import SAP, mirror


@pytest.fixture
def statefile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["init", "--seed", "42"]) == 0
    assert main(["dir", "add-group", "mirror-account-users"]) == 0
    return tmp_path / "world.json"


def test_failed_save_keeps_previous_state_file(statefile, monkeypatch):
    before = statefile.read_bytes()
    world = World.load(statefile)
    world.directory.add_group("never-saved")

    def crash(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        world.save(statefile)
    monkeypatch.undo()
    assert statefile.read_bytes() == before
    assert not World.load(statefile).directory.has_group("never-saved")
    assert sorted(p.name for p in statefile.parent.iterdir()) == [
        "world.json", "world.json.audit.jsonl",
    ]


def test_sidecar_ahead_of_state_is_refused(statefile, capsys):
    sidecar = Path(f"{statefile}.audit.jsonl")
    shutil.copy(statefile, "old.json")
    assert main(["dir", "add-group", "a"]) == 0
    assert main(["dir", "add-group", "b"]) == 0
    shutil.copy("old.json", statefile)
    state_bytes, sidecar_bytes = statefile.read_bytes(), sidecar.read_bytes()
    capsys.readouterr()

    assert main(["dir", "add-group", "c"]) == 1
    err = capsys.readouterr().err
    assert "SidecarAhead" in err and "4 audit events" in err and "only 2" in err
    assert statefile.read_bytes() == state_bytes
    assert sidecar.read_bytes() == sidecar_bytes

    # Importing a state replaces the sidecar with that state's events.
    assert main(["state", "import", "old.json"]) == 0
    assert len(sidecar.read_text().splitlines()) == len(World.load(statefile).audit)


def test_torn_sidecar_tail_is_cut_before_the_next_append(statefile):
    sidecar = Path(f"{statefile}.audit.jsonl")
    for name in ("a", "b", "c"):
        assert main(["dir", "add-group", name]) == 0
    # A crash mid-append: the last line is lost and the one before it is torn.
    lines = sidecar.read_bytes().splitlines(keepends=True)
    sidecar.write_bytes(b"".join(lines[:-2]) + lines[-2][: len(lines[-2]) // 2])

    assert main(["dir", "add-group", "d"]) == 0
    seqs = [json.loads(line)["seq"] for line in sidecar.read_text().splitlines()]
    assert seqs == list(range(1, len(World.load(statefile).audit) + 1))


WALKTHROUGH = Path(__file__).resolve().parent.parent / "scripts" / "partly_cloudy.txt"


def test_failed_write_saves_alike_alone_and_in_a_scenario(statefile, tmp_path, capsys):
    assert main(["init", "--force", "--seed", "42"]) == 0
    assert main(["scenario", "run", str(WALKTHROUGH), "--strict"]) == 0
    assert main(["readers", "join", "user.helen.dp.domain", "posts-analyze"]) == 0
    assert main(["state", "export", "--reveal-secrets", "-o", "snapshot.json"]) == 0
    # Without posts-analyze's reader group, the sync fails after changing helen's.
    data = json.loads(Path("snapshot.json").read_text())
    groups = data["directory"]["groups"]
    data["directory"]["groups"] = [
        g for g in groups if g["name"] != "reader-user.posts-analyze.dp.domain"
    ]
    Path("snapshot.json").write_text(json.dumps(data))
    commands = [["onboard", "sync-readers"], ["dir", "add-group", "x"]]
    alone, scripted = tmp_path / "alone.json", tmp_path / "scripted.json"
    for state in (alone, scripted):
        assert main(["--state", str(state), "state", "import", "snapshot.json"]) == 0
    assert main(["--state", str(alone), *commands[0]]) == 1
    assert main(["--state", str(alone), *commands[1]]) == 0
    script = tmp_path / "script.txt"
    script.write_text("".join(" ".join(argv) + "\n" for argv in commands))
    assert main(["--state", str(scripted), "scenario", "run", str(script)]) == 0
    capsys.readouterr()

    assert alone.read_bytes() == scripted.read_bytes()
    assert Path(f"{alone}.audit.jsonl").read_bytes() == Path(f"{scripted}.audit.jsonl").read_bytes()
    # The sync's change before its failure persists.
    helen_readers = World.load(alone).cloud.node(cloud_reader_group("user.helen.dp.domain"))
    assert [b.principal for b in helen_readers.bindings] == [
        "serviceAccount:posts-analyze-mirror@service-accounts-project.iam.gserviceaccount.com"
    ]


def test_symlinked_state_file_stays_a_link(statefile):
    store = statefile.parent / "store"
    store.mkdir()
    statefile.rename(store / "world.json")
    statefile.symlink_to(store / "world.json")
    assert main(["dir", "add-group", "through-the-link"]) == 0
    assert statefile.is_symlink()
    assert World.load(store / "world.json").directory.has_group("through-the-link")
    assert sorted(p.name for p in store.iterdir()) == ["world.json"]


def test_export_through_a_dangling_link_creates_its_target(statefile):
    link = statefile.parent / "export.json"
    link.symlink_to("exported.json")
    assert main(["state", "export", "-o", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads((statefile.parent / "exported.json").read_text())["schema_version"] == 1


def test_export_to_a_fifo_writes_into_it(statefile):
    fifo = statefile.parent / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["state", "export", "-o", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received and json.loads(received[0])["schema_version"] == 1
    assert sorted(p.name for p in statefile.parent.iterdir()) == [
        "pipe", "world.json", "world.json.audit.jsonl",
    ]


# -- a kill at each write point of Session.commit ---------------------------------

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "partly-cloudy.json"


class Killed(BaseException):
    """A simulated kill: no code after the kill point runs, no handler catches it."""


def kill_before_the_state_rename(monkeypatch, statefile):
    real = os.replace

    def replace(src, dst):
        if Path(dst).resolve() == statefile.resolve():
            raise Killed
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def kill_after_the_state_rename(monkeypatch, statefile):
    real = World.save

    def save(world, path):
        real(world, path)
        raise Killed

    monkeypatch.setattr(World, "save", save)


def kill_midway_through_the_sidecar_write(monkeypatch, statefile):
    real = Session._sync_audit_sidecar

    def sync(session, written, size):
        sidecar = session.audit_path
        before = sidecar.stat().st_size if sidecar.exists() else 0
        real(session, written, size)
        after = sidecar.stat().st_size
        os.truncate(sidecar, before + (after - before) // 2)
        assert not sidecar.read_bytes().endswith(b"\n")  # the cut tears a line
        raise Killed

    monkeypatch.setattr(Session, "_sync_audit_sidecar", sync)


KILLED_COMMANDS = {
    "dir add-group": ["dir", "add-group", "killed"],
    "state import": ["state", "import", str(GOLDEN)],
    "init --force": ["init", "--force", "--seed", "9"],
}
KILL_POINTS = [
    kill_before_the_state_rename,
    kill_after_the_state_rename,
    kill_midway_through_the_sidecar_write,
]


def sidecar_holds_the_state_events(statefile) -> bool:
    lines = [compact_json(encode(event)) + "\n" for event in World.load(statefile).audit]
    return Path(f"{statefile}.audit.jsonl").read_text(encoding="utf-8") == "".join(lines)


@pytest.mark.parametrize("kill", KILL_POINTS, ids=lambda kill: kill.__name__.removeprefix("kill_"))
@pytest.mark.parametrize("command", KILLED_COMMANDS)
def test_the_next_write_repairs_a_killed_commit(statefile, command, kill):
    # Three events the replacing worlds do not hold, so a kept old line shows.
    for name in ("only-in-a", "only-in-b", "only-in-c"):
        assert main(["dir", "add-group", name]) == 0
    with pytest.MonkeyPatch.context() as patch, pytest.raises(Killed):
        kill(patch, statefile)
        main(KILLED_COMMANDS[command])

    assert main(["dir", "add-group", "after-the-kill"]) == 0
    assert sidecar_holds_the_state_events(statefile)


def test_the_sidecar_is_owner_only(statefile):
    sidecar = Path(f"{statefile}.audit.jsonl")
    mode = lambda: stat.S_IMODE(sidecar.stat().st_mode)  # noqa: E731
    previous = os.umask(0o022)
    try:
        sidecar.unlink()
        assert main(["init", "--force", "--seed", "3"]) == 0
        assert mode() == 0o600
        assert main(["state", "import", str(GOLDEN)]) == 0
        assert mode() == 0o600
        sidecar.unlink()
        assert main(["dir", "add-group", "recreated"]) == 0
        assert mode() == 0o600
    finally:
        os.umask(previous)
    assert sidecar_holds_the_state_events(statefile)


# -- a commit saves only a world that changed ----------------------------------------


@pytest.fixture
def walked(statefile):
    assert main(["init", "--force", "--seed", "42"]) == 0
    assert main(["scenario", "run", str(WALKTHROUGH), "--strict"]) == 0
    return statefile


def both_files(statefile) -> tuple[int, bytes, bytes]:
    """The state file's inode and the bytes of the state file and its sidecar."""
    sidecar = Path(f"{statefile}.audit.jsonl")
    return statefile.stat().st_ino, statefile.read_bytes(), sidecar.read_bytes()


@pytest.mark.parametrize(("argv", "code"), [
    (["clock", "show"], 0),
    (["verify"], 0),
    (["state", "export"], 0),
    (["audit", "tail"], 0),
    # Writes that fail before changing anything.
    (["dir", "add-user", "helen", "--kind", "human"], 1),
    (["readers", "join", "gs://nope", "x"], 1),
    (["reconcile", "--once", "--ticks", "1"], 1),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_a_command_that_changes_nothing_leaves_both_files(walked, capsys, argv, code):
    before = both_files(walked)
    assert main(argv) == code
    assert both_files(walked) == before


@pytest.mark.parametrize(("argv", "section"), [
    (["clock", "advance", "15m"], "clock"),
    (["reconcile", "--once"], "reconcile"),  # a tick that finds nothing to do
])
def test_a_change_without_an_audit_event_is_still_saved(walked, capsys, argv, section):
    before = json.loads(walked.read_text(encoding="utf-8"))
    assert main(argv) == 0
    after = json.loads(walked.read_text(encoding="utf-8"))
    assert {key for key in after if after[key] != before[key]} == {section}


def run_script(tmp_path, *lines: str) -> int:
    script = tmp_path / "script.txt"
    script.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return main(["scenario", "run", str(script), "--strict"])


def test_init_force_saves_a_world_with_the_same_mark(statefile, tmp_path, capsys):
    # Both fresh worlds hold one event at t=0 and tick 0; only the seed differs.
    # In one scenario the session has saved the first when the second replaces it.
    assert run_script(tmp_path, "init --force --seed 1", "init --force --seed 2") == 0
    assert World.load(statefile).secrets.seed == 2
    assert sidecar_holds_the_state_events(statefile)


def test_importing_the_same_world_still_writes_both_files(walked, tmp_path, capsys):
    assert main(["state", "export", "--reveal-secrets", "-o", "same.json"]) == 0
    inode = walked.stat().st_ino
    assert run_script(tmp_path, "clock show", "state import same.json") == 0
    assert walked.stat().st_ino != inode
    assert sidecar_holds_the_state_events(walked)


def test_with_the_sidecar_ahead_a_write_that_changes_nothing_reports_its_own_error(
        statefile, capsys):
    shutil.copy(statefile, "old.json")
    assert main(["dir", "add-group", "a"]) == 0
    shutil.copy("old.json", statefile)
    capsys.readouterr()
    assert main(["dir", "add-group", "mirror-account-users"]) == 1
    assert capsys.readouterr().err.startswith("error: DuplicateName: ")
    assert main(["dir", "add-group", "b"]) == 1
    assert capsys.readouterr().err.startswith("error: SidecarAhead: ")


# -- a compact working file and a lazily decoded audit --------------------------------


def test_the_working_file_is_the_export_in_compact_form(walked, capsys):
    capsys.readouterr()
    assert main(["state", "export", "--reveal-secrets"]) == 0
    exported = json.loads(capsys.readouterr().out)
    text = walked.read_text(encoding="utf-8")
    assert json.loads(text) == exported
    assert text == oracles.working_text(exported)


def test_an_indented_working_file_still_loads_and_the_next_write_compacts_it(
        walked, tmp_path, capsys):
    # The same world twice: once as written (compact), once as an old indented file.
    compact = tmp_path / "compact.json"
    shutil.copy(walked, compact)
    shutil.copy(f"{walked}.audit.jsonl", f"{compact}.audit.jsonl")
    assert main(["state", "export", "--reveal-secrets", "-o", "old.json"]) == 0
    shutil.copy("old.json", walked)
    before = both_files(walked)
    for argv in (["clock", "show"], ["audit", "tail"], ["verify"]):
        assert main(argv) == 0
    assert both_files(walked) == before
    capsys.readouterr()
    assert main(["state", "export", "--reveal-secrets"]) == 0
    assert capsys.readouterr().out == Path("old.json").read_text(encoding="utf-8")

    for state in (walked, compact):
        assert main(["--state", str(state), "dir", "add-group", "after-the-upgrade"]) == 0
    text = walked.read_text(encoding="utf-8")
    assert text == oracles.working_text(json.loads(text))
    assert both_files(walked)[1:] == both_files(compact)[1:]
    exports = []
    for state in (walked, compact):
        capsys.readouterr()
        assert main(["--state", str(state), "state", "export", "--reveal-secrets"]) == 0
        exports.append(capsys.readouterr().out)
    assert exports[0] == exports[1]


def test_a_malformed_event_fails_only_the_commands_that_read_the_audit(walked, capsys):
    data = json.loads(walked.read_text(encoding="utf-8"))
    data["audit"][-1]["outcome"] = "maybe"
    walked.write_text(compact_json(data) + "\n", encoding="utf-8")
    shutil.copy(walked, "malformed.json")
    before = both_files(walked)
    capsys.readouterr()
    for argv in (["audit", "tail"], ["audit", "query"], ["verify"],
                 ["state", "import", "malformed.json"]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: SchemaError: malformed section (at /audit): ")
        assert both_files(walked) == before

    assert main(["clock", "show"]) == 0
    # A write carries the undecoded events forward unchanged.
    assert main(["dir", "add-group", "after-the-bad-event"]) == 0
    saved = json.loads(walked.read_text(encoding="utf-8"))["audit"]
    assert saved[:-1] == data["audit"] and saved[-1]["target"] == "after-the-bad-event"


@pytest.fixture
def decodes(monkeypatch) -> list[int]:
    """The number of events in each call that decodes kept audit events."""
    calls: list[int] = []
    real = audit.decode

    def counted(tp, data):
        calls.append(len(data))
        return real(tp, data)

    monkeypatch.setattr(audit, "decode", counted)
    return calls


def test_a_loaded_log_is_decoded_only_by_a_command_that_reads_it(walked, decodes, capsys):
    for argv in (["clock", "show"], ["dir", "add-group", "lazy"], ["clock", "advance", "1m"],
                 ["reconcile", "--once"], ["state", "export"], ["audit", "tail", "-n", "0"]):
        assert main(argv) == 0
    assert decodes == []
    events = len(World.load(walked).audit)
    assert decodes == []
    assert main(["audit", "tail", "-n", "3"]) == 0
    assert decodes == [3]
    assert main(["audit", "query", "--action", "dir."]) == 0
    assert decodes == [3, events]


@pytest.mark.parametrize("emitted", [0, 2], ids=["none-since-load", "two-since-load"])
def test_tail_decodes_only_the_kept_events_it_returns(walked, decodes, emitted):
    lazy, full = World.load(walked), World.load(walked)
    full.audit.decoded()
    for world in (lazy, full):
        for i in range(emitted):
            world.directory.add_group(f"since-load-{i}")
    decodes.clear()
    total = len(full.audit)
    for n in (0, 1, total, total + 1):
        got = lazy.audit.tail(n)
        assert [e.render() for e in got] == [e.render() for e in full.audit.tail(n)]
        assert got == full.audit.tail(n)
        kept = max(min(n, total) - emitted, 0)
        assert decodes == ([kept] if kept else [])
        decodes.clear()
    assert len(lazy.audit) == total and decodes == []


# -- a save writes back the audit text it loaded ---------------------------------------


def holds_the_world(statefile) -> bool:
    """The state file is the world's export in compact form, and the sidecar holds its events."""
    export = World.load(statefile).export_text(reveal_secrets=True)
    text = statefile.read_text(encoding="utf-8")
    return text == oracles.working_text(json.loads(export)) and sidecar_holds_the_state_events(
        statefile)


@pytest.fixture
def saves(monkeypatch) -> list[Path]:
    """The path of each ``World.save`` call."""
    paths: list[Path] = []
    real = World.save

    def counted(world, path):
        paths.append(Path(path))
        return real(world, path)

    monkeypatch.setattr(World, "save", counted)
    return paths


def test_an_empty_loaded_audit_takes_new_events_without_a_stray_comma(statefile, tmp_path):
    data = json.loads(statefile.read_text(encoding="utf-8"))
    data["audit"] = []
    statefile.write_text(oracles.working_text(data), encoding="utf-8")
    World.load(statefile).save(tmp_path / "unchanged.json")
    assert (tmp_path / "unchanged.json").read_bytes() == statefile.read_bytes()

    world = World.load(statefile)
    world.directory.add_group("the-first-event")
    world.save(statefile)
    text = statefile.read_text(encoding="utf-8")
    assert text.startswith('{"audit":[\n{"action":"directory.add_group",')
    assert text == oracles.working_text(json.loads(text))
    assert [event.seq for event in World.load(statefile).audit] == [1]


FOUR_WRITES = ["dir add-group four-1", "clock advance 15m", "reconcile --once",
               "dir add-group four-2"]


def test_a_scenario_of_four_writes_saves_four_times_what_the_commands_save_alone(
        walked, tmp_path, saves, capsys):
    alone = tmp_path / "alone.json"
    shutil.copy(walked, alone)
    shutil.copy(f"{walked}.audit.jsonl", f"{alone}.audit.jsonl")
    assert run_script(tmp_path, *FOUR_WRITES) == 0
    assert len(saves) == 4
    for line in FOUR_WRITES:
        assert main(["--state", str(alone), *line.split()]) == 0
    assert both_files(walked)[1:] == both_files(alone)[1:]
    assert holds_the_world(walked)


def test_a_write_after_an_audit_query_in_one_scenario_keeps_the_loaded_text(
        walked, tmp_path, decodes, capsys):
    alone = tmp_path / "alone.json"
    shutil.copy(walked, alone)
    shutil.copy(f"{walked}.audit.jsonl", f"{alone}.audit.jsonl")
    events = len(World.load(walked).audit)
    assert run_script(tmp_path, "audit query --action dir.", "dir add-group after-the-query",
                      "audit tail -n 1", "dir add-group after-the-tail") == 0
    assert decodes == [events]  # the query decoded the log; the tail read it decoded
    assert main(["--state", str(alone), "dir", "add-group", "after-the-query"]) == 0
    assert main(["--state", str(alone), "dir", "add-group", "after-the-tail"]) == 0
    assert both_files(walked)[1:] == both_files(alone)[1:]
    assert holds_the_world(walked)


def test_importing_a_copy_of_the_working_file_writes_it_back_byte_for_byte(
        walked, tmp_path, capsys):
    shutil.copy(walked, "copy.json")
    other = tmp_path / "other.json"
    assert main(["--state", str(other), "state", "import", "copy.json"]) == 0
    assert other.read_bytes() == walked.read_bytes()
    assert Path(f"{other}.audit.jsonl").read_bytes() == Path(f"{walked}.audit.jsonl").read_bytes()
    assert holds_the_world(other)


def test_importing_a_hand_edited_compact_file_writes_its_events_in_canonical_form(
        walked, tmp_path, capsys):
    text = walked.read_text(encoding="utf-8")
    event = json.loads(text)["audit"][0]
    assert event["job_id"] is None
    edited = dict(reversed(event.items()))  # keys out of order
    del edited["job_id"]  # an optional key left out
    edited["note"] = "ignored"  # a key the decoder does not read
    hand = json.dumps(edited, separators=(",", ":"), ensure_ascii=False)
    imported = tmp_path / "edited.json"
    imported.write_text(text.replace(compact_json(event), hand, 1), encoding="utf-8")
    assert imported.read_text(encoding="utf-8").startswith('{"audit":[\n' + hand + ",\n")

    other = tmp_path / "other.json"
    assert main(["--state", str(other), "state", "import", str(imported)]) == 0
    assert other.read_bytes() == walked.read_bytes()
    state = other.read_text(encoding="utf-8")
    export = World.load(other).export_text(reveal_secrets=True)
    assert state == oracles.working_text(json.loads(export))
    sidecar = Path(f"{other}.audit.jsonl").read_text(encoding="utf-8")
    assert sidecar == "".join(compact_json(e) + "\n" for e in json.loads(state)["audit"])


def test_a_failed_write_in_a_scenario_saves_nothing(walked, tmp_path, saves, capsys):
    before = both_files(walked)
    script = tmp_path / "failing.txt"
    script.write_text("dir add-user helen --kind human\n", encoding="utf-8")
    assert main(["scenario", "run", str(script)]) == 0
    assert "DuplicateName" in capsys.readouterr().out
    assert saves == []
    assert both_files(walked) == before


# -- a file the two-part parse does not take loads with one json.loads ------------------


def one_parse_error(text: str) -> str:
    """The SchemaError message of a load that parses the whole text at once."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return f"state file is not valid JSON: {exc}"
    with pytest.raises(SchemaError) as info:
        World.from_dict(data)
    return str(info.value)


def audit_end(text: str) -> int:
    """The offset just past a compact state file's audit array."""
    return json.JSONDecoder().raw_decode(text, len('{"audit":'))[1]


CUTS = {
    "inside the audit": lambda text: audit_end(text) // 2,
    "after the audit array": audit_end,
    "after its comma": lambda text: audit_end(text) + 1,
    "inside the rest": lambda text: (audit_end(text) + len(text)) // 2,
    "before the closing brace": lambda text: len(text) - 2,
}


@pytest.mark.parametrize("cut", CUTS)
def test_a_truncated_compact_file_reports_the_whole_texts_json_error(walked, cut):
    text = walked.read_text(encoding="utf-8")
    at = CUTS[cut](text)
    walked.write_text(text[:at], encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        World.load(walked)
    assert str(info.value) == one_parse_error(text[:at])
    if cut == "after its comma":  # an offset in the whole text, not in the part after the audit
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        assert str(info.value) == (
            "state file is not valid JSON: Expecting property name enclosed in double quotes: "
            f"line {line} column {column} (char {at})"
        )


def edit_document(statefile, edit) -> str:
    """Rewrite the state file as ``edit`` leaves its document; return the new text."""
    data = json.loads(statefile.read_text(encoding="utf-8"))
    text = edit(data)
    statefile.write_text(text, encoding="utf-8")
    return text


def without_audit(data) -> str:
    del data["audit"]
    return compact_json(data) + "\n"


def audit_last(data) -> str:
    audit = data.pop("audit")
    return json.dumps({**data, "audit": audit}, separators=(",", ":"), ensure_ascii=False)


def a_key_before_audit_then_cut(data) -> str:
    return compact_json({"aardvark": 1, **data})[:-40]


def second_audit(value):
    def edit(data) -> str:
        return compact_json(data)[:-1] + f',"audit":{json.dumps(value)}}}\n'
    return edit


@pytest.mark.parametrize("edit", [without_audit, a_key_before_audit_then_cut,
                                  second_audit({"not": "a list"}), second_audit(7)],
                         ids=["no audit key", "another first key, cut", "second audit key: dict",
                              "second audit key: int"])
def test_a_file_the_two_part_parse_refuses_gives_the_one_parse_error(walked, edit):
    text = edit_document(walked, edit)
    with pytest.raises(SchemaError) as info:
        World.load(walked)
    assert str(info.value) == one_parse_error(text)


@pytest.mark.parametrize("edit", [audit_last, second_audit([])],
                         ids=["audit last", "second audit key: empty list"])
def test_a_file_the_two_part_parse_refuses_loads_as_one_parse_does(walked, tmp_path, edit):
    text = edit_document(walked, edit)
    world = World.load(walked)
    assert world.to_dict() == World.from_dict(json.loads(text)).to_dict()
    world.save(tmp_path / "saved.json")
    saved = (tmp_path / "saved.json").read_text(encoding="utf-8")
    assert saved == oracles.working_text(json.loads(text))


# -- one section per line: a store decodes when a command first touches it -------------


def replace_line(statefile, prefix: str, line: str) -> None:
    """Replace the working file's line that starts with ``prefix``."""
    lines = statefile.read_text(encoding="utf-8").split("\n")
    (at,) = [i for i, old in enumerate(lines) if old.startswith(prefix)]
    lines[at] = line
    statefile.write_text("\n".join(lines), encoding="utf-8")


def test_a_malformed_section_fails_only_the_commands_that_touch_it(walked, capsys):
    replace_line(walked, '"cloud":', '"cloud":{"nodes":[oops]},')
    before = both_files(walked)
    capsys.readouterr()
    assert main(["clock", "show"]) == 0
    assert capsys.readouterr().out.startswith("t=")
    for argv in (["cloud", "show", "org"], ["verify"]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: SchemaError: malformed section (at /cloud): ")
    assert both_files(walked) == before


def test_a_value_that_does_not_end_where_its_line_ends_is_not_json(walked, capsys):
    text = walked.read_text(encoding="utf-8")
    clock = text.index('\n"clock":') + 1  # the clock line's first byte
    line = text.count("\n", 0, clock) + 1
    replace_line(walked, '"clock":', '"clock":0 6,')
    before = both_files(walked)
    capsys.readouterr()
    assert main(["clock", "show"]) == 1
    assert capsys.readouterr().err == (
        "error: SchemaError: state file is not valid JSON: Value does not end where its line "
        f"ends: line {line} column 10 (char {clock + 9})\n")
    assert both_files(walked) == before


POSTS_MIRROR = mirror("posts-analyze")
POSTS_BUCKET = "user.posts-analyze.dp.domain"


def test_a_store_that_holds_a_malformed_one_fails_before_it_changes_anything(walked, capsys):
    replace_line(walked, '"cloud":', '"cloud":{"nodes":[oops]},')
    before = both_files(walked)
    capsys.readouterr()
    for argv in (["reconcile", "--once"], ["onboard", "sync-readers"],
                 ["authz", "token", "--as", "posts-analyze", POSTS_MIRROR],
                 ["authz", "check", "tok-000001", POSTS_BUCKET, "read"],
                 ["authz", "job", "--as", "posts-analyze", POSTS_MIRROR,
                  "--access", f"{POSTS_BUCKET}:read"]):
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: SchemaError: malformed section (at /cloud): "), argv
    assert both_files(walked) == before
    # The commands that hold no cloud still run; a write carries the cloud line forward.
    assert main(["report", "last"]) == 0
    assert capsys.readouterr().out.startswith("tick 1 at t=0\n")
    assert main(["readers", "join", POSTS_BUCKET, "posts-analyze"]) == 0
    assert capsys.readouterr().out == f"reader-{POSTS_BUCKET}: helen, posts-analyze\n"
    assert '\n"cloud":{"nodes":[oops]},\n' in walked.read_text(encoding="utf-8")


def test_the_calls_that_take_their_stores_first_change_nothing_before_a_malformed_one(walked):
    replace_line(walked, '"cloud":', '"cloud":{"nodes":[oops]},')
    world = World.load(walked)
    before = world.authz.to_dict(), world.reconciler.to_dict(), len(world.audit)
    with pytest.raises(SchemaError, match=r"\(at /cloud\)"):
        world.authz.submit_job("posts-analyze", POSTS_MIRROR, [POSTS_BUCKET], [AccessAction.READ])
    with pytest.raises(SchemaError, match=r"\(at /cloud\)"):
        world.reconciler.decommission("helen")
    assert (world.authz.to_dict(), world.reconciler.to_dict(), len(world.audit)) == before


def split_event_line(statefile, index: int) -> None:
    """Break the working file's ``index``-th line, an audit event, after its first comma."""
    lines = statefile.read_text(encoding="utf-8").split("\n")
    head, rest = lines[index].split(",", 1)
    lines[index:index + 1] = [head + ",", rest]
    statefile.write_text("\n".join(lines), encoding="utf-8")


def test_a_write_after_a_split_audit_line_is_refused(walked, capsys):
    events = len(World.load(walked).audit)
    split_event_line(walked, 2)
    assert len(World.load(walked).audit) == events + 1  # still loads as a working file
    before = both_files(walked)
    capsys.readouterr()
    assert main(["dir", "add-group", "g3"]) == 1
    assert capsys.readouterr().err == (
        "error: SchemaError: malformed section (at /audit): "
        f"{events + 1} lines end with event #{events}\n")
    assert both_files(walked) == before


def test_a_write_on_a_gapped_audit_is_refused_and_verify_reports_the_gap(walked, capsys):
    lines = walked.read_text(encoding="utf-8").split("\n")
    del lines[2]  # the second event
    walked.write_text("\n".join(lines), encoding="utf-8")
    events = len(World.load(walked).audit)
    before = both_files(walked)
    capsys.readouterr()
    assert main(["verify"]) == 2
    assert "AuditGapViolation" in capsys.readouterr().out
    assert main(["dir", "add-group", "g3"]) == 1
    assert capsys.readouterr().err == (
        "error: SchemaError: malformed section (at /audit): "
        f"{events} lines end with event #{events + 1}\n")
    assert both_files(walked) == before


def test_two_events_on_the_last_audit_line_are_refused_when_it_is_read(walked, capsys):
    text = walked.read_text(encoding="utf-8")
    last = text.rindex(",\n{", 0, text.index('\n"authz":'))  # before the last event's line
    walked.write_text(text[:last] + "," + text[last + 2:], encoding="utf-8")
    before = both_files(walked)
    capsys.readouterr()
    assert main(["audit", "tail", "-n", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: SchemaError: malformed section (at /audit): 1 lines hold 2 events\n")
    assert both_files(walked) == before


@pytest.fixture(scope="module")
def walked_once(tmp_path_factory):
    state = tmp_path_factory.mktemp("walked") / "world.json"
    for argv in (["init", "--seed", "42"], ["scenario", "run", str(WALKTHROUGH), "--strict"]):
        assert main(["--state", str(state), *argv]) == 0
    return state


HOLDERS = {"authz", "cloud", "vault", "tokens"}
EVERY_STORE = set(_STORES)


@pytest.mark.parametrize(("argv", "stores"), [
    (["clock", "show"], set()),
    (["clock", "advance", "1m"], set()),
    (["audit", "tail", "-n", "3"], set()),
    (["audit", "query", "--action", "authorize"], set()),
    (["dir", "show"], {"directory"}),
    (["dir", "add-group", "g3"], {"directory"}),
    (["cloud", "tree"], {"cloud"}),
    (["cloud", "show", POSTS_MIRROR], {"cloud"}),
    (["vault", "ls"], {"vault"}),
    (["vault", "read", "--as", "posts-analyze", POSTS_MIRROR], {"vault"}),
    (["report", "last"], {"reconciler"}),
    (["readers", "join", POSTS_BUCKET, "posts-analyze"], {"onboarder", "directory"}),
    (["readers", "leave", POSTS_BUCKET, "helen"], {"onboarder", "directory"}),
    (["onboard", "bucket", "posts-analyze"], {"onboarder", "directory", "cloud"}),
    (["onboard", "sync-readers"], {"onboarder", "directory", "cloud"}),
    (["authz", "token", "--as", "posts-analyze", POSTS_MIRROR], HOLDERS),
    (["authz", "token", "--as", "workspace:helen", mirror("helen")], HOLDERS),
    (["authz", "check", "tok-000001", POSTS_BUCKET, "read"], HOLDERS),
    (["authz", "job", "--as", "posts-analyze", POSTS_MIRROR, "--access", f"{POSTS_BUCKET}:read"],
     HOLDERS),
    (["reconcile", "--once"], {"reconciler", "directory", "cloud", "vault"}),
    (["verify"], EVERY_STORE),
    (["state", "export"], EVERY_STORE),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_each_command_decodes_only_the_stores_it_uses(walked_once, tmp_path, argv, stores):
    state = tmp_path / "world.json"
    shutil.copy(walked_once, state)
    shutil.copy(f"{walked_once}.audit.jsonl", f"{state}.audit.jsonl")
    session = Session(state)
    out, error = dispatch(session, argv)
    assert error is None, out
    assert {name for name in _STORES if name in vars(session.world)} == stores


def provision_a_new_user(world: World) -> str:
    """Give a new user a mirror without the onboarder, then make the onboarder's first call."""
    world.directory.add_principal("ivan", PrincipalKind.HEADLESS, "/dc1/cluster1/user/ivan")
    world.directory.join_group("mirror-account-users", "ivan")
    world.reconciler.reconcile_tick()
    return world.onboarder.provision_bucket("ivan").bucket_id


# Each public holder call that reads a held store, and what it gives as its holder's first call.
FIRST_CALLS = {
    "Reconciler.select_project": (
        lambda world: world.reconciler.select_project(world.directory.principal("helen")), SAP),
    "Reconciler.decommission": (
        lambda world: world.reconciler.decommission("helen")
        or world.cloud.account(mirror("helen")).status, AccountStatus.DISABLED),
    "Reconciler.reconcile_tick": (
        lambda world: world.reconciler.reconcile_tick().has_changes, False),
    "AuthzEngine.token_status": (
        lambda world: world.authz.token_status(world.tokens.get("tok-000001")), None),
    "AuthzEngine.authenticate": (
        lambda world: world.authz.authenticate("posts-analyze", POSTS_MIRROR).token_id,
        "tok-000003"),
    "AuthzEngine.impersonate": (
        lambda world: world.authz.impersonate("workspace:helen", mirror("helen")).via_actas,
        "helen"),
    "AuthzEngine.authorize": (
        lambda world: world.authz.authorize("tok-000002", POSTS_BUCKET, AccessAction.READ).reason,
        DecisionReason.READER_GROUP),
    "AuthzEngine.submit_job": (
        lambda world: world.authz.submit_job(
            "posts-analyze", POSTS_MIRROR, [POSTS_BUCKET], [AccessAction.WRITE]).results,
        [{"bucket": POSTS_BUCKET, "action": "write", "decision": "allow", "reason": "Owner"}]),
    "Onboarder.provision_bucket": (provision_a_new_user, "user.ivan.dp.domain"),
    "Onboarder.sync_reader_groups": (
        lambda world: world.onboarder.sync_reader_groups().has_changes, False),
    "Vault.store_key": (
        lambda world: world.vault.store_key(POSTS_MIRROR, "posts-analyze", "0" * 32).key_id,
        f"{POSTS_MIRROR}#v2"),
}


@pytest.mark.parametrize("call", FIRST_CALLS)
def test_a_holder_takes_its_stores_in_each_call_that_reads_them(walked_once, call):
    world = World.load(walked_once)  # kept here: a holder refers to its world weakly
    act, expected = FIRST_CALLS[call]
    assert act(world) == expected


def test_a_commit_encodes_each_new_event_once(walked, monkeypatch):
    encoded = []
    real = audit.compact_json
    monkeypatch.setattr(audit, "compact_json", lambda value: encoded.append(value) or real(value))
    assert main(["dir", "add-group", "encoded-once"]) == 0
    assert [event["target"] for event in encoded] == ["encoded-once"]
    assert sidecar_holds_the_state_events(walked)


def old_compact(data: dict) -> str:
    return compact_json(data) + "\n"


def indented(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("form", [old_compact, indented], ids=["old compact", "indented"])
def test_another_form_loads_whole_and_the_next_write_rewrites_it_one_section_per_line(
        walked, tmp_path, capsys, form):
    working = tmp_path / "working.json"
    shutil.copy(walked, working)
    shutil.copy(f"{walked}.audit.jsonl", f"{working}.audit.jsonl")
    walked.write_text(form(json.loads(walked.read_text(encoding="utf-8"))), encoding="utf-8")
    before = both_files(walked)
    for argv in (["clock", "show"], ["audit", "tail"], ["cloud", "tree"]):
        assert main(argv) == 0
    assert both_files(walked) == before

    for state in (walked, working):
        assert main(["--state", str(state), "dir", "add-group", "after-the-rewrite"]) == 0
    assert both_files(walked)[1:] == both_files(working)[1:]
    text = walked.read_text(encoding="utf-8")
    assert text == oracles.working_text(json.loads(text))
    assert holds_the_world(walked)


def test_an_audit_on_one_line_loads_as_another_form(walked, tmp_path, capsys):
    working = tmp_path / "working.json"
    shutil.copy(walked, working)
    shutil.copy(f"{walked}.audit.jsonl", f"{working}.audit.jsonl")
    text = walked.read_text(encoding="utf-8")
    start, stop = len('{"audit":['), text.index('],\n"authz":')
    walked.write_text(text[:start] + text[start + 1:stop].replace(",\n", ",") + text[stop:],
                      encoding="utf-8")
    assert _spans(walked.read_bytes()) is None  # each other section is still on a line of its own
    before = both_files(walked)
    capsys.readouterr()
    assert main(["audit", "tail", "-n", "1"]) == 0
    assert capsys.readouterr().out.startswith("#36 ")
    assert both_files(walked) == before

    for state in (walked, working):
        assert main(["--state", str(state), "dir", "add-group", "after-the-rewrite"]) == 0
    assert both_files(walked)[1:] == both_files(working)[1:]


# -- a store that did not change is written back as loaded ---------------------------


def test_a_hand_edited_section_keeps_its_form_until_its_store_changes(walked, capsys):
    text = walked.read_text(encoding="utf-8")
    start = text.index('\n"cloud":') + len('\n"cloud":')
    stop = text.index("\n", start) - 1  # less the ","
    spaced = json.dumps(json.loads(text[start:stop]))  # ", " and ": ", its own key order
    walked.write_text(text[:start] + spaced + text[stop:], encoding="utf-8")
    assert main(["reconcile", "--once"]) == 0  # decodes the cloud and saves a tick
    assert f'\n"cloud":{spaced},\n' in walked.read_text(encoding="utf-8")
    assert main(["cloud", "set-quota", "service-accounts-project", "50"]) == 0
    text = walked.read_text(encoding="utf-8")
    assert text == oracles.working_text(json.loads(text))
    assert holds_the_world(walked)


def test_a_changed_store_is_encoded_once_by_the_saves_of_one_scenario(
        walked, tmp_path, monkeypatch, capsys):
    alone = tmp_path / "alone.json"
    shutil.copy(walked, alone)
    shutil.copy(f"{walked}.audit.jsonl", f"{alone}.audit.jsonl")
    encodes, real = [], Directory.to_dict
    monkeypatch.setattr(Directory, "to_dict", lambda store: encodes.append(1) or real(store))
    lines = ["readers join user.helen.dp.domain posts-analyze", *["clock advance 1m"] * 3]
    assert run_script(tmp_path, *lines) == 0
    assert len(encodes) == 1  # by the first save; the other three write its text back
    for line in lines:
        assert main(["--state", str(alone), *line.split()]) == 0
    assert both_files(walked)[1:] == both_files(alone)[1:]
    assert holds_the_world(walked)


def test_a_tick_whose_only_vault_change_is_a_revocation_saves_it(walked):
    assert main(["dir", "remove", "helen"]) == 0
    assert main(["reconcile", "--once"]) == 0  # decommissions helen's mirror
    world = World.load(walked)
    assert world.vault.entry(mirror("helen")).versions[0].state.value == "invalid"
    vault_events = [(event.action, event.target) for event in world.audit
                    if event.action.startswith("vault.")]
    assert vault_events[-1] == ("vault.revoke_key", f"{mirror('helen')}#v1")
    assert holds_the_world(walked)


# A read and a change of each store of the loaded walkthrough world, each with the stores the next
# save encodes: those decoded that are not audited, since they may change with no event, and
# those a mutation since the last save names.
READ_AND_CHANGE = {
    "directory": (lambda w: w.directory.principals(), set(),
                  lambda w: w.directory.add_group("g3"), {"directory"}),
    "cloud": (lambda w: w.cloud.render_tree(), set(),
              lambda w: w.cloud.set_quota(SAP, 50), {"cloud"}),
    "vault": (lambda w: w.vault.read_key(POSTS_MIRROR, "posts-analyze"), set(),  # an audited read
              lambda w: w.vault.store_key(POSTS_MIRROR, "posts-analyze", "0" * 32), {"vault"}),
    "onboarder": (lambda w: w.onboarder.pair_for(POSTS_BUCKET), {"onboarder"},
                  lambda w: provision_a_new_user(w),
                  {"directory", "cloud", "vault", "reconciler", "onboarder"}),
    "tokens": (lambda w: w.tokens.get("tok-000001"), {"tokens"},
               lambda w: w.authz.authenticate("posts-analyze", POSTS_MIRROR), {"authz", "tokens"}),
    "reconciler": (lambda w: w.reconciler.last_report, {"reconciler"},
                   lambda w: w.reconciler.reconcile_tick(), {"reconciler"}),
    "authz": (lambda w: w.authz, {"authz"},
              lambda w: w.authz.submit_job("posts-analyze", POSTS_MIRROR, [POSTS_BUCKET],
                                           [AccessAction.READ]), {"authz", "tokens"}),
}


@pytest.mark.parametrize("state", ["untouched", "read", "changed"])
@pytest.mark.parametrize("store", READ_AND_CHANGE)
def test_a_save_encodes_exactly_the_stores_the_rule_names(
        walked_once, tmp_path, monkeypatch, store, state):
    stores, encoded, real = {section: name for name, (section, _) in _STORES.items()}, set(), World._section

    def section(world, key, *rest):
        if key in stores:
            encoded.add(stores[key])
        return real(world, key, *rest)

    monkeypatch.setattr(World, "_section", section)
    world, path = World.load(walked_once), tmp_path / "world.json"
    read, read_encodes, change, change_encodes = READ_AND_CHANGE[store]
    if state != "untouched":
        (read if state == "read" else change)(world)
    world.save(path)
    first = {"untouched": set(), "read": read_encodes, "changed": change_encodes}[state]
    assert encoded == first
    # A change to another audited store, saved in the same session: the first save's audited
    # stores go back as it wrote them, and the decoded stores that are not audited are encoded again.
    other = "cloud" if store == "directory" else "directory"
    encoded.clear()
    READ_AND_CHANGE[other][2](world)
    world.save(path)
    assert encoded == {other} | (first - {"directory", "cloud", "vault"})
    assert World.load(path).export_text(reveal_secrets=True) == world.export_text(reveal_secrets=True)


# -- every form of a state file decodes each store on first use ------------------------


def test_an_export_with_a_malformed_store_fails_only_the_commands_that_read_it(walked, capsys):
    assert main(["state", "export", "--reveal-secrets", "-o", "export.json"]) == 0
    data = json.loads(Path("export.json").read_text(encoding="utf-8"))
    data["vault"] = {"entries": [{"nonsense": True}]}
    walked.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    before = both_files(walked)
    assert main(["clock", "show"]) == 0
    assert main(["dir", "show"]) == 0
    capsys.readouterr()
    assert main(["vault", "ls"]) == 1
    assert "SchemaError: malformed section (at /vault)" in capsys.readouterr().err
    assert both_files(walked) == before


# -- a world is freed as soon as its last reference goes -----------------------------


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_decoded_world_is_freed_without_the_collector(walked, no_collector):
    freed = weakref.ref(World.load(walked).decode())
    assert freed() is None


def test_the_world_of_a_session_that_committed_a_write_is_freed(walked, no_collector):
    session = Session(walked)
    session.world.directory.add_group("committed")
    session.commit()
    freed = weakref.ref(session.world)
    del session
    assert freed() is None


def test_the_world_of_a_command_that_failed_is_freed(walked, no_collector, monkeypatch, capsys):
    loaded = []
    real = World.load

    def load(path):
        world = real(path)
        loaded.append(weakref.ref(world))
        return world

    monkeypatch.setattr(World, "load", load)
    assert main(["vault", "read", "--as", "helen", POSTS_MIRROR]) == 1
    assert "PermissionDenied" in capsys.readouterr().err
    assert len(loaded) == 1 and loaded[0]() is None


@pytest.mark.parametrize("argv", [
    ["cloud", "tree"],
    ["verify"],
    ["reconcile", "--once"],
    ["authz", "token", "--as", "posts-analyze", POSTS_MIRROR],
    ["vault", "read", "--as", "helen", POSTS_MIRROR],  # exits 1
], ids=" ".join)
def test_a_finished_command_leaves_nothing_to_the_collector(walked, no_collector, capsys, argv):
    main(argv)
    assert gc.collect() == 0


@pytest.mark.parametrize(("argv", "code"), [
    (["clock", "show"], 0),
    (["dir", "add-user", "helen", "--kind", "human"], 1),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_a_command_frees_the_streams_it_printed_to(walked, argv, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert out.getvalue() if code == 0 else err.getvalue()
    freed = weakref.ref(out), weakref.ref(err)
    del out, err
    assert [ref() for ref in freed] == [None, None]


def test_a_group_named_without_a_command_frees_the_stream_it_printed_to(walked):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["dir"]) == 1  # prints the group's help page as an error
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["dir", "--help"]) == 0
    assert err.getvalue() == out.getvalue() and err.getvalue().startswith("Usage: ")
    freed = weakref.ref(err)
    del err
    assert freed() is None


@pytest.mark.parametrize("argv", [["--help"], ["clock", "--help"], ["clock", "show", "--help"]],
                         ids=" ".join)
def test_a_help_page_frees_the_stream_it_printed_to(walked, monkeypatch, argv):
    made = []

    class Buffer(io.StringIO):
        def __init__(self) -> None:
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(cli, "io", types.SimpleNamespace(StringIO=Buffer))
    page, error = dispatch(Session(walked), argv)  # prints into a Buffer of its own
    assert error is None and page.startswith("Usage: ")
    out = Buffer()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == page
    del out
    assert len(made) == 2 and [ref() for ref in made] == [None, None]


def test_a_scenario_frees_each_command_s_output_buffer(walked, tmp_path, monkeypatch, capsys):
    made = []

    class Buffer(io.StringIO):
        def __init__(self) -> None:
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(cli, "io", types.SimpleNamespace(StringIO=Buffer))
    assert run_script(tmp_path, "clock show", "dir add-group freed", "audit tail -n 1") == 0
    assert len(made) == 3 and [ref() for ref in made] == [None] * 3


def test_a_holder_whose_world_is_gone_says_so(walked, no_collector):
    vault = World.load(walked).vault
    with pytest.raises(ReferenceError):
        vault.store_key(POSTS_MIRROR, "posts-analyze", "0" * 32)


# -- the working file is read and written as bytes ------------------------------------


def test_a_byte_that_is_not_utf8_in_any_section_fails_the_load(walked, capsys):
    data = walked.read_bytes()
    at = data.index(b'\n"vault":{') + len(b'\n"vault":{"')
    walked.write_bytes(data[:at] + b"\xff" + data[at:])
    before = both_files(walked)
    with pytest.raises(UnicodeDecodeError) as info:
        walked.read_bytes().decode("utf-8")
    assert "'utf-8' codec can't decode byte 0xff" in str(info.value)
    capsys.readouterr()
    assert main(["clock", "show"]) == 1
    assert capsys.readouterr().err == (
        f"error: SchemaError: state file is not valid JSON: {info.value}\n")
    assert both_files(walked) == before


def test_a_file_with_a_utf16_byte_order_mark_is_not_taken_for_json(walked, capsys):
    walked.write_bytes(b"\xff\xfe{\x00}\x00")  # {} in UTF-16, which json.loads(bytes) would take
    capsys.readouterr()
    assert main(["clock", "show"]) == 1
    assert capsys.readouterr().err == (
        "error: SchemaError: state file is not valid JSON: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


def test_a_home_that_is_not_ascii_survives_a_write_that_keeps_its_line(statefile, capsys):
    home = "/dc1/c1/user/bob/données"
    assert main(["dir", "add-user", "bob", "--kind", "human", "--hdfs-home", home]) == 0
    assert main(["clock", "advance", "1m"]) == 0  # writes the directory line back as loaded
    capsys.readouterr()
    assert main(["dir", "show", "bob"]) == 0
    assert f" hdfs_home={home} " in capsys.readouterr().out
    assert holds_the_world(statefile)


def refused_read(caller: str) -> list[str]:
    """A vault read that is refused, and audited as a decision by ``caller``."""
    return ["vault", "read", "--as", caller, POSTS_MIRROR]


def test_audit_lines_that_are_not_ascii_are_read_and_copied_by_byte_offset(walked, capsys):
    assert main(refused_read("équipe")) == 1
    assert main(refused_read("ünf")) == 1
    assert main(["clock", "advance", "1m"]) == 0
    capsys.readouterr()
    assert main(["audit", "tail", "-n", "2"]) == 0
    assert [line.split(" actor=")[1].split()[0] for line in capsys.readouterr().out.splitlines()] == [
        "équipe", "ünf"]
    Path(f"{walked}.audit.jsonl").unlink()  # the next write copies every loaded line to it
    assert main(["dir", "add-group", "after-the-copy"]) == 0
    assert holds_the_world(walked)


def test_a_malformed_section_reports_its_error_at_its_place_in_the_whole_text(walked, capsys):
    assert main(refused_read("équipe")) == 1  # two bytes, one character, before the cloud line
    replace_line(walked, '"cloud":', '"cloud":{"nodes":[oops]},')
    text = walked.read_text(encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as info:
        json.JSONDecoder().raw_decode(text, text.index('\n"cloud":') + len('\n"cloud":'))
    capsys.readouterr()
    assert main(["cloud", "show", "org"]) == 1
    assert capsys.readouterr().err == (
        f"error: SchemaError: malformed section (at /cloud): {info.value}\n")


@pytest.fixture
def counts(monkeypatch) -> list[audit.AuditLog]:
    """The log of each call to ``AuditLog._count``, the one place that counts loaded audit lines."""
    calls: list[audit.AuditLog] = []
    real = audit.AuditLog._count

    def counted(log):
        calls.append(log)
        return real(log)

    monkeypatch.setattr(audit.AuditLog, "_count", counted)
    return calls


@pytest.mark.parametrize("argv", [["clock", "show"], ["dir", "show", "helen"],
                                  ["cloud", "show", "org"], ["cloud", "tree"], ["report", "last"]],
                         ids=" ".join)
def test_a_command_that_neither_reads_nor_writes_the_audit_counts_none_of_it(
        walked, counts, argv, capsys):
    assert main(argv) == 0
    assert counts == []
    assert main(["dir", "add-group", "counted"]) == 0  # a write counts them
    assert counts
