import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest

import mirrorplane
from mirrorplane.cli import Session, cli, dispatch, main
from mirrorplane.scenario import parse_script, run_script
from mirrorplane.errors import ParseError
from mirrorplane.world import World

import oracles
from conftest import reimport

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
WALKTHROUGH = SCRIPTS / "partly_cloudy.txt"


@pytest.fixture
def statefile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["init", "--seed", "42"]) == 0
    return tmp_path / "world.json"


def run(*argv: str) -> int:
    return main(list(argv))


def test_init_creates_state_and_refuses_overwrite(statefile):
    assert statefile.exists()
    assert run("init") == 1
    assert run("init", "--force", "--seed", "42") == 0


def test_missing_state_is_a_command_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("dir", "show") == 1


def test_unknown_command_exits_one(statefile):
    assert run("frobnicate") == 1
    assert run("dir", "explode") == 1


def test_help_exits_zero(statefile, capsys):
    assert run("--help") == 0
    assert "control plane" in capsys.readouterr().out


def test_directory_commands(statefile, capsys):
    assert run("dir", "add-user", "helen", "--kind", "human",
               "--hdfs-home", "/dc1/cluster1/user/helen") == 0
    assert run("dir", "add-user", "helen", "--kind", "human") == 1  # duplicate
    assert run("dir", "add-group", "mirror-account-users") == 0
    assert run("dir", "join", "mirror-account-users", "helen") == 0
    capsys.readouterr()
    assert run("dir", "show", "helen") == 0
    out = capsys.readouterr().out
    assert "kind=human" in out and "workspace=true" in out


def test_full_walkthrough_scenario(statefile, capsys):
    assert run("scenario", "run", str(WALKTHROUGH), "--strict") == 0
    out = capsys.readouterr().out
    assert "ALLOW Owner" in out
    assert "DENY NotAuthorized" in out
    assert "ALLOW ReaderGroup" in out
    assert run("verify", "--converged") == 0


def test_scenario_transcript_and_decision_chain(statefile, tmp_path, capsys):
    transcript_path = tmp_path / "transcript.json"
    assert run("scenario", "run", str(WALKTHROUGH),
               "--transcript", str(transcript_path)) == 0
    capsys.readouterr()
    entries = json.loads(transcript_path.read_text())["entries"]
    assert all(e["status"] == "ok" for e in entries)
    checks = [e["output"] for e in entries if e["command"].startswith("authz check")]
    assert checks == [
        "ALLOW Owner",        # own bucket, write
        "ALLOW Owner",        # own bucket, read
        "DENY NotAuthorized",  # foreign bucket, write
        "ALLOW ReaderGroup",  # reader-group read
        "DENY NotAuthorized",  # reader group never writes
    ]


def test_scenario_errors_recorded_without_strict(statefile, tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text(
        "dir add-group mirror-account-users\n"
        "dir join mirror-account-users ghost\n"
        "dir show\n"
    )
    assert run("scenario", "run", str(script)) == 0
    out = capsys.readouterr().out
    assert "UnknownPrincipal" in out
    assert "L3 [ok]" in out  # execution continued

    assert run("scenario", "run", str(script), "--strict") == 1


def test_scenario_parse_error_carries_line_number(statefile, tmp_path, capsys):
    script = tmp_path / "broken.txt"
    script.write_text("dir show\ndir add-user 'unterminated\n")
    assert run("scenario", "run", str(script)) == 1
    assert "line 2" in capsys.readouterr().err


def test_empty_scenario_changes_nothing(statefile, tmp_path):
    before = statefile.read_bytes()
    script = tmp_path / "empty.txt"
    script.write_text("# nothing here\n\n")
    assert run("scenario", "run", str(script)) == 0
    assert statefile.read_bytes() == before


def test_parse_script_rejects_bad_quoting():
    with pytest.raises(ParseError):
        parse_script('dir add-user "x\n')


def test_verify_exit_codes(statefile, tmp_path, capsys):
    assert run("verify") == 0
    # Corrupt the state file by hand: cross-principal ActAs grant.
    assert run("scenario", "run", str(WALKTHROUGH)) == 0
    data = json.loads(statefile.read_text())
    for node in data["cloud"]["nodes"]:
        if node["id"].startswith("posts-analyze-mirror@"):
            node["bindings"].append({"role": "act-as", "principal": "workspace:helen"})
    statefile.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify") == 2
    out = capsys.readouterr().out
    assert "ActAsViolation" in out
    assert run("verify", "--format", "json") == 2


def test_clock_and_rotation_flow(statefile, capsys):
    assert run("scenario", "run", str(SCRIPTS / "rotation_drill.txt"), "--strict") == 0
    out = capsys.readouterr().out
    assert "rotated: 1" in out
    assert "versions=[active,retiring]" in out
    assert "versions=[active,invalid]" in out


def test_sharding_demo_scenario(statefile, capsys):
    assert run("scenario", "run", str(SCRIPTS / "sharded_org_units.txt"), "--strict") == 0
    out = capsys.readouterr().out
    assert "dev-service-accounts-project-3" in out
    assert "SALESIAM" in out


def test_bad_duration_is_command_error(statefile):
    assert run("clock", "advance", "7x") == 1
    assert run("clock", "advance", "90") == 0  # bare minutes accepted


def test_state_export_redacts_by_default(statefile, capsys):
    run("dir", "add-group", "mirror-account-users")
    run("dir", "add-user", "h", "--kind", "headless")
    run("dir", "join", "mirror-account-users", "h")
    run("reconcile", "--once")
    capsys.readouterr()
    assert run("state", "export") == 0
    assert "[redacted]" in capsys.readouterr().out
    assert run("state", "export", "--reveal-secrets") == 0
    assert "[redacted]" not in capsys.readouterr().out


def test_state_export_import_round_trip(statefile, tmp_path, capsys):
    run("scenario", "run", str(WALKTHROUGH))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run("state", "export", "--reveal-secrets", "-o", str(first)) == 0
    assert run("state", "import", str(first)) == 0
    assert run("state", "export", "--reveal-secrets", "-o", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_audit_sidecar_is_append_only(statefile, capsys):
    sidecar = Path(str(statefile) + ".audit.jsonl")
    run("dir", "add-group", "mirror-account-users")
    first = sidecar.read_text()
    run("dir", "add-user", "h", "--kind", "headless")
    run("dir", "join", "mirror-account-users", "h")
    run("reconcile", "--once")
    second = sidecar.read_text()
    assert second.startswith(first)
    world = World.load(statefile)
    assert len(second.splitlines()) == len(world.audit)
    # Every line is one canonical event record.
    seqs = [json.loads(line)["seq"] for line in second.splitlines()]
    assert seqs == list(range(1, len(seqs) + 1))


def test_vault_read_cli(statefile, capsys):
    run("scenario", "run", str(WALKTHROUGH))
    capsys.readouterr()
    email = "posts-analyze-mirror@service-accounts-project.iam.gserviceaccount.com"
    assert run("vault", "read", "--as", "posts-analyze", email) == 0
    assert "secret=" in capsys.readouterr().out
    assert run("vault", "read", "--as", "helen", email) == 1
    # Denied reads still land in the audit log.
    world = World.load(statefile)
    denied = [
        e for e in world.audit.query(action="vault.read_key", actor="helen")
        if e.outcome.value == "failure"
    ]
    assert denied


def test_report_last_json(statefile, capsys):
    run("dir", "add-group", "mirror-account-users")
    run("dir", "add-user", "h", "--kind", "headless")
    run("dir", "join", "mirror-account-users", "h")
    run("reconcile", "--once")
    capsys.readouterr()
    assert run("report", "last", "--format", "json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tick_id"] == 1 and len(report["created"]) == 1


def test_cloud_show_and_set_quota(statefile, capsys):
    run("dir", "add-group", "mirror-account-users")
    run("dir", "add-user", "h", "--kind", "headless")
    run("dir", "join", "mirror-account-users", "h")
    run("reconcile", "--once")
    capsys.readouterr()
    assert run("cloud", "show", "service-accounts-project") == 0
    assert run("cloud", "set-quota", "service-accounts-project", "500") == 0
    assert "500" in capsys.readouterr().out
    assert run("cloud", "show", "nope") == 1


def test_audit_query_cli(statefile, capsys):
    run("scenario", "run", str(WALKTHROUGH))
    capsys.readouterr()
    assert run("audit", "query", "--action", "authorize", "--tick", "0") == 0
    assert "0 event(s)" in capsys.readouterr().out
    assert run("audit", "query", "--action", "authorize") == 0
    out = capsys.readouterr().out
    assert out.startswith("5 event(s)")


def test_golden_fixture_imports_clean_and_regenerates(statefile, tmp_path):
    """The committed snapshot is exactly what the walkthrough produces."""
    golden = Path(__file__).resolve().parent / "fixtures" / "partly-cloudy.json"
    assert run("state", "import", str(golden)) == 0
    assert run("verify", "--converged") == 0

    fresh = tmp_path / "fresh.json"
    assert main(["--state", str(fresh), "init", "--seed", "123"]) == 0
    assert main(["--state", str(fresh), "scenario", "run", str(WALKTHROUGH),
                 "--strict"]) == 0
    regenerated = tmp_path / "regenerated.json"
    assert main(["--state", str(fresh), "state", "export", "--reveal-secrets",
                 "-o", str(regenerated)]) == 0
    assert regenerated.read_bytes() == golden.read_bytes()


def test_the_golden_fixture_is_the_v1_fixture_less_its_key_histories(statefile, tmp_path):
    """Key versions no longer store ``state_history``; nothing else in the export moved."""
    fixtures = Path(__file__).resolve().parent / "fixtures"
    golden, v1 = fixtures / "partly-cloudy.json", fixtures / "partly-cloudy.v1.json"
    assert oracles.export_with_histories(golden.read_text(encoding="utf-8")).encode() == (
        v1.read_bytes())
    assert run("state", "import", str(v1)) == 0
    exported = tmp_path / "exported.json"
    assert run("state", "export", "--reveal-secrets", "-o", str(exported)) == 0
    assert exported.read_bytes() == golden.read_bytes()


def test_dispatch_reuses_in_memory_session():
    session = Session(state_path=None, world=World.new(seed=1))
    out, err = dispatch(session, ["dir", "add-group", "mirror-account-users"])
    assert err is None and "added group" in out
    out, err = dispatch(session, ["dir", "join", "mirror-account-users", "ghost"])
    assert err is not None and "UnknownPrincipal" in err
    assert session.world.directory.has_group("mirror-account-users")


def test_run_script_strict_stops_after_failure():
    session = Session(state_path=None, world=World.new(seed=1))
    text = "dir join nope ghost\ndir add-group mirror-account-users\n"
    entries = run_script(text, lambda argv: dispatch(session, argv), strict=True)
    assert [e.status for e in entries] == ["error"]
    assert not session.world.directory.has_group("mirror-account-users")


@pytest.mark.parametrize(
    "document",
    ['{"sharding_mode": "bogus"}', '{"rotation_age": "5m"}', "not json",
     '{"quota_default": "many"}'],
)
def test_bad_config_file_is_a_parse_error(tmp_path, monkeypatch, capsys, document):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(document, encoding="utf-8")
    assert run("init", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert "error: ParseError" in err and "Traceback" not in err
    assert not (tmp_path / "world.json").exists()


def test_bad_config_flag_is_a_parse_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("init", "--quota-default", "0") == 1
    err = capsys.readouterr().err
    assert "error: ParseError" in err and "Traceback" not in err
    assert not (tmp_path / "world.json").exists()


def test_audit_tail_count_of_zero_prints_nothing(statefile, capsys):
    world = World.load(statefile)
    assert len(world.audit) > 0 and world.audit.tail(0) == []
    capsys.readouterr()
    assert run("audit", "tail", "-n", "0") == 0
    assert capsys.readouterr().out == ""


def test_audit_tail_rejects_a_negative_count(statefile, capsys):
    capsys.readouterr()
    assert run("audit", "tail", "-n", "-1") == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("org_unit", ["gs://evil", "", "Dev", "dev\n"])
def test_add_user_rejects_a_bad_org_unit(statefile, capsys, org_unit):
    # Each would name a folder and project the placement rule cannot use or
    # share: gs:// is stripped from the project id, "" gives "-service-...",
    # "Dev" shares folder DEVIAM with "dev", and "dev\n" splits tree lines.
    assert run("dir", "add-user", "ana", "--kind", "human", "--org-unit", org_unit) == 1
    assert capsys.readouterr().err == f"error: InvalidName: illegal org unit {org_unit!r}\n"
    assert run("dir", "show", "ana") == 1


@pytest.mark.parametrize("base_project", ["gs://evil", "", "Bad", "x\n"])
def test_a_bad_base_project_is_refused_by_init_and_import(tmp_path, monkeypatch, capsys,
                                                         base_project):
    # gs:// is stripped from the project id but not from the quota lookup, so
    # every tick failed; "" named a project "" and mirrors "...@.iam...".
    monkeypatch.chdir(tmp_path)
    assert run("init", "--base-project", base_project) == 1
    assert "error: ParseError" in capsys.readouterr().err
    assert not (tmp_path / "world.json").exists()

    assert run("init") == 0
    snapshot = tmp_path / "snapshot.json"
    assert run("state", "export", "-o", str(snapshot)) == 0
    data = json.loads(snapshot.read_text(encoding="utf-8"))
    data["config"]["base_project"] = base_project
    snapshot.write_text(json.dumps(data), encoding="utf-8")
    before = (tmp_path / "world.json").read_bytes()
    capsys.readouterr()
    assert run("state", "import", str(snapshot)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError") and "(at /config)" in err
    assert (tmp_path / "world.json").read_bytes() == before


def test_exports_and_transcripts_are_owner_only(statefile, tmp_path):
    export, transcript = tmp_path / "export.json", tmp_path / "transcript.json"
    umask = os.umask(0o022)
    try:
        assert run("scenario", "run", str(WALKTHROUGH), "--transcript", str(transcript)) == 0
        assert run("state", "export", "--reveal-secrets", "-o", str(export)) == 0
    finally:
        os.umask(umask)
    assert export.stat().st_mode & 0o777 == 0o600
    assert transcript.stat().st_mode & 0o777 == 0o600


def test_onboarding_without_an_organization_is_a_command_error(statefile, tmp_path, capsys):
    run("dir", "add-group", "mirror-account-users")
    run("dir", "add-user", "helen", "--kind", "human",
        "--hdfs-home", "/dc1/cluster1/user/helen")
    run("dir", "join", "mirror-account-users", "helen")
    run("reconcile", "--once")
    snapshot = tmp_path / "snapshot.json"
    assert run("state", "export", "--reveal-secrets", "-o", str(snapshot)) == 0
    data = json.loads(snapshot.read_text(encoding="utf-8"))
    data["cloud"]["nodes"] = [n for n in data["cloud"]["nodes"] if n["kind"] != "organization"]
    snapshot.write_text(json.dumps(data), encoding="utf-8")
    assert run("state", "import", str(snapshot)) == 0
    capsys.readouterr()
    assert run("onboard", "bucket", "helen") == 1
    assert "error: ControlPlaneError: cloud has no organization node" in capsys.readouterr().err


# -- write commands the walkthrough leaves out ------------------------------------

HELEN_MIRROR = "helen-mirror@service-accounts-project.iam.gserviceaccount.com"
POSTS_MIRROR = "posts-analyze-mirror@service-accounts-project.iam.gserviceaccount.com"


@pytest.fixture
def walked(statefile, capsys):
    assert run("scenario", "run", str(WALKTHROUGH), "--strict") == 0
    capsys.readouterr()
    return statefile


def test_dir_remove_names_the_groups_left(walked, capsys):
    assert run("dir", "remove", "helen") == 0
    assert capsys.readouterr().out == (
        "removed helen (was in: mirror-account-users, reader-user.posts-analyze.dp.domain)\n"
    )


def test_dir_show_group_lists_members(walked, capsys):
    assert run("dir", "show", "mirror-account-users") == 0
    assert capsys.readouterr().out == "mirror-account-users: posts-analyze, helen\n"


def test_cloud_show_mirror_lists_its_actas_grant(walked, capsys):
    assert run("cloud", "show", HELEN_MIRROR) == 0
    assert capsys.readouterr().out == (
        f"service account {HELEN_MIRROR}: source=helen "
        "project=service-accounts-project status=active\n"
        "  act-as -> workspace:helen\n"
    )


def test_authz_job_reports_each_access(walked, capsys):
    assert run("authz", "job", "--as", "posts-analyze", POSTS_MIRROR,
               "--access", "user.posts-analyze.dp.domain:write",
               "--access", "user.helen.dp.domain:write",
               "--access", "gs://nope:read") == 0
    assert capsys.readouterr().out == (
        f"job-0001 as {POSTS_MIRROR}\n"
        "  write user.posts-analyze.dp.domain: ALLOW Owner\n"
        "  write user.helen.dp.domain: DENY NotAuthorized\n"
        "  read gs://nope: UnknownBucket: no bucket 'gs://nope'\n"
    )


def test_authz_job_rejects_an_access_without_action(walked, capsys):
    assert run("authz", "job", "--as", "posts-analyze", POSTS_MIRROR,
               "--access", "nocolon") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: ControlPlaneError: bad --access 'nocolon'; expected BUCKET:read|write\n"
    )


def test_reconcile_ticks_runs_and_advances_per_tick(walked, capsys):
    assert run("reconcile", "--ticks", "2") == 0
    out = capsys.readouterr().out
    assert out.startswith("tick 2 at t=0\n") and "\ntick 3 at t=15\n" in out
    assert out.count("tick ") == 2
    assert run("clock", "show") == 0
    assert capsys.readouterr().out == "t=30\n"


def test_reconcile_zero_ticks_prints_nothing(walked, capsys):
    before = walked.read_bytes()
    assert run("reconcile", "--ticks", "0") == 0
    assert capsys.readouterr().out == ""
    assert walked.read_bytes() == before


def test_reconcile_rejects_a_negative_tick_count(walked, capsys):
    before = walked.read_bytes()
    assert run("reconcile", "--ticks", "-1") == 1
    assert capsys.readouterr().out == ""
    assert walked.read_bytes() == before


def test_reconcile_once_and_ticks_is_a_command_error(walked, capsys):
    assert run("reconcile", "--once", "--ticks", "1") == 1
    assert capsys.readouterr().err == (
        "error: ControlPlaneError: use either --once or --ticks, not both\n"
    )


def test_readers_join_unknown_bucket_is_not_found(walked, capsys):
    assert run("readers", "join", "gs://nope", "helen") == 1
    assert capsys.readouterr().err == (
        "error: NotFound: no reader group pair for bucket 'gs://nope'\n"
    )


# -- ids, secrets and counters an imported state may hold --------------------------

ZED_MIRROR = "zed-mirror@service-accounts-project.iam.gserviceaccount.com"


def entry_of(data: dict, email: str) -> dict:
    (entry,) = [e for e in data["vault"]["entries"] if e["account_email"] == email]
    return entry


def test_a_stale_next_serial_cannot_revive_a_revoked_token(walked, tmp_path, capsys):
    assert run("authz", "token", "--as", "posts-analyze", POSTS_MIRROR) == 0
    for argv in (["clock", "advance", "7d"], ["reconcile", "--once"],
                 ["clock", "advance", "2d"], ["reconcile", "--once"]):
        assert run(*argv) == 0
    check = ("authz", "check", "tok-000003", "user.posts-analyze.dp.domain", "read")
    capsys.readouterr()
    assert run(*check) == 0
    assert capsys.readouterr().out == "DENY InvalidToken\n"

    def stale(data):
        entry = entry_of(data, POSTS_MIRROR)
        assert entry["next_serial"] == 3
        entry["next_serial"] = 1

    assert reimport(tmp_path, stale) == 0
    capsys.readouterr()
    assert run("verify") == 2
    assert capsys.readouterr().out == (
        f"IdReuseViolation [{POSTS_MIRROR}]: next key id '{POSTS_MIRROR}#v1' is already held\n"
    )
    # The rotation refuses to reissue #v1; the tick lists it and goes on with helen.
    assert run("clock", "advance", "7d") == 0
    capsys.readouterr()
    assert run("reconcile", "--once") == 0
    out = capsys.readouterr().out
    assert f"  rotated: 1\n    {HELEN_MIRROR}\n" in out
    assert (
        f"  errors: 1\n    posts-analyze: DuplicateId: key id '{POSTS_MIRROR}#v1' "
        "is already held; next_serial is stale\n"
    ) in out
    assert run(*check) == 0
    assert capsys.readouterr().out == "DENY InvalidToken\n"


def test_a_stale_tokens_next_cannot_reissue_a_token(walked, tmp_path, capsys):
    assert run("authz", "token", "--as", "posts-analyze", POSTS_MIRROR) == 0

    def stale(data):
        data["tokens"]["next"] = 1

    assert reimport(tmp_path, stale) == 0
    capsys.readouterr()
    assert run("verify") == 2
    assert capsys.readouterr().out == (
        "IdReuseViolation [tokens]: next token id 'tok-000001' is already held\n"
    )
    assert run("authz", "token", "--as", "workspace:helen", HELEN_MIRROR) == 1
    assert capsys.readouterr().err == (
        "error: DuplicateId: token id 'tok-000001' is already held; tokens.next is stale\n"
    )
    world = World.load(walked)
    assert world.tokens.get("tok-000001").subject == POSTS_MIRROR
    last = world.audit.events()[-1]
    assert (last.actor, last.action, last.target, last.outcome.value) == (
        "workspace:helen", "authn.impersonate", HELEN_MIRROR, "failure",
    )


def test_a_secret_held_by_two_keys_is_reported(walked, tmp_path, capsys):
    def reset(data):
        data["secrets"]["counter"] = 0

    assert reimport(tmp_path, reset) == 0
    for argv in (["dir", "add-user", "zed", "--kind", "headless"],
                 ["dir", "join", "mirror-account-users", "zed"], ["reconcile", "--once"]):
        assert run(*argv) == 0
    capsys.readouterr()
    assert run("verify") == 2
    assert capsys.readouterr().out == (
        f"SecretReuseViolation [{ZED_MIRROR}#v1]: secret also held by '{POSTS_MIRROR}#v1'\n"
    )


def test_an_imported_redacted_export_verifies_clean(walked, tmp_path, capsys):
    redacted = tmp_path / "redacted.json"
    assert run("state", "export", "-o", str(redacted)) == 0
    assert run("state", "import", str(redacted)) == 0
    capsys.readouterr()
    assert run("verify") == 0
    assert capsys.readouterr().out == "ok: no violations\n"


@pytest.mark.parametrize(("section", "edit"), [
    # Each of these loaded, then crashed a later tick or rotation with a traceback.
    ("secrets", lambda data: data["secrets"].update(counter="7")),
    ("vault", lambda data: entry_of(data, POSTS_MIRROR).update(next_serial="2")),
    ("config", lambda data: data["config"].update(tick_interval=-15)),
], ids=["secrets.counter", "next_serial", "tick_interval"])
def test_a_bad_loaded_value_fails_the_import(walked, tmp_path, capsys, section, edit):
    before = walked.read_bytes()
    capsys.readouterr()
    assert reimport(tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError") and f"(at /{section})" in err
    assert walked.read_bytes() == before


@pytest.mark.parametrize("document", ['{"tick_interval": 0}', '{"tick_interval": "0m"}'])
def test_init_refuses_a_tick_interval_below_one(tmp_path, monkeypatch, capsys, document):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(document, encoding="utf-8")
    assert run("init", "--config", str(config)) == 1
    assert capsys.readouterr().err == (
        "error: ParseError: bad config: tick_interval must be positive\n"
    )
    assert not (tmp_path / "world.json").exists()


@pytest.mark.parametrize(("key", "value"), [
    # Each loaded and verified ok; a 15.5 tick_interval saved a clock of 15.5
    # on the next tick, which no later command could load.
    ("tick_interval", 15.5), ("retiring_grace", 2.5), ("quota_default", True),
    ("rotation_age", "7d"),
])
def test_an_untyped_config_value_fails_the_import_and_init(walked, tmp_path, capsys, key, value):
    before = walked.read_bytes()
    capsys.readouterr()
    assert reimport(tmp_path, lambda data: data["config"].update({key: value})) == 1
    assert capsys.readouterr().err == (
        "error: SchemaError: malformed section (at /config): "
        f"{key} must be a non-negative integer, not {value!r}\n"
    )
    if not isinstance(value, str):  # a config file writes durations as "7d"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert run("init", "--force", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith("error: ParseError: ")
    assert walked.read_bytes() == before


def test_verify_reports_a_held_key_id_beyond_the_next(walked, tmp_path, capsys):
    def plant(data):
        entry = entry_of(data, POSTS_MIRROR)
        assert entry["next_serial"] == 2
        entry["versions"].insert(0, dict(
            entry["versions"][0], key_id=f"{POSTS_MIRROR}#v3", secret="f" * 32,
            state="invalid", retiring_since=0,
        ))

    assert reimport(tmp_path, plant) == 0
    capsys.readouterr()
    assert run("verify") == 2
    # No vault.expire_key or vault.revoke_key event invalidated the planted #v3.
    assert capsys.readouterr().out == (
        f"IdReuseViolation [{POSTS_MIRROR}]: key id '{POSTS_MIRROR}#v3' is already held "
        "(next_serial is 2)\n"
        f"LifecycleViolation [{POSTS_MIRROR}#v3]: state disagrees with the audit\n"
    )


def test_verify_reports_a_held_token_id_beyond_the_next(walked, tmp_path, capsys):
    def plant(data):
        tokens = data["tokens"]
        tokens["tokens"] = [t for t in tokens["tokens"] if t["token_id"] == "tok-000002"]
        tokens["next"] = 1

    assert reimport(tmp_path, plant) == 0
    capsys.readouterr()
    assert run("verify") == 2
    assert capsys.readouterr().out == (
        "IdReuseViolation [tokens]: token id 'tok-000002' is already held (tokens.next is 1)\n"
    )


def quota_of(data: dict, project: str) -> dict:
    (quota,) = [q for q in data["cloud"]["quotas"] if q["project"] == project]
    return quota


@pytest.mark.parametrize("edit", [
    # The first two loaded, then crashed verify or a tick with a TypeError; the
    # third made every tick that overflows a full project create another one.
    lambda data: quota_of(data, "service-accounts-project").update(current_count="2"),
    lambda data: data["cloud"].update(default_quota="7"),
    lambda data: data["cloud"].update(default_quota=0),
    lambda data: quota_of(data, "service-accounts-project").update(max_service_accounts=0),
    lambda data: quota_of(data, "service-accounts-project").update(max_service_accounts=True),
], ids=["current_count str", "default_quota str", "default_quota 0",
        "max_service_accounts 0", "max_service_accounts bool"])
def test_a_bad_quota_number_fails_the_import(walked, tmp_path, capsys, edit):
    before = walked.read_bytes()
    capsys.readouterr()
    assert reimport(tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError") and "(at /cloud)" in err
    assert walked.read_bytes() == before


# -- unreadable input ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("--state", "adir", "clock", "show"),
    ("--state", "adir", "init", "--force"),
    ("state", "import", "adir"),
    ("scenario", "run", "adir"),
], ids=" ".join)
def test_a_directory_given_as_input_is_a_usage_error(statefile, capsys, argv):
    (statefile.parent / "adir").mkdir()
    names = sorted(p.name for p in statefile.parent.iterdir())
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "'adir' is a directory" in captured.err
    assert sorted(p.name for p in statefile.parent.iterdir()) == names


NOT_JSON = "error: SchemaError: state file is not valid JSON"


@pytest.mark.parametrize("argv, expect", [
    (("--state", "utf16.json", "clock", "show"), NOT_JSON),
    (("state", "import", "utf16.json"), NOT_JSON),
    (("scenario", "run", "utf16.json"), "error: ParseError: script is not UTF-8 text"),
], ids=["state", "state import", "scenario run"])
def test_input_that_is_not_utf8_is_a_command_error(statefile, capsys, argv, expect):
    (statefile.parent / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
    before = statefile.read_bytes()
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(expect)
    assert statefile.read_bytes() == before


# -- exit codes ----------------------------------------------------------------------


@pytest.fixture
def exit_three():
    """A command that only calls ``ctx.exit(3)``, registered for one test."""
    @cli.command("exit-three")
    @click.pass_context
    def exit_three(ctx: click.Context) -> None:
        ctx.exit(3)

    yield
    del cli.commands["exit-three"]


def test_an_exit_code_from_click_is_kept(statefile, tmp_path, capsys, exit_three):
    assert run("exit-three") == 3
    script = tmp_path / "exit.txt"
    script.write_text("exit-three\nclock show\n", encoding="utf-8")
    assert run("scenario", "run", str(script)) == 0
    assert capsys.readouterr().out == (
        "L1 [error] exit-three\n    Exit: code 3\nL2 [ok] clock show\n    t=0\n"
    )


def test_the_module_entry_point_exits_with_the_documented_codes(tmp_path):
    src = str(Path(mirrorplane.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def mirrorplane_cli(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "mirrorplane", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)

    done = mirrorplane_cli("init", "--seed", "1")
    assert (done.returncode, done.stderr) == (0, "")
    done = mirrorplane_cli("init")
    assert (done.returncode, done.stderr) == (
        1, "error: ControlPlaneError: state file world.json exists; use --force to overwrite\n",
    )
    state = tmp_path / "world.json"
    data = json.loads(state.read_text(encoding="utf-8"))
    data["directory"]["groups"].append({"name": "planted", "members": ["ghost"]})
    state.write_text(json.dumps(data), encoding="utf-8")
    done = mirrorplane_cli("verify")
    assert (done.returncode, done.stdout) == (
        2, "ReferentialIntegrityViolation [planted]: member 'ghost' does not exist\n",
    )


def test_a_non_utf8_argument_is_a_command_error_that_touches_no_file(tmp_path):
    src = str(Path(mirrorplane.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUTF8="1")  # argv decodes with surrogateescape

    def mirrorplane_cli(*argv: bytes) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "mirrorplane", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=60)

    assert mirrorplane_cli(b"init").returncode == 0
    files = lambda: sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())  # noqa: E731
    before = files()
    for argv, shown in (
        ([b"vault", b"read", b"--as", b"\xff", b"nobody@x.iam.gserviceaccount.com"], b"'\\udcff'"),
        ([b"authz", b"token", b"--as", b"\xff", b"nobody@x.iam.gserviceaccount.com"], b"'\\udcff'"),
        ([b"--state", b"\xff.json", b"init"], b"'\\udcff.json'"),
    ):
        done = mirrorplane_cli(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, b"", b"error: ParseError: argument " + shown + b" is not UTF-8 text\n",
        )
        assert files() == before
