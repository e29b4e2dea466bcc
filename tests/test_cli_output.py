"""The exact stdout of every read command, and a --help page for every command."""

import json
from pathlib import Path

import click
import pytest

from mirrorplane.cli import Session, cli, dispatch, main
from mirrorplane.errors import UnknownNode
from mirrorplane.world import World

from conftest import reimport

WALKTHROUGH = Path(__file__).resolve().parent.parent / "scripts" / "partly_cloudy.txt"
HELEN_MIRROR = "helen-mirror@service-accounts-project.iam.gserviceaccount.com"
POSTS_MIRROR = "posts-analyze-mirror@service-accounts-project.iam.gserviceaccount.com"
HELEN_BUCKET = "user.helen.dp.domain"
POSTS_BUCKET = "user.posts-analyze.dp.domain"


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture
def fresh(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("init", "--seed", "42") == 0
    capsys.readouterr()
    return tmp_path / "world.json"


@pytest.fixture
def walked(fresh, capsys):
    assert run("scenario", "run", str(WALKTHROUGH), "--strict") == 0
    capsys.readouterr()
    return fresh


def stdout_of(capsys, *argv: str, code: int = 0) -> str:
    assert run(*argv) == code
    captured = capsys.readouterr()
    assert code == 2 or captured.err == ""
    return captured.out


BUCKET_SHOW = (
    f"bucket {HELEN_BUCKET} (parent=shared-gcs-storage-project)\n"
    f"  bucket-owner -> serviceAccount:{HELEN_MIRROR}\n"
    f"  bucket-reader -> group:reader-{HELEN_BUCKET}@groups.dp.domain\n"
)

REPORT = (
    "tick 1 at t=0\n"
    "  created: 2\n"
    f"    {POSTS_MIRROR}\n"
    f"    {HELEN_MIRROR}\n"
    "  rotated: 0\n"
    "  actas_granted: 1\n"
    f"    {HELEN_MIRROR}\n"
    "  decommissioned: 0\n"
    "  rejected: 0\n"
    "  errors: 0\n"
)

WALKED_READS = {
    ("dir", "show"): (
        "principals: 2\n"
        "  helen (human)\n"
        "  posts-analyze (headless)\n"
        "groups: 3\n"
        "  mirror-account-users: 2 member(s)\n"
        f"  reader-{HELEN_BUCKET}: 0 member(s)\n"
        f"  reader-{POSTS_BUCKET}: 1 member(s)\n"
    ),
    ("dir", "show", "helen"): (
        "helen: kind=human workspace=true hdfs_home=/dc1/cluster1/user/helen "
        "org_unit=general created_at=0\n"
    ),
    ("dir", "show", f"reader-{HELEN_BUCKET}"): f"reader-{HELEN_BUCKET}: (empty)\n",
    ("cloud", "tree"): (
        "organization: org\n"
        f"  cloud-group: reader-{HELEN_BUCKET}@groups.dp.domain\n"
        f"  cloud-group: reader-{POSTS_BUCKET}@groups.dp.domain\n"
        "  folder: DATASTORE\n"
        "    project: shared-gcs-storage-project [0/100 accounts]\n"
        f"      bucket: gs://{HELEN_BUCKET}\n"
        f"      bucket: gs://{POSTS_BUCKET}\n"
        "  folder: IAMSTORE\n"
        "    project: service-accounts-project [2/100 accounts]\n"
        f"      service-account: {HELEN_MIRROR} (active)\n"
        f"      service-account: {POSTS_MIRROR} (active)\n"
    ),
    ("cloud", "show", HELEN_BUCKET): BUCKET_SHOW,
    ("cloud", "show", "IAMSTORE"): "folder IAMSTORE (parent=org)\n",
    ("cloud", "show", "org"): "organization org (parent=-)\n",
    ("cloud", "show", HELEN_MIRROR): (
        f"service account {HELEN_MIRROR}: source=helen "
        "project=service-accounts-project status=active\n"
        "  act-as -> workspace:helen\n"
    ),
    ("vault", "ls"): (
        f"{HELEN_MIRROR} owner=helen versions=[active]\n"
        f"{POSTS_MIRROR} owner=posts-analyze versions=[active]\n"
    ),
    ("clock", "show"): "t=0\n",
    ("report", "last"): REPORT,
    ("audit", "tail", "-n", "2"): (
        f"#35 t=0 success authorize.read actor={HELEN_MIRROR} target={POSTS_BUCKET}\n"
        f"#36 t=0 failure authorize.write actor={HELEN_MIRROR} target={POSTS_BUCKET}\n"
    ),
    ("audit", "tail", "-n", "0"): "",
    ("audit", "query", "--action", "authorize.write"): (
        "3 event(s)\n"
        f"#29 t=0 success authorize.write actor={POSTS_MIRROR} target={POSTS_BUCKET}\n"
        f"#31 t=0 failure authorize.write actor={POSTS_MIRROR} target={HELEN_BUCKET}\n"
        f"#36 t=0 failure authorize.write actor={HELEN_MIRROR} target={POSTS_BUCKET}\n"
    ),
    ("audit", "query", "--tick", "9"): "0 event(s)\n",
    ("verify",): "ok: no violations\n",
    ("verify", "--converged"): "ok: no violations\n",
    ("verify", "--format", "json"): '{\n  "violations": []\n}\n',
}


@pytest.mark.parametrize("argv", list(WALKED_READS), ids=" ".join)
def test_read_output_on_the_walkthrough_world(walked, capsys, argv):
    assert stdout_of(capsys, *argv) == WALKED_READS[argv]


def test_reads_leave_the_state_files_alone(walked, capsys):
    sidecar = Path(f"{walked}.audit.jsonl")
    before = walked.read_bytes(), sidecar.read_bytes()
    for argv in WALKED_READS:
        run(*argv)
    run("state", "export")
    assert (walked.read_bytes(), sidecar.read_bytes()) == before


def test_report_last_json_is_the_canonical_report(walked, capsys):
    out = stdout_of(capsys, "report", "last", "--format", "json")
    assert out.endswith("}\n") and not out.endswith("\n\n")
    assert json.loads(out) == {
        "actas_granted": [HELEN_MIRROR],
        "at": 0,
        "created": [POSTS_MIRROR, HELEN_MIRROR],
        "decommissioned": [],
        "errors": [],
        "rejected": [],
        "rotated": [],
        "tick_id": 1,
    }
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_state_export_prints_the_redacted_export_once(walked, capsys):
    world = World.load(walked)
    assert stdout_of(capsys, "state", "export") == world.export_text()
    assert stdout_of(capsys, "state", "export", "--reveal-secrets") == (
        world.export_text(reveal_secrets=True)
    )


def test_state_export_to_a_file_prints_where(walked, capsys, tmp_path):
    out = tmp_path / "snapshot.json"
    assert stdout_of(capsys, "state", "export", "-o", str(out)) == f"exported to {out}\n"
    assert out.read_text(encoding="utf-8") == World.load(walked).export_text()


def test_reads_on_a_fresh_world(fresh, capsys):
    assert stdout_of(capsys, "vault", "ls") == "(vault empty)\n"
    assert stdout_of(capsys, "report", "last") == "no reconcile report yet\n"
    assert stdout_of(capsys, "report", "last", "--format", "json") == "no reconcile report yet\n"
    assert stdout_of(capsys, "dir", "show") == "principals: 0\ngroups: 0\n"
    assert stdout_of(capsys, "cloud", "tree") == "organization: org\n"
    assert stdout_of(capsys, "audit", "tail") == (
        "#1 t=0 success cloud.create_node.organization actor=control-plane target=org\n"
    )
    assert stdout_of(capsys, "audit", "tail", "-n", "0") == ""


def test_audit_tail_of_an_empty_log(fresh, capsys):
    data = json.loads(fresh.read_text(encoding="utf-8"))
    data["audit"] = []
    fresh.write_text(json.dumps(data), encoding="utf-8")
    Path(f"{fresh}.audit.jsonl").unlink()
    assert stdout_of(capsys, "audit", "tail") == "(audit log empty)\n"
    assert stdout_of(capsys, "audit", "tail", "-n", "0") == ""


ACTAS = (
    f"ActAsViolation [{POSTS_MIRROR}]: "
    "'workspace:helen' may not act as a mirror of 'posts-analyze'\n"
)


@pytest.fixture
def violated(walked):
    data = json.loads(walked.read_text(encoding="utf-8"))
    for node in data["cloud"]["nodes"]:
        if node["id"] == POSTS_MIRROR:
            node["bindings"].append({"role": "act-as", "principal": "workspace:helen"})
    walked.write_text(json.dumps(data), encoding="utf-8")
    return walked


def test_verify_prints_each_violation_and_exits_two(violated, capsys):
    assert stdout_of(capsys, "verify", code=2) == ACTAS
    assert stdout_of(capsys, "verify", "--converged", code=2) == ACTAS + (
        "ActAsViolation [act-as]: grants differ from the human-member set (missing=[], "
        f"extra=[('{POSTS_MIRROR}', 'workspace:helen')])\n"
    )
    assert stdout_of(capsys, "verify", "--format", "json", code=2) == (
        "{\n"
        '  "violations": [\n'
        "    {\n"
        '      "message": "\'workspace:helen\' may not act as a mirror of \'posts-analyze\'",\n'
        '      "rule": "ActAsViolation",\n'
        f'      "target": "{POSTS_MIRROR}"\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )
    assert capsys.readouterr().err == ""


def test_verify_inside_a_scenario_keeps_its_output(violated):
    session = Session(violated)
    assert dispatch(session, ["verify"]) == (ACTAS, "VerificationFailed: 1 violation(s)")
    assert dispatch(session, ["clock", "show"]) == ("t=0\n", None)


def test_a_failing_read_prints_only_its_error(walked, capsys):
    assert run("cloud", "show", "nope") == 1
    assert capsys.readouterr() == ("", "error: NotFound: nothing known as 'nope'\n")
    assert run("dir", "show", "nobody") == 1
    assert capsys.readouterr().out == ""


# -- gs:// names a bucket wherever a user names one --------------------------------

@pytest.mark.parametrize("form", ["gs://{}", "gs://{}/", "{}"])
def test_cloud_show_accepts_the_bucket_form(walked, capsys, form):
    assert stdout_of(capsys, "cloud", "show", form.format(HELEN_BUCKET)) == BUCKET_SHOW


def test_cloud_show_names_an_unknown_bucket_as_typed(walked, capsys):
    assert run("cloud", "show", "gs://nope") == 1
    assert capsys.readouterr() == ("", "error: NotFound: nothing known as 'gs://nope'\n")


@pytest.mark.parametrize("form", ["gs://{}", "gs://{}/"])
def test_authz_check_accepts_the_bucket_form(walked, capsys, form):
    assert stdout_of(capsys, "authz", "check", "tok-000001", form.format(POSTS_BUCKET),
                     "write") == "ALLOW Owner\n"
    assert stdout_of(capsys, "authz", "check", "tok-000002", form.format(POSTS_BUCKET),
                     "read") == "ALLOW ReaderGroup\n"
    event = World.load(walked).audit.tail(1)[0]
    assert event.target == POSTS_BUCKET


@pytest.mark.parametrize("form", ["gs://{}", "gs://{}/"])
def test_authz_job_accepts_the_bucket_form(walked, capsys, form):
    bucket = form.format(POSTS_BUCKET)
    assert stdout_of(capsys, "authz", "job", "--as", "posts-analyze", POSTS_MIRROR,
                     "--access", f"{bucket}:write",
                     "--access", f"{form.format(HELEN_BUCKET)}:read") == (
        f"job-0001 as {POSTS_MIRROR}\n"
        f"  write {bucket}: ALLOW Owner\n"
        f"  read {form.format(HELEN_BUCKET)}: DENY NotAuthorized\n"
    )


@pytest.mark.parametrize("form", ["gs://{}", "gs://{}/"])
def test_readers_join_and_leave_accept_the_bucket_form(walked, capsys, form):
    bucket = form.format(HELEN_BUCKET)
    assert stdout_of(capsys, "readers", "join", bucket, "posts-analyze") == (
        f"reader-{HELEN_BUCKET}: posts-analyze\n"
    )
    assert stdout_of(capsys, "readers", "leave", bucket, "posts-analyze") == (
        f"reader-{HELEN_BUCKET}: (empty)\n"
    )


# -- every command has a help page ---------------------------------------------------

def _commands(group: click.Group, path: tuple[str, ...] = ()):
    for name, command in sorted(group.commands.items()):
        yield (*path, name), command
        if isinstance(command, click.Group):
            yield from _commands(command, (*path, name))


COMMANDS = list(_commands(cli))


def test_the_command_tree_is_complete():
    assert len(COMMANDS) == 39  # plus the root: 40 help pages
    assert {" ".join(path) for path, _ in COMMANDS} >= {
        "dir show", "cloud tree", "cloud show", "vault ls", "clock show", "report last",
        "audit tail", "audit query", "verify", "state export",
    }


@pytest.mark.parametrize("path,command", COMMANDS, ids=[" ".join(p) for p, _ in COMMANDS])
def test_every_command_has_a_help_page(capsys, path, command):
    assert run(*path, "--help") == 0
    out = capsys.readouterr().out
    assert f" {' '.join(path)} [OPTIONS]" in out
    if command.help:
        assert command.help.splitlines()[0] in out
    for param in command.params:
        if isinstance(param, click.Option):
            assert param.opts[-1] in out


def test_cloud_show_of_an_account_without_a_node_prints_only_the_error(walked, capsys):
    data = json.loads(walked.read_text(encoding="utf-8"))
    data["cloud"]["nodes"] = [n for n in data["cloud"]["nodes"] if n["id"] != HELEN_MIRROR]
    walked.write_text(json.dumps(data), encoding="utf-8")
    assert run("cloud", "show", HELEN_MIRROR) == 1
    assert capsys.readouterr() == ("", f"error: UnknownNode: no node {HELEN_MIRROR!r}\n")


@pytest.mark.parametrize("argv", [
    ("state", "export", "-o", "{dir}"),
    ("scenario", "run", str(WALKTHROUGH), "--transcript", "{dir}"),
])
def test_an_output_path_that_is_a_directory_is_a_usage_error(fresh, capsys, tmp_path, argv):
    target = tmp_path / "out"
    target.mkdir()
    before = fresh.read_bytes()
    assert run(*(arg.format(dir=target) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"'{target}' is a directory" in captured.err
    assert fresh.read_bytes() == before and list(target.iterdir()) == []


@pytest.mark.parametrize("option", ["-o", "--transcript"])
@pytest.mark.parametrize("target, name", [
    ("world.json", "state file"),
    ("world.json.audit.jsonl", "audit sidecar"),
    ("link", "state file"),
])
def test_an_output_path_that_is_the_state_or_its_sidecar_is_a_usage_error(
        walked, capsys, tmp_path, option, target, name):
    sidecar = tmp_path / "world.json.audit.jsonl"
    (tmp_path / "link").symlink_to(walked)
    (tmp_path / "s.txt").write_text("clock show\n", encoding="utf-8")
    before = walked.read_bytes(), sidecar.read_bytes()
    argv = ("state", "export") if option == "-o" else ("scenario", "run", "s.txt")
    assert run(*argv, option, target) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"'{target}' is the {name}" in captured.err
    assert (walked.read_bytes(), sidecar.read_bytes()) == before
    assert run("verify") == 0


def test_a_scenario_line_cannot_export_over_the_state_file(walked, capsys, tmp_path):
    (tmp_path / "s.txt").write_text("state export -o world.json\n", encoding="utf-8")
    before = walked.read_bytes()
    assert run("scenario", "run", "s.txt") == 0
    assert "UsageError: Invalid value for '--output' / '-o': 'world.json' is the state file" in (
        capsys.readouterr().out)
    assert walked.read_bytes() == before


def test_stored_ids_are_taken_exactly(walked):
    cloud = World.load(walked).cloud
    assert cloud.has_node(HELEN_BUCKET) and not cloud.has_node(f"gs://{HELEN_BUCKET}")
    with pytest.raises(UnknownNode):
        cloud.node(f"gs://{HELEN_BUCKET}")
    with pytest.raises(UnknownNode):
        cloud.node(f"{HELEN_BUCKET}/")
    assert cloud.lookup(f"gs://{HELEN_BUCKET}/") is cloud.node(HELEN_BUCKET)


# -- branches the walkthrough never takes ---------------------------------------------

def test_audit_query_target_since_and_until_exclude_events(walked, capsys):
    assert run("clock", "advance", "10m") == 0
    assert run("dir", "add-group", "late") == 0
    capsys.readouterr()
    assert stdout_of(capsys, "audit", "query", "--target", HELEN_BUCKET) == (
        "2 event(s)\n"
        f"#21 t=0 success cloud.create_node.bucket actor=control-plane target={HELEN_BUCKET}\n"
        f"#31 t=0 failure authorize.write actor={POSTS_MIRROR} target={HELEN_BUCKET}\n"
    )
    assert stdout_of(capsys, "audit", "query", "--since", "5") == (
        "1 event(s)\n#37 t=10 success directory.add_group actor=control-plane target=late\n"
    )
    assert stdout_of(capsys, "audit", "query", "--until", "5").startswith("36 event(s)\n#1 t=0 ")
    assert stdout_of(capsys, "audit", "query", "--since", "5", "--until", "9") == "0 event(s)\n"


def test_a_tick_report_lists_rejected_and_failing_members(walked, capsys, tmp_path):
    assert run("dir", "add-user", "data_pipeline", "--kind", "headless") == 0
    assert run("dir", "join", "mirror-account-users", "data_pipeline") == 0
    # helen's mirror loses its service-account node, so her ActAs grant fails.
    assert reimport(tmp_path, lambda data: data["cloud"].update(
        nodes=[n for n in data["cloud"]["nodes"] if n["id"] != HELEN_MIRROR])) == 0
    capsys.readouterr()
    assert stdout_of(capsys, "reconcile", "--once") == (
        "tick 2 at t=0\n"
        "  created: 0\n"
        "  rotated: 0\n"
        "  actas_granted: 0\n"
        "  decommissioned: 0\n"
        "  rejected: 1\n"
        "    data_pipeline: UnderscoreNotSupported\n"
        "  errors: 1\n"
        f"    helen: UnknownNode: no node '{HELEN_MIRROR}'\n"
    )


def test_an_unknown_config_key_is_a_parse_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"tick_interval": "1h", "bogus": 1}', encoding="utf-8")
    assert run("init", "--config", "config.json") == 1
    assert capsys.readouterr().err == "error: ParseError: unknown config keys: ['bogus']\n"
    assert not (tmp_path / "world.json").exists()


def test_init_summarises_an_hours_valued_tick_interval(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"tick_interval": "2h"}', encoding="utf-8")
    assert stdout_of(capsys, "init", "--config", "config.json") == (
        "initialized world (seed=0, tick_interval=2h rotation_age=7d retiring_grace=2d "
        "sharding_mode=single-project base_project=service-accounts-project quota_default=100)\n"
    )


def test_impersonating_an_unknown_account_is_denied(walked, capsys):
    assert run("authz", "token", "--as", "workspace:helen", "ghost@nowhere") == 1
    assert capsys.readouterr().err == (
        "error: PermissionDenied: no ActAs grant on 'ghost@nowhere'\n"
    )


def test_impersonating_a_mirror_without_an_active_key_fails(walked, capsys, tmp_path):
    def invalidate(data):
        for entry in data["vault"]["entries"]:
            if entry["account_email"] == HELEN_MIRROR:
                entry["versions"][0].update(state="invalid", state_history=["active", "invalid"])

    assert reimport(tmp_path, invalidate) == 0
    capsys.readouterr()
    assert run("authz", "token", "--as", "workspace:helen", HELEN_MIRROR) == 1
    assert capsys.readouterr().err == (
        f"error: AuthFailure: no active key for '{HELEN_MIRROR}'\n"
    )


def test_only_a_present_reader_group_grants_read(walked, capsys, tmp_path):
    # A direct reader grant and a grant to a group with no node are skipped.
    def plant(data):
        for node in data["cloud"]["nodes"]:
            if node["id"] == HELEN_BUCKET:
                node["bindings"] += [
                    {"role": "bucket-reader", "principal": f"serviceAccount:{POSTS_MIRROR}"},
                    {"role": "bucket-reader", "principal": "group:ghost@groups.dp.domain"},
                ]

    assert reimport(tmp_path, plant) == 0
    capsys.readouterr()
    assert stdout_of(capsys, "authz", "check", "tok-000001", HELEN_BUCKET, "read") == (
        "DENY NotAuthorized\n"
    )
    assert stdout_of(capsys, "authz", "check", "tok-000002", POSTS_BUCKET, "read") == (
        "ALLOW ReaderGroup\n"
    )


def test_a_disabled_account_with_an_active_key_mints_no_token(walked, capsys, tmp_path):
    def disable(data):
        for account in data["cloud"]["accounts"]:
            if account["email"] == POSTS_MIRROR:
                account["status"] = "disabled"

    assert reimport(tmp_path, disable) == 0
    capsys.readouterr()
    assert run("authz", "token", "--as", "posts-analyze", POSTS_MIRROR) == 1
    assert capsys.readouterr().err == (
        f"error: AuthFailure: account '{POSTS_MIRROR}' is not active\n")


def test_a_token_minted_from_a_key_its_entry_does_not_hold_is_invalid(walked, capsys, tmp_path):
    def repoint(data):
        for token in data["tokens"]["tokens"]:
            if token["token_id"] == "tok-000001":
                token["minted_from"] = f"{POSTS_MIRROR}#v9"

    assert reimport(tmp_path, repoint) == 0
    capsys.readouterr()
    assert stdout_of(capsys, "authz", "check", "tok-000001", POSTS_BUCKET, "read") == (
        "DENY InvalidToken\n"
    )


def test_a_source_group_member_with_no_principal_fails_only_its_step(walked, capsys, tmp_path):
    def plant(data):
        for group in data["directory"]["groups"]:
            if group["name"] == "mirror-account-users":
                group["members"].append("ghost")

    assert reimport(tmp_path, plant) == 0
    capsys.readouterr()
    assert stdout_of(capsys, "reconcile", "--once") == (
        "tick 2 at t=0\n"
        "  created: 0\n"
        "  rotated: 0\n"
        "  actas_granted: 0\n"
        "  decommissioned: 0\n"
        "  rejected: 0\n"
        "  errors: 1\n"
        "    ghost: UnknownPrincipal: no principal named 'ghost'\n"
    )


@pytest.mark.parametrize("principal", ["", "posts.analyze"], ids=["empty", "dotted"])
def test_verify_refuses_a_bucket_id_of_an_empty_or_dotted_name(walked, capsys, tmp_path, principal):
    bucket = f"user.{principal}.dp.domain"

    def rename(data):
        for mapping in data["onboarder"]["mappings"]:
            if mapping["principal"] == "posts-analyze":
                mapping.update(principal=principal, bucket_id=bucket)

    assert reimport(tmp_path, rename) == 0
    capsys.readouterr()
    assert stdout_of(capsys, "verify", code=2) == (
        f"MappingViolation [{bucket}]: bucket id does not round-trip to {principal!r}\n"
        f"MappingViolation [{bucket}]: bucket node missing\n"
    )


def test_set_quota_of_an_unknown_project_is_unknown_node(walked, capsys):
    assert run("cloud", "set-quota", "nope", "5") == 1
    assert capsys.readouterr().err == "error: UnknownNode: no project 'nope'\n"


def test_cloud_tree_without_an_organization(walked, capsys, tmp_path):
    assert reimport(tmp_path, lambda data: data["cloud"].update(
        nodes=[n for n in data["cloud"]["nodes"] if n["kind"] != "organization"])) == 0
    capsys.readouterr()
    assert stdout_of(capsys, "cloud", "tree") == "(no organization)\n"


def test_onboarding_a_removed_principal_with_an_active_mirror(walked, capsys):
    for argv in (["dir", "add-user", "zed", "--kind", "headless",
                  "--hdfs-home", "/dc1/cluster1/user/zed"],
                 ["dir", "join", "mirror-account-users", "zed"], ["reconcile", "--once"],
                 ["dir", "remove", "zed"]):
        assert run(*argv) == 0
    capsys.readouterr()
    assert run("onboard", "bucket", "zed") == 1
    assert capsys.readouterr().err == "error: NoHdfsHome: 'zed' is not in the directory\n"


def test_importing_a_json_array_is_a_schema_error(walked, capsys, tmp_path):
    (tmp_path / "array.json").write_text("[]", encoding="utf-8")
    before = walked.read_bytes()
    assert run("state", "import", "array.json") == 1
    assert capsys.readouterr().err == (
        "error: SchemaError: state document must be a JSON object (at /)\n"
    )
    assert walked.read_bytes() == before


def test_help_through_main_and_inside_a_scenario(fresh, capsys, tmp_path):
    assert run("--help") == 0
    assert "Simulated hybrid-cloud identity control plane." in capsys.readouterr().out
    (tmp_path / "s.txt").write_text("clock show --help\nreconcile --ticks 0\n", encoding="utf-8")
    assert run("scenario", "run", "s.txt", "--strict") == 0
    out = capsys.readouterr().out
    # A help page is a successful entry; an entry with no output is its head alone.
    assert out.startswith("L1 [ok] clock show --help\n    Usage: ")
    assert "clock show [OPTIONS]\n" in out
    assert out.endswith("\nL2 [ok] reconcile --ticks 0\n")
