import json

import pytest

from mirrorplane import PrincipalKind, World
from mirrorplane.errors import SchemaError
from mirrorplane.vault import REDACTED

from conftest import HELEN_HOME, POSTS_HOME


def build_world(seed: int = 11) -> World:
    world = World.new(seed=seed)
    directory = world.directory
    directory.add_group("mirror-account-users")
    directory.add_principal("helen", PrincipalKind.HUMAN, HELEN_HOME)
    directory.add_principal("posts-analyze", PrincipalKind.HEADLESS, POSTS_HOME)
    directory.join_group("mirror-account-users", "helen")
    directory.join_group("mirror-account-users", "posts-analyze")
    world.reconciler.reconcile_tick()
    world.onboarder.provision_bucket("helen")
    world.authz.authenticate("helen", "helen-mirror@service-accounts-project.iam.gserviceaccount.com")
    return world


def test_export_import_export_is_byte_identical():
    world = build_world()
    first = world.export_text(reveal_secrets=True)
    second = World.from_dict(json.loads(first)).export_text(reveal_secrets=True)
    assert first == second


def test_a_name_that_is_not_a_store_is_no_attribute_of_a_world():
    world = World.new(seed=1)
    with pytest.raises(AttributeError, match="'World' object has no attribute 'vaults'"):
        world.vaults
    assert not hasattr(world, "vaults") and "vaults" not in vars(world)


def test_redacted_export_round_trips_too():
    world = build_world()
    redacted = world.export_text(reveal_secrets=False)
    assert REDACTED in redacted
    reloaded = World.from_dict(json.loads(redacted))
    assert reloaded.export_text(reveal_secrets=False) == redacted


def test_same_seed_same_ops_identical_exports():
    assert build_world().export_text(True) == build_world().export_text(True)
    assert build_world(seed=1).export_text(True) != build_world(seed=2).export_text(True)


def test_reloaded_world_keeps_working():
    world = build_world()
    clone = World.from_dict(json.loads(world.export_text(reveal_secrets=True)))
    report = clone.reconciler.reconcile_tick()
    assert report.tick_id == 2
    assert not report.has_changes
    # Secret counter persisted: the next secret differs from every stored one.
    stored = {v.secret for e in clone.vault.entries() for v in e.versions}
    assert clone.secrets.next_secret() not in stored


@pytest.mark.parametrize(
    "key", ["vault", "directory", "cloud", "audit", "tokens", "clock", "config"]
)
def test_missing_section_reports_pointer(key):
    data = json.loads(build_world().export_text(reveal_secrets=True))
    del data[key]
    with pytest.raises(SchemaError) as excinfo:
        World.from_dict(data)
    assert f"/{key}" in str(excinfo.value)


def test_malformed_section_reports_pointer():
    data = json.loads(build_world().export_text(reveal_secrets=True))
    data["vault"] = {"entries": [{"nonsense": True}]}
    with pytest.raises(SchemaError) as excinfo:
        World.from_dict(data)
    assert "/vault" in str(excinfo.value)


@pytest.mark.parametrize("audit", [{}, "events", 3, None])
def test_an_audit_that_is_not_a_list_is_refused_at_load(audit):
    # The events themselves are decoded only when the log is first read.
    data = json.loads(build_world().export_text(reveal_secrets=True))
    data["audit"] = audit
    with pytest.raises(SchemaError) as excinfo:
        World.from_dict(data)
    assert str(excinfo.value).startswith("malformed section (at /audit): the audit must be a list")


@pytest.mark.parametrize("audit", [[1], [[1]], ["x"]], ids=["int", "list", "str"])
def test_an_audit_of_other_than_events_is_refused_at_the_audit(audit):
    data = json.loads(build_world().export_text(reveal_secrets=True))
    data["audit"] = audit
    with pytest.raises(SchemaError) as excinfo:
        World.from_dict(data)
    assert str(excinfo.value).startswith("malformed section (at /audit): ")


def test_bad_schema_version_and_clock():
    data = json.loads(build_world().export_text(reveal_secrets=True))
    data["schema_version"] = 99
    with pytest.raises(SchemaError):
        World.from_dict(data)
    data["schema_version"] = 1
    data["clock"] = -4
    with pytest.raises(SchemaError):
        World.from_dict(data)


@pytest.mark.parametrize("path", ["clock", "reconcile/tick_count", "tokens/next",
                                  "authz/next_job"])
@pytest.mark.parametrize("value", [True, False, "3", 2.0, -1, None])
def test_a_counter_that_is_not_a_non_negative_int_is_refused(path, value):
    data = json.loads(build_world().export_text(reveal_secrets=True))
    *parents, key = path.split("/")
    holder = data[parents[0]] if parents else data
    holder[key] = value
    with pytest.raises(SchemaError) as excinfo:
        World.from_dict(data)
    section = path.split("/")[0]
    assert f"(at /{section}): {key} must be a non-negative integer" in str(excinfo.value)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "world.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        World.load(path)


def test_save_load_file_round_trip(tmp_path):
    world = build_world()
    path = tmp_path / "world.json"
    world.save(path)
    assert World.load(path).export_text(True) == world.export_text(True)


def test_clock_only_moves_forward(world):
    world.advance(10)
    with pytest.raises(ValueError):
        world.advance(-1)
    assert world.clock == 10
