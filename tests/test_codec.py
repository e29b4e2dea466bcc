import copy
import importlib
import inspect
import json
import pkgutil
from enum import Enum

import pytest

import mirrorplane
from mirrorplane import AccessAction, PrincipalKind, World
from mirrorplane.codec import decode, encode
from mirrorplane.errors import SchemaError
from mirrorplane.world import compact_json
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP

from conftest import HELEN_HOME, mirror

@pytest.mark.parametrize("store", ["directory", "cloud", "vault"])
def test_to_dict_snapshot_shares_no_live_state(converged, store):
    snapshot = getattr(converged, store).to_dict()
    expected = copy.deepcopy(snapshot)
    converged.directory.add_principal("zed", PrincipalKind.HUMAN, "/dc1/cluster1/user/zed")
    converged.directory.join_group(SOURCE_OF_TRUTH_GROUP, "zed")
    converged.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "helen")
    converged.advance(converged.config.rotation_age)
    converged.reconciler.reconcile_tick()
    assert getattr(converged, store).to_dict() != expected
    assert snapshot == expected


def _optional_keys(data: dict):
    """(record, key) for every key a decoder fills with a default when absent."""
    yield data["cloud"], "default_quota"
    yield data["reconcile"], "last_report"
    for node in data["cloud"]["nodes"]:
        yield node, "parent"
    for record in data["directory"]["principals"]:
        yield record, "hdfs_home"
        yield record, "org_unit"
    for entry in data["vault"]["entries"]:
        for version in entry["versions"]:
            yield version, "retiring_since"
    for event in data["audit"]:
        yield event, "tick_id"
        yield event, "job_id"
    for token in data["tokens"]["tokens"]:
        yield token, "via_actas"


def test_document_without_optional_keys_imports_with_defaults(provisioned):
    provisioned.directory.add_principal("ana", PrincipalKind.HUMAN, HELEN_HOME, "finance")
    provisioned.advance(provisioned.config.rotation_age)
    provisioned.reconciler.reconcile_tick()  # rotates: retiring_since is set
    provisioned.authz.impersonate("helen", mirror("helen"))  # via_actas is set
    provisioned.authz.submit_job("helen", mirror("helen"), ["x"], [AccessAction.READ])
    data = json.loads(provisioned.export_text(reveal_secrets=True))
    removed = {key for record, key in _optional_keys(data) if record.pop(key) is not None}
    assert len(removed) == 9

    world = World.from_dict(data)
    assert world.directory.principal("ana").org_unit == "general"
    assert world.directory.principal("helen").hdfs_home is None
    assert world.cloud.default_quota == 100
    assert world.reconciler.last_report is None
    assert all(n.parent is None for n in world.cloud.nodes())
    assert all(e.tick_id is None and e.job_id is None for e in world.audit)
    assert all(t.via_actas is None for t in world.tokens.tokens())
    versions = [v for e in world.vault.entries() for v in e.versions]
    assert versions and all(v.retiring_since is None for v in versions)


def _enums() -> list[type[Enum]]:
    """Every Enum the package defines."""
    found = []
    for info in pkgutil.iter_modules(mirrorplane.__path__):
        module = importlib.import_module(f"mirrorplane.{info.name}")
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, Enum) and cls.__module__ == module.__name__]
    return found


ENUMS = _enums()


def test_the_enum_list_is_complete():
    assert len(ENUMS) == 11 and mirrorplane.audit.Outcome in ENUMS


@pytest.mark.parametrize("kind", ENUMS, ids=lambda kind: kind.__name__)
def test_every_enum_member_round_trips_through_the_codec(kind):
    for member in kind:
        assert encode(member) == member.value and type(encode(member)) is type(member.value)
        assert decode(kind, member.value) is member
        assert decode(kind, member) is member


@pytest.mark.parametrize("value", ["maybe", ["x"], {"x": 1}, None],
                         ids=["non-member", "unhashable list", "unhashable dict", "null"])
def test_an_outcome_that_is_no_member_fails_with_the_enums_own_error(converged, tmp_path, value):
    data = json.loads(converged.export_text(reveal_secrets=True))
    data["audit"][-1]["outcome"] = value
    path = tmp_path / "world.json"
    path.write_text(compact_json(data) + "\n", encoding="utf-8")
    world = World.load(path)
    with pytest.raises(SchemaError) as info:
        world.audit.decoded()
    assert str(info.value) == f"malformed section (at /audit): {value!r} is not a valid Outcome"
