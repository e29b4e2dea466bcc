import copy
import json

import pytest

from mirrorplane import AccessAction, PrincipalKind, World
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
