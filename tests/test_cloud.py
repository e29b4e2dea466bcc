import pytest

from mirrorplane import MirrorAccount, NodeKind, PrincipalKind, Role, World
from mirrorplane.cloud import AccountStatus, sa_principal, workspace_principal
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP
from mirrorplane.errors import (
    AlreadyDisabled,
    DuplicateEmail,
    DuplicateId,
    IllegalParent,
    IllegalRoleForNode,
    InvalidQuota,
    NotFound,
    QuotaExceeded,
    UnknownAccount,
    UnknownNode,
)
from mirrorplane.reconciler import ReconcileConfig, ShardingMode

from conftest import SAP, mirror


@pytest.fixture
def cloud(world):
    world.cloud.create_node(NodeKind.FOLDER, "IAMSTORE", "org")
    world.cloud.create_node(NodeKind.PROJECT, SAP, "IAMSTORE")
    return world.cloud


def test_fig2_topology_builds(cloud):
    cloud.create_node(NodeKind.FOLDER, "DATASTORE", "org")
    cloud.create_node(NodeKind.PROJECT, "shared-gcs-storage-project", "DATASTORE")
    cloud.create_node(NodeKind.FOLDER, "DATAINFRA", "org")
    cloud.create_node(NodeKind.PROJECT, "shared-data-infra-project", "DATAINFRA")
    assert cloud.node(SAP).parent == "IAMSTORE"
    assert cloud.node("IAMSTORE").parent == "org"


@pytest.mark.parametrize(
    "kind,parent",
    [
        (NodeKind.SERVICE_ACCOUNT, "org"),
        (NodeKind.BUCKET, "org"),
        (NodeKind.BUCKET, "IAMSTORE"),
        (NodeKind.FOLDER, SAP),
        (NodeKind.CLOUD_GROUP, SAP),
    ],
)
def test_illegal_parents(cloud, kind, parent):
    with pytest.raises(IllegalParent):
        cloud.create_node(kind, "x", parent)


@pytest.mark.parametrize(("kind", "parent", "message"), [
    (NodeKind.ORGANIZATION, "org", "organization is the root and takes no parent"),
    (NodeKind.FOLDER, None, "folder requires a parent"),
])
def test_only_the_organization_has_no_parent(cloud, kind, parent, message):
    with pytest.raises(IllegalParent, match=f"^{message}$"):
        cloud.create_node(kind, "x", parent)


def test_a_service_account_lives_only_in_a_project(cloud):
    with pytest.raises(UnknownNode, match="^'IAMSTORE' is not a project$"):
        cloud.create_service_account("IAMSTORE", "helen-mirror", "helen")
    assert not cloud.accounts()


def test_duplicate_ids_rejected(cloud):
    with pytest.raises(DuplicateId):
        cloud.create_node(NodeKind.FOLDER, "IAMSTORE", "org")
    with pytest.raises(DuplicateId):
        cloud.create_node(NodeKind.ORGANIZATION, "org2", None)
    with pytest.raises(UnknownNode):
        cloud.create_node(NodeKind.PROJECT, "p", "missing-folder")


def test_create_service_account_email_form(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    assert email == mirror("helen")
    assert cloud.account(email).source_principal == "helen"
    assert cloud.node(email).kind is NodeKind.SERVICE_ACCOUNT
    assert cloud.quota(SAP).current_count == 1


def test_quota_exceeded_signals_sharding(cloud):
    cloud.set_quota(SAP, 2)
    cloud.create_service_account(SAP, "a-mirror", "a")
    cloud.create_service_account(SAP, "b-mirror", "b")
    with pytest.raises(QuotaExceeded):
        cloud.create_service_account(SAP, "c-mirror", "c")


def test_duplicate_email_rejected(cloud):
    cloud.create_service_account(SAP, "helen-mirror", "helen")
    with pytest.raises(DuplicateEmail):
        cloud.create_service_account(SAP, "helen-mirror", "helen")


def test_disabled_email_reprovisions_fresh(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    cloud.bind_role(email, Role.ACT_AS, workspace_principal("helen"))
    cloud.disable_service_account(email)
    again = cloud.create_service_account(SAP, "helen-mirror", "helen")
    assert again == email
    assert cloud.account(email).status is AccountStatus.ACTIVE
    assert cloud.node(email).bindings == []  # stale grants do not survive
    assert cloud.quota(SAP).current_count == 1  # record replaced, not added


def test_bind_role_legality(cloud, world):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    cloud.create_node(NodeKind.FOLDER, "DATASTORE", "org")
    cloud.create_node(NodeKind.PROJECT, "shared-gcs-storage-project", "DATASTORE")
    cloud.create_node(NodeKind.BUCKET, "user.helen.dp.domain", "shared-gcs-storage-project")

    cloud.bind_role(email, Role.ACT_AS, workspace_principal("helen"))
    cloud.bind_role("user.helen.dp.domain", Role.BUCKET_OWNER, sa_principal(email))
    with pytest.raises(IllegalRoleForNode):
        cloud.bind_role(email, Role.BUCKET_READER, "anyone")
    with pytest.raises(IllegalRoleForNode):
        cloud.bind_role("user.helen.dp.domain", Role.GROUP_MEMBER, sa_principal(email))
    with pytest.raises(UnknownNode):
        cloud.bind_role("missing", Role.BUCKET_READER, "anyone")


def test_bind_role_idempotent(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    cloud.bind_role(email, Role.ACT_AS, workspace_principal("helen"))
    events = len(cloud._audit)
    cloud.bind_role(email, Role.ACT_AS, workspace_principal("helen"))
    assert len(cloud.node(email).bindings) == 1
    assert len(cloud._audit) == events  # re-grant is not a mutation


def test_bind_role_reports_whether_it_added_the_binding(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    assert cloud.bind_role(email, Role.ACT_AS, workspace_principal("helen")) is True
    assert cloud.bind_role(email, Role.ACT_AS, workspace_principal("helen")) is False


def test_unbind_role(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    principal = workspace_principal("helen")
    cloud.bind_role(email, Role.ACT_AS, principal)
    assert cloud.unbind_role(email, Role.ACT_AS, principal) is True
    assert cloud.unbind_role(email, Role.ACT_AS, principal) is False
    assert cloud.node(email).bindings == []


def test_disable_service_account(cloud):
    email = cloud.create_service_account(SAP, "posts-analyze-mirror", "posts-analyze")
    assert cloud.disable_service_account(email).status is AccountStatus.DISABLED
    with pytest.raises(AlreadyDisabled):
        cloud.disable_service_account(email)
    with pytest.raises(UnknownAccount):
        cloud.disable_service_account(mirror("ghost"))


def test_lookup(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    cloud.create_node(NodeKind.FOLDER, "DATASTORE", "org")
    cloud.create_node(NodeKind.PROJECT, "shared-gcs-storage-project", "DATASTORE")
    cloud.create_node(NodeKind.BUCKET, "user.helen.dp.domain", "shared-gcs-storage-project")

    found = cloud.lookup(email)
    assert isinstance(found, MirrorAccount) and found.source_principal == "helen"
    node = cloud.lookup("gs://user.helen.dp.domain")
    assert node.kind is NodeKind.BUCKET
    with pytest.raises(NotFound):
        cloud.lookup("nope")


def test_set_quota_bounds(cloud):
    cloud.create_service_account(SAP, "a-mirror", "a")
    cloud.create_service_account(SAP, "b-mirror", "b")
    with pytest.raises(InvalidQuota):
        cloud.set_quota(SAP, 0)
    with pytest.raises(InvalidQuota):
        cloud.set_quota(SAP, 1)  # below current usage
    assert cloud.set_quota(SAP, 2).max_service_accounts == 2


def test_active_mirror_lookup_is_status_aware(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    assert cloud.active_mirror_for("helen") == email
    cloud.disable_service_account(email)
    assert cloud.active_mirror_for("helen") is None


def test_tree_walk_terminates_at_org(cloud):
    email = cloud.create_service_account(SAP, "helen-mirror", "helen")
    node = cloud.node(email)
    hops = 0
    while node.parent is not None:
        node = cloud.node(node.parent)
        hops += 1
        assert hops < 10
    assert node.kind is NodeKind.ORGANIZATION


def test_rendered_tree_of_a_sharded_world():
    config = ReconcileConfig(sharding_mode=ShardingMode.PER_ORG_UNIT, quota_default=1)
    world = World.new(seed=7, config=config)
    directory = world.directory
    directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for name, kind, org_unit in [
        ("helen", PrincipalKind.HUMAN, "finance"),
        ("ana", PrincipalKind.HUMAN, "finance"),  # overflows into project -2
        ("posts-analyze", PrincipalKind.HEADLESS, "eng"),
        ("bob", PrincipalKind.HUMAN, "eng"),
    ]:
        directory.add_principal(name, kind, f"/dc1/cluster1/user/{name}", org_unit)
        directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    world.reconciler.reconcile_tick()
    world.onboarder.provision_bucket("helen")
    world.onboarder.provision_bucket("posts-analyze")
    directory.leave_group(SOURCE_OF_TRUTH_GROUP, "bob")
    world.reconciler.reconcile_tick()  # disables bob's mirror

    eng, finance = "eng-service-accounts-project", "finance-service-accounts-project"
    assert world.cloud.render_tree().splitlines() == [
        "organization: org",
        "  cloud-group: reader-user.helen.dp.domain@groups.dp.domain",
        "  cloud-group: reader-user.posts-analyze.dp.domain@groups.dp.domain",
        "  folder: DATASTORE",
        "    project: shared-gcs-storage-project [0/1 accounts]",
        "      bucket: gs://user.helen.dp.domain",
        "      bucket: gs://user.posts-analyze.dp.domain",
        "  folder: ENGIAM",
        f"    project: {eng} [1/1 accounts]",
        f"      service-account: {mirror('posts-analyze', eng)} (active)",
        f"    project: {eng}-2 [1/1 accounts]",
        f"      service-account: {mirror('bob', eng + '-2')} (disabled)",
        "  folder: FINANCEIAM",
        f"    project: {finance} [1/1 accounts]",
        f"      service-account: {mirror('helen', finance)} (active)",
        f"    project: {finance}-2 [1/1 accounts]",
        f"      service-account: {mirror('ana', finance + '-2')} (active)",
    ]


def test_a_hand_imported_node_under_a_missing_parent_is_a_child_of_that_id(tmp_path):
    data = World.new(seed=7).to_dict()
    data["cloud"]["nodes"].append(
        {"id": "stray", "kind": "project", "parent": "no-such-folder", "bindings": []})
    imported = World.from_dict(data)
    imported.save(tmp_path / "world.json")
    for world in (imported, World.load(tmp_path / "world.json")):
        assert [node.id for node in world.cloud.children("no-such-folder")] == ["stray"]
        assert world.cloud.children("stray") == []
        assert [node.id for node in world.cloud.children("org")] == []
        assert world.cloud.render_tree() == "organization: org"
