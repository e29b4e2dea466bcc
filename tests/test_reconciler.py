import json

import pytest

from mirrorplane import (
    KeyState,
    PrincipalKind,
    ReconcileConfig,
    Role,
    ShardingMode,
    World,
    derive_mirror_name,
)
from mirrorplane.cloud import AccountStatus, RoleBinding, workspace_principal
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP
from mirrorplane.errors import NoMirror, UnderscoreNotSupported
from mirrorplane.reconciler import Reconciler

from conftest import POSTS_HOME, SAP, mirror


def test_derive_mirror_name_examples():
    assert derive_mirror_name("helen", SAP) == mirror("helen")
    assert derive_mirror_name("posts-analyze", SAP) == mirror("posts-analyze")
    with pytest.raises(UnderscoreNotSupported):
        derive_mirror_name("data_pipeline", SAP)


def test_config_validation():
    with pytest.raises(ValueError):
        ReconcileConfig(rotation_age=10, tick_interval=15).validate()
    with pytest.raises(ValueError):
        ReconcileConfig(retiring_grace=0).validate()
    ReconcileConfig().validate()


def test_select_project_single_mode_creates_base_on_demand(populated):
    reconciler = populated.reconciler
    record = populated.directory.principal("helen")
    assert reconciler.select_project(record) == SAP
    assert populated.cloud.node(SAP).parent == "IAMSTORE"
    assert populated.cloud.node("IAMSTORE").parent == "org"


def test_select_project_per_org_unit(world):
    world.config.sharding_mode = ShardingMode.PER_ORG_UNIT
    record = world.directory.add_principal(
        "dev1", PrincipalKind.HUMAN, None, org_unit="dev"
    )
    project = world.reconciler.select_project(record)
    assert project == "dev-service-accounts-project"
    assert world.cloud.node(project).parent == "DEVIAM"


def test_select_project_overflows_past_full_projects(world):
    world.config.sharding_mode = ShardingMode.PER_ORG_UNIT
    world.config.quota_default = 2
    world.cloud.default_quota = 2
    world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for i in range(5):
        world.directory.add_principal(f"dev-{i}", PrincipalKind.HEADLESS, None, org_unit="dev")
        world.directory.join_group(SOURCE_OF_TRUTH_GROUP, f"dev-{i}")
    report = world.reconciler.reconcile_tick()
    assert len(report.created) == 5 and not report.errors
    counts = {
        q.project: q.current_count
        for q in world.cloud.quotas()
        if q.current_count
    }
    assert counts == {
        "dev-service-accounts-project": 2,
        "dev-service-accounts-project-2": 2,
        "dev-service-accounts-project-3": 1,
    }
    for project in counts:
        assert world.cloud.node(project).parent == "DEVIAM"


def probe_from_the_start(reconciler, record):
    """Placement as a plain probe: base, base-2, ... from the first project every time."""
    folder, base = reconciler.placement_base(record)
    suffix = 1
    while True:
        project = base if suffix == 1 else f"{base}-{suffix}"
        reconciler.cloud.ensure_project(folder, project)
        quota = reconciler.cloud.quota(project)
        if quota.current_count < quota.max_service_accounts:
            return project
        suffix += 1


def small_quota_world(mode: ShardingMode = ShardingMode.SINGLE_PROJECT) -> World:
    world = World.new(seed=7, config=ReconcileConfig(sharding_mode=mode, quota_default=2))
    world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    return world


def join(world, name, org_unit="general"):
    world.directory.add_principal(name, PrincipalKind.HUMAN, None, org_unit=org_unit)
    world.directory.join_group(SOURCE_OF_TRUTH_GROUP, name)


def overflowing_ticks(world):
    for i in range(7):
        join(world, f"u-{i}")
    join(world, "u_bad")  # rejected before any placement
    world.reconciler.reconcile_tick()
    world.directory.remove_principal("u-1")
    world.cloud.set_quota(SAP, 3)
    for i in range(7, 10):
        join(world, f"u-{i}")
    world.reconciler.reconcile_tick()
    return world.export_text(reveal_secrets=True)


def test_placement_cursor_emits_the_probes_events(monkeypatch):
    with_cursor = overflowing_ticks(small_quota_world())
    assert '"service-accounts-project-4"' in with_cursor
    monkeypatch.setattr(Reconciler, "select_project", probe_from_the_start)
    assert overflowing_ticks(small_quota_world()) == with_cursor


def test_raised_quota_of_a_full_lower_project_takes_the_next_mirror():
    world = small_quota_world()
    for i in range(5):
        join(world, f"u-{i}")
    world.reconciler.reconcile_tick()
    assert world.cloud.quota(f"{SAP}-3").current_count == 1
    world.cloud.set_quota(SAP, 3)
    join(world, "late")
    assert world.reconciler.reconcile_tick().created == [mirror("late")]


def test_each_org_unit_base_keeps_its_own_cursor():
    world = small_quota_world(ShardingMode.PER_ORG_UNIT)
    for unit in ("dev", "ops"):
        for i in range(3):
            join(world, f"{unit}-{i}", org_unit=unit)
    world.reconciler.reconcile_tick()
    counts = {q.project: q.current_count for q in world.cloud.quotas()}
    assert counts == {
        "dev-service-accounts-project": 2,
        "dev-service-accounts-project-2": 1,
        "ops-service-accounts-project": 2,
        "ops-service-accounts-project-2": 1,
    }


def test_first_tick_converges_fresh_world(populated):
    report = populated.reconciler.reconcile_tick()
    assert sorted(report.created) == [mirror("helen"), mirror("posts-analyze")]
    assert report.actas_granted == [mirror("helen")]  # humans only
    assert report.rotated == report.decommissioned == []
    assert populated.vault.entry(mirror("helen")).owner_principal == "helen"
    assert populated.vault.entry(mirror("posts-analyze")).owner_principal == "posts-analyze"
    assert populated.cloud.has_binding(
        mirror("helen"), Role.ACT_AS, workspace_principal("helen")
    )
    assert populated.cloud.node(mirror("posts-analyze")).bindings == []


def test_second_tick_is_empty_and_silent(converged):
    events = len(converged.audit)
    report = converged.reconciler.reconcile_tick()
    assert not report.has_changes
    assert report.created == report.rotated == report.actas_granted == []
    assert len(converged.audit) == events  # no-op convergence emits nothing


def test_rotation_at_exact_boundary(converged):
    age = converged.config.rotation_age
    converged.advance(age - 1)
    assert converged.reconciler.reconcile_tick().rotated == []
    converged.advance(1)
    report = converged.reconciler.reconcile_tick()
    assert sorted(report.rotated) == [mirror("helen"), mirror("posts-analyze")]
    for email in report.rotated:
        states = [v.state for v in converged.vault.entry(email).versions]
        assert states == [KeyState.ACTIVE, KeyState.RETIRING]


def test_retiring_keys_phase_out_after_grace(converged):
    converged.advance(converged.config.rotation_age)
    converged.reconciler.reconcile_tick()
    converged.advance(converged.config.retiring_grace - 1)
    converged.reconciler.reconcile_tick()
    states = [v.state for v in converged.vault.entry(mirror("helen")).versions]
    assert states == [KeyState.ACTIVE, KeyState.RETIRING]
    converged.advance(1)
    converged.reconciler.reconcile_tick()
    states = [v.state for v in converged.vault.entry(mirror("helen")).versions]
    assert states == [KeyState.ACTIVE, KeyState.INVALID]


def test_tick_expires_a_retiring_key_with_no_retiring_since(converged):
    # The codec accepts such a version; its grace window cannot be shown.
    converged.advance(converged.config.rotation_age)
    converged.reconciler.reconcile_tick()
    data = json.loads(converged.export_text(reveal_secrets=True))
    entry = next(e for e in data["vault"]["entries"] if e["account_email"] == mirror("helen"))
    entry["versions"][1]["retiring_since"] = None
    world = World.from_dict(data)

    world.reconciler.reconcile_tick()
    states = [v.state for v in world.vault.entry(mirror("helen")).versions]
    assert states == [KeyState.ACTIVE, KeyState.INVALID]
    expired = [e.target for e in world.audit if e.action == "vault.expire_key"]
    assert expired == [mirror("helen") + "#v1"]


def test_leaving_group_decommissions(converged):
    converged.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
    report = converged.reconciler.reconcile_tick()
    assert report.decommissioned == [mirror("posts-analyze")]
    assert converged.cloud.account(mirror("posts-analyze")).status is AccountStatus.DISABLED
    assert all(
        v.state is KeyState.INVALID
        for v in converged.vault.entry(mirror("posts-analyze")).versions
    )


def test_removing_principal_decommissions_and_strips_actas(converged):
    converged.directory.remove_principal("helen")
    report = converged.reconciler.reconcile_tick()
    assert report.decommissioned == [mirror("helen")]
    assert converged.cloud.node(mirror("helen")).bindings == []


def test_decommission_requires_active_mirror(converged):
    with pytest.raises(NoMirror):
        converged.reconciler.decommission("ghost")
    converged.reconciler.decommission("helen")
    with pytest.raises(NoMirror):
        converged.reconciler.decommission("helen")


def test_removed_then_readded_principal_gets_fresh_mirror(converged):
    converged.directory.remove_principal("posts-analyze")
    converged.reconciler.reconcile_tick()
    old_versions = [
        v.key_id for v in converged.vault.entry(mirror("posts-analyze")).versions
    ]

    converged.advance(60)
    converged.directory.add_principal("posts-analyze", PrincipalKind.HEADLESS, POSTS_HOME)
    converged.directory.join_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
    report = converged.reconciler.reconcile_tick()
    assert report.created == [mirror("posts-analyze")]

    entry = converged.vault.entry(mirror("posts-analyze"))
    assert converged.cloud.account(mirror("posts-analyze")).status is AccountStatus.ACTIVE
    # Old credentials stay dead; only the fresh version is live.
    for version in entry.versions:
        if version.key_id in old_versions:
            assert version.state is KeyState.INVALID
    assert entry.active_version().key_id not in old_versions


def test_underscore_members_rejected_every_tick(populated):
    populated.directory.add_principal("ads_report", PrincipalKind.HEADLESS, None)
    populated.directory.join_group(SOURCE_OF_TRUTH_GROUP, "ads_report")
    first = populated.reconciler.reconcile_tick()
    assert first.rejected == [
        {"principal": "ads_report", "reason": "UnderscoreNotSupported"}
    ]
    assert populated.cloud.active_mirror_for("ads_report") is None
    second = populated.reconciler.reconcile_tick()
    assert second.rejected == first.rejected  # still a member, still rejected
    assert not second.has_changes


def test_tick_aborts_cleanly_without_source_group():
    world = World.new(seed=5)
    before = (world.cloud.to_dict(), world.vault.to_dict(), world.directory.to_dict())
    report = world.reconciler.reconcile_tick()
    assert len(report.errors) == 1
    assert report.errors[0]["error"] == "GroupMissing"
    assert (world.cloud.to_dict(), world.vault.to_dict(), world.directory.to_dict()) == before

    world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    report = world.reconciler.reconcile_tick()
    assert report.errors[0]["error"] == "GroupEmpty"
    assert report.tick_id == 2


def test_an_underscore_member_is_audited_as_rejected_every_tick(populated):
    populated.directory.add_principal("ads_report", PrincipalKind.HEADLESS, None)
    populated.directory.join_group(SOURCE_OF_TRUTH_GROUP, "ads_report")
    for tick_id in (1, 2):
        populated.reconciler.reconcile_tick()
        events = populated.audit.query(tick_id=tick_id, action="reconcile")
        assert [(e.action, e.target, e.outcome.value, e.category.value) for e in events] == [
            ("reconcile.reject_underscore", "ads_report", "failure", "control")]


def test_an_aborted_tick_is_audited_as_one_control_event():
    world = World.new(seed=5)
    for tick_id, reason in ((1, "GroupMissing"), (2, "GroupEmpty")):
        if tick_id == 2:
            world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
        assert world.reconciler.reconcile_tick().errors[0]["error"] == reason
        events = world.audit.query(tick_id=tick_id)
        assert [(e.action, e.target, e.outcome.value, e.category.value) for e in events] == [
            ("reconcile.abort", SOURCE_OF_TRUTH_GROUP, "failure", "control")]


def test_member_errors_do_not_abort_tick(populated):
    # Corrupt helen's would-be vault entry so her store fails mid-tick.
    populated.directory.add_principal("mallory", PrincipalKind.HUMAN, None)
    populated.vault.store_key(mirror("helen"), "mallory", "ee" * 16)
    report = populated.reconciler.reconcile_tick()
    assert [e["principal"] for e in report.errors] == ["helen"]
    assert report.errors[0]["error"] == "OwnerMismatch"
    # The other member still converged.
    assert report.created == [mirror("posts-analyze")]


def test_failed_decommission_does_not_end_the_tick(populated):
    populated.directory.add_principal("ops", PrincipalKind.HEADLESS, None)
    populated.directory.join_group(SOURCE_OF_TRUTH_GROUP, "ops")
    populated.reconciler.reconcile_tick()
    populated.vault.store_key(mirror("ops"), "ops", "ab" * 16)  # ops' v1 starts retiring
    populated.advance(populated.config.retiring_grace)
    populated.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "helen")
    populated.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
    data = json.loads(populated.export_text(reveal_secrets=True))
    data["cloud"]["nodes"] = [n for n in data["cloud"]["nodes"] if n["id"] != mirror("helen")]
    world = World.from_dict(data)

    report = world.reconciler.reconcile_tick()
    assert [(e["principal"], e["error"]) for e in report.errors] == [("helen", "UnknownNode")]
    errors = [(e.action, e.target) for e in world.audit.query(tick_id=2, action="reconcile")]
    assert errors == [("reconcile.error", "helen")]
    assert report.decommissioned == [mirror("posts-analyze")]
    states = [v.state for v in world.vault.entry(mirror("ops")).versions]
    assert states == [KeyState.ACTIVE, KeyState.INVALID]
    assert world.reconciler.reconcile_tick().tick_id == 3


def test_recycling_a_mirror_whose_node_is_missing_is_a_member_error(converged):
    converged.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "helen")
    converged.reconciler.reconcile_tick()
    converged.directory.join_group(SOURCE_OF_TRUTH_GROUP, "helen")
    data = json.loads(converged.export_text(reveal_secrets=True))
    data["cloud"]["nodes"] = [n for n in data["cloud"]["nodes"] if n["id"] != mirror("helen")]
    world = World.from_dict(data)

    report = world.reconciler.reconcile_tick()
    assert [(e["principal"], e["error"]) for e in report.errors] == [("helen", "UnknownNode")]
    assert world.cloud.account(mirror("helen")).status is AccountStatus.DISABLED
    assert world.cloud.active_mirror_for("helen") is None
    assert report.created == []
    assert world.reconciler.reconcile_tick().tick_id == 4


def test_recycling_a_mirror_revokes_its_leftover_bindings_on_the_record(converged):
    converged.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "helen")
    converged.reconciler.reconcile_tick()
    # A Disabled mirror that still holds its owner's grant, as a hand-edited state may.
    converged.cloud.bind_role(mirror("helen"), Role.ACT_AS, workspace_principal("helen"))
    converged.directory.join_group(SOURCE_OF_TRUTH_GROUP, "helen")
    report = converged.reconciler.reconcile_tick()
    assert report.created == [mirror("helen")]
    helen = [e.action for e in converged.audit.query(tick_id=report.tick_id)
             if e.target.startswith(mirror("helen"))]
    assert helen == ["cloud.unbind_role.act-as", "cloud.create_service_account",
                     "vault.store_key", "cloud.bind_role.act-as"]
    assert converged.cloud.node(mirror("helen")).bindings == [
        RoleBinding(Role.ACT_AS, workspace_principal("helen"))]


def test_rotation_is_stored_before_a_restored_actas_grant(converged):
    converged.cloud.unbind_role(mirror("helen"), Role.ACT_AS, workspace_principal("helen"))
    converged.advance(converged.config.rotation_age)
    report = converged.reconciler.reconcile_tick()
    helen = [e.action for e in converged.audit.query(tick_id=report.tick_id)
             if e.target.startswith(mirror("helen"))]
    assert helen == ["vault.store_key", "cloud.bind_role.act-as"]
    assert mirror("helen") in report.rotated
    assert report.actas_granted == [mirror("helen")]


def test_report_entries_map_to_audit_events(converged):
    converged.advance(converged.config.rotation_age)
    converged.directory.add_principal("newbie", PrincipalKind.HUMAN, None)
    converged.directory.join_group(SOURCE_OF_TRUTH_GROUP, "newbie")
    converged.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
    report = converged.reconciler.reconcile_tick()
    tick_events = converged.audit.query(tick_id=report.tick_id)

    def targets(action_prefix):
        return [e.target for e in tick_events if e.action.startswith(action_prefix)]

    for email in report.created:
        assert email in targets("cloud.create_service_account")
    for email in report.rotated:
        assert any(t.startswith(email) for t in targets("vault.store_key"))
    for email in report.actas_granted:
        assert any(t.startswith(email) for t in targets("cloud.bind_role.act-as"))
    for email in report.decommissioned:
        assert email in targets("cloud.disable_service_account")


def test_run_ticks_advances_between_ticks(populated):
    reports = populated.reconciler.run_ticks(3, populated.advance)
    assert [r.tick_id for r in reports] == [1, 2, 3]
    assert populated.clock == 3 * populated.config.tick_interval
    assert reports[1].at == populated.config.tick_interval
