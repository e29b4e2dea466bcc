"""Invariant checker behavior, including hand-corrupted snapshots.

Corruptions are introduced by editing an exported snapshot and re-importing
it, the same route a tampered state file would take.
"""

import json

from mirrorplane import PrincipalKind, World, verify_world
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP
from mirrorplane.onboarder import cloud_reader_group, ldap_reader_group

from conftest import mirror

POSTS_BUCKET = "user.posts-analyze.dp.domain"


def corrupt(world: World, edit) -> World:
    data = json.loads(world.export_text(reveal_secrets=True))
    edit(data)
    return World.from_dict(data)


def rules(violations) -> list[str]:
    return [v.rule for v in violations]


def test_converged_world_is_clean(provisioned):
    assert verify_world(provisioned, include_convergence=True) == []


def test_fresh_world_is_clean(world):
    assert verify_world(world, include_convergence=True) == []


def test_hand_granted_cross_actas_is_caught(converged):
    def edit(data):
        for node in data["cloud"]["nodes"]:
            if node["id"] == mirror("posts-analyze"):
                node["bindings"].append(
                    {"role": "act-as", "principal": "workspace:helen"}
                )

    violations = verify_world(corrupt(converged, edit))
    assert rules(violations) == ["ActAsViolation"]


def test_two_active_mirrors_is_caught(converged):
    def edit(data):
        clone = dict(
            email=mirror("helen", "elsewhere"),
            source_principal="helen",
            project="elsewhere",
            status="active",
        )
        data["cloud"]["accounts"].append(clone)
        data["cloud"]["nodes"].append(
            {"id": "elsewhere", "kind": "project", "parent": "IAMSTORE", "bindings": []}
        )
        data["cloud"]["nodes"].append(
            {
                "id": clone["email"],
                "kind": "service-account",
                "parent": "elsewhere",
                "bindings": [],
            }
        )
        data["cloud"]["quotas"].append(
            {"project": "elsewhere", "max_service_accounts": 100, "current_count": 1}
        )

    violations = verify_world(corrupt(converged, edit))
    assert "BijectionViolation" in rules(violations)


def test_quota_breach_is_caught(converged):
    def edit(data):
        for quota in data["cloud"]["quotas"]:
            quota["max_service_accounts"] = 1  # two accounts already stored

    violations = verify_world(corrupt(converged, edit))
    assert "QuotaViolation" in rules(violations)


def test_two_active_key_versions_is_caught(converged):
    def edit(data):
        entry = data["vault"]["entries"][0]
        copy = dict(entry["versions"][0])
        copy["key_id"] = entry["account_email"] + "#v99"
        entry["versions"].insert(0, copy)

    violations = verify_world(corrupt(converged, edit))
    assert "SingleActiveViolation" in rules(violations)


def test_backwards_lifecycle_is_caught(converged):
    converged.advance(converged.config.rotation_age)
    converged.reconciler.reconcile_tick()  # each v1 starts retiring, each v2 is active
    converged.advance(converged.config.retiring_grace)
    converged.directory.leave_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
    converged.reconciler.reconcile_tick()  # posts-analyze's keys are revoked, then helen's v1 expires

    def expired_to_active(data):
        data["vault"]["entries"][0]["versions"][1]["state"] = "active"

    def revoked_to_active(data):
        data["vault"]["entries"][1]["versions"][0]["state"] = "active"

    helen, posts = mirror("helen"), mirror("posts-analyze")
    assert [v.render() for v in verify_world(corrupt(converged, expired_to_active))] == [
        f"SingleActiveViolation [{helen}]: 2 active versions",
        f"LifecycleViolation [{helen}#v1]: state disagrees with the audit",
        f"LifecycleViolation [{helen}#v1]: retiring_since set",
    ]
    assert [v.render() for v in verify_world(corrupt(converged, revoked_to_active))] == [
        f"LifecycleViolation [{posts}#v2]: state disagrees with the audit",
    ]


def test_vault_owner_drift_is_caught(converged):
    def edit(data):
        data["vault"]["entries"][0]["owner_principal"] = "mallory"

    violations = verify_world(corrupt(converged, edit))
    assert "OwnershipViolation" in rules(violations)


def test_mirror_grant_on_identity_project_is_caught(converged):
    def edit(data):
        for node in data["cloud"]["nodes"]:
            if node["kind"] == "project":
                node["bindings"].append(
                    {
                        "role": "bucket-owner",
                        "principal": f"serviceAccount:{mirror('helen')}",
                    }
                )

    violations = verify_world(corrupt(converged, edit))
    assert "LockdownViolation" in rules(violations)


def test_audit_gap_is_caught(converged):
    def edit(data):
        data["audit"] = [e for e in data["audit"] if e["seq"] != 3]

    violations = verify_world(corrupt(converged, edit))
    assert "AuditGapViolation" in rules(violations)


def test_reader_group_holding_writer_grant_is_caught(provisioned):
    def edit(data):
        pair = provisioned.onboarder.pair_for(POSTS_BUCKET)
        for node in data["cloud"]["nodes"]:
            if node["id"] == POSTS_BUCKET:
                node["bindings"].append(
                    {"role": "bucket-writer", "principal": f"group:{pair.cloud_group}"}
                )

    violations = verify_world(corrupt(provisioned, edit))
    assert "ReaderGroupViolation" in rules(violations)


def test_ghost_group_member_is_caught(converged):
    def edit(data):
        data["directory"]["groups"][0]["members"].append("ghost")

    violations = verify_world(corrupt(converged, edit))
    assert "ReferentialIntegrityViolation" in rules(violations)


# -- reachable mid-flight states stay clean on the safety tier ---------------


def test_pending_decommission_is_safe_but_not_converged(converged):
    converged.directory.remove_principal("posts-analyze")
    assert verify_world(converged) == []
    pending = verify_world(converged, include_convergence=True)
    assert "BijectionViolation" in rules(pending)
    converged.reconciler.reconcile_tick()
    assert verify_world(converged, include_convergence=True) == []


def test_pending_reader_sync_is_safe_but_not_converged(provisioned):
    provisioned.directory.join_group(ldap_reader_group(POSTS_BUCKET), "helen")
    assert verify_world(provisioned) == []
    pending = verify_world(provisioned, include_convergence=True)
    assert "ReaderGroupViolation" in rules(pending)
    provisioned.onboarder.sync_reader_groups()
    assert verify_world(provisioned, include_convergence=True) == []


def test_stale_keys_flagged_only_by_convergence_tier(converged):
    converged.advance(converged.config.rotation_age + 5)
    assert verify_world(converged) == []
    assert "RotationViolation" in rules(verify_world(converged, include_convergence=True))
    converged.reconciler.reconcile_tick()
    assert verify_world(converged, include_convergence=True) == []


def test_self_actas_on_headless_mirror_fails_convergence_only(converged):
    # Name-consistent but kind-wrong: the reconciler never grants this.
    def edit(data):
        for node in data["cloud"]["nodes"]:
            if node["id"] == mirror("posts-analyze"):
                node["bindings"].append(
                    {"role": "act-as", "principal": "workspace:posts-analyze"}
                )

    corrupted = corrupt(converged, edit)
    assert verify_world(corrupted) == []
    assert "ActAsViolation" in rules(verify_world(corrupted, include_convergence=True))


def test_underscore_members_do_not_break_convergence(populated):
    populated.directory.add_principal("ads_report", PrincipalKind.HEADLESS, None)
    populated.directory.join_group(SOURCE_OF_TRUTH_GROUP, "ads_report")
    populated.reconciler.reconcile_tick()
    assert verify_world(populated, include_convergence=True) == []


# -- each remaining safety rule, planted alone -----------------------------------

HELEN_BUCKET = "user.helen.dp.domain"
SAP = "service-accounts-project"


def found(violations) -> list[tuple[str, str]]:
    return [(v.rule, v.target) for v in violations]


def node_of(data, node_id: str) -> dict:
    return next(n for n in data["cloud"]["nodes"] if n["id"] == node_id)


def add_node(data, node_id: str, kind: str, parent: str | None) -> None:
    data["cloud"]["nodes"].append(
        {"id": node_id, "kind": kind, "parent": parent, "bindings": []}
    )


def test_duplicate_group_member_is_caught(converged):
    def edit(data):
        data["directory"]["groups"][0]["members"].append("helen")

    assert found(verify_world(corrupt(converged, edit))) == [
        ("ReferentialIntegrityViolation", SOURCE_OF_TRUTH_GROUP),
    ]


def test_workspace_flag_on_headless_principal_is_caught(converged):
    def edit(data):
        for record in data["directory"]["principals"]:
            if record["name"] == "posts-analyze":
                record["has_workspace_identity"] = True

    assert found(verify_world(corrupt(converged, edit))) == [
        ("WorkspaceFlagViolation", "posts-analyze"),
    ]


def test_illegal_org_unit_and_name_from_a_state_file_are_caught(converged):
    def edit(data):
        for record in data["directory"]["principals"]:
            if record["name"] == "helen":
                record["org_unit"] = "gs://evil"
        for name, org_unit in (("Eve.Admin", "general"), ("nobody", None)):
            data["directory"]["principals"].append(dict(
                name=name, kind="headless", has_workspace_identity=False,
                hdfs_home=None, created_at=0, org_unit=org_unit,
            ))

    assert [v.render() for v in verify_world(corrupt(converged, edit))] == [
        "NameViolation [Eve.Admin]: illegal name 'Eve.Admin'",
        "NameViolation [helen]: illegal org unit 'gs://evil'",
        "NameViolation [nobody]: illegal org unit None",
    ]


def test_second_organization_is_caught(world):
    def edit(data):
        add_node(data, "org2", "organization", None)

    assert found(verify_world(corrupt(world, edit))) == [("TreeViolation", "organization")]


def test_organization_with_parent_is_caught(world):
    def edit(data):
        node_of(data, "org")["parent"] = "elsewhere"

    assert found(verify_world(corrupt(world, edit))) == [("TreeViolation", "org")]


def test_parentless_node_and_its_child_are_caught(world):
    def edit(data):
        add_node(data, "loose", "folder", None)
        add_node(data, "loose-project", "project", "loose")

    assert found(verify_world(corrupt(world, edit))) == [
        ("TreeViolation", "loose"),          # no parent
        ("TreeViolation", "loose-project"),  # walk ends off-root
        ("QuotaViolation", "loose-project"),  # no quota record
    ]


def test_missing_parent_is_caught(world):
    def edit(data):
        add_node(data, "orphan", "folder", "ghost")

    assert found(verify_world(corrupt(world, edit))) == [("TreeViolation", "orphan")]


def test_parent_cycle_is_caught(world):
    def edit(data):
        add_node(data, "ring-a", "folder", "ring-b")
        add_node(data, "ring-b", "folder", "ring-a")

    assert found(verify_world(corrupt(world, edit))) == [
        ("TreeViolation", "ring-a"),
        ("TreeViolation", "ring-b"),
    ]


def test_quota_count_drift_is_caught(converged):
    def edit(data):
        data["cloud"]["quotas"][0]["current_count"] += 1

    assert found(verify_world(corrupt(converged, edit))) == [("QuotaViolation", SAP)]


def test_account_without_node_is_caught(converged):
    def edit(data):
        data["cloud"]["nodes"].remove(node_of(data, mirror("posts-analyze")))
        data["cloud"]["quotas"][0]["current_count"] -= 1

    assert found(verify_world(corrupt(converged, edit))) == [
        ("BijectionViolation", mirror("posts-analyze")),
    ]


def test_actas_on_non_mirror_node_is_caught(converged):
    def edit(data):
        node_of(data, SAP)["bindings"].append(
            {"role": "act-as", "principal": "workspace:helen"}
        )

    assert found(verify_world(corrupt(converged, edit))) == [("ActAsViolation", SAP)]


def test_version_of_another_entry_is_caught(converged):
    def edit(data):
        data["vault"]["entries"][0]["versions"][0]["account_email"] = mirror("posts-analyze")

    assert found(verify_world(corrupt(converged, edit))) == [
        ("OwnershipViolation", mirror("helen") + "#v1"),
    ]


def test_history_not_ending_at_current_state_is_caught(converged):
    # An invalid version that no vault.expire_key or vault.revoke_key event names.
    def edit(data):
        data["vault"]["entries"][0]["versions"][0]["state"] = "invalid"

    assert [v.render() for v in verify_world(corrupt(converged, edit))] == [
        f"LifecycleViolation [{mirror('helen')}#v1]: state disagrees with the audit",
    ]


def test_empty_state_history_is_caught(converged):
    # An active version with retiring_since set.
    def edit(data):
        data["vault"]["entries"][0]["versions"][0]["retiring_since"] = 0

    assert [v.render() for v in verify_world(corrupt(converged, edit))] == [
        f"LifecycleViolation [{mirror('helen')}#v1]: retiring_since set",
    ]


def test_retiring_version_without_retiring_since_is_caught(converged):
    converged.advance(converged.config.rotation_age)
    converged.reconciler.reconcile_tick()  # helen's v1 starts retiring

    def edit(data):
        data["vault"]["entries"][0]["versions"][1]["retiring_since"] = None

    assert found(verify_world(corrupt(converged, edit))) == [
        ("LifecycleViolation", mirror("helen") + "#v1"),
    ]


def test_bucket_id_that_does_not_round_trip_is_caught(provisioned):
    # helen's mapping points at a bucket her mirror owns under a foreign id.
    def edit(data):
        add_node(data, "odd-bucket", "bucket", node_of(data, HELEN_BUCKET)["parent"])
        node_of(data, "odd-bucket")["bindings"] = [
            b for b in node_of(data, HELEN_BUCKET)["bindings"] if b["role"] == "bucket-owner"
        ]
        data["onboarder"]["mappings"][0]["bucket_id"] = "odd-bucket"

    assert found(verify_world(corrupt(provisioned, edit))) == [("MappingViolation", "odd-bucket")]


def test_missing_bucket_node_is_caught(provisioned):
    def edit(data):
        data["cloud"]["nodes"].remove(node_of(data, HELEN_BUCKET))

    assert found(verify_world(corrupt(provisioned, edit))) == [
        ("MappingViolation", HELEN_BUCKET),
        # The pair's one reader grant lived on the removed bucket.
        ("ReaderGroupViolation", cloud_reader_group(HELEN_BUCKET)),
    ]


def test_second_bucket_owner_is_caught(provisioned):
    def edit(data):
        node_of(data, HELEN_BUCKET)["bindings"].append(
            {"role": "bucket-owner", "principal": "user:helen"}
        )

    assert found(verify_world(corrupt(provisioned, edit))) == [
        ("OwnershipViolation", HELEN_BUCKET),
    ]


def test_missing_cloud_group_node_is_caught(provisioned):
    def edit(data):
        data["cloud"]["nodes"].remove(node_of(data, cloud_reader_group(HELEN_BUCKET)))

    corrupted = corrupt(provisioned, edit)
    expected = [("ReaderGroupViolation", cloud_reader_group(HELEN_BUCKET))]
    assert found(verify_world(corrupted)) == expected
    # The convergence tier does not report the missing group a second time.
    assert found(verify_world(corrupted, include_convergence=True)) == expected


def test_tokens_with_unknown_subject_or_key_are_caught(converged):
    converged.authz.token_for("posts-analyze", mirror("posts-analyze"))
    converged.authz.token_for("workspace:helen", mirror("helen"))

    def edit(data):
        first, second = data["tokens"]["tokens"]
        first["subject"] = "ghost@nowhere"
        second["minted_from"] = mirror("helen") + "#v9"

    assert found(verify_world(corrupt(converged, edit))) == [
        ("TokenViolation", "tok-000001"),
        ("TokenViolation", "tok-000002"),
    ]


def test_stale_id_counters_and_a_shared_secret_are_caught(converged):
    converged.authz.token_for("posts-analyze", mirror("posts-analyze"))

    def edit(data):
        data["tokens"]["next"] = 1
        helen, posts = data["vault"]["entries"]
        posts["next_serial"] = 1
        posts["versions"][0]["secret"] = helen["versions"][0]["secret"]

    assert found(verify_world(corrupt(converged, edit))) == [
        ("IdReuseViolation", mirror("posts-analyze")),
        ("SecretReuseViolation", mirror("posts-analyze") + "#v1"),
        ("IdReuseViolation", "tokens"),
    ]


def test_redacted_secrets_are_not_a_shared_secret(converged):
    def edit(data):
        for entry in data["vault"]["entries"]:
            for version in entry["versions"]:
                version["secret"] = "[redacted]"

    assert verify_world(corrupt(converged, edit)) == []


# -- the rendered output of both tiers, pinned -----------------------------------


def test_rendered_output_of_many_binding_plantings(provisioned):
    directory = provisioned.directory
    directory.join_group(ldap_reader_group(POSTS_BUCKET), "helen")
    provisioned.onboarder.sync_reader_groups()
    directory.join_group(ldap_reader_group(HELEN_BUCKET), "posts-analyze")  # not synced
    posts_readers = cloud_reader_group(POSTS_BUCKET)
    clone = mirror("helen", "elsewhere")

    def edit(data):
        node_of(data, mirror("posts-analyze"))["bindings"].append(
            {"role": "act-as", "principal": "workspace:helen"}
        )
        node_of(data, SAP)["bindings"].append(
            {"role": "bucket-owner", "principal": f"serviceAccount:{mirror('helen')}"}
        )
        node_of(data, POSTS_BUCKET)["bindings"].append(
            {"role": "bucket-writer", "principal": f"group:{posts_readers}"}
        )
        node_of(data, HELEN_BUCKET)["bindings"].append(
            {"role": "bucket-owner", "principal": "user:helen"}
        )
        # A second active mirror of helen, sorting before her first by email.
        data["cloud"]["accounts"].append(dict(
            email=clone, source_principal="helen", project="elsewhere", status="active",
        ))
        add_node(data, "elsewhere", "project", "IAMSTORE")
        add_node(data, clone, "service-account", "elsewhere")
        data["cloud"]["quotas"].append(
            {"project": "elsewhere", "max_service_accounts": 100, "current_count": 1}
        )

    corrupted = corrupt(provisioned, edit)
    helen_sa = "serviceAccount:" + mirror("helen")
    posts = mirror("posts-analyze")
    safety = [
        f"BijectionViolation [helen]: two active mirrors: {clone} and {mirror('helen')}",
        f"ActAsViolation [{posts}]: 'workspace:helen' may not act as a mirror of "
        "'posts-analyze'",
        f"LockdownViolation [{SAP}]: mirror '{helen_sa}' holds a grant on project",
        f"OwnershipViolation [{HELEN_BUCKET}]: owner bindings ['{helen_sa}', 'user:helen'] "
        "are not exactly one mirror of 'helen'",
        f"ReaderGroupViolation [{posts_readers}]: expected exactly one BucketReader grant "
        f"on '{POSTS_BUCKET}', found [('{POSTS_BUCKET}', 'bucket-reader'), "
        f"('{POSTS_BUCKET}', 'bucket-writer')]",
    ]
    convergence = [
        "ActAsViolation [act-as]: grants differ from the human-member set (missing=[], "
        f"extra=[('{posts}', 'workspace:helen')])",
        f"ReaderGroupViolation [{cloud_reader_group(HELEN_BUCKET)}]: members differ from "
        f"the on-premise image (missing=['serviceAccount:{posts}'], extra=[])",
        # The image of helen is her first active mirror by email.
        f"ReaderGroupViolation [{posts_readers}]: members differ from the on-premise image "
        f"(missing=['serviceAccount:{clone}'], extra=['{helen_sa}'])",
    ]
    rendered = [v.render() for v in verify_world(corrupted)]
    assert rendered == safety
    rendered = [v.render() for v in verify_world(corrupted, include_convergence=True)]
    assert rendered == safety + convergence


# -- worlds that import, which `cloud tree` must still print ----------------------


def test_projects_without_quota_records(provisioned):
    def edit(data):
        data["cloud"]["quotas"] = []

    corrupted = corrupt(provisioned, edit)
    assert [v.render() for v in verify_world(corrupted)] == [
        f"QuotaViolation [{SAP}]: project has no quota record",
        "QuotaViolation [shared-gcs-storage-project]: project has no quota record",
    ]
    assert corrupted.cloud.render_tree().splitlines() == [
        "organization: org",
        f"  cloud-group: {cloud_reader_group(HELEN_BUCKET)}",
        f"  cloud-group: {cloud_reader_group(POSTS_BUCKET)}",
        "  folder: DATASTORE",
        "    project: shared-gcs-storage-project",
        f"      bucket: gs://{HELEN_BUCKET}",
        f"      bucket: gs://{POSTS_BUCKET}",
        "  folder: IAMSTORE",
        f"    project: {SAP}",
        f"      service-account: {mirror('helen')} (active)",
        f"      service-account: {mirror('posts-analyze')} (active)",
    ]


def test_organization_parented_under_its_own_folder_prints_once(converged):
    def edit(data):
        node_of(data, "org")["parent"] = "IAMSTORE"

    assert corrupt(converged, edit).cloud.render_tree().splitlines() == [
        "organization: org",
        "  folder: IAMSTORE",
        f"    project: {SAP} [2/100 accounts]",
        f"      service-account: {mirror('helen')} (active)",
        f"      service-account: {mirror('posts-analyze')} (active)",
    ]
