import pytest

from mirrorplane import AccessAction, Decision, DecisionReason, PrincipalKind
from mirrorplane.audit import Category
from mirrorplane.errors import (
    AuthFailure,
    ControlPlaneError,
    InvalidJobSpec,
    PermissionDenied,
    UnknownBucket,
)
from mirrorplane.cloud import Role, sa_principal
from mirrorplane.onboarder import cloud_reader_group, ldap_reader_group

from conftest import mirror

POSTS_MIRROR = mirror("posts-analyze")
HELEN_MIRROR = mirror("helen")
POSTS_BUCKET = "user.posts-analyze.dp.domain"
HELEN_BUCKET = "user.helen.dp.domain"


def test_authenticate_owner_gets_token(converged):
    token = converged.authz.authenticate("posts-analyze", POSTS_MIRROR)
    assert token.subject == POSTS_MIRROR
    assert token.via_actas is None
    assert token.minted_from.startswith(POSTS_MIRROR)


def test_authenticate_non_owner_denied(converged):
    with pytest.raises(PermissionDenied):
        converged.authz.authenticate("helen", POSTS_MIRROR)


def test_authenticate_unknown_account_fails(converged):
    with pytest.raises(AuthFailure):
        converged.authz.authenticate("helen", mirror("ghost"))


def test_authenticate_after_decommission_fails(converged):
    converged.reconciler.decommission("posts-analyze")
    with pytest.raises(AuthFailure):
        converged.authz.authenticate("posts-analyze", POSTS_MIRROR)


def test_impersonate_own_mirror(converged):
    token = converged.authz.impersonate("helen", HELEN_MIRROR)
    assert token.via_actas == "helen"
    assert token.subject == HELEN_MIRROR
    # The workspace: prefix is accepted too.
    again = converged.authz.impersonate("workspace:helen", HELEN_MIRROR)
    assert again.via_actas == "helen"


def test_impersonate_headless_mirror_denied(converged):
    with pytest.raises(PermissionDenied):
        converged.authz.impersonate("helen", POSTS_MIRROR)


def test_impersonate_disabled_account_fails(converged):
    # Disable without stripping grants: liveness is checked before bindings.
    converged.cloud.disable_service_account(HELEN_MIRROR)
    with pytest.raises(AuthFailure):
        converged.authz.impersonate("helen", HELEN_MIRROR)


def test_authorize_owner_reads_and_writes(provisioned):
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    for action in (AccessAction.READ, AccessAction.WRITE):
        decision = provisioned.authz.authorize(token, POSTS_BUCKET, action)
        assert decision.decision is Decision.ALLOW
        assert decision.reason is DecisionReason.OWNER


def test_authorize_foreign_bucket_denied(provisioned):
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    for action in (AccessAction.READ, AccessAction.WRITE):
        decision = provisioned.authz.authorize(token, HELEN_BUCKET, action)
        assert decision.decision is Decision.DENY
        assert decision.reason is DecisionReason.NOT_AUTHORIZED


def test_reader_group_grants_read_only(provisioned):
    provisioned.directory.join_group(ldap_reader_group(POSTS_BUCKET), "helen")
    provisioned.onboarder.sync_reader_groups()
    token = provisioned.authz.impersonate("helen", HELEN_MIRROR)
    read = provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.READ)
    assert (read.decision, read.reason) == (Decision.ALLOW, DecisionReason.READER_GROUP)
    write = provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.WRITE)
    assert (write.decision, write.reason) == (Decision.DENY, DecisionReason.NOT_AUTHORIZED)


def test_a_group_bound_in_another_role_grants_nothing(provisioned):
    # Only a group's BucketReader binding makes its members readers of the bucket.
    group = cloud_reader_group(POSTS_BUCKET)
    provisioned.cloud.bind_role(HELEN_BUCKET, Role.BUCKET_WRITER, f"group:{group}")
    provisioned.cloud.bind_role(group, Role.GROUP_MEMBER, sa_principal(POSTS_MIRROR))
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    for action in (AccessAction.READ, AccessAction.WRITE):
        decision = provisioned.authz.authorize(token, HELEN_BUCKET, action)
        assert (decision.decision, decision.reason) == (
            Decision.DENY, DecisionReason.NOT_AUTHORIZED)


def test_reader_membership_evaluated_at_decision_time(provisioned):
    token = provisioned.authz.impersonate("helen", HELEN_MIRROR)
    denied = provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.READ)
    assert denied.decision is Decision.DENY
    # Sync after minting; the same token now reads.
    provisioned.directory.join_group(ldap_reader_group(POSTS_BUCKET), "helen")
    provisioned.onboarder.sync_reader_groups()
    allowed = provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.READ)
    assert allowed.reason is DecisionReason.READER_GROUP


def test_token_survives_rotation_until_grace_ends(provisioned):
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    provisioned.advance(provisioned.config.rotation_age)
    provisioned.reconciler.reconcile_tick()  # key now retiring
    decision = provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.WRITE)
    assert decision.decision is Decision.ALLOW
    provisioned.advance(provisioned.config.retiring_grace)
    provisioned.reconciler.reconcile_tick()  # key now invalid
    decision = provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.WRITE)
    assert (decision.decision, decision.reason) == (
        Decision.DENY,
        DecisionReason.INVALID_TOKEN,
    )


def test_decommission_makes_tokens_dead(provisioned):
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    provisioned.reconciler.decommission("posts-analyze")
    decision = provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.READ)
    assert decision.reason is DecisionReason.DISABLED_ACCOUNT


def test_unknown_token_id_denied(provisioned):
    decision = provisioned.authz.authorize("tok-999999", POSTS_BUCKET, AccessAction.READ)
    assert decision.reason is DecisionReason.INVALID_TOKEN


def test_unknown_bucket_raises(provisioned):
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    with pytest.raises(UnknownBucket):
        provisioned.authz.authorize(token, "gs://nope", AccessAction.READ)
    with pytest.raises(UnknownBucket):
        # Existing node of the wrong kind is not a bucket.
        provisioned.authz.authorize(token, "IAMSTORE", AccessAction.READ)


def test_submit_job_own_bucket(provisioned):
    result = provisioned.authz.submit_job(
        "posts-analyze",
        POSTS_MIRROR,
        [POSTS_BUCKET, POSTS_BUCKET],
        [AccessAction.READ, AccessAction.WRITE],
    )
    assert [r["decision"] for r in result.results] == ["allow", "allow"]
    events = provisioned.audit.query(job_id=result.job_id)
    assert len(events) == 4  # vault read + token mint + two decisions


def test_submit_job_via_actas_reader(provisioned):
    provisioned.directory.join_group(ldap_reader_group(POSTS_BUCKET), "helen")
    provisioned.onboarder.sync_reader_groups()
    result = provisioned.authz.submit_job(
        "workspace:helen", HELEN_MIRROR, [POSTS_BUCKET], [AccessAction.READ]
    )
    assert result.results[0]["reason"] == "ReaderGroup"


def test_submit_job_auth_failure_stops_before_authorize(provisioned):
    before = len(provisioned.audit.query(action="authorize"))
    with pytest.raises(PermissionDenied):
        provisioned.authz.submit_job(
            "helen", POSTS_MIRROR, [POSTS_BUCKET], [AccessAction.READ]
        )
    assert len(provisioned.audit.query(action="authorize")) == before


def test_submit_job_continues_past_bad_paths(provisioned):
    result = provisioned.authz.submit_job(
        "posts-analyze",
        POSTS_MIRROR,
        ["gs://missing", POSTS_BUCKET],
        [AccessAction.READ, AccessAction.WRITE],
    )
    assert "UnknownBucket" in result.results[0]["error"]
    assert result.results[1]["decision"] == "allow"


def test_submit_job_spec_validation(provisioned):
    with pytest.raises(InvalidJobSpec):
        provisioned.authz.submit_job("posts-analyze", POSTS_MIRROR, [], [])
    with pytest.raises(InvalidJobSpec):
        provisioned.authz.submit_job(
            "posts-analyze", POSTS_MIRROR, [POSTS_BUCKET], []
        )


def test_allow_events_attribute_to_mirror_identity(provisioned):
    provisioned.directory.join_group(ldap_reader_group(POSTS_BUCKET), "helen")
    provisioned.onboarder.sync_reader_groups()
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.WRITE)
    token2 = provisioned.authz.impersonate("helen", HELEN_MIRROR)
    provisioned.authz.authorize(token2, POSTS_BUCKET, AccessAction.READ)
    mirrors = {a.email for a in provisioned.cloud.accounts()}
    allows = [
        e for e in provisioned.audit.query(action="authorize")
        if e.outcome.value == "success"
    ]
    assert allows and all(e.actor in mirrors for e in allows)


def test_audit_query_filters(provisioned):
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.READ)
    by_actor = provisioned.audit.query(actor=POSTS_MIRROR)
    assert all(e.actor == POSTS_MIRROR for e in by_actor) and by_actor
    tick_events = provisioned.audit.query(tick_id=1)
    assert tick_events and all(e.tick_id == 1 for e in tick_events)
    assert provisioned.audit.query(actor="nobody") == []


def test_audit_seq_is_gapless(provisioned):
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    for _ in range(5):
        provisioned.authz.authorize(token, POSTS_BUCKET, AccessAction.READ)
    seqs = [e.seq for e in provisioned.audit]
    assert seqs == list(range(1, len(seqs) + 1))


def test_every_decision_is_audited(provisioned):
    before = len(provisioned.audit)
    with pytest.raises(PermissionDenied):
        provisioned.authz.authenticate("helen", POSTS_MIRROR)
    token = provisioned.authz.authenticate("helen", HELEN_MIRROR)
    provisioned.authz.authorize(token, HELEN_BUCKET, AccessAction.WRITE)
    new = provisioned.audit.events()[before:]
    assert all(e.category is Category.DECISION for e in new)
    assert len(new) == 5  # denied vault read + authn fail + vault read + authn + authorize


def events_of(world, attempt):
    """(actor, action, target, outcome) of every event ``attempt()`` emits."""
    before = len(world.audit)
    try:
        attempt()
    except ControlPlaneError:
        pass
    return [
        (e.actor, e.action, e.target, e.outcome.value)
        for e in world.audit.events()[before:]
    ]


def test_authenticate_non_owner_audits_read_then_token_failure(converged):
    events = events_of(converged, lambda: converged.authz.authenticate("helen", POSTS_MIRROR))
    assert events == [
        ("helen", "vault.read_key", POSTS_MIRROR, "failure"),
        ("helen", "authn.token", POSTS_MIRROR, "failure"),
    ]


def test_authenticate_without_active_key_audits_both_failures(converged):
    converged.reconciler.decommission("posts-analyze")
    events = events_of(
        converged, lambda: converged.authz.authenticate("posts-analyze", POSTS_MIRROR)
    )
    assert events == [
        ("posts-analyze", "vault.read_key", POSTS_MIRROR, "failure"),
        ("posts-analyze", "authn.token", POSTS_MIRROR, "failure"),
    ]


def test_authenticate_success_audits_key_id_then_token(converged):
    key_id = converged.vault.active_version(POSTS_MIRROR).key_id
    events = events_of(
        converged, lambda: converged.authz.authenticate("posts-analyze", POSTS_MIRROR)
    )
    assert events == [
        ("posts-analyze", "vault.read_key", key_id, "success"),
        ("posts-analyze", "authn.token", POSTS_MIRROR, "success"),
    ]


def test_foreign_actas_audits_one_impersonate_failure(converged):
    events = events_of(converged, lambda: converged.authz.impersonate("helen", POSTS_MIRROR))
    assert events == [("workspace:helen", "authn.impersonate", POSTS_MIRROR, "failure")]


def test_unknown_token_is_the_actor_and_unknown_bucket_is_silent(provisioned):
    events = events_of(
        provisioned,
        lambda: provisioned.authz.authorize("tok-999999", POSTS_BUCKET, AccessAction.WRITE),
    )
    assert events == [("tok-999999", "authorize.write", POSTS_BUCKET, "failure")]
    token = provisioned.authz.authenticate("posts-analyze", POSTS_MIRROR)
    events = events_of(
        provisioned, lambda: provisioned.authz.authorize(token, "gs://nope", AccessAction.READ)
    )
    assert events == []
