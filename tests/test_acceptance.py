"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Expected values come from independent oracles (tests/oracles.py and
per-command state diffing), never from the code paths under test.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from mirrorplane import (
    AccessAction,
    Decision,
    DecisionReason,
    KeyState,
    PrincipalKind,
    ReconcileConfig,
    Role,
    ShardingMode,
    World,
)
from mirrorplane.audit import Category
from mirrorplane.cli import Session, dispatch, main
from mirrorplane.cloud import AccountStatus
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP
from mirrorplane.errors import AuthFailure, ControlPlaneError, PermissionDenied
from mirrorplane.onboarder import bucket_id_for, ldap_reader_group
from mirrorplane.scenario import parse_script, run_script
from mirrorplane.verify import verify_world

import oracles
from conftest import mirror

WALKTHROUGH = Path(__file__).resolve().parent.parent / "scripts" / "partly_cloudy.txt"

HUMANS = [f"user-{i:02d}" for i in range(40)]
HEADLESS_LEGAL = [f"svc-{i:02d}" for i in range(5)]
HEADLESS_UNDERSCORE = [f"svc_{i:02d}" for i in range(5, 10)]
ALL_MEMBERS = HUMANS + HEADLESS_LEGAL + HEADLESS_UNDERSCORE


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] FAIL criterion {number}: {title}")
        raise
    print(f"[acceptance] PASS criterion {number}: {title}")


def build_alg1_world(seed: int = 0) -> World:
    """The 50-principal world: 40 human, 10 headless, 5 with underscores."""
    world = World.new(seed=seed)
    directory = world.directory
    directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for name in HUMANS:
        directory.add_principal(name, PrincipalKind.HUMAN, f"/dc1/cluster1/user/{name}")
    for name in HEADLESS_LEGAL + HEADLESS_UNDERSCORE:
        directory.add_principal(name, PrincipalKind.HEADLESS, f"/dc1/cluster1/user/{name}")
    for name in ALL_MEMBERS:
        directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    return world


def actas_bindings(world: World) -> set[tuple[str, str]]:
    return {
        (node.id, binding.principal)
        for node in world.cloud.nodes()
        for binding in node.bindings
        if binding.role is Role.ACT_AS
    }


def test_criterion_1_algorithm_fidelity():
    with criterion(1, "one tick converges the 50-principal world"):
        world = build_alg1_world()
        started = time.perf_counter()
        report = world.reconciler.reconcile_tick()
        elapsed = time.perf_counter() - started

        active = [a for a in world.cloud.accounts() if a.status is AccountStatus.ACTIVE]
        assert len(active) == 45
        assert len(report.created) == 45
        assert sorted(a.source_principal for a in active) == sorted(
            HUMANS + HEADLESS_LEGAL
        )
        entries = world.vault.entries()
        assert len(entries) == 45
        assert all(
            e.owner_principal == world.cloud.account(e.account_email).source_principal
            for e in entries
        )
        assert len(actas_bindings(world)) == 40
        assert len(report.actas_granted) == 40
        assert report.rejected == [
            {"principal": name, "reason": "UnderscoreNotSupported"}
            for name in HEADLESS_UNDERSCORE
        ]

        second = world.reconciler.reconcile_tick()
        assert not second.has_changes
        assert second.created == second.rotated == second.decommissioned == []
        assert elapsed < 1.0, f"tick took {elapsed:.3f}s"


def test_criterion_2_key_rotation_lifecycle():
    with criterion(2, "rotation at >=7d, grace expiry at >=2d, token lifetimes"):
        world = build_alg1_world()
        config = world.config
        assert (config.rotation_age, config.retiring_grace) == (7 * 1440, 2 * 1440)
        world.reconciler.reconcile_tick()
        world.onboarder.provision_bucket("svc-00")
        emails = [e.account_email for e in world.vault.entries()]
        tokens = {
            email: world.authz.authenticate(
                world.cloud.account(email).source_principal, email
            )
            for email in emails
        }

        # One minute short of rotation_age: nothing rotates (>=, not >).
        world.advance(config.rotation_age - 1)
        assert world.reconciler.reconcile_tick().rotated == []
        world.advance(1)
        report = world.reconciler.reconcile_tick()
        assert sorted(report.rotated) == sorted(emails)
        for entry in world.vault.entries():
            assert [v.state for v in entry.versions] == [
                KeyState.ACTIVE,
                KeyState.RETIRING,
            ]
        # Tokens minted from now-retiring keys still authenticate.
        assert all(world.authz.token_status(t) is None for t in tokens.values())
        probe = world.authz.authorize(
            tokens[mirror("svc-00")], bucket_id_for("svc-00"), AccessAction.WRITE
        )
        assert probe.decision is Decision.ALLOW

        # One minute short of grace: still retiring (>=, not >).
        world.advance(config.retiring_grace - 1)
        world.reconciler.reconcile_tick()
        assert all(
            e.versions[1].state is KeyState.RETIRING for e in world.vault.entries()
        )
        world.advance(1)
        world.reconciler.reconcile_tick()
        for entry in world.vault.entries():
            assert [v.state for v in entry.versions] == [
                KeyState.ACTIVE,
                KeyState.INVALID,
            ]
        assert all(
            world.authz.token_status(t) is DecisionReason.INVALID_TOKEN
            for t in tokens.values()
        )
        probe = world.authz.authorize(
            tokens[mirror("svc-00")], bucket_id_for("svc-00"), AccessAction.WRITE
        )
        assert (probe.decision, probe.reason) == (
            Decision.DENY,
            DecisionReason.INVALID_TOKEN,
        )


def _build_enumeration_world() -> tuple[World, list]:
    """Small gnarly world: rotated keys, a decommissioned mirror, reader
    groups left deliberately out of sync, plus stale tokens."""
    world = World.new(seed=13)
    directory = world.directory
    directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for name, kind in [
        ("helen", PrincipalKind.HUMAN),
        ("ana", PrincipalKind.HUMAN),
        ("posts-analyze", PrincipalKind.HEADLESS),
        ("svc-data", PrincipalKind.HEADLESS),
        ("former", PrincipalKind.HEADLESS),
        ("bad_svc", PrincipalKind.HEADLESS),
    ]:
        directory.add_principal(name, kind, f"/dc1/cluster1/user/{name}")
        directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    world.reconciler.reconcile_tick()
    for name in ["helen", "ana", "posts-analyze", "svc-data", "former"]:
        world.onboarder.provision_bucket(name)
    directory.join_group(ldap_reader_group(bucket_id_for("posts-analyze")), "ana")
    directory.join_group(ldap_reader_group(bucket_id_for("svc-data")), "helen")
    directory.join_group(ldap_reader_group(bucket_id_for("helen")), "former")
    world.onboarder.sync_reader_groups()

    tokens = [
        world.authz.authenticate("svc-data", mirror("svc-data")),  # will turn retiring
        world.authz.authenticate("former", mirror("former")),  # will be decommissioned
    ]
    world.advance(world.config.rotation_age)
    world.reconciler.reconcile_tick()  # all keys rotate
    directory.remove_principal("former")
    world.reconciler.reconcile_tick()  # former decommissioned; readers not re-synced
    for name in ["helen", "ana", "posts-analyze", "svc-data"]:
        tokens.append(world.authz.authenticate(name, mirror(name)))
    return world, tokens


def test_criterion_3_least_privilege_exhaustive():
    with criterion(3, "exhaustive authenticate/authorize agreement with the oracle"):
        started = time.perf_counter()
        world, tokens = _build_enumeration_world()
        snap = world.to_dict()

        callers = [p.name for p in world.directory.principals()] + ["former", "ghost"]
        emails = [a.email for a in world.cloud.accounts()] + [mirror("ghost")]
        checked = 0
        for caller in callers:
            for email in emails:
                expected = oracles.expect_authenticate(snap, caller, email)
                try:
                    world.authz.authenticate(caller, email)
                    got = "ok"
                except ControlPlaneError as exc:
                    got = exc.name
                assert got == expected, (caller, email, got, expected)
                owner = next(
                    (
                        e["owner_principal"]
                        for e in snap["vault"]["entries"]
                        if e["account_email"] == email
                    ),
                    None,
                )
                if owner is not None and caller != owner:
                    assert got == "PermissionDenied", (caller, email)
                checked += 1
        assert checked == len(callers) * len(emails) == 42

        buckets = [
            n.id for n in world.cloud.nodes() if n.kind.value == "bucket"
        ]
        assert len(buckets) == 5
        decisions = 0
        for token in tokens:
            for bucket in buckets:
                for action in (AccessAction.READ, AccessAction.WRITE):
                    got = world.authz.authorize(token, bucket, action)
                    expected = oracles.expect_authorize(
                        snap, token.subject, token.minted_from, bucket, action.value
                    )
                    assert (got.decision.value, got.reason.value) == expected, (
                        token.token_id, bucket, action,
                    )
                    decisions += 1
        assert decisions == len(tokens) * 10
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"enumeration took {elapsed:.3f}s"


def test_criterion_4_human_headless_actas_separation():
    with criterion(4, "no human ever impersonates a headless mirror"):
        world = build_alg1_world()
        world.reconciler.reconcile_tick()
        for human in HUMANS:
            for headless in HEADLESS_LEGAL:
                with pytest.raises(PermissionDenied):
                    world.authz.impersonate(human, mirror(headless))
            token = world.authz.impersonate(human, mirror(human))
            assert token.via_actas == human
        # Unprovisioned underscore names have no mirror to impersonate at all.
        for headless in HEADLESS_UNDERSCORE:
            assert world.cloud.active_mirror_for(headless) is None


def test_criterion_5_quota_sharding():
    with criterion(5, "250 same-OU principals shard into 100/100/50"):
        config = ReconcileConfig(sharding_mode=ShardingMode.PER_ORG_UNIT)
        world = World.new(seed=3, config=config)
        world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
        for i in range(250):
            name = f"dev-{i:03d}"
            world.directory.add_principal(
                name, PrincipalKind.HEADLESS, None, org_unit="dev"
            )
            world.directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
        report = world.reconciler.reconcile_tick()

        assert len(report.created) == 250
        assert report.errors == []  # no QuotaExceeded surfaced
        projects = {
            node.id: world.cloud.quota(node.id).current_count
            for node in world.cloud.children("DEVIAM")
        }
        assert projects == {
            "dev-service-accounts-project": 100,
            "dev-service-accounts-project-2": 100,
            "dev-service-accounts-project-3": 50,
        }
        assert not world.reconciler.reconcile_tick().has_changes
        assert verify_world(world, include_convergence=True) == []


def test_criterion_6_reader_group_semantics():
    with criterion(6, "reader join/leave propagates through sync, read-only"):
        world = World.new(seed=21)
        session = Session(state_path=None, world=world)
        directory = world.directory
        directory.add_group(SOURCE_OF_TRUTH_GROUP)
        directory.add_principal("helen", PrincipalKind.HUMAN, "/dc1/cluster1/user/helen")
        directory.add_principal(
            "posts-analyze", PrincipalKind.HEADLESS, "/dc1/cluster1/user/posts-analyze"
        )
        directory.join_group(SOURCE_OF_TRUTH_GROUP, "helen")
        directory.join_group(SOURCE_OF_TRUTH_GROUP, "posts-analyze")
        world.reconciler.reconcile_tick()
        world.onboarder.provision_bucket("posts-analyze")
        bucket = bucket_id_for("posts-analyze")
        pair = world.onboarder.pair_for(bucket)
        token = world.authz.impersonate("helen", mirror("helen"))

        def read_write():
            return (
                world.authz.authorize(token, bucket, AccessAction.READ),
                world.authz.authorize(token, bucket, AccessAction.WRITE),
            )

        for argv in (["readers", "join", bucket, "helen"], ["onboard", "sync-readers"]):
            _, err = dispatch(session, argv)
            assert err is None
        snap = world.to_dict()
        assert oracles.cloud_group_members(snap, pair.cloud_group) == \
            oracles.expect_reader_members(snap, pair.ldap_group) == \
            {f"serviceAccount:{mirror('helen')}"}
        read, write = read_write()
        assert (read.decision, read.reason) == (Decision.ALLOW, DecisionReason.READER_GROUP)
        assert write.decision is Decision.DENY

        for argv in (["readers", "leave", bucket, "helen"], ["onboard", "sync-readers"]):
            _, err = dispatch(session, argv)
            assert err is None
        snap = world.to_dict()
        assert oracles.cloud_group_members(snap, pair.cloud_group) == \
            oracles.expect_reader_members(snap, pair.ldap_group) == set()
        read, write = read_write()
        assert read.decision is Decision.DENY and write.decision is Decision.DENY


def test_criterion_7_decommission():
    with criterion(7, "decommission kills mirror, keys, grants, and access"):
        world = build_alg1_world()
        world.reconciler.reconcile_tick()
        world.onboarder.provision_bucket("user-00")
        email = mirror("user-00")
        bucket = bucket_id_for("user-00")
        token = world.authz.impersonate("user-00", email)

        world.directory.remove_principal("user-00")
        report = world.reconciler.reconcile_tick()
        assert report.decommissioned == [email]

        assert world.cloud.account(email).status is AccountStatus.DISABLED
        assert all(
            v.state is KeyState.INVALID for v in world.vault.entry(email).versions
        )
        assert not any(node_id == email for node_id, _ in actas_bindings(world))
        with pytest.raises(AuthFailure):
            world.authz.authenticate("user-00", email)
        with pytest.raises(AuthFailure):
            world.authz.impersonate("user-00", email)
        decision = world.authz.authorize(token, bucket, AccessAction.READ)
        assert (decision.decision, decision.reason) == (
            Decision.DENY,
            DecisionReason.DISABLED_ACCOUNT,
        )
        # Data bindings survive but are unreachable without a valid token.
        assert world.cloud.has_binding(
            bucket, Role.BUCKET_OWNER, f"serviceAccount:{email}"
        )
        assert verify_world(world) == []


EXPECTED_DECISION_EVENTS = (
    ("vault read", 1),
    ("authz token --as workspace:", 1),  # impersonation mints without a vault read
    ("authz token", 2),  # vault read + token mint
    ("authz check", 1),
)


def _expected_decisions(command: str) -> int:
    for prefix, count in EXPECTED_DECISION_EVENTS:
        if command.startswith(prefix):
            return count
    return 0


def test_criterion_8_audit_completeness():
    with criterion(8, "mutations + decisions = audit events, gapless, right chain"):
        world = World.new(seed=42)
        session = Session(state_path=None, world=world)
        structural_keys = ("directory", "cloud", "vault", "onboarder")
        text = WALKTHROUGH.read_text(encoding="utf-8")
        outputs = []
        for line_no, argv, command in parse_script(text):
            before = {k: world.to_dict()[k] for k in structural_keys}
            events_before = len(world.audit)
            output, error = dispatch(session, argv)
            assert error is None, (line_no, command, error)
            outputs.append((command, output.rstrip("\n")))

            after = {k: world.to_dict()[k] for k in structural_keys}
            new = world.audit.events()[events_before:]
            mutations = sum(e.category is Category.MUTATION for e in new)
            decisions = sum(e.category is Category.DECISION for e in new)
            controls = sum(e.category is Category.CONTROL for e in new)
            assert controls == 0
            assert mutations + decisions == len(new)
            if before == after:
                assert mutations == 0, f"phantom mutation events after {command!r}"
            else:
                assert mutations >= 1, f"unaudited state change after {command!r}"
            assert decisions == _expected_decisions(command), command

        seqs = [e.seq for e in world.audit]
        assert seqs == list(range(1, len(seqs) + 1))

        chain = [out for cmd, out in outputs if cmd.startswith("authz check")]
        assert chain == [
            "ALLOW Owner",
            "ALLOW Owner",
            "DENY NotAuthorized",
            "ALLOW ReaderGroup",
            "DENY NotAuthorized",
        ]


def test_criterion_9_determinism_and_round_trip(tmp_path):
    with criterion(9, "fixed seed + script is byte-identical; import round-trips"):
        exports, transcripts = [], []
        for run in ("a", "b"):
            state = tmp_path / f"{run}.json"
            transcript = tmp_path / f"{run}-transcript.json"
            assert main(["--state", str(state), "init", "--seed", "123"]) == 0
            assert main([
                "--state", str(state), "scenario", "run", str(WALKTHROUGH),
                "--strict", "--transcript", str(transcript),
            ]) == 0
            out = tmp_path / f"{run}-export.json"
            assert main([
                "--state", str(state), "state", "export", "--reveal-secrets",
                "-o", str(out),
            ]) == 0
            exports.append(out.read_bytes())
            transcripts.append(transcript.read_bytes())
        assert exports[0] == exports[1]
        assert transcripts[0] == transcripts[1]

        state = tmp_path / "a.json"
        reimported = tmp_path / "re-export.json"
        assert main(["--state", str(state), "state", "import", str(tmp_path / "a-export.json")]) == 0
        assert main([
            "--state", str(state), "state", "export", "--reveal-secrets",
            "-o", str(reimported),
        ]) == 0
        assert reimported.read_bytes() == exports[0]
