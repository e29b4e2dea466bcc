"""Property-based checks over random operation streams.

The generators drive small worlds through the same operations the CLI
exposes; the assertions are the module invariants, including the central
safety claim that every reachable state verifies clean.
"""

import gc
import json
import shutil
import tempfile
import weakref
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from mirrorplane import AccessAction, Category, KeyState, PrincipalKind, World, verify_world
from mirrorplane.cli import Session
from mirrorplane.cloud import AccountStatus, workspace_principal
from mirrorplane.codec import encode
from mirrorplane.directory import SOURCE_OF_TRUTH_GROUP
from mirrorplane.errors import ControlPlaneError
from mirrorplane.onboarder import bucket_id_for, ldap_reader_group, map_hdfs_path, principal_for_bucket
from mirrorplane.vault import SecretSource
from mirrorplane.world import canonical_json, compact_json

import oracles

names = st.from_regex(r"[a-z][a-z0-9_-]{0,8}", fullmatch=True)
legal_names = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)

# One weighted op in a world-building stream: (op, name, kind/flag).
OP_KINDS = ["add", "add", "add", "join", "join", "leave", "remove",
            "tick", "tick", "advance", "bucket", "read-join", "sync", "probe"]
op_kinds = st.sampled_from(OP_KINDS)
ops = st.tuples(op_kinds, names, st.booleans())
# The ops that only the audit-growth property draws: the other writes the CLI
# exposes (cloud set-quota, vault read, authz check|job, readers leave).
WRITE_KINDS = ["set-quota", "vault-read", "authorize", "job", "read-leave"]
# Every op over four names, so that joins, leaves and removals find their
# principal; "c_d" is refused a mirror.
pooled_ops = st.tuples(st.sampled_from(OP_KINDS + WRITE_KINDS),
                       st.sampled_from(["ann", "bob", "helen", "c_d"]), st.booleans())


def apply_ops(world: World, stream, after_each=None) -> None:
    world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for op, name, flag in stream:
        try:
            if op == "add":
                kind = PrincipalKind.HUMAN if flag else PrincipalKind.HEADLESS
                world.directory.add_principal(
                    name, kind, f"/dc1/cluster1/user/{name}"
                )
            elif op == "join":
                world.directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
            elif op == "leave":
                world.directory.leave_group(SOURCE_OF_TRUTH_GROUP, name)
            elif op == "remove":
                world.directory.remove_principal(name)
            elif op == "tick":
                world.reconciler.reconcile_tick()
            elif op == "advance":
                world.advance(977 if flag else 13)
            elif op == "bucket":
                world.onboarder.provision_bucket(name)
            elif op == "read-join":
                world.directory.join_group(
                    ldap_reader_group(bucket_id_for(name)), name if flag else "helen"
                )
            elif op == "sync":
                world.onboarder.sync_reader_groups()
            elif op == "probe":
                email = world.cloud.active_mirror_for(name)
                if email:
                    world.authz.authenticate(name, email)
            elif op == "set-quota":
                world.cloud.set_quota(world.config.base_project, 1 if flag else 100)
            elif op == "vault-read":
                email = world.cloud.active_mirror_for(name)
                if email:
                    world.vault.read_key(email, name if flag else "helen")
            elif op == "authorize":
                held = [token.token_id for token in world.tokens.tokens()]
                token = held[-1] if flag and held else "tok-999999"
                world.authz.authorize(token, bucket_id_for(name), AccessAction.READ)
            elif op == "job":
                world.authz.submit_job(
                    name, world.cloud.active_mirror_for(name) or f"{name}@nowhere",
                    [bucket_id_for(name), bucket_id_for("helen")],
                    [AccessAction.WRITE, AccessAction.READ],
                )
            elif op == "read-leave":
                world.directory.leave_group(
                    ldap_reader_group(bucket_id_for(name)), name if flag else "helen"
                )
        except ControlPlaneError:
            pass
        if after_each is not None:
            after_each(op)


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(ops, max_size=25), seed=st.integers(0, 2 ** 16))
def test_reachable_states_verify_clean(stream, seed):
    world = World.new(seed=seed)
    apply_ops(world, stream)
    assert verify_world(world) == []


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(ops, max_size=25))
def test_replay_determinism(stream):
    def run() -> str:
        world = World.new(seed=5)
        apply_ops(world, stream)
        return world.export_text(reveal_secrets=True)

    assert run() == run()


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(ops, max_size=25))
def test_export_import_round_trip(stream):
    world = World.new(seed=9)
    apply_ops(world, stream)
    text = world.export_text(reveal_secrets=True)
    assert World.from_dict(json.loads(text)).export_text(reveal_secrets=True) == text


# The sections a state change may touch without an audit event: the clock, and
# the tick count and last report of a tick that found nothing to do.
UNAUDITED = {"clock", "reconcile"}


def audited_view(world: World) -> dict:
    data = world.to_dict()
    return {key: value for key, value in data.items() if key not in UNAUDITED | {"audit"}}


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(pooled_ops, min_size=10, max_size=30), seed=st.integers(0, 99))
@example(stream=[(op, "ann", True) for op in (
    "add", "join", "tick", "bucket", "read-join", "sync", "probe", "leave", "tick", "remove",
)], seed=0)
@example(stream=[
    ("add", "helen", True), ("add", "ann", False), ("join", "helen", True),
    ("join", "ann", True), ("tick", "ann", True), ("bucket", "helen", True),
    ("bucket", "ann", True), ("read-join", "ann", False), ("sync", "ann", True),
    ("probe", "ann", True), ("vault-read", "ann", True), ("vault-read", "ann", False),
    ("authorize", "ann", True), ("authorize", "helen", True), ("authorize", "ann", False),
    ("job", "ann", True), ("job", "bob", True), ("set-quota", "ann", True),
    ("set-quota", "ann", False), ("read-leave", "ann", False), ("read-leave", "ann", False),
], seed=0)
def test_every_state_change_outside_clock_and_reconcile_grows_the_audit(stream, seed):
    world = World.new(seed=seed)
    last = [audited_view(world), len(world.audit)]

    def check(op):
        view, events = audited_view(world), len(world.audit)
        assert view == last[0] or events > last[1], f"{op!r} changed state without an event"
        last[:] = [view, events]

    apply_ops(world, stream, after_each=check)


def test_the_clock_and_a_no_op_tick_change_state_without_an_event(converged):
    def changed(step) -> set[str]:
        before, events = converged.to_dict(), len(converged.audit)
        step()
        after = converged.to_dict()
        assert len(converged.audit) == events
        return {key for key in after if after[key] != before[key]}

    assert changed(lambda: converged.advance(15)) == {"clock"}
    assert changed(converged.reconciler.reconcile_tick) == {"reconcile"}


@settings(max_examples=50, deadline=None)
@given(members=st.lists(names, min_size=1, max_size=10, unique=True))
def test_one_tick_converges_membership(members):
    world = World.new(seed=2)
    world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for name in members:
        world.directory.add_principal(name, PrincipalKind.HEADLESS, None)
        world.directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    world.reconciler.reconcile_tick()

    legal = [m for m in members if "_" not in m]
    active = [a for a in world.cloud.accounts() if a.status is AccountStatus.ACTIVE]
    assert sorted(a.source_principal for a in active) == sorted(legal)

    second = world.reconciler.reconcile_tick()
    assert not second.has_changes
    assert [r["principal"] for r in second.rejected] == [m for m in members if "_" in m]
    assert verify_world(world, include_convergence=True) == []


@settings(max_examples=50, deadline=None)
@given(
    humans=st.lists(legal_names, min_size=1, max_size=6, unique=True),
    headless=st.lists(legal_names, min_size=1, max_size=6, unique=True),
)
def test_actas_soundness_is_exactly_the_human_set(humans, headless):
    headless = [h for h in headless if h not in set(humans)]
    world = World.new(seed=4)
    world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    for name in humans:
        world.directory.add_principal(name, PrincipalKind.HUMAN, None)
        world.directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    for name in headless:
        world.directory.add_principal(name, PrincipalKind.HEADLESS, None)
        world.directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    world.reconciler.reconcile_tick()

    grants = {
        (node.id, binding.principal)
        for node in world.cloud.nodes()
        for binding in node.bindings
        if binding.role.value == "act-as"
    }
    expected = {
        (world.cloud.active_mirror_for(h), workspace_principal(h)) for h in humans
    }
    assert grants == expected


@settings(max_examples=60, deadline=None)
@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["store", "expire", "revoke", "advance"]),
                  st.integers(1, 2000)),
        max_size=15,
    )
)
def test_vault_lifecycle_stays_monotone(actions):
    world = World.new(seed=8)
    world.directory.add_principal("owner", PrincipalKind.HEADLESS, None)
    email = "owner-mirror@service-accounts-project.iam.gserviceaccount.com"
    secrets = SecretSource(seed=3)
    order = [KeyState.ACTIVE, KeyState.RETIRING, KeyState.INVALID]
    reached: dict[str, int] = {}  # each version's furthest state so far, as its index in order
    world.vault.store_key(email, "owner", secrets.next_secret())
    for op, arg in actions:
        if op == "store":
            world.vault.store_key(email, "owner", secrets.next_secret())
        elif op == "expire":
            world.vault.expire_versions(world.clock, grace=arg)
        elif op == "revoke":
            world.vault.revoke_all(email)
        else:
            world.advance(arg)
        entry = world.vault.entry(email)
        assert sum(v.state is KeyState.ACTIVE for v in entry.versions) <= 1
        for version in entry.versions:
            index = order.index(version.state)
            assert index >= reached.get(version.key_id, 0)
            reached[version.key_id] = index


@settings(max_examples=80, deadline=None)
@given(
    name=legal_names,
    rest=st.lists(st.from_regex(r"[a-z0-9._-]{1,6}", fullmatch=True), max_size=4),
)
def test_hdfs_mapping_round_trip(name, rest):
    path = "/dc1/cluster1/user/" + "/".join([name, *rest])
    mapped = map_hdfs_path(path)
    bucket_id = mapped.removeprefix("gs://").split("/", 1)[0]
    assert principal_for_bucket(bucket_id) == name
    assert mapped.removeprefix(f"gs://{bucket_id}/") == "/".join(rest)


@settings(max_examples=30, deadline=None)
@given(
    readers=st.lists(legal_names, max_size=5, unique=True),
    leavers=st.sets(st.integers(0, 4)),
)
def test_reader_sync_matches_set_oracle(readers, leavers):
    world = World.new(seed=6)
    world.directory.add_group(SOURCE_OF_TRUTH_GROUP)
    world.directory.add_principal("owner", PrincipalKind.HEADLESS, "/dc1/c1/user/owner")
    world.directory.join_group(SOURCE_OF_TRUTH_GROUP, "owner")
    for name in readers:
        if name == "owner":
            continue
        world.directory.add_principal(name, PrincipalKind.HUMAN, None)
        world.directory.join_group(SOURCE_OF_TRUTH_GROUP, name)
    world.reconciler.reconcile_tick()
    world.onboarder.provision_bucket("owner")

    group = ldap_reader_group(bucket_id_for("owner"))
    for name in readers:
        if name != "owner":
            world.directory.join_group(group, name)
    for index in leavers:
        if index < len(readers) and readers[index] != "owner":
            world.directory.leave_group(group, readers[index])
    world.onboarder.sync_reader_groups()

    snap = world.to_dict()
    pair = world.onboarder.pair_for(bucket_id_for("owner"))
    assert oracles.cloud_group_members(snap, pair.cloud_group) == \
        oracles.expect_reader_members(snap, group)
    assert verify_world(world, include_convergence=True) == []


@settings(max_examples=25, deadline=None)
@given(stream=st.lists(ops, max_size=20), seed=st.integers(0, 99))
def test_authenticate_always_matches_oracle(stream, seed):
    world = World.new(seed=seed)
    apply_ops(world, stream)
    snap = world.to_dict()
    principals = [p.name for p in world.directory.principals()]
    emails = [a.email for a in world.cloud.accounts()]
    for caller in principals:
        for email in emails:
            expected = oracles.expect_authenticate(snap, caller, email)
            try:
                world.authz.authenticate(caller, email)
                got = "ok"
            except ControlPlaneError as exc:
                got = exc.name
            assert got == expected, (caller, email)


SOURCES = ["ann", "bob", "cy"]
PROJECTS = ["p-one", "p-two"]

# One step on the cloud's accounts: (op, project index, name index, source index).
account_ops = st.tuples(
    st.sampled_from(["create", "create", "disable", "recycle", "reload"]),
    st.integers(0, len(PROJECTS) - 1),
    st.integers(0, 2),
    st.integers(0, len(SOURCES) - 1),
)


def reload(world: World, workdir: str) -> World:
    path = f"{workdir}/world.json"
    world.save(path)
    return World.load(path)


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(account_ops, max_size=30))
def test_active_mirror_lookup_matches_sorted_scan(stream):
    world = World.new(seed=3)
    for project in PROJECTS:
        world.cloud.ensure_project("IAMSTORE", project)
    with tempfile.TemporaryDirectory() as workdir:
        for op, project, name, source in stream:
            accounts = world.cloud.accounts()
            try:
                if op == "create":
                    # Direct calls, so one source may hold two Active accounts.
                    world.cloud.create_service_account(
                        PROJECTS[project], f"m{name}", SOURCES[source]
                    )
                elif op == "disable" and accounts:
                    world.cloud.disable_service_account(accounts[name % len(accounts)].email)
                elif op == "recycle":
                    disabled = [a for a in accounts if a.status is AccountStatus.DISABLED]
                    if disabled:
                        acct = disabled[name % len(disabled)]
                        world.cloud.create_service_account(
                            acct.project, acct.email.split("@")[0], SOURCES[source]
                        )
                elif op == "reload":
                    world = reload(world, workdir)
            except ControlPlaneError:
                pass
            snap = world.to_dict()
            for src in SOURCES:
                assert world.cloud.active_mirror_for(src) == \
                    oracles.expect_active_mirror(snap, src), (op, src)


def children_match_a_scan(world: World) -> None:
    snap = {"cloud": world.cloud.to_dict()}
    for node_id in [*(node["id"] for node in snap["cloud"]["nodes"]), "no-such-node"]:
        got = [node.id for node in world.cloud.children(node_id)]
        assert got == oracles.expect_children(snap, node_id), node_id


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(ops, max_size=25))
@example(stream=[("add", "ann", False), ("join", "ann", False), ("tick", "ann", False),
                 ("bucket", "ann", False), ("add", "bob", True), ("join", "bob", True),
                 ("tick", "bob", True)])
def test_the_child_index_matches_a_scan_after_every_step_and_a_reload(stream):
    world = World.new(seed=5)
    apply_ops(world, stream, after_each=lambda op: children_match_a_scan(world))
    with tempfile.TemporaryDirectory() as workdir:
        children_match_a_scan(reload(world, workdir))


GROUPS = ["g-one", "g-two"]

# One step on group membership: (op, group index, principal index).
member_ops = st.tuples(
    st.sampled_from(["join", "join", "leave", "remove", "add", "duplicate", "reload"]),
    st.integers(0, len(GROUPS) - 1),
    st.integers(0, len(SOURCES) - 1),
)


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(member_ops, max_size=30))
@example(stream=[("join", 0, 0), ("duplicate", 0, 0), ("leave", 0, 0), ("leave", 0, 0)])
@example(stream=[("join", 0, 0), ("duplicate", 0, 0), ("remove", 0, 0), ("add", 0, 0),
                 ("join", 0, 0), ("reload", 0, 0), ("leave", 0, 0)])
def test_group_membership_matches_member_list(stream):
    world = World.new(seed=3)
    for group in GROUPS:
        world.directory.add_group(group)
    for name in SOURCES:
        world.directory.add_principal(name, PrincipalKind.HEADLESS, None)
    with tempfile.TemporaryDirectory() as workdir:
        for op, group, principal in stream:
            group, name = GROUPS[group], SOURCES[principal]
            try:
                if op == "join":
                    world.directory.join_group(group, name)
                elif op == "leave":
                    world.directory.leave_group(group, name)
                elif op == "remove":
                    world.directory.remove_principal(name)
                elif op == "add":
                    world.directory.add_principal(name, PrincipalKind.HEADLESS, None)
                elif op == "duplicate":
                    # A hand-edited state file that lists a member twice.
                    data = world.to_dict()
                    for record in data["directory"]["groups"]:
                        if record["name"] == group and name in record["members"]:
                            record["members"].append(name)
                    world = World.from_dict(data)
                elif op == "reload":
                    world = reload(world, workdir)
            except ControlPlaneError:
                pass
            snap = world.to_dict()
            for g in GROUPS:
                for n in SOURCES:
                    assert world.directory.is_member(g, n) == \
                        oracles.expect_member(snap, g, n), (op, g, n)


# What a CLI write does to a lazily loaded world after its load: ticks, clock
# moves and audited directory changes.
AFTER_LOAD = ["tick", "advance", "group"]


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(ops, max_size=25), after=st.lists(st.sampled_from(AFTER_LOAD), max_size=6),
       drop_sidecar=st.booleans())
def test_a_lazily_loaded_world_saves_and_syncs_like_a_decoded_one(stream, after, drop_sidecar):
    world = World.new(seed=4)
    apply_ops(world, stream)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "world.json"
        session = Session(path)
        session.replace(world)
        session.commit()
        lazy, full = World.load(path), World.load(path)
        full.audit.decoded()
        assert lazy.to_dict() == full.to_dict()
        assert lazy.export_text(True) == full.export_text(True)

        if drop_sidecar:  # the next commit appends every event, the kept ones included
            session.audit_path.unlink()
        session = Session(path, lazy)
        for i, op in enumerate([*after, "group"]):
            if op == "tick":
                lazy.reconciler.reconcile_tick()
            elif op == "advance":
                lazy.advance(977)
            else:
                lazy.directory.add_group(f"after-load-{i}")
        session.commit()
        events = World.load(path).audit
        assert session.audit_path.read_text(encoding="utf-8") == "".join(
            compact_json(encode(event)) + "\n" for event in events
        )
        assert [event.seq for event in events] == list(range(1, len(events) + 1))


def apply_more_ops(world: World, stream) -> None:
    """``apply_ops`` on a world that an earlier ``apply_ops`` gave the source group."""
    directory = world.directory
    real = directory.add_group
    directory.add_group = lambda name: None if name == SOURCE_OF_TRUTH_GROUP else real(name)
    try:
        apply_ops(world, stream)
    finally:
        del directory.add_group


# Each round: an op stream, and whether the log is decoded (an audit read) before it.
rounds = st.lists(st.tuples(st.lists(ops, max_size=10), st.booleans()), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(rounds=rounds)
def test_every_commit_writes_the_export_in_compact_form_and_each_event_to_the_sidecar(rounds):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "world.json"
        session = Session(path)
        session.replace(World.new(seed=6))
        session.commit()
        for i, (stream, decode_first) in enumerate(rounds):
            session = Session(path)  # a fresh load, as each CLI command makes
            world = session.world
            if decode_first:
                world.audit.decoded()
            (apply_more_ops if i else apply_ops)(world, stream)
            session.commit()
            text = path.read_text(encoding="utf-8")
            assert text == oracles.working_text(json.loads(world.export_text(True)))
            assert session.audit_path.read_text(encoding="utf-8") == "".join(
                compact_json(encode(event)) + "\n" for event in world.audit
            )


# What a command may touch on a loaded world: a store (with the stores it holds) or the log.
TOUCHABLE = ["directory", "cloud", "vault", "onboarder", "tokens", "reconciler", "authz", "audit"]


def touch(world: World, name: str) -> None:
    if name == "audit":
        world.audit.decoded()
    else:
        getattr(world, name)


def audit_lines(text: str) -> list[str]:
    """The audit events' lines of a working file, less their commas and the array's "]"."""
    lines = text.split("\n")
    events = lines[1:next(i for i, line in enumerate(lines) if line.startswith('"authz":'))]
    return [line.removesuffix(",").removesuffix("]") for line in events]


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(ops, max_size=20), touched=st.sets(st.sampled_from(TOUCHABLE)),
       more=st.lists(ops, max_size=8), drop_sidecar=st.booleans())
def test_a_partly_decoded_world_saves_what_a_fully_decoded_one_saves(
        stream, touched, more, drop_sidecar):
    with tempfile.TemporaryDirectory() as workdir:
        loaded = Path(workdir) / "loaded.json"
        session = Session(loaded)
        session.replace(World.new(seed=8))
        apply_ops(session.world, stream)
        session.commit()
        written = {}
        for label, names in (("partly", touched), ("fully", TOUCHABLE)):
            path = Path(workdir) / f"{label}.json"
            shutil.copy(loaded, path)
            if not drop_sidecar:  # else the commit writes every event, the loaded ones too
                shutil.copy(session.audit_path, f"{path}.audit.jsonl")
            commit = Session(path)
            world = commit.world
            for name in names:
                touch(world, name)
            if more:
                apply_more_ops(world, more)
            world.advance(1)  # a change, so the commit saves
            commit.commit()
            text = path.read_text(encoding="utf-8")
            document = json.loads(text)
            assert document == json.loads(world.export_text(True))
            sections = [line for line in text.split("\n")[:-1] if not line.startswith('{"action":')]
            assert [line.lstrip("{").split(":", 1)[0] for line in sections] == [
                json.dumps(key) for key in sorted(document)]
            sidecar = commit.audit_path.read_text(encoding="utf-8")
            assert sidecar.splitlines() == audit_lines(text)
            written[label] = text, sidecar
        assert written["partly"] == written["fully"]


# The stores every change to which emits a mutation named after them.
AUDITED = ["directory", "cloud", "vault"]


def sections(text: str) -> dict[str, str]:
    """Each top-level section's text in a working file, found a line each."""
    found = {}
    for line in text.split("\n")[1:-1]:  # the audit array's first line, then the trailing ""
        if line.startswith('"'):
            key, value = line.split(":", 1)
            found[json.loads(key)] = value[:-1]  # less the "," or, on the last line, the "}"
    return found


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(pooled_ops, max_size=20), touched=st.sets(st.sampled_from(TOUCHABLE)),
       more=st.lists(pooled_ops, max_size=12))
@example(stream=[("add", "ann", True), ("add", "helen", True), ("join", "ann", True),
                 ("join", "helen", True), ("tick", "ann", True), ("bucket", "ann", True),
                 ("read-join", "ann", False), ("sync", "ann", True)],
         touched=set(), more=[("read-leave", "ann", False), ("sync", "ann", True),
                              ("vault-read", "ann", True), ("leave", "ann", True)])
def test_a_store_with_no_mutation_since_the_load_encodes_to_its_loaded_text(stream, touched, more):
    # The premise of writing such a store back as loaded: no change escapes the audit.
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "world.json"
        world = World.new(seed=9)
        apply_ops(world, stream)
        world.save(path)
        loaded = sections(path.read_text(encoding="utf-8"))
        world = World.load(path)
        events = len(world.audit)
        for name in touched:
            touch(world, name)
        apply_more_ops(world, more)
        mutated = {event.action.partition(".")[0] for event in world.audit.decoded()[events:]
                   if event.category is Category.MUTATION}
        for name in AUDITED:
            if name not in mutated:
                assert compact_json(getattr(world, name).to_dict()) == loaded[name], name
        world.advance(1)
        world.save(path)
        assert path.read_text(encoding="utf-8") == oracles.working_text(
            json.loads(world.export_text(True)))


@settings(max_examples=20, deadline=None)
@given(stream=st.lists(pooled_ops, max_size=20))
def test_a_world_is_freed_without_the_collector_after_any_stream(stream):
    gc.collect()
    gc.disable()
    try:
        world = World.new(seed=10)
        apply_ops(world, stream)
        freed = weakref.ref(world)
        del world
        assert freed() is None
    finally:
        gc.enable()
