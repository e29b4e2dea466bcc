"""Invariant checker over a whole world.

Two tiers.  Safety rules hold on every state reachable through the CLI, no
matter where a reconcile or sync cycle stands; they catch hand-edited or
corrupted snapshots (cross-principal ActAs grants, duplicate active mirrors,
quota breaches, ...).  Convergence rules are the set-equalities that only a
quiesced world satisfies (membership bijection, ActAs and reader-group set
equality, rotation freshness); they are checked when asked, right after a
tick or sync.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .cloud import (AccountStatus, MirrorAccount, NodeKind, ResourceNode, Role, RoleBinding,
                    sa_principal, workspace_principal)
from .directory import PRINCIPAL_NAME_RE, SOURCE_OF_TRUTH_GROUP, PrincipalKind
from .onboarder import principal_for_bucket
from .errors import UnmappablePath
from .vault import REDACTED, KeyState
from .world import World

Bound = tuple[ResourceNode, RoleBinding]


@dataclass(frozen=True)
class Violation:
    rule: str
    target: str
    message: str

    def render(self) -> str:
        return f"{self.rule} [{self.target}]: {self.message}"


def verify_world(world: World, include_convergence: bool = False) -> list[Violation]:
    # The checks share these views instead of rescanning the tree or the accounts.
    nodes = world.cloud.nodes()
    bound = [(node, binding) for node in nodes for binding in node.bindings]
    actas = [(node, binding) for node, binding in bound if binding.role is Role.ACT_AS]
    accounts = world.cloud.accounts()
    out: list[Violation] = []
    _check_directory(world, out)
    _check_tree(world, nodes, out)
    _check_quotas(world, nodes, out)
    _check_mirrors(world, accounts, out)
    _check_actas(world, actas, out)
    _check_lockdown(bound, out)
    _check_vault(world, out)
    _check_buckets(world, bound, accounts, out)
    _check_tokens(world, out)
    _check_audit(world, out)
    if include_convergence:
        _check_convergence(world, actas, accounts, out)
    return out


def _check_directory(world: World, out: list[Violation]) -> None:
    for group in world.directory.groups():
        seen = set()
        for member in group.members:
            if not world.directory.has_principal(member):
                out.append(Violation(
                    "ReferentialIntegrityViolation", group.name,
                    f"member {member!r} does not exist",
                ))
            if member in seen:
                out.append(Violation(
                    "ReferentialIntegrityViolation", group.name,
                    f"member {member!r} appears twice",
                ))
            seen.add(member)
    for record in world.directory.principals():
        # A state file bypasses add_principal's checks; placement builds ids from both.
        for label, value in (("name", record.name), ("org unit", record.org_unit)):
            if not isinstance(value, str) or not PRINCIPAL_NAME_RE.fullmatch(value):
                out.append(Violation("NameViolation", record.name, f"illegal {label} {value!r}"))
        expect = record.kind is PrincipalKind.HUMAN
        if record.has_workspace_identity != expect:
            out.append(Violation(
                "WorkspaceFlagViolation", record.name,
                f"{record.kind.value} principal has workspace flag "
                f"{record.has_workspace_identity}",
            ))


def _check_tree(world: World, nodes: list[ResourceNode], out: list[Violation]) -> None:
    orgs = [n for n in nodes if n.kind is NodeKind.ORGANIZATION]
    if len(orgs) != 1:
        out.append(Violation(
            "TreeViolation", "organization", f"expected exactly 1 organization, found {len(orgs)}",
        ))
    for node in nodes:
        if node.kind is NodeKind.ORGANIZATION:
            if node.parent is not None:
                out.append(Violation("TreeViolation", node.id, "organization has a parent"))
            continue
        if node.parent is None:
            out.append(Violation("TreeViolation", node.id, "non-root node has no parent"))
            continue
        if not world.cloud.has_node(node.parent):
            out.append(Violation("TreeViolation", node.id, f"parent {node.parent!r} missing"))
            continue
        # Walking up must terminate at the organization without cycles.
        seen = {node.id}
        cursor = node
        while cursor.parent is not None:
            if cursor.parent in seen or not world.cloud.has_node(cursor.parent):
                out.append(Violation("TreeViolation", node.id, "parent walk does not reach the organization"))
                break
            seen.add(cursor.parent)
            cursor = world.cloud.node(cursor.parent)
        else:
            if cursor.kind is not NodeKind.ORGANIZATION:
                out.append(Violation("TreeViolation", node.id, "parent walk ends off-root"))


def _check_quotas(world: World, nodes: list[ResourceNode], out: list[Violation]) -> None:
    counts = Counter(n.parent for n in nodes if n.kind is NodeKind.SERVICE_ACCOUNT and n.parent)
    quotas = {quota.project: quota for quota in world.cloud.quotas()}
    for quota in quotas.values():
        actual = counts[quota.project]
        if actual != quota.current_count:
            out.append(Violation(
                "QuotaViolation", quota.project,
                f"count drift: {actual} accounts vs recorded {quota.current_count}",
            ))
        if quota.current_count > quota.max_service_accounts:
            out.append(Violation(
                "QuotaViolation", quota.project,
                f"{quota.current_count} accounts exceed limit {quota.max_service_accounts}",
            ))
    for node in nodes:
        if node.kind is NodeKind.PROJECT and node.id not in quotas:
            out.append(Violation("QuotaViolation", node.id, "project has no quota record"))


def _check_mirrors(world: World, accounts: list[MirrorAccount], out: list[Violation]) -> None:
    sources: dict[str, str] = {}
    for acct in accounts:
        if acct.status is AccountStatus.ACTIVE:
            if acct.source_principal in sources:
                out.append(Violation(
                    "BijectionViolation", acct.source_principal,
                    f"two active mirrors: {sources[acct.source_principal]} and {acct.email}",
                ))
            sources[acct.source_principal] = acct.email
        if not world.cloud.has_node(acct.email):
            out.append(Violation(
                "BijectionViolation", acct.email, "account has no service-account node",
            ))


def _check_actas(world: World, actas: list[Bound], out: list[Violation]) -> None:
    for node, binding in actas:
        if not world.cloud.has_account(node.id):
            out.append(Violation(
                "ActAsViolation", node.id, "ActAs binding on a non-mirror node",
            ))
            continue
        acct = world.cloud.account(node.id)
        if binding.principal != workspace_principal(acct.source_principal):
            out.append(Violation(
                "ActAsViolation", node.id,
                f"{binding.principal!r} may not act as a mirror of "
                f"{acct.source_principal!r}",
            ))


def _check_lockdown(bound: list[Bound], out: list[Violation]) -> None:
    # Mirror accounts get no grants on the identity-storage side of the tree:
    # no service-account principal may appear on org, folder, project, or
    # service-account nodes.
    for node, binding in bound:
        if (node.kind not in (NodeKind.BUCKET, NodeKind.CLOUD_GROUP)
                and binding.principal.startswith("serviceAccount:")):
            out.append(Violation(
                "LockdownViolation", node.id,
                f"mirror {binding.principal!r} holds a grant on {node.kind.value}",
            ))


def _check_vault(world: World, out: list[Violation]) -> None:
    holders: dict[str, str] = {}  # secret -> the first key id holding it
    invalidated = {e.target for e in world.audit if e.action in ("vault.expire_key", "vault.revoke_key")}
    for entry in world.vault.entries():
        active = [v for v in entry.versions if v.state is KeyState.ACTIVE]
        if len(active) > 1:
            out.append(Violation(
                "SingleActiveViolation", entry.account_email,
                f"{len(active)} active versions",
            ))
        _check_reissue(out, entry.account_email, "key id", "next_serial", entry.next_serial,
                       {v.key_id for v in entry.versions}, entry.key_id)
        if world.cloud.has_account(entry.account_email):
            acct = world.cloud.account(entry.account_email)
            if acct.source_principal != entry.owner_principal:
                out.append(Violation(
                    "OwnershipViolation", entry.account_email,
                    f"vault owner {entry.owner_principal!r} is not the mirror's "
                    f"source {acct.source_principal!r}",
                ))
        for version in entry.versions:
            if version.account_email != entry.account_email:
                out.append(Violation(
                    "OwnershipViolation", version.key_id, "version belongs to another entry",
                ))
            if (version.state is KeyState.INVALID) != (version.key_id in invalidated):
                out.append(Violation("LifecycleViolation", version.key_id, "state disagrees with the audit"))
            if version.state is KeyState.RETIRING and version.retiring_since is None:
                out.append(Violation("LifecycleViolation", version.key_id, "retiring_since unset"))
            if version.state is KeyState.ACTIVE and version.retiring_since is not None:
                out.append(Violation("LifecycleViolation", version.key_id, "retiring_since set"))
            if version.secret != REDACTED:  # an imported redacted export holds no secrets
                first = holders.setdefault(version.secret, version.key_id)
                if first != version.key_id:
                    out.append(Violation(
                        "SecretReuseViolation", version.key_id, f"secret also held by {first!r}",
                    ))


def _check_buckets(world: World, bound: list[Bound], accounts: list[MirrorAccount],
                   out: list[Violation]) -> None:
    mirrors: dict[str, set[str]] = {}
    for acct in accounts:
        mirrors.setdefault(acct.source_principal, set()).add(sa_principal(acct.email))
    for mapping in world.onboarder.mappings():
        try:
            parsed = principal_for_bucket(mapping.bucket_id)
        except UnmappablePath:
            parsed = None
        if parsed != mapping.principal:
            out.append(Violation(
                "MappingViolation", mapping.bucket_id,
                f"bucket id does not round-trip to {mapping.principal!r}",
            ))
        if not world.cloud.has_node(mapping.bucket_id):
            out.append(Violation(
                "MappingViolation", mapping.bucket_id, "bucket node missing",
            ))
            continue
        bucket = world.cloud.node(mapping.bucket_id)
        owners = [b.principal for b in bucket.bindings if b.role is Role.BUCKET_OWNER]
        # A decommissioned owner legitimately remains bound (the binding is
        # unreachable without a valid token), so any mirror of the principal
        # qualifies; raw principals and foreign mirrors never do.
        if len(owners) != 1 or owners[0] not in mirrors.get(mapping.principal, ()):
            out.append(Violation(
                "OwnershipViolation", mapping.bucket_id,
                f"owner bindings {owners} are not exactly one mirror of "
                f"{mapping.principal!r}",
            ))
    grants: dict[str, list[tuple[str, Role]]] = {}
    for node, binding in bound:
        grants.setdefault(binding.principal, []).append((node.id, binding.role))
    for pair in world.onboarder.pairs():
        if not world.cloud.has_node(pair.cloud_group):
            out.append(Violation(
                "ReaderGroupViolation", pair.cloud_group, "cloud group node missing",
            ))
            continue
        reader_grants = grants.get(f"group:{pair.cloud_group}", [])
        if reader_grants != [(pair.bucket_id, Role.BUCKET_READER)]:
            out.append(Violation(
                "ReaderGroupViolation", pair.cloud_group,
                f"expected exactly one BucketReader grant on {pair.bucket_id!r}, "
                f"found {[(n, r.value) for n, r in reader_grants]}",
            ))


def _check_reissue(out: list[Violation], target: str, noun: str, field: str,
                   next_serial: int, held: set[str], issue: Callable[[int], str]) -> None:
    """Report the first held id that a counter now at ``next_serial`` would issue again."""
    # ``issue`` formats the id of a serial; a held id is an issued one if ``issue`` gives it back.
    tails = filter(None, (key[len(key.rstrip("0123456789")):] for key in held))
    again = min((k for k in map(int, tails) if k >= next_serial and issue(k) in held),
                default=None)
    if again is not None:
        out.append(Violation("IdReuseViolation", target, (
            f"next {noun} {issue(again)!r} is already held" if again == next_serial
            else f"{noun} {issue(again)!r} is already held ({field} is {next_serial})"
        )))


def _check_tokens(world: World, out: list[Violation]) -> None:
    _check_reissue(out, "tokens", "token id", "tokens.next", world.tokens.next_serial,
                   {token.token_id for token in world.tokens.tokens()}, world.tokens.token_id)
    for token in world.tokens.tokens():
        if not world.cloud.has_account(token.subject):
            out.append(Violation(
                "TokenViolation", token.token_id,
                f"subject {token.subject!r} unknown",
            ))
        if world.vault.find_version(token.minted_from) is None:
            out.append(Violation(
                "TokenViolation", token.token_id,
                f"minted from unknown key {token.minted_from!r}",
            ))


def _check_audit(world: World, out: list[Violation]) -> None:
    for i, event in enumerate(world.audit, start=1):
        if event.seq != i:
            out.append(Violation(
                "AuditGapViolation", f"seq {i}",
                f"expected seq {i}, found {event.seq}",
            ))
            break


def _check_convergence(world: World, actas: list[Bound], accounts: list[MirrorAccount],
                       out: list[Violation]) -> None:
    members: list[str] = []
    if world.directory.has_group(SOURCE_OF_TRUTH_GROUP):
        members = world.directory.group(SOURCE_OF_TRUTH_GROUP).members
    legal = [m for m in members if "_" not in m and world.directory.has_principal(m)]

    live = [a for a in accounts if a.status is AccountStatus.ACTIVE]
    active = {a.source_principal: a.email for a in live}  # the last by email wins
    first_active = {a.source_principal: a.email for a in reversed(live)}  # as active_mirror_for
    if set(legal) != set(active):
        missing = sorted(set(legal) - set(active))
        extra = sorted(set(active) - set(legal))
        out.append(Violation(
            "BijectionViolation", SOURCE_OF_TRUTH_GROUP,
            f"membership and active mirrors differ (missing={missing}, extra={extra})",
        ))

    expected_actas = set()
    for member in legal:
        record = world.directory.principal(member)
        if record.has_workspace_identity and member in active:
            expected_actas.add((active[member], workspace_principal(member)))
    found_actas = {(node.id, binding.principal) for node, binding in actas}
    if expected_actas != found_actas:
        out.append(Violation(
            "ActAsViolation", "act-as",
            f"grants differ from the human-member set "
            f"(missing={sorted(expected_actas - found_actas)}, "
            f"extra={sorted(found_actas - expected_actas)})",
        ))

    for email in active.values():
        if world.vault.active_version(email) is None:
            out.append(Violation(
                "KeylessMirror", email, "active mirror has no active vault key",
            ))

    for entry in world.vault.entries():
        version = entry.active_version()
        if version is None:
            continue
        if world.clock - version.created_at >= world.config.rotation_age:
            out.append(Violation(
                "RotationViolation", version.key_id,
                f"active key age {world.clock - version.created_at} is past "
                f"rotation_age {world.config.rotation_age}",
            ))

    for pair in world.onboarder.pairs():
        desired = set()
        if world.directory.has_group(pair.ldap_group):
            members = world.directory.group(pair.ldap_group).members
            desired = {sa_principal(first_active[m]) for m in members if m in first_active}
        if not world.cloud.has_node(pair.cloud_group):
            continue  # already reported by the safety tier
        current = {
            b.principal
            for b in world.cloud.node(pair.cloud_group).bindings
            if b.role is Role.GROUP_MEMBER
        }
        if desired != current:
            out.append(Violation(
                "ReaderGroupViolation", pair.cloud_group,
                f"members differ from the on-premise image "
                f"(missing={sorted(desired - current)}, extra={sorted(current - desired)})",
            ))
