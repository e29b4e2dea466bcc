"""Cloud provider model: resource tree, service accounts, bindings, quotas.

The hierarchy is a strict tree rooted at a single organization.  Bindings are
attached to nodes and reference cloud principals by a prefixed id so audit
lines stay unambiguous:

    workspace:<name>           human workspace identity
    serviceAccount:<email>     mirror service account
    group:<group-id>           cloud group

Mutations are atomic per operation and serialized behind the control-plane
writer; queries are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .audit import AuditLog
from .codec import counter, decode, encode
from .errors import (
    AlreadyDisabled,
    ControlPlaneError,
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

DEFAULT_QUOTA = 100
BUCKET_SCHEME = "gs://"


class NodeKind(str, Enum):
    ORGANIZATION = "organization"
    FOLDER = "folder"
    PROJECT = "project"
    SERVICE_ACCOUNT = "service-account"
    CLOUD_GROUP = "cloud-group"
    BUCKET = "bucket"


class Role(str, Enum):
    ACT_AS = "act-as"
    BUCKET_READER = "bucket-reader"
    BUCKET_WRITER = "bucket-writer"
    BUCKET_OWNER = "bucket-owner"
    GROUP_MEMBER = "group-member"


# Which parents may contain which child kinds.
LEGAL_PARENTS: dict[NodeKind, set[NodeKind]] = {
    NodeKind.FOLDER: {NodeKind.ORGANIZATION, NodeKind.FOLDER},
    NodeKind.PROJECT: {NodeKind.ORGANIZATION, NodeKind.FOLDER},
    NodeKind.SERVICE_ACCOUNT: {NodeKind.PROJECT},
    NodeKind.BUCKET: {NodeKind.PROJECT},
    NodeKind.CLOUD_GROUP: {NodeKind.ORGANIZATION},
}

# Which node kinds a role may be bound to.
LEGAL_ROLE_NODES: dict[Role, NodeKind] = {
    Role.ACT_AS: NodeKind.SERVICE_ACCOUNT,
    Role.BUCKET_READER: NodeKind.BUCKET,
    Role.BUCKET_WRITER: NodeKind.BUCKET,
    Role.BUCKET_OWNER: NodeKind.BUCKET,
    Role.GROUP_MEMBER: NodeKind.CLOUD_GROUP,
}


def workspace_principal(name: str) -> str:
    return f"workspace:{name}"


def sa_principal(email: str) -> str:
    return f"serviceAccount:{email}"


def group_principal(group_id: str) -> str:
    return f"group:{group_id}"


class AccountStatus(str, Enum):
    ACTIVE = "active"
    DISABLED = "disabled"


@dataclass(frozen=True)
class RoleBinding:
    role: Role
    principal: str


@dataclass
class ResourceNode:
    id: str
    kind: NodeKind
    parent: str | None
    bindings: list[RoleBinding] = field(default_factory=list)


@dataclass
class MirrorAccount:
    email: str
    source_principal: str
    project: str
    status: AccountStatus = AccountStatus.ACTIVE


@dataclass
class ProjectQuota:
    project: str
    max_service_accounts: int = DEFAULT_QUOTA
    current_count: int = 0

    def __post_init__(self) -> None:
        counter(self.max_service_accounts, "max_service_accounts", least=1)
        counter(self.current_count, "current_count")


def mirror_email(account_name: str, project: str) -> str:
    return f"{account_name}@{project}.iam.gserviceaccount.com"


class Cloud:
    """Provider-style mutation API over the resource tree."""

    def __init__(self, audit: AuditLog, default_quota: int = DEFAULT_QUOTA) -> None:
        self._audit = audit
        self.default_quota = default_quota
        self._nodes: dict[str, ResourceNode] = {}
        self._accounts: dict[str, MirrorAccount] = {}
        self._quotas: dict[str, ProjectQuota] = {}
        # Derived from _accounts, never serialized: source -> its Active emails.
        self._active: dict[str, set[str]] = {}
        # Derived from _nodes, never serialized: parent id -> its children's
        # ids, which ``children`` sorts.  Nodes are never deleted or re-parented.
        self._children: dict[str | None, list[str]] = {}

    # -- queries ----------------------------------------------------------

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> ResourceNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r}") from None

    def nodes(self) -> list[ResourceNode]:
        return [self._nodes[i] for i in sorted(self._nodes)]

    def organization(self) -> ResourceNode | None:
        for node in self._nodes.values():
            if node.kind is NodeKind.ORGANIZATION:
                return node
        return None

    def organization_id(self) -> str:
        org = self.organization()
        if org is None:
            raise ControlPlaneError("cloud has no organization node")
        return org.id

    def children(self, node_id: str) -> list[ResourceNode]:
        return sorted(
            (self._nodes[i] for i in self._children.get(node_id, ())),
            key=lambda n: (n.kind.value, n.id),
        )

    def has_account(self, email: str) -> bool:
        return email in self._accounts

    def account(self, email: str) -> MirrorAccount:
        try:
            return self._accounts[email]
        except KeyError:
            raise UnknownAccount(f"no service account {email!r}") from None

    def accounts(self) -> list[MirrorAccount]:
        return [self._accounts[e] for e in sorted(self._accounts)]

    def active_mirror_for(self, source_principal: str) -> str | None:
        """Email of the source's Active mirror, or None.

        The 1:1 invariant keeps this unambiguous; a (never expected) violation
        still resolves deterministically, to the lowest email.
        """
        emails = self._active.get(source_principal)
        return min(emails) if emails else None

    def quota(self, project: str) -> ProjectQuota:
        try:
            return self._quotas[project]
        except KeyError:
            raise UnknownNode(f"no project {project!r}") from None

    def quotas(self) -> list[ProjectQuota]:
        return [self._quotas[p] for p in sorted(self._quotas)]

    def has_binding(self, node_id: str, role: Role, principal: str) -> bool:
        node = self.node(node_id)
        return RoleBinding(role, principal) in node.bindings

    def lookup(self, ident: str):
        """Resolve an account email or node id to its record."""
        key = self.strip_scheme(ident)
        if key in self._accounts:
            return self._accounts[key]
        if key in self._nodes:
            return self._nodes[key]
        raise NotFound(f"nothing known as {ident!r}")

    @staticmethod
    def strip_scheme(ident: str) -> str:
        # Buckets display as gs://..., ids are scheme-less; only user input is stripped.
        if ident.startswith(BUCKET_SCHEME):
            ident = ident[len(BUCKET_SCHEME):]
        return ident.rstrip("/") if ident else ident

    # -- mutations ----------------------------------------------------------

    def create_node(self, kind: NodeKind, node_id: str, parent: str | None) -> ResourceNode:
        if kind is NodeKind.ORGANIZATION:
            if parent is not None:
                raise IllegalParent("organization is the root and takes no parent")
            if self.organization() is not None:
                raise DuplicateId("an organization already exists")
        else:
            if parent is None:
                raise IllegalParent(f"{kind.value} requires a parent")
            parent_node = self.node(parent)
            if parent_node.kind not in LEGAL_PARENTS[kind]:
                raise IllegalParent(
                    f"{kind.value} may not live under {parent_node.kind.value} {parent!r}"
                )
        if node_id in self._nodes:
            raise DuplicateId(f"node id {node_id!r} already exists")
        node = ResourceNode(id=node_id, kind=kind, parent=parent)
        self._nodes[node_id] = node
        self._children.setdefault(parent, []).append(node_id)
        if kind is NodeKind.PROJECT:
            self._quotas[node_id] = ProjectQuota(
                project=node_id, max_service_accounts=self.default_quota
            )
        self._audit.mutation(f"cloud.create_node.{kind.value}", node_id)
        return node

    def ensure_project(self, folder: str, project: str) -> str:
        """Create the folder under the organization and the project in it, where missing."""
        if not self.has_node(folder):
            self.create_node(NodeKind.FOLDER, folder, self.organization_id())
        if not self.has_node(project):
            self.create_node(NodeKind.PROJECT, project, folder)
        return project

    def create_service_account(self, project: str, account_name: str, source_principal: str) -> str:
        """Create (or re-provision) a service account, returning its email.

        A Disabled record holding the derived email is replaced by a fresh
        Active account with no bindings; DuplicateEmail fires only when an
        Active account already holds the email.  QuotaExceeded signals the
        placement engine to shard.
        """
        project_node = self.node(project)
        if project_node.kind is not NodeKind.PROJECT:
            raise UnknownNode(f"{project!r} is not a project")
        email = mirror_email(account_name, project)
        existing = self._accounts.get(email)
        if existing is not None and existing.status is AccountStatus.ACTIVE:
            raise DuplicateEmail(f"{email} already exists")
        if existing is None:
            quota = self._quotas[project]
            if quota.current_count >= quota.max_service_accounts:
                raise QuotaExceeded(
                    f"project {project!r} is at its limit of "
                    f"{quota.max_service_accounts} service accounts"
                )
            quota.current_count += 1
            self._nodes[email] = ResourceNode(
                id=email, kind=NodeKind.SERVICE_ACCOUNT, parent=project
            )
            self._children.setdefault(project, []).append(email)
        else:
            # Fresh identity on a recycled email: revoke any leftover bindings.
            for binding in list(self.node(email).bindings):
                self.unbind_role(email, binding.role, binding.principal)
        self._accounts[email] = MirrorAccount(
            email=email, source_principal=source_principal, project=project
        )
        self._active.setdefault(source_principal, set()).add(email)
        self._audit.mutation("cloud.create_service_account", email)
        return email

    def bind_role(self, node_id: str, role: Role, principal: str) -> bool:
        """Attach a binding if absent; returns whether anything changed."""
        node = self.node(node_id)
        if node.kind is not LEGAL_ROLE_NODES[role]:
            raise IllegalRoleForNode(
                f"role {role.value} cannot attach to {node.kind.value} {node_id!r}"
            )
        binding = RoleBinding(role=role, principal=principal)
        if binding in node.bindings:
            return False
        node.bindings.append(binding)
        self._audit.mutation(f"cloud.bind_role.{role.value}", f"{node_id}:{principal}")
        return True

    def unbind_role(self, node_id: str, role: Role, principal: str) -> bool:
        """Detach a binding if present; returns whether anything changed."""
        node = self.node(node_id)
        binding = RoleBinding(role=role, principal=principal)
        if binding not in node.bindings:
            return False
        node.bindings.remove(binding)
        self._audit.mutation(f"cloud.unbind_role.{role.value}", f"{node_id}:{principal}")
        return True

    def disable_service_account(self, email: str) -> MirrorAccount:
        acct = self.account(email)
        if acct.status is AccountStatus.DISABLED:
            raise AlreadyDisabled(f"{email} is already disabled")
        acct.status = AccountStatus.DISABLED
        self._active[acct.source_principal].discard(email)
        self._audit.mutation("cloud.disable_service_account", email)
        return acct

    def set_quota(self, project: str, max_service_accounts: int) -> ProjectQuota:
        quota = self.quota(project)
        if max_service_accounts < 1:
            raise InvalidQuota("quota must be positive")
        if max_service_accounts < quota.current_count:
            raise InvalidQuota(
                f"project {project!r} already holds {quota.current_count} accounts"
            )
        quota.max_service_accounts = max_service_accounts
        self._audit.mutation("cloud.set_quota", f"{project}:{max_service_accounts}")
        return quota

    # -- rendering / serialization ---------------------------------------

    def render_tree(self) -> str:
        org = self.organization()
        if org is None:
            return "(no organization)"
        lines: list[str] = []
        # Depth first with a stack: a recursive closure would be a reference cycle
        # holding this cloud until the cyclic collector ran.
        stack = [(org, 0)]
        while stack:
            node, depth = stack.pop()
            label = node.id
            if node.kind is NodeKind.BUCKET:
                label = BUCKET_SCHEME + node.id
            suffix = ""
            if node.kind is NodeKind.PROJECT and node.id in self._quotas:
                q = self._quotas[node.id]
                suffix = f" [{q.current_count}/{q.max_service_accounts} accounts]"
            if node.kind is NodeKind.SERVICE_ACCOUNT:
                acct = self._accounts.get(node.id)
                if acct is not None:
                    suffix = f" ({acct.status.value})"
            lines.append(f"{'  ' * depth}{node.kind.value}: {label}{suffix}")
            # Each other node has one parent, so only an organization parented
            # inside its own tree could be reached twice.
            stack += [(child, depth + 1) for child in reversed(self.children(node.id))
                      if child is not org]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return encode({
            "nodes": self.nodes(),
            "accounts": self.accounts(),
            "quotas": self.quotas(),
            "default_quota": self.default_quota,
        })

    def load_state(self, data: dict) -> None:
        default = data.get("default_quota", DEFAULT_QUOTA)
        self.default_quota = counter(default, "default_quota", least=1)
        self._nodes = {n.id: n for n in decode(list[ResourceNode], data["nodes"])}
        self._children = {}
        for node in self._nodes.values():
            self._children.setdefault(node.parent, []).append(node.id)
        self._accounts = {a.email: a for a in decode(list[MirrorAccount], data["accounts"])}
        self._active = {}
        for acct in self._accounts.values():
            if acct.status is AccountStatus.ACTIVE:
                self._active.setdefault(acct.source_principal, set()).add(acct.email)
        self._quotas = {q.project: q for q in decode(list[ProjectQuota], data["quotas"])}
