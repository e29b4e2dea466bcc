"""On-premise directory: users, groups, HDFS homes.

This is the source of truth the reconciler reads.  Directory operations never
touch cloud or vault state; the reconciler observes changes by diffing the
source-of-truth group against existing mirrors on its next tick.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .audit import AuditLog
from .codec import decode, encode, optional
from .errors import (
    DuplicateName,
    GroupEmpty,
    GroupMissing,
    InvalidName,
    UnknownGroup,
    UnknownPrincipal,
)

SOURCE_OF_TRUTH_GROUP = "mirror-account-users"

# Principal names follow LDAP/cloud naming limits.  Group names additionally
# allow dots because reader groups are derived from bucket ids
# ("reader-user.<name>.dp.domain").
PRINCIPAL_NAME_RE = re.compile(r"[a-z0-9_-]{1,63}")
GROUP_NAME_RE = re.compile(r"[a-z0-9_.-]{1,63}")


class PrincipalKind(str, Enum):
    HUMAN = "human"
    HEADLESS = "headless"


@dataclass
class PrincipalRecord:
    """One on-premise identity; LDAP and UNIX sides are modeled as one record."""

    name: str
    kind: PrincipalKind
    has_workspace_identity: bool
    hdfs_home: str | None
    created_at: int
    org_unit: str = optional("general")


@dataclass
class DirectoryGroup:
    name: str
    members: list[str] = field(default_factory=list)  # insertion-ordered, unique


class Directory:
    """Single-writer registry of principals and groups."""

    def __init__(self, audit: AuditLog) -> None:
        self._audit = audit
        self._principals: dict[str, PrincipalRecord] = {}
        self._groups: dict[str, DirectoryGroup] = {}
        # Derived from each member list, never serialized: how often it holds
        # each name (a loaded list may hold one twice, which verify reports).
        self._counts: dict[str, Counter[str]] = {}

    # -- introspection --------------------------------------------------

    def has_principal(self, name: str) -> bool:
        return name in self._principals

    def principal(self, name: str) -> PrincipalRecord:
        try:
            return self._principals[name]
        except KeyError:
            raise UnknownPrincipal(f"no principal named {name!r}") from None

    def principals(self) -> list[PrincipalRecord]:
        return [self._principals[name] for name in sorted(self._principals)]

    def has_group(self, name: str) -> bool:
        return name in self._groups

    def group(self, name: str) -> DirectoryGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise UnknownGroup(f"no group named {name!r}") from None

    def groups(self) -> list[DirectoryGroup]:
        return [self._groups[name] for name in sorted(self._groups)]

    def is_member(self, group_name: str, principal: str) -> bool:
        self.group(group_name)
        return self._counts[group_name][principal] > 0

    # -- mutations ------------------------------------------------------

    def add_principal(
        self,
        name: str,
        kind: PrincipalKind,
        hdfs_home: str | None = None,
        org_unit: str = "general",
    ) -> PrincipalRecord:
        if not PRINCIPAL_NAME_RE.fullmatch(name or ""):
            raise InvalidName(f"illegal principal name {name!r}")
        if not PRINCIPAL_NAME_RE.fullmatch(org_unit or ""):
            raise InvalidName(f"illegal org unit {org_unit!r}")
        if name in self._principals:
            raise DuplicateName(f"principal {name!r} already exists")
        record = PrincipalRecord(
            name=name,
            kind=kind,
            has_workspace_identity=(kind is PrincipalKind.HUMAN),
            hdfs_home=hdfs_home,
            created_at=self._audit.now(),
            org_unit=org_unit,
        )
        self._principals[name] = record
        self._audit.mutation("directory.add_principal", name)
        return record

    def add_group(self, name: str) -> DirectoryGroup:
        if not GROUP_NAME_RE.fullmatch(name or ""):
            raise InvalidName(f"illegal group name {name!r}")
        if name in self._groups:
            raise DuplicateName(f"group {name!r} already exists")
        group = DirectoryGroup(name=name)
        self._groups[name] = group
        self._counts[name] = Counter()
        self._audit.mutation("directory.add_group", name)
        return group

    def join_group(self, group_name: str, principal: str) -> DirectoryGroup:
        """Add ``principal`` to the group; re-joining is a no-op."""
        group = self.group(group_name)
        if principal not in self._principals:
            raise UnknownPrincipal(f"no principal named {principal!r}")
        counts = self._counts[group_name]
        if not counts[principal]:
            group.members.append(principal)
            counts[principal] += 1
            self._audit.mutation("directory.join_group", f"{group_name}:{principal}")
        return group

    def leave_group(self, group_name: str, principal: str) -> DirectoryGroup:
        """Remove ``principal`` from the group; leaving twice is a no-op."""
        group = self.group(group_name)
        if principal not in self._principals:
            raise UnknownPrincipal(f"no principal named {principal!r}")
        counts = self._counts[group_name]
        if counts[principal]:
            group.members.remove(principal)
            counts[principal] -= 1
            self._audit.mutation("directory.leave_group", f"{group_name}:{principal}")
        return group

    def remove_principal(self, name: str) -> dict:
        """Drop the principal and scrub it from every group.

        The removal itself is one audited mutation; the next reconcile tick
        picks it up and decommissions the mirror.
        """
        if name not in self._principals:
            raise UnknownPrincipal(f"no principal named {name!r}")
        removed_from = []
        for group in self._groups.values():
            if self._counts[group.name][name]:
                group.members.remove(name)
                self._counts[group.name][name] -= 1
                removed_from.append(group.name)
        del self._principals[name]
        self._audit.mutation("directory.remove_principal", name)
        return {"principal": name, "removed_from_groups": sorted(removed_from)}

    # -- reconciler entry point ------------------------------------------

    def verify_source_group(self) -> list[str]:
        """Return the source-of-truth member list, or fail the precondition.

        GroupMissing/GroupEmpty abort the caller's tick before any cloud
        mutation happens.
        """
        if SOURCE_OF_TRUTH_GROUP not in self._groups:
            raise GroupMissing(f"group {SOURCE_OF_TRUTH_GROUP!r} does not exist")
        members = self._groups[SOURCE_OF_TRUTH_GROUP].members
        if not members:
            raise GroupEmpty(f"group {SOURCE_OF_TRUTH_GROUP!r} has no members")
        return list(members)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return encode({"principals": self.principals(), "groups": self.groups()})

    def load_state(self, data: dict) -> None:
        self._principals = {p.name: p for p in decode(list[PrincipalRecord], data["principals"])}
        self._groups = {g.name: g for g in decode(list[DirectoryGroup], data["groups"])}
        self._counts = {g.name: Counter(g.members) for g in self._groups.values()}
