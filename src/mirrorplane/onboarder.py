"""Per-user bucket provisioning and reader-group sync.

Every HDFS home maps to one bucket owned by the user's mirror account.  Each
bucket gets a paired on-premise reader group and cloud reader group; sync is
full set-reconciliation, so cloud reader membership is always driven to the
image of the on-premise group under the mirror mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cloud import Cloud, NodeKind, Role, group_principal, sa_principal
from .codec import Holder, decode, encode
from .directory import Directory
from .errors import NoHdfsHome, NoMirror, UnmappablePath

if TYPE_CHECKING:
    from .world import World

DATASTORE_FOLDER = "DATASTORE"
SHARED_STORAGE_PROJECT = "shared-gcs-storage-project"
BUCKET_SUFFIX = ".dp.domain"
CLOUD_GROUP_DOMAIN = "groups.dp.domain"


def bucket_id_for(principal: str) -> str:
    return f"user.{principal}{BUCKET_SUFFIX}"


def principal_for_bucket(bucket_id: str) -> str:
    """Inverse of bucket_id_for; raises for ids not of the derived form."""
    if not (bucket_id.startswith("user.") and bucket_id.endswith(BUCKET_SUFFIX)):
        raise UnmappablePath(f"{bucket_id!r} is not a user bucket id")
    name = bucket_id[len("user."):-len(BUCKET_SUFFIX)]
    if not name or "." in name:
        raise UnmappablePath(f"{bucket_id!r} is not a user bucket id")
    return name


def ldap_reader_group(bucket_id: str) -> str:
    return f"reader-{bucket_id}"


def cloud_reader_group(bucket_id: str) -> str:
    return f"reader-{bucket_id}@{CLOUD_GROUP_DOMAIN}"


def map_hdfs_path(path: str) -> str:
    """Map ``/<dc>/<cluster>/user/<name>/<rest>`` to its bucket path."""
    parts = path.split("/")
    # parts[0] is empty for absolute paths: ['', dc, cluster, 'user', name, ...]
    if len(parts) < 5 or parts[0] != "" or parts[3] != "user" or not parts[4]:
        raise UnmappablePath(f"{path!r} has no user home segment")
    name = parts[4]
    rest = "/".join(parts[5:])
    return f"gs://{bucket_id_for(name)}/{rest}"


@dataclass
class BucketMapping:
    principal: str
    hdfs_home: str
    bucket_id: str


@dataclass
class ReaderGroupPair:
    bucket_id: str
    ldap_group: str
    cloud_group: str


@dataclass
class SyncReport:
    added: list[dict] = field(default_factory=list)  # {"cloud_group", "member"}
    removed: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)  # {"ldap_group", "principal", "reason"}

    @property
    def has_changes(self) -> bool:
        return bool(self.added or self.removed)

    def render(self) -> str:
        lines = [
            f"added: {len(self.added)}",
            *(f"  {x['cloud_group']} += {x['member']}" for x in self.added),
            f"removed: {len(self.removed)}",
            *(f"  {x['cloud_group']} -= {x['member']}" for x in self.removed),
            f"skipped: {len(self.skipped)}",
            *(f"  {x['ldap_group']}: {x['principal']} ({x['reason']})" for x in self.skipped),
        ]
        return "\n".join(lines)


class Onboarder(Holder):
    HOLDS = ("directory", "cloud")
    directory: Directory
    cloud: Cloud

    def __init__(self, world: World) -> None:
        super().__init__(world)
        self._mappings: dict[str, BucketMapping] = {}  # principal -> mapping
        self._pairs: dict[str, ReaderGroupPair] = {}  # bucket_id -> pair

    # -- queries ---------------------------------------------------------

    def mappings(self) -> list[BucketMapping]:
        return [self._mappings[p] for p in sorted(self._mappings)]

    def pair_for(self, bucket_id: str) -> ReaderGroupPair | None:
        return self._pairs.get(bucket_id)

    def pairs(self) -> list[ReaderGroupPair]:
        return [self._pairs[b] for b in sorted(self._pairs)]

    # -- provisioning ------------------------------------------------------

    def provision_bucket(self, principal: str) -> BucketMapping:
        """Create the principal's bucket, owner binding, and reader pair.

        Idempotent: a principal that is already provisioned gets its existing
        mapping back with no state change.
        """
        self.take_stores()
        existing = self._mappings.get(principal)
        if existing is not None:
            return existing
        email = self.cloud.active_mirror_for(principal)
        if email is None:
            raise NoMirror(f"{principal!r} has no active mirror account")
        if not self.directory.has_principal(principal):
            raise NoHdfsHome(f"{principal!r} is not in the directory")
        record = self.directory.principal(principal)
        if not record.hdfs_home:
            raise NoHdfsHome(f"{principal!r} has no HDFS home to map")

        bucket_id = bucket_id_for(principal)
        project = self.cloud.ensure_project(DATASTORE_FOLDER, SHARED_STORAGE_PROJECT)
        self.cloud.create_node(NodeKind.BUCKET, bucket_id, project)
        self.cloud.bind_role(bucket_id, Role.BUCKET_OWNER, sa_principal(email))

        ldap_group = ldap_reader_group(bucket_id)
        cloud_group = cloud_reader_group(bucket_id)
        if not self.directory.has_group(ldap_group):
            self.directory.add_group(ldap_group)
        self.cloud.create_node(NodeKind.CLOUD_GROUP, cloud_group, self.cloud.organization_id())
        self.cloud.bind_role(bucket_id, Role.BUCKET_READER, group_principal(cloud_group))

        mapping = BucketMapping(
            principal=principal, hdfs_home=record.hdfs_home, bucket_id=bucket_id
        )
        self._mappings[principal] = mapping
        self._pairs[bucket_id] = ReaderGroupPair(
            bucket_id=bucket_id, ldap_group=ldap_group, cloud_group=cloud_group
        )
        return mapping

    # -- sync ---------------------------------------------------------------

    def sync_reader_groups(self) -> SyncReport:
        """Drive every cloud reader group to the mirror image of its LDAP group.

        Members without an active mirror are skipped and reported; on-premise
        removals propagate as cloud removals.
        """
        self.take_stores()
        report = SyncReport()
        for bucket_id in sorted(self._pairs):
            pair = self._pairs[bucket_id]
            desired: set[str] = set()
            for member in self.directory.group(pair.ldap_group).members:
                email = self.cloud.active_mirror_for(member)
                if email is None:
                    report.skipped.append(
                        {
                            "ldap_group": pair.ldap_group,
                            "principal": member,
                            "reason": "no-active-mirror",
                        }
                    )
                else:
                    desired.add(sa_principal(email))
            node = self.cloud.node(pair.cloud_group)
            current = {
                b.principal for b in node.bindings if b.role is Role.GROUP_MEMBER
            }
            for member in sorted(desired - current):
                self.cloud.bind_role(pair.cloud_group, Role.GROUP_MEMBER, member)
                report.added.append({"cloud_group": pair.cloud_group, "member": member})
            for member in sorted(current - desired):
                self.cloud.unbind_role(pair.cloud_group, Role.GROUP_MEMBER, member)
                report.removed.append({"cloud_group": pair.cloud_group, "member": member})
        return report

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return encode({"mappings": self.mappings(), "pairs": self.pairs()})

    def load_state(self, data: dict) -> None:
        self._mappings = {m.principal: m for m in decode(list[BucketMapping], data["mappings"])}
        self._pairs = {p.bucket_id: p for p in decode(list[ReaderGroupPair], data["pairs"])}
