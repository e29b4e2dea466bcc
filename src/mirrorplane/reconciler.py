"""Account-creator control loop.

Each tick diffs the source-of-truth group against cloud state and converges:
creates missing mirror accounts (quota-aware placement, underscore names
rejected), stores and rotates vault keys, grants ActAs to human owners, and
decommissions mirrors whose source identity went away.  A tick that finds
nothing to do reports no changes, which is the convergence fixed point the
property tests assert.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator

from .audit import AuditLog
from .cloud import AccountStatus, Cloud, Role, mirror_email, workspace_principal
from .codec import Holder, counter, decode, encode
from .directory import PRINCIPAL_NAME_RE, SOURCE_OF_TRUTH_GROUP, Directory, PrincipalRecord
from .durations import DAY, MINUTE, format_duration, parse_duration
from .errors import (
    ControlPlaneError,
    GroupEmpty,
    GroupMissing,
    NoMirror,
    ParseError,
    UnderscoreNotSupported,
)
from .vault import SecretSource, Vault

if TYPE_CHECKING:
    from .world import World

IAM_FOLDER = "IAMSTORE"
DEFAULT_BASE_PROJECT = "service-accounts-project"
DURATION_KEYS = ("tick_interval", "rotation_age", "retiring_grace")


class ShardingMode(str, Enum):
    SINGLE_PROJECT = "single-project"
    PER_ORG_UNIT = "per-org-unit"


@dataclass
class ReconcileConfig:
    tick_interval: int = 15 * MINUTE
    rotation_age: int = 7 * DAY
    retiring_grace: int = 2 * DAY
    sharding_mode: ShardingMode = ShardingMode.SINGLE_PROJECT
    base_project: str = DEFAULT_BASE_PROJECT
    quota_default: int = 100

    def __post_init__(self) -> None:
        # Typed first: validate's comparisons pass a float or bool and fail a str with TypeError.
        for key in (*DURATION_KEYS, "quota_default"):
            counter(getattr(self, key), key)
        self.validate()

    def validate(self) -> None:
        if self.tick_interval < 1:
            raise ValueError("tick_interval must be positive")
        if self.rotation_age <= self.tick_interval:
            raise ValueError("rotation_age must exceed tick_interval")
        if self.retiring_grace <= 0:
            raise ValueError("retiring_grace must be positive")
        if self.quota_default < 1:
            raise ValueError("quota_default must be positive")
        if not PRINCIPAL_NAME_RE.fullmatch(self.base_project):
            raise ValueError(f"illegal base_project {self.base_project!r}")

    def describe(self) -> str:
        return " ".join(
            f"{key}={format_duration(value) if key in DURATION_KEYS else value}"
            for key, value in encode(self).items()
        )


def parse_config(document: str | bytes, overrides: dict) -> ReconcileConfig:
    """The defaults, overlaid with a JSON object's keys and then with ``overrides``.

    Durations may be written as ``15m``/``36h``/``7d`` or as minutes; every
    other value must have its default's JSON type.  Any bad document, key or
    value raises ParseError.
    """
    data = encode(ReconcileConfig())
    try:
        raw = {**json.loads(document), **overrides}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"config is not a JSON object: {exc}") from None
    unknown = set(raw) - set(data)
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if key in DURATION_KEYS:
            value = parse_duration(value)
        elif type(value) is not type(data[key]):
            raise ParseError(f"config key {key!r} must be a {type(data[key]).__name__}")
        data[key] = value
    try:
        return decode(ReconcileConfig, data)
    except ValueError as exc:
        raise ParseError(f"bad config: {exc}") from None


@dataclass
class ReconcileReport:
    tick_id: int
    at: int
    created: list[str] = field(default_factory=list)
    rotated: list[str] = field(default_factory=list)
    actas_granted: list[str] = field(default_factory=list)
    decommissioned: list[str] = field(default_factory=list)
    rejected: list[dict] = field(default_factory=list)  # {"principal", "reason"}
    errors: list[dict] = field(default_factory=list)  # {"principal", "error", "message"}

    @property
    def has_changes(self) -> bool:
        # Rejections recur every tick (the loop re-encounters underscore
        # names); they are advisories, not state changes.
        return bool(
            self.created
            or self.rotated
            or self.actas_granted
            or self.decommissioned
            or self.errors
        )

    def render(self) -> str:
        lines = [f"tick {self.tick_id} at t={self.at}"]
        for label, items in (
            ("created", self.created),
            ("rotated", self.rotated),
            ("actas_granted", self.actas_granted),
            ("decommissioned", self.decommissioned),
        ):
            lines.append(f"  {label}: {len(items)}")
            for item in items:
                lines.append(f"    {item}")
        lines.append(f"  rejected: {len(self.rejected)}")
        for item in self.rejected:
            lines.append(f"    {item['principal']}: {item['reason']}")
        lines.append(f"  errors: {len(self.errors)}")
        for item in self.errors:
            lines.append(f"    {item.get('principal', '-')}: {item['error']}: {item['message']}")
        return "\n".join(lines)


def derive_mirror_name(principal: str, target_project: str) -> str:
    """Mirror email for a principal, or UnderscoreNotSupported.

    Underscore names are rejected outright: substituting a hyphen would make
    e.g. ``data_pipeline`` and ``data-pipeline`` share one mirror name.
    """
    if "_" in principal:
        raise UnderscoreNotSupported(
            f"{principal!r} contains an underscore, which cloud service-account "
            "names do not allow"
        )
    return mirror_email(f"{principal}-mirror", target_project)


class Reconciler(Holder):
    HOLDS = ("directory", "cloud", "vault")
    directory: Directory
    cloud: Cloud
    vault: Vault

    def __init__(self, world: World) -> None:
        super().__init__(world)
        self.secrets: SecretSource = world.secrets
        self.config: ReconcileConfig = world.config
        self._audit: AuditLog = world.audit
        self.tick_count = 0
        self.ticks_run = 0  # by this object, since it was made or loaded
        self.last_report: ReconcileReport | None = None
        # (folder, base) -> the lowest suffix that may still have room.  Counts
        # only grow within a tick and every tick starts a fresh cursor, so a
        # set_quota between ticks needs no hook.
        self._cursor: dict[tuple[str, str], int] = {}

    # -- placement ---------------------------------------------------------

    def placement_base(self, record: PrincipalRecord) -> tuple[str, str]:
        """(folder, base project id) the record's mirror belongs under."""
        if self.config.sharding_mode is ShardingMode.SINGLE_PROJECT:
            return IAM_FOLDER, self.config.base_project
        ou = record.org_unit
        return f"{ou.upper()}IAM", f"{ou}-service-accounts-project"

    def select_project(self, record: PrincipalRecord) -> str:
        """Pick the project for a new mirror, sharding past full projects.

        Projects are created on demand as ``base``, ``base-2``, ``base-3``...
        under one folder, so placement never fails on quota.  The probe
        resumes at the base's cursor: every project below it was full.
        """
        self.take_stores()
        key = folder, base = self.placement_base(record)
        suffix = self._cursor.get(key, 1)
        while True:
            project = base if suffix == 1 else f"{base}-{suffix}"
            self.cloud.ensure_project(folder, project)
            quota = self.cloud.quota(project)
            if quota.current_count < quota.max_service_accounts:
                self._cursor[key] = suffix
                return project
            suffix += 1

    # -- decommission --------------------------------------------------------

    def decommission(self, principal: str) -> None:
        """Disable the principal's mirror, kill its keys, strip ActAs grants."""
        self.take_stores()
        email = self.cloud.active_mirror_for(principal)
        if email is None:
            raise NoMirror(f"{principal!r} has no active mirror account")
        self.cloud.disable_service_account(email)
        if self.vault.has_entry(email):
            self.vault.revoke_all(email)
        node = self.cloud.node(email)
        for binding in [b for b in node.bindings if b.role is Role.ACT_AS]:
            self.cloud.unbind_role(email, Role.ACT_AS, binding.principal)

    # -- the tick --------------------------------------------------------------

    def reconcile_tick(self) -> ReconcileReport:
        self.take_stores()
        report = ReconcileReport(tick_id=self.tick_count + 1, at=self._audit.now())
        self._cursor = {}
        with self._audit.scope(tick_id=report.tick_id):
            self._tick(report)
        self.tick_count = report.tick_id
        self.ticks_run += 1
        self.last_report = report
        return report

    def _tick(self, report: ReconcileReport) -> None:
        # (1) Source-group verification gates the whole tick.
        try:
            members = self.directory.verify_source_group()
        except (GroupMissing, GroupEmpty) as exc:
            self._audit.control("reconcile.abort", SOURCE_OF_TRUTH_GROUP)
            report.errors.append({"error": exc.name, "message": str(exc)})
            return

        # (2) Converge each member.
        for member in members:
            with self._step(member, report):
                self._converge_member(member, report)

        # (3) Decommission mirrors whose source left the group or the directory.
        current = set(members)
        for acct in self.cloud.accounts():
            if acct.status is not AccountStatus.ACTIVE:
                continue
            src = acct.source_principal
            if src not in current or not self.directory.has_principal(src):
                with self._step(src, report):
                    self.decommission(src)
                    report.decommissioned.append(acct.email)

        # (4) Phase out retiring keys whose grace window elapsed.
        self.vault.expire_versions(report.at, self.config.retiring_grace)

    @contextmanager
    def _step(self, principal: str, report: ReconcileReport) -> Iterator[None]:
        """Run one principal's step; a failure is reported against it and the tick goes on."""
        try:
            yield
        except UnderscoreNotSupported:
            report.rejected.append({"principal": principal, "reason": "UnderscoreNotSupported"})
            self._audit.control("reconcile.reject_underscore", principal)
        except ControlPlaneError as exc:
            report.errors.append({"principal": principal, "error": exc.name, "message": str(exc)})
            self._audit.control("reconcile.error", principal)

    def run_ticks(self, count: int, advance: Callable[[int], int]) -> list[ReconcileReport]:
        """Simulate the scheduler: tick, then advance one interval, repeated."""
        reports = []
        for _ in range(count):
            reports.append(self.reconcile_tick())
            advance(self.config.tick_interval)
        return reports

    def _converge_member(self, member: str, report: ReconcileReport) -> None:
        """Ensure the member's mirror, an active key, and (for humans) ActAs.

        Each step checks current state rather than what this tick created, so
        a tick that failed halfway is finished by the next one.
        """
        record = self.directory.principal(member)
        email = self.cloud.active_mirror_for(member)
        created = email is None

        if created:
            # Underscore check happens before any placement side effects.
            derive_mirror_name(member, self.config.base_project)
            project = self.select_project(record)
            email = self.cloud.create_service_account(
                project, f"{member}-mirror", source_principal=member
            )

        # A new mirror gets a fresh key, and so does an existing one with no
        # active key (a store failed on an earlier tick) or one past rotation_age.
        # A mirror counts as created only once it holds a key, so a failed
        # store shows as this member's error and the repair as a rotation.
        active = None if created else self.vault.active_version(email)
        if active is None or report.at - active.created_at >= self.config.rotation_age:
            self.vault.store_key(email, member, self.secrets.next_secret())
            (report.created if created else report.rotated).append(email)

        # Alg-style unconditional ActAs grant for humans; the binding is
        # idempotent and only a genuinely new grant is reported.
        if record.has_workspace_identity:
            if self.cloud.bind_role(email, Role.ACT_AS, workspace_principal(member)):
                report.actas_granted.append(email)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return encode({"tick_count": self.tick_count, "last_report": self.last_report})

    def load_state(self, data: dict) -> None:
        self.tick_count = counter(data["tick_count"], "tick_count")
        self.last_report = decode(ReconcileReport | None, data.get("last_report"))
