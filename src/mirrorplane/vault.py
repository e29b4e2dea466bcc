"""On-premise vault holding mirror-account key files.

Custody rules, not cryptography: secrets are opaque 128-bit hex tokens from a
seeded deterministic source.  The owner (the mirror's source principal) may
read the newest active version and nothing else; nobody, owner included, may
modify a stored version.  Writes happen only on the control-plane path
(store / expire / revoke) so every lifecycle transition is forced through the
audited state machine active -> retiring -> invalid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .audit import AuditLog
from .codec import Holder, counter, decode, encode
from .directory import Directory
from .errors import (
    DuplicateId,
    NoActiveKey,
    OwnerMismatch,
    PermissionDenied,
    UnknownEntry,
    UnknownOwner,
)

if TYPE_CHECKING:
    from .world import World

REDACTED = "[redacted]"
SECRET_HEX_CHARS = 32  # 128 bits


class KeyState(str, Enum):
    ACTIVE = "active"
    RETIRING = "retiring"
    INVALID = "invalid"


@dataclass
class SecretSource:
    """Deterministic stream of 128-bit hex secrets.

    A hash of ``seed:counter`` stands in for real key material so identical
    (seed, script) runs produce byte-identical state.
    """

    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        counter(self.counter, "counter")

    def next_secret(self) -> str:
        digest = hashlib.sha256(f"{self.seed}:{self.counter}".encode()).hexdigest()
        self.counter += 1
        return digest[:SECRET_HEX_CHARS]


@dataclass
class KeyVersion:
    key_id: str
    account_email: str
    secret: str
    state: KeyState
    created_at: int
    retiring_since: int | None = None


@dataclass
class VaultEntry:
    account_email: str
    owner_principal: str
    versions: list[KeyVersion] = field(default_factory=list)  # newest first
    next_serial: int = 1

    def __post_init__(self) -> None:
        counter(self.next_serial, "next_serial")

    def next_key_id(self) -> str:
        return self.key_id(self.next_serial)

    def key_id(self, serial: int) -> str:
        return f"{self.account_email}#v{serial}"

    def active_version(self) -> KeyVersion | None:
        for version in self.versions:
            if version.state is KeyState.ACTIVE:
                return version
        return None


class Vault(Holder):
    """Secret store with owner-only read and control-plane-only write.

    It holds the directory only to check the owner of a key it stores.
    """

    HOLDS = ("directory",)
    directory: Directory

    def __init__(self, world: World) -> None:
        super().__init__(world)
        self._audit: AuditLog = world.audit
        self._entries: dict[str, VaultEntry] = {}

    # -- queries ----------------------------------------------------------

    def has_entry(self, account_email: str) -> bool:
        return account_email in self._entries

    def entry(self, account_email: str) -> VaultEntry:
        try:
            return self._entries[account_email]
        except KeyError:
            raise UnknownEntry(f"no vault entry for {account_email!r}") from None

    def entries(self) -> list[VaultEntry]:
        return [self._entries[e] for e in sorted(self._entries)]

    def active_version(self, account_email: str) -> KeyVersion | None:
        entry = self._entries.get(account_email)
        return entry.active_version() if entry else None

    def find_version(self, key_id: str) -> KeyVersion | None:
        email = key_id.split("#", 1)[0]
        entry = self._entries.get(email)
        if entry is None:
            return None
        for version in entry.versions:
            if version.key_id == key_id:
                return version
        return None

    # -- control-plane writes ---------------------------------------------

    def store_key(self, account_email: str, owner: str, secret: str) -> KeyVersion:
        """Prepend a fresh active version; the prior active one starts retiring.

        Only the reconciler calls this; there is no user-facing write path.
        """
        self.take_stores()
        if not self.directory.has_principal(owner):
            raise UnknownOwner(f"no principal named {owner!r}")
        now = self._audit.now()
        entry = self._entries.get(account_email)
        if entry is None:
            entry = VaultEntry(account_email=account_email, owner_principal=owner)
            self._entries[account_email] = entry
        elif entry.owner_principal != owner:
            # All versions of an entry share one owner; a mismatch means the
            # 1:1 mapping is corrupt and this account's tick work must stop.
            raise OwnerMismatch(
                f"entry for {account_email!r} is owned by "
                f"{entry.owner_principal!r}, not {owner!r}"
            )
        key_id = entry.next_key_id()
        if self.find_version(key_id) is not None:
            # A reissued id would make the tokens minted from the old key valid again.
            raise DuplicateId(f"key id {key_id!r} is already held; next_serial is stale")
        prior = entry.active_version()
        if prior is not None:
            prior.state = KeyState.RETIRING
            prior.retiring_since = now
        version = KeyVersion(
            key_id=key_id,
            account_email=account_email,
            secret=secret,
            state=KeyState.ACTIVE,
            created_at=now,
        )
        entry.next_serial += 1
        entry.versions.insert(0, version)
        self._audit.mutation("vault.store_key", version.key_id)
        return version

    def expire_versions(self, now: int, grace: int) -> list[tuple[str, str, str]]:
        """Invalidate every retiring version whose grace window has elapsed.

        The boundary is inclusive: a version retiring since t expires at
        exactly t + grace.  Returns (key_id, from_state, to_state) triples.
        """
        transitions: list[tuple[str, str, str]] = []
        for email in sorted(self._entries):
            for version in self._entries[email].versions:
                # Fail closed: without retiring_since the grace window cannot be shown.
                since = version.retiring_since
                if version.state is KeyState.RETIRING and (since is None or now - since >= grace):
                    version.state = KeyState.INVALID
                    transitions.append(
                        (version.key_id, KeyState.RETIRING.value, KeyState.INVALID.value)
                    )
                    self._audit.mutation("vault.expire_key", version.key_id)
        return transitions

    def revoke_all(self, account_email: str) -> int:
        """Invalidate every non-invalid version of the entry (decommission)."""
        entry = self.entry(account_email)
        count = 0
        for version in entry.versions:
            if version.state is not KeyState.INVALID:
                version.state = KeyState.INVALID
                count += 1
                self._audit.mutation("vault.revoke_key", version.key_id)
        return count

    # -- principal-facing access -------------------------------------------

    def read_key(self, account_email: str, caller: str) -> KeyVersion:
        """Owner-gated read of the newest active version.  Reads are audited."""
        with self._audit.attempt(caller, "vault.read_key", account_email) as attempt:
            entry = self._entries.get(account_email)
            if entry is None:
                raise NoActiveKey(f"no vault entry for {account_email!r}")
            if caller != entry.owner_principal:
                raise PermissionDenied(
                    f"{caller!r} does not own the key file for {account_email!r}"
                )
            version = entry.active_version()
            if version is None:
                raise NoActiveKey(f"no active key for {account_email!r}")
            attempt.target = version.key_id
        return version

    def modify_key(self, account_email: str, caller: str) -> None:
        """Unconditionally denied, for everyone including the owner."""
        with self._audit.attempt(caller, "vault.modify_key", account_email):
            raise PermissionDenied(
                f"key files are immutable; {caller!r} may not modify {account_email!r}"
            )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return encode({"entries": self.entries()})

    def load_state(self, data: dict) -> None:
        self._entries = {e.account_email: e for e in decode(list[VaultEntry], data["entries"])}


def redact(section: dict) -> None:
    """Replace every secret in an encoded vault section with ``REDACTED``."""
    for entry in section["entries"]:
        for version in entry["versions"]:
            version["secret"] = REDACTED
