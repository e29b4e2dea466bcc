"""Error types raised by the control plane.

Every failure surfaces as a subclass of :class:`ControlPlaneError` so the CLI
and the scenario runner can report a stable error name (the class name) plus a
human message.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class ControlPlaneError(Exception):
    """Base class for all control-plane failures."""

    @property
    def name(self) -> str:
        return type(self).__name__


# -- directory ---------------------------------------------------------------

class InvalidName(ControlPlaneError):
    """Identifier is empty or contains illegal characters."""


class DuplicateName(ControlPlaneError):
    """A principal or group with this name already exists."""


class UnknownPrincipal(ControlPlaneError):
    pass


class UnknownGroup(ControlPlaneError):
    pass


class GroupMissing(ControlPlaneError):
    """The source-of-truth group does not exist; the tick must abort."""


class GroupEmpty(ControlPlaneError):
    """The source-of-truth group has no members; the tick must abort."""


# -- cloud -------------------------------------------------------------------

class IllegalParent(ControlPlaneError):
    """Node kind may not be attached under the given parent."""


class DuplicateId(ControlPlaneError):
    pass


class UnknownNode(ControlPlaneError):
    pass


class QuotaExceeded(ControlPlaneError):
    """Project is at its service-account limit; placement must shard."""


class DuplicateEmail(ControlPlaneError):
    pass


class IllegalRoleForNode(ControlPlaneError):
    pass


class UnknownAccount(ControlPlaneError):
    pass


class AlreadyDisabled(ControlPlaneError):
    pass


class NotFound(ControlPlaneError):
    pass


class InvalidQuota(ControlPlaneError):
    """Requested limit is not positive or is below current usage."""


# -- vault -------------------------------------------------------------------

class OwnerMismatch(ControlPlaneError):
    """Entry already exists with a different owner; treated as corruption."""


class UnknownOwner(ControlPlaneError):
    pass


class PermissionDenied(ControlPlaneError):
    """Caller is not allowed to perform the access it attempted."""


class NoActiveKey(ControlPlaneError):
    pass


class UnknownEntry(ControlPlaneError):
    pass


# -- reconciler / onboarder --------------------------------------------------

class UnderscoreNotSupported(ControlPlaneError):
    """Principal names with underscores get no mirror account: hyphen
    substitution would let two distinct on-premise names collide on one
    mirror name."""


class NoMirror(ControlPlaneError):
    pass


class NoHdfsHome(ControlPlaneError):
    pass


class UnmappablePath(ControlPlaneError):
    pass


# -- authz -------------------------------------------------------------------

class AuthFailure(ControlPlaneError):
    """Authentication failed: no usable key or the account is disabled."""


class UnknownBucket(ControlPlaneError):
    pass


class InvalidJobSpec(ControlPlaneError):
    pass


# -- cli / state -------------------------------------------------------------

class ParseError(ControlPlaneError):
    """Input could not be parsed: a script (the message carries the line number),
    a duration, a config or a command-line argument."""


class SchemaError(ControlPlaneError):
    """State document is structurally invalid; message carries a JSON pointer."""


@contextmanager
def malformed(section: str) -> Iterator[None]:
    """Report a section that fails to decode inside the block as a SchemaError at it."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed section (at /{section}): {exc}") from exc


class StateFileMissing(ControlPlaneError):
    pass


class SidecarAhead(ControlPlaneError):
    """The audit sidecar holds more events than the state file, so the state
    is older than the log; appending to or rewriting the log would lose history."""
