"""Data-plane simulation: token minting and access decisions.

Tokens are minted either by reading one's own vault key (headless path) or
through an ActAs grant (human workspace path).  A token stays valid while the
key version it was minted from is active or retiring and the subject account
is active, so rotation grace and decommission fall out of key/account
lifecycle with no token TTLs.  Every attempt, allowed or denied, is audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .audit import AuditLog
from .cloud import (
    AccountStatus,
    Cloud,
    NodeKind,
    Role,
    sa_principal,
    workspace_principal,
)
from .codec import Holder, counter, decode, encode
from .errors import (
    AuthFailure,
    DuplicateId,
    InvalidJobSpec,
    NoActiveKey,
    PermissionDenied,
    UnknownBucket,
    UnknownNode,
)
from .vault import KeyState, Vault

if TYPE_CHECKING:
    from .world import World

WORKSPACE_PREFIX = "workspace:"


class AccessAction(str, Enum):
    READ = "read"
    WRITE = "write"


class Decision(str, Enum):
    ALLOW = "allow"
    DENY = "deny"


class DecisionReason(str, Enum):
    OWNER = "Owner"
    READER_GROUP = "ReaderGroup"
    NOT_AUTHORIZED = "NotAuthorized"
    INVALID_TOKEN = "InvalidToken"
    DISABLED_ACCOUNT = "DisabledAccount"


ALLOW_REASONS = {DecisionReason.OWNER, DecisionReason.READER_GROUP}


@dataclass(frozen=True)
class AccessDecision:
    reason: DecisionReason

    @property
    def allowed(self) -> bool:
        return self.reason in ALLOW_REASONS

    @property
    def decision(self) -> Decision:
        return Decision.ALLOW if self.allowed else Decision.DENY

    def render(self) -> str:
        return f"{self.decision.value.upper()} {self.reason.value}"


@dataclass
class Token:
    token_id: str
    subject: str  # mirror account email
    minted_from: str  # key_id
    issued_at: int
    via_actas: str | None = None


class TokenStore:
    def __init__(self) -> None:
        self._tokens: dict[str, Token] = {}
        self.next_serial = 1

    def next_id(self) -> str:
        return self.token_id(self.next_serial)

    @staticmethod
    def token_id(serial: int) -> str:
        return f"tok-{serial:06d}"

    def mint(self, subject: str, minted_from: str, issued_at: int, via_actas: str | None) -> Token:
        if self.next_id() in self._tokens:
            raise DuplicateId(f"token id {self.next_id()!r} is already held; tokens.next is stale")
        token = Token(
            token_id=self.next_id(),
            subject=subject,
            minted_from=minted_from,
            issued_at=issued_at,
            via_actas=via_actas,
        )
        self.next_serial += 1
        self._tokens[token.token_id] = token
        return token

    def get(self, token_id: str) -> Token | None:
        return self._tokens.get(token_id)

    def tokens(self) -> list[Token]:
        return [self._tokens[t] for t in sorted(self._tokens)]

    def to_dict(self) -> dict:
        return encode({"next": self.next_serial, "tokens": self.tokens()})

    def load_state(self, data: dict) -> None:
        self.next_serial = counter(data["next"], "next")
        self._tokens = {t.token_id: t for t in decode(list[Token], data["tokens"])}


@dataclass
class JobResult:
    job_id: str
    subject: str
    results: list[dict] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.job_id} as {self.subject}"]
        for r in self.results:
            outcome = r.get("error") or f"{r['decision'].upper()} {r['reason']}"
            lines.append(f"  {r['action']} {r['bucket']}: {outcome}")
        return "\n".join(lines)


class AuthzEngine(Holder):
    HOLDS = ("cloud", "vault", "tokens")
    cloud: Cloud
    vault: Vault
    tokens: TokenStore

    def __init__(self, world: World) -> None:
        super().__init__(world)
        self._audit: AuditLog = world.audit
        self._next_job = 1

    # -- authentication --------------------------------------------------

    def authenticate(self, caller: str, account_email: str) -> Token:
        """Mint a token by reading the caller's own vault key.

        The vault's owner gate does the heavy lifting: any non-owner caller is
        denied there, which is the impersonation threat path.
        """
        self.take_stores()
        with self._audit.attempt(caller, "authn.token", account_email):
            try:
                key = self.vault.read_key(account_email, caller)
            except NoActiveKey as exc:
                raise AuthFailure(str(exc)) from None
            if not self._account_is_active(account_email):
                raise AuthFailure(f"account {account_email!r} is not active")
            return self.tokens.mint(account_email, key.key_id, self._audit.now(), via_actas=None)

    def impersonate(self, workspace_identity: str, account_email: str) -> Token:
        """Mint a token through an ActAs grant.

        Humans only ever hold ActAs on their own mirror, so every
        human-to-headless attempt lands in PermissionDenied here.
        """
        self.take_stores()
        identity = workspace_identity.removeprefix(WORKSPACE_PREFIX)
        principal = workspace_principal(identity)
        with self._audit.attempt(principal, "authn.impersonate", account_email):
            if not self.cloud.has_account(account_email):
                raise PermissionDenied(f"no ActAs grant on {account_email!r}")
            if self.cloud.account(account_email).status is AccountStatus.DISABLED:
                raise AuthFailure(f"account {account_email!r} is disabled")
            if not self.cloud.has_binding(account_email, Role.ACT_AS, principal):
                raise PermissionDenied(
                    f"{principal!r} has no ActAs grant on {account_email!r}"
                )
            key = self.vault.active_version(account_email)
            if key is None:
                raise AuthFailure(f"no active key for {account_email!r}")
            return self.tokens.mint(
                account_email, key.key_id, self._audit.now(), via_actas=identity
            )

    def token_for(self, caller: str, account_email: str) -> Token:
        """Impersonate for a ``workspace:`` caller, else authenticate."""
        if caller.startswith(WORKSPACE_PREFIX):
            return self.impersonate(caller, account_email)
        return self.authenticate(caller, account_email)

    def _account_is_active(self, email: str) -> bool:
        return (
            self.cloud.has_account(email)
            and self.cloud.account(email).status is AccountStatus.ACTIVE
        )

    # -- authorization -----------------------------------------------------

    def token_status(self, token: Token) -> DecisionReason | None:
        """None if the token is usable, else the Deny reason."""
        self.take_stores()
        if not self._account_is_active(token.subject):
            return DecisionReason.DISABLED_ACCOUNT
        key = self.vault.find_version(token.minted_from)
        if key is None or key.state is KeyState.INVALID:
            return DecisionReason.INVALID_TOKEN
        return None

    def authorize(self, token: Token | str, bucket_id: str, action: AccessAction) -> AccessDecision:
        """Decide one (token, bucket, action) triple and audit it.

        Owners read and write their bucket; reader-group members read only.
        Group membership is evaluated now, not at mint time, so a sync that
        just ran is immediately visible.
        """
        self.take_stores()
        try:
            bucket = self.cloud.node(Cloud.strip_scheme(bucket_id))
        except UnknownNode:
            raise UnknownBucket(f"no bucket {bucket_id!r}") from None
        if bucket.kind is not NodeKind.BUCKET:
            raise UnknownBucket(f"{bucket_id!r} is not a bucket")

        resolved = self.tokens.get(token) if isinstance(token, str) else token
        decision = AccessDecision(self._match_rule(resolved, bucket.id, action))
        # An unknown token id has no subject, so the id itself is the actor.
        actor = str(token) if resolved is None else resolved.subject
        self._audit.decision(actor, f"authorize.{action.value}", bucket.id, decision.allowed)
        return decision

    def _match_rule(
        self, token: Token | None, bucket_id: str, action: AccessAction
    ) -> DecisionReason:
        """The first rule, in order, that decides ``token``'s access to the bucket."""
        if token is None:
            return DecisionReason.INVALID_TOKEN
        bad = self.token_status(token)
        if bad is not None:
            return bad
        subject = sa_principal(token.subject)
        if self.cloud.has_binding(bucket_id, Role.BUCKET_OWNER, subject):
            return DecisionReason.OWNER
        if action is AccessAction.READ and self._in_reader_group(bucket_id, subject):
            return DecisionReason.READER_GROUP
        return DecisionReason.NOT_AUTHORIZED

    def _in_reader_group(self, bucket_id: str, subject: str) -> bool:
        for binding in self.cloud.node(bucket_id).bindings:
            if binding.role is not Role.BUCKET_READER:
                continue
            if not binding.principal.startswith("group:"):
                continue
            group_id = binding.principal.removeprefix("group:")
            if not self.cloud.has_node(group_id):
                continue
            if self.cloud.has_binding(group_id, Role.GROUP_MEMBER, subject):
                return True
        return False

    # -- jobs -------------------------------------------------------------

    def submit_job(
        self,
        caller: str,
        account_email: str,
        bucket_paths: list[str],
        actions: list[AccessAction],
    ) -> JobResult:
        """Authenticate once, then authorize every (bucket, action) pair.

        Callers prefixed ``workspace:`` go through impersonation.  Auth
        failures propagate before any authorization runs; per-path failures
        (unknown buckets, denials) are recorded and do not stop the rest.
        """
        self.take_stores()
        if not bucket_paths or len(bucket_paths) != len(actions):
            raise InvalidJobSpec("job needs equal, nonempty path and action lists")
        job_id = f"job-{self._next_job:04d}"
        self._next_job += 1
        with self._audit.scope(job_id=job_id):
            token = self.token_for(caller, account_email)
            result = JobResult(job_id=job_id, subject=token.subject)
            for bucket_id, action in zip(bucket_paths, actions):
                entry = {"bucket": bucket_id, "action": action.value}
                try:
                    decision = self.authorize(token, bucket_id, action)
                except UnknownBucket as exc:
                    entry["error"] = f"UnknownBucket: {exc}"
                else:
                    entry["decision"] = decision.decision.value
                    entry["reason"] = decision.reason.value
                result.results.append(entry)
        return result

    def to_dict(self) -> dict:
        return {"next_job": self._next_job}

    def load_state(self, data: dict) -> None:
        self._next_job = counter(data["next_job"], "next_job")
