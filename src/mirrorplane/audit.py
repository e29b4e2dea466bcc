"""Append-only audit sink shared by every module.

Each control-plane mutation and each access decision lands here as exactly one
event.  Sequence numbers are gapless and strictly increasing, and nothing ever
mutates or deletes an event once appended; those two facts are what the
invariant checker and the acceptance suite lean on.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .codec import compact_json, decode, encode
from .errors import ControlPlaneError, malformed

CONTROL_PLANE = "control-plane"


class Outcome(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class Category(str, Enum):
    """What kind of fact an event records.

    MUTATION:  directory / cloud / vault state changed.
    DECISION:  an access attempt was evaluated (vault read, token mint,
               authorization check).
    CONTROL:   the control plane itself reporting (tick aborts, rejections).
    """

    MUTATION = "mutation"
    DECISION = "decision"
    CONTROL = "control"


@dataclass(frozen=True)
class AuditEvent:
    seq: int
    at: int
    actor: str
    action: str
    target: str
    outcome: Outcome
    category: Category
    tick_id: int | None = None
    job_id: str | None = None

    def render(self) -> str:
        tick = f" tick={self.tick_id}" if self.tick_id is not None else ""
        job = f" job={self.job_id}" if self.job_id is not None else ""
        return (
            f"#{self.seq} t={self.at}{tick}{job} {self.outcome.value:7s} "
            f"{self.action} actor={self.actor} target={self.target}"
        )


@dataclass
class Attempt:
    """An open access attempt; a success may name a narrower target."""

    target: str


class AuditLog:
    """In-memory append-only event store with gapless sequence numbers.

    The log owns the logical clock (``now``) and the current tick and job
    (``scope``), so every event is stamped in one place.

    A loaded log keeps its events as the parsed dicts and decodes them the
    first time it is iterated or queried, so a command that never reads the
    audit does not pay for it; ``len``, ``emit`` and ``to_dict`` never decode.
    Until then ``_events`` holds only the events emitted since the load,
    ``_offset`` is the number of kept dicts before them, and ``to_dict`` hands
    on the kept dicts themselves, which no caller may change in place.  A log
    loaded from a compact state file also keeps the array's text less its
    ``]`` (``_text``) for a save to write back, so only the events after the
    first ``_covered`` are encoded again.
    """

    def __init__(self, now: Callable[[], int]) -> None:
        self.now = now
        self._events: list[AuditEvent] = []
        self._kept: list[dict] = []
        self._offset = 0
        self._text, self._covered = "[", 0
        self._tick_id: int | None = None
        self._job_id: str | None = None

    @contextmanager
    def scope(self, *, tick_id: int | None = None, job_id: str | None = None) -> Iterator[None]:
        """Stamp every event emitted inside the block with this tick or job."""
        saved = self._tick_id, self._job_id
        self._tick_id, self._job_id = tick_id, job_id
        try:
            yield
        finally:
            self._tick_id, self._job_id = saved

    def emit(self, actor: str, action: str, target: str, outcome: Outcome,
             category: Category) -> AuditEvent:
        event = AuditEvent(
            seq=self._offset + len(self._events) + 1,
            at=self.now(),
            actor=actor,
            action=action,
            target=target,
            outcome=outcome,
            category=category,
            tick_id=self._tick_id,
            job_id=self._job_id,
        )
        self._events.append(event)
        return event

    def mutation(self, action: str, target: str) -> AuditEvent:
        """A successful control-plane change to directory, cloud or vault state."""
        return self.emit(CONTROL_PLANE, action, target, Outcome.SUCCESS, Category.MUTATION)

    def decision(self, actor: str, action: str, target: str, allowed: bool) -> AuditEvent:
        """One evaluated access attempt by ``actor``."""
        outcome = Outcome.SUCCESS if allowed else Outcome.FAILURE
        return self.emit(actor, action, target, outcome, Category.DECISION)

    @contextmanager
    def attempt(self, actor: str, action: str, target: str) -> Iterator[Attempt]:
        """Audit the access attempt the block makes as one decision.

        A ``ControlPlaneError`` escaping the block is a denial on ``target``;
        otherwise the attempt succeeded, on the target the block left in
        ``attempt.target``.
        """
        attempt = Attempt(target)
        try:
            yield attempt
        except ControlPlaneError:
            self.decision(actor, action, target, allowed=False)
            raise
        self.decision(actor, action, attempt.target, allowed=True)

    def control(self, action: str, target: str) -> AuditEvent:
        """The control plane reporting a failure of its own (abort, rejection)."""
        return self.emit(CONTROL_PLANE, action, target, Outcome.FAILURE, Category.CONTROL)

    def __len__(self) -> int:
        return self._offset + len(self._events)

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self.decoded())

    def events(self) -> tuple[AuditEvent, ...]:
        return tuple(self.decoded())

    def decoded(self) -> list[AuditEvent]:
        """Every event in order; kept ones are decoded now (a malformed one raises SchemaError)."""
        if self._kept:
            self._events[:0] = _decode(self._kept)
            self._kept, self._offset = [], 0
        return self._events

    def tail(self, n: int = 10) -> list[AuditEvent]:
        """The last ``n`` events, decoding only the kept ones among them, on every call."""
        if n <= 0:
            return []
        new = self._events[-n:]
        older = n - len(new)
        return (_decode(self._kept[-older:]) if older and self._kept else []) + new

    def query(
        self,
        *,
        actor: str | None = None,
        action: str | None = None,
        target: str | None = None,
        tick_id: int | None = None,
        job_id: str | None = None,
        since: int | None = None,
        until: int | None = None,
    ) -> list[AuditEvent]:
        """Return matching events in sequence order.

        ``action`` matches on prefix so ``authorize`` finds both
        ``authorize.read`` and ``authorize.write``; the other filters are
        exact.  ``since``/``until`` bound the logical timestamp inclusively.
        """
        out = []
        for ev in self.decoded():
            if actor is not None and ev.actor != actor:
                continue
            if action is not None and not ev.action.startswith(action):
                continue
            if target is not None and ev.target != target:
                continue
            if tick_id is not None and ev.tick_id != tick_id:
                continue
            if job_id is not None and ev.job_id != job_id:
                continue
            if since is not None and ev.at < since:
                continue
            if until is not None and ev.at > until:
                continue
            out.append(ev)
        return out

    def to_dict(self, start: int = 0) -> list[dict]:
        """The events from index ``start`` on; kept events are passed on as they were loaded."""
        return self._kept[start:] + encode(self._events[max(start - self._offset, 0):])

    def array(self) -> tuple[str, str]:
        """The log as a compact JSON array in two pieces: the kept text, then the events after it."""
        added = compact_json(self.to_dict(self._covered))[1:]  # the new events and the "]"
        return self._text, ("," if self._covered and added != "]" else "") + added

    def load_state(self, data: list[dict]) -> None:
        if not isinstance(data, list):
            raise TypeError(f"the audit must be a list, not {type(data).__name__}")
        self._events, self._kept, self._offset = [], data, len(data)

    def keep_text(self, text: str) -> None:
        """Keep ``text``, the just-loaded events' JSON array less its ``]``, to save them as they were."""
        self._text, self._covered = text, self._offset

    def drop_text(self) -> None:
        """Encode every event again at the next save, in canonical form, as a log built in memory."""
        self._text, self._covered = "[", 0


def _decode(data: list[dict]) -> list[AuditEvent]:
    with malformed("audit"):
        return decode(list[AuditEvent], data)
