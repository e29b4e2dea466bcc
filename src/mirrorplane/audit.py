"""Append-only audit sink shared by every module.

Each control-plane mutation and each access decision lands here as exactly one
event.  Sequence numbers are gapless and strictly increasing, and nothing ever
mutates or deletes an event once appended; those two facts are what the
invariant checker and the acceptance suite lean on.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .codec import compact_json, decode, encode, parse_at
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

    A loaded log keeps the state file's bytes, whose audit array holds one
    event per line, and counts the lines only for ``len``, an ``emit``, a
    ``tail`` past the new events, a decode or the sidecar (``emitted`` counts
    none); ``tail(n)`` parses the last n, and the first iteration or query
    parses and decodes them all.  Until then ``_events`` holds only the events
    emitted since the load, after the ``_offset`` undecoded ones.  A save writes
    the ``_covered`` loaded lines back as they are and encodes the events ``since_load``.
    """

    def __init__(self, now: Callable[[], int]) -> None:
        self.now = now
        self._events: list[AuditEvent] = []
        self._offset = 0
        # The loaded array, _data[_start:_stop], holds _covered lines (None until counted).
        self._data, self._start, self._stop, self._covered = b"[]", 0, 2, 0
        self._unchecked = False  # loaded lines whose last event's seq is not checked yet
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
        if self._unchecked:  # the check counts the loaded lines; "[]" holds none to count
            self._check_last_seq()
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
        return self._count() + len(self._events)

    def emitted(self) -> int:
        """How many events were emitted since the load (all of them in a log built in memory)."""
        return len(self._events) - (self._covered or 0) + self._offset

    def since_load(self) -> list[AuditEvent]:
        """The events emitted since the load, in order (all of them in a log built in memory)."""
        return self._events[(self._covered or 0) - self._offset:]

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self.decoded())

    def events(self) -> tuple[AuditEvent, ...]:
        return tuple(self.decoded())

    def decoded(self) -> list[AuditEvent]:
        """Every event in order; loaded ones are decoded now (a malformed one raises SchemaError)."""
        if self._count():
            self._events[:0] = _decode(self._loaded(self._offset))
            self._offset = 0
        return self._events

    def tail(self, n: int = 10) -> list[AuditEvent]:
        """The last ``n`` events, parsing and decoding only the loaded ones among them, on every call."""
        if n <= 0:
            return []
        new = self._events[-n:]
        older = min(n - len(new), self._count()) if len(new) < n else 0
        return (_decode(self._loaded(older)) if older else []) + new

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

    def to_dict(self) -> list[dict]:
        """Every event as plain data; loaded events not decoded yet are parsed, not decoded."""
        return (self._loaded(self._offset) if self._count() else []) + encode(self._events)

    def load_lines(self, data: bytes, start: int, stop: int) -> None:
        """Take the array ``data[start:stop]``, one event per line, to count and parse when it is read."""
        self._data, self._start, self._stop = data, start, stop
        self._events, self._offset, self._covered = [], 0, None
        self._unchecked = stop - start > len(b"[]")

    def _count(self) -> int:
        """The loaded events not decoded yet; the loaded lines are counted the first time it is asked."""
        if self._covered is None:
            self._covered = self._offset = self._data.count(b"\n", self._start, self._stop)
        return self._offset

    # -- the working file and its sidecar ------------------------------------

    def lines(self) -> list[bytes]:
        """Each event after the loaded lines, encoded as one compact UTF-8 line."""
        return [compact_json(encode(e)).encode() for e in self.since_load()]

    def text(self, lines: list[bytes]) -> tuple[bytes | memoryview, ...]:
        """The array the working file holds, in pieces: a view of the loaded lines, then ``lines``."""
        head = memoryview(self._data)[self._start:self._stop - 1]  # less the "]"
        if not lines:
            return head, b"]"
        return head, b",\n" if len(head) > 1 else b"\n", b",\n".join(lines), b"]"

    def sidecar_lines(self, written: int, lines: list[bytes]) -> Iterator[bytes]:
        """The sidecar lines of the events from index ``written`` on, given ``lines()``: the file's, less commas."""
        self._count()
        if written < self._covered:
            old = self._data[self._line(self._covered - written):self._stop - 1]
            yield old.replace(b",\n", b"\n") + b"\n"
        for line in lines[max(written - self._covered, 0):]:
            yield line + b"\n"

    def _check_last_seq(self) -> None:
        """Refuse to number an event after loaded lines whose last event is not ``#len(self)``.

        A line split in two, or one missing, would make the new event repeat or skip a seq.
        """
        with malformed("audit"):
            last = self._loaded(1)[0]["seq"] if self._count() else self._events[-1].seq
            if last != len(self):
                raise ValueError(f"{len(self)} lines end with event #{last}")
        self._unchecked = False

    def _line(self, count: int) -> int:
        """Where the last ``count`` loaded lines start."""
        at = self._stop
        for _ in range(count):
            at = self._data.rfind(b"\n", self._start, at)
        return at + 1

    def _loaded(self, count: int) -> list[dict]:
        """The last ``count`` loaded events, parsed from their lines."""
        with malformed("audit"):
            if count == self._covered:  # the whole array, from a view of it
                data = parse_at(self._data, self._start, self._stop)
            else:
                data = json.loads("[" + str(memoryview(self._data)[self._line(count):self._stop], "utf-8"))
            if len(data) != count:
                raise ValueError(f"{count} lines hold {len(data)} events")
        return data


def _decode(data: list[dict]) -> list[AuditEvent]:
    with malformed("audit"):
        return decode(list[AuditEvent], data)
