"""Layer spans recorded from outside the program.

``instrument`` replaces the public functions of each layer with wrappers
that record one span per call (name, parent, start, end) and restores the
originals on exit, so untraced runs execute the unmodified code.  Spans stay
in memory; ``Tracer.dump`` writes them once, when the run ends.  Observers
attached to a few functions turn their return values into counters (members
scanned, changes, decision reasons) at the boundary where the work happens.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

import mirrorplane.cli as cli_module
import mirrorplane.verify as verify_module
from mirrorplane.audit import AuditLog
from mirrorplane.authz import AuthzEngine
from mirrorplane.cli import Session
from mirrorplane.cloud import Cloud
from mirrorplane.directory import Directory
from mirrorplane.onboarder import Onboarder
from mirrorplane.reconciler import Reconciler
from mirrorplane.vault import Vault
from mirrorplane.world import World

# (span name, owner, attribute).  The owner is a class for methods or a module
# for functions; span names follow the repository's module names.
LAYER_FUNCTIONS = (
    ("directory.join_group", Directory, "join_group"),
    ("directory.verify_source_group", Directory, "verify_source_group"),
    ("cloud.active_mirror_for", Cloud, "active_mirror_for"),
    ("cloud.accounts", Cloud, "accounts"),
    ("cloud.has_binding", Cloud, "has_binding"),
    ("cloud.bind_role", Cloud, "bind_role"),
    ("cloud.create_service_account", Cloud, "create_service_account"),
    ("cloud.children", Cloud, "children"),
    ("vault.store_key", Vault, "store_key"),
    ("vault.expire_versions", Vault, "expire_versions"),
    ("vault.find_version", Vault, "find_version"),
    ("vault.read_key", Vault, "read_key"),
    ("reconciler.reconcile_tick", Reconciler, "reconcile_tick"),
    ("reconciler.select_project", Reconciler, "select_project"),
    ("onboarder.sync_reader_groups", Onboarder, "sync_reader_groups"),
    ("onboarder.provision_bucket", Onboarder, "provision_bucket"),
    ("authz.authorize", AuthzEngine, "authorize"),
    ("authz.authenticate", AuthzEngine, "authenticate"),
    ("authz.impersonate", AuthzEngine, "impersonate"),
    ("audit.emit", AuditLog, "emit"),
    ("world.load", World, "load"),
    ("world.save", World, "save"),
    ("cli.commit", Session, "commit"),
    ("cli.sidecar_sync", Session, "_sync_audit_sidecar"),
    ("cli.dispatch", cli_module, "dispatch"),
    ("verify.verify_world", verify_module, "verify_world"),
    # The CLI imported verify_world by name, so its binding is patched too.
    ("verify.verify_world", cli_module, "verify_world"),
)

class Span(NamedTuple):
    name: str
    span_id: int
    parent_id: int | None
    start_ns: int
    end_ns: int


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_ns):
            start = max(child.start_ns, cursor)
            end = min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.end_ns - span.start_ns - covered
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_id = 1

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(name, span_id, parent, start, end))
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_ms`` for every instrumented name."""
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        by_id = self_times(self.spans)
        for span in self.spans:
            calls[span.name] += 1
            self_ns[span.name] += by_id[span.span_id]
        out: dict[str, float] = {}
        for name in dict.fromkeys(n for n, _, _ in LAYER_FUNCTIONS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _observe_members(counters, args, members) -> None:
    counters["members_scanned"] += len(members)


def _observe_tick(counters, args, report) -> None:
    counters["changes"] += (len(report.created) + len(report.rotated)
                            + len(report.actas_granted) + len(report.decommissioned))
    counters["errors"] += len(report.errors)
    counters["rejected"] += len(report.rejected)


def _observe_sync(counters, args, report) -> None:
    onboarder = args[0]
    counters["sync_changes"] += len(report.added) + len(report.removed)
    counters["reader_members_scanned"] += sum(
        len(onboarder.directory.group(pair.ldap_group).members) for pair in onboarder.pairs()
    )


def _observe_decision(counters, args, decision) -> None:
    counters[f"decision.{decision.reason.value}"] += 1


OBSERVERS = {
    "directory.verify_source_group": _observe_members,
    "reconciler.reconcile_tick": _observe_tick,
    "onboarder.sync_reader_groups": _observe_sync,
    "authz.authorize": _observe_decision,
}


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on every layer function; restore them on exit."""
    saved = []
    try:
        for name, owner, attr in LAYER_FUNCTIONS:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, OBSERVERS.get(name)))
            else:
                wrapped = tracer.wrap(name, raw, OBSERVERS.get(name))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
