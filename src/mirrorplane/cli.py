"""Command-line entry point wiring every module over one persisted world.

State lives in a single compact JSON file (``--state``, default
``./world.json``); the audit log additionally appends to a line-delimited
sidecar next to it.  Exit codes: 0 success, 1 command error, 2 verify found
violations.
"""

from __future__ import annotations

import functools
import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import click

from .authz import AccessAction
from .cloud import Cloud, MirrorAccount
from .codec import encode
from .directory import DirectoryGroup, PrincipalKind
from .durations import parse_duration
from .errors import ControlPlaneError, NotFound, ParseError, SidecarAhead, StateFileMissing
from .reconciler import ShardingMode, parse_config
from .scenario import run_script
from .verify import verify_world
from .world import World, canonical_json, working_text, write_atomic

# An ``open`` opener that creates a missing file owner-only (0600).
_owner_only = functools.partial(os.open, mode=0o600)


def echo(text: str, nl: bool = True, err: bool = False) -> None:
    """``click.echo`` to the current stdout, or stderr, found as ``click.echo`` finds it.

    Left to find the stream, click caches what it found in a weak dictionary
    whose value is the stream itself, so a replaced ``sys.stdout`` (each
    command's buffer in ``dispatch``, an in-process caller's) is never freed.
    """
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(text, nl=nl, file=stream)


class VerificationFailed(ControlPlaneError):
    """Raised by ``verify`` when violations exist; maps to exit code 2."""

    def __init__(self, message: str, report: str) -> None:
        super().__init__(message)
        self.report = report


class Session:
    """World handle plus persistence policy for one CLI invocation."""

    def __init__(
        self,
        state_path: str | Path | None = None,
        world: World | None = None,
    ) -> None:
        self.state_path = Path(state_path) if state_path is not None else None
        self._world = world
        # The mark of the world in the state file; None makes the next commit save.
        self._saved = world.mark() if world is not None else None
        self._lines: list[bytes] | None = None  # a save's encoded events, until the sidecar has them

    @property
    def audit_path(self) -> Path:
        assert self.state_path is not None
        return Path(f"{self.state_path}.audit.jsonl")

    @property
    def world(self) -> World:
        if self._world is None:
            if self.state_path is None or not self.state_path.exists():
                raise StateFileMissing(
                    f"no state file at {self.state_path}; run 'init' first"
                )
            self._world = World.load(self.state_path)
            self._saved = self._world.mark()
        return self._world

    def replace(self, world: World) -> None:
        """Swap in another world and empty the sidecar; the next commit always saves."""
        self._world = world
        self._saved = None
        if self.state_path is not None:
            open(self.audit_path, "w", opener=_owner_only).close()

    def commit(self) -> None:
        """Save the world and append its new events to the sidecar, if it changed."""
        if self.state_path is None or self.world.mark() == self._saved:
            return
        written, size = self._sidecar_events()
        self._lines = self.world.save(self.state_path)
        self._sync_audit_sidecar(written, size)
        self._saved = self.world.mark()

    def _sidecar_events(self) -> tuple[int, int]:
        """Whole lines in the sidecar and their bytes, checked before either file is written."""
        path = self.audit_path
        if not path.exists():
            return 0, 0
        data = path.read_bytes()
        existing = data.count(b"\n")
        # The state file holds the events of its last load or save; after replace the sidecar is empty.
        stored = self._saved and len(self.world.audit) - self.world.audit.emitted() + self._saved[0]
        if self._saved and existing > stored:
            raise SidecarAhead(
                f"{path} holds {existing} audit events but {self.state_path} only "
                f"{stored}; restore the matching state file"
            )
        return existing, data.rfind(b"\n") + 1

    def _sync_audit_sidecar(self, written: int, size: int) -> None:
        """Append the events the line-delimited sidecar lacks to its whole lines."""
        lines, self._lines = self._lines, None
        with open(self.audit_path, "ab", opener=_owner_only) as handle:
            handle.truncate(size)  # drops a torn last line left by a crash mid-append
            handle.writelines(self.world.audit.sidecar_lines(written, lines))


def on_world(command):
    """Run a command's body on the world, commit it, and print the text it returns, once.

    A newline is added unless the text ends in one.  A failing body prints
    nothing, except ``verify``'s violations before exit 2.  What a body changed
    is saved even if it then failed, as inside ``scenario run``; a body that
    changed nothing leaves both files untouched.
    """

    @functools.wraps(command)
    def run(session: Session, **params) -> None:
        world = session.world
        text = ""
        try:
            text = command(world, **params)
        except VerificationFailed as failed:
            text = failed.report
            raise
        finally:
            session.commit()
            if text:
                echo(text, nl=not text.endswith("\n"))

    return click.pass_obj(run)


def output_path(ctx: click.Context, param: click.Parameter, value: str | None) -> str | None:
    """Refuse an output path that resolves to the state file or its audit sidecar."""
    session = ctx.find_object(Session)
    if value is not None and session.state_path is not None:
        target = Path(value).resolve()
        for name, path in (("state file", session.state_path), ("audit sidecar", session.audit_path)):
            if target == path.resolve():
                raise click.BadParameter(f"{value!r} is the {name}; choose another path")
    return value


class _Command(click.Command):  # --help prints through echo: click's own print keeps a replaced stdout
    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        def show(ctx: click.Context, param: click.Parameter, value: bool) -> None:
            if value and not ctx.resilient_parsing:
                echo(ctx.get_help())
                ctx.exit()
        if option := super().get_help_option(ctx):
            option.callback = show
        return option


class _Group(_Command, click.Group):
    command_class, group_class = _Command, type


@click.group(cls=_Group)
@click.option(
    "--state",
    "state_path",
    type=click.Path(dir_okay=False),
    default="world.json",
    show_default=True,
    help="Path of the world state file.",
)
@click.pass_context
def cli(ctx: click.Context, state_path: str) -> None:
    """Simulated hybrid-cloud identity control plane."""
    if ctx.obj is None:
        ctx.obj = Session(state_path)


@cli.command()
@click.option("--seed", default=0, show_default=True, help="Seed for secret generation.")
@click.option("--config", "config_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON config file (durations accept 15m/2h/7d forms).")
@click.option("--sharding-mode", type=click.Choice([m.value for m in ShardingMode]),
              default=None, help="Override sharding mode.")
@click.option("--base-project", default=None, help="Override base project id.")
@click.option("--quota-default", type=int, default=None,
              help="Override per-project service-account limit.")
@click.option("--force", is_flag=True, help="Overwrite an existing state file.")
@click.pass_obj
def init(session: Session, seed: int, config_file: str | None, force: bool,
         **overrides) -> None:
    """Create a fresh world (organization root only)."""
    if session.state_path is not None and session.state_path.exists() and not force:
        raise ControlPlaneError(
            f"state file {session.state_path} exists; use --force to overwrite"
        )
    # The override options are named after the config keys they set.
    config = parse_config(
        Path(config_file).read_bytes() if config_file else "{}",
        {key: value for key, value in overrides.items() if value is not None},
    )
    session.replace(World.new(seed=seed, config=config))
    session.commit()
    echo(f"initialized world (seed={seed}, {config.describe()})")


# -- directory ----------------------------------------------------------------

@cli.group("dir")
def dir_group() -> None:
    """On-premise directory operations."""


@dir_group.command("add-user")
@click.argument("name")
@click.option("--kind", type=click.Choice([k.value for k in PrincipalKind]), required=True)
@click.option("--hdfs-home", default=None)
@click.option("--org-unit", default="general", show_default=True)
@on_world
def dir_add_user(world: World, name: str, kind: str, hdfs_home: str | None,
                 org_unit: str) -> str:
    record = world.directory.add_principal(name, PrincipalKind(kind), hdfs_home, org_unit)
    return (
        f"added {record.kind.value} principal {record.name} "
        f"(workspace={str(record.has_workspace_identity).lower()})"
    )


@dir_group.command("add-group")
@click.argument("name")
@on_world
def dir_add_group(world: World, name: str) -> str:
    return f"added group {world.directory.add_group(name).name}"


@dir_group.command("join")
@click.argument("group")
@click.argument("principal")
@on_world
def dir_join(world: World, group: str, principal: str) -> str:
    result = world.directory.join_group(group, principal)
    return f"{result.name}: {len(result.members)} member(s)"


@dir_group.command("remove")
@click.argument("name")
@on_world
def dir_remove(world: World, name: str) -> str:
    result = world.directory.remove_principal(name)
    groups = ", ".join(result["removed_from_groups"]) or "-"
    return f"removed {name} (was in: {groups})"


@dir_group.command("show")
@click.argument("name", required=False)
@on_world
def dir_show(world: World, name: str | None) -> str:
    directory = world.directory
    if name is None:
        return "\n".join([
            f"principals: {len(directory.principals())}",
            *(f"  {record.name} ({record.kind.value})" for record in directory.principals()),
            f"groups: {len(directory.groups())}",
            *(f"  {group.name}: {len(group.members)} member(s)" for group in directory.groups()),
        ])
    if not directory.has_principal(name):
        return _members(directory.group(name))
    record = directory.principal(name)
    return (
        f"{record.name}: kind={record.kind.value} "
        f"workspace={str(record.has_workspace_identity).lower()} "
        f"hdfs_home={record.hdfs_home or '-'} org_unit={record.org_unit} "
        f"created_at={record.created_at}"
    )


def _members(group: DirectoryGroup) -> str:
    return f"{group.name}: {', '.join(group.members) or '(empty)'}"


# -- cloud ---------------------------------------------------------------------

@cli.group("cloud")
def cloud_group() -> None:
    """Cloud hierarchy queries and quota control."""


@cloud_group.command("tree")
@on_world
def cloud_tree(world: World) -> str:
    return world.cloud.render_tree()


@cloud_group.command("show")
@click.argument("ident")
@on_world
def cloud_show(world: World, ident: str) -> str:
    found = world.cloud.lookup(ident)
    if isinstance(found, MirrorAccount):
        node = world.cloud.node(found.email)
        head = (
            f"service account {found.email}: source={found.source_principal} "
            f"project={found.project} status={found.status.value}"
        )
    else:
        node = found
        head = f"{node.kind.value} {node.id} (parent={node.parent or '-'})"
    return "\n".join([head, *(f"  {b.role.value} -> {b.principal}" for b in node.bindings)])


@cloud_group.command("set-quota")
@click.argument("project")
@click.argument("limit", type=int)
@on_world
def cloud_set_quota(world: World, project: str, limit: int) -> str:
    quota = world.cloud.set_quota(project, limit)
    return f"{quota.project}: {quota.current_count}/{quota.max_service_accounts} accounts"


# -- vault ----------------------------------------------------------------------

@cli.group("vault")
def vault_group() -> None:
    """On-premise secret store (owner-gated reads)."""


@vault_group.command("ls")
@on_world
def vault_ls(world: World) -> str:
    return "\n".join(
        f"{entry.account_email} owner={entry.owner_principal} "
        f"versions=[{','.join(v.state.value for v in entry.versions)}]"
        for entry in world.vault.entries()
    ) or "(vault empty)"


@vault_group.command("read")
@click.option("--as", "caller", required=True, help="Principal performing the read.")
@click.argument("email")
@on_world
def vault_read(world: World, caller: str, email: str) -> str:
    version = world.vault.read_key(email, caller)
    return f"{version.key_id} state={version.state.value} secret={version.secret}"


# -- clock / reconcile -------------------------------------------------------------

@cli.group("clock")
def clock_group() -> None:
    """Logical clock control (1 tick = 1 minute)."""


@clock_group.command("advance")
@click.argument("duration", type=parse_duration)
@on_world
def clock_advance(world: World, duration: int) -> str:
    now = world.advance(duration)
    return f"clock advanced {duration}m to t={now}"


@clock_group.command("show")
@on_world
def clock_show(world: World) -> str:
    return f"t={world.clock}"


@cli.command()
@click.option("--once", is_flag=True, help="Run a single tick (default).")
@click.option("--ticks", type=click.IntRange(min=0), default=None,
              help="Run N ticks, advancing one tick_interval after each.")
@on_world
def reconcile(world: World, once: bool, ticks: int | None) -> str:
    """Run the account-creator loop."""
    if ticks is not None and once:
        raise ControlPlaneError("use either --once or --ticks, not both")
    if ticks is not None:
        reports = world.reconciler.run_ticks(ticks, world.advance)
    else:
        reports = [world.reconciler.reconcile_tick()]
    return "\n".join(report.render() for report in reports)


@cli.group("report")
def report_group() -> None:
    """Reconcile reports."""


@report_group.command("last")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@on_world
def report_last(world: World, fmt: str) -> str:
    report = world.reconciler.last_report
    if report is None:
        return "no reconcile report yet"
    return canonical_json(encode(report)) if fmt == "json" else report.render()


# -- onboarder ----------------------------------------------------------------------

@cli.group("onboard")
def onboard_group() -> None:
    """Bucket provisioning and reader-group sync."""


@onboard_group.command("bucket")
@click.argument("principal")
@on_world
def onboard_bucket(world: World, principal: str) -> str:
    mapping = world.onboarder.provision_bucket(principal)
    return f"gs://{mapping.bucket_id} <- {mapping.hdfs_home} (owner: {principal})"


@onboard_group.command("sync-readers")
@on_world
def onboard_sync(world: World) -> str:
    return world.onboarder.sync_reader_groups().render()


@cli.group("readers")
def readers_group() -> None:
    """Membership of per-bucket reader groups."""


def _reader_pair(world: World, bucket: str):
    pair = world.onboarder.pair_for(Cloud.strip_scheme(bucket))
    if pair is None:
        raise NotFound(f"no reader group pair for bucket {bucket!r}")
    return pair


@readers_group.command("join")
@click.argument("bucket")
@click.argument("principal")
@on_world
def readers_join(world: World, bucket: str, principal: str) -> str:
    pair = _reader_pair(world, bucket)
    return _members(world.directory.join_group(pair.ldap_group, principal))


@readers_group.command("leave")
@click.argument("bucket")
@click.argument("principal")
@on_world
def readers_leave(world: World, bucket: str, principal: str) -> str:
    pair = _reader_pair(world, bucket)
    return _members(world.directory.leave_group(pair.ldap_group, principal))


# -- authz -----------------------------------------------------------------------

@cli.group("authz")
def authz_group() -> None:
    """Token minting and access checks."""


@authz_group.command("token")
@click.option("--as", "caller", required=True,
              help="Principal name, or workspace:<name> to impersonate via ActAs.")
@click.argument("email")
@on_world
def authz_token(world: World, caller: str, email: str) -> str:
    token = world.authz.token_for(caller, email)
    via = f" via_actas={token.via_actas}" if token.via_actas else ""
    return f"{token.token_id} subject={token.subject}{via}"


@authz_group.command("check")
@click.argument("token")
@click.argument("bucket")
@click.argument("action", type=click.Choice([a.value for a in AccessAction]))
@on_world
def authz_check(world: World, token: str, bucket: str, action: str) -> str:
    return world.authz.authorize(token, bucket, AccessAction(action)).render()


@authz_group.command("job")
@click.option("--as", "caller", required=True)
@click.argument("email")
@click.option("--access", "accesses", multiple=True, required=True,
              metavar="BUCKET:ACTION", help="Repeatable bucket:action pair.")
@on_world
def authz_job(world: World, caller: str, email: str, accesses: tuple[str, ...]) -> str:
    buckets: list[str] = []
    actions: list[AccessAction] = []
    for item in accesses:
        bucket, sep, action = item.rpartition(":")
        if not sep or action not in (a.value for a in AccessAction):
            raise ControlPlaneError(f"bad --access {item!r}; expected BUCKET:read|write")
        buckets.append(bucket)
        actions.append(AccessAction(action))
    return world.authz.submit_job(caller, email, buckets, actions).render()


# -- audit -----------------------------------------------------------------------

@cli.group("audit")
def audit_group() -> None:
    """Append-only audit log."""


@audit_group.command("tail")
@click.option("-n", "count", type=click.IntRange(min=0), default=10, show_default=True)
@on_world
def audit_tail(world: World, count: int) -> str:
    events = world.audit.tail(count)
    if count and not events:
        return "(audit log empty)"
    return "\n".join(event.render() for event in events)


@audit_group.command("query")
@click.option("--actor", default=None)
@click.option("--action", default=None, help="Action prefix, e.g. 'authorize'.")
@click.option("--target", default=None)
@click.option("--tick", type=int, default=None)
@click.option("--job", default=None)
@click.option("--since", type=int, default=None, help="Inclusive lower bound on t.")
@click.option("--until", type=int, default=None, help="Inclusive upper bound on t.")
@on_world
def audit_query(world: World, actor: str | None, action: str | None,
                target: str | None, tick: int | None, job: str | None,
                since: int | None, until: int | None) -> str:
    events = world.audit.query(
        actor=actor, action=action, target=target,
        tick_id=tick, job_id=job, since=since, until=until,
    )
    return "\n".join([f"{len(events)} event(s)", *(event.render() for event in events)])


# -- verify / state ----------------------------------------------------------------

@cli.command()
@click.option("--converged", is_flag=True,
              help="Also check the set-equalities that hold only at a fixed point.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@on_world
def verify(world: World, converged: bool, fmt: str) -> str:
    """Check every invariant; exit 2 when violations are found."""
    violations = verify_world(world.decode(), include_convergence=converged)
    if fmt == "json":
        text = canonical_json(encode({"violations": violations}))
    else:
        text = "\n".join(v.render() for v in violations) or "ok: no violations"
    if violations:
        raise VerificationFailed(f"{len(violations)} violation(s)", text)
    return text


@cli.group("state")
def state_group() -> None:
    """Canonical snapshot export/import."""


@state_group.command("export")
@click.option("--reveal-secrets", is_flag=True,
              help="Include raw secrets (default output is redacted).")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              callback=output_path, metavar="PATH", help="Write to a file instead of stdout.")
@on_world
def state_export(world: World, reveal_secrets: bool, output: str | None) -> str:
    text = world.export_text(reveal_secrets=reveal_secrets)
    if output is None:
        return text
    write_atomic(output, text.encode())
    return f"exported to {output}"


@state_group.command("import")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def state_import(session: Session, path: str) -> None:
    # Decoded in full, so a malformed section refuses the import before a file is
    # touched, and encoded again, whatever the import's spacing or key order.
    data = World.load(path).decode().to_dict()
    session.replace(World.loads(working_text(data)))
    session.commit()
    echo(f"imported {path}")


# -- scenarios -----------------------------------------------------------------------

@cli.group("scenario")
def scenario_group() -> None:
    """Replay scripted command sequences."""


@scenario_group.command("run")
@click.argument("script", type=click.Path(exists=True, dir_okay=False))
@click.option("--strict", is_flag=True, help="Stop at the first failing command.")
@click.option("--transcript", "transcript_out", type=click.Path(dir_okay=False), default=None,
              callback=output_path, metavar="PATH", help="Write the transcript as canonical JSON.")
@click.pass_obj
def scenario_run(session: Session, script: str, strict: bool,
                 transcript_out: str | None) -> None:
    try:
        text = Path(script).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"script is not UTF-8 text: {exc}") from exc
    entries = run_script(text, lambda argv: dispatch(session, argv), strict=strict)
    for entry in entries:
        echo(entry.render())
    if transcript_out is not None:
        write_atomic(transcript_out, canonical_json(encode({"entries": entries})).encode())
    failed = [e for e in entries if e.status == "error"]
    if strict and failed:
        raise ControlPlaneError(
            f"strict scenario aborted at line {failed[0].line_no}"
        )


# -- dispatch / entry point ------------------------------------------------------------

def dispatch(session: Session, argv: list[str]) -> tuple[str, str | None]:
    """Run one command against an existing session.

    Returns (captured stdout, error string or None); used by the scenario
    runner so scripts share the interactive command tree.
    """
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            code = cli.main(args=argv, standalone_mode=False, obj=session)
    except ControlPlaneError as exc:
        return buffer.getvalue(), f"{exc.name}: {exc}"
    except click.ClickException as exc:
        return buffer.getvalue(), f"UsageError: {exc.format_message()}"
    return buffer.getvalue(), f"Exit: code {code}" if code else None


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        for arg in args:  # a lone surrogate (an undecodable byte) could not be saved
            try:
                arg.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"argument {arg!r} is not UTF-8 text") from None
        return cli.main(args=args, standalone_mode=False) or 0
    except VerificationFailed:
        return 2
    except ControlPlaneError as exc:
        echo(f"error: {exc.name}: {exc}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show(click.get_text_stream("stderr", errors=None))  # the stream echo finds
        return 1
