"""The three workloads: seeded traffic against a generated 1k organization.

Each workload is a *pass* program: build a fresh world from the seed (the
set-up), then send that workload's traffic through one closed-loop,
single-threaded client.  A run repeats the same pass until its time budget is
spent, so faster code yields more samples of the same work and never a
larger world.  Every outcome is compared with ``org.Model``; after the last
pass a shared acceptance check replays a generated script through the CLI.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from mirrorplane.authz import ALLOW_REASONS, AccessAction, DecisionReason
from mirrorplane.cli import Session, main as cli_main
from mirrorplane.directory import PrincipalKind
from mirrorplane.errors import PermissionDenied
from mirrorplane.world import World

from org import SOURCE_GROUP, Model, Org, bucket_id, ldap_group, sa
from tracing import Tracer, instrument

clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Sizes of one pass.  The defaults are the benchmark; tests shrink them."""

    principals: int = 1000
    reserve: int = 100
    buckets: int = 250
    cycles: int = 17
    jobs: int = 1500
    big_group_size: int = 200
    stale_tokens: int = 50
    setups: int = 3  # world builds per pass, each one set-up sample
    min_passes: int = 3


# Minimum passes give each percentile at least ten samples beyond it: 6 x 17
# steady cycles and 4 x 26 CLI commands for their p90s, 3 x 4,000 jobs for
# data-plane's p99.  data-plane builds its world once per pass, because its
# set-up is several times longer than its jobs.
SCALES = {
    "control-loop": Scale(min_passes=6),
    "operator-cli": Scale(min_passes=4),
    "data-plane": Scale(buckets=300, jobs=4000, setups=1),
}


@dataclass
class Run:
    """Samples and the outcome tally of one benchmark process."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    totals: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count an unexpected exception as one failed operation and go on."""
        try:
            yield
        except Exception as exc:  # the run reports it and keeps measuring
            self.check(False, f"{what}: unexpected {type(exc).__name__}: {exc}")


# -- shared world building ------------------------------------------------------


def build_directory(seed: int, scale: Scale) -> tuple[World, Model, Org]:
    org = Org.generate(seed, scale.principals, scale.reserve)
    world = World.new(seed=seed)
    model = Model()
    directory = world.directory
    directory.add_group(SOURCE_GROUP)
    for person in org.people:
        add_person(world, model, person)
    for name in org.join_order:
        directory.join_group(SOURCE_GROUP, name)
        model.join(name)
    return world, model, org


def add_person(world: World, model: Model, person) -> None:
    world.directory.add_principal(
        person.name, PrincipalKind(person.kind), person.hdfs_home, person.org_unit
    )
    model.add(person)


def check_tick(run: Run, report, expected: dict, rotated=()) -> None:
    got = {
        "created": report.created,
        "actas_granted": report.actas_granted,
        "decommissioned": report.decommissioned,
        "rejected": [r["principal"] for r in report.rejected],
    }
    run.check(
        got == expected and report.rotated == list(rotated) and not report.errors,
        f"tick {report.tick_id}: report differs from the model",
    )


def check_sync(run: Run, report, model: Model) -> None:
    added, removed = model.expect_sync()
    run.check(
        [(x["cloud_group"], x["member"]) for x in report.added] == added
        and [(x["cloud_group"], x["member"]) for x in report.removed] == removed
        and not report.skipped,
        "sync report differs from the model",
    )


def provision(world: World, model: Model, run: Run, rng: random.Random, stable: list[str],
              owners: list[str], big: int = 0, big_size: int = 0) -> None:
    """One bucket per owner; the first ``big`` get ``big_size`` readers, the rest 0-5."""
    for owner in owners:
        mapping = world.onboarder.provision_bucket(owner)
        bucket = bucket_id(owner)
        run.check(mapping.bucket_id == bucket, f"bucket id for {owner}")
        model.owners[bucket] = owner
        model.readers[bucket] = set()
    for index, owner in enumerate(owners):
        size = big_size if index < big else rng.randint(0, 5)
        pool = [n for n in rng.sample(stable, min(size + 1, len(stable))) if n != owner]
        add_readers(world, model, bucket_id(owner), pool[:size])
    check_sync(run, world.onboarder.sync_reader_groups(), model)


def add_readers(world: World, model: Model, bucket: str, names: list[str]) -> None:
    for name in names:
        world.directory.join_group(ldap_group(bucket), name)
        model.readers[bucket].add(name)


def tick(world: World, run: Run, model: Model, rotated=()):
    """One timed reconcile tick, checked against the model: (seconds, report)."""
    start = clock()
    report = world.reconciler.reconcile_tick()
    elapsed = clock() - start
    expected = model.expect_tick()
    check_tick(run, report, expected, rotated)
    return elapsed, report


def converge(world: World, model: Model, run: Run) -> None:
    """The first tick of a fresh world: one converge sample."""
    before = len(world.audit)
    elapsed, _ = tick(world, run, model)
    run.samples["converge_s"].append(elapsed)
    run.totals["heavy_events"] += len(world.audit) - before
    run.totals["heavy_s"] += elapsed


def rotation_storm(world: World, model: Model, run: Run) -> float:
    """Jump past rotation_age and tick, then past retiring_grace and tick."""
    config = world.config
    before = len(world.audit)
    world.advance(config.rotation_age)
    rotated = model.expect_rotation()
    first, _ = tick(world, run, model, rotated)
    world.advance(config.retiring_grace)
    mid = len(world.audit)
    second, report = tick(world, run, model)
    run.check(len(world.audit) - mid == len(rotated) + len(report.rejected),
              "expiry tick did not expire exactly the rotated keys' predecessors")
    run.totals["heavy_events"] += len(world.audit) - before
    run.totals["heavy_s"] += first + second
    return first + second


def split_population(rng: random.Random, model: Model, churn: int) -> tuple[list[str], list[str]]:
    """(stable, churn) legal members; only churn members ever leave."""
    legal = model.legal_members()
    rng.shuffle(legal)
    return legal[churn:], legal[:churn]


def set_up(run: Run, scale: Scale, build):
    """Call ``build`` ``scale.setups`` times, timing each as one set-up sample.

    Every build starts from the seed and gives the same world; the pass runs
    its traffic on the last one.  The previous build is collected before the
    next is timed, so each one starts from the same heap.
    """
    for _ in range(scale.setups):
        built = None
        gc.collect()
        start = clock()
        built = build()
        run.samples["setup_s"].append(clock() - start)
    return built


# -- control-loop ---------------------------------------------------------------------


def control_loop_setup(seed: int, scale: Scale, run: Run):
    rng = random.Random(f"control-loop:{seed}")
    world, model, org = build_directory(seed, scale)
    converge(world, model, run)
    stable, churn = split_population(rng, model, scale.cycles)
    provision(world, model, run, rng, stable, stable[: scale.buckets])
    return rng, world, model, org, stable, churn


def control_loop_pass(seed: int, scale: Scale, run: Run, workdir: Path) -> tuple[World, Model]:
    rng, world, model, org, stable, churn = set_up(
        run, scale, lambda: control_loop_setup(seed, scale, run))
    buckets = sorted(model.owners)
    newcomers = iter(org.reserve)
    for cycle in range(scale.cycles):
        with run.guard(f"cycle {cycle}"):
            for _ in range(2):
                person = next(newcomers)
                add_person(world, model, person)
                world.directory.join_group(SOURCE_GROUP, person.name)
                model.join(person.name)
            world.directory.leave_group(SOURCE_GROUP, churn[cycle])
            model.leave(churn[cycle])
            bucket = rng.choice(buckets)
            current = model.readers[bucket]
            if current and rng.random() < 0.5:
                name = rng.choice(sorted(current))
                world.directory.leave_group(ldap_group(bucket), name)
                current.discard(name)
            else:
                name = rng.choice(stable)
                if name != model.owners[bucket]:
                    add_readers(world, model, bucket, [name])
            world.advance(world.config.tick_interval)
            elapsed, _ = tick(world, run, model)
            sync_start = clock()
            report = world.onboarder.sync_reader_groups()
            sync_elapsed = clock() - sync_start
            check_sync(run, report, model)
            run.samples["tick_s"].append(elapsed)
            run.samples["sync_s"].append(sync_elapsed)
            run.samples["cycle_s"].append(elapsed + sync_elapsed)
    with run.guard("rotation storm"):
        run.samples["rotate_s"].append(rotation_storm(world, model, run))
    return world, model


# -- operator-cli ---------------------------------------------------------------------


@dataclass
class Command:
    argv: list[str]
    write: bool
    rc: int = 0
    lines: tuple[str, ...] = ()  # each must be a whole line of stdout
    prefixes: tuple[str, ...] = ()  # each must start some line of stdout

    def matches(self, rc: int, out: str) -> bool:
        got = out.splitlines()
        return (
            rc == self.rc
            and all(line in got for line in self.lines)
            and all(any(g.startswith(p) for g in got) for p in self.prefixes)
        )


@dataclass
class CliModel:
    """Operator-visible state the planner tracks beyond ``Model``."""

    clock: int = 0
    ticks: int = 0
    last_tick_at: int = 0
    rejects_emitted: int = 0
    tokens: dict[str, str] = field(default_factory=dict)  # token -> principal


def project_of(email: str) -> str:
    return email[email.index("@") + 1: email.index(".iam.")]


class CommandPlanner:
    """Commands valid against the model, with their expected output.

    The deck fixes how many commands of each kind a pass sends: each read
    twice and each write once, plus one expected-failure ``vault read``, which
    is 16 reads and 10 or 11 writes (``add-user`` also joins the user, and
    ``authz check`` first mints a token when no bucket owner holds one).  The
    seed picks the order and the targets, so seeds differ in inputs but hardly
    in the read/write mix.
    """

    READS = ("clock", "dir", "cloud", "tree", "tail", "query", "report", "verify")
    WRITES = ("advance", "add_user", "readers", "token", "check", "onboard", "sync", "reconcile")
    DECK = READS * 2 + WRITES + ("failure",)
    REPLAY_DECK = ("clock", "dir", "cloud", "report", "advance", "readers", "token", "check")

    def __init__(self, rng, model: Model, cli: CliModel, stable, newcomers) -> None:
        self.rng, self.model, self.cli = rng, model, cli
        self.stable = stable
        self.newcomers = newcomers

    def plan(self, deck: tuple[str, ...]) -> list[Command]:
        kinds = list(deck)
        self.rng.shuffle(kinds)
        commands: list[Command] = []
        for kind in kinds:
            if kind in self.READS:
                commands.append(getattr(self, "read_" + kind)())
            else:
                commands.extend(getattr(self, "write_" + kind)())
        return commands

    # reads

    def read_clock(self):
        return Command(["clock", "show"], False, lines=(f"t={self.cli.clock}",))

    def read_dir(self):
        person = self.model.people[self.rng.choice(self.model.members)]
        workspace = "true" if person.human else "false"
        return Command(["dir", "show", person.name], False,
                       prefixes=(f"{person.name}: kind={person.kind} workspace={workspace} ",))

    def read_cloud(self):
        name = self.rng.choice(self.stable)
        email = self.model.emails[name]
        return Command(["cloud", "show", email], False, lines=(
            f"service account {email}: source={name} project={project_of(email)} status=active",))

    def read_tree(self):
        return Command(["cloud", "tree"], False, lines=("organization: org",))

    def read_tail(self):
        return Command(["audit", "tail"], False, prefixes=("#",))

    def read_query(self):
        return Command(["audit", "query", "--action", "reconcile.reject_underscore"], False,
                       lines=(f"{self.cli.rejects_emitted} event(s)",))

    def read_report(self):
        return Command(["report", "last"], False,
                       lines=(f"tick {self.cli.ticks} at t={self.cli.last_tick_at}",))

    def read_verify(self):
        return Command(["verify"], False, lines=("ok: no violations",))

    def write_failure(self):
        owner, other = self.rng.sample(self.stable, 2)
        return [Command(["vault", "read", "--as", other, self.model.emails[owner]], True, rc=1)]

    # writes

    def write_advance(self):
        self.cli.clock += 15
        return [Command(["clock", "advance", "15m"], True,
                        lines=(f"clock advanced 15m to t={self.cli.clock}",))]

    def write_add_user(self):
        person = next(self.newcomers)
        self.model.add(person)
        self.model.join(person.name)
        workspace = "true" if person.human else "false"
        return [
            Command(["dir", "add-user", person.name, "--kind", person.kind,
                     "--hdfs-home", person.hdfs_home], True,
                    lines=(f"added {person.kind} principal {person.name} (workspace={workspace})",)),
            Command(["dir", "join", SOURCE_GROUP, person.name], True,
                    lines=(f"{SOURCE_GROUP}: {len(self.model.members)} member(s)",)),
        ]

    def write_readers(self):
        bucket = self.rng.choice(sorted(self.model.owners))
        name = self.rng.choice(self.stable)
        self.model.readers[bucket].add(name)
        return [Command(["readers", "join", bucket, name], True,
                        prefixes=(f"{ldap_group(bucket)}: ",))]

    def write_token(self, name: str | None = None):
        name = name or self.rng.choice(self.stable)
        email = self.model.emails[name]
        token = self.model.next_token()
        self.cli.tokens[token] = name
        if self.model.people[name].human:
            caller, line = f"workspace:{name}", f"{token} subject={email} via_actas={name}"
        else:
            caller, line = name, f"{token} subject={email}"
        return [Command(["authz", "token", "--as", caller, email], True, lines=(line,))]

    def write_check(self):
        owned = [t for t, n in self.cli.tokens.items() if bucket_id(n) in self.model.owners]
        minted = []
        if not owned:
            owner = self.model.owners[self.rng.choice(sorted(self.model.owners))]
            minted = self.write_token(owner)
            owned = [t for t, n in self.cli.tokens.items() if n == owner]
        token = self.rng.choice(owned)
        name = self.cli.tokens[token]
        roll = self.rng.random()
        reading = sorted(b for b, s in self.model.synced.items() if sa(self.model.emails[name]) in s)
        if roll < 0.4:
            bucket, action = bucket_id(name), self.rng.choice(("read", "write"))
        elif roll < 0.7 and reading:
            bucket, action = self.rng.choice(reading), "read"
        else:
            bucket, action = self.rng.choice(sorted(self.model.owners)), "write"
        decision, reason = self.model.expect_decision(name, bucket, action)
        return [*minted, Command(["authz", "check", token, bucket, action], True,
                                 lines=(f"{decision.upper()} {reason}",))]

    def write_onboard(self):
        free = [n for n in self.stable if bucket_id(n) not in self.model.owners]
        name = self.rng.choice(free)
        bucket = bucket_id(name)
        self.model.owners[bucket] = name
        self.model.readers[bucket] = set()
        home = self.model.people[name].hdfs_home
        return [Command(["onboard", "bucket", name], True,
                        lines=(f"gs://{bucket} <- {home} (owner: {name})",))]

    def write_sync(self):
        added, removed = self.model.expect_sync()
        return [Command(["onboard", "sync-readers"], True,
                        lines=(f"added: {len(added)}", f"removed: {len(removed)}", "skipped: 0"))]

    def write_reconcile(self):
        expected = self.model.expect_tick()
        self.cli.ticks += 1
        self.cli.last_tick_at = self.cli.clock
        self.cli.rejects_emitted += len(expected["rejected"])
        return [Command(["reconcile", "--once"], True, lines=(
            f"  created: {len(expected['created'])}",
            f"  rejected: {len(expected['rejected'])}",
            "  errors: 0",
        ))]


def run_cli(state: Path, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(["--state", str(state), *argv])
    return rc, out.getvalue()


def operator_cli_setup(seed: int, scale: Scale, run: Run, state: Path):
    """Build the world and write it, with its audit sidecar, to ``state``."""
    rng = random.Random(f"operator-cli:{seed}")
    world, model, org = build_directory(seed, scale)
    cli = CliModel()
    converge(world, model, run)
    stable, _ = split_population(rng, model, 0)
    provision(world, model, run, rng, stable, stable[: scale.buckets])
    world.advance(world.config.rotation_age)
    tick(world, run, model, model.expect_rotation())
    cli.clock, cli.ticks, cli.last_tick_at = world.clock, 2, world.clock
    cli.rejects_emitted = 2 * sum(1 for n in model.members if not model.people[n].legal)
    session = Session(state)
    session.replace(world)
    session.commit()
    return CommandPlanner(rng, model, cli, stable, iter(org.reserve))


def operator_cli_pass(seed: int, scale: Scale, run: Run, workdir: Path) -> tuple[World, Model]:
    state = workdir / "world.json"
    planner = set_up(run, scale, lambda: operator_cli_setup(seed, scale, run, state))
    model = planner.model
    for command in planner.plan(planner.DECK):
        with run.guard(" ".join(command.argv)):
            # Each call stands for a fresh CLI process, which would not carry
            # the previous session's garbage: collect it before timing.
            gc.collect()
            begin = clock()
            rc, out = run_cli(state, command.argv)
            elapsed = clock() - begin
            run.check(command.matches(rc, out), f"{' '.join(command.argv)}: rc={rc}")
            run.samples["write_s" if command.write else "read_s"].append(elapsed)
            run.samples["command_s"].append(elapsed)

    with run.guard("scenario replay"):
        script = planner.plan(planner.REPLAY_DECK)
        run.totals["replay_commands"] += len(script)
        run.totals["replay_s"] += replay(state, workdir, script, run)
    return World.load(state), model


def replay(state: Path, workdir: Path, script: list[Command], run: Run) -> float:
    """Run ``script`` through one ``scenario run``; check each entry; return seconds."""
    path = workdir / "replay.txt"
    transcript = workdir / "replay.json"
    path.write_text("".join(" ".join(c.argv) + "\n" for c in script), encoding="utf-8")
    gc.collect()
    begin = clock()
    rc, _ = run_cli(state, ["scenario", "run", str(path), "--strict",
                            "--transcript", str(transcript)])
    elapsed = clock() - begin
    entries = json.loads(transcript.read_text(encoding="utf-8"))["entries"]
    run.check(rc == 0 and len(entries) == len(script), f"scenario replay rc={rc}")
    for command, entry in zip(script, entries):
        run.check(command.matches(0 if entry["status"] == "ok" else 1, entry["output"]),
                  f"replayed {' '.join(command.argv)}")
    return elapsed


# -- data-plane -----------------------------------------------------------------------


@dataclass
class Job:
    caller: str
    subject: str  # principal whose mirror the job runs as
    buckets: list[str]
    actions: list[str]
    expected: list[tuple[str, str]]
    kind: str = "job"  # "job" | "cross-actas" | "stale"
    token_id: str | None = None  # the stale token a "stale" job re-checks


def data_plane_pass(seed: int, scale: Scale, run: Run, workdir: Path) -> tuple[World, Model]:
    world, model, jobs = set_up(run, scale, lambda: data_plane_setup(seed, scale, run))
    for job in jobs:
        with run.guard(f"{job.kind} by {job.caller}"):
            run_job(world.authz, model, job, run)
    return world, model


def data_plane_setup(seed: int, scale: Scale, run: Run) -> tuple[World, Model, list[Job]]:
    rng = random.Random(f"data-plane:{seed}")
    world, model, org = build_directory(seed, scale)
    converge(world, model, run)
    stable, _ = split_population(rng, model, 0)
    owners = stable[: scale.buckets]
    provision(world, model, run, rng, stable, owners,
              big=max(1, round(0.05 * len(owners))), big_size=scale.big_group_size)

    engine = world.authz
    stale = []
    for name in rng.sample(owners, min(scale.stale_tokens, len(owners))):
        token = mint(engine, model, name)
        run.check(token.token_id == model.next_token(), "stale token id")
        stale.append((name, token.token_id))
    for _ in range(3):
        world.advance(world.config.rotation_age)
        tick(world, run, model, model.expect_rotation())
        world.advance(world.config.retiring_grace)
        tick(world, run, model)
    return world, model, plan_jobs(rng, model, owners, stale, scale.jobs)


def mint(engine, model: Model, name: str):
    email = model.emails[name]
    if model.people[name].human:
        return engine.impersonate(f"workspace:{name}", email)
    return engine.authenticate(name, email)


def plan_jobs(rng, model: Model, owners: list[str], stale, count: int) -> list[Job]:
    reading: dict[str, list[str]] = defaultdict(list)
    for bucket in sorted(model.synced):
        for member in model.readers[bucket]:
            reading[member].append(bucket)
    buckets = sorted(model.owners)
    humans = [n for n in owners if model.people[n].human]
    jobs = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.05 and humans:
            caller = rng.choice(humans)
            victim = rng.choice([n for n in rng.sample(owners, 2) if n != caller])
            jobs.append(Job(f"workspace:{caller}", victim, [bucket_id(victim)], ["read"],
                            [], kind="cross-actas"))
            continue
        if roll < 0.10 and stale:
            name, token_id = rng.choice(stale)
            targets = [rng.choice(buckets) for _ in range(8)]
            jobs.append(Job(name, name, targets, ["read"] * 8,
                            [("deny", "InvalidToken")] * 8, kind="stale", token_id=token_id))
            continue
        name = rng.choice(owners)
        targets, actions = [], []
        for _ in range(8):
            pick = rng.random()
            if pick < 0.3:
                bucket, action = bucket_id(name), rng.choice(("read", "write"))
            elif pick < 0.8 and reading[name]:
                bucket, action = rng.choice(reading[name]), ("read" if rng.random() < 0.9 else "write")
            else:
                bucket, action = rng.choice(buckets), rng.choice(("read", "write"))
            targets.append(bucket)
            actions.append(action)
        caller = f"workspace:{name}" if model.people[name].human else name
        expected = [model.expect_decision(name, b, a) for b, a in zip(targets, actions)]
        jobs.append(Job(caller, name, targets, actions, expected))
    return jobs


def run_job(engine, model: Model, job: Job, run: Run) -> None:
    actions = [AccessAction(a) for a in job.actions]
    email = model.emails[job.subject]
    if job.kind == "stale":
        begin = clock()
        got = [engine.authorize(job.token_id, b, a) for b, a in zip(job.buckets, actions)]
        elapsed = clock() - begin
        outcome = [(d.decision.value, d.reason.value) for d in got]
        run.check(outcome == job.expected, "stale token re-check")
    elif job.kind == "cross-actas":
        begin = clock()
        try:
            engine.submit_job(job.caller, email, job.buckets, actions)
            denied = False
        except PermissionDenied:
            denied = True
        elapsed = clock() - begin
        run.check(denied, f"{job.caller} acted as {email}")
    else:
        begin = clock()
        result = engine.submit_job(job.caller, email, job.buckets, actions)
        elapsed = clock() - begin
        model.next_token()
        outcome = [(r["decision"], r["reason"]) for r in result.results]
        run.check(result.subject == email and outcome == job.expected,
                  f"job {result.job_id} decisions differ from the model")
    run.samples["job_s"].append(elapsed)
    run.totals["decisions"] += len(job.expected)


# -- acceptance ----------------------------------------------------------------------


def digest(world: World) -> str:
    return hashlib.sha256(world.export_text(reveal_secrets=True).encode()).hexdigest()


def acceptance(world: World, model: Model, workdir: Path, run: Run) -> dict:
    """Replay a converge-and-inspect script through the CLI on the final world.

    It checks, on every workload, that the state survives save and load,
    that ``verify --converged`` passes once the pending directory and reader
    changes the model knows of are reconciled and synced, that a repeat tick
    changes nothing, that the tree lists every active mirror and that the
    audit sidecar holds exactly one line per event.  Then, on the world
    loaded back, one job per token path must reach its owner's bucket.
    """
    state = workdir / "world.json"
    sidecar = Path(f"{state}.audit.jsonl")
    if not state.exists():
        world.save(state)
    pending = model.expect_tick()
    added, removed = model.expect_sync()
    script = []
    if pending["created"] or pending["actas_granted"] or pending["decommissioned"]:
        script.append(Command(["reconcile", "--once"], True, lines=(
            f"  created: {len(pending['created'])}", "  errors: 0")))
    if added or removed:
        script.append(Command(["onboard", "sync-readers"], True, lines=(
            f"added: {len(added)}", f"removed: {len(removed)}", "skipped: 0")))
    script += [
        Command(["verify", "--converged"], False, lines=("ok: no violations",)),
        Command(["reconcile", "--once"], True, lines=("  created: 0", "  rotated: 0",
                                                      "  actas_granted: 0", "  decommissioned: 0",
                                                      "  errors: 0")),
        Command(["report", "last", "--format", "json"], False),
        Command(["cloud", "tree"], False, lines=("organization: org",)),
    ]
    replay(state, workdir, script, run)

    entries = json.loads((workdir / "replay.json").read_text(encoding="utf-8"))["entries"]
    report = json.loads(entries[-2]["output"]) if len(entries) == len(script) else {}
    run.check(not any(report.get(k) for k in ("created", "rotated", "actas_granted",
                                               "decommissioned", "errors")),
              "repeat tick reported changes")
    tree = entries[-1]["output"].splitlines() if len(entries) == len(script) else []
    mirrors = sum(1 for line in tree if line.strip().startswith("service-account:")
                  and line.endswith("(active)"))
    run.check(mirrors == len(model.emails), "cloud tree active mirrors differ from the model")
    final = World.load(state)
    with open(sidecar, encoding="utf-8") as handle:
        lines = sum(1 for _ in handle)
    run.check(lines == len(final.audit), "audit sidecar lines differ from audit events")
    owners = sorted(model.owners.values())
    for human in (False, True):
        name = next((n for n in owners if model.people[n].human is human), None)
        if name is not None:
            caller = f"workspace:{name}" if human else name
            result = final.authz.submit_job(caller, model.emails[name], [bucket_id(name)],
                                            [AccessAction.WRITE])
            run.check([(r["decision"], r["reason"]) for r in result.results] == [("allow", "Owner")],
                      f"{caller} was refused its own bucket")
    return {"state_bytes": state.stat().st_size, "sidecar_bytes": sidecar.stat().st_size}


# -- runs ----------------------------------------------------------------------------


# Every pass takes (seed, scale, run, workdir); ``workdir`` holds the files
# a pass writes.
PASSES = {
    "control-loop": control_loop_pass,
    "operator-cli": operator_cli_pass,
    "data-plane": data_plane_pass,
}


@dataclass
class Outcome:
    run: Run
    digest: str
    layers: dict[str, float] = field(default_factory=dict)
    pass_s: list[float] = field(default_factory=list)
    tracer: Tracer | None = None


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 scale: Scale | None = None) -> Outcome:
    """Repeat the workload's pass for ``seconds``; the last pass is checked end to end.

    With ``trace``, untraced and traced passes alternate, at least
    ``TRACE_PAIRS`` of each, and ``trace.overhead_pct`` compares their median
    times.  Each traced pass records its spans afresh; the layer numbers come
    from the last one, which includes its set-up and the acceptance check.
    """
    scale = scale or SCALES[name]
    one_pass = PASSES[name]
    run = Run()
    pass_s: list[float] = []
    traced_s: list[float] = []
    tracer = None
    begin = clock()
    min_passes = TRACE_PAIRS if trace else scale.min_passes
    while len(pass_s) < min_passes or clock() - begin < seconds:
        # Free the previous pass's world first, so every pass starts from the same heap.
        world = model = None
        world, model, elapsed = timed_pass(one_pass, seed, scale, run, workdir)
        pass_s.append(elapsed)
        if trace:
            tracer = Tracer()
            world = model = None
            with instrument(tracer):
                world, model, elapsed = timed_pass(one_pass, seed, scale, run, workdir)
            traced_s.append(elapsed)
    outcome = Outcome(run, digest(world), pass_s=pass_s, tracer=tracer)
    if not trace:
        acceptance(world, model, workdir, run)
        return outcome
    with instrument(tracer):
        files = acceptance(world, model, workdir, run)
    slowdown = statistics.median(traced_s) / statistics.median(pass_s)
    outcome.layers = layer_report(tracer, len(world.audit), files, slowdown)
    return outcome


TRACE_PAIRS = 3


def timed_pass(one_pass, seed: int, scale: Scale, run: Run, workdir: Path):
    """One pass on an empty ``workdir`` after a full collection: (world, model, seconds)."""
    reset(workdir)
    gc.collect()
    start = clock()
    world, model = one_pass(seed, scale, run, workdir)
    return world, model, clock() - start


def reset(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()


def layer_report(tracer: Tracer, events: int, files: dict, slowdown: float) -> dict[str, float]:
    c = tracer.counters
    out = tracer.layer_metrics()
    out["reconciler.members_scanned"] = c["members_scanned"]
    out["reconciler.changes"] = c["changes"]
    out["reconciler.useful_ratio"] = ratio(c["changes"], c["members_scanned"])
    out["reconciler.errors"] = c["errors"]
    out["reconciler.rejected"] = c["rejected"]
    out["onboarder.sync_useful_ratio"] = ratio(c["sync_changes"], c["reader_members_scanned"])
    decisions = sum(c[f"decision.{r.value}"] for r in DecisionReason)
    out["authz.allow_ratio"] = ratio(sum(c[f"decision.{r.value}"] for r in ALLOW_REASONS),
                                     decisions)
    for reason in DecisionReason:
        if reason not in ALLOW_REASONS:
            out[f"authz.deny.{reason.value}"] = c[f"decision.{reason.value}"]
    out["audit.events_total"] = events
    out["world.state_bytes"] = files["state_bytes"]
    out["cli.sidecar_bytes"] = files["sidecar_bytes"]
    out["trace.overhead_pct"] = (slowdown - 1) * 100
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
