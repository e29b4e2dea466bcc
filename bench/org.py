"""Seeded organization generator and the independent model of its outcomes.

Every workload starts from the same generated organization: about 70 %
human and 30 % headless principals, about 2 % of them with an underscore in
the name, which the reconciler must reject.  The generator also predicts what
the control plane should do with that input (mirror emails, bucket ids,
reader-group images, access decisions).  The predictions are computed here
from the published naming and placement rules, not by calling the engine, so
a wrong engine result shows as a mismatch instead of being copied into the
expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SOURCE_GROUP = "mirror-account-users"
BASE_PROJECT = "service-accounts-project"
PROJECT_QUOTA = 100
HUMAN_SHARE = 0.70
UNDERSCORE_SHARE = 0.02
ORG_UNITS = ("analytics", "ads", "infra", "search", "payments")
STEMS = ("posts", "feed", "ranker", "etl", "logs", "helen", "omar", "li",
         "kofi", "ana", "metrics", "crawler", "ingest", "billing", "sara")


@dataclass(frozen=True)
class Person:
    name: str
    human: bool
    org_unit: str

    @property
    def legal(self) -> bool:
        return "_" not in self.name

    @property
    def kind(self) -> str:
        return "human" if self.human else "headless"

    @property
    def hdfs_home(self) -> str:
        return f"/dc1/cluster1/user/{self.name}"


def generate_people(rng: random.Random, start: int, count: int) -> list[Person]:
    people = []
    for index in range(start, start + count):
        stem = rng.choice(STEMS)
        sep = "_" if rng.random() < UNDERSCORE_SHARE else "-"
        people.append(Person(
            name=f"{stem}{sep}{index:05d}",
            human=rng.random() < HUMAN_SHARE,
            org_unit=rng.choice(ORG_UNITS),
        ))
    return people


def bucket_id(name: str) -> str:
    return f"user.{name}.dp.domain"


def cloud_group(bucket: str) -> str:
    return f"reader-{bucket}@groups.dp.domain"


def ldap_group(bucket: str) -> str:
    return f"reader-{bucket}"


def sa(email: str) -> str:
    return f"serviceAccount:{email}"


@dataclass
class Model:
    """What the control plane should hold after the traffic sent so far.

    ``members`` mirrors the source group's member order, which fixes the
    order of every per-member list in a tick report.  Placement follows the
    single-project sharding rule: the k-th account ever created lands in
    ``base`` for k < quota, then ``base-2``, ``base-3``...; decommissioned
    accounts keep their quota slot.
    """

    people: dict[str, Person] = field(default_factory=dict)
    members: list[str] = field(default_factory=list)
    emails: dict[str, str] = field(default_factory=dict)  # active mirrors
    created_total: int = 0
    owners: dict[str, str] = field(default_factory=dict)  # bucket -> owner name
    readers: dict[str, set[str]] = field(default_factory=dict)  # bucket -> ldap members
    synced: dict[str, set[str]] = field(default_factory=dict)  # bucket -> cloud image
    tokens_minted: int = 0

    def add(self, person: Person) -> None:
        self.people[person.name] = person

    def join(self, name: str) -> None:
        self.members.append(name)

    def leave(self, name: str) -> None:
        self.members.remove(name)

    def expect_tick(self) -> dict:
        """Report lists for the next tick, applying its effects to the model."""
        created, actas, rejected, decommissioned = [], [], [], []
        for name in self.members:
            person = self.people[name]
            if not person.legal:
                rejected.append(name)
                continue
            if name in self.emails:
                continue
            shard = self.created_total // PROJECT_QUOTA + 1
            project = BASE_PROJECT if shard == 1 else f"{BASE_PROJECT}-{shard}"
            email = f"{name}-mirror@{project}.iam.gserviceaccount.com"
            self.created_total += 1
            self.emails[name] = email
            created.append(email)
            if person.human:
                actas.append(email)
        current = set(self.members)
        for name in [n for n in self.emails if n not in current]:
            decommissioned.append(self.emails.pop(name))
        return {
            "created": created,
            "actas_granted": actas,
            "decommissioned": sorted(decommissioned),
            "rejected": rejected,
        }

    def expect_rotation(self) -> list[str]:
        return [self.emails[n] for n in self.members if n in self.emails]

    def expect_sync(self) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
        """(added, removed) as (cloud group, member) pairs in engine order."""
        added, removed = [], []
        for bucket in sorted(self.readers):
            desired = {sa(self.emails[n]) for n in self.readers[bucket] if n in self.emails}
            current = self.synced.get(bucket, set())
            group = cloud_group(bucket)
            added += [(group, m) for m in sorted(desired - current)]
            removed += [(group, m) for m in sorted(current - desired)]
            self.synced[bucket] = desired
        return added, removed

    def expect_decision(self, subject: str, bucket: str, action: str) -> tuple[str, str]:
        if self.owners.get(bucket) == subject:
            return "allow", "Owner"
        if action == "read" and sa(self.emails[subject]) in self.synced.get(bucket, ()):
            return "allow", "ReaderGroup"
        return "deny", "NotAuthorized"

    def next_token(self) -> str:
        self.tokens_minted += 1
        return f"tok-{self.tokens_minted:06d}"

    def legal_members(self) -> list[str]:
        return [n for n in self.members if self.people[n].legal]


@dataclass
class Org:
    """The generated input: an initial directory plus a reserve of newcomers."""

    people: list[Person]
    reserve: list[Person]
    join_order: list[str]

    @classmethod
    def generate(cls, seed: int, size: int, reserve: int) -> "Org":
        rng = random.Random(f"org:{seed}")
        people = generate_people(rng, 0, size)
        newcomers = generate_people(rng, size, reserve)
        order = [p.name for p in people]
        rng.shuffle(order)
        return cls(people=people, reserve=newcomers, join_order=order)
