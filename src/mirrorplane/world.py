"""One world: every module's state wired together behind a logical clock.

The canonical serialization (``state export``) is key-sorted,
two-space-indented JSON with integer timestamps, so snapshots diff cleanly and
export -> import -> export is byte-identical.  The working state file holds the
same document as compact JSON, which is faster to write; either form loads.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from pathlib import Path

from .audit import AuditLog
from .authz import AuthzEngine, TokenStore
from .cloud import Cloud, NodeKind
from .codec import compact_json, counter, decode, encode
from .directory import Directory
from .errors import SchemaError, malformed
from .onboarder import Onboarder
from .reconciler import ReconcileConfig, Reconciler
from .vault import SecretSource, Vault, redact

SCHEMA_VERSION = 1
ORGANIZATION_ID = "org"
_HEAD = '{"audit":'  # how a compact state file starts: the audit sorts first

# Each store's section of the state document: (state key, World attribute).
_SECTIONS = (
    ("directory", "directory"),
    ("cloud", "cloud"),
    ("vault", "vault"),
    ("onboarder", "onboarder"),
    ("tokens", "tokens"),
    ("reconcile", "reconciler"),
    ("authz", "authz"),
    ("audit", "audit"),
)


def canonical_json(data: dict) -> str:
    """A non-empty object as key-sorted JSON indented by two spaces, and a newline.

    Each top-level value is dumped on its own: the indenting encoder holds every
    piece of its text at once (26 MB for the 1k world in one dump).
    """
    items = (f"  {json.dumps(key, ensure_ascii=False)}: "
             + json.dumps(data[key], indent=2, sort_keys=True, ensure_ascii=False)
             .replace("\n", "\n  ") for key in sorted(data))
    return "{\n" + ",\n".join(items) + "\n}\n"


def write_atomic(path: str | Path, *pieces: str) -> None:
    """Replace ``path`` with the text ``pieces`` join to, so a reader sees the old or the new file, never a part.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``.  That survives the process
    dying mid-write; there is no fsync, so it does not survive power loss.
    A symlink is written through: the rename lands on its target and the
    link stays.  A target that exists but is not a regular file (a FIFO, a
    terminal) is written in place, since a rename would replace it instead.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(pieces)
        return
    path = Path(path).resolve()
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, prefix=f".{path.name}.", delete=False
    )
    try:
        with handle:
            handle.writelines(pieces)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


class World:
    """Aggregate root; all module objects share its audit log and clock."""

    def __init__(self, config: ReconcileConfig, secrets: SecretSource) -> None:
        self.clock = 0
        self.config = config
        self.audit = AuditLog(lambda: self.clock)
        self.secrets = secrets
        self.directory = Directory(self.audit)
        self.cloud = Cloud(self.audit, default_quota=self.config.quota_default)
        self.vault = Vault(self.audit, self.directory.has_principal)
        self.reconciler = Reconciler(
            self.directory, self.cloud, self.vault, self.secrets, self.config, self.audit,
        )
        self.tokens = TokenStore()
        self.onboarder = Onboarder(self.directory, self.cloud)
        self.authz = AuthzEngine(self.cloud, self.vault, self.tokens, self.audit)

    @classmethod
    def new(cls, seed: int = 0, config: ReconcileConfig | None = None) -> "World":
        """Fresh world with the organization root already in place."""
        world = cls(config or ReconcileConfig(), SecretSource(seed))
        world.cloud.create_node(NodeKind.ORGANIZATION, ORGANIZATION_ID, None)
        return world

    # -- clock -------------------------------------------------------------

    def advance(self, minutes: int) -> int:
        if minutes < 0:
            raise ValueError("the clock only moves forward")
        self.clock += minutes
        return self.clock

    # -- serialization -------------------------------------------------------

    def to_dict(self, reveal_secrets: bool = True, sections=_SECTIONS) -> dict:
        data = {
            "schema_version": SCHEMA_VERSION,
            "clock": self.clock,
            "config": encode(self.config),
            "secrets": encode(self.secrets),
        }
        for key, attribute in sections:
            data[key] = getattr(self, attribute).to_dict()
        if not reveal_secrets:
            redact(data["vault"])
        return data

    def export_text(self, reveal_secrets: bool = False) -> str:
        return canonical_json(self.to_dict(reveal_secrets))

    @classmethod
    def from_dict(cls, data) -> "World":
        if not isinstance(data, dict):
            raise SchemaError("state document must be a JSON object (at /)")
        for key in ("schema_version", "clock", "config", "secrets", *dict(_SECTIONS)):
            if key not in data:
                raise SchemaError(f"missing required key (at /{key})")
        if data["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {data['schema_version']!r} "
                "(at /schema_version)"
            )

        def load(section: str, loader):
            with malformed(section):
                return loader(data[section])

        config = load("config", lambda d: decode(ReconcileConfig, d))
        world = cls(config, load("secrets", lambda d: decode(SecretSource, d)))
        world.clock = load("clock", lambda value: counter(value, "clock"))
        for key, attribute in _SECTIONS:
            load(key, getattr(world, attribute).load_state)
        return world

    # -- files ---------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        kept, added = self.audit.array()
        rest = compact_json(self.to_dict(sections=_SECTIONS[:-1]))  # the audit is the last one
        write_atomic(path, _HEAD, kept, added, ",", rest[1:], "\n")

    @classmethod
    def load(cls, path: str | Path) -> "World":
        try:
            data, array = _parse(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaError(f"state file is not valid JSON: {exc}") from exc
        world = cls.from_dict(data)
        if array is not None:
            world.audit.keep_text(array)
        return world


def _parse(text: str) -> tuple[object, str | None]:
    """The document, and its audit array's text less the ``]`` if compact; else one json.loads."""
    if text.startswith(_HEAD + "["):
        parse, data = json.JSONDecoder().raw_decode, {}
        try:
            audit, end = parse(text, len(_HEAD))
            at = end
            while text.startswith(',"', at):  # in place: parsing a copy raised the peak RSS
                key, colon = parse(text, at + 1)
                if not text.startswith(":", colon):
                    break  # ``at`` is left on the comma, which fails the check below
                data[key], at = parse(text, colon + 1)
            if "audit" not in data and text[at:] in ("}", "}\n"):  # a second audit would win
                data["audit"] = audit
                return data, text[len(_HEAD):end - 1]
        except ValueError:
            pass  # the whole text's error is the one reported
    return json.loads(text), None
