"""One world: every module's state wired together behind a logical clock.

The canonical serialization (``state export``) is key-sorted,
two-space-indented JSON with integer timestamps, so snapshots diff cleanly and
export -> import -> export is byte-identical.  The working state file holds the
same document as compact JSON with each top-level section on a line of its
own, and each audit event too, so a load finds the sections in its bytes
without a parse; another form loads as its document's ``working_text``.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
import weakref
from pathlib import Path

from .audit import AuditLog
from .authz import AuthzEngine, TokenStore
from .cloud import Cloud, NodeKind
from .codec import compact_json, counter, decode, encode, parse_at
from .directory import Directory
from .errors import SchemaError, malformed
from .onboarder import Onboarder
from .reconciler import ReconcileConfig, Reconciler
from .vault import SecretSource, Vault, redact

SCHEMA_VERSION = 1
ORGANIZATION_ID = "org"

# Each store: World attribute -> (its section of the state document, how a
# world makes it empty).  A store that holds others takes the world, and
# takes each of them from it only when it may need it (``codec.Holder``), so
# decoding it decodes no other store.  A store comes after the stores it holds,
# so that in a world built in memory a holder takes them when it is made.
_STORES = {
    "directory": ("directory", lambda w: Directory(w.audit)),
    "cloud": ("cloud", lambda w: Cloud(w.audit, default_quota=w.config.quota_default)),
    "vault": ("vault", Vault),
    "onboarder": ("onboarder", Onboarder),
    "tokens": ("tokens", lambda w: TokenStore()),
    "reconciler": ("reconcile", Reconciler),
    "authz": ("authz", AuthzEngine),
}
_NAMES = {key: name for name, (key, _) in _STORES.items()}  # section -> store
# The stores every change to which emits a mutation named after them.
_AUDITED = ("directory", "cloud", "vault")
_HEAD = ("clock", "config", "schema_version", "secrets")  # decoded by every load
# Every section, in the order a key-sorted dump of the document writes them.
_KEYS = tuple(sorted([*_HEAD, "audit", *_NAMES]))


def canonical_json(data: dict) -> str:
    """A non-empty object as key-sorted JSON indented by two spaces, and a newline."""
    return _indented(sorted(data), data.__getitem__)


def _indented(keys, value) -> str:
    """The object of the sorted ``keys``, each with ``value(key)``, as ``canonical_json`` writes it.

    Each value is made and dumped in turn, and dropped before the next: the
    indenting encoder holds every piece of its text at once (26 MB for the 1k
    world in one dump).
    """
    items = (f"  {json.dumps(key, ensure_ascii=False)}: "
             + json.dumps(value(key), indent=2, sort_keys=True, ensure_ascii=False)
             .replace("\n", "\n  ") for key in keys)
    return "{\n" + ",\n".join(items) + "\n}\n"


def write_atomic(path: str | Path, *pieces: bytes | memoryview) -> None:
    """Replace ``path`` with the bytes ``pieces`` join to, so a reader sees the old or the new file, never a part.

    The bytes go to a temporary file in the same directory, which
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
        with open(path, "wb") as out:
            out.writelines(pieces)
        return
    path = Path(path).resolve()
    handle = tempfile.NamedTemporaryFile("wb", dir=path.parent, prefix=f".{path.name}.", delete=False)
    try:
        with handle:
            handle.writelines(pieces)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


class World:
    """Aggregate root; all module objects share its audit log and clock.

    A loaded world keeps the UTF-8 working text of its file as bytes, whatever
    the file's form, and decodes each store from its bytes on first use, alone:
    the stores a store holds are decoded only when it takes them (``codec.Holder``).

    Nothing the world reaches refers back to it but weakly (the audit's clock,
    each holder), so it is freed as soon as its last reference goes, without
    waiting for the cyclic collector.
    """

    def __init__(self, config: ReconcileConfig, secrets: SecretSource, data: bytes = b"",
                 spans: dict[str, tuple[int, int]] | None = None) -> None:
        self.clock = 0
        self.config = config
        world = weakref.proxy(self)
        self.audit = AuditLog(lambda: world.clock)
        self.secrets = secrets
        # Each store's bytes as last read or written, as (bytes, start, stop): one not
        # decoded yet, or an audited one, unless ``audit.mutated`` names it.
        self._loaded = {name: (data, *spans[key]) for key, name in _NAMES.items()} if spans else {}
        for name, (_, make) in _STORES.items():
            if name not in self._loaded:
                setattr(self, name, make(self))

    def __getattr__(self, name: str):
        # Runs only for an attribute not set: a store decoded on first use.
        loaded = self.__dict__.get("_loaded", {}).get(name)
        if loaded is None:
            raise AttributeError(f"'World' object has no attribute {name!r}")
        key, make = _STORES[name]
        store = make(self)
        with malformed(key):
            store.load_state(parse_at(*loaded))
        setattr(self, name, store)
        if name not in _AUDITED:  # it may change without an event
            del self._loaded[name]
        return store

    def decode(self) -> "World":
        """Decode every section now, so that a malformed one raises here."""
        for name in list(self._loaded):
            getattr(self, name)
        self.audit.decoded()
        return self

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

    def to_dict(self) -> dict:
        return {key: self._section(key) for key in _KEYS}

    def export_text(self, reveal_secrets: bool = False) -> str:
        return _indented(_KEYS, lambda key: self._section(key, reveal_secrets))

    def _section(self, key: str, reveal_secrets: bool = True):
        """One top-level section of the state document, as plain data."""
        name = _NAMES.get(key)
        if key == "audit":
            return self.audit.to_dict()
        if name is None:  # the head: the schema version, and the clock, config and secrets
            return SCHEMA_VERSION if key == "schema_version" else encode(getattr(self, key))
        data = getattr(self, name).to_dict()
        if key == "vault" and not reveal_secrets:
            redact(data)
        return data

    @classmethod
    def from_dict(cls, data) -> "World":
        """The world ``data`` holds, decoded in full, so that a malformed section raises here."""
        return cls.loads(working_text(data)).decode()

    # -- files ---------------------------------------------------------------

    def save(self, path: str | Path) -> list[bytes]:
        """Write the working file; return the audit lines it encoded, for the sidecar.

        A store not decoded, a directory, cloud or vault with no mutation since its
        bytes were last read or written, and the loaded audit lines go back as views of them.
        """
        lines = self.audit.lines()
        pieces: list[bytes | memoryview] = []
        for key in _KEYS:
            name = _NAMES.get(key)
            pieces.append((f',\n"{key}":' if pieces else f'{{"{key}":').encode())
            if key == "audit":
                pieces += self.audit.text(lines)
            elif name in self._loaded and name not in self.audit.mutated:
                data, start, stop = self._loaded[name]
                pieces.append(memoryview(data)[start:stop])
            else:
                pieces.append(compact_json(self._section(key)).encode())
                if name in self._loaded:
                    self._loaded[name] = (pieces[-1], 0, len(pieces[-1]))
        write_atomic(path, *pieces, b"}\n")
        self.audit.mutated.clear()
        return lines

    @classmethod
    def load(cls, path: str | Path) -> "World":
        try:
            return cls.loads(Path(path).read_bytes())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaError(f"state file is not valid JSON: {exc}") from exc

    @classmethod
    def loads(cls, data: bytes) -> "World":
        """The world of a state file's UTF-8 bytes, in any form: each store decodes on first use."""
        spans = _spans(data)
        if spans is None:  # another form (an export, an older working file): its working text
            data = working_text(json.loads(str(data, "utf-8")))  # bytes would take UTF-16 too
            spans = _spans(data)
        elif not data.isascii():
            str(data, "utf-8")  # only to check it: each section decodes alone, on first use
        head = {key: parse_at(data, *spans[key]) for key in _HEAD}
        if head["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {head['schema_version']!r} "
                "(at /schema_version)"
            )

        def load(section: str, loader):
            with malformed(section):
                return loader(head[section])

        config = load("config", lambda d: decode(ReconcileConfig, d))
        world = cls(config, load("secrets", lambda d: decode(SecretSource, d)), data, spans)
        world.clock = load("clock", lambda value: counter(value, "clock"))
        world.audit.load_lines(data, *spans["audit"])
        return world


def _spans(data: bytes) -> dict[str, tuple[int, int]] | None:
    """Each section's byte (start, stop) in a working file, found without a parse; None for another text.

    A working file is ``{`` + ``",\\n".join('"key":' + compact value) + ``}\\n``, each key
    once, in order.  Compact JSON holds no raw newline, so the sections after the
    audit are found from the end, a line each; the audit is ``[]`` or an event a line.
    """
    head = b'{"audit":'
    if not data.startswith(head) or not data.endswith(b"}\n"):
        return None
    spans, stop = {}, len(data) - 2
    for key in reversed(_KEYS[1:]):
        line = f',\n"{key}":'.encode()
        at = data.rfind(b"\n", 0, stop)
        if at < 1 or not data.startswith(line, at - 1):
            return None
        spans[key], stop = (at - 1 + len(line), stop), at - 1
    empty = stop == len(head) + 2 and data.startswith(b"[]", len(head))
    if not empty and not (data.startswith(b"[\n", len(head)) and data.endswith(b"]", 0, stop)):
        return None
    spans["audit"] = (len(head), stop)
    return spans


def working_text(data) -> bytes:
    """The state document ``data`` as a working file's UTF-8 text."""
    if not isinstance(data, dict):
        raise SchemaError("state document must be a JSON object (at /)")
    for key in _KEYS:
        if key not in data:
            raise SchemaError(f"missing required key (at /{key})")
    events = data["audit"]
    if not isinstance(events, list):
        with malformed("audit"):
            raise TypeError(f"the audit must be a list, not {type(events).__name__}")
    audit = "[\n" + ",\n".join(map(compact_json, events)) + "]" if events else "[]"
    return ("{" + ",\n".join(
        f'"{key}":{audit if key == "audit" else compact_json(data[key])}' for key in _KEYS) + "}\n").encode()
