"""The one codec between dataclasses and JSON-ready data.

``encode`` turns a value into fresh plain containers: enums become their
value and dataclasses become dicts keyed by field name, recursing into
nested dataclasses, lists and dicts.  ``decode(type, data)`` inverts it for a
dataclass, an enum, ``list[...]`` or ``X | None``.

Each type's encoder and decoder is generated once, from the field types, the
way ``dataclasses`` generates ``__init__``: an interpreted per-field loop costs
about twice as much, and a CLI command decodes every store it touches.

Enums skip ``Enum``'s slow paths: a member encodes as its ``_value_`` and
decodes through a plain value -> member dict; the enum is called only to raise
its own error.  Dataclasses are still called: filling a frozen instance's
``__dict__`` decodes twice as fast, but 8,000 events then hold 2.6 MB, not 1.2.

A document may omit a field's key only when the field's type admits None (it
decodes as None) or the field is declared with :func:`optional`.  Any other
missing key raises ``KeyError``, which the first decode of the store reports
as a ``SchemaError`` at its section.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
import weakref
from enum import Enum
from typing import Any, Callable

_OPTIONAL = "codec_optional"

_ENCODERS: dict[Any, Callable[[Any], Any]] = {}
_DECODERS: dict[Any, Callable[[Any], Any]] = {}


def optional(default):
    """A dataclass field whose key may be absent; decoding then yields ``default``."""
    return dataclasses.field(default=default, metadata={_OPTIONAL: True})


def counter(value, name: str, least: int = 0) -> int:
    """A loaded counter or limit that later commands do arithmetic on: an ``int``, no ``bool``."""
    if type(value) is not int or value < least:
        what = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {what}, not {value!r}")
    return value


# Key-sorted JSON without spaces, through one encoder: ``json.dumps`` with these
# arguments builds a new encoder on every call.
compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_DECODER = json.JSONDecoder()


def parse_at(data: bytes, start: int, stop: int):
    """The JSON value that fills the UTF-8 ``data[start:stop]``, decoded from a view, not a copy."""
    view = memoryview(data)
    text = str(view[start:stop], "utf-8")
    try:
        value, end = _DECODER.raw_decode(text)
    except json.JSONDecodeError:
        end = -1
    if end != len(text):  # parse all of ``data`` from there, for the error a parse of it gives
        text, end = str(data, "utf-8"), len(str(view[:start], "utf-8"))
        end = _DECODER.raw_decode(text, end)[1]
        raise json.JSONDecodeError("Value does not end where its line ends", text, end)
    return value


class Holder:
    """A store that holds the stores of its world named in ``HOLDS``, as plain attributes.

    A world makes, and decodes, each store on first use, so a holder takes no
    store when it is made: every public call that reads a held store takes them
    all first, so a malformed one fails before anything changed.  A lazy class
    attribute (a descriptor, ``__getattr__``) would slow every read on 3.11.
    The world is held weakly, so that it is in no reference cycle; a holder
    that takes its stores after its world is gone raises ``ReferenceError``.
    """

    HOLDS: tuple[str, ...] = ()

    def __init__(self, world) -> None:
        self._world = weakref.proxy(world)
        self._taken = False

    def take_stores(self) -> None:
        """Take each held store from the world, which makes or decodes it on first use."""
        if not self._taken:
            for name in self.HOLDS:
                setattr(self, name, getattr(self._world, name))
            self._taken = True


def encode(value):
    return (_ENCODERS.get(type(value)) or encoder(type(value)))(value)


def decode(tp, data):
    return decoder(tp)(data)


def encoder(kind) -> Callable[[Any], Any]:
    fn = _ENCODERS.get(kind)
    if fn is None:
        fn = _ENCODERS[kind] = _build_encoder(kind)
    return fn


def decoder(tp) -> Callable[[Any], Any]:
    fn = _DECODERS.get(tp)
    if fn is None:
        fn = _DECODERS[tp] = _build_decoder(tp)
    return fn


def _build_encoder(kind):
    # Containers look each item's encoder up inline: this runs once per
    # audit event on every save.
    get = _ENCODERS.get
    if kind is list:
        return lambda value: [(get(type(v)) or encoder(type(v)))(v) for v in value]
    if kind is dict:
        return lambda value: {k: (get(type(v)) or encoder(type(v)))(v) for k, v in value.items()}
    if issubclass(kind, Enum):
        return lambda value: value._value_
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        ns: dict[str, Any] = {}
        items = ", ".join(
            f"{f.name!r}: {_expr(hints[f.name], f'o.{f.name}', ns, encoding=True)}"
            for f in dataclasses.fields(kind)
        )
        return eval(f"lambda o: {{{items}}}", ns)
    return lambda value: value


def _build_decoder(tp):
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {member._value_: member for member in tp}
        # A list or dict has no __hash__, and the dict could not look it up.
        return lambda value: (members.get(value) if value.__hash__ else None) or tp(value)
    if not dataclasses.is_dataclass(tp):
        ns: dict[str, Any] = {}
        return eval(f"lambda d: {_expr(tp, 'd', ns, encoding=False)}", ns)
    hints = typing.get_type_hints(tp)
    ns = {"cls": tp}
    args = []
    for f in dataclasses.fields(tp):
        if f.metadata.get(_OPTIONAL):
            ns[f"_default_{f.name}"] = f.default
            raw = f"d.get({f.name!r}, _default_{f.name})"
        elif type(None) in typing.get_args(hints[f.name]):
            raw = f"d.get({f.name!r})"
        else:
            raw = f"d[{f.name!r}]"
        args.append(f"{f.name}={_expr(hints[f.name], raw, ns, encoding=False)}")
    return eval(f"lambda d: cls({', '.join(args)})", ns)


def _expr(tp, var: str, ns: dict, encoding: bool) -> str:
    """Source of an expression converting ``var``, of type ``tp``, one way."""
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        converted = _expr(inner, "_v", ns, encoding)
        if converted == "_v":
            return var
        return f"(None if (_v := {var}) is None else {converted})"
    if origin is list:
        (item,) = typing.get_args(tp)
        name = f"_x{len(ns)}"
        converted = _expr(item, name, ns, encoding)
        return f"list({var})" if converted == name else f"[{converted} for {name} in {var}]"
    if tp is dict or origin is dict:
        return f"dict({var})"
    if isinstance(tp, type) and (issubclass(tp, Enum) or dataclasses.is_dataclass(tp)):
        if encoding and issubclass(tp, Enum):
            return f"{var}._value_"
        name = f"_{'encode' if encoding else 'decode'}_{tp.__name__}"
        ns[name] = encoder(tp) if encoding else decoder(tp)
        return f"{name}({var})"
    return var
