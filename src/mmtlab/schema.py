"""Typed reading of JSON-shaped data into frozen config dataclasses.

A config dataclass is its own schema: :func:`decode` walks its fields and
their annotations, so config files, presets, sweep cells and checkpoint
headers are all read by the same rules, and ``dataclasses.asdict`` writes
them back.
"""

from __future__ import annotations

import dataclasses
import typing

from .errors import SchemaError

_MISSING = dataclasses.MISSING


def decode(cls, raw):
    """Build dataclass ``cls`` from ``raw``, nested dicts and lists.

    A key left out keeps its default at every depth: a partial nested
    section fills in from the field's default instance. A ``dict`` field
    is data, not a section, so a given dict replaces its default whole.
    Unknown keys, values of the wrong JSON type (``bool`` is not ``int``;
    an ``int`` is accepted for a ``float``) and non-objects where a
    section belongs are all collected into one :class:`SchemaError` naming
    their dotted paths, raised before any ``__post_init__`` runs.
    """
    problems: dict[str, str] = {}
    build = _read(cls, raw, "", _MISSING, problems)
    if problems:
        paths = sorted(problems)
        detail = "; ".join(f"{p}: {problems[p]}" for p in paths)
        raise SchemaError(f"config does not match the schema ({detail})", paths)
    return build()


def _read(tp, value, path: str, default, problems: dict):
    """A thunk building ``value`` as ``tp``; what does not fit goes to ``problems``."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            problems[path or "<root>"] = f"expected an object, got {type(value).__name__}"
            return None
        fields = dataclasses.fields(tp)
        for key in value.keys() - {f.name for f in fields}:
            problems[_join(path, key)] = "unknown key"
        hints = typing.get_type_hints(tp)
        parts = {}
        for f in fields:
            fallback = _field_default(f) if default is _MISSING else getattr(default, f.name)
            if f.name in value:
                parts[f.name] = _read(hints[f.name], value[f.name], _join(path, f.name), fallback, problems)
            elif fallback is _MISSING:
                problems[_join(path, f.name)] = "missing"
            else:
                parts[f.name] = lambda kept=fallback: kept
        return lambda: tp(**{name: part() for name, part in parts.items()})

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            problems[path] = f"expected a list, got {type(value).__name__}"
            return None
        items = [_read(args[0], v, f"{path}[{i}]", _MISSING, problems) for i, v in enumerate(value)]
        return lambda: tuple(item() for item in items)
    if origin is dict:  # dict[str, X]
        if not isinstance(value, dict):
            problems[path] = f"expected an object, got {type(value).__name__}"
            return None
        items = {k: _read(args[1], v, _join(path, k), _MISSING, problems) for k, v in value.items()}
        return lambda: {k: item() for k, item in items.items()}
    if type(value) is tp or (tp is float and type(value) is int):
        return lambda: tp(value)
    problems[path] = f"expected {tp.__name__}, got {type(value).__name__}"
    return None


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _field_default(f: dataclasses.Field):
    if f.default is not _MISSING:
        return f.default
    if f.default_factory is not _MISSING:
        return f.default_factory()
    return _MISSING
