"""One JSON codec for every config object: the parameter families (mixing
laws, seeds, row rules), the ensemble and the CLI's task blocks.

A root class names its error class, its name in messages and, for a family,
its discriminator key, under whose value each concrete class registers.  The
wire form is the discriminator, if any, plus one key per dataclass field,
named as the field unless ``_json_keys`` renames it.  Reading rejects an
unknown key, a missing key that has no default, and a value its field's type
cannot take: ``"alpha": 1`` reads as ``1.0``, an ``int`` field rejects
``true`` and ``2.5``, and an ``X | None`` field reads a present value as X.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from numbers import Real
from pathlib import Path

from .errors import ExchGraphError

_ROOTS: dict = {}


def _checked(value, kind):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(value)
    return value


def _int(value) -> int:
    if isinstance(_checked(value, Real), float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _float(value) -> float:
    return float(_checked(value, Real))


# field annotation -> coercion of its JSON value; roots go by name
_COERCE = {"float": _float, "int": _int, "str": lambda v: _checked(v, str),
           "Path": lambda v: Path(_checked(v, str)),
           "tuple": lambda pairs: tuple((_float(t), _float(v))
                                        for t, v in _checked(pairs, list))}


def _reader(annotation: str):
    annotation = annotation.removesuffix(" | None")
    if annotation in _ROOTS:
        return _ROOTS[annotation].from_json
    if annotation.startswith("tuple[") and annotation.endswith(", ...]"):
        item = _reader(annotation[len("tuple["):-len(", ...]")])
        return lambda value: tuple(item(v) for v in _checked(value, list))
    return _COERCE[annotation]


def _encode(value):
    if isinstance(value, JsonCodec):
        return value.to_json()
    return [_encode(v) for v in value] if isinstance(value, tuple) else value


class JsonCodec:
    _tag = None             # a family root's discriminator key
    _json_keys: dict = {}   # field name -> wire key, where the two differ

    def __init_subclass__(cls, tag: str | None = None, error=None,
                          family: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if error is not None:
            cls._tag, cls._error, cls._family, cls._kinds = tag, error, family, {}
            _ROOTS[cls.__name__] = cls
        elif cls._tag and (kind := vars(cls).get(cls._tag)):
            cls._kinds[kind] = cls

    def to_json(self) -> dict:
        out = {self._tag: getattr(self, self._tag)} if self._tag else {}
        for f in fields(self):
            out[self._json_keys.get(f.name, f.name)] = _encode(getattr(self, f.name))
        return out

    @classmethod
    def from_json(cls, data):
        """Build an instance from its ``to_json`` dict."""
        family, tag, error = cls._family, cls._tag, cls._error
        sub, name = cls, family
        if not isinstance(data, dict):
            raise error(f"{family} must be a JSON object, got {data!r}")
        if tag is not None:
            if tag not in data:
                raise error(f"{family} JSON needs a {tag!r} discriminator")
            kind = data[tag]
            if not isinstance(kind, str) or kind not in cls._kinds:
                raise error(f"unknown {family} {tag} {kind!r}")
            sub, name = cls._kinds[kind], f"{kind} {family}"
        wire = {sub._json_keys.get(f.name, f.name): f for f in fields(sub)}
        for key in data:
            if key != tag and key not in wire:
                raise error(f"{name} has unknown key {key!r}")
        values = {}
        for key, f in wire.items():
            if key not in data:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise error(f"{name} is missing key {key!r}")
                continue
            try:
                values[f.name] = _reader(f.type)(data[key])
            except ExchGraphError:
                raise
            except (TypeError, ValueError) as exc:
                raise error(f"{name} key {key!r} has a bad value "
                            f"{data[key]!r}") from exc
        return sub(**values)
