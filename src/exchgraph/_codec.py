"""One JSON codec for the parameter families (mixing laws, seeds, limit laws
and row rules).

A family root names its discriminator key, its error class and its name in
messages; each concrete class registers under its discriminator value.  The
wire form is the discriminator plus one key per dataclass field, named as
the field unless ``_json_keys`` renames it.  Reading rejects a missing or
unknown key and coerces each value to its field's type, so ``"alpha": 1``
reads back as ``1.0``.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ExchGraphError

_ROOTS: dict = {}
# field annotation -> coercion of its JSON value; family roots go by name
_COERCE = {"float": float, "int": int,
           "tuple": lambda pairs: tuple((float(t), float(v)) for t, v in pairs)}


def _encode(value):
    if isinstance(value, JsonCodec):
        return value.to_json()
    return [_encode(v) for v in value] if isinstance(value, tuple) else value


class JsonCodec:
    _json_keys: dict = {}   # field name -> wire key, where the two differ

    def __init_subclass__(cls, tag: str | None = None, error=None,
                          family: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if tag is not None:
            cls._tag, cls._error, cls._family, cls._kinds = tag, error, family, {}
            _ROOTS[cls.__name__] = cls
        elif kind := vars(cls).get(cls._tag):
            cls._kinds[kind] = cls

    def to_json(self) -> dict:
        out = {self._tag: getattr(self, self._tag)}
        for f in fields(self):
            out[self._json_keys.get(f.name, f.name)] = _encode(getattr(self, f.name))
        return out

    @classmethod
    def from_json(cls, data):
        """Rebuild a member of the family from its ``to_json`` dict."""
        family, tag, error = cls._family, cls._tag, cls._error
        if not isinstance(data, dict) or tag not in data:
            raise error(f"{family} JSON needs a {tag!r} discriminator")
        kind = data[tag]
        if not isinstance(kind, str) or kind not in cls._kinds:
            raise error(f"unknown {family} {tag} {kind!r}")
        sub = cls._kinds[kind]
        wire = {sub._json_keys.get(f.name, f.name): f for f in fields(sub)}
        for key in data:
            if key != tag and key not in wire:
                raise error(f"{kind} {family} has unknown key {key!r}")
        values = {}
        for key, f in wire.items():
            if key not in data:
                raise error(f"{kind} {family} is missing key {key!r}")
            coerce = _ROOTS[f.type].from_json if f.type in _ROOTS else _COERCE[f.type]
            try:
                values[f.name] = coerce(data[key])
            except ExchGraphError:
                raise
            except (TypeError, ValueError) as exc:
                raise error(f"{kind} {family} key {key!r} has a bad value "
                            f"{data[key]!r}") from exc
        return sub(**values)
