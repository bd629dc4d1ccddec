"""Exception types shared across the package, and the typed config parser and
checks that raise them."""

import dataclasses
import math
import operator
import types
import typing
from typing import Literal


class ConstraintError(RuntimeError):
    """A constructive constraint could not be satisfied (e.g. sensor placement)."""


class ProtocolError(ValueError):
    """Packet stream violates the framing protocol (duplicates, disallowed gaps)."""


class NumericalError(RuntimeError):
    """An iterative solver failed to converge; carries diagnostics in args."""


class ConfigError(ValueError):
    """A configuration file or flag violates the expected schema.

    `field` holds a dotted path to the offending entry so CLI error output can
    point at it.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def check_keys(entry, allowed, path: str = "") -> None:
    """Reject a config entry that is not an object or has a key outside `allowed`."""
    if not isinstance(entry, dict):
        raise ConfigError(path, f"expected an object, got {type(entry).__name__}")
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def parse(kind, value, path: str):
    """`value` from JSON as the annotated type `kind`, or ConfigError at `path`:
    unknown keys, missing required keys and wrong types are rejected. A
    dataclass field is read from the JSON key `metadata["key"]`, else its
    name; a dataclass's own checks name only its key ("spacing"), prefixed here.
    A key whose value is not null is rejected unless its field's rule
    `metadata["read_with"]` holds on the built dataclass: a field name, maybe
    dotted, that must be truthy, or a (name, value) pair that must be equal."""
    if dataclasses.is_dataclass(kind):
        fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(kind)}
        check_keys(value, fields, path)
        hints = typing.get_type_hints(kind)
        args = {}
        for key, f in fields.items():
            where = f"{path}.{key}" if path else key
            if key in value:
                args[f.name] = parse(hints[f.name], value[key], where)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(where, "missing required key")
        try:
            built = kind(**args)
            for key, f in fields.items():
                rule = f.metadata.get("read_with")
                if rule is not None and value.get(key) is not None:
                    name, *wanted = (rule,) if isinstance(rule, str) else rule
                    sibling = operator.attrgetter(name)(built)
                    if not (sibling == wanted[0] if wanted else sibling):
                        raise ConfigError(key, "read only with " + " ".join([name, *map(repr, wanted)]))
        except ConfigError as exc:
            raise ConfigError(".".join(p for p in (path, exc.field) if p), exc.message) from None
        return built
    origin, params = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        if type(None) in params:  # X | None
            return None if value is None else parse(params[0], value, path)
        if not dataclasses.is_dataclass(params[0]):  # e.g. float | tuple[float, ...]: the member of the JSON kind
            member = next(p for p in params if (typing.get_origin(p) is tuple) == isinstance(value, list))
            return parse(member, value, path)
        # dataclasses tagged by the one Literal field they share; the first member's default tag, if any, applies
        hints = [typing.get_type_hints(p) for p in params]
        name = next(n for n in hints[0] if all(typing.get_origin(hs.get(n)) is Literal for hs in hints))
        tags = {typing.get_args(hs[name])[0]: p for hs, p in zip(hints, params)}
        tag = value.get(name, getattr(params[0], name, None)) if isinstance(value, dict) else next(iter(tags))
        if not isinstance(tag, str) or tag not in tags:
            raise ConfigError(f"{path}.{name}", f"expected one of {', '.join(tags)}, got {tag!r}")
        return parse(tags[tag], value, path)
    if origin is Literal:
        if value not in params:
            raise ConfigError(path, f"expected one of {', '.join(params)}, got {value!r}")
        return value
    if origin is tuple:
        n = None if params[-1] is Ellipsis else len(params)
        if not isinstance(value, list) or n not in (None, len(value)):
            raise ConfigError(path, "expected a list" + (f" of {n} values" if n else ""))
        return tuple(parse(params[0] if n is None else params[i], v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


def _require(ok: bool, path: str, message: str) -> None:
    """ConfigError at `path` unless `ok`; config dataclasses check their values with it."""
    if not ok:
        raise ConfigError(path, message)


def _require_positive(value: float, path: str) -> None:
    _require(0 < value < math.inf, path, f"expected a finite number > 0, got {value!r}")


def _require_non_negative(value: float, path: str) -> None:
    _require(0 <= value < math.inf, path, f"expected a finite number >= 0, got {value!r}")


def _require_finite(value: float, path: str) -> None:
    _require(math.isfinite(value), path, f"expected a finite number, got {value!r}")


def _require_finite_each(values, path: str) -> None:
    """ConfigError at `path[i]` for the first non-finite `values[i]`."""
    for i, v in enumerate(values):
        _require_finite(v, f"{path}[{i}]")


def _require_range(bounds: tuple[float, float], path: str, strict: bool = False) -> None:
    lo, hi = bounds
    ok = math.isfinite(lo) and math.isfinite(hi) and (lo < hi if strict else lo <= hi)
    _require(ok, path, f"expected finite [low, high] with low {'<' if strict else '<='} high, got {list(bounds)!r}")
