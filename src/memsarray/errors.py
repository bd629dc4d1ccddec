"""Exception types shared across the package, and the config checks that raise them."""

import math


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


def _require(ok: bool, path: str, message: str) -> None:
    """ConfigError at `path` unless `ok`; config dataclasses check their values with it."""
    if not ok:
        raise ConfigError(path, message)


def _require_positive(value: float, path: str) -> None:
    _require(0 < value < math.inf, path, f"expected a finite number > 0, got {value!r}")


def _require_range(bounds: tuple[float, float], path: str, strict: bool = False) -> None:
    lo, hi = bounds
    ok = math.isfinite(lo) and math.isfinite(hi) and (lo < hi if strict else lo <= hi)
    _require(ok, path, f"expected finite [low, high] with low {'<' if strict else '<='} high, got {list(bounds)!r}")
