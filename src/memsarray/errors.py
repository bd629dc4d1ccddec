"""Exception types shared across the package."""


class ConstraintError(RuntimeError):
    """A constructive constraint could not be satisfied (e.g. sensor placement)."""


class ProtocolError(ValueError):
    """Packet stream violates the framing protocol (duplicates, disallowed gaps)."""


class NumericalError(RuntimeError):
    """An iterative solver failed to converge; carries diagnostics in args."""


class ConfigError(ValueError):
    """Configuration file violates the expected schema.

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
