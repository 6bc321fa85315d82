"""Exception types shared across the package, the formatter that their
messages use for a rejected value, and the check of an integer argument."""

from numbers import Integral


class MalformedGateError(ValueError):
    """A gate was constructed with an inconsistent kind/qubits/angle combination."""


class CapacityError(ValueError):
    """A dense operation was requested beyond the supported qubit count."""


class ConfigError(ValueError):
    """An experiment configuration violates one or more invariants."""


def show_value(value, text=str) -> str:
    """``text(value)``, except that an int past Python's int-to-str digit
    limit, alone or in a tuple, shows as its sign and bit length."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, tuple):
            items = [show_value(v, repr) for v in value]
            return f"({', '.join(items)}{',' * (len(items) == 1)})"
        return f"{'-' * (value < 0)}<{abs(value).bit_length()}-bit int>"


def check_integer(value, name: str, lowest: int | None = None,
                  error: type[ValueError] = ValueError):
    """Raise ``error`` naming ``name`` unless ``value`` is an int or another
    ``numbers.Integral``, never a bool, and at least ``lowest`` when that is
    given: an argument is checked, not converted.  The built-in types are
    tested first, as isinstance against a numbers ABC is slow."""
    if isinstance(value, bool) or not isinstance(value, (int, Integral)):
        raise error(f"{name} must be an integer, got {show_value(value, repr)}")
    if lowest is not None and value < lowest:
        raise error(f"{name} must be >= {lowest}, got {show_value(value)}")
