"""Exception types shared across the package, and the formatter that their
messages use for a rejected value."""


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
