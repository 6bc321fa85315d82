"""Exception types shared across the package, the formatter that their
messages use for a rejected value, and the checks of an integer, a real
and an array argument."""

import math
from numbers import Integral, Real

import numpy as np


class MalformedGateError(ValueError):
    """A gate was constructed with an inconsistent kind/qubits/angle combination."""


class CapacityError(ValueError):
    """A dense operation was requested beyond the supported qubit count."""


class ConfigError(ValueError):
    """An experiment configuration violates one or more invariants."""


def show_value(value, text=str) -> str:
    """``text(value)``, except that an int past Python's int-to-str digit
    limit, alone or in a tuple, shows as its sign and bit length, and any
    other value that holds one as its type name."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, tuple):
            items = [show_value(v, repr) for v in value]
            return f"({', '.join(items)}{',' * (len(items) == 1)})"
        if not isinstance(value, int):
            return f"<{type(value).__name__}>"
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


def check_real(value, name: str, error: type[ValueError] = ValueError):
    """Raise ``error`` naming ``name`` unless ``value`` is a finite float,
    int or other ``numbers.Real``, never a bool: checked, not converted,
    with the built-in types tested first, as in :func:`check_integer`."""
    if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
        raise error(f"{name} must be a real number, got {show_value(value, repr)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise error(f"{name} must be finite, got {show_value(value)}")


# what each dtype-kind rule admits, as the rejection states it
_KINDS = {"iu": "integers", "iuf": "real numbers", "iufc": "real or complex numbers"}


def check_kind(a: np.ndarray, name: str, kinds: str = "iuf"):
    """Raise ``ValueError`` naming ``name`` unless the entries of the array
    ``a`` are of the numpy dtype ``kinds``: integers ("iu"), real numbers
    ("iuf") or real or complex numbers ("iufc"), never bools, strings or
    objects.  Only the dtype is read, so this is O(1)."""
    if a.dtype.kind not in kinds:
        raise ValueError(f"{name} must hold {_KINDS[kinds]}, got dtype {a.dtype}")


def check_array(value, name: str, ndim: int, kinds: str = "iuf") -> np.ndarray:
    """``value`` as an array; raise ``ValueError`` naming ``name`` unless it
    is a vector (``ndim`` 1) or a square matrix (``ndim`` 2) with at least
    one entry, and :func:`check_kind` admits its entries (ints or floats by
    default, never complex numbers): checked, not converted.  Only the shape
    and the dtype are read, so this is O(1)."""
    a = np.asarray(value)
    if a.ndim != ndim or a.shape[0] != a.shape[-1]:
        raise ValueError(
            f"{name} must be a {('vector', 'square matrix')[ndim - 1]}, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"{name} must hold at least one entry, got shape {a.shape}")
    check_kind(a, name, kinds)
    return a
