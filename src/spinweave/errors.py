"""Exception types shared across the package."""


class MalformedGateError(ValueError):
    """A gate was constructed with an inconsistent kind/qubits/angle combination."""


class CapacityError(ValueError):
    """A dense operation was requested beyond the supported qubit count."""


class ConfigError(ValueError):
    """An experiment configuration violates one or more invariants."""
