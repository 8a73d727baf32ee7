"""Exception taxonomy shared across the package, each class mapped to a
distinct CLI exit code (see cli.py), and the checks whose failure is exit 1.
"""


class CSTorusError(Exception):
    """Base class for all package errors."""


class SchemaError(CSTorusError):
    """Invalid configuration or input that violates a declared constraint."""


class DomainError(CSTorusError):
    """Mathematically invalid input (e.g. vector not in the required lattice)."""


class ResourceLimitError(CSTorusError):
    """A configurable enumeration ceiling was exceeded."""


class InconsistencyError(CSTorusError):
    """An internal cross-check of derived constants failed."""


def checks_below(bound: float, **values) -> list:
    """A check per value, named by the report key that holds it, with `bound`."""
    return [{"name": name, "value": value, "bound": bound} for name, value in values.items()]


def within_bounds(checks: list) -> bool:
    return all(check["value"] < check["bound"] for check in checks)
