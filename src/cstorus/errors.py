"""Exception taxonomy shared across the package, each class mapped to a
distinct CLI exit code (see cli.py), the checks whose failure is exit 1, and
the resource model whose refusal is exit 3.
"""


class CSTorusError(Exception):
    """Base class for all package errors."""


class SchemaError(CSTorusError):
    """Invalid configuration or input that violates a declared constraint."""


class DomainError(CSTorusError):
    """Mathematically invalid input (e.g. vector not in the required lattice)."""


class ResourceLimitError(CSTorusError):
    """A computation's predicted peak bytes or operations exceed their budget."""


class InconsistencyError(CSTorusError):
    """An internal cross-check of derived constants failed."""


def checks_below(bound: float, **values) -> list:
    """A check per value, named by the report key that holds it, with `bound`."""
    return [{"name": name, "value": value, "bound": bound} for name, value in values.items()]


def within_bounds(checks: list) -> bool:
    return all(check["value"] < check["bound"] for check in checks)


# Entry points charge `require`, before they allocate, the bytes they will hold
# beyond the interpreter and the steps of their interpreted loops.  The bytes admit
# `rep build` at dim 1295 (192 MiB predicted), `rep verify` at dim 1584 (192 MiB) and
# `wgz roundtrip` at N = 1500 (140 MiB); a step takes 40-250 ns, so 10^8 is under ~25 s.
BYTE_BUDGET = 192 * 2 ** 20
OPERATION_BUDGET = 10 ** 8


def require(label: str, **terms: int) -> None:
    """ResourceLimitError, naming the largest term, when the terms ending in
    `_ops` (operations) or the others (bytes held at once) sum over budget."""
    for unit, budget in (("bytes", BYTE_BUDGET), ("operations", OPERATION_BUDGET)):
        sizes = {key: size for key, size in terms.items()
                 if key.endswith("_ops") == (unit == "operations")}
        if sum(sizes.values()) > budget:
            name = max(sizes, key=sizes.get)
            spelt = [f"{x:.3g}" if x.bit_length() < 1000 else f"2^{x.bit_length() - 1}"
                     for x in (sizes[name], sum(sizes.values()), budget)]
            raise ResourceLimitError(f"{label}: {name} needs {spelt[0]} {unit} of a predicted "
                                     f"{spelt[1]}, over the budget {spelt[2]} {unit}")
