"""Genus-one mapping class group representations of complex quantum
Chern-Simons theory: exact modular data on lattice quotients, the
Weil-Gel'fand-Zak transform, heat-kernel conjugation, and compact-theory
cross-checks."""

__version__ = "0.1.0"

from .errors import (CSTorusError, DomainError, InconsistencyError,
                     ResourceLimitError, SchemaError)
from .roots import LieType, RootSystem, build_root_system, generate_weyl_group

__all__ = [
    "__version__",
    "CSTorusError", "DomainError", "InconsistencyError",
    "ResourceLimitError", "SchemaError",
    "LieType", "RootSystem", "build_root_system", "generate_weyl_group",
]
