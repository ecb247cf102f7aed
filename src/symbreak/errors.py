"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: DomainError and ConsistencyError -> 2,
CapacityError -> 3, check failures (no exception) -> 1, any other exception
-> 4.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (zero row,
    dimension mismatch, step too large, k out of range, ...)."""


class CapacityError(RuntimeError):
    """Request exceeds the declared exact-computation capacity
    (subgroup lattices above k=6, character extraction above n=12)."""


class ConsistencyError(RuntimeError):
    """Internal cross-check failed: non-integer division in an exact
    recursion, asymmetric Hessian assembly, corrupted cache, wrong group
    data fed to a character average."""
