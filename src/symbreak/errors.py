"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: DomainError and ConsistencyError -> 2,
CapacityError -> 3, check failures (no exception) -> 1, any other exception
-> 4.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (zero row,
    dimension mismatch, step too large, k out of range, ...)."""


class CapacityError(RuntimeError):
    """Request exceeds a declared capacity: exact ring arithmetic on
    subgroup lattices above k=6, exact characters and the character
    table above n=12, int16 group tables above k=7, the dense
    eigenanalysis above k=64, or an --alpha-grid of more than 10,000
    points."""


class ConsistencyError(RuntimeError):
    """Internal cross-check failed: non-integer division in an exact
    recursion, asymmetric Hessian assembly, corrupted cache, wrong group
    data fed to a character average."""
