"""symbreak: symmetry-breaking analysis of the shallow leaky-ReLU landscape.

Subpackages cover the closed-form loss/gradient layer, the Hessian and its
analytic spectrum at the global minimum, S_k character machinery, the
Burnside ring of subgroup classes, equivariant basic degrees and bifurcation
invariants, and a CLI that cross-checks each analytic object against an
independent numerical or combinatorial oracle.
"""

from .burnside import BurnsideElement, SubgroupLattice, build_lattice
from .degrees import (
    all_invariants,
    basic_degree,
    bifurcation_invariant,
    linear_map_degree,
    maximal_orbit_types,
    bifurcation_report,
)
from .errors import CapacityError, ConsistencyError, DomainError
from .hessian import (
    assemble_dense,
    block_operator_apply,
    hessian_at_minimum,
    hessian_published,
)
from .landscape import (
    gradient_exact,
    gradient_published,
    identity_teacher,
    kernel_f,
    kernel_mc,
    loss,
)
from .spectrum import (
    analytic_spectrum,
    critical_set,
    isotypic_basis,
    numerical_spectrum_match,
)
from .symrep import (
    character_table,
    decompose_diag_square,
    fixed_space_dim,
    frobenius_character,
    hook_dimension,
)

__all__ = [
    "BurnsideElement",
    "CapacityError",
    "ConsistencyError",
    "DomainError",
    "SubgroupLattice",
    "all_invariants",
    "analytic_spectrum",
    "assemble_dense",
    "basic_degree",
    "bifurcation_invariant",
    "block_operator_apply",
    "build_lattice",
    "character_table",
    "critical_set",
    "decompose_diag_square",
    "fixed_space_dim",
    "frobenius_character",
    "gradient_exact",
    "gradient_published",
    "hessian_at_minimum",
    "hessian_published",
    "hook_dimension",
    "identity_teacher",
    "isotypic_basis",
    "kernel_f",
    "kernel_mc",
    "linear_map_degree",
    "loss",
    "maximal_orbit_types",
    "numerical_spectrum_match",
    "bifurcation_report",
]
__version__ = "0.1.0"
