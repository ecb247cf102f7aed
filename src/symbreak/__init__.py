"""symbreak: symmetry-breaking analysis of the shallow leaky-ReLU landscape.

Subpackages cover the closed-form loss/gradient layer, the Hessian and its
analytic spectrum at the global minimum, S_k character machinery, the
Burnside ring of subgroup classes, equivariant basic degrees and bifurcation
invariants, and a CLI that cross-checks each analytic object against an
independent numerical or combinatorial oracle.
"""

import importlib

# public name -> defining submodule; each loads on first access (PEP 562), so
# `import symbreak` and the exact commands never import numpy
_EXPORTS = {
    "BurnsideElement": "burnside",
    "SubgroupLattice": "burnside",
    "build_lattice": "burnside",
    "critical_set": "closed_forms",
    "all_invariants": "degrees",
    "basic_degree": "degrees",
    "linear_map_degree": "degrees",
    "maximal_orbit_types": "degrees",
    "CapacityError": "errors",
    "ConsistencyError": "errors",
    "DomainError": "errors",
    "assemble_dense": "hessian",
    "block_operator_apply": "hessian",
    "hessian_at_minimum": "hessian",
    "hessian_published": "hessian",
    "gradient_exact": "landscape",
    "gradient_published": "landscape",
    "identity_teacher": "landscape",
    "kernel_f": "landscape",
    "kernel_mc": "landscape",
    "loss": "landscape",
    "analytic_spectrum": "spectrum",
    "isotypic_basis": "spectrum",
    "numerical_spectrum_match": "spectrum",
    "character_table": "symrep",
    "decompose_diag_square": "symrep",
    "fixed_space_dim": "symrep",
    "frobenius_character": "symrep",
    "hook_dimension": "symrep",
}
_SUBMODULES = {"burnside", "cli", "closed_forms", "degrees", "errors", "golden",
               "hessian", "landscape", "report", "spectrum", "symrep", "verify"}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
