"""Per-layer spans for one symbreak process, recorded from outside the package.

`install()` replaces the functions named in SPANS with timing wrappers, in
every symbreak module that holds a reference to them (the package imports
functions by name across modules, so patching only the defining module
would miss most calls).  Nothing under src/ is edited.

A span's busy time is inclusive of the calls it makes and counts only the
outermost call of a recursion.  `Recorder.dump` writes one JSON object per
process; perfbench/run.py sums them over a workload pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

import symbreak
from symbreak import symrep

# span name -> (module, attribute path); the module is a symbreak submodule,
# except "numpy.linalg" for the dense eigensolve that spectrum calls
SPANS = {
    "burnside.tables": ("burnside", "_GroupTables.__init__"),
    "burnside.build_lattice": ("burnside", "build_lattice"),
    "burnside.close_indices": ("burnside", "_GroupTables.close_indices"),
    "burnside.conjugate_set": ("burnside", "_GroupTables.conjugate_set"),
    "burnside.load_lattice": ("burnside", "load_lattice"),
    "burnside.product": ("burnside", "multiply"),
    "report.emit": ("cli", "emit"),
    "degrees.all_invariants": ("degrees", "all_invariants"),
    "degrees.basic_degree": ("degrees", "basic_degree"),
    "degrees.leading_coefficient_check": ("degrees", "leading_coefficient_check"),
    "golden.compare_k5": ("golden", "compare_k5"),
    "symrep.fixed_space_dim": ("symrep", "fixed_space_dim"),
    "symrep.character_table": ("symrep", "character_table"),
    "symrep.decompose_diag_square": ("symrep", "decompose_diag_square"),
    "hessian.hessian_at_minimum": ("hessian", "hessian_at_minimum"),
    "hessian.assemble_dense": ("hessian", "assemble_dense"),
    "hessian.finite_diff_hessian": ("hessian", "finite_diff_hessian"),
    "hessian.block_operator_apply": ("hessian", "block_operator_apply"),
    "spectrum.eigh": ("numpy.linalg", "eigh"),
    "spectrum.isotypic_basis": ("spectrum", "isotypic_basis"),
    "spectrum.numerical_spectrum_match": ("spectrum", "numerical_spectrum_match"),
    "spectrum.root_scan": ("spectrum", "root_scan"),
    "spectrum.analytic_spectrum": ("spectrum", "analytic_spectrum"),
    "landscape.kernel_mc": ("landscape", "kernel_mc"),
    "landscape.loss_mc": ("landscape", "loss_mc"),
    "landscape.finite_diff_gradient": ("landscape", "finite_diff_gradient"),
    "verify.run_verify": ("verify", "run_verify"),
}


class Recorder:
    """Call counts, busy seconds and the few counters that need arguments."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in SPANS}
        self.busy_s = {name: 0.0 for name in SPANS}
        self._depth = {name: 0 for name in SPANS}
        self.closures: set[frozenset[int]] = set()
        self.dense_bytes = 0
        self.kernel_mc_draws = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth[name] -= 1
                if self._depth[name] == 0:
                    self.busy_s[name] += time.perf_counter() - start
            self._observe(name, args, kwargs, result)
            return result
        return traced

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "burnside.close_indices":
            self.closures.add(result)
        elif name == "hessian.assemble_dense":
            # computed from the array shape, not measured: 8 bytes per
            # float64 entry of the k^2 x k^2 matrix
            self.dense_bytes += 8 * args[0].k ** 4
        elif name == "landscape.kernel_mc":
            self.kernel_mc_draws += kwargs["n_samples"] if "n_samples" in kwargs else args[3]

    def dump(self, path: str, import_s: float) -> None:
        info = symrep._frobenius_cached.cache_info()
        record = {
            "import_s": import_s,
            "calls": self.calls,
            "busy_s": self.busy_s,
            "distinct_closures": len(self.closures),
            "dense_bytes": self.dense_bytes,
            "kernel_mc_draws": self.kernel_mc_draws,
            "frobenius_hits": info.hits,
            "frobenius_misses": info.misses,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def _resolve(module: str, attr: str):
    owner = np.linalg if module == "numpy.linalg" else getattr(symbreak, module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install() -> Recorder:
    """Wrap every span target; call after `import symbreak.cli`."""
    rec = Recorder()
    replaced = {}
    for span, (module, attr) in SPANS.items():
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = rec.wrap(span, original)
        setattr(owner, name, wrapper)
        replaced[id(original)] = wrapper
    # rebind names imported with `from .x import f` in other modules
    for modname, mod in list(sys.modules.items()):
        if modname == "symbreak" or modname.startswith("symbreak."):
            for key, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, key, replaced[id(value)])
    return rec
