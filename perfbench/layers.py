"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each listed hopfcyc callable, by identity, with
a wrapper that records a span (layer, start, end, parent span) and counts.
A module-level function is rebound in every ``hopfcyc.*`` namespace that
holds it, so ``from .linalg import rank`` is caught too; a method is
replaced on its class.  A layer's self time is the time of its spans minus
the part covered by nested wrapped spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict, namedtuple

# layer: metric prefix; calls: name of the call counter; measure: extra
# counts read from (args, result); workloads: where the layer must be called
Target = namedtuple("Target", "layer module attr calls measure workloads")


def _map_size(args, result):
    return {"columns": result.domain.dim, "nonzeros": len(result.entries)}


def _coords_miss(args, result):
    return {"coords_misses": int(result is None)}


def _subspace_size(args, result):
    return {"unknowns": result.ambient.dim, "dim": result.dim}


class _FirstPsiMatrix:
    """Counts the (φ, ψ) pairs of each Ψ_n once per pairing; later calls
    for the same degree are the pairing's own cache."""

    def __init__(self):
        self.seen = set()

    def __call__(self, args, result):
        key = (args[0], args[1])
        if key in self.seen:
            return {"pairs": 0}
        self.seen.add(key)
        return {"pairs": result.domain.dim}


AS, CL, CP, GF = "algebra-sayd", "coalgebra-ladder", "crossed-pairing", "gfp-ladder"


def targets():
    """The traced callables, with the workloads that must exercise each."""
    return [
        Target("linalg.chain_to_map", "hopfcyc.linalg", "Chain.to_map", "calls",
               _map_size, (AS, CL, CP, GF)),
        Target("linalg.matmul", "hopfcyc.linalg", "LinMap.__matmul__", "calls",
               None, (CL, CP)),
        Target("linalg.solver", "hopfcyc.linalg", "SubspaceSolver.__init__", "builds",
               None, (CL,)),
        Target("linalg.solver", "hopfcyc.linalg", "SubspaceSolver.coords", "coords_calls",
               _coords_miss, (CL,)),
        Target("linalg.rank", "hopfcyc.linalg", "rank", "calls", None, (CL,)),
        Target("linalg.kernel_basis", "hopfcyc.linalg", "kernel_basis", "calls",
               None, (CL,)),
        Target("symmetries.colinear_hom_space", "hopfcyc.symmetries", "colinear_hom_space",
               "calls", _subspace_size, (AS, CP, GF)),
        Target("symmetries.cotensor_space", "hopfcyc.symmetries", "cotensor_space",
               "calls", _subspace_size, (CL, GF)),
        Target("symmetries.check_sayd", "hopfcyc.symmetries", "check_sayd", "calls",
               None, (AS,)),
        Target("symmetries.check_sayd_over_algebra", "hopfcyc.symmetries",
               "check_sayd_over_algebra", "calls", None, (AS, CP, GF)),
        Target("symmetries.check_sayd_over_coalgebra", "hopfcyc.symmetries",
               "check_sayd_over_coalgebra", "calls", None, (CL,)),
        Target("hopf.iterated_comult", "hopfcyc.hopf", "HopfAlgebra.iterated_comult",
               "calls", None, (AS, CP)),
        Target("hopf.antipode_inverse", "hopfcyc.hopf", "HopfAlgebra.antipode_inverse",
               "calls", None, (CP,)),
        Target("cocyclic.build_comodule_algebra_complex", "hopfcyc.cocyclic",
               "build_comodule_algebra_complex", "calls", None, (AS, CP, GF)),
        Target("cocyclic.build_comodule_coalgebra_complex", "hopfcyc.cocyclic",
               "build_comodule_coalgebra_complex", "calls", None, (CL, GF)),
        Target("cocyclic.build_module_algebra_complex", "hopfcyc.cocyclic",
               "build_module_algebra_complex", "calls", None, (CL, CP)),
        Target("cocyclic.invariant_functionals", "hopfcyc.cocyclic",
               "invariant_functionals", "calls", None, (CL, CP)),
        Target("cocyclic.verify_cocyclic_identities", "hopfcyc.cocyclic",
               "verify_cocyclic_identities", "calls", None, (AS, CL, CP, GF)),
        Target("cocyclic.check_hcc", "hopfcyc.cocyclic", "check_hcc", "calls",
               None, (AS,)),
        Target("cohomology.hochschild_dims", "hopfcyc.cohomology", "hochschild_dims",
               "calls", None, (CL, GF)),
        Target("cohomology.cyclic_dims", "hopfcyc.cohomology", "cyclic_dims", "calls",
               None, (CL,)),
        Target("cohomology.differential_identities", "hopfcyc.cohomology",
               "differential_identities", "calls", None, (CL,)),
        Target("cup.pairing_init", "hopfcyc.cup", "CrossedPairing.__init__", "calls",
               None, (CP,)),
        Target("cup.psi_matrix", "hopfcyc.cup", "CrossedPairing.psi_matrix", "calls",
               _FirstPsiMatrix(), (CP,)),
        Target("cup.check_cocyclic_map", "hopfcyc.cup", "CrossedPairing.check_cocyclic_map",
               "calls", None, (CP,)),
        Target("cup.cup", "hopfcyc.cup", "CrossedPairing.cup", "calls", None, (CP,)),
    ]


MEASURED_KEYS = {
    "linalg.chain_to_map": ("columns", "nonzeros"),
    "linalg.solver": ("coords_misses",),
    "symmetries.colinear_hom_space": ("unknowns", "dim"),
    "symmetries.cotensor_space": ("unknowns", "dim"),
    "cup.psi_matrix": ("pairs",),
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for t in targets():
        names["%s.%s" % (t.layer, t.calls)] = "count"
        names["%s.self_s" % t.layer] = "s"
    for layer, keys in MEASURED_KEYS.items():
        for key in keys:
            names["%s.%s" % (layer, key)] = "count"
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, start, end, parent index or -1)
        self.stack = []
        self.counts = defaultdict(int)
        self.missing = []
        self.targets = targets()

    def span(self, layer, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; returns its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (layer, start, end, parent)

    def _wrapper(self, target, original):
        calls_key = "%s.%s" % (target.layer, target.calls)
        measure = target.measure

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.span(target.layer, original, *args, **kwargs)
            self.counts[calls_key] += 1
            if measure is not None:
                for key, value in measure(args, result).items():
                    self.counts["%s.%s" % (target.layer, key)] += value
            return result

        return traced

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, name = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                self.missing.append(target.attr)
                continue
            wrapper = self._wrapper(target, original)
            if owner_name:
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hopfcyc" or mod_name.startswith("hopfcyc.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def metrics(self):
        """Counts and self times by metric name (zero for layers not called)."""
        out = {name: 0 for name in metric_names()}
        out.update(self.counts)
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        for idx, (layer, start, end, _) in enumerate(self.spans):
            self_s[layer] += end - start - covered[idx]
        for t in self.targets:
            out["%s.self_s" % t.layer] = self_s.get(t.layer, 0.0)
        return out

    def unexercised(self, workload):
        """Wrapped layers this workload must call but did not."""
        return sorted({
            "%s.%s" % (t.layer, t.calls) for t in self.targets
            if workload in t.workloads and t.attr not in self.missing
            and not self.counts.get("%s.%s" % (t.layer, t.calls))
        })
