"""Hochschild and cyclic cohomology of a cocyclic module at desk scale.

Cyclic cohomology is computed on the cyclic-eigenvector subcomplex
(characteristic zero only); the Hochschild theory uses the full cochain
spaces.  Both differentials come with their defining identities b² = 0,
B² = 0, bB + Bb = 0, checkable exactly on any verified complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import FieldError
from .linalg import LinMap, SubspaceSolver, identity, kernel_basis, rank, span_dim
from .cocyclic import CocyclicConstructionError, CocyclicModule
from . import results


def hochschild_coboundary(X: CocyclicModule, n) -> LinMap:
    """b = Σ_{i=0}^{n+1} (−1)^i δ_i : C^n → C^{n+1}."""
    if n + 1 > X.max_degree:
        raise ValueError("degree %d out of range (max %d)" % (n, X.max_degree - 1))
    fld = X.field
    out = None
    for i in range(n + 2):
        term = X.coface(n + 1, i).scaled(fld.sign(i))
        out = term if out is None else out + term
    return out


def cyclic_eigenvalue_operator(X: CocyclicModule, n) -> LinMap:
    """λ = (−1)^n τ_n on degree n."""
    return X.tau(n).scaled(X.field.sign(n))


def connes_boundary(X: CocyclicModule, n) -> LinMap:
    """B = N ∘ σ_extra ∘ (1 − λ) : C^n → C^{n−1}, with the extra degeneracy
    σ_extra = σ_{n−1} ∘ τ_n and the norm N = Σ_{j<n} λ^j on degree n−1."""
    if n < 1 or n > X.max_degree:
        raise ValueError("connes boundary needs 1 ≤ n ≤ max degree")
    fld = X.field
    lam_n = cyclic_eigenvalue_operator(X, n)
    one_minus = identity(X.spaces[n]) - lam_n
    extra = X.codegeneracy(n - 1, n - 1) @ X.tau(n)
    lam_prev = cyclic_eigenvalue_operator(X, n - 1)
    norm = identity(X.spaces[n - 1])
    power = identity(X.spaces[n - 1])
    for _ in range(1, n):
        power = lam_prev @ power
        norm = norm + power
    return norm @ extra @ one_minus


@dataclass
class CohomologyTable:
    theory: str
    dims: list
    max_degree: int
    rank_data: list = field(default_factory=list)

    def to_dict(self):
        return {
            "theory": self.theory,
            "dims": list(self.dims),
            "computed_up_to": self.max_degree,
            "rank_data": list(self.rank_data),
        }

    def render(self):
        header = "degree   " + "  ".join("%6d" % n for n in range(len(self.dims)))
        row = "dim H^n  " + "  ".join("%6d" % d for d in self.dims)
        return "%s cohomology (computed up to degree %d)\n%s\n%s" % (
            self.theory, self.max_degree, header, row)


def hochschild_dims(X: CocyclicModule, top=None) -> CohomologyTable:
    """dim H^n = dim ker(b: n→n+1) − rank(b: n−1→n) for 0 ≤ n ≤ top."""
    top = X.max_degree - 1 if top is None else top
    if top > X.max_degree - 1:
        raise ValueError("need the ladder one degree above the reported top")
    ranks = [rank(hochschild_coboundary(X, n)) for n in range(top + 1)]
    dims, data = [], []
    for n in range(top + 1):
        kdim = X.spaces[n].dim - ranks[n]
        prev_rank = ranks[n - 1] if n >= 1 else 0
        dims.append(kdim - prev_rank)
        data.append({"degree": n, "kernel": kdim, "image_below": prev_rank})
    return CohomologyTable("hochschild", dims, top, data)


def cyclic_subcomplex_basis(X: CocyclicModule, n):
    """Basis of {x : τ_n x = (−1)^n x} at degree n."""
    lam = cyclic_eigenvalue_operator(X, n)
    return kernel_basis(lam - identity(X.spaces[n]))


def cyclic_dims(X: CocyclicModule, top=None) -> CohomologyTable:
    """Cyclic cohomology via the cyclic-eigenvector subcomplex under b.

    Characteristic zero only; positive characteristic is refused because the
    eigenspace subcomplex does not compute the right groups there.  Raises
    CocyclicConstructionError, with the escaping image of b as the witness,
    when b leaves the subcomplex (the input is not cocyclic)."""
    if X.field.characteristic != 0:
        raise FieldError(
            "cyclic cohomology via the eigenvector subcomplex needs characteristic 0"
        )
    top = X.max_degree - 1 if top is None else top
    if top > X.max_degree - 1:
        raise ValueError("need the ladder one degree above the reported top")
    bases = [cyclic_subcomplex_basis(X, n) for n in range(top + 2)]
    solvers = [SubspaceSolver(b) for b in bases]
    restricted = []
    for n in range(top + 1):
        b = hochschild_coboundary(X, n)
        entries = {}
        for col, vec in enumerate(bases[n]):
            img = b.apply(vec)
            coords = solvers[n + 1].coords(img)
            if coords is None:
                raise CocyclicConstructionError(results.failed(
                    "cyclic-subcomplex-closed",
                    "b of cyclic basis element %d = %s at degree %d" % (col, vec.describe(), n),
                    img, "an element of the cyclic subcomplex at degree %d" % (n + 1),
                    detail="b leaves the cyclic subcomplex; the input is not cocyclic"))
            for r, v in coords.items():
                entries[(r, col)] = v
        restricted.append((entries, len(bases[n]), len(bases[n + 1])))
    dims, data = [], []
    prev_rank = 0
    for n in range(top + 1):
        entries, dom, cod = restricted[n]
        rows = {}
        for (r, c), v in entries.items():
            rows.setdefault(r, {})[c] = v
        from .linalg import _rref

        rk = len(_rref([rows[r] for r in sorted(rows)], X.field))
        kdim = dom - rk
        dims.append(kdim - prev_rank)
        data.append({"degree": n, "subcomplex_dim": dom, "kernel": kdim,
                     "image_below": prev_rank})
        prev_rank = rk
    return CohomologyTable("cyclic", dims, top, data)


def differential_identities(X: CocyclicModule):
    """(b² = 0, B² = 0, bB + Bb = 0) on every representable degree; returns a
    list of (name, bool)."""
    out = []
    for n in range(X.max_degree - 1):
        b2 = hochschild_coboundary(X, n + 1) @ hochschild_coboundary(X, n)
        out.append(("b²=0 (deg %d)" % n, b2.is_zero()))
    for n in range(2, X.max_degree + 1):
        B2 = connes_boundary(X, n - 1) @ connes_boundary(X, n)
        out.append(("B²=0 (deg %d)" % n, B2.is_zero()))
    for n in range(1, X.max_degree):
        anti = (hochschild_coboundary(X, n - 1) @ connes_boundary(X, n)
                + connes_boundary(X, n + 1) @ hochschild_coboundary(X, n))
        out.append(("bB+Bb=0 (deg %d)" % n, anti.is_zero()))
    return out


def trace_space_dimension(mult, space):
    """Dimension of the linear functionals vanishing on all commutators of an
    algebra given by its multiplication map; independent cross-check for
    degree-zero cyclic cohomology."""
    d = space.dim
    commutators = []
    for a in range(d):
        for b in range(a + 1, d):
            ab = mult.column(a * d + b)
            ba = mult.column(b * d + a)
            commutators.append(ab - ba)
    return space.dim - span_dim([c for c in commutators if not c.is_zero()])
