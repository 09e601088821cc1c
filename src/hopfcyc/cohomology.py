"""Hochschild and cyclic cohomology of a cocyclic module at desk scale.

Cyclic cohomology is computed on the cyclic-eigenvector subcomplex
(characteristic zero only); the Hochschild theory uses the full cochain
spaces.  Both differentials come with their defining identities b² = 0,
B² = 0, bB + Bb = 0, checkable exactly on any verified complex.

Both checks stay on the narrow side of the top degree N.  A complex keeps
Connes' B_n = N_{n−1} ∘ σ_{n−1} ∘ τ_n ∘ (1 − λ_n) as its four factors, so
B_{n+1} ∘ b_n is multiplied from the right, each right operand only dim C^n
wide, and B² = 0 is read off the square middle factor
Z = (1 − λ_{n−1}) ∘ N_{n−1} = 1 − λ_{n−1}^n, whose vanishing gives
B_{n−1} ∘ B_n = 0 (only Z ≠ 0 falls back to the full product).  An image x
of b lies in the cyclic subcomplex iff λx = x, so closure at the top degree
is tested without its eigenbasis, and the rank of b on the subcomplex is
read off the images in ambient coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import FieldError
from .linalg import LinMap, identity, kernel_basis, maps_first_difference, rank, span_dim
from .cocyclic import CocyclicConstructionError, CocyclicModule, _abstract_space
from . import results


def hochschild_coboundary(X: CocyclicModule, n) -> LinMap:
    """b = Σ_{i=0}^{n+1} (−1)^i δ_i : C^n → C^{n+1}."""
    if n + 1 > X.max_degree:
        raise ValueError("degree %d out of range (max %d)" % (n, X.max_degree - 1))
    key = ("b", n)
    if key not in X._memo:
        fld = X.field
        out = None
        for i in range(n + 2):
            term = X.coface(n + 1, i).scaled(fld.sign(i))
            out = term if out is None else out + term
        X._memo[key] = out
    return X._memo[key]


def cyclic_eigenvalue_operator(X: CocyclicModule, n) -> LinMap:
    """λ = (−1)^n τ_n on degree n."""
    return X.tau(n).scaled(X.field.sign(n))


def _boundary_factors(X: CocyclicModule, n):
    """(1 − λ_n, τ_n, σ_{n−1}, N_{n−1}), B_n's factors, kept per degree; the
    norm N_{n−1} = Σ_{j<n} λ^j is on degree n−1."""
    key = ("B-factors", n)
    if key not in X._memo:
        one_minus = identity(X.spaces[n]) - cyclic_eigenvalue_operator(X, n)
        lam_prev = cyclic_eigenvalue_operator(X, n - 1)
        norm, power = identity(X.spaces[n - 1]), None
        for _ in range(1, n):
            power = lam_prev if power is None else lam_prev @ power
            norm = norm + power
        X._memo[key] = (one_minus, X.tau(n), X.codegeneracy(n - 1, n - 1), norm)
    return X._memo[key]


def _connes_after(X: CocyclicModule, n, f):
    """B_n ∘ f, multiplied from the right so that every product is only as
    wide as f."""
    one_minus, tau, sigma, norm = _boundary_factors(X, n)
    return norm @ (sigma @ (tau @ (one_minus @ f)))


def connes_boundary(X: CocyclicModule, n) -> LinMap:
    """B = N ∘ σ_extra ∘ (1 − λ) : C^n → C^{n−1}, with the extra degeneracy
    σ_extra = σ_{n−1} ∘ τ_n and the norm N = Σ_{j<n} λ^j on degree n−1."""
    if n < 1 or n > X.max_degree:
        raise ValueError("connes boundary needs 1 ≤ n ≤ max degree")
    key = ("B", n)
    if key not in X._memo:
        one_minus, tau, sigma, norm = _boundary_factors(X, n)
        X._memo[key] = norm @ (sigma @ tau) @ one_minus
    return X._memo[key]


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
    bases = [cyclic_subcomplex_basis(X, n) for n in range(top + 1)]
    ranks = []
    for n in range(top + 1):
        b, basis = hochschild_coboundary(X, n), bases[n]
        # b's images of the whole cyclic basis in one product; an image x lies
        # in the subcomplex iff λx = x, and the rank of b on the subcomplex is
        # that of its images, since coordinates over a basis are injective
        images = b @ LinMap(_abstract_space(X.field, n, len(basis), "c"), b.domain,
                            {(i, col): v for col, vec in enumerate(basis)
                             for i, v in vec.entries.items()})
        escaped = maps_first_difference(cyclic_eigenvalue_operator(X, n + 1) @ images, images)
        if escaped is not None:
            raise CocyclicConstructionError(results.failed(
                "cyclic-subcomplex-closed",
                "b of cyclic basis element %d = %s at degree %d"
                % (escaped, basis[escaped].describe(), n),
                images.column(escaped),
                "an element of the cyclic subcomplex at degree %d" % (n + 1),
                detail="b leaves the cyclic subcomplex; the input is not cocyclic"))
        ranks.append(rank(images))
    dims, data = [], []
    for n in range(top + 1):
        kdim = len(bases[n]) - ranks[n]
        prev_rank = ranks[n - 1] if n >= 1 else 0
        dims.append(kdim - prev_rank)
        data.append({"degree": n, "subcomplex_dim": len(bases[n]), "kernel": kdim,
                     "image_below": prev_rank})
    return CohomologyTable("cyclic", dims, top, data)


def differential_identities(X: CocyclicModule):
    """(b² = 0, B² = 0, bB + Bb = 0) on every representable degree; returns a
    list of (name, bool).  B_N at the top degree N is never built unless
    some Z = 1 − λ_{n−1}^n is not zero."""
    out = []
    for n in range(X.max_degree - 1):
        b2 = hochschild_coboundary(X, n + 1) @ hochschild_coboundary(X, n)
        out.append(("b²=0 (deg %d)" % n, b2.is_zero()))
    for n in range(2, X.max_degree + 1):
        # B_{n−1} ∘ B_n = (N σ τ)_{n−1} ∘ Z ∘ (σ τ (1 − λ))_n, and Z = 1 − λ^n
        # on degree n−1 vanishes whenever τ_{n−1}^n = id
        Z = _boundary_factors(X, n - 1)[0] @ _boundary_factors(X, n)[3]
        vanishes = Z.is_zero() or (connes_boundary(X, n - 1) @ connes_boundary(X, n)).is_zero()
        out.append(("B²=0 (deg %d)" % n, vanishes))
    for n in range(1, X.max_degree):
        anti = (hochschild_coboundary(X, n - 1) @ connes_boundary(X, n)
                + _connes_after(X, n + 1, hochschild_coboundary(X, n)))
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
