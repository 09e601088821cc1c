"""Reference oracle for the cohomology checks: the full-product differential
identities and the cyclic dimensions read through ``Subspace.express``.

``hopfcyc.cohomology`` keeps B_n as its factors, reads B² = 0 off the square
middle factor, multiplies B_{n+1} ∘ b_n from the right, and tests closure of
the cyclic subcomplex by λx = x without the top-degree eigenbasis.  This
module keeps the earlier route, which builds every B_n (the top degree's
included) and expresses b's images over the eigenbasis one degree above the
reported top, so the tests can demand identical verdicts, tables and
witnesses.  Nothing here reads or writes the complex's memo except through
``hochschild_coboundary``.
"""

from hopfcyc import results
from hopfcyc.cocyclic import CocyclicConstructionError, _abstract_space
from hopfcyc.cohomology import CohomologyTable, cyclic_eigenvalue_operator, hochschild_coboundary
from hopfcyc.fields import FieldError
from hopfcyc.linalg import LinMap, Subspace, Vector, identity, kernel_basis, rank


def connes_boundary(X, n):
    """B = N ∘ σ_{n−1} ∘ τ_n ∘ (1 − λ): C^n → C^{n−1}, built whole, not kept."""
    lam_n = cyclic_eigenvalue_operator(X, n)
    one_minus = identity(X.spaces[n]) - lam_n
    extra = X.codegeneracy(n - 1, n - 1) @ X.tau(n)
    lam_prev = cyclic_eigenvalue_operator(X, n - 1)
    norm, power = identity(X.spaces[n - 1]), None
    for _ in range(1, n):
        power = lam_prev if power is None else lam_prev @ power
        norm = norm + power
    return norm @ extra @ one_minus


def differential_identities(X):
    """(b² = 0, B² = 0, bB + Bb = 0) on every representable degree, each
    from the whole product."""
    out = []
    for n in range(X.max_degree - 1):
        b2 = hochschild_coboundary(X, n + 1) @ hochschild_coboundary(X, n)
        out.append(("b²=0 (deg %d)" % n, b2.is_zero()))
    B = {n: connes_boundary(X, n) for n in range(1, X.max_degree + 1)}
    for n in range(2, X.max_degree + 1):
        out.append(("B²=0 (deg %d)" % n, (B[n - 1] @ B[n]).is_zero()))
    for n in range(1, X.max_degree):
        anti = (hochschild_coboundary(X, n - 1) @ B[n]
                + B[n + 1] @ hochschild_coboundary(X, n))
        out.append(("bB+Bb=0 (deg %d)" % n, anti.is_zero()))
    return out


def cyclic_subcomplex_basis(X, n):
    lam = cyclic_eigenvalue_operator(X, n)
    return kernel_basis(lam - identity(X.spaces[n]))


def cyclic_dims(X, top=None):
    """Cyclic dimensions over the eigenbases of degrees 0..top + 1, with b's
    images expressed over the eigenbasis one degree up."""
    if X.field.characteristic != 0:
        raise FieldError(
            "cyclic cohomology via the eigenvector subcomplex needs characteristic 0"
        )
    top = X.max_degree - 1 if top is None else top
    subs = [Subspace(X.spaces[n], cyclic_subcomplex_basis(X, n)) for n in range(top + 2)]
    ranks = []
    for n in range(top + 1):
        b = hochschild_coboundary(X, n)
        basis, src = subs[n].basis, _abstract_space(X.field, n, subs[n].dim, "c")
        cols = (b @ LinMap(src, b.domain, {(i, col): v for col, vec in enumerate(basis)
                                          for i, v in vec.entries.items()})).by_col()
        images = [dict(cols.get(col, ())) for col in range(len(basis))]
        entries, escaped = subs[n + 1].express(images)
        if escaped is not None:
            raise CocyclicConstructionError(results.failed(
                "cyclic-subcomplex-closed",
                "b of cyclic basis element %d = %s at degree %d"
                % (escaped, basis[escaped].describe(), n),
                Vector(b.codomain, images[escaped]),
                "an element of the cyclic subcomplex at degree %d" % (n + 1),
                detail="b leaves the cyclic subcomplex; the input is not cocyclic"))
        ranks.append(rank(LinMap(
            src, _abstract_space(X.field, n + 1, subs[n + 1].dim, "c"), entries)))
    dims, data = [], []
    for n in range(top + 1):
        kdim = subs[n].dim - ranks[n]
        prev_rank = ranks[n - 1] if n >= 1 else 0
        dims.append(kdim - prev_rank)
        data.append({"degree": n, "subcomplex_dim": subs[n].dim, "kernel": kdim,
                     "image_below": prev_rank})
    return CohomologyTable("cyclic", dims, top, data)
