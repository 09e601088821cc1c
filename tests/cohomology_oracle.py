"""Reference oracles for the identity checks: every cocyclic identity from
its whole product, the full-product differential identities and the cyclic
dimensions read through ``Subspace.express``.

``hopfcyc.cocyclic.verify_cocyclic_identities`` checks the τ identities and
τ_n^{n+1} = id, then only the cosimplicial members at i = 0 (σ_jδ_i at i = 0
or j = 0), and runs the full list only when one of those fails.
``cocyclic_identities`` here builds and compares every identity at every
degree, in the full list's order, so the tests can demand the same verdict,
condition and witness.

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
from hopfcyc.results import compare


def power(f, k):
    """f∘…∘f (k factors) as ``@`` products, the identity at k = 0."""
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return identity(f.domain)
    out = f
    for _ in range(k - 1):
        out = f @ out
    return out


def cocyclic_identities(X):
    """Every cosimplicial, mixed and cyclic identity up to the ladder top,
    τ_n^{n+1} = id included, each built and compared in full; the first
    failure in list order wins."""
    N = X.max_degree
    checks = []

    def add(name, lhs, rhs, degree):
        def at(col):
            return "degree %d, basis element %d = %s" % (degree, col, X.basis_label(degree, col))

        checks.append(compare(name, lhs, rhs, at))

    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                add("δ_%d∘δ_%d = δ_%d∘δ_%d (deg %d)" % (j, i, i, j - 1, n - 2),
                    X.coface(n, j) @ X.coface(n - 1, i),
                    X.coface(n, i) @ X.coface(n - 1, j - 1),
                    n - 2)
    for n in range(0, N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                add("σ_%d∘σ_%d = σ_%d∘σ_%d (deg %d)" % (j, i, i, j + 1, n + 2),
                    X.codegeneracy(n, j) @ X.codegeneracy(n + 1, i),
                    X.codegeneracy(n, i) @ X.codegeneracy(n + 1, j + 1),
                    n + 2)
    for m in range(0, N):
        # σ_j ∘ δ_i on degree m
        for j in range(m + 1):
            for i in range(m + 2):
                lhs = X.codegeneracy(m, j) @ X.coface(m + 1, i)
                if i < j:
                    rhs = X.coface(m, i) @ X.codegeneracy(m - 1, j - 1)
                    name = "σ_%d∘δ_%d = δ_%d∘σ_%d (deg %d)" % (j, i, i, j - 1, m)
                elif i in (j, j + 1):
                    rhs = identity(X.spaces[m])
                    name = "σ_%d∘δ_%d = id (deg %d)" % (j, i, m)
                else:
                    rhs = X.coface(m, i - 1) @ X.codegeneracy(m - 1, j)
                    name = "σ_%d∘δ_%d = δ_%d∘σ_%d (deg %d)" % (j, i, i - 1, j, m)
                add(name, lhs, rhs, m)
    for n in range(1, N + 1):
        add("τ_%d∘δ_0 = δ_%d (deg %d)" % (n, n, n - 1),
            X.tau(n) @ X.coface(n, 0), X.coface(n, n), n - 1)
        for i in range(1, n + 1):
            add("τ_%d∘δ_%d = δ_%d∘τ_%d (deg %d)" % (n, i, i - 1, n - 1, n - 1),
                X.tau(n) @ X.coface(n, i),
                X.coface(n, i - 1) @ X.tau(n - 1),
                n - 1)
    for n in range(0, N):
        add("τ_%d∘σ_0 = σ_%d∘τ_%d² (deg %d)" % (n, n, n + 1, n + 1),
            X.tau(n) @ X.codegeneracy(n, 0),
            X.codegeneracy(n, n) @ X.tau(n + 1) @ X.tau(n + 1),
            n + 1)
        for i in range(1, n + 1):
            add("τ_%d∘σ_%d = σ_%d∘τ_%d (deg %d)" % (n, i, i - 1, n + 1, n + 1),
                X.tau(n) @ X.codegeneracy(n, i),
                X.codegeneracy(n, i - 1) @ X.tau(n + 1),
                n + 1)
    for n in range(0, N + 1):
        add("τ_%d^%d = id (deg %d)" % (n, n + 1, n),
            power(X.tau(n), n + 1), identity(X.spaces[n]), n)
    return results.merge("cocyclic-identities", checks)


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
        lifted = b @ LinMap(src, b.domain, {(i, col): v for col, vec in enumerate(basis)
                                            for i, v in vec.entries.items()})
        images = {}
        for (i, col), v in lifted.entries.items():
            images.setdefault(i, {})[col] = v
        entries, escaped = subs[n + 1].express_rows(images)
        if escaped is not None:
            raise CocyclicConstructionError(results.failed(
                "cyclic-subcomplex-closed",
                "b of cyclic basis element %d = %s at degree %d"
                % (escaped, basis[escaped].describe(), n),
                Vector(b.codomain, {i: row[escaped] for i, row in images.items()
                                    if escaped in row}),
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
