"""Finite groups as label tables, plus exact factorizations for bicrossed builds."""

from __future__ import annotations

import itertools


class GroupError(ValueError):
    pass


class Group:
    """A finite group given by its multiplication table on string labels.

    The table is validated at construction: associativity, a two-sided
    identity, and inverses.  Elements are addressed by index or label.
    """

    def __init__(self, labels, table, name=""):
        self.labels = tuple(labels)
        self.name = name or "group"
        index = {lab: i for i, lab in enumerate(self.labels)}
        if len(index) != len(self.labels):
            raise GroupError("duplicate element labels")
        self._index = index
        n = len(self.labels)
        self.table = [[None] * n for _ in range(n)]
        for (a, b), c in table.items():
            self.table[index[a]][index[b]] = index[c]
        for row in self.table:
            if any(x is None for x in row):
                raise GroupError("incomplete multiplication table")
        self.identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._check_associativity()

    @property
    def order(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self._inverse[i]

    def _find_identity(self):
        n = self.order
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                return e
        raise GroupError("no identity element")

    def _find_inverses(self):
        n, e = self.order, self.identity
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == e and self.table[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise GroupError("element %r has no inverse" % self.labels[a])
        return inv

    def _check_associativity(self):
        n = self.order
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupError(
                            "associativity fails at (%s, %s, %s)"
                            % (self.labels[a], self.labels[b], self.labels[c])
                        )

    def subgroup_indices(self, labels):
        """Indices of a subset, verified to be a subgroup."""
        idxs = [self.index(lab) for lab in labels]
        sub = set(idxs)
        if self.identity not in sub:
            raise GroupError("subset does not contain the identity")
        for a in idxs:
            if self.inv(a) not in sub:
                raise GroupError("subset not closed under inverses")
            for b in idxs:
                if self.mul(a, b) not in sub:
                    raise GroupError("subset not closed under multiplication")
        return idxs

    def __repr__(self):
        return "Group(%s, order=%d)" % (self.name, self.order)


def trivial_group():
    return Group(("e",), {("e", "e"): "e"}, name="1")


def cyclic_group(n):
    """Z/n with labels e, t, t2, ..."""
    labels = ["e"] + ["t" if k == 1 else "t%d" % k for k in range(1, n)]
    table = {}
    for a in range(n):
        for b in range(n):
            table[(labels[a], labels[b])] = labels[(a + b) % n]
    return Group(labels, table, name="Z%d" % n)


def _perm_label(perm):
    """Cycle notation for a permutation tuple (perm[i] = image of i)."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group(n):
    """S_n with cycle-notation labels; composition acts left-then-right read
    as function composition (p∘q)(i) = p(q(i))."""
    perms = sorted(itertools.permutations(range(n)))
    labels = [_perm_label(p) for p in perms]
    by_perm = {p: labels[i] for i, p in enumerate(perms)}
    table = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(n))
            table[(by_perm[p], by_perm[q])] = by_perm[pq]
    return Group(labels, table, name="S%d" % n)


def direct_product(g1, g2):
    labels = [
        "(%s,%s)" % (a, b) for a in g1.labels for b in g2.labels
    ]
    table = {}
    for i1, a1 in enumerate(g1.labels):
        for j1, b1 in enumerate(g2.labels):
            for i2, a2 in enumerate(g1.labels):
                for j2, b2 in enumerate(g2.labels):
                    c1 = g1.labels[g1.mul(i1, i2)]
                    c2 = g2.labels[g2.mul(j1, j2)]
                    table[("(%s,%s)" % (a1, b1), "(%s,%s)" % (a2, b2))] = (
                        "(%s,%s)" % (c1, c2)
                    )
    return Group(labels, table, name="%s×%s" % (g1.name, g2.name))


class ExactFactorization:
    """G = F·U with unique factorization; carries the induced mutual actions.

    For u in U and f in F the product u·f factorizes as (u▷f)(u◁f) with
    u▷f in F and u◁f in U.  ▷ is a left action of U on the set F, ◁ a right
    action of F on the set U.  ``f_pos`` and ``u_pos`` map each element of F
    and of U to its position in ``left`` and ``right``.
    """

    def __init__(self, group, left_labels, right_labels):
        self.group = group
        self.left = group.subgroup_indices(left_labels)   # F
        self.right = group.subgroup_indices(right_labels)  # U
        if len(self.left) * len(self.right) != group.order:
            raise GroupError(
                "|F|·|U| = %d·%d does not match |G| = %d"
                % (len(self.left), len(self.right), group.order)
            )
        factor = {}
        for f in self.left:
            for u in self.right:
                g = group.mul(f, u)
                if g in factor:
                    raise GroupError(
                        "factorization is not unique at %s" % group.labels[g]
                    )
                factor[g] = (f, u)
        if len(factor) != group.order:
            raise GroupError("subgroups do not factor the group")
        self._factor = factor
        self.f_pos = {f: i for i, f in enumerate(self.left)}
        self.u_pos = {u: i for i, u in enumerate(self.right)}

    def factorize(self, g):
        """g = f·u uniquely; returns (f, u) as group element indices."""
        return self._factor[g]

    def act_left(self, u, f):
        """u▷f: the F-part of u·f."""
        return self.factorize(self.group.mul(u, f))[0]

    def act_right(self, u, f):
        """u◁f: the U-part of u·f."""
        return self.factorize(self.group.mul(u, f))[1]

    def f_labels(self):
        return [self.group.labels[f] for f in self.left]

    def u_labels(self):
        return [self.group.labels[u] for u in self.right]
