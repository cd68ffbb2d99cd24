"""Exact linear algebra over Z and Q for lattice computations.

All arithmetic uses Python integers and fractions.Fraction; no floating
point appears anywhere in this package. Vectors are plain tuples and
matrices are tuples of row tuples, so every value is hashable and can be
used as a canonical dictionary key.

Two eliminations serve every caller. Hermite forms answer the lattice
questions: subgroup sums, integer kernels and the quotient map (both the
Hermite form of [M^T | I]), saturations (the kernel of the kernel) and
indices (a ratio of Hermite pivots). The fraction-free (Bareiss) echelon
gives ranks, span tests, reductions modulo a span, and the reduced
echelon form over Q by integer back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

IntVector = tuple
IntMatrix = tuple


class SubgroupError(ValueError):
    """A lattice operation received generators outside the ambient group."""


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_is_zero(v):
    return all(a == 0 for a in v)


def mat_from_rows(rows) -> IntMatrix:
    return tuple(tuple(r) for r in rows)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def mat_vec(m, v):
    return tuple(vec_dot(row, v) for row in m)


def primitive(v) -> IntVector:
    """The integer vector v divided by the gcd of its entries.

    Raises ValueError on the zero vector. The sign pattern is preserved.
    """
    g = gcd(*(abs(int(a)) for a in v)) if v else 0
    if g == 0:
        raise ValueError("primitive vector of the zero vector is undefined")
    return tuple(int(a) // g for a in v)


def rational_to_primitive(v) -> IntVector:
    """Primitive integer vector spanning the same ray as a vector of ints
    and Fractions."""
    scale = lcm(*(a.denominator for a in v))
    return primitive(tuple(a.numerator * (scale // a.denominator) for a in v))


def _echelon(rows):
    """Row echelon of an integer matrix by fraction-free (Bareiss)
    elimination: the nonzero rows, each zero before its pivot."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * m[rank][c] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == nr:
            break
    return m[:rank]


def int_rank(rows) -> int:
    """Rank of an integer matrix: the length of its echelon."""
    return len(_echelon(rows))


def reduce_modulo(echelon, vectors) -> list:
    """Each integer vector reduced modulo the rows of an integer echelon
    (each row zero before its pivot, its first nonzero entry): every
    pivot is cleared by the combination f*v - h*row divided by the gcd of
    the two pivot entries, with f > 0, so no Fraction is built and a
    vector keeps its sign. The result is a positive multiple of v plus a
    combination of the rows, zero at every pivot column, and zero exactly
    when v lies in the span of the rows."""
    pivots = [(next(c for c, a in enumerate(e) if a), e) for e in echelon]
    out = []
    for v in vectors:
        for c, e in pivots:
            if v[c]:
                g = gcd(e[c], v[c]) if e[c] > 0 else -gcd(e[c], v[c])
                f, h = e[c] // g, v[c] // g
                v = tuple(f * a - h * b for a, b in zip(v, e))
        out.append(v)
    return out


def reduced_echelon(rows):
    """Reduced row echelon form over Q of a matrix of ints and Fractions,
    with its pivot columns. Each row is cleared of denominators, the
    integer rows are put in echelon by `_echelon`, and each echelon row,
    from the last up, is reduced modulo the rows below it and divided by
    the gcd of its entries; one division per entry by the pivot then
    gives the unique reduced form."""
    reduced = []
    for e in reversed(_echelon([rational_to_primitive(r) for r in rows if any(r)])):
        reduced.insert(0, primitive(reduce_modulo(reduced, [e])[0]))
    pivots = tuple(next(c for c, a in enumerate(e) if a) for e in reduced)
    return tuple(tuple(Fraction(a, e[c]) for a in e) for e, c in zip(reduced, pivots)), pivots


def row_hermite(rows) -> IntMatrix:
    """Row Hermite normal form of an integer matrix.

    Pivots are positive, entries below a pivot are zero and entries above it
    are reduced into [0, pivot). The result is the canonical basis of the
    row lattice; zero rows are dropped.
    """
    m = [list(int(a) for a in r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(m[i][c]), i))
            m[r], m[i0] = m[i0], m[r]
            p = m[r][c]
            clean = True
            for i in range(r + 1, nr):
                if m[i][c] != 0:
                    q = m[i][c] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        clean = False
            if clean:
                break
        if m[r][c] == 0:
            continue
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        p = m[r][c]
        for i in range(r):
            q = m[i][c] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return tuple(tuple(row) for row in m[:r])


def integer_kernel(matrix):
    """Basis of the integer kernel {x : matrix * x == 0}, as column vectors.

    The rows of the Hermite form of [matrix^T | I] whose matrix part is
    zero: the transform is unimodular, so they span the whole saturated
    kernel, and their I parts are its Hermite basis.
    """
    m = mat_from_rows(matrix)
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nc == 0:
        return []
    block = [col + row for col, row in zip(transpose(m), identity_matrix(nc))]
    return [h[nr:] for h in row_hermite(block) if vec_is_zero(h[:nr])]


@dataclass(frozen=True)
class LatticeSubgroup:
    """A finitely generated subgroup of Z^n in canonical Hermite form.

    generators holds linearly independent lattice vectors, the rows of the
    Hermite normal form of any generating set, so equality of subgroups is
    equality of the dataclass.
    """

    ambient_rank: int
    generators: tuple

    @staticmethod
    def from_vectors(ambient_rank: int, vectors) -> "LatticeSubgroup":
        vecs = [tuple(int(a) for a in v) for v in vectors if not vec_is_zero(v)]
        for v in vecs:
            if len(v) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
        h = row_hermite(vecs) if vecs else ()
        return LatticeSubgroup(ambient_rank, h)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def basis_columns(self):
        """Generators as the columns of an (ambient_rank x rank) matrix."""
        return transpose(self.generators) if self.generators else tuple(() for _ in range(self.ambient_rank))


def standard_lattice(n: int) -> LatticeSubgroup:
    return LatticeSubgroup.from_vectors(n, identity_matrix(n))


def zero_subgroup(n: int) -> LatticeSubgroup:
    return LatticeSubgroup.from_vectors(n, [])


def sum_lattices(a: LatticeSubgroup, b: LatticeSubgroup) -> LatticeSubgroup:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    return LatticeSubgroup.from_vectors(a.ambient_rank, a.generators + b.generators)


def intersect_lattices(a: LatticeSubgroup, b: LatticeSubgroup) -> LatticeSubgroup:
    """Intersection of two subgroups of the same ambient lattice.

    Solves A x = B y through the integer kernel of the block matrix [A | -B].
    """
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    n = a.ambient_rank
    if a.rank == 0 or b.rank == 0:
        return zero_subgroup(n)
    ca = a.basis_columns()
    cb = b.basis_columns()
    block = tuple(tuple(ca[i]) + tuple(-x for x in cb[i]) for i in range(n))
    gens = []
    for col in integer_kernel(block):
        x = col[: a.rank]
        g = tuple(vec_dot(ca[i], x) for i in range(n))
        if not vec_is_zero(g):
            gens.append(g)
    return LatticeSubgroup.from_vectors(n, gens)


def lattice_index(ambient: LatticeSubgroup, sub: LatticeSubgroup):
    """Index [ambient : sub] as a Fraction, or None when it is infinite.

    Raises SubgroupError if sub is not contained in ambient. Lattices of
    the same span have Hermite bases with the same pivot columns, so the
    index is the product of sub's pivots over the product of ambient's.
    """
    if ambient.ambient_rank != sub.ambient_rank:
        raise ValueError("ambient ranks differ")
    if sum_lattices(ambient, sub) != ambient:
        raise SubgroupError("generators do not lie in the ambient subgroup")
    if sub.rank < ambient.rank:
        return None
    return Fraction(_pivot_product(sub) // _pivot_product(ambient))


def _pivot_product(lattice: LatticeSubgroup) -> int:
    return prod(next(a for a in g if a) for g in lattice.generators)


def saturation(ambient_rank: int, vectors) -> LatticeSubgroup:
    """Saturated lattice: the intersection of Z^n with the span of vectors,
    the kernel of their kernel."""
    vecs = [tuple(int(a) for a in v) for v in vectors if not vec_is_zero(v)]
    if not vecs:
        return zero_subgroup(ambient_rank)
    ker = integer_kernel(vecs)
    if not ker:
        return standard_lattice(ambient_rank)
    return LatticeSubgroup(ambient_rank, tuple(integer_kernel(ker)))


def quotient_matrix(sub: LatticeSubgroup):
    """Integer matrix projecting Z^n onto Z^(n-d) with kernel exactly sub.

    One Hermite form of [G^T | I], G the d generators as rows: sub is
    saturated exactly when the G part of its top d rows is I_d, and the
    I parts of the other n - d rows are the Hermite basis of the lattice
    of vectors orthogonal to sub. That lattice is saturated, so the map
    is onto Z^(n-d); its kernel is the saturation of sub, sub itself.
    """
    n, d = sub.ambient_rank, sub.rank
    h = row_hermite([col + row for col, row in zip(sub.basis_columns(), identity_matrix(n))])
    if tuple(r[:d] for r in h[:d]) != identity_matrix(d):
        raise SubgroupError("subgroup is not saturated")
    return tuple(r[d:] for r in h[d:])
