"""Rational polytopes and their tropical hypersurfaces.

Min-plus convention throughout: the hypersurface of a polytope P is the
codimension-one part of its normal fan, where the normal cone of a face
F collects the weight vectors minimized on F. Each edge contributes its
normal cone, weighted by the lattice length of the edge. A point has an
empty edge set, so its hypersurface is the zero cycle. Edges and both
representations of their cones are read off the vertex-facet
incidences, with no conversion.

The normalization makes the volume of the unit simplex 1, so the weight
of the origin in the n-th stable power of the hypersurface is n! times
the Euclidean volume, and products of hypersurfaces compute lattice
mixed volumes (the generic root counts of sparse polynomial systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from stabletrop.cycles import TropicalCycle, cycle, zero_cycle
from stabletrop.errors import DimensionError, ValidationError
from stabletrop.lattices import (
    identity_matrix,
    integer_kernel,
    mat_vec,
    primitive,
    rational_to_primitive,
    reduce_modulo,
    row_hermite,
    saturation,
    transpose,
    vec_sub,
)
from stabletrop.polyhedra import Polyhedron, covered_by
from stabletrop.stable import stable_intersection


@dataclass(frozen=True)
class RationalPolytope:
    """Bounded convex hull of finitely many rational points, stored by its
    canonical (inclusion-minimal, sorted) vertex list, beside the hull as
    a Polyhedron whose V-rep is that list; equality, hashing and repr
    read the vertices only."""

    ambient_dim: int
    vertices: tuple
    polyhedron: Polyhedron = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.polyhedron.dim

    def minkowski(self, other: "RationalPolytope") -> "RationalPolytope":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return polytope(
            self.ambient_dim,
            [tuple(a + b for a, b in zip(u, v)) for u in self.vertices for v in other.vertices],
        )

    def dilate(self, k) -> "RationalPolytope":
        k = Fraction(k)
        return polytope(self.ambient_dim, [tuple(k * x for x in v) for v in self.vertices])

    def translate(self, t) -> "RationalPolytope":
        if len(t) != self.ambient_dim:
            raise DimensionError("translation has wrong length")
        return polytope(
            self.ambient_dim, [tuple(x + Fraction(a) for x, a in zip(v, t)) for v in self.vertices]
        )

    def contains(self, x) -> bool:
        return self.polyhedron.contains(x)


def polytope(ambient_dim: int, points) -> RationalPolytope:
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        raise ValidationError("a polytope needs at least one point")
    for p in pts:
        if len(p) != ambient_dim:
            raise DimensionError("point has wrong length")
    hull = Polyhedron.from_vrep(ambient_dim, pts)
    verts, rays, lin = hull.vrep()
    if rays or lin:
        raise ValidationError("point set is unbounded")
    return RationalPolytope(ambient_dim, verts, hull)


def from_polyhedron(p: Polyhedron) -> RationalPolytope:
    if p.is_empty:
        raise ValidationError("empty polyhedron is not a polytope")
    if not p.is_bounded:
        raise ValidationError("polyhedron is unbounded")
    return RationalPolytope(p.ambient_dim, p.vrep()[0], p)


def standard_simplex(n: int) -> RationalPolytope:
    zero = tuple(Fraction(0) for _ in range(n))
    pts = [zero]
    for i in range(n):
        pts.append(tuple(Fraction(1 if j == i else 0) for j in range(n)))
    return polytope(n, pts)


def cube(n: int) -> RationalPolytope:
    pts = []
    for mask in range(1 << n):
        pts.append(tuple(Fraction((mask >> i) & 1) for i in range(n)))
    return polytope(n, pts)


def tropical_hypersurface(p: RationalPolytope) -> TropicalCycle:
    """Codimension-one normal cones of p, weighted by edge lattice lengths,
    read off p's canonical H-rep and its incidence with no conversion and
    no dot product per cone. With T(x) the facet rows tight at a vertex x,
    the transpose of the body's incidence (`Polyhedron._incidence`), and
    C = T(u) ∩ T(v), [u, v] is an edge when no third vertex x has
    C ⊆ T(x) (Fukuda–Prodon). Its cone has the extreme rays -a for (a, b)
    in C and the span of the equality normals as lineality, and both its
    representations are written in the canonical form `_dd` returns: the
    one equality row is (v - u, 0) made primitive, leading entry positive,
    and the faces of p covering the edge are the inclusion-maximal sets
    C ∩ T(x), each giving the facet row (u - x, 0) of any of its vertices
    x, reduced modulo the equality row and made primitive."""
    n = p.ambient_dim
    poly = p.polyhedron
    verts = poly.vrep()[0]
    if len(verts) == 1:
        return zero_cycle(n)
    ineqs, eqs = poly.hrep()
    lin = saturation(n, [r[:n] for r in eqs]).generators
    inc = poly._incidence()
    tight = [frozenset(i for i, t in enumerate(inc) if j in t) for j in range(len(verts))]
    origin = (Fraction(0),) * n
    cells = []
    for j, v in enumerate(verts):
        for i, u in enumerate(verts[:j]):
            common = tight[i] & tight[j]
            sides = {}
            for w, t in enumerate(tight):
                if w != i and w != j:
                    sides.setdefault(common & t, verts[w])
            if common in sides:
                continue
            rays = reduce_modulo(lin, [tuple(-a for a in ineqs[r][:n]) for r in common])
            d = vec_sub(v, u)
            step = rational_to_primitive(d)
            c = next(c for c, a in enumerate(step) if a)
            eq = (step if step[c] > 0 else tuple(-a for a in step)) + (0,)
            covers = [x for s, x in sides.items() if not any(s < o for o in sides)]
            rows = reduce_modulo([eq], [rational_to_primitive(vec_sub(u, x)) + (0,) for x in covers])
            cone = Polyhedron(n)
            cone._vrep = ((origin,), tuple(sorted({primitive(r) for r in rays})), lin)
            cone._hrep = (tuple(sorted({primitive(r) for r in rows})), (eq,))
            cells.append((cone, d[c] / step[c]))
    return cycle(n, cells)


def normalized_volume(p: RationalPolytope) -> Fraction:
    """Weight of the origin in the n-th stable power of the hypersurface:
    n! times the Euclidean volume, 0 for lower-dimensional bodies."""
    n = p.ambient_dim
    if n == 0:
        raise DimensionError("volume needs a positive-dimensional ambient space")
    return mixed_volume([p] * n)


def mixed_volume(polys) -> Fraction:
    """Normalized mixed volume of n bodies in Q^n, so that
    mixed_volume([p] * n) == normalized_volume(p). Each distinct body's
    hypersurface is built once."""
    polys = list(polys)
    if not polys:
        raise DimensionError("mixed volume needs at least one polytope")
    n = polys[0].ambient_dim
    if len(polys) != n or any(q.ambient_dim != n for q in polys):
        raise DimensionError("mixed volume needs exactly n bodies in Q^n")
    hypersurfaces = {q: tropical_hypersurface(q) for q in dict.fromkeys(polys)}
    z = None
    for q in polys:
        h = hypersurfaces[q]
        z = h if z is None else stable_intersection(z, h)
        if z.is_zero:
            return Fraction(0)
    return z.mult_at(tuple(0 for _ in range(n)))


def volume_polynomial_coefficient(polys, exponents) -> Fraction:
    """Coefficient of lambda^exponents in the normalized volume of
    lambda_1 p_1 + ... + lambda_k p_k: the multinomial coefficient times
    the mixed volume of p_i repeated exponents_i times."""
    polys = list(polys)
    exponents = list(exponents)
    if not polys:
        raise DimensionError("volume polynomial needs at least one polytope")
    if len(polys) != len(exponents):
        raise ValidationError("one exponent per polytope")
    if any(a < 0 or a != int(a) for a in exponents):
        raise ValidationError("exponents must be nonnegative integers")
    exponents = [int(a) for a in exponents]
    n = polys[0].ambient_dim
    if any(q.ambient_dim != n for q in polys):
        raise DimensionError("ambient dimensions differ")
    if sum(exponents) != n:
        raise ValidationError("exponents must sum to the ambient dimension")
    coeff = factorial(n)
    for a in exponents:
        coeff //= factorial(a)
    return coeff * mixed_volume([q for q, a in zip(polys, exponents) for _ in range(a)])


def subspace_cycle(n: int, generators, mult=1) -> TropicalCycle:
    """The linear span of the generators as a weighted cycle."""
    gens = [tuple(g) for g in generators]
    cell = Polyhedron.from_vrep(n, [tuple(0 for _ in range(n))], lin=gens)
    return cycle(n, [(cell, mult)])


def preimage_cycle(matrix, x: TropicalCycle) -> TropicalCycle:
    """Pull a cycle back through a lattice-surjective integer matrix by
    taking cell preimages; weights carry over unchanged."""
    rows = [tuple(r) for r in matrix]
    d = len(rows)
    if x.ambient_dim != d:
        raise DimensionError("matrix target does not match the cycle")
    if not rows:
        raise DimensionError("empty matrix")
    n = len(rows[0])
    for r in rows:
        if len(r) != n:
            raise DimensionError("ragged matrix")
        if any(a != int(a) for a in r):
            raise ValidationError("preimage needs an integer matrix")
    cols = transpose(rows)
    if row_hermite(cols) != identity_matrix(d):
        raise ValidationError("matrix is not surjective on lattice points")
    if x.is_zero:
        return zero_cycle(n)
    cells = []
    for c, m in x.weighted_cells():
        ineqs = [(mat_vec(cols, r[:-1]), r[-1]) for r in c.ineq_rows]
        eqs = [(mat_vec(cols, r[:-1]), r[-1]) for r in c.eq_rows]
        cells.append((Polyhedron.from_hrep(n, ineqs, eqs), m))
    return cycle(n, cells)


def fatten_cycle(x: TropicalCycle, directions) -> TropicalCycle:
    """Minkowski-add the span of the directions to every cell."""
    gens = [tuple(g) for g in directions]
    if not gens:
        return x
    if x.is_zero:
        return x
    n = x.ambient_dim
    span = Polyhedron.from_vrep(n, [tuple(0 for _ in range(n))], lin=gens)
    return cycle(n, [(c.minkowski(span), m) for c, m in x.weighted_cells()])


def projection_comparison(p: RationalPolytope, matrix):
    """Two routes to the hypersurface of a projected polytope.

    For a lattice-surjective integer matrix A, the preimage of the
    hypersurface of A(p) agrees, as a cycle, with the stable intersection
    of the hypersurface of p with the row space of A, fattened by ker A.
    Returns the pair (preimage route, stable route).
    """
    rows = [tuple(r) for r in matrix]
    n = p.ambient_dim
    if not rows:
        raise DimensionError("empty projection matrix")
    if len(rows[0]) != n:
        raise DimensionError("matrix source does not match the polytope")
    q = polytope(len(rows), [mat_vec(rows, v) for v in p.vertices])
    lhs = preimage_cycle(rows, tropical_hypersurface(q))
    core = stable_intersection(tropical_hypersurface(p), subspace_cycle(n, rows))
    rhs = fatten_cycle(core, integer_kernel(rows))
    return lhs, rhs


def union_is_polytope(p: RationalPolytope, q: RationalPolytope) -> bool:
    """Whether the set union of p and q is itself convex."""
    if p.ambient_dim != q.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    hull = polytope(p.ambient_dim, list(p.vertices) + list(q.vertices))
    return covered_by(hull.polyhedron, [p.polyhedron, q.polyhedron])
