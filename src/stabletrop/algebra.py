"""The graded algebra of tropical cycles under stable intersection.

Elements carry one cycle per codimension grade; the product is gradewise
stable intersection. The exponential of a hypersurface realizes the class
of its polytope, turning Minkowski sums into products: that is the cycle
side of the polytope algebra, with log/exp passing between the two
presentations.

Weight space machinery: given the walls of a fan, the balanced weightings
form a rational vector space cut out by two scalar equations per ridge
(balancing read off in the rank-two quotient). A strictly positive
balanced weighting, when one exists, certifies that the fan is the normal
fan of a polytope, and the polytope itself is rebuilt by integrating the
weights across chambers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from stabletrop.cycles import (
    TropicalCycle,
    _normal_in_quotient,
    _ridge_index,
    ambient_cycle,
    cycle,
    cycle_sum,
    cycles_equal,
    scalar,
    zero_cycle,
)
from stabletrop.errors import DimensionError, ValidationError
from stabletrop.lattices import quotient_matrix, reduced_echelon
from stabletrop.linprog import feasible_point
from stabletrop.polyhedra import (
    Polyhedron,
    _cut,
    _hyperplanes_of,
    is_polyhedral_complex,
    refine_cells,
)
from stabletrop.polytopes import RationalPolytope, polytope, tropical_hypersurface
from stabletrop.stable import stable_intersection


@dataclass(frozen=True)
class AlgebraElement:
    """Tuple of cycles graded by codimension; grade 0 is a multiple of the
    ambient space."""

    ambient_dim: int
    grades: tuple

    def grade(self, k: int) -> TropicalCycle:
        return self.grades[k]


def element(ambient_dim: int, parts) -> AlgebraElement:
    n = ambient_dim
    grades = [zero_cycle(n) for _ in range(n + 1)]
    for z in parts:
        if z.ambient_dim != n:
            raise DimensionError("ambient dimensions differ")
        if z.is_zero:
            continue
        k = n - z.dim
        grades[k] = cycle_sum(grades[k], z)
    return AlgebraElement(n, tuple(grades))


def algebra_one(n: int) -> AlgebraElement:
    return element(n, [ambient_cycle(n)])


def add_elements(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    return AlgebraElement(
        a.ambient_dim,
        tuple(cycle_sum(u, v) for u, v in zip(a.grades, b.grades)),
    )


def scale_element(c, a: AlgebraElement) -> AlgebraElement:
    c = Fraction(c)
    return AlgebraElement(a.ambient_dim, tuple(scalar(c, z) for z in a.grades))


def element_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    n = a.ambient_dim
    grades = [zero_cycle(n) for _ in range(n + 1)]
    for i, u in enumerate(a.grades):
        if u.is_zero:
            continue
        for j, v in enumerate(b.grades):
            if v.is_zero or i + j > n:
                continue
            grades[i + j] = cycle_sum(grades[i + j], stable_intersection(u, v))
    return AlgebraElement(n, tuple(grades))


def element_equal(a: AlgebraElement, b: AlgebraElement) -> bool:
    if a.ambient_dim != b.ambient_dim:
        return False
    return all(cycles_equal(u, v) for u, v in zip(a.grades, b.grades))


def exp_element(a: AlgebraElement) -> AlgebraElement:
    """exp of a positively graded element; the sum stops at grade n."""
    n = a.ambient_dim
    if not a.grades[0].is_zero:
        raise ValidationError("exponential needs a vanishing degree-zero part")
    out = algebra_one(n)
    power = algebra_one(n)
    for k in range(1, n + 1):
        power = element_product(power, a)
        out = add_elements(out, scale_element(Fraction(1, factorial(k)), power))
    return out


def log_element(a: AlgebraElement) -> AlgebraElement:
    """log of an element with degree-zero part equal to one."""
    n = a.ambient_dim
    if not cycles_equal(a.grades[0], ambient_cycle(n)):
        raise ValidationError("logarithm needs degree-zero part equal to one")
    u = AlgebraElement(n, (zero_cycle(n),) + a.grades[1:])
    out = element(n, [])
    power = algebra_one(n)
    for k in range(1, n + 1):
        power = element_product(power, u)
        out = add_elements(out, scale_element(Fraction((-1) ** (k + 1), k), power))
    return out


def polytope_class(p: RationalPolytope) -> AlgebraElement:
    """The element exp(hypersurface of p): grade k holds the k-fold stable
    self-intersection over k factorial. Minkowski sum goes to product."""
    n = p.ambient_dim
    return exp_element(element(n, [tropical_hypersurface(p)]))


# ------------------------------------------------------------- weight space


@dataclass(frozen=True)
class WallBasis:
    """Balanced weightings on a fixed set of walls."""

    ambient_dim: int
    walls: tuple
    vectors: tuple
    certificate: tuple | None

    def weighting_cycle(self, weights) -> TropicalCycle:
        if len(weights) != len(self.walls):
            raise ValidationError("one weight per wall")
        return cycle(
            self.ambient_dim,
            [(w, m) for w, m in zip(self.walls, weights) if m != 0],
        )

    def cycles(self):
        return [self.weighting_cycle(v) for v in self.vectors]


def _null_space(rows, ncols):
    """Basis of the rational null space of the rows, one vector per free
    column of their reduced echelon form."""
    reduced, pivots = reduced_echelon(rows)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(int(j == f)) for j in range(ncols)]
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            basis.append(tuple(v))
    return basis


def build_hypersurface_basis(ambient_dim: int, walls) -> WallBasis:
    """Basis of the space of balanced weightings on the given fan walls.

    Two scalar equations per ridge express balancing in the rank-two
    quotient. Basis vectors are shifted to be nonnegative along the
    all-positive certificate when one exists.
    """
    n = ambient_dim
    seen = {}
    for w in walls:
        if w.ambient_dim != n:
            raise DimensionError("ambient dimensions differ")
        if w.is_empty or w.dim != n - 1:
            raise ValidationError("walls must have codimension one")
        seen.setdefault(w.key(), w)
    wall_list = list(seen.values())
    if not is_polyhedral_complex(wall_list):
        raise ValidationError("walls must form a complex")
    rows = []
    for ridge, adjacent in _ridge_index(wall_list).values():
        qmat = quotient_matrix(ridge.direction_lattice())
        eq = [[Fraction(0)] * len(wall_list) for _ in range(2)]
        for idx, row in adjacent:
            u = _normal_in_quotient(qmat, wall_list[idx], row)
            eq[0][idx] = Fraction(u[0])
            eq[1][idx] = Fraction(u[1])
        rows.extend(tuple(r) for r in eq)
    vectors = _null_space(rows, len(wall_list))
    cert = None
    if wall_list:
        ineqs = []
        for i in range(len(wall_list)):
            row = [Fraction(0)] * len(wall_list)
            row[i] = Fraction(-1)
            ineqs.append((tuple(row), Fraction(-1)))  # w_i >= 1
        cert = feasible_point(len(wall_list), ineqs, [(r, 0) for r in rows])
    if cert is not None:
        shifted = []
        for v in vectors:
            lam = max(
                (Fraction(-a) / c for a, c in zip(v, cert) if a < 0),
                default=Fraction(0),
            )
            shifted.append(tuple(a + lam * c for a, c in zip(v, cert)))
        vectors = shifted
    return WallBasis(n, tuple(wall_list), tuple(vectors), cert)


def polytope_from_weights(z: TropicalCycle) -> RationalPolytope:
    """Rebuild a polytope whose hypersurface is the given fan cycle.

    Walks the chamber graph of the arrangement spanned by the cells, each
    wall once (`_ridge_index`: chambers of an arrangement share whole
    facets), stepping the vertex by the wall's weight times its primitive
    normal, minus the facet row of the chamber left; the result is
    verified and anchored at the origin on the first chamber.
    """
    n = z.ambient_dim
    if z.is_zero:
        return polytope(n, [tuple(0 for _ in range(n))])
    if z.dim != n - 1:
        raise ValidationError("weights must sit on codimension-one cells")
    for c in z.cells:
        if not c.is_cone:
            raise ValidationError("reconstruction needs a fan")
    chambers = _cut(Polyhedron.ambient(n), _hyperplanes_of(z.cells))
    steps = [[] for _ in chambers]
    for ridge, members in _ridge_index(chambers).values():
        weight = z.mult_at(ridge.interior_point())
        (a, row_a), (b, row_b) = members
        steps[a].append((b, [-weight * h for h in row_a[:n]]))
        steps[b].append((a, [-weight * h for h in row_b[:n]]))
    verts = {0: tuple(Fraction(0) for _ in range(n))}
    queue = [0]
    while queue:
        a = queue.pop()
        for b, step in steps[a]:
            if b not in verts:
                verts[b] = tuple(v + h for v, h in zip(verts[a], step))
                queue.append(b)
    p = polytope(n, list(verts.values()))
    if not cycles_equal(tropical_hypersurface(p), z):
        raise ValidationError("weights are not the hypersurface of a polytope")
    return p


# ------------------------------------------------------------ decomposition


def decompose_into_powers(z: TropicalCycle, basis):
    """Coefficients writing z as a combination of stable products of the
    basis hypersurfaces, one product per degree-codim multiset.

    Returns a dict mapping index multisets to nonzero rational
    coefficients; raises if z is not in the span.
    """
    basis = list(basis)
    n = z.ambient_dim
    for h in basis:
        if h.ambient_dim != n:
            raise DimensionError("ambient dimensions differ")
        if h.is_zero or h.dim != n - 1:
            raise ValidationError("basis entries must be hypersurface cycles")
    if z.is_zero:
        return {}
    k = n - z.dim
    products = {}
    for combo in combinations_with_replacement(range(len(basis)), k):
        p = ambient_cycle(n)
        for idx in combo:
            p = stable_intersection(p, basis[idx])
            if p.is_zero:
                break
        products[combo] = p
    all_cells = list(z.cells)
    for p in products.values():
        all_cells.extend(p.cells)
    probes = []
    seen = set()
    for _, piece in refine_cells(all_cells):
        if piece.dim != z.dim or piece.key() in seen:
            continue
        seen.add(piece.key())
        probes.append(piece.interior_point())
    cols = sorted(products)
    matrix = [
        tuple(products[c].mult_at(g) for c in cols) + (z.mult_at(g),) for g in probes
    ]
    reduced, pivots = reduced_echelon(matrix)
    if len(cols) in pivots:
        raise ValidationError("cycle is not a combination of basis products")
    coeffs = {}
    for row, piv in zip(reduced, pivots):
        if row[-1] != 0:
            coeffs[cols[piv]] = row[-1]
    return coeffs
