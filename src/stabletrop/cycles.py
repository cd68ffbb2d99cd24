"""Tropical cycles: weighted pure-dimensional rational polyhedral complexes.

A cycle is stored as a list of cells with rational multiplicities. Cells
are not required to form an honest complex at construction time. The one
overlay, `_overlay`, refines weighted cells by `refine_cells` and adds up
their weights, numbers or vectors, on identical pieces. Sums, equality
tests and the stable intersection engine overlay each affine hull on its
own (`normalize_weighted`), `is_balanced` overlays the facets of one
hull, weighted by their normal vectors, and only `pushforward` overlays
cells of several hulls at once, its image cells. The ridge index
`_ridge_index` maps each ridge of a cell list to the cells having it as a
facet, with the facet rows that sign their normals, so that
`is_balanced` and `algebra.build_hypersurface_basis` walk each ridge
once. Cycles are identified up to refinement: `cycles_equal` tests
semantic equality, the dataclass equality is representation equality of
the canonicalized cell lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from stabletrop.errors import DimensionError, GenericityError, ValidationError
from stabletrop.lattices import (
    LatticeSubgroup,
    int_rank,
    integer_kernel,
    intersect_lattices,
    lattice_index,
    mat_vec,
    primitive,
    quotient_matrix,
    vec_dot,
    vec_is_zero,
)
from stabletrop.polyhedra import Polyhedron, refine_cells


@dataclass(frozen=True)
class TropicalCycle:
    """Weighted cell list of a fixed pure dimension; () is the zero cycle."""

    ambient_dim: int
    cells: tuple
    multiplicities: tuple

    @property
    def dim(self):
        return self.cells[0].dim if self.cells else None

    @property
    def codim(self):
        return None if self.dim is None else self.ambient_dim - self.dim

    @property
    def is_zero(self):
        return not self.cells

    def weighted_cells(self):
        return list(zip(self.cells, self.multiplicities))

    def mult_at(self, x):
        """Total weight of cells whose relative interior contains x.

        Refinement invariant; meaningful at points in the relative
        interior of a facet of the support (elsewhere it reports zero).
        """
        total = Fraction(0)
        for c, m in zip(self.cells, self.multiplicities):
            if c.relint_contains(x):
                total += m
        return total

    def lineality_lattice(self) -> LatticeSubgroup:
        """Largest saturated lattice along which every cell is invariant."""
        if self.is_zero:
            raise ValidationError("the zero cycle has no lineality lattice")
        lat = self.cells[0].lineality_lattice()
        for c in self.cells[1:]:
            lat = intersect_lattices(lat, c.lineality_lattice())
        return lat

    def __repr__(self):
        if self.is_zero:
            return f"TropicalCycle(zero in Q^{self.ambient_dim})"
        return f"TropicalCycle(dim {self.dim} in Q^{self.ambient_dim}, {len(self.cells)} cells)"


def cycle(ambient_dim, weighted_cells):
    """Build a cycle from (cell, multiplicity) pairs.

    Empty cells and zero multiplicities are dropped, identical cells are
    merged, the rest must share the ambient dimension and be pure."""
    acc = {}
    order = []
    for c, m in weighted_cells:
        m = Fraction(m)
        if m == 0 or c.is_empty:
            continue
        if c.ambient_dim != ambient_dim:
            raise DimensionError("cell ambient dimension mismatch")
        k = c.key()
        if k not in acc:
            acc[k] = [c, Fraction(0)]
            order.append(k)
        acc[k][1] += m
    pairs = [(acc[k][0], acc[k][1]) for k in order if acc[k][1] != 0]
    dims = {c.dim for c, _ in pairs}
    if len(dims) > 1:
        raise ValidationError(f"cells are not pure dimensional: dims {sorted(dims)}")
    pairs.sort(key=lambda cm: cm[0].key())
    return TropicalCycle(ambient_dim, tuple(c for c, _ in pairs), tuple(m for _, m in pairs))


def zero_cycle(ambient_dim):
    return TropicalCycle(ambient_dim, (), ())


def ambient_cycle(ambient_dim, mult=1):
    """Q^n as a cycle of dimension n with constant weight."""
    return cycle(ambient_dim, [(Polyhedron.ambient(ambient_dim), Fraction(mult))])


def scalar(c, x: TropicalCycle):
    c = Fraction(c)
    if c == 0:
        return zero_cycle(x.ambient_dim)
    return TropicalCycle(x.ambient_dim, x.cells, tuple(c * m for m in x.multiplicities))


def _add(a, b):
    """Sum of two weights: numbers, or vectors added entrywise."""
    return tuple(s + t for s, t in zip(a, b)) if isinstance(a, tuple) else a + b


def _overlay(weighted_cells):
    """Weighted cells refined by all their facet hyperplanes, weights of
    identical pieces added (`_add`) and zero totals dropped; (piece,
    weight) pairs in order of first appearance."""
    acc = {}
    for idx, piece in refine_cells([c for c, _ in weighted_cells]):
        k, m = piece.key(), weighted_cells[idx][1]
        acc[k] = (piece, _add(acc[k][1], m) if k in acc else m)
    return [(p, m) for p, m in acc.values() if (any(m) if isinstance(m, tuple) else m != 0)]


def normalize_weighted(ambient_dim, weighted_cells):
    """Canonical overlay of weighted cells sharing an affine hull.

    Each affine hull is overlaid on its own, so cells in different hulls
    are never cut by each other. Sums, equality tests and connectivity
    need no more: weights cancel only within one hull.
    """
    groups = {}
    for c, m in weighted_cells:
        m = Fraction(m)
        if m == 0 or c.is_empty:
            continue
        key = c.hrep()[1]
        groups.setdefault(key, []).append((c, m))
    out = []
    for members in groups.values():
        out.extend(_overlay(members))
    return cycle(ambient_dim, out)


def cycle_sum(x: TropicalCycle, y: TropicalCycle):
    if x.ambient_dim != y.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    if x.is_zero:
        return normalize_weighted(y.ambient_dim, y.weighted_cells())
    if y.is_zero:
        return normalize_weighted(x.ambient_dim, x.weighted_cells())
    if x.dim != y.dim:
        raise DimensionError("cycle dimensions differ")
    return normalize_weighted(x.ambient_dim, x.weighted_cells() + y.weighted_cells())


def cycles_equal(x: TropicalCycle, y: TropicalCycle):
    """Equality as tropical cycles, modulo refinement."""
    if x.ambient_dim != y.ambient_dim:
        return False
    if not (x.is_zero or y.is_zero) and x.dim != y.dim:
        return False
    return cycle_sum(x, scalar(-1, y)).is_zero


def _ridge_index(cells):
    """Ridge key -> (ridge, (cell index, facet row) of each cell having
    it as a facet), in order of first appearance; a caller takes each
    ridge's lattice and hull once, however many cells share it."""
    ridges = {}
    for idx, c in enumerate(cells):
        for row, f in zip(c.hrep()[0], c.facets()):
            ridges.setdefault(f.key(), (f, []))[1].append((idx, row))
    return ridges


def _normal_in_quotient(qmat, sigma: Polyhedron, row):
    """Primitive image of sigma's direction lattice in the quotient by
    the directions of its facet on the row (a, b), signed to point into
    sigma. The facet's directions are dir sigma ∩ a^⊥, so a generator g
    of sigma's lattice that qmat does not kill has a.g != 0, and a.g < 0
    points into sigma, where a.x <= b."""
    g = next(g for g in sigma.direction_lattice().generators if not vec_is_zero(mat_vec(qmat, g)))
    img = primitive(mat_vec(qmat, g))
    return img if vec_dot(row[: sigma.ambient_dim], g) < 0 else tuple(-a for a in img)


def is_balanced(x: TropicalCycle):
    """Exact balancing test, one affine hull of ridges at a time.

    Each facet of a cell carries the cell's weight times its primitive
    normal in the quotient lattice by the facet directions, signed by its
    facet row, and the facets of one hull are overlaid. The ridges are
    walked once each (`_ridge_index`): a ridge takes one quotient map and
    one hull key for all the cells having it as a facet. Refining a cell
    adds inner ridges whose two normals cancel, so no cell needs
    refining. Returns (flag, failures): the (ridge, defect) pieces whose
    sum does not vanish, sorted by key.
    """
    hulls = {}
    for f, members in _ridge_index(x.cells).values():
        qmat = quotient_matrix(f.direction_lattice())
        facets = hulls.setdefault(f.hrep()[1], [])
        for idx, row in members:
            normal = _normal_in_quotient(qmat, x.cells[idx], row)
            facets.append((f, tuple(x.multiplicities[idx] * a for a in normal)))
    failures = []
    for facets in hulls.values():
        failures.extend(_overlay(facets))
    failures.sort(key=lambda fm: fm[0].key())
    return not failures, failures


def balanced_cycle(ambient_dim, weighted_cells):
    """Constructor that insists on the balancing condition."""
    x = cycle(ambient_dim, weighted_cells)
    ok, failures = is_balanced(x)
    if not ok:
        raise ValidationError(f"cycle is not balanced at {len(failures)} ridge(s)")
    return x


def cartesian_product(x: TropicalCycle, y: TropicalCycle):
    if x.is_zero or y.is_zero:
        return zero_cycle(x.ambient_dim + y.ambient_dim)
    pairs = [
        (cx.times(cy), mx * my)
        for cx, mx in x.weighted_cells()
        for cy, my in y.weighted_cells()
    ]
    return cycle(x.ambient_dim + y.ambient_dim, pairs)


def pushforward(matrix, x: TropicalCycle):
    """Image cycle along an integer linear map, with fiber-count weights.

    The weight of an image facet piece is the sum over source facets
    covering it of the source weight times the index of the pushed
    direction lattice inside the image cell's saturated direction lattice.
    Requires the drop in dimension to be accounted for by global
    lineality collapsing, so that generic fibers are translates of one
    linear space and the count is finite.
    """
    m = len(matrix)
    n = x.ambient_dim
    matrix = [tuple(row) for row in matrix]
    if any(len(row) != n for row in matrix):
        raise DimensionError("matrix shape does not match the ambient dimension")
    if any(not isinstance(a, int) and Fraction(a).denominator != 1 for row in matrix for a in row):
        raise ValidationError("pushforward requires an integer matrix")
    matrix = [tuple(int(a) for a in row) for row in matrix]
    if x.is_zero:
        return zero_cycle(m)
    images = [c.image(matrix) for c in x.cells]
    k_img = max(img.dim for img in images)
    ker = LatticeSubgroup.from_vectors(n, integer_kernel([tuple(row) for row in matrix]))
    lin_drop = intersect_lattices(x.lineality_lattice(), ker).rank
    if k_img != x.dim - lin_drop:
        raise ValidationError(
            "pushforward collapses a facet beyond the global lineality; "
            f"image dimension {k_img}, expected {x.dim - lin_drop}"
        )
    weighted = []
    for img, mult, src in zip(images, x.multiplicities, x.cells):
        if img.dim != k_img:
            continue
        pushed = LatticeSubgroup.from_vectors(
            m, [mat_vec(matrix, g) for g in src.direction_lattice().generators]
        )
        # every piece of img has img's direction lattice, hence this index
        index = lattice_index(img.direction_lattice(), pushed)
        if index is None:
            raise ValidationError("pushed lattice does not span the image cell")
        weighted.append((img, mult * index))
    return cycle(m, _overlay(weighted))


@dataclass(frozen=True)
class GenericVector:
    """A displacement certified to avoid finitely many proper subspaces."""

    vector: tuple
    prime: int
    spans_avoided: int


def _primes():
    yield 2
    found = [2]
    q = 3
    while True:
        if all(q % p for p in found):
            found.append(q)
            yield q
        q += 2


def pick_generic_vector(ambient_dim, avoid: list) -> GenericVector:
    """Deterministic vector outside every given proper subspace.

    Candidates are the moment-curve vectors (1, p, p^2, ...) over
    increasing primes p; a fixed rational hyperplane contains at most
    ambient_dim - 1 of them, so the search terminates.
    """
    spans = []
    seen = set()
    for lat in avoid:
        if lat.rank >= ambient_dim:
            raise ValidationError("cannot avoid a full-dimensional subspace")
        if lat.generators not in seen:
            seen.add(lat.generators)
            spans.append(lat)
    budget = max(2, len(spans) * max(ambient_dim - 1, 1) + 1)
    gen = _primes()
    for _ in range(budget):
        p = next(gen)
        v = tuple(p**i for i in range(ambient_dim))
        if all(
            int_rank(lat.generators + (v,)) == lat.rank + 1 for lat in spans
        ):
            return GenericVector(v, p, len(spans))
    raise GenericityError("exhausted the candidate prime budget")
