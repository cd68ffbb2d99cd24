"""Stable intersection of tropical cycles.

The primary engine evaluates the displacement definition directly, one
cell pair at a time (the fan displacement rule): a pair whose direction
lattices sum to full rank, whose intersection has the expected
dimension, and whose links C_x, C_y at an interior point of it still
meet after C_y is moved by a certified generic displacement vector v
adds m_sigma * m_tau * [Z^n : N_sigma + N_tau] on that intersection.
Every test reads the cells' integer canonical rows and converts nothing:
`link_difference` decides the span from the echelon of both cells'
equality normals, then the dimension, by the origin, by signs on a line,
or else by one LP, and gives the integer rows g of C_x - C_y, found by
one elimination; v then passes when every g·v >= 0, with no LP. Where
the intersection is a point, this is the mixed-cell test of the tropical
Bernstein count. Only a pair that passes takes the Hermite form of its
lattice sum and builds its intersection. The vector v avoids the spans
of the rank-deficient face-lattice pairs, each found by a fraction-free
rank test; a pair nested in one side's span sums to that side, and only
the others take a Hermite form (`displacement_vector`). A self-product,
two factors with equal cells (h . h, or the overlay of h times h in
`stable_power`), decides each unordered pair once: (j, i) takes the rows
of (i, j), or its None, and passes when every g·v <= 0, since
C_j - C_i = -(C_i - C_j); each unordered face-lattice pair is
rank-tested once. The terms are overlaid one affine hull at a time
(`normalize_weighted`), so the overlay never sees two hulls at once.
A product with the one cell c · Q^n is read off as c times that overlay
of the other factor, with no run (`stable_intersection`).

The perturbation route cross-checks the engine: intersect X with Y
shifted by v itself, then read the limit eps -> 0 of the shift eps * v
off the recession cones of the pieces (exact for fan cycles, where the
pieces for eps * v are those for v scaled by eps). The diagonal route is
a test oracle.

The displacement rule holds for weights of either sign: the weight
formula is bilinear in the weights of the two inputs, so cycles with
negative weights go through the same single engine run. The perturbation
route accepts positive weights only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from stabletrop.cycles import (
    GenericVector,
    TropicalCycle,
    ambient_cycle,
    cycle,
    normalize_weighted,
    pick_generic_vector,
    scalar,
    zero_cycle,
)
from stabletrop.errors import DimensionError, ValidationError
from stabletrop.lattices import (
    int_rank,
    lattice_index,
    standard_lattice,
    sum_lattices,
    vec_dot,
)
from stabletrop.polyhedra import Polyhedron, link_difference


# Python's default limit on the digits of an int written as text
MAX_DIGITS = 4300
TOO_LONG = 10**MAX_DIGITS


@dataclass(frozen=True)
class FacetContribution:
    """One cell pair's term, carried by the pair's intersection, a cell of
    the run's cycle; indices point into the input cells."""

    x_cell: int
    y_cell: int
    index: Fraction
    term: Fraction


@dataclass(frozen=True)
class IntersectionTerm:
    """Result of one engine run, with provenance; `sign` is always 1."""

    sign: int
    result: TropicalCycle
    generic: GenericVector
    contributions: tuple  # tuple of tuples of FacetContribution, parallel to result.cells


@dataclass(frozen=True)
class IntersectionReport:
    result: TropicalCycle
    terms: tuple


def displacement_vector(x: TropicalCycle, y: TropicalCycle) -> GenericVector:
    """Certified generic displacement for the pair (x, y): avoids the span
    of every deficient face pair, hence the codimension-one skeleton of
    the Minkowski differences of all links. A pair's rank is decided by
    fraction-free elimination (`int_rank`). The lattices are saturated,
    so a deficient pair whose rank is one side's rank is nested in that
    side, which is its sum; only the other deficient pairs take the
    Hermite form of their sum, the span to avoid. When the factors have
    equal cells, both sides have the same lattices and the sum does not
    depend on the order, so each unordered pair is tested once; the
    spans are deduplicated anyway (`pick_generic_vector`), so the
    certificate is the same. A face shared by several cells is one face
    (`key`): the faces are deduplicated in order of first appearance
    before any lattice is taken, so each distinct face's lattice is
    computed once and the lattices keep their order."""
    n = x.ambient_dim
    faces = lambda z: dict.fromkeys(f for c in z.cells for f in c.all_faces())
    face_lattices = lambda z: list(dict.fromkeys(f.direction_lattice() for f in faces(z)))
    same = x.cells == y.cells
    lx = face_lattices(x)
    ly = lx if same else face_lattices(y)
    avoid = []
    for i, a in enumerate(lx):
        for b in ly[i:] if same else ly:
            rank = int_rank(a.generators + b.generators)
            if rank < n:
                avoid.append(a if rank == a.rank else b if rank == b.rank else sum_lattices(a, b))
    return pick_generic_vector(n, avoid)


def stable_intersection_report(x: TropicalCycle, y: TropicalCycle) -> IntersectionReport:
    """Displacement-definition engine with its audit trail.

    Every cell pair, in row order, goes through `link_difference`, which
    drops a pair that does not span or whose intersection lacks the
    expected dimension; each other pair adds its term on that
    intersection when the displaced links meet. The relative interior of
    the intersection lies in the relative interior of one face of each
    cell, so testing one interior point decides it. When the factors
    have equal cells, (j, i) tests the rows of (i, j) with the sign
    turned, kept for this run only. Terms overlapping within one affine
    hull add up in the result."""
    if x.ambient_dim != y.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    n = x.ambient_dim
    if x.is_zero or y.is_zero or x.dim + y.dim < n:
        return IntersectionReport(zero_cycle(n), ())
    gen = displacement_vector(x, y)
    amb = standard_lattice(n)
    weighted = []
    contribs = {}
    same = x.cells == y.cells
    decided = {}
    for i, sx in enumerate(x.cells):
        for j, sy in enumerate(y.cells):
            sign = -1 if same and j < i else 1
            rows = decided[j, i] if sign < 0 else decided.setdefault((i, j), link_difference(sx, sy))
            if rows is None or any(sign * vec_dot(g, gen.vector) < 0 for g in rows):
                continue
            idx = lattice_index(amb, sum_lattices(sx.direction_lattice(), sy.direction_lattice()))
            w = sx.intersect(sy)
            term = x.multiplicities[i] * y.multiplicities[j] * idx
            weighted.append((w, term))
            contribs.setdefault(w.key(), []).append(FacetContribution(i, j, idx, term))
    z = cycle(n, weighted)
    term = IntersectionTerm(1, z, gen, tuple(tuple(contribs[c.key()]) for c in z.cells))
    return IntersectionReport(normalize_weighted(n, z.weighted_cells()), (term,))


def stable_intersection(x: TropicalCycle, y: TropicalCycle) -> TropicalCycle:
    """The engine's result, read off without a run where a factor is the
    one cell Q^n with weight c: the engine returns c times the overlay of
    the other factor (`normalize_weighted`)."""
    for s, t in ((x, y), (y, x)):
        n = s.ambient_dim
        if s.codim == 0 and t.ambient_dim == n and s.cells == (Polyhedron.ambient(n),):
            return scalar(s.multiplicities[0], normalize_weighted(n, t.weighted_cells()))
    return stable_intersection_report(x, y).result


def stable_power(x: TropicalCycle, k: int) -> TropicalCycle:
    """k-fold stable self-intersection; the empty product is Q^n with
    weight one.

    Q^n . x, the overlay of x, takes no engine run (`stable_intersection`),
    so k >= 1 runs k - 1 engine products. In codimension zero every
    product is pointwise, so the power raises the weights of that overlay;
    they grow with k unless each is 1 or -1, and a weight with more than
    MAX_DIGITS digits, too long to write out, is refused.
    """
    if k < 0:
        raise ValidationError("negative stable power")
    if k == 0:
        return ambient_cycle(x.ambient_dim)
    acc = stable_intersection(ambient_cycle(x.ambient_dim), x)
    if x.codim == 0:
        for m in acc.multiplicities:
            for part in (abs(m.numerator), m.denominator):
                # part**k >= 2**((bits - 1) * k); only small powers get computed
                if (part.bit_length() - 1) * k >= TOO_LONG.bit_length() or part**k >= TOO_LONG:
                    raise ValidationError(
                        f"weight {m} to the power {k} has more than {MAX_DIGITS} digits"
                    )
        return TropicalCycle(acc.ambient_dim, acc.cells, tuple(m**k for m in acc.multiplicities))
    for _ in range(k - 1):
        if acc.is_zero:
            break
        acc = stable_intersection(acc, x)
    return acc


# -------------------------------------------------------- perturbation route


@dataclass(frozen=True)
class PerturbationResult:
    transverse: TropicalCycle
    limit: TropicalCycle
    vector: GenericVector


def _require_fan(x: TropicalCycle, label):
    for c in x.cells:
        if not c.is_cone:
            raise ValidationError(f"perturbation route requires fan cycles; {label} is not a fan")


def perturbation_intersection(x: TropicalCycle, y: TropicalCycle) -> PerturbationResult:
    """Exact perturbation engine for fan cycles.

    Intersects x with y translated by a certified generic v itself: for
    cones, sigma ∩ (tau + eps v) = eps (sigma ∩ (tau + v)) for every
    eps > 0, so neither the pieces' pattern nor their recession cones
    depend on eps. The limit cycle collects the recession cones of the
    transverse pieces. Every cell pair is intersected, and a pair that
    meets has v inside sigma - tau. That cone lies in span(N_sigma +
    N_tau), which v avoids when it is deficient (`all_faces` lists each
    cell among its faces), so only spanning pairs meet; the boundary of
    sigma - tau lies in spans of deficient face pairs, so each piece is
    transverse. The limit must coincide with the stable intersection;
    the transverse cycle is the displaced witness.
    Where an input is zero or the expected dimension is negative, both
    are the zero cycle, as in the engine.
    """
    if x.ambient_dim != y.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    n = x.ambient_dim
    _require_fan(x, "first input")
    _require_fan(y, "second input")
    for m in x.multiplicities + y.multiplicities:
        if m < 0:
            raise ValidationError("perturbation route requires positive weights")
    gen = displacement_vector(x, y)
    if x.is_zero or y.is_zero or x.dim + y.dim < n:
        # no pair spans, as in the engine: the zero cycle
        return PerturbationResult(zero_cycle(n), zero_cycle(n), gen)
    k_res = x.dim + y.dim - n
    amb = standard_lattice(n)
    weighted = []
    limit = []
    for sx, mx in x.weighted_cells():
        for sy, my in y.weighted_cells():
            w = sx.intersect(sy.translate(gen.vector))
            if w.is_empty:
                continue
            lat = sum_lattices(sx.direction_lattice(), sy.direction_lattice())
            term = mx * my * lattice_index(amb, lat)
            weighted.append((w, term))
            rec = w.recession()
            if rec.dim == k_res:
                limit.append((rec, term))
    return PerturbationResult(cycle(n, weighted), cycle(n, limit), gen)
