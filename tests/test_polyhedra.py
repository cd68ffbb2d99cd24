"""Polyhedron layer: double description, canonical forms, faces, refinement.

The cross-route membership checks compare the H-side test (inequality
evaluation) against an LP over the V-side generators, two routes that
share no conversion code.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_hrep,
    canonical_vrep,
    hrep_all_faces,
    hrep_dim,
    hrep_facets,
    intersect_then_link,
    link_at,
    lp_cut,
    split_point_in_sum,
    triangulation_volume,
    vgen_member,
)
from stabletrop import polyhedra, polytopes
from stabletrop.errors import ValidationError
from stabletrop.lattices import LatticeSubgroup, sum_lattices, vec_dot
from stabletrop.linprog import feasible_point
from stabletrop.polyhedra import (
    Polyhedron,
    _cut,
    _hyperplanes_of,
    is_polyhedral_complex,
    link_difference,
    point_in_sum,
    refine_cells,
)
from stabletrop.polytopes import polytope, tropical_hypersurface

small_int = st.integers(min_value=-3, max_value=3)


def ivec(n):
    return st.lists(small_int, min_size=n, max_size=n).map(tuple)


# -------------------------------------------------------------- conversions


def test_square_hrep_to_vrep():
    sq = Polyhedron.from_hrep(
        2,
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)],
    )
    pts, rays, lin = sq.vrep()
    assert pts == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert rays == () and lin == ()
    assert sq.dim == 2 and sq.is_bounded


def test_simplex_vrep_to_hrep():
    tri = Polyhedron.from_vrep(2, [(0, 0), (1, 0), (0, 1)])
    ineqs, eqs = tri.hrep()
    assert eqs == ()
    assert set(ineqs) == {(-1, 0, 0), (0, -1, 0), (1, 1, 1)}


def test_line_canonical_lineality():
    line = Polyhedron.from_hrep(2, eqs=[((1, -1), 0)])
    pts, rays, lin = line.vrep()
    assert lin == ((1, 1),)
    assert rays == ()
    assert pts == ((0, 0),)
    assert line.dim == 1


def test_halfplane():
    h = Polyhedron.from_hrep(2, [((-1, 0), 0)])
    pts, rays, lin = h.vrep()
    assert lin == ((0, 1),)
    assert rays == ((1, 0),)
    assert h.dim == 2


def test_empty_detection():
    e = Polyhedron.from_hrep(1, [((1,), 0), ((-1,), -1)])
    assert e.is_empty
    assert e.dim == -1
    assert not e.contains((0,))
    assert Polyhedron.from_vrep(2, []).is_empty


def test_emptiness_is_read_off_the_conversion(monkeypatch):
    # built from rows, a polyhedron is empty when its conversion finds no
    # point: is_empty makes no LP and one _dd, which vrep() and key()
    # reuse; built from generators, it is empty when it has no point, and
    # is_empty makes no _dd
    assert "known_nonempty" not in inspect.signature(Polyhedron.from_hrep).parameters
    lps, dds = [], []
    lp, dd = polyhedra.feasible_point, polyhedra._dd
    monkeypatch.setattr(polyhedra, "feasible_point", lambda *a, **k: lps.append(a) or lp(*a, **k))
    monkeypatch.setattr(polyhedra, "_dd", lambda *a: dds.append(a) or dd(*a))
    for ineqs, empty in (
        ([((1, 0), 1), ((-1, 0), -2)], True),
        ([((0, 0), -1)], True),
        ([((1, 1), -1)], False),
        ([((1, 0), 1), ((0, -1), 0)], False),
    ):
        p = Polyhedron.from_hrep(2, ineqs)
        assert p.is_empty == empty
        assert (len(lps), len(dds)) == (0, 1)
        p.vrep(), p.key()
        assert len(dds) == 1
        dds.clear()
    for p, empty in (
        (Polyhedron.from_vrep(2, [(0, 0), (1, 2)], [(1, 0)]), False),
        (Polyhedron.from_vrep(2, []), True),
        (Polyhedron.empty(2), True),
    ):
        assert p.is_empty == empty
    assert (lps, dds) == ([], [])


@st.composite
def h_systems(draw):
    """(n, ineqs, eqs) in Q^1 to Q^4 with rational right-hand sides, often
    with zero-normal rows 0 <= b and 0 = d."""
    n = draw(st.integers(1, 4))
    rhs = st.builds(Fraction, small_int, st.sampled_from((1, 2, 3)))
    normal = st.one_of(ivec(n), st.just((0,) * n))
    rows = st.tuples(normal, rhs)
    return n, draw(st.lists(rows, max_size=n + 3)), draw(st.lists(rows, max_size=2))


@given(h_systems(), st.data())
def test_emptiness_matches_the_lp(system, data):
    # emptiness read off the conversion against the LP on the same rows:
    # the same answer, dimension -1 exactly when empty, membership as the
    # rows evaluate, and every operation on an empty polyhedron empty
    n, ineqs, eqs = system
    p = Polyhedron.from_hrep(n, ineqs, eqs)
    witness = feasible_point(n, ineqs, eqs)
    assert p.is_empty == (witness is None)
    assert (p.dim == -1) == p.is_empty
    for x in [data.draw(fvec(n))] + ([] if witness is None else [witness]):
        rows_hold = all(vec_dot(a, x) <= b for a, b in ineqs) and all(vec_dot(c, x) == d for c, d in eqs)
        assert p.contains(x) == rows_hold
    if p.is_empty:
        q = data.draw(cut_cells(n))
        matrix = data.draw(st.lists(ivec(n), min_size=1, max_size=3))
        results = [p.translate(data.draw(fvec(n))), p.intersect(q), q.intersect(p), p.minkowski(q)]
        results += [q.minkowski(p), p.image(matrix), p.times(q), q.times(p)]
        assert all(r.is_empty and r.dim == -1 for r in results)


def test_unbounded_cone():
    c = Polyhedron.cone_from_rays(2, [(1, 0), (1, 2)])
    assert c.is_cone
    pts, rays, lin = c.vrep()
    assert rays == ((1, 0), (1, 2))
    ineqs, eqs = c.hrep()
    # the cone is {0 <= y <= 2x}
    assert set(ineqs) == {(0, -1, 0), (-2, 1, 0)}


def test_point_polyhedron():
    p = Polyhedron.point((Fraction(1, 2), 3))
    assert p.dim == 0
    assert p.contains((Fraction(1, 2), 3))
    assert not p.contains((0, 0))
    assert p.vrep() == (((Fraction(1, 2), 3),), (), ())


def test_redundant_generators_removed():
    p = Polyhedron.from_vrep(1, [(0,), (1,), (2,)])
    assert p.vrep()[0] == ((0,), (2,))


def test_redundant_inequalities_removed():
    p = Polyhedron.from_hrep(1, [((1,), 1), ((1,), 2), ((-1,), 0)])
    assert p.ineq_rows == ((-1, 0), (1, 1))


def test_vrep_of_ambient():
    a = Polyhedron.ambient(2)
    pts, rays, lin = a.vrep()
    assert pts == ((0, 0),) and rays == ()
    assert lin == ((1, 0), (0, 1))
    assert a.hrep() == ((), ())


# ------------------------------------------------------------- cross routes


@given(
    st.lists(ivec(2), min_size=1, max_size=4),
    st.lists(ivec(2), min_size=0, max_size=2),
    ivec(2),
)
def test_membership_two_routes_2d(points, rays, probe):
    p = Polyhedron.from_vrep(2, points, rays)
    assert p.contains(probe) == vgen_member(points, rays, [], probe)


@given(
    st.lists(ivec(3), min_size=1, max_size=4),
    st.lists(ivec(3), min_size=0, max_size=2),
    st.lists(ivec(3), min_size=0, max_size=1),
    ivec(3),
)
@settings(max_examples=40)
def test_membership_two_routes_3d(points, rays, lin, probe):
    p = Polyhedron.from_vrep(3, points, rays, lin)
    assert p.contains(probe) == vgen_member(points, rays, lin, probe)


@given(st.lists(ivec(2), min_size=1, max_size=4), st.lists(ivec(2), min_size=0, max_size=2))
def test_roundtrip_idempotent(points, rays):
    p = Polyhedron.from_vrep(2, points, rays)
    q = Polyhedron.from_vrep(2, *[list(x) for x in p.vrep()])
    assert p == q
    r = Polyhedron.from_hrep(2, [(row[:2], row[2]) for row in p.ineq_rows], [(row[:2], row[2]) for row in p.eq_rows])
    assert r == p


@given(st.lists(ivec(2), min_size=1, max_size=4))
def test_interior_point_in_relint(points):
    p = Polyhedron.from_vrep(2, points)
    w = p.interior_point()
    assert p.relint_contains(w)
    assert p.contains(w)


def fvec(n):
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5)))
    return st.lists(entry, min_size=n, max_size=n).map(tuple)


@st.composite
def redundant_cells(draw, n):
    """A V-built cell with Fraction points, rays and lineality, plus the
    midpoint of two points, the sum of two rays and a multiple of a
    lineality vector; or an H-built cell with Fraction right-hand sides,
    plus the sum of two rows loosened by one and a multiple of an
    equality."""
    if draw(st.booleans()):
        pts = draw(st.lists(fvec(n), min_size=1, max_size=4))
        rays = draw(st.lists(ivec(n), max_size=2))
        lin = draw(st.lists(ivec(n), max_size=2))
        pts.append(tuple((a + b) / 2 for a, b in zip(pts[0], pts[-1])))
        rays += [tuple(map(sum, zip(*rays)))] if rays else []
        lin += [tuple(2 * a for a in lin[0])] if lin else []
        return Polyhedron.from_vrep(n, pts, rays, lin)
    rhs = st.builds(Fraction, small_int, st.sampled_from((1, 2)))
    rows = draw(st.lists(st.tuples(ivec(n), rhs), max_size=n + 2))
    eqs = draw(st.lists(st.tuples(ivec(n), small_int), max_size=1))
    if len(rows) >= 2:
        (a, b), (c, d) = rows[:2]
        rows.append((tuple(x + y for x, y in zip(a, c)), b + d + 1))
    eqs += [(tuple(3 * x for x in a), 3 * b) for a, b in eqs]
    return Polyhedron.from_hrep(n, rows, eqs)


@st.composite
def combination(draw, basis, width):
    """An integer combination of the basis rows, each of the given width."""
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    return tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(width))


@st.composite
def non_saturated_basis(draw, rows, width):
    """Another basis of the span of the rows: row i scaled by a nonzero
    integer (often a sublattice) plus a combination of the earlier rows."""
    out = []
    for i, r in enumerate(rows):
        m = draw(st.sampled_from((-2, -1, 1, 2, 3)))
        shift = draw(combination(rows[:i], width))
        out.append(tuple(m * a + b for a, b in zip(r, shift)))
    return out


@st.composite
def scaled_and_shifted(draw, rows, basis, width):
    """Each row times a positive integer plus a combination of the basis
    rows: the same ray, or the same inequality on the affine hull."""
    out = []
    for r in rows:
        k, shift = draw(st.integers(1, 3)), draw(combination(basis, width))
        out.append(tuple(k * a + b for a, b in zip(r, shift)))
    return out


@given(st.data())
def test_canonical_forms_match_fraction_reducer(data):
    # a cell re-presented with its points and rays shifted along the
    # lineality, its rays scaled and its lineality by a basis that need not
    # be saturated, and likewise on the H side: the canonical forms from
    # the integer reduction inside _dd are those of the Fraction rref
    # modulo the saturated lineality, and those of the cell itself
    n = data.draw(st.integers(1, 4))
    cell = data.draw(redundant_cells(n))
    if cell.is_empty:
        return
    pts, rays, lin = cell.vrep()
    lin2 = data.draw(non_saturated_basis(lin, n))
    pts2 = [tuple(a + b for a, b in zip(p, data.draw(combination(lin, n)))) for p in pts]
    rays2 = data.draw(scaled_and_shifted(rays, lin, n))
    v = Polyhedron.from_vrep(n, pts2, rays2, lin2)
    assert v.vrep() == canonical_vrep(n, pts2, rays2, lin2) == cell.vrep()
    ineqs, eqs = cell.hrep()
    eqs2 = data.draw(non_saturated_basis(eqs, n + 1))
    ineqs2 = data.draw(scaled_and_shifted(ineqs, eqs, n + 1))
    h = Polyhedron.from_hrep(n, [(r[:n], r[n]) for r in ineqs2], [(r[:n], r[n]) for r in eqs2])
    assert h.hrep() == canonical_hrep(n, ineqs2, eqs2) == cell.hrep()
    assert h.vrep() == cell.vrep()


@st.composite
def row_systems(draw, n):
    """(cell, ineq rows, eq rows, facet rows, eq basis): a V-drawn cell
    with points, rays and lineality, given by its facet rows scaled and
    shifted along its equalities, one of them repeated, a redundant row,
    and each equality either as a row of another basis or as a pair of
    inequalities; sometimes a row that contradicts the others makes it
    empty."""
    pts = draw(st.lists(fvec(n), min_size=1, max_size=4))
    rays = draw(st.lists(ivec(n), max_size=2))
    lin = draw(st.lists(ivec(n), max_size=2))
    cell = Polyhedron.from_vrep(n, pts, rays, lin)
    ineqs, eqs = cell.hrep()
    facets = draw(scaled_and_shifted(ineqs, eqs, n + 1))
    basis = draw(non_saturated_basis(eqs, n + 1))
    rows = list(facets)
    if rows:
        rows.append(draw(st.sampled_from(rows)))
    if len(rows) >= 2:
        rows.append(tuple(a + b for a, b in zip(rows[0], rows[1]))[:n] + (rows[0][n] + rows[1][n] + 1,))
    pairs = [e for e in basis if draw(st.booleans())]
    rows += pairs + [tuple(-a for a in e) for e in pairs]
    if draw(st.integers(0, 4)) == 0:
        a, b = (rows[0][:n], rows[0][n]) if rows else ((0,) * n, 0)
        rows.append(tuple(-x for x in a) + (-b - 1,))
        cell = Polyhedron.empty(n)
    return cell, rows, [e for e in basis if e not in pairs], facets, basis


@given(st.data())
def test_row_built_hrep_is_read_off_the_rows(data):
    # built from rows, the canonical H-rep is read off the rows and the
    # canonical generators with no dual _dd: it is the H-rep the dual _dd
    # gives a copy built from the canonical V-rep, and that of the drawn
    # cell and of the Fraction reducer on its facet rows; random rows,
    # halfspaces and affine subspaces, often empty, agree with the copy too
    n = data.draw(st.integers(1, 4))
    cell, rows, eq_rows, facets, basis = data.draw(row_systems(n))
    p = Polyhedron.from_hrep(n, [(r[:n], r[n]) for r in rows], [(e[:n], e[n]) for e in eq_rows])
    assert p.hrep() == cell.hrep()
    assert cell.is_empty or p.hrep() == canonical_hrep(n, facets, basis)
    for q in (p, data.draw(h_cells(n))):
        copy = Polyhedron.from_vrep(n, *q.vrep())
        assert q.hrep() == copy.hrep() and q._incidence() == copy._incidence()


# --------------------------------------------------------------- operations


def test_intersect_squares():
    a = Polyhedron.from_vrep(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    b = a.translate((1, 1))
    c = a.intersect(b)
    assert c.vrep()[0] == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_minkowski_segments_make_square():
    s1 = Polyhedron.from_vrep(2, [(0, 0), (1, 0)])
    s2 = Polyhedron.from_vrep(2, [(0, 0), (0, 1)])
    sq = s1.minkowski(s2)
    assert sq.vrep()[0] == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_image_projection():
    tri = Polyhedron.from_vrep(2, [(0, 0), (2, 0), (0, 3)])
    seg = tri.image([(1, 0)])
    assert seg.ambient_dim == 1
    assert seg.vrep()[0] == ((0,), (2,))


def test_times_product():
    s = Polyhedron.from_vrep(1, [(0,), (1,)])
    sq = s.times(s)
    assert sq.ambient_dim == 2
    assert len(sq.vrep()[0]) == 4


def test_recession_and_reflect():
    p = Polyhedron.from_vrep(2, [(1, 0)], rays=[(1, 1)])
    rec = p.recession()
    assert rec.is_cone and rec.vrep()[1] == ((1, 1),)
    rp = p.image([(-1, 0), (0, -1)])
    assert rp.contains((-1, 0)) and rp.contains((-2, -1))


def test_link_at_vertex():
    sq = Polyhedron.from_vrep(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    cone = link_at(sq, (0, 0))
    assert cone.is_cone
    assert cone.vrep()[1] == ((0, 1), (1, 0))
    inner = link_at(sq, (Fraction(1, 2), Fraction(1, 2)))
    assert inner == Polyhedron.ambient(2)
    with pytest.raises(ValidationError):
        link_at(sq, (5, 5))


def test_link_at_edge_point():
    sq = Polyhedron.from_vrep(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    cone = link_at(sq, (Fraction(1, 2), 0))
    pts, rays, lin = cone.vrep()
    assert lin == ((1, 0),) and rays == ((0, 1),)


# -------------------------------------------------------------------- faces


def test_faces_of_square():
    sq = Polyhedron.from_vrep(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    facets = sq.facets()
    assert len(facets) == 4
    assert all(f.dim == 1 for f in facets)
    faces = sq.all_faces()
    assert len(faces) == 9
    assert sorted(f.dim for f in faces) == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_faces_of_cone_with_lineality():
    c = Polyhedron.from_hrep(3, [((0, 0, -1), 0)])
    # halfspace: faces are itself and its boundary plane
    faces = c.all_faces()
    assert len(faces) == 2
    assert sorted(f.dim for f in faces) == [2, 3]


def test_minimal_face_and_is_face():
    # the bottom edge is the smallest face holding (1/2, 0), and its
    # corner the smallest holding (0, 0); half the edge is no face
    sq = Polyhedron.from_vrep(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    e = Polyhedron.from_vrep(2, [(0, 0), (1, 0)])
    assert e.is_face_of(sq) and Polyhedron.point((0, 0)).is_face_of(e)
    assert not Polyhedron.from_vrep(2, [(0, 0), (Fraction(1, 2), 0)]).is_face_of(sq)


def test_faces_need_no_conversion(monkeypatch):
    # faces are read off the cell's canonical V-rep: once a cell has both
    # representations, its faces and facets, with their keys, dimensions
    # and direction lattices, make no _dd call
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    cells = list(tropical_hypersurface(p).cells) + [p.polyhedron]
    for c in cells:
        c.vrep(), c.hrep()
    calls = []
    dd = polyhedra._dd
    monkeypatch.setattr(polyhedra, "_dd", lambda *a: calls.append(a) or dd(*a))
    faces = [f for c in cells for f in c.all_faces()]
    assert (len(cells), len(faces)) == (7, 39)
    faces += [f for c in cells for f in c.facets()]
    for f in faces:
        f.key(), f.dim, f.direction_lattice()
    assert calls == []


def test_face_queries_compute_each_incidence_once(monkeypatch):
    # facets, all_faces and tropical_hypersurface read one cached incidence
    # of the body: with both representations computed, two rounds of them
    # make one integer dot per facet row and vertex (five times as many
    # when each call tested the rows itself)
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0), (1, 2, 2)])
    body = p.polyhedron
    (ineqs, _), verts = body.hrep(), body.vrep()[0]
    dots = []
    for module in (polyhedra, polytopes):
        if hasattr(module, "vec_dot"):
            monkeypatch.setattr(module, "vec_dot", lambda a, b: dots.append(1) or vec_dot(a, b))
    for _ in range(2):
        body.facets(), body.all_faces(), tropical_hypersurface(p)
    assert (len(ineqs), len(verts), len(dots)) == (5, 5, 25)


def test_rows_are_made_primitive_at_the_door(monkeypatch):
    # the canonical rows are primitive integer tuples, so intersecting and
    # refining cells whose representations are computed, and converting
    # the results, make no rational_to_primitive call (one per row and
    # per constraint of each conversion before)
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    cells = list(tropical_hypersurface(p).cells) + [p.polyhedron, p.polyhedron.translate((1, 0, 0))]
    for c in cells:
        c.vrep(), c.hrep(), c.dim
    calls = []
    f = polyhedra.rational_to_primitive
    monkeypatch.setattr(polyhedra, "rational_to_primitive", lambda v: calls.append(v) or f(v))
    pieces = [piece for _, piece in refine_cells(cells)]
    pieces += [a.intersect(b) for a in cells for b in cells]
    for piece in pieces:
        piece.vrep()
    assert len(pieces) > 100 and calls == []


def test_direction_lattice():
    seg = Polyhedron.from_vrep(2, [(0, 0), (2, 4)])
    assert seg.direction_lattice() == LatticeSubgroup.from_vectors(2, [(1, 2)])
    plane = Polyhedron.from_hrep(3, eqs=[((1, 1, 1), 0)])
    assert plane.direction_lattice().rank == 2


# --------------------------------------------------------- sums, refinement


def negated(p):
    n = p.ambient_dim
    return p.image([tuple(-1 if i == j else 0 for j in range(n)) for i in range(n)])


def test_point_in_sum():
    seg1 = Polyhedron.from_vrep(2, [(0, 0), (1, 0)])
    seg2 = Polyhedron.from_vrep(2, [(0, 0), (0, 1)])
    # sum: x in seg1 + seg2 = seg1 - (-seg2)
    assert point_in_sum(seg1, negated(seg2), (Fraction(1, 2), Fraction(1, 2)))
    assert not point_in_sum(seg1, negated(seg2), (2, 0))
    # difference: x in seg1 - seg2
    assert point_in_sum(seg1, seg2, (1, -1))
    assert not point_in_sum(seg1, seg2, (1, 1))
    assert not point_in_sum(seg1, Polyhedron.empty(2), (0, 0))


@given(ivec(2), ivec(2), ivec(2))
def test_point_in_sum_matches_minkowski(a, b, probe):
    p = Polyhedron.from_vrep(2, [(0, 0), a])
    q = Polyhedron.from_vrep(2, [(0, 0), b])
    assert point_in_sum(p, negated(q), probe) == p.minkowski(q).contains(probe)


def test_refine_cells_overlapping_squares():
    a = Polyhedron.from_vrep(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    b = a.translate((1, 1))
    pieces = refine_cells([a, b])
    assert sum(1 for i, _ in pieces if i == 0) == 4
    assert sum(1 for i, _ in pieces if i == 1) == 4
    assert is_polyhedral_complex([p for _, p in pieces])
    # pieces of a cover a: area check via the triangulation oracle
    total = sum(triangulation_volume(p.vrep()[0]) for i, p in pieces if i == 0)
    assert total == triangulation_volume(a.vrep()[0])


def test_refine_cells_mixed_dims():
    sq = Polyhedron.from_vrep(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    diag = Polyhedron.from_vrep(2, [(0, 0), (2, 2)])
    pieces = refine_cells([sq, diag])
    assert is_polyhedral_complex([p for _, p in pieces])
    dims = sorted(p.dim for _, p in pieces)
    assert dims == [1, 2, 2]


@st.composite
def cut_cells(draw, n):
    """A polytope, a cone with rays, a cell with lineality, a segment or a
    point; lower-dimensional ones are frequent at these sizes."""
    kind = draw(st.sampled_from(("polytope", "cone", "lineality", "segment", "point")))
    if kind == "cone":
        return Polyhedron.cone_from_rays(n, draw(st.lists(ivec(n), min_size=1, max_size=2)))
    size = {"polytope": (n + 1, n + 2), "segment": (2, 2), "point": (1, 1)}.get(kind, (1, 2))
    pts = draw(st.lists(ivec(n), min_size=size[0], max_size=size[1], unique=True))
    if kind != "lineality":
        return Polyhedron.from_vrep(n, pts)
    return Polyhedron.from_vrep(n, pts, draw(st.lists(ivec(n), max_size=2)), [draw(ivec(n))])


@given(st.data())
def test_cut_matches_lp_cut(data):
    # the cut by vertex signs against the cut by emptiness and dimension
    # tests: the same pieces in the same order, of the cell's dimension
    n = data.draw(st.sampled_from((2, 3)))
    normal = ivec(n).map(lambda a: a if any(a) else (1,) + a[1:])
    cell = data.draw(cut_cells(n))
    if data.draw(st.integers(0, 3)) == 0:
        # a cell lying in a hyperplane; its own equalities are among the planes
        a = data.draw(normal)
        cell = cell.intersect(Polyhedron.from_hrep(n, eqs=[(a, vec_dot(a, cell.vrep()[0][0]))]))
    others = data.draw(st.lists(cut_cells(n), max_size=2))
    known = _hyperplanes_of([cell] + others)
    planes = data.draw(st.lists(st.sampled_from(known), max_size=4, unique=True)) if known else []
    # planes through a relative interior point cross the cell unless it lies in them
    x = cell.interior_point()
    planes += [a + (vec_dot(a, x),) for a in data.draw(st.lists(normal, max_size=2))]
    planes += data.draw(st.lists(st.tuples(normal, small_int).map(lambda r: r[0] + r[1:]), max_size=2))
    planes = data.draw(st.permutations(planes))
    pieces, reference = _cut(cell, planes), lp_cut(cell, planes)
    assert [p.key() for p in pieces] == [p.key() for p in reference]
    assert [p.dim for p in pieces] == [p.dim for p in reference] == [cell.dim] * len(pieces)
    empty = Polyhedron.empty(n)
    assert [p.key() for p in _cut(empty, planes)] == [p.key() for p in lp_cut(empty, planes)]


@st.composite
def h_cells(draw, n):
    """A cell from random rows: halfspaces, cones, affine subspaces,
    often unbounded or empty."""
    rows = st.tuples(ivec(n), small_int)
    return Polyhedron.from_hrep(n, draw(st.lists(rows, max_size=n + 2)), draw(st.lists(rows, max_size=1)))


@given(st.data())
def test_faces_match_hrep_reference(data):
    # faces read off the V-rep against faces rebuilt from the H-rep with
    # their tight rows made equalities: the same faces in the same order,
    # of the same dimension
    n = data.draw(st.integers(1, 4))
    cell = data.draw(st.one_of(cut_cells(n), h_cells(n), st.just(Polyhedron.empty(n))))
    for faces, reference in ((cell.all_faces(), hrep_all_faces(cell)), (cell.facets(), hrep_facets(cell))):
        assert [f.key() for f in faces] == [f.key() for f in reference]
        assert [f.dim for f in faces] == [hrep_dim(f) for f in reference]


@st.composite
def sum_operands(draw, n):
    """A cell of `cut_cells` or `h_cells`, its link at one of its
    canonical points, or the empty polyhedron."""
    kind = draw(st.sampled_from(("cell", "link", "empty")))
    if kind == "empty":
        return Polyhedron.empty(n)
    cell = draw(st.one_of(cut_cells(n), h_cells(n)))
    if kind == "cell" or cell.is_empty:
        return cell
    return link_at(cell, draw(st.sampled_from(cell.vrep()[0])))


@given(st.data())
def test_point_in_sum_matches_split_lp(data):
    # the intersection test against the LP over the stacked coordinates
    # of both operands, with v on, inside, just outside and off P - Q
    n = data.draw(st.sampled_from((2, 3)))
    p, q = data.draw(sum_operands(n)), data.draw(sum_operands(n))
    probes = [data.draw(ivec(n))]
    if not (p.is_empty or q.is_empty):
        d = p.minkowski(negated(q))
        probes += [d.interior_point(), data.draw(st.sampled_from(d.vrep()[0]))]
        for row, s in zip(d.hrep()[0], d._incidence()):
            x = d._face(s).interior_point()
            probes += [x] + [tuple(a + t * b for a, b in zip(x, row[:n])) for t in (Fraction(1, 7), Fraction(-1, 7))]
    for v in probes:
        assert point_in_sum(p, q, v) == split_point_in_sum([p, q], v, [1, -1])


@st.composite
def fan_pairs(draw, n, spanning=True):
    """Two cones of hypersurface fans of lattice polytopes in [0, 2]^n,
    each a cell or a face of one, whose direction lattices sum to Z^n
    unless `spanning` is false; pairs meeting in a point (dimensions
    adding up to n) are frequent, and the two fans are often the same
    one."""
    coords = st.tuples(*[st.integers(0, 2)] * n)
    bodies = st.lists(coords, min_size=2, max_size=n + 2, unique=True).map(lambda pts: polytope(n, pts))
    fans = [tropical_hypersurface(draw(bodies)) for _ in range(2)]
    assume(all(fan.cells for fan in fans))
    if draw(st.booleans()):
        fans[1] = fans[0]
    p, q = (draw(st.sampled_from([f for c in fan.cells for f in c.all_faces()])) for fan in fans)
    assume(not spanning or sum_lattices(p.direction_lattice(), q.direction_lattice()).rank == n)
    return p, q


@st.composite
def meeting_pairs(draw, n, spanning=True):
    """Two cells of `cut_cells` whose direction lattices sum to Z^n unless
    `spanning` is false, the second often translated. Or a cell P and
    a facet F of it shifted along F, maybe widened by a ray along F or
    any ray: such a pair meets inside F, touches P in a lower dimension,
    overlaps P, or misses it. Or two cones of hypersurface fans
    (`fan_pairs`), which the origin decides with no LP."""
    kind = draw(st.sampled_from(("cells", "facet", "fans")))
    if kind == "fans":
        return draw(fan_pairs(n, spanning))
    p = draw(cut_cells(n))
    facets = p.facets()
    if facets and kind == "facet":
        f = draw(st.sampled_from(facets))
        gens = f.direction_lattice().generators
        along = st.lists(st.integers(-1, 1), min_size=len(gens), max_size=len(gens)).map(
            lambda cs: tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n))
        )
        q = f.translate(draw(along))
        ray = draw(st.one_of(st.none(), ivec(n), along))
        if ray is not None:
            q = q.minkowski(Polyhedron.cone_from_rays(n, [ray]))
    else:
        q = draw(cut_cells(n))
        q = q.translate(draw(st.lists(st.sampled_from((-1, 0, Fraction(1, 2), 1)), min_size=n, max_size=n)))
    assume(not spanning or sum_lattices(p.direction_lattice(), q.direction_lattice()).rank == n)
    return p, q


def difference_cone(n, rows):
    """The cone {v : g·v >= 0 for every row g}."""
    return Polyhedron.from_hrep(n, [(tuple(-x for x in g), 0) for g in rows])


@given(st.data())
def test_link_difference_matches_intersect_then_link(data):
    # the pair test on the cells' rows against the engine's former chain,
    # which converts P ∩ Q for its dimension and tests the links at its
    # interior point by an LP: the same decision for every displacement,
    # and where it passes, rows that cut out exactly the Minkowski
    # difference of the links there, also where no LP runs
    n = data.draw(st.sampled_from((2, 3)))
    p, q = data.draw(meeting_pairs(n))
    rows = link_difference(p, q)
    w = p.intersect(q)
    assert (rows is not None) == (w.dim == p.dim + q.dim - n)
    for v in [data.draw(ivec(n)) for _ in range(3)]:
        assert (rows is not None and all(vec_dot(g, v) >= 0 for g in rows)) == intersect_then_link(p, q, v)
    if rows is not None:
        gamma = w.interior_point()
        assert difference_cone(n, rows) == link_at(p, gamma).minkowski(negated(link_at(q, gamma)))


@given(st.data())
def test_link_difference_of_a_swapped_pair_is_negated(data):
    # the engine tests (Q, P) in a self-product on the rows of (P, Q) with
    # the sign turned: C_Q - C_P = -(C_P - C_Q). Two cones meeting in a
    # point pass with no LP, and two cones whose hulls meet in a line are
    # decided by signs, with no LP either
    n = data.draw(st.sampled_from((2, 3)))
    p, q = data.draw(meeting_pairs(n))
    calls = []
    lp = polyhedra.feasible_point
    polyhedra.feasible_point = lambda *a: calls.append(1) or lp(*a)
    try:
        rows, back = link_difference(p, q), link_difference(q, p)
    finally:
        polyhedra.feasible_point = lp
    assert (rows is None) == (back is None)
    if rows is not None:
        assert difference_cone(n, back) == negated(difference_cone(n, rows))
    if p.is_cone and q.is_cone and p.dim + q.dim <= n + 1:
        assert not calls
        assert rows is not None or p.dim + q.dim == n + 1


@given(st.data())
def test_link_difference_rejects_pairs_that_do_not_span(data):
    # a pair whose direction lattices sum to rank below n is dropped at
    # the echelon of its equality normals, in both orders, before any
    # reduction or LP; parallel and equal cells, most of which do not
    # span, are drawn beside the pairs of `meeting_pairs`
    n = data.draw(st.sampled_from((2, 3)))
    p, q = data.draw(meeting_pairs(n, spanning=False))
    kind = data.draw(st.sampled_from(("drawn", "parallel", "equal")))
    if kind != "drawn":
        q = p.translate(data.draw(ivec(n))) if kind == "parallel" else p
    if sum_lattices(p.direction_lattice(), q.direction_lattice()).rank == n:
        return
    p.hrep(), q.hrep()
    calls = []
    saved = {name: getattr(polyhedra, name) for name in ("feasible_point", "reduce_modulo")}
    for name, f in saved.items():
        setattr(polyhedra, name, lambda *a, name=name, f=f: calls.append(name) or f(*a))
    try:
        assert link_difference(p, q) is None and link_difference(q, p) is None
    finally:
        for name, f in saved.items():
            setattr(polyhedra, name, f)
    assert calls == []


def test_is_polyhedral_complex_detects_bad_pair():
    a = Polyhedron.from_vrep(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    b = a.translate((1, 1))
    assert not is_polyhedral_complex([a, b])
    assert is_polyhedral_complex([a])


# ------------------------------------------------------- triangulation selfcheck


def test_triangulation_oracle_known_volumes():
    assert triangulation_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert triangulation_volume([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert triangulation_volume(cube) == 6
    assert triangulation_volume([(0, 0), (3, 6)]) == 3
    assert triangulation_volume([(Fraction(1, 2), 0)]) == 1
    # 2-dilated triangle in a skew plane in Q^3: area in its own lattice
    tri = [(0, 0, 0), (2, 0, 2), (0, 2, 2)]
    assert triangulation_volume(tri) == 4
