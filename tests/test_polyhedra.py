"""Polyhedron layer: double description, canonical forms, faces, refinement.

The cross-route membership checks compare the H-side test (inequality
evaluation) against an LP over the V-side generators, two routes that
share no conversion code.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lp_cut, triangulation_volume, vgen_member
from stabletrop.errors import ValidationError
from stabletrop.lattices import LatticeSubgroup, vec_dot
from stabletrop.polyhedra import (
    Polyhedron,
    _cut,
    _hyperplanes_of,
    is_polyhedral_complex,
    point_in_sum,
    refine_cells,
)

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
    cone = sq.link_at((0, 0))
    assert cone.is_cone
    assert cone.vrep()[1] == ((0, 1), (1, 0))
    inner = sq.link_at((Fraction(1, 2), Fraction(1, 2)))
    assert inner == Polyhedron.ambient(2)
    with pytest.raises(ValidationError):
        sq.link_at((5, 5))


def test_link_at_edge_point():
    sq = Polyhedron.from_vrep(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    cone = sq.link_at((Fraction(1, 2), 0))
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
    sq = Polyhedron.from_vrep(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    v = sq.minimal_face_at((0, 0))
    assert v == Polyhedron.point((0, 0))
    e = sq.minimal_face_at((Fraction(1, 2), 0))
    assert e == Polyhedron.from_vrep(2, [(0, 0), (1, 0)])
    assert e.is_face_of(sq)
    assert not Polyhedron.from_vrep(2, [(0, 0), (Fraction(1, 2), 0)]).is_face_of(sq)


def test_direction_lattice():
    seg = Polyhedron.from_vrep(2, [(0, 0), (2, 4)])
    assert seg.direction_lattice() == LatticeSubgroup.from_vectors(2, [(1, 2)])
    plane = Polyhedron.from_hrep(3, eqs=[((1, 1, 1), 0)])
    assert plane.direction_lattice().rank == 2


# --------------------------------------------------------- sums, refinement


def test_point_in_sum():
    seg1 = Polyhedron.from_vrep(2, [(0, 0), (1, 0)])
    seg2 = Polyhedron.from_vrep(2, [(0, 0), (0, 1)])
    assert point_in_sum([seg1, seg2], (Fraction(1, 2), Fraction(1, 2)))
    assert not point_in_sum([seg1, seg2], (2, 0))
    # difference: x in seg1 - seg2
    assert point_in_sum([seg1, seg2], (1, -1), signs=[1, -1])
    assert not point_in_sum([seg1, seg2], (1, 1), signs=[1, -1])


@given(ivec(2), ivec(2), ivec(2))
def test_point_in_sum_matches_minkowski(a, b, probe):
    p = Polyhedron.from_vrep(2, [(0, 0), a])
    q = Polyhedron.from_vrep(2, [(0, 0), b])
    assert point_in_sum([p, q], probe) == p.minkowski(q).contains(probe)


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
