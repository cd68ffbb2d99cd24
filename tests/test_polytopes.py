"""Polytope-to-cycle bridge.

Volume and mixed-volume values are checked against the independent
triangulation and inclusion-exclusion oracles in tests/oracles.py, which
never touch the stable intersection engine.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_dim_volume, hrep_hypersurface, lattice_length, mixed_volume_oracle
from stabletrop import polyhedra
from stabletrop.cycles import cycle, cycles_equal, is_balanced, scalar, zero_cycle
from stabletrop.errors import DimensionError, ValidationError
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import (
    RationalPolytope,
    cube,
    fatten_cycle,
    from_polyhedron,
    mixed_volume,
    normalized_volume,
    polytope,
    preimage_cycle,
    projection_comparison,
    standard_simplex,
    subspace_cycle,
    tropical_hypersurface,
    union_is_polytope,
    volume_polynomial_coefficient,
)
from stabletrop.stable import stable_intersection


def ray(direction):
    return Polyhedron.from_vrep(2, [(0, 0)], rays=[direction])


def tropical_line():
    return cycle(2, [(ray((1, 0)), 1), (ray((0, 1)), 1), (ray((-1, -1)), 1)])


# ------------------------------------------------------------- construction


def test_vertex_canonicalization():
    p = polytope(2, [(0, 0), (1, 0), (0, 1), (Fraction(1, 3), Fraction(1, 3))])
    assert p.vertices == ((0, 0), (0, 1), (1, 0))
    assert p.dim == 2


def test_from_polyhedron_rejects_unbounded():
    with pytest.raises(ValidationError):
        from_polyhedron(Polyhedron.from_vrep(2, [(0, 0)], rays=[(1, 0)]))


def test_lattice_length():
    seg = Polyhedron.from_vrep(2, [(0, 0), (2, 4)])
    assert lattice_length(seg) == 2
    half = Polyhedron.from_vrep(2, [(0, 0), (Fraction(1, 2), 0)])
    assert lattice_length(half) == Fraction(1, 2)


# ------------------------------------------------------------ hypersurfaces


def test_simplex_hypersurface_is_tropical_line():
    t = tropical_hypersurface(standard_simplex(2))
    assert cycles_equal(t, tropical_line())


def test_square_hypersurface():
    t = tropical_hypersurface(cube(2))
    expected = cycle(
        2,
        [(ray((1, 0)), 1), (ray((-1, 0)), 1), (ray((0, 1)), 1), (ray((0, -1)), 1)],
    )
    assert cycles_equal(t, expected)


def test_point_hypersurface_is_zero():
    assert tropical_hypersurface(polytope(2, [(3, 4)])).is_zero


def test_segment_hypersurface_weight():
    t = tropical_hypersurface(polytope(2, [(0, 0), (3, 0)]))
    wall = Polyhedron.from_vrep(2, [(0, 0)], lin=[(0, 1)])
    assert cycles_equal(t, cycle(2, [(wall, 3)]))


def test_fractional_edge_weight():
    t = tropical_hypersurface(polytope(2, [(0, 0), (Fraction(1, 2), 0)]))
    assert t.multiplicities == (Fraction(1, 2),)


def test_dilation_scales_weights():
    p = standard_simplex(2)
    assert cycles_equal(
        tropical_hypersurface(p.dilate(2)), scalar(2, tropical_hypersurface(p))
    )


def test_translation_invariance():
    p = polytope(2, [(0, 0), (2, 1), (1, 3)])
    assert cycles_equal(
        tropical_hypersurface(p.translate((5, -7))), tropical_hypersurface(p)
    )


def test_minkowski_sum_gives_cycle_sum():
    p = standard_simplex(2)
    q = polytope(2, [(0, 0), (1, 1)])
    lhs = tropical_hypersurface(p.minkowski(q))
    rhs = cycle(
        2, list(tropical_hypersurface(p).weighted_cells())
        + list(tropical_hypersurface(q).weighted_cells()),
    )
    assert cycles_equal(lhs, rhs)


def test_dilated_simplex_product_total_weight():
    a = tropical_hypersurface(standard_simplex(2).dilate(2))
    b = tropical_hypersurface(standard_simplex(2).dilate(3))
    z = stable_intersection(a, b)
    assert z.mult_at((0, 0)) == 6


small_coord = st.integers(min_value=-3, max_value=3)


@st.composite
def polytopes_nd(draw, n, max_pts=6):
    k = draw(st.integers(min_value=1, max_value=max_pts))
    pts = [tuple(draw(small_coord) for _ in range(n)) for _ in range(k)]
    return polytope(n, pts)


def test_hypersurface_cones_need_no_conversion(monkeypatch):
    # the cones are read off the body's canonical H-rep: the one _dd call
    # is the body's H-rep, not one per cone (8 when each cone was built
    # from H-rows and converted), its V-rep is the polytope's stored
    # vertices (2 calls when it was converted again), and the cells' keys
    # and V-reps are already canonical
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    calls = []
    dd = polyhedra._dd
    monkeypatch.setattr(polyhedra, "_dd", lambda *a: calls.append(a) or dd(*a))
    monkeypatch.setattr(Polyhedron, "from_hrep", lambda *a, **k: pytest.fail("from_hrep"))
    monkeypatch.setattr(Polyhedron, "all_faces", lambda self: pytest.fail("all_faces"))
    t = tropical_hypersurface(p)
    assert len(t.cells) == 6 and len(calls) == 1
    for c in t.cells:
        c.key(), c.vrep()
    assert len(calls) == 1


def test_polytope_queries_convert_once(monkeypatch):
    # a polytope builds its polyhedron once, with the stored vertices as
    # its V-rep: repeated dim and contains calls make at most one _dd call,
    # the H-rep that contains reads (each dim call converted twice and each
    # contains call once, afresh, when the polyhedron was rebuilt per access)
    calls = []
    dd = polyhedra._dd
    monkeypatch.setattr(polyhedra, "_dd", lambda *a: calls.append(a) or dd(*a))
    for p in (standard_simplex(2), cube(3), polytope(3, [(0, 0, 0), (2, 2, 2)])):
        calls.clear()
        for _ in range(3):
            assert p.dim == (1 if len(p.vertices) == 2 else p.ambient_dim)
            assert p.contains(p.vertices[0])
            assert not p.contains((Fraction(-1),) * p.ambient_dim)
        assert len(calls) <= 1


fraction_coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def hypersurface_bodies(draw):
    """Lattice polytopes in Q^1-Q^3, some with fractional vertices, some
    segments or polygons in Q^3 (points on a plane or a line)."""
    n = draw(st.integers(min_value=1, max_value=3))
    coord = draw(st.sampled_from([small_coord, fraction_coord]))
    k = draw(st.integers(min_value=1, max_value=6))
    pts = [tuple(draw(coord) for _ in range(n)) for _ in range(k)]
    if n == 3:
        flat = draw(st.sampled_from(["full", "plane", "line"]))
        if flat == "plane":
            pts = [(x, y, 2 * x - y + 1) for x, y, _ in pts]
        elif flat == "line":
            pts = [(x, 3 * x - 1, 1 - x) for x, _, _ in pts]
    return polytope(n, pts)


@given(hypersurface_bodies())
def test_hypersurface_matches_hrep_construction(p):
    t, ref = tropical_hypersurface(p), hrep_hypersurface(p)
    assert [c.key() for c in t.cells] == [c.key() for c in ref.cells]
    assert t.multiplicities == ref.multiplicities


@given(polytopes_nd(2))
@settings(max_examples=30)
def test_hypersurface_balanced_2d(p):
    assert is_balanced(tropical_hypersurface(p))[0]


@given(polytopes_nd(3, max_pts=5))
@settings(max_examples=15)
def test_hypersurface_balanced_3d(p):
    assert is_balanced(tropical_hypersurface(p))[0]


# ------------------------------------------------------------------ volumes


def test_volume_anchors():
    assert normalized_volume(standard_simplex(2)) == 1
    assert normalized_volume(standard_simplex(2).dilate(2)) == 4
    assert normalized_volume(cube(2)) == 2
    assert normalized_volume(standard_simplex(3)) == 1
    assert normalized_volume(cube(3)) == 6
    assert normalized_volume(polytope(2, [(0, 0), (5, 2)])) == 0
    assert normalized_volume(polytope(3, [(1, 1, 1)])) == 0


def test_fractional_volume():
    p = polytope(2, [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))])
    assert normalized_volume(p) == Fraction(1, 4)


@given(polytopes_nd(2))
@settings(max_examples=30)
def test_volume_against_triangulation_2d(p):
    assert normalized_volume(p) == full_dim_volume(list(p.vertices), 2)


@given(polytopes_nd(3, max_pts=5))
@settings(max_examples=12)
def test_volume_against_triangulation_3d(p):
    assert normalized_volume(p) == full_dim_volume(list(p.vertices), 3)


def test_mixed_volume_anchors():
    s = standard_simplex(2)
    assert mixed_volume([s, s]) == 1
    assert mixed_volume([s.dilate(2), s.dilate(2)]) == 4
    e1 = polytope(2, [(0, 0), (1, 0)])
    e2 = polytope(2, [(0, 0), (0, 1)])
    assert mixed_volume([e1, e2]) == 1
    assert mixed_volume([e1, e1]) == 0


def test_mixed_volume_validation():
    s = standard_simplex(2)
    with pytest.raises(DimensionError):
        mixed_volume([s])
    with pytest.raises(DimensionError):
        mixed_volume([s, standard_simplex(3)])


@given(polytopes_nd(2, max_pts=4), polytopes_nd(2, max_pts=4))
@settings(max_examples=20)
def test_mixed_volume_against_inclusion_exclusion(p, q):
    got = mixed_volume([p, q])
    want = mixed_volume_oracle([list(p.vertices), list(q.vertices)])
    assert got == want


@given(polytopes_nd(2, max_pts=3), polytopes_nd(2, max_pts=3), polytopes_nd(2, max_pts=3))
@settings(max_examples=12)
def test_mixed_volume_multilinear(p, q, r):
    assert mixed_volume([p.minkowski(q), r]) == mixed_volume([p, r]) + mixed_volume([q, r])


def test_volume_polynomial_coefficients():
    s = standard_simplex(2)
    q = cube(2)
    # normalized vol(a*s + b*q) = a^2 + 4ab + 2b^2
    assert volume_polynomial_coefficient([s, q], [2, 0]) == 1
    assert volume_polynomial_coefficient([s, q], [1, 1]) == 4
    assert volume_polynomial_coefficient([s, q], [0, 2]) == 2
    total = normalized_volume(s.dilate(2).minkowski(q.dilate(3)))
    assert total == 1 * 4 + 4 * 6 + 2 * 9


def test_volume_polynomial_validation():
    s = standard_simplex(2)
    with pytest.raises(ValidationError):
        volume_polynomial_coefficient([s, s], [1, 2])
    with pytest.raises(ValidationError):
        volume_polynomial_coefficient([s], [1, 1])


def test_volume_polynomial_exponent_types():
    # integral exponents of any numeric type are read as ints; fractional
    # or negative ones and empty lists are refused with the library's
    # errors, not TypeError or IndexError
    s, q = standard_simplex(2), cube(2)
    assert volume_polynomial_coefficient([s, q], [Fraction(1), 1.0]) == 4
    assert volume_polynomial_coefficient([s, q], [Fraction(2), 0]) == 1
    assert volume_polynomial_coefficient([s, q], [0, 2.0]) == 2
    for bad in ([1.5, 0.5], [-1, 3], [Fraction(3, 2), Fraction(1, 2)]):
        with pytest.raises(ValidationError):
            volume_polynomial_coefficient([s, q], bad)
    with pytest.raises(DimensionError):
        volume_polynomial_coefficient([], [])


# -------------------------------------------------------------- projections


def test_projection_comparison_frozen():
    p = polytope(2, [(0, 0), (1, 0)])
    lhs, rhs = projection_comparison(p, [(1, 1)])
    wall = Polyhedron.from_vrep(2, [(0, 0)], lin=[(1, -1)])
    assert cycles_equal(lhs, cycle(2, [(wall, 1)]))
    assert cycles_equal(lhs, rhs)


def test_projection_collapse_gives_zero():
    # the projection kills the segment, both routes are zero
    p = polytope(2, [(0, 0), (1, -1)])
    lhs, rhs = projection_comparison(p, [(1, 1)])
    assert lhs.is_zero and rhs.is_zero


def test_preimage_requires_lattice_surjective():
    line = cycle(1, [(Polyhedron.point((0,)), 1)])
    with pytest.raises(ValidationError):
        preimage_cycle([(2, 0)], line)


def test_preimage_rejects_more_rows_than_columns():
    # Q^1 -> Q^2, t -> (t, 0), hits no lattice point off the first axis;
    # pulling back the line y = 0 would give a cycle of codimension 0
    axis = cycle(2, [(Polyhedron.from_hrep(2, [], [((0, 1), 0)]), 1)])
    with pytest.raises(ValidationError, match="not surjective"):
        preimage_cycle([(1,), (0,)], axis)
    assert cycles_equal(preimage_cycle([(1, 0), (0, 1)], axis), axis)


coord_proj = st.sampled_from(
    [
        (2, [(1, 0)]),
        (2, [(0, 1)]),
        (3, [(1, 0, 0), (0, 1, 0)]),
        (3, [(0, 1, 0), (0, 0, 1)]),
        (3, [(1, 0, 0)]),
        (4, [(1, 0, 0, 0), (0, 0, 1, 0)]),
        (4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ]
)


@given(coord_proj, st.data())
@settings(max_examples=20)
def test_projection_comparison_random(case, data):
    n, rows = case
    p = data.draw(polytopes_nd(n, max_pts=4))
    lhs, rhs = projection_comparison(p, rows)
    assert cycles_equal(lhs, rhs)


def test_subspace_and_fatten_helpers():
    z = subspace_cycle(2, [(1, 0)], 3)
    assert z.dim == 1 and z.multiplicities == (3,)
    pt = cycle(2, [(Polyhedron.point((0, 0)), 2)])
    fat = fatten_cycle(pt, [(0, 1)])
    assert cycles_equal(fat, subspace_cycle(2, [(0, 1)], 2))


# ---------------------------------------------------- valuation and unions


def test_union_is_polytope():
    left = polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    right = polytope(2, [(1, 0), (2, 0), (1, 1), (2, 1)])
    far = polytope(2, [(3, 0), (4, 0), (3, 1), (4, 1)])
    assert union_is_polytope(left, right)
    assert not union_is_polytope(left, far)
    # an L-shaped union is not convex
    upper = polytope(2, [(0, 1), (1, 1), (0, 2), (1, 2)])
    assert not union_is_polytope(right, upper)


def test_valuation_frozen_split():
    whole = polytope(2, [(0, 0), (2, 0)])
    left = polytope(2, [(0, 0), (1, 0)])
    right = polytope(2, [(1, 0), (2, 0)])
    assert union_is_polytope(left, right)
    lhs = cycle(2, list(tropical_hypersurface(left).weighted_cells())
                + list(tropical_hypersurface(right).weighted_cells()))
    # the overlap is a point, whose hypersurface is zero
    assert cycles_equal(lhs, tropical_hypersurface(whole))


@given(polytopes_nd(2), st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]),
       st.integers(min_value=-2, max_value=2))
@settings(max_examples=25)
def test_valuation_under_halfspace_splits(p, normal, level):
    poly = p.polyhedron
    lo = poly.intersect(Polyhedron.from_hrep(2, [(normal, level)], []))
    hi = poly.intersect(Polyhedron.from_hrep(2, [(tuple(-a for a in normal), -level)], []))
    if lo.is_empty or hi.is_empty:
        return
    a = from_polyhedron(lo)
    b = from_polyhedron(hi)
    assert union_is_polytope(a, b)
    lhs = cycle(2, list(tropical_hypersurface(a).weighted_cells())
                + list(tropical_hypersurface(b).weighted_cells()))
    mid = from_polyhedron(lo.intersect(hi))
    rhs = cycle(2, list(tropical_hypersurface(p).weighted_cells())
                + list(tropical_hypersurface(mid).weighted_cells()))
    assert cycles_equal(lhs, rhs)
