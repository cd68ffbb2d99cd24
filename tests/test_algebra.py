"""Graded cycle algebra: exp/log, the Minkowski-to-product homomorphism,
wall weight spaces, polytope reconstruction, decomposition into products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletrop.algebra import (
    AlgebraElement,
    add_elements,
    algebra_one,
    build_hypersurface_basis,
    decompose_into_powers,
    element,
    element_equal,
    element_product,
    exp_element,
    log_element,
    polytope_class,
    polytope_from_weights,
    scale_element,
)
from stabletrop.cycles import (
    ambient_cycle,
    cycle,
    cycle_sum,
    cycles_equal,
    is_balanced,
    scalar,
    zero_cycle,
)
from stabletrop import stable
from stabletrop.errors import ValidationError
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import (
    cube,
    normalized_volume,
    polytope,
    standard_simplex,
    tropical_hypersurface,
)
from stabletrop.stable import stable_intersection


def fan_ray(direction):
    return Polyhedron.from_vrep(2, [(0, 0)], rays=[direction])


def axis(direction, mult=1):
    return cycle(2, [(Polyhedron.from_vrep(2, [(0, 0)], lin=[direction]), mult)])


square_walls = [fan_ray((1, 0)), fan_ray((-1, 0)), fan_ray((0, 1)), fan_ray((0, -1))]


# ------------------------------------------------------------------ elements


def test_element_grading():
    t = tropical_hypersurface(standard_simplex(2))
    e = element(2, [t])
    assert e.grade(0).is_zero
    assert cycles_equal(e.grade(1), t)
    assert e.grade(2).is_zero


def test_one_is_neutral():
    t = element(2, [tropical_hypersurface(standard_simplex(2))])
    assert element_equal(element_product(algebra_one(2), t), t)


def test_product_collects_grades():
    t = tropical_hypersurface(standard_simplex(2))
    e = element(2, [t])
    sq = element_product(e, e)
    assert sq.grade(0).is_zero and sq.grade(1).is_zero
    assert sq.grade(2).mult_at((0, 0)) == 1


def test_exp_log_round_trip():
    t = element(2, [tropical_hypersurface(polytope(2, [(0, 0), (2, 0), (0, 1)]))])
    e = exp_element(t)
    assert element_equal(log_element(e), t)
    assert element_equal(exp_element(log_element(e)), e)


def test_grade_zero_factor_skips_the_engine(monkeypatch):
    # c . Q^n times x is c times the overlay of x, which is what the engine
    # returns for it: exp of a Q^2 class runs the engine once, for h . h,
    # and a product with c . Q^2 on either side runs it not at all
    h = tropical_hypersurface(polytope(2, [(0, 0), (3, 0), (1, 2)]))
    a = element(2, [h])
    calls = []
    engine = stable.stable_intersection_report
    monkeypatch.setattr(stable, "stable_intersection_report", lambda x, y: calls.append(1) or engine(x, y))
    e = exp_element(a)
    three = element_product(scale_element(3, algebra_one(2)), a)
    swapped = element_product(a, scale_element(-2, algebra_one(2)))
    assert len(calls) == 1
    monkeypatch.undo()
    q2h = stable_intersection(ambient_cycle(2), h)
    route = add_elements(
        add_elements(algebra_one(2), element(2, [q2h])),
        scale_element(Fraction(1, 2), element(2, [stable_intersection(q2h, h)])),
    )
    assert element_equal(e, route) and e == route
    for c, got in ((3, three), (-2, swapped)):
        by_engine = AlgebraElement(2, (zero_cycle(2), stable_intersection(ambient_cycle(2, c), h), zero_cycle(2)))
        assert element_equal(got, by_engine) and got == by_engine


def test_exp_requires_nilpotent():
    with pytest.raises(ValidationError):
        exp_element(algebra_one(2))
    with pytest.raises(ValidationError):
        log_element(element(2, []))


def test_polytope_class_of_point_is_one():
    assert element_equal(polytope_class(polytope(2, [(5, 7)])), algebra_one(2))


small_coord = st.integers(min_value=-2, max_value=2)


@st.composite
def polygons(draw, max_pts=4):
    k = draw(st.integers(min_value=1, max_value=max_pts))
    return polytope(2, [tuple(draw(small_coord) for _ in range(2)) for _ in range(k)])


@given(polygons(), polygons())
@settings(max_examples=15)
def test_minkowski_to_product_homomorphism(p, q):
    lhs = element_product(polytope_class(p), polytope_class(q))
    rhs = polytope_class(p.minkowski(q))
    assert element_equal(lhs, rhs)


@given(polygons())
@settings(max_examples=10)
def test_log_of_class_is_hypersurface(p):
    e = polytope_class(p)
    assert element_equal(log_element(e), element(2, [tropical_hypersurface(p)]))


def test_scale_and_add():
    t = element(2, [tropical_hypersurface(standard_simplex(2))])
    two = add_elements(t, t)
    assert element_equal(two, scale_element(2, t))


# --------------------------------------------------------------- wall bases


def test_square_fan_basis():
    wb = build_hypersurface_basis(2, square_walls)
    assert wb.vectors == ((1, 1, 0, 0), (0, 0, 1, 1))
    got = wb.cycles()
    assert any(cycles_equal(c, axis((1, 0))) for c in got)
    assert any(cycles_equal(c, axis((0, 1))) for c in got)
    assert wb.certificate is not None
    assert all(w >= 1 for w in wb.certificate)
    assert is_balanced(wb.weighting_cycle(wb.certificate))[0]


def test_tropical_line_fan_basis():
    walls = [fan_ray((1, 0)), fan_ray((0, 1)), fan_ray((-1, -1))]
    wb = build_hypersurface_basis(2, walls)
    assert wb.vectors == ((1, 1, 1),)
    assert cycles_equal(
        wb.cycles()[0], tropical_hypersurface(standard_simplex(2))
    )


def test_balancing_and_wall_bases_take_no_interior_point(monkeypatch):
    # each facet normal is signed by its facet row, so neither the
    # balancing test nor the wall basis asks a cell or a ridge for an
    # interior point (two per facet before)
    calls = []
    point = Polyhedron.interior_point
    monkeypatch.setattr(Polyhedron, "interior_point", lambda self: calls.append(self) or point(self))
    h = tropical_hypersurface(polytope(3, [(0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 2)]))
    assert is_balanced(h)[0]
    wb = build_hypersurface_basis(3, h.cells)
    assert len(wb.vectors) == 1 and cycles_equal(wb.weighting_cycle(wb.vectors[0]), h)
    assert calls == []


def test_unbalanceable_wall():
    wb = build_hypersurface_basis(2, [fan_ray((1, 0))])
    assert wb.vectors == ()
    assert wb.certificate is None


def test_hyperplane_wall_unconstrained():
    wall = Polyhedron.from_vrep(2, [(0, 0)], lin=[(1, 0)])
    wb = build_hypersurface_basis(2, [wall])
    assert wb.vectors == ((1,),)
    assert wb.certificate is not None


def test_wall_validation():
    with pytest.raises(ValidationError):
        build_hypersurface_basis(2, [Polyhedron.point((0, 0))])


# ------------------------------------------------------- polytope rebuilding


def test_rectangle_from_weights():
    wb = build_hypersurface_basis(2, square_walls)
    z = wb.weighting_cycle((1, 1, 2, 2))
    p = polytope_from_weights(z)
    assert len(p.vertices) == 4
    assert normalized_volume(p) == 4  # a 2 x 1 rectangle, twice the area
    assert cycles_equal(tropical_hypersurface(p), z)


def test_simplex_from_weights():
    z = tropical_hypersurface(standard_simplex(2))
    p = polytope_from_weights(z)
    assert cycles_equal(tropical_hypersurface(p), z)
    assert len(p.vertices) == 3


def test_negative_weights_are_not_polytopal():
    wb = build_hypersurface_basis(2, square_walls)
    z = wb.weighting_cycle((-1, -1, -1, -1))
    assert is_balanced(z)[0]
    with pytest.raises(ValidationError):
        polytope_from_weights(z)


def test_zero_weights_give_point():
    p = polytope_from_weights(zero_cycle(2))
    assert p.vertices == ((0, 0),)


@given(polygons(max_pts=5))
@settings(max_examples=15)
def test_reconstruction_round_trip(p):
    z = tropical_hypersurface(p)
    if z.is_zero:
        return
    q = polytope_from_weights(z)
    assert cycles_equal(tropical_hypersurface(q), z)
    assert len(q.vertices) == len(p.vertices)


def test_reconstruction_round_trip_in_higher_dimensions(monkeypatch):
    # each body comes back as its translate by the vertex of the first
    # chamber; the chambers are walked across their shared facets with no
    # pairwise intersection, so the Q^4 simplex takes 238 `intersect`
    # calls, all in cutting the chambers and verifying the result
    bodies = [
        standard_simplex(3),
        cube(3),
        polytope(3, [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 3), (1, 1, 1)]),
        standard_simplex(4),
    ]
    calls = []
    intersect = Polyhedron.intersect
    monkeypatch.setattr(Polyhedron, "intersect", lambda a, b: calls.append(1) or intersect(a, b))
    for p in bodies:
        calls.clear()
        q = polytope_from_weights(tropical_hypersurface(p))
        shift = [a - b for a, b in zip(p.vertices[0], q.vertices[0])]
        assert q.vertices == tuple(tuple(a - s for a, s in zip(v, shift)) for v in p.vertices)
    assert len(calls) == 238


# ------------------------------------------------------------- decomposition


def test_decompose_origin_in_square_fan():
    f1 = axis((0, 1))  # hypersurface of [0, e1]
    f2 = axis((1, 0))  # hypersurface of [0, e2]
    z = cycle(2, [(Polyhedron.point((0, 0)), 1)])
    coeffs = decompose_into_powers(z, [f1, f2])
    assert coeffs == {(0, 1): 1}


def test_decompose_grade_one():
    f1 = axis((0, 1))
    f2 = axis((1, 0))
    z = cycle_sum(f1, scalar(2, f2))
    assert decompose_into_powers(z, [f1, f2]) == {(0,): 1, (1,): 2}


def test_decompose_grade_zero():
    assert decompose_into_powers(ambient_cycle(2, 5), [axis((0, 1))]) == {(): 5}


def test_decompose_zero_cycle():
    assert decompose_into_powers(zero_cycle(2), [axis((0, 1))]) == {}


def test_decompose_rejects_outside_span():
    t = tropical_hypersurface(standard_simplex(2))
    with pytest.raises(ValidationError):
        decompose_into_powers(t, [axis((0, 1))])


def test_decompose_round_trip():
    f1 = axis((0, 1))
    f2 = axis((1, 0))
    z = cycle(2, [(Polyhedron.point((0, 0)), Fraction(7, 2))])
    coeffs = decompose_into_powers(z, [f1, f2])
    rebuilt = zero_cycle(2)
    basis = [f1, f2]
    for combo, c in coeffs.items():
        p = ambient_cycle(2, c)
        for idx in combo:
            from stabletrop.stable import stable_intersection

            p = stable_intersection(p, basis[idx])
        rebuilt = cycle_sum(rebuilt, p)
    assert cycles_equal(rebuilt, z)
