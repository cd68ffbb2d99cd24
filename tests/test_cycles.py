"""Cycle layer: balancing, refinement invariance, links,
pushforward, generic displacement vectors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import link_cycle, rank_rows

from stabletrop import polyhedra
from stabletrop.errors import DimensionError, ValidationError
from stabletrop.cycles import (
    GenericVector,
    ambient_cycle,
    balanced_cycle,
    cartesian_product,
    cycle,
    cycle_sum,
    cycles_equal,
    is_balanced,
    pick_generic_vector,
    pushforward,
    scalar,
    zero_cycle,
)
from stabletrop.lattices import LatticeSubgroup, saturation
from stabletrop.polyhedra import Polyhedron, refine_cells
from stabletrop.polytopes import polytope, tropical_hypersurface


def ray(n, direction, apex=None):
    apex = apex or tuple(0 for _ in range(n))
    return Polyhedron.from_vrep(n, [apex], rays=[direction])


def segment(n, a, b):
    return Polyhedron.from_vrep(n, [a, b])


def line(n, direction, through=None):
    through = through or tuple(0 for _ in range(n))
    return Polyhedron.from_vrep(n, [through], lin=[direction])


def tropical_line(apex=(0, 0)):
    """Balanced 1-cycle with rays e1, e2, -e1-e2 of weight one."""
    return cycle(
        2,
        [
            (ray(2, (1, 0), apex), 1),
            (ray(2, (0, 1), apex), 1),
            (ray(2, (-1, -1), apex), 1),
        ],
    )


# ------------------------------------------------------------- construction


def test_cycle_merges_and_drops():
    r = ray(2, (1, 0))
    x = cycle(2, [(r, 2), (r, -2)])
    assert x.is_zero
    y = cycle(2, [(r, 1), (r, Fraction(1, 2))])
    assert y.multiplicities == (Fraction(3, 2),)


def test_cycle_purity_enforced():
    with pytest.raises(ValidationError):
        cycle(2, [(ray(2, (1, 0)), 1), (Polyhedron.point((0, 0)), 1)])


def test_cycle_ambient_mismatch():
    with pytest.raises(DimensionError):
        cycle(2, [(ray(3, (1, 0, 0)), 1)])


def test_zero_and_ambient():
    z = zero_cycle(3)
    assert z.is_zero and z.dim is None
    a = ambient_cycle(3, 2)
    assert a.dim == 3 and a.codim == 0
    assert is_balanced(a)[0]


# ---------------------------------------------------------------- balancing


def test_tropical_line_is_balanced():
    ok, failures = is_balanced(tropical_line())
    assert ok and failures == []


def test_two_rays_unbalanced():
    x = cycle(2, [(ray(2, (1, 0)), 1), (ray(2, (0, 1)), 1)])
    ok, failures = is_balanced(x)
    assert not ok
    assert len(failures) == 1
    ridge, defect = failures[0]
    assert ridge == Polyhedron.point((0, 0))
    assert any(defect)


def test_weighted_line_split_balanced():
    # a full line given as two opposite rays with equal weight
    x = cycle(2, [(ray(2, (0, 1)), 3), (ray(2, (0, -1)), 3)])
    assert is_balanced(x)[0]
    y = cycle(2, [(ray(2, (0, 1)), 3), (ray(2, (0, -1)), 2)])
    assert not is_balanced(y)[0]


def test_weight_respecting_balancing():
    # 2x + y + z directions: rays (1,0) weight 1, (0,1) weight 2, (-1,-2) weight 1
    x = cycle(2, [(ray(2, (1, 0)), 1), (ray(2, (0, 1)), 2), (ray(2, (-1, -2)), 1)])
    assert is_balanced(x)[0]


def test_balanced_cycle_constructor():
    with pytest.raises(ValidationError):
        balanced_cycle(2, [(ray(2, (1, 0)), 1)])
    balanced_cycle(2, [(line(2, (1, 5)), 7)])


def test_unbalanced_overlapping_presentation_pins_defects():
    # [0,1] x 0 weight 1, [1,2] x 0 weight 1 + 2, beyond (2,0) weight 2;
    # the defect at a vertex is the weighted sum of outgoing primitive rays
    x = cycle(
        2,
        [
            (segment(2, (0, 0), (2, 0)), 1),
            (ray(2, (1, 0), (1, 0)), 2),
            (ray(2, (0, 1)), 1),
            (ray(2, (-1, -1)), 1),
        ],
    )
    ok, failures = is_balanced(x)
    assert not ok
    assert failures == [
        (Polyhedron.point((1, 0)), (2, 0)),
        (Polyhedron.point((2, 0)), (-1, 0)),
    ]


def test_balancing_of_translated_crossing_lines():
    # two transverse lines meeting away from the origin
    x = cycle(2, [(line(2, (1, 0)), 1), (line(2, (0, 1), through=(2, 0)), 1)])
    assert is_balanced(x)[0]


# ------------------------------------------------- sums, refinement, equality


def test_refinement_invariance():
    full = cycle(2, [(line(2, (0, 1)), 3)])
    halves = cycle(2, [(ray(2, (0, 1)), 3), (ray(2, (0, -1)), 3)])
    assert cycles_equal(full, halves)
    assert not cycles_equal(full, scalar(2, halves))


def test_cycle_sum_cancellation():
    a = cycle(1, [(segment(1, (0,), (2,)), 1)])
    b = cycle(1, [(segment(1, (0,), (1,)), -1)])
    s = cycle_sum(a, b)
    assert s.cells == (segment(1, (1,), (2,)),)
    assert s.multiplicities == (1,)


def test_cycle_sum_dim_mismatch():
    with pytest.raises(DimensionError):
        cycle_sum(tropical_line(), cycle(2, [(Polyhedron.point((0, 0)), 1)]))
    s = cycle_sum(tropical_line(), zero_cycle(2))
    assert cycles_equal(s, tropical_line())


def test_sum_of_opposite_is_zero():
    t = tropical_line()
    assert cycle_sum(t, scalar(-1, t)).is_zero
    assert cycles_equal(t, t)


def test_refinement_solves_no_lp(monkeypatch):
    # refinement decides every plane by vertex signs: comparing point
    # cycles, or refining the overlapping cells of two tetrahedral
    # hypersurfaces in Q^3, makes no feasible_point call
    calls = []
    lp = polyhedra.feasible_point
    monkeypatch.setattr(polyhedra, "feasible_point", lambda *a, **k: calls.append(a) or lp(*a, **k))
    pts = [((0, 0), 2), ((1, 0), -1), ((0, 1), 3), ((2, 1), -2)]
    x = cycle(2, [(Polyhedron.point(p), m) for p, m in pts])
    y = cycle(2, [(Polyhedron.point(p), m) for p, m in reversed(pts)])
    assert cycles_equal(x, y) and not cycles_equal(x, scalar(2, y))
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    q = polytope(3, [(0, 2, 3), (1, 1, 1), (2, 0, 2), (3, 2, 0)])
    cells = [c for c, _ in tropical_hypersurface(p).weighted_cells()]
    cells += [c.translate((1, 1, 0)) for c, _ in tropical_hypersurface(q).weighted_cells()]
    assert len(refine_cells(cells)) == 227
    assert calls == []


def test_mult_at():
    t = tropical_line()
    assert t.mult_at((1, 0)) == 1
    assert t.mult_at((-2, -2)) == 1
    assert t.mult_at((0, 0)) == 0  # ridge point, no facet interior
    assert t.mult_at((5, 3)) == 0


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_mult_at_refinement_invariant(px, py):
    t = tropical_line()
    refined = cycle_sum(t, zero_cycle(2))  # normalizes
    assert t.mult_at((px, py)) == refined.mult_at((px, py))


# ----------------------------------------------------------- link, quotient


def test_link_on_facet_interior():
    t = tropical_line()
    lk = link_cycle(t, (1, 0))
    assert lk.dim == 1
    assert cycles_equal(lk, cycle(2, [(line(2, (1, 0)), 1)]))


def test_link_at_apex():
    t = tropical_line((0, 0))
    lk = link_cycle(t, (0, 0))
    # the link at the vertex is the fan of the three rays
    assert cycles_equal(lk, t)
    assert is_balanced(lk)[0]


def test_link_away_from_support():
    assert link_cycle(tropical_line(), (5, 7)).is_zero


def test_cartesian_product_of_lines():
    t = tropical_line()
    p = cartesian_product(t, t)
    assert p.ambient_dim == 4 and p.dim == 2
    assert len(p.cells) == 9
    assert is_balanced(p)[0]


# --------------------------------------------------------------- pushforward


def test_pushforward_doubling_map():
    x = cycle(1, [(line(1, (1,)), 1)])
    y = pushforward([(2,)], x)
    assert cycles_equal(y, cycle(1, [(line(1, (1,)), 2)]))


def test_pushforward_projection_of_tropical_line():
    y = pushforward([(1, 0)], tropical_line())
    assert y.ambient_dim == 1
    assert cycles_equal(y, cycle(1, [(line(1, (1,)), 1)]))
    assert is_balanced(y)[0]


def test_pushforward_adds_indices_of_overlapping_images():
    # (x, y) -> x + 2y sends e1 and e2 onto the positive ray with indices
    # 1 and 2, and -e1-e2 onto -3 times the negative generator
    y = pushforward([(1, 2)], tropical_line())
    assert cycles_equal(y, cycle(1, [(ray(1, (1,)), 3), (ray(1, (-1,)), 3)]))
    assert y.multiplicities == (3, 3)


def test_pushforward_uniform_collapse():
    # vertical line collapses to a point of weight one
    x = cycle(2, [(line(2, (0, 1)), 1)])
    y = pushforward([(1, 0)], x)
    assert y.dim == 0
    assert cycles_equal(y, cycle(1, [(Polyhedron.point((0,)), 1)]))


def test_pushforward_rejects_nonuniform_collapse():
    cross = cycle(2, [(line(2, (0, 1)), 1), (line(2, (1, 1)), 1)])
    assert is_balanced(cross)[0]
    with pytest.raises(ValidationError):
        pushforward([(0, 0)], cross)


def test_pushforward_embedding_index():
    # x -> (2x): the image line gains the lattice index [Z : 2Z] = 2
    x = cycle(1, [(line(1, (1,)), 3)])
    y = pushforward([(2,)], x)
    assert y.multiplicities == (6,)


def test_pushforward_shear_preserves_mult():
    t = tropical_line()
    y = pushforward([(1, 1), (0, 1)], t)
    assert is_balanced(y)[0]
    assert y.dim == 1
    # unimodular maps preserve total structure: three rays of weight one
    assert sorted(y.multiplicities) == [1, 1, 1]


# ------------------------------------------------------------ generic vector


def test_pick_generic_vector_frozen():
    g = pick_generic_vector(2, [saturation(2, [(1, 0)])])
    assert g == GenericVector((1, 2), 2, 1)
    g2 = pick_generic_vector(2, [saturation(2, [(1, 2)])])
    assert g2.vector == (1, 3) and g2.prime == 3


def test_pick_generic_vector_rejects_full_rank():
    with pytest.raises(ValidationError):
        pick_generic_vector(2, [saturation(2, [(1, 0), (0, 1)])])


def test_pick_generic_vector_many_spans():
    spans = [saturation(3, [(1, a, a * a)]) for a in range(-3, 4)]
    g = pick_generic_vector(3, spans)
    for lat in spans:
        assert rank_rows(list(lat.generators) + [g.vector]) == lat.rank + 1


# --------------------------------------------------------------- properties


@st.composite
def balanced_fan_1cycle(draw):
    """Sum of full lines through the origin: always balanced."""
    k = draw(st.integers(min_value=1, max_value=3))
    pairs = []
    for _ in range(k):
        d = draw(
            st.tuples(
                st.integers(min_value=-2, max_value=2),
                st.integers(min_value=-2, max_value=2),
            ).filter(any)
        )
        m = draw(st.integers(min_value=1, max_value=3))
        pairs.append((line(2, d), m))
    return cycle(2, pairs)


@given(balanced_fan_1cycle(), balanced_fan_1cycle())
def test_sum_of_balanced_is_balanced(x, y):
    s = cycle_sum(x, y)
    assert is_balanced(s)[0]
    assert cycles_equal(cycle_sum(x, y), cycle_sum(y, x))


@given(balanced_fan_1cycle())
def test_scalar_distributes(x):
    assert cycles_equal(cycle_sum(x, x), scalar(2, x))
