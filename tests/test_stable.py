"""Stable intersection: frozen hand-computed anchors plus cross-route and
algebraic-law checks on small fan cycles.

The hand computations behind the frozen values: two weight-one lines
through the origin with primitive directions d, d' meet stably in the
origin with weight |det(d, d')|, and a weight-one line against the
tropical line contributes the first coordinate of the outgoing ray. Both
facts reduce to 2x2 lattice indices.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabletrop.cycles import (
    ambient_cycle,
    cycle,
    cycle_sum,
    cycles_equal,
    is_balanced,
    normalize_weighted,
    scalar,
    zero_cycle,
)
from stabletrop.errors import ValidationError
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import polytope, tropical_hypersurface
from stabletrop.stable import (
    FacetContribution,
    diagonal_intersection,
    perturbation_intersection,
    stable_intersection,
    stable_intersection_report,
    stable_power,
)


def ray(n, direction, apex=None):
    apex = apex or tuple(0 for _ in range(n))
    return Polyhedron.from_vrep(n, [apex], rays=[direction])


def line(direction, mult=1):
    return cycle(2, [(Polyhedron.from_vrep(2, [(0, 0)], lin=[direction]), mult)])


def line_sum(pairs):
    acc = zero_cycle(2)
    for d, m in pairs:
        acc = cycle_sum(acc, line(d, m))
    return acc


def tropical_line(apex=(0, 0)):
    return cycle(
        2,
        [
            (ray(2, (1, 0), apex), 1),
            (ray(2, (0, 1), apex), 1),
            (ray(2, (-1, -1), apex), 1),
        ],
    )


origin = Polyhedron.point((0, 0))


# ------------------------------------------------------------ frozen anchors


def test_tropical_line_self_intersection():
    t = tropical_line()
    z = stable_intersection(t, t)
    assert z.cells == (origin,)
    assert z.multiplicities == (1,)


def test_self_intersection_report():
    t = tropical_line()
    rep = stable_intersection_report(t, t)
    assert len(rep.terms) == 1
    term = rep.terms[0]
    assert term.sign == 1
    assert term.generic.vector == (1, 2)
    assert len(term.contributions) == 1
    rows = term.contributions[0]
    assert sum(r.term for r in rows) == 1
    assert all(r.term > 0 for r in rows)


def test_scaled_lines_total_weight():
    # weights multiply: (2T).(3T) carries total weight 6 at the origin
    t = tropical_line()
    z = stable_intersection(scalar(2, t), scalar(3, t))
    assert z.mult_at((0, 0)) == 6


def test_line_pair_determinant():
    z = stable_intersection(line((1, 0)), line((1, 2)))
    assert z.cells == (origin,) and z.multiplicities == (2,)


def test_tropical_line_against_vertical():
    # weight of T . {x = 0} is the outgoing first coordinate: 1
    z = stable_intersection(tropical_line(), line((0, 1)))
    assert z.cells == (origin,) and z.multiplicities == (1,)


def test_overlapping_translated_lines():
    # apexes differ but one ray overlaps; stability still yields one point
    z = stable_intersection(tropical_line((1, 1)), tropical_line())
    assert z.cells == (origin,)
    assert z.multiplicities == (1,)


def test_expected_dimension_rules():
    t = tropical_line()
    pt = stable_intersection(t, t)
    assert stable_intersection(pt, t).is_zero  # 0 + 1 - 2 < 0
    assert stable_intersection(t, zero_cycle(2)).is_zero
    assert cycles_equal(stable_intersection(ambient_cycle(2), t), t)
    assert cycles_equal(stable_intersection(ambient_cycle(2, 3), t), scalar(3, t))


def test_stable_power():
    t = tropical_line()
    assert cycles_equal(stable_power(t, 0), ambient_cycle(2))
    assert cycles_equal(stable_power(t, 1), t)
    sq = stable_power(t, 2)
    assert sq.cells == (origin,) and sq.multiplicities == (1,)
    assert stable_power(t, 3).is_zero
    # the loop stops at the first zero product
    assert stable_power(t, 10**12).is_zero
    with pytest.raises(ValidationError):
        stable_power(t, -1)


def half_plane(a, b=0):
    return Polyhedron.from_hrep(2, [(a, b)])


def test_stable_power_in_codimension_zero():
    # the product of top-dimensional cycles is pointwise: weights of the
    # overlay are raised to the k-th power
    quadrant = Polyhedron.cone_from_rays(2, [(1, 0), (0, 1)])
    opposite = Polyhedron.cone_from_rays(2, [(-1, 0), (0, -1)])
    cases = [
        ambient_cycle(2, 2),
        cycle(2, [(quadrant, 3), (opposite, -2)]),
        cycle(2, [(Polyhedron.ambient(2), 1), (quadrant, 2), (half_plane((1, 1), 1), -1)]),
        cycle(2, [(half_plane((1, 0)), 1), (half_plane((-1, 0), -1), 2)]),
    ]
    for x in cases:
        acc = ambient_cycle(2)
        for k in range(4):
            assert stable_power(x, k) == acc, (x, k)
            acc = stable_intersection(acc, x)
    for m in (1, -1):
        assert stable_power(ambient_cycle(2, m), 10**12) == ambient_cycle(2)


def test_overlapping_presentation_weighs_each_pair_on_its_intersection():
    # the plane z = 0 overlapped by its two halves, against x = y: the
    # plane adds weight 1 on the whole line x = y, z = 0 and each half
    # adds weight 1 on its own ray, so the term holds three overlapping
    # cells of one hull with contributions indexed by the parsed cells
    plane = Polyhedron.from_hrep(3, [], [((0, 0, 1), 0)])
    x = cycle(
        3,
        [
            (plane, 1),
            (Polyhedron.from_hrep(3, [((-1, 0, 0), 0)], [((0, 0, 1), 0)]), 1),
            (Polyhedron.from_hrep(3, [((1, 0, 0), 0)], [((0, 0, 1), 0)]), 1),
        ],
    )
    y = cycle(3, [(Polyhedron.from_hrep(3, [], [((1, -1, 0), 0)]), 1)])
    rep = stable_intersection_report(x, y)
    rays = [Polyhedron.cone_from_rays(3, [d]) for d in ((1, 1, 0), (-1, -1, 0))]
    assert cycles_equal(rep.result, cycle(3, [(r, 2) for r in rays]))
    assert len(rep.result.cells) == 2 and rep.result.multiplicities == (2, 2)
    (term,) = rep.terms
    diagonal = Polyhedron.from_vrep(3, [(0, 0, 0)], lin=[(1, 1, 0)])
    assert term.result == cycle(3, [(diagonal, 1)] + [(r, 1) for r in rays])
    assert term.contributions == tuple(
        (FacetContribution(i, 0, Fraction(1), Fraction(1)),) for i in range(3)
    )
    assert cycles_equal(
        rep.result, stable_intersection(normalize_weighted(3, x.weighted_cells()), y)
    )


def test_nested_contribution_counts_once():
    # y is the plane x = 0 plus the half-plane {x = 0, y >= 1} minus its two
    # halves z >= 0 and z <= 0, a presentation of the plane; against z = 0
    # the plane's pair lies on the whole y-axis, and the half-plane terms
    # cancel on the ray {x = z = 0, y >= 1}
    x = cycle(3, [(Polyhedron.from_hrep(3, [], [((0, 0, 1), 0)]), 1)])
    plane = Polyhedron.from_hrep(3, [], [((1, 0, 0), 0)])
    half = Polyhedron.from_hrep(3, [((0, -1, 0), -1)], [((1, 0, 0), 0)])
    quarters = [
        Polyhedron.from_hrep(3, [((0, -1, 0), -1), (s, 0)], [((1, 0, 0), 0)])
        for s in ((0, 0, 1), (0, 0, -1))
    ]
    y = cycle(3, [(plane, 1), (half, 1)] + [(q, -1) for q in quarters])
    assert is_balanced(y)[0]
    y_axis = Polyhedron.from_vrep(3, [(0, 0, 0)], lin=[(0, 1, 0)])
    assert stable_intersection(x, y) == cycle(3, [(y_axis, 1)])


def test_overlapping_q3_presentations_match_the_bilinear_sum():
    # each operand joins the hypersurfaces of two lattice polytopes in
    # {0..3}^3, the second translated, into one overlapping presentation;
    # the product is the sum of the four single-hypersurface products
    def hyp(pts, shift=(0, 0, 0)):
        h = tropical_hypersurface(polytope(3, pts))
        return cycle(3, [(c.translate(shift), m) for c, m in h.weighted_cells()])

    xa = hyp([(2, 2, 1), (0, 0, 2), (2, 2, 2), (3, 1, 1), (1, 3, 0)])
    xb = hyp([(3, 3, 0), (3, 2, 0), (3, 2, 1), (2, 1, 1)], (-1, 0, 0))
    ya = hyp([(0, 1, 3), (1, 2, 0), (1, 0, 3), (1, 2, 3)])
    yb = hyp([(2, 3, 3), (2, 0, 2), (1, 2, 1), (3, 2, 0)], (1, -1, -1))
    x = cycle(3, xa.weighted_cells() + xb.weighted_cells())
    y = cycle(3, ya.weighted_cells() + yb.weighted_cells())
    products = [stable_intersection(a, b) for a in (xa, xb) for b in (ya, yb)]
    expected = cycle(3, [cm for z in products for cm in z.weighted_cells()])
    assert cycles_equal(stable_intersection(x, y), expected)


# --------------------------------------------------------- negative weights


def test_negative_scalar_factors_out():
    t = tropical_line()
    z = stable_intersection(scalar(-1, t), t)
    assert z.cells == (origin,) and z.multiplicities == (-1,)


def test_mixed_sign_cancellation():
    t = tropical_line()
    x = cycle_sum(t, scalar(-1, line((1, 0))))
    assert any(m < 0 for m in x.multiplicities)
    assert is_balanced(x)[0]
    # bilinearity: x . {x=0} = t . {x=0} - L . {x=0} = 1 - 1 = 0
    assert stable_intersection(x, line((0, 1))).is_zero
    # and x . t = t.t - L.t = 1 - 1 = 0
    assert stable_intersection(x, t).is_zero


def test_mixed_sign_report_has_one_term():
    t = tropical_line()
    x = cycle_sum(t, scalar(-1, line((1, 0))))
    rep = stable_intersection_report(x, line((0, 1)))
    (term,) = rep.terms
    assert term.sign == 1
    assert rep.result.is_zero
    # the plane z = 0 minus its two halves: the term keeps the line x = y
    # and the two rays on it, which cancel in the result
    plane = Polyhedron.from_hrep(3, [], [((0, 0, 1), 0)])
    halves = [Polyhedron.from_hrep(3, [(s, 0)], [((0, 0, 1), 0)]) for s in ((-1, 0, 0), (1, 0, 0))]
    x = cycle(3, [(plane, 1)] + [(h, -1) for h in halves])
    y = cycle(3, [(Polyhedron.from_hrep(3, [], [((1, -1, 0), 0)]), 1)])
    rep = stable_intersection_report(x, y)
    (term,) = rep.terms
    assert rep.result.is_zero and cycles_equal(term.result, zero_cycle(3))


q2_points = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
    min_size=3,
    max_size=4,
)


@st.composite
def q2_hypersurfaces(draw):
    p = polytope(2, draw(q2_points))
    assume(p.dim == 2)
    h = tropical_hypersurface(p)
    unit = st.integers(min_value=-1, max_value=1)
    shift = draw(st.tuples(unit, unit))
    return cycle(2, [(c.translate(shift), m) for c, m in h.weighted_cells()])


@given(
    q2_hypersurfaces(),
    q2_hypersurfaces(),
    q2_hypersurfaces(),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30)
def test_signed_operand_distributes(a_hyp, b_hyp, y, a, b):
    # (a A - b B) . y = a (A . y) - b (B . y), the right side from
    # products of positively weighted cycles only
    x = cycle_sum(scalar(a, a_hyp), scalar(-b, b_hyp))
    expected = cycle_sum(
        scalar(a, stable_intersection(a_hyp, y)), scalar(-b, stable_intersection(b_hyp, y))
    )
    assert cycles_equal(stable_intersection(x, y), expected)


def test_signed_q3_pair_runs_the_engine_once():
    # 2A - 2B for two crossing tetrahedral fans against a translated third
    # one; the planes of the negative cells of x cross the other cells
    def hyp(pts, shift=(0, 0, 0)):
        h = tropical_hypersurface(polytope(3, pts))
        return cycle(3, [(c.translate(shift), m) for c, m in h.weighted_cells()])

    a_hyp = hyp([(0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)])
    b_hyp = hyp([(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)])
    y = hyp([(1, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 1)], (-1, 0, 0))
    x = cycle_sum(scalar(2, a_hyp), scalar(-2, b_hyp))
    z = stable_intersection(x, y)
    expected = cycle_sum(
        scalar(2, stable_intersection(a_hyp, y)), scalar(-2, stable_intersection(b_hyp, y))
    )
    assert len(z.cells) == 10 and cycles_equal(z, expected)


# ------------------------------------------------------------- cross routes


def test_perturbation_route_frozen():
    t = tropical_line()
    res = perturbation_intersection(t, t)
    assert res.vector.vector == (1, 2)
    # one transverse point: the e2 ray of the still copy meets the
    # shifted diagonal ray at (0, 1)
    assert res.transverse.cells == (Polyhedron.point((0, 1)),)
    assert res.transverse.multiplicities == (1,)
    assert cycles_equal(res.limit, stable_intersection(t, t))


def test_perturbation_eps_independence_for_fans():
    t = tropical_line()
    a = perturbation_intersection(t, t, eps=Fraction(1, 7))
    b = perturbation_intersection(t, t, eps=5)
    assert cycles_equal(a.limit, b.limit)


def test_perturbation_rejects_non_fan():
    t = tropical_line((1, 1))
    with pytest.raises(ValidationError):
        perturbation_intersection(t, tropical_line())


def test_diagonal_route_frozen():
    t = tropical_line()
    z = diagonal_intersection(t, t)
    assert cycles_equal(z, stable_intersection(t, t))


small_dir = st.tuples(
    st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)
).filter(any)


@st.composite
def line_sums(draw, max_lines=2):
    k = draw(st.integers(min_value=1, max_value=max_lines))
    return line_sum(
        [(draw(small_dir), draw(st.integers(min_value=1, max_value=2))) for _ in range(k)]
    )


@given(line_sums(), line_sums())
@settings(max_examples=25)
def test_line_sum_determinant_oracle(x, y):
    # independent formula: sum over line pairs of m m' |det(d, d')|
    expected = Fraction(0)
    for cx, mx in x.weighted_cells():
        dx = cx.vrep()[2][0]
        for cy, my in y.weighted_cells():
            dy = cy.vrep()[2][0]
            expected += mx * my * abs(dx[0] * dy[1] - dx[1] * dy[0])
    z = stable_intersection(x, y)
    assert z.mult_at((0, 0)) == expected
    if expected == 0:
        assert z.is_zero
    else:
        assert z.cells == (origin,)


@given(line_sums(), line_sums())
@settings(max_examples=15)
def test_three_routes_agree(x, y):
    z1 = stable_intersection(x, y)
    z2 = diagonal_intersection(x, y)
    assert cycles_equal(z1, z2)
    if x.dim is not None and y.dim is not None:
        res = perturbation_intersection(x, y)
        assert cycles_equal(z1, res.limit)


@given(line_sums(max_lines=2), line_sums(max_lines=2))
@settings(max_examples=15)
def test_commutativity(x, y):
    assert cycles_equal(stable_intersection(x, y), stable_intersection(y, x))


@given(line_sums(max_lines=1), line_sums(max_lines=1), line_sums(max_lines=1))
@settings(max_examples=15)
def test_distributivity(x, y, z):
    lhs = stable_intersection(x, cycle_sum(y, z))
    rhs = cycle_sum(stable_intersection(x, y), stable_intersection(x, z))
    assert cycles_equal(lhs, rhs)


def test_associativity_small():
    t = tropical_line()
    u = line_sum([((1, 0), 1), ((0, 1), 1)])
    for a, b, c in [(t, u, ambient_cycle(2)), (u, u, t)]:
        lhs = stable_intersection(stable_intersection(a, b), c)
        rhs = stable_intersection(a, stable_intersection(b, c))
        assert cycles_equal(lhs, rhs)


def test_result_is_balanced():
    t = tropical_line()
    u = line_sum([((1, 1), 2), ((-1, 2), 1)])
    for z in (stable_intersection(t, u), stable_intersection(u, u)):
        assert is_balanced(z)[0]


def test_dimension_formula():
    t = tropical_line()
    u = line_sum([((1, 1), 1)])
    z = stable_intersection(t, u)
    assert z.dim == t.dim + u.dim - 2
