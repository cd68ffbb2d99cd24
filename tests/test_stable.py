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
from oracles import diagonal_intersection

from stabletrop.cycles import (
    GenericVector,
    ambient_cycle,
    cycle,
    cycle_sum,
    cycles_equal,
    is_balanced,
    normalize_weighted,
    pushforward,
    scalar,
    zero_cycle,
)
from stabletrop import algebra, cycles, lattices, polyhedra, stable
from stabletrop.errors import ValidationError
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import mixed_volume, normalized_volume, polytope, standard_simplex, tropical_hypersurface
from stabletrop.stable import (
    FacetContribution,
    displacement_vector,
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


def test_codimension_zero_products_in_q1():
    # two cones of Q^1 have no equality rows, and their hulls meet in the
    # line Q^1 itself: the sign check reads its direction (1,)
    plus, minus = ray(1, (1,)), ray(1, (-1,))
    fan = cycle(1, [(plus, 1), (minus, 1)])
    cell = cycle(1, [(Polyhedron.from_vrep(1, [(0,)], lin=[(1,)]), 2)])
    pos = cycle(1, [(plus, 1)])
    for x, y, want in [
        (fan, fan, fan),
        (fan, cell, scalar(2, fan)),
        (cell, fan, scalar(2, fan)),
        (cell, cell, scalar(2, cell)),
        (pos, fan, pos),
        (pos, cell, scalar(2, pos)),
        (pos, pos, pos),
    ]:
        z = stable_intersection_report(x, y).result
        assert cycles_equal(z, want)
        assert cycles_equal(z, diagonal_intersection(x, y))


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


def test_ambient_factor_is_read_off_without_the_engine(monkeypatch):
    # a factor c . Q^2, the one cell Q^2 with weight c (given once, or
    # twice and merged), gives the engine's result with no run; Q^2 split
    # into two half-planes of weight c, and every other factor, runs it
    twice = cycle(2, [(Polyhedron.ambient(2), -1), (Polyhedron.ambient(2), Fraction(-1, 2))])
    split = cycle(2, [(half_plane((1, 0)), -3), (half_plane((-1, 0)), -3)])
    quadrant = Polyhedron.cone_from_rays(2, [(1, 0), (0, 1)])
    cases = [
        (ambient_cycle(2, 2), True),
        (twice, True),
        (split, False),
        (tropical_line(), False),
        (cycle(2, [(quadrant, 2)]), False),
    ]
    engine = stable.stable_intersection_report
    for a, read_a in cases:
        for b, read_b in cases:
            calls = []
            monkeypatch.setattr(stable, "stable_intersection_report", lambda x, y: calls.append(1) or engine(x, y))
            got = stable_intersection(a, b)
            monkeypatch.undo()
            assert got == engine(a, b).result
            assert len(calls) == (0 if read_a or read_b else 1), (a, b)


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


def translated(x, t):
    return cycle(x.ambient_dim, [(c.translate(t), m) for c, m in x.weighted_cells()])


def shifted(x, t):
    """x + t built from each cell's generators with its points moved,
    with no call to `translate`."""
    n = x.ambient_dim
    cells = []
    for c, m in x.weighted_cells():
        pts, rays, lin = c.vrep()
        cells.append((Polyhedron.from_vrep(n, [tuple(a + b for a, b in zip(p, t)) for p in pts], rays, lin), m))
    return cycle(n, cells)


@st.composite
def small_hypersurfaces(draw, n):
    """The tropical hypersurface of a lattice polytope in the box [0, 2]^n
    with n + 1 or n + 2 vertices, of any positive dimension."""
    coords = st.tuples(*[st.integers(0, 2)] * n)
    p = polytope(n, draw(st.lists(coords, min_size=n + 1, max_size=n + 2, unique=True)))
    assume(p.dim >= 1)
    return tropical_hypersurface(p)


@given(st.data())
@settings(max_examples=20)
def test_translating_both_inputs_translates_the_result(data):
    # X . Y is translation invariant: (X + t) . (Y + t) = X . Y + t, with
    # the same certificate, since translation keeps every face lattice;
    # the inputs move by their rows, the expected result by its points
    n = data.draw(st.sampled_from((2, 3)))
    x, y = data.draw(small_hypersurfaces(n)), data.draw(small_hypersurfaces(n))
    shift = st.sampled_from((-1, 0, Fraction(1, 2), 2))
    y = translated(y, data.draw(st.tuples(*[shift] * n)))
    t = data.draw(st.tuples(*[shift] * n))
    before = stable_intersection_report(x, y)
    after = stable_intersection_report(translated(x, t), translated(y, t))
    assert cycles_equal(after.result, shifted(before.result, t))
    assert [term.generic for term in after.terms] == [term.generic for term in before.terms]


def split_cells(x, planes):
    """x with every cell cut by each hyperplane a.x = b into the closed
    pieces on its two sides that keep the cell's dimension."""
    n = x.ambient_dim
    pairs = x.weighted_cells()
    for a, b in planes:
        out = []
        for c, m in pairs:
            sides = [c.intersect(Polyhedron.from_hrep(n, [h])) for h in ((a, b), (tuple(-t for t in a), -b))]
            keep = [p for p in sides if p.dim == c.dim]
            out += [(p, m) for p in (keep[:1] if keep[0] == keep[-1] else keep)]
        pairs = out
    return cycle(n, pairs)


@given(st.data())
@settings(max_examples=30)
def test_splitting_cells_keeps_the_product(data):
    # X . Y is a cycle, defined up to refinement: cutting X's cells by
    # random hyperplanes changes the pairs the engine weighs and the
    # faces its displacement avoids, not the product
    n = data.draw(st.sampled_from((2, 3)))
    x, y = data.draw(small_hypersurfaces(n)), data.draw(small_hypersurfaces(n))
    y = translated(y, data.draw(st.tuples(*[st.sampled_from((-1, 0, Fraction(1, 2)))] * n)))
    normal = st.tuples(*[st.integers(-1, 1)] * n).filter(any)
    planes = data.draw(st.lists(st.tuples(normal, st.integers(-1, 1)), min_size=1, max_size=2))
    split = split_cells(x, planes)
    assert cycles_equal(split, x)
    assert cycles_equal(stable_intersection(split, y), stable_intersection(x, y))


@st.composite
def unimodular(draw, n):
    """A matrix in GL_n(Z): three random shears, then the rows permuted."""
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for _ in range(3):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        rows[i] = tuple(a + c * b for a, b in zip(rows[i], rows[j]))
    return draw(st.permutations(rows))


@given(st.data())
@settings(max_examples=15)
def test_unimodular_pushforward_commutes_with_the_product(data):
    # a lattice automorphism A keeps every lattice index, so
    # A_*(X . Y) = A_*X . A_*Y
    n = data.draw(st.sampled_from((2, 3)))
    x, y = data.draw(small_hypersurfaces(n)), data.draw(small_hypersurfaces(n))
    y = translated(y, data.draw(st.tuples(*[st.sampled_from((-1, 0, Fraction(1, 2)))] * n)))
    a = data.draw(unimodular(n))
    want = pushforward(a, stable_intersection(x, y))
    assert cycles_equal(stable_intersection(pushforward(a, x), pushforward(a, y)), want)


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


def hypersurface_pair():
    """The Q^3 pair of `test_engine_lps_are_in_the_ambient_coordinates`."""
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    q = polytope(3, [(0, 2, 3), (1, 1, 1), (2, 0, 2), (3, 2, 0)])
    x = tropical_hypersurface(p)
    y = cycle(3, [(c.translate((1, 1, 0)), m) for c, m in tropical_hypersurface(q).weighted_cells()])
    return x, y


def spanning_pairs(x, y):
    """The number of cell pairs whose direction lattices sum to rank n."""
    lats = lambda z: [c.direction_lattice().generators for c in z.cells]
    return sum(lattices.int_rank(a + b) == x.ambient_dim for a in lats(x) for b in lats(y))


def test_engine_lps_are_in_the_ambient_coordinates(monkeypatch):
    # each spanning pair is decided by one LP on the cells' rows in the
    # homogenized coordinates (y, s), 4 variables in Q^3, and the
    # displacement test of a pair that passes is the signs of g·v on the
    # rows of C_x - C_y, with no LP (an LP in the 3 ambient coordinates
    # each made 14 more); no LP checks the emptiness of a pair's
    # intersection (converting each intersection for its dimension made
    # 49 LPs, all in 3 variables). The counts pin the work
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    q = polytope(3, [(0, 2, 3), (1, 1, 1), (2, 0, 2), (3, 2, 0)])
    x = tropical_hypersurface(p)
    y = cycle(3, [(c.translate((1, 1, 0)), m) for c, m in tropical_hypersurface(q).weighted_cells()])
    calls = []
    lp = polyhedra.feasible_point
    monkeypatch.setattr(polyhedra, "feasible_point", lambda n, *a, **k: calls.append(n) or lp(n, *a, **k))
    report = stable_intersection_report(x, y)
    assert len(report.result.cells) == 14
    assert spanning_pairs(x, y) == calls.count(4) == len(calls) == 35


def test_engine_converts_only_contributing_intersections(monkeypatch):
    # with the cells' representations computed beforehand, the engine
    # converts nothing to decide a pair: the _dd calls are the V-rep of
    # each of the 6 result cells (its key), and the H-rep that the overlay
    # groups it by is read off its rows (12 calls when that H-rep was a
    # second conversion; converting every spanning pair's intersection
    # took 41 calls)
    x = tropical_hypersurface(polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)]))
    y = tropical_hypersurface(polytope(3, [(0, 2, 3), (1, 1, 1), (2, 0, 2), (3, 2, 0)]))
    for c in x.cells + y.cells:
        c.hrep(), c.vrep()
    calls = []
    dd = polyhedra._dd
    monkeypatch.setattr(polyhedra, "_dd", lambda *a: calls.append(a[0]) or dd(*a))
    report = stable_intersection_report(x, y)
    assert len(report.result.cells) == 6
    assert len(calls) == 6


def test_displacement_vector_takes_a_hermite_form_per_deficient_pair(monkeypatch):
    # 11 x 11 face lattices give 121 pairs; fraction-free elimination finds
    # the 45 of rank < 3, and only the 16 of those whose rank exceeds both
    # sides' take the Hermite form of their sum: the lattices are
    # saturated, so a pair of one side's rank sums to that side; the
    # certificate is the one the Hermite form of every pair gives
    x, y = hypersurface_pair()
    calls = []
    hnf = stable.sum_lattices
    monkeypatch.setattr(stable, "sum_lattices", lambda a, b: calls.append(1) or hnf(a, b))
    assert displacement_vector(x, y) == GenericVector((1, 3, 9), 3, 29)
    assert len(calls) == 16


def test_faces_are_walked_once(monkeypatch):
    # each side's 6 cells have 24 faces but 11 distinct ones: dim is the
    # rank of the direction vectors, so sorting the faces by dimension
    # takes no saturation (two Hermite forms per face before); the
    # hypersurface cells carry both representations, so their faces take
    # no _dd; and displacement_vector takes one direction lattice per
    # distinct face, 22 for the pair (48, one per face, before)
    x, y = hypersurface_pair()
    for c in y.cells:
        c.vrep(), c.hrep()
    calls = []
    counting(monkeypatch, polyhedra, "_dd", calls)
    counting(monkeypatch, polyhedra, "saturation", calls)
    faces = [[f for c in z.cells for f in c.all_faces()] for z in (x, y)]
    assert [(len(fs), len(set(fs))) for fs in faces] == [(24, 11), (24, 11)]
    assert calls == []
    assert displacement_vector(x, y) == GenericVector((1, 3, 9), 3, 29)
    assert calls == ["saturation"] * 22


def q3_body_hypersurface():
    """The hypersurface of the first body of `hypersurface_pair`: 6 cells
    with 11 face lattices."""
    return tropical_hypersurface(polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)]))


def counting(monkeypatch, module, name, calls):
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(name) or f(*a))


def test_self_product_decides_each_unordered_pair_once(monkeypatch):
    # in h . h the pair (j, i) takes the decision of (i, j) and tests its
    # displacement on the rows of C_i - C_j with the sign turned, and
    # each unordered pair of the 11 face lattices is rank-tested once:
    # `link_difference` runs on the 21 unordered pairs of the 6 cells and
    # decides their span itself, and `int_rank` on 66 of 121 lattice
    # pairs (55 + 11; a separate rank pass over the cell pairs made 21
    # more and left 15 spanning pairs to `link_difference`).
    # `sum_lattices` runs for the 6 deficient lattice pairs not nested in
    # one side and the 4 contributing cell pairs (27 when every unordered
    # cell pair took the Hermite form of its sum and the displacement test
    # was an LP). The overlay of h has equal cells but is another object,
    # and counts the same
    h = q3_body_hypersurface()
    overlay = normalize_weighted(3, h.weighted_cells())
    assert overlay is not h and overlay.cells == h.cells
    for x in (h, overlay):
        calls = []
        for name in ("link_difference", "int_rank", "sum_lattices"):
            counting(monkeypatch, stable, name, calls)
        counting(monkeypatch, polyhedra, "feasible_point", calls)
        report = stable_intersection_report(x, h)
        monkeypatch.undo()
        assert spanning_pairs(x, h) == 30
        assert calls.count("link_difference") == 21 and calls.count("feasible_point") == 0
        assert calls.count("int_rank") == 66 and calls.count("sum_lattices") == 10
        assert len(report.result.cells) == 4


def test_self_product_certificate_and_contributions_are_pinned():
    # recorded with every ordered pair decided on its own: taking the
    # swapped links keeps the certificate and the contributions, in order
    h = q3_body_hypersurface()
    (term,) = stable_intersection_report(h, h).terms
    assert term.generic == GenericVector((1, 2, 4), 2, 11)
    assert term.contributions == (
        (FacetContribution(2, 1, Fraction(1), Fraction(2)),),
        (FacetContribution(4, 3, Fraction(1), Fraction(2)),),
        (FacetContribution(5, 3, Fraction(1), Fraction(4)),),
        (FacetContribution(2, 5, Fraction(1), Fraction(2)),),
    )


def test_fan_product_meeting_in_points_runs_no_pair_lp(monkeypatch):
    # (h . h) . h is a product of fans whose spanning pairs meet in the
    # origin, which `link_difference` takes as its point, so no pair LP
    # runs in the 4 homogenized coordinates; the displacement tests are
    # signs of g·v, so no LP runs in the 3 ambient ones either
    h = q3_body_hypersurface()
    hh = stable_intersection(h, h)
    calls = []
    lp = polyhedra.feasible_point
    monkeypatch.setattr(polyhedra, "feasible_point", lambda n, *a: calls.append(n) or lp(n, *a))
    assert stable_intersection_report(hh, h).result.cells == (Polyhedron.point((0, 0, 0)),)
    assert calls == []


def test_simplex_volume_counts_in_q5(monkeypatch):
    # the Q^5 simplex volume runs h . h, a self-product, then h^2 . h,
    # h^3 . h and h^4 . h, the last a product of fans meeting in points;
    # every LP is a pair LP, and the lattice sum is taken only for a
    # contributing pair. Deciding every ordered pair on its own, with a
    # pair LP each, took 7,296 `int_rank`, 3,630 `sum_lattices`, 615 pair
    # tests and 1,065 LPs; with the swapped pairs but a displacement LP
    # per pair and a lattice sum per unordered spanning pair, 5,700,
    # 3,015, 510 and 930. `link_difference` decides the span too, so it
    # runs on every unordered pair of a self-product and every ordered
    # pair of the others, 735 (510 and 6,435 `int_rank` with a separate
    # rank pass over the cell pairs)
    calls = []
    for name in ("int_rank", "sum_lattices", "link_difference"):
        counting(monkeypatch, stable, name, calls)
    counting(monkeypatch, polyhedra, "feasible_point", calls)
    assert normalized_volume(standard_simplex(5)) == 1
    counts = {name: calls.count(name) for name in dict.fromkeys(calls)}
    assert counts == {"int_rank": 5700, "sum_lattices": 2322, "link_difference": 735, "feasible_point": 345}


def test_volumes_in_q3_run_no_lp(monkeypatch):
    # a Q^3 volume and a three-body Q^3 mixed volume multiply fans whose
    # spanning pairs meet in a point or whose hulls meet in a line, so
    # every pair is decided by the origin or by signs, and every
    # displacement test by the signs of g·v
    calls = []
    counting(monkeypatch, polyhedra, "feasible_point", calls)
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    q = polytope(3, [(0, 2, 3), (1, 1, 1), (2, 0, 2), (3, 2, 0)])
    assert normalized_volume(p) == 4
    assert mixed_volume([p, q, standard_simplex(3)]) == 17
    assert calls == []


def count_calls(monkeypatch, name):
    """Count the calls of a lattice function under every module's binding
    of its name."""
    calls = []
    f = getattr(lattices, name)
    for module in (lattices, algebra, cycles):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or f(*a, **k))
    return calls


def test_engine_decides_pairs_without_a_fraction_null_space(monkeypatch):
    # with the cells' representations computed beforehand, the run makes no
    # reduced echelon over Q: the rows constant on aff σ ∩ aff τ are found
    # in integers, with no null space, and each result cell's H-rep is
    # reduced modulo its equalities by integer steps inside `_dd`; the
    # Fraction rref and null space are gone from the library
    x, y = hypersurface_pair()
    for c in x.cells + y.cells:
        c.hrep(), c.vrep()
    calls = count_calls(monkeypatch, "reduced_echelon")
    report = stable_intersection_report(x, y)
    assert len(report.result.cells) == 14
    assert len(calls) == 0
    for module in (lattices, polyhedra, algebra):
        assert not hasattr(module, "nullspace_rational")
        assert not hasattr(module, "rref")


def test_engine_takes_no_smith_form(monkeypatch):
    # lattice indices, kernels, saturations and the quotient map are read
    # off Hermite forms, and the library has no Smith form; neither the
    # engine nor a volume takes a quotient map or a reduced echelon
    x, y = hypersurface_pair()
    quotients = count_calls(monkeypatch, "quotient_matrix")
    echelons = count_calls(monkeypatch, "reduced_echelon")
    assert len(stable_intersection_report(x, y).result.cells) == 14
    assert normalized_volume(polytope(3, [(0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 2)])) == 4
    assert len(quotients) == 0 and len(echelons) == 0
    assert not hasattr(lattices, "snf_transform")


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
