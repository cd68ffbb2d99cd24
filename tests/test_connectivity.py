"""Connectivity through codimension one: facet graphs and components."""

from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import arrangement_components, arrangement_is_balanced, support_contains

from stabletrop.connectivity import (
    connected_components,
    facet_graph,
    is_connected_through_codim1,
    scenario_polytopes,
    supports_meet_only_at_origin,
)
from stabletrop.cycles import (
    ambient_cycle,
    cycle,
    cycle_sum,
    cycles_equal,
    is_balanced,
    zero_cycle,
)
from stabletrop.documents import document_to_cycle, loads
from stabletrop.polyhedra import Polyhedron, covered_by
from stabletrop.polytopes import polytope, standard_simplex, tropical_hypersurface
from stabletrop.stable import stable_power


def ray(n, direction, mult=1):
    return (Polyhedron.cone_from_rays(n, [direction]), mult)


def axis_line(n, direction, mult=1, through=None):
    pt = through if through is not None else tuple(0 for _ in range(n))
    return (
        Polyhedron.from_vrep(n, points=[pt], rays=[], lin=[direction]),
        mult,
    )


def tropical_line():
    return cycle(2, [ray(2, (1, 0)), ray(2, (0, 1)), ray(2, (-1, -1))])


def test_tropical_line_is_connected():
    t = tropical_line()
    assert is_connected_through_codim1(t)
    assert len(connected_components(t)) == 1


def test_facet_graph_of_tropical_line():
    # all three rays meet at the origin ridge, so the graph is a triangle
    refined, adj = facet_graph(tropical_line())
    assert len(refined.cells) == 3
    assert all(len(neighbors) == 2 for neighbors in adj)


def test_parallel_lines_are_disconnected():
    t = cycle(2, [axis_line(2, (0, 1)), axis_line(2, (0, 1), through=(1, 0))])
    assert is_balanced(t)[0]
    assert not is_connected_through_codim1(t)
    comps = connected_components(t)
    assert len(comps) == 2
    assert cycles_equal(cycle_sum(comps[0], comps[1]), t)


def test_crossing_lines_are_connected():
    t = cycle(2, [axis_line(2, (1, 0)), axis_line(2, (0, 1))])
    comps = connected_components(t)
    assert len(comps) == 1
    assert cycles_equal(comps[0], t)


def test_opposite_quadrants_are_disconnected():
    t = cycle(
        2,
        [
            (Polyhedron.cone_from_rays(2, [(1, 0), (0, 1)]), 1),
            (Polyhedron.cone_from_rays(2, [(-1, 0), (0, -1)]), 1),
        ],
    )
    assert len(connected_components(t)) == 2


def test_components_keep_multiplicities():
    t = cycle(
        2,
        [axis_line(2, (0, 1), mult=2), axis_line(2, (0, 1), mult=3, through=(1, 0))],
    )
    comps = connected_components(t)
    assert sorted(c.multiplicities[0] for c in comps) == [Fraction(2), Fraction(3)]
    assert all(is_balanced(c)[0] for c in comps)


def test_zero_and_point_cycles():
    assert connected_components(zero_cycle(3)) == []
    assert is_connected_through_codim1(zero_cycle(3))
    origin = cycle(2, [(Polyhedron.point((0, 0)), 1)])
    assert len(connected_components(origin)) == 1


def test_support_contains_frozen_cases():
    t = tropical_line()
    assert support_contains(t, Polyhedron.cone_from_rays(2, [(1, 0)]))
    assert support_contains(t, Polyhedron.point((0, 0)))
    assert not support_contains(t, Polyhedron.cone_from_rays(2, [(1, 1)]))
    assert not support_contains(t, Polyhedron.cone_from_rays(2, [(1, 0), (0, 1)]))
    assert support_contains(ambient_cycle(2), Polyhedron.cone_from_rays(2, [(1, 1)]))
    assert not support_contains(zero_cycle(2), Polyhedron.point((0, 0)))


def test_supports_meet_only_at_origin_frozen_cases():
    diag = cycle(2, [axis_line(2, (1, 1))])
    anti = cycle(2, [axis_line(2, (1, -1))])
    assert supports_meet_only_at_origin(diag, anti)
    t = tropical_line()
    x_axis = cycle(2, [axis_line(2, (1, 0))])
    assert not supports_meet_only_at_origin(t, x_axis)
    assert not supports_meet_only_at_origin(t, t)


def test_simplex_hypersurface_connected_in_3d():
    t = tropical_hypersurface(standard_simplex(3))
    assert is_connected_through_codim1(t)
    tt = stable_power(t, 2)
    assert tt.dim == 1
    assert is_connected_through_codim1(tt)


def test_scenario_polytopes_shape():
    p1, p2 = scenario_polytopes()
    assert p1.dim == 5 and p2.dim == 5
    assert len(p1.vertices) == 6 and len(p2.vertices) == 6


def test_overlapping_hypersurfaces_in_3d():
    # two tetrahedral hypersurfaces, the second translated so that cells of
    # the two overlap; checking them through the global arrangement of all
    # facet hyperplanes did not finish in two minutes
    p = polytope(3, [(0, 0, 3), (2, 0, 1), (2, 0, 3), (3, 1, 0)])
    q = polytope(3, [(0, 2, 3), (1, 1, 1), (2, 0, 2), (3, 2, 0)])
    x = cycle(
        3,
        tropical_hypersurface(p).weighted_cells()
        + [(c.translate((1, 1, 0)), m) for c, m in tropical_hypersurface(q).weighted_cells()],
    )
    assert len(x.cells) == 12
    assert is_balanced(x) == (True, [])
    assert is_connected_through_codim1(x)
    # balancing is linear in the cells: raising one weight by one fails
    # exactly on the facets of that cell, with the cell's own normals
    for c, m in x.weighted_cells():
        raised = cycle(3, [(d, k + 1 if d is c else k) for d, k in x.weighted_cells()])
        lone = is_balanced(cycle(3, [(c, 1)]))[1]
        assert [r for r, _ in lone] == sorted(c.facets(), key=Polyhedron.key)
        assert is_balanced(raised) == (False, lone)


# ------------------------------------- local checks against the arrangement


def split(cell, a, b):
    """The pieces of a cell on the two sides of the line a.x = b."""
    n = cell.ambient_dim
    sides = [
        cell.intersect(Polyhedron.from_hrep(n, [(a, b)])),
        cell.intersect(Polyhedron.from_hrep(n, [(tuple(-t for t in a), -b)])),
    ]
    keep = [p for p in sides if not p.is_empty and p.dim == cell.dim]
    return keep[:1] if len(keep) == 2 and keep[0] == keep[1] else keep


@st.composite
def q2_presentation(draw):
    """Overlapping presentation of a cycle in Q^2: a hypersurface (a line
    when its points are collinear; the plane in dimension two) plus a
    translated copy of it or of another one, each weighted by -1, 1 or 2
    with its cells split by a line, then maybe one cell's weight raised."""
    small = st.integers(min_value=-1, max_value=1)
    corner = st.tuples(st.integers(0, 2), st.integers(0, 2))
    dim = draw(st.sampled_from([1, 2]))
    base = [(Polyhedron.ambient(2), 1)]
    pairs = []
    for copy in range(2):
        if dim == 1 and (copy == 0 or draw(st.booleans())):
            pts = draw(st.tuples(corner, corner, corner).filter(lambda p: len(set(p)) > 1))
            base = tropical_hypersurface(polytope(2, pts)).weighted_cells()
        shift = draw(st.tuples(small, small)) if copy else (0, 0)
        weight = draw(st.sampled_from([-1, 1, 2]))
        a = draw(st.tuples(small, small).filter(any))
        b = draw(small)
        for c, m in base:
            pairs += [(p, m * weight) for p in split(c.translate(shift), a, b)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], pairs[i][1] + 1)
    return cycle(2, pairs)


@settings(max_examples=30)
@given(q2_presentation())
def test_local_checks_match_the_global_arrangement(x):
    ok, failures = is_balanced(x)
    want_ok, want_failures = arrangement_is_balanced(x)
    assert ok == want_ok
    # every failing ridge of the arrangement lies in exactly one failing
    # piece, with the same defect, and no piece fails without one
    for ridge, defect in want_failures:
        assert [d for r, d in failures if covered_by(ridge, [r])] == [defect]
    for r, _ in failures:
        assert any(covered_by(ridge, [r]) for ridge, _ in want_failures)
    comps = connected_components(x)
    want = arrangement_components(x)
    assert len(comps) == len(want)
    assert all(any(cycles_equal(c, w) for w in want) for c in comps)


@st.composite
def split_hypersurface_fans(draw):
    """A hypersurface fan in Q^2 or Q^3, or its sum with a second one,
    maybe translated (two parallel hyperplanes are two components), maybe
    with one weight raised so that it is not balanced; beside it the same
    cycle with every cell split by the same random hyperplanes."""
    n = draw(st.sampled_from([2, 3]))
    point = st.tuples(*[st.integers(0, 2)] * n)
    x = zero_cycle(n)
    for k in range(draw(st.integers(1, 2))):
        pts = draw(st.lists(point, min_size=2, max_size=4, unique=True))
        shift = draw(point) if k else (0,) * n
        h = tropical_hypersurface(polytope(n, pts))
        x = cycle_sum(x, cycle(n, [(c.translate(shift), m) for c, m in h.weighted_cells()]))
    pairs = list(x.weighted_cells())
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], pairs[i][1] + 1)
    normal = st.tuples(*[st.integers(-1, 1)] * n).filter(any)
    planes = draw(st.lists(st.tuples(normal, st.integers(-1, 1)), min_size=1, max_size=2))
    pieces = pairs
    for a, b in planes:
        pieces = [(p, m) for c, m in pieces for p in split(c, a, b)]
    return cycle(n, pairs), cycle(n, pieces)


@given(split_hypersurface_fans())
def test_balancing_and_components_do_not_depend_on_the_presentation(xs):
    # splitting cells adds inner ridges whose two normals cancel and
    # facets shared by the two pieces, so neither answer may change
    x, refined = xs
    assert is_balanced(refined)[0] == is_balanced(x)[0]
    assert len(connected_components(refined)) == len(connected_components(x))


def every_pair_adjacency(refined):
    """Test-side graph of the cells of an overlay that meet in codimension
    one: every pair's intersection is converted for its dimension, with no
    rank filter."""
    d = refined.dim
    return [
        [j for j, b in enumerate(refined.cells) if j != i and d > 0 and a.intersect(b).dim == d - 1]
        for i, a in enumerate(refined.cells)
    ]


def q5_reference(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "q5" / f"{name}.json"
    return document_to_cycle(loads(path.read_text(encoding="utf-8")))


def test_components_convert_only_pairs_the_facet_graph_leaves_apart(monkeypatch):
    # the facet graph already joins t1 and slice1, so no pair is
    # converted; in the union the two slices stay apart, and of their 160
    # pairs the 10 whose hulls can meet in a line are converted. Two cones
    # of slice1 and slice2 whose lattices sum to the rank of both meet
    # only at the origin, which settles 150 of their 160 pairs, so the
    # four checks of the benchmark's q5-check unit call `intersect` 10
    # times, all of them in `supports_meet_only_at_origin`
    cycles = {name: q5_reference(name) for name in ("t1", "slice1", "slice2", "union")}
    calls = []
    intersect = Polyhedron.intersect
    monkeypatch.setattr(Polyhedron, "intersect", lambda a, b: calls.append(1) or intersect(a, b))
    for name, counts, converted in (("t1", [20], 0), ("slice1", [10], 0), ("union", [16, 10], 10)):
        calls.clear()
        assert [len(c.cells) for c in connected_components(cycles[name])] == counts
        assert len(calls) == converted, name
    calls.clear()
    assert is_balanced(cycles["slice1"])[0]
    assert is_connected_through_codim1(cycles["slice1"]) and is_connected_through_codim1(cycles["t1"])
    assert len(calls) == 0
    assert supports_meet_only_at_origin(cycles["slice1"], cycles["slice2"])
    assert len(calls) == 10


@st.composite
def surfaces_in_q4(draw):
    """Two-dimensional cones in Q^4 on pairs of a few small rays, some
    translated: two cells share a ray, cross in a point, or miss, so the
    rank filter of `connected_components` skips pairs here, which it
    cannot for a hypersurface in Q^2 or Q^3."""
    rays = st.tuples(*[st.integers(-1, 1)] * 4).filter(any)
    pool = draw(st.lists(rays, min_size=3, max_size=5, unique=True))
    shift = st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, -1, 0)])
    pairs = []
    for _ in range(draw(st.integers(2, 5))):
        cone = Polyhedron.cone_from_rays(4, draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True)))
        if cone.dim == 2:
            pairs.append((cone.translate(draw(shift)), draw(st.sampled_from([1, 2, -1]))))
    return cycle(4, pairs)


def shared_facet_pairs(refined):
    """Test-side facet graph: the cells whose facet keys meet cell i's."""
    keys = [{f.key() for f in c.facets()} for c in refined.cells]
    return [[j for j in range(len(keys)) if j != i and keys[i] & keys[j]] for i in range(len(keys))]


def graph_components(refined, adj):
    """The cycles of the components of a graph on the cells, by search
    from each unseen cell in order."""
    seen, out = set(), []
    for start in range(len(refined.cells)):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append((refined.cells[i], refined.multiplicities[i]))
            stack += [j for j in adj[i] if j not in seen]
            seen.update(adj[i])
        out.append(cycle(refined.ambient_dim, comp))
    return out


@settings(max_examples=30)
@given(st.one_of(q2_presentation(), split_hypersurface_fans().map(lambda xs: xs[1]), surfaces_in_q4()))
def test_facet_graph_is_the_shared_facet_graph_and_components_match_every_pair(x):
    # the facet graph is read off the shared facets, each an edge of the
    # graph of converting every pair; the pairs it misses change no
    # component, in Q^3 and Q^4 as well as in the Q^2 of the arrangement
    refined, adj = facet_graph(x)
    every = every_pair_adjacency(refined)
    assert [sorted(js) for js in adj] == shared_facet_pairs(refined)
    assert all(set(js) <= set(every[i]) for i, js in enumerate(adj))
    assert connected_components(x) == graph_components(refined, every)


def every_pair_meets_only_at_origin(a, b):
    """Test-side `supports_meet_only_at_origin`: every pair converted."""
    origin = Polyhedron.point((0,) * a.ambient_dim)
    return all(w.is_empty or w == origin for w in (ca.intersect(cb) for ca in a.cells for cb in b.cells))


@settings(max_examples=30)
@given(surfaces_in_q4(), surfaces_in_q4())
def test_meeting_only_at_origin_matches_every_pair(a, b):
    # two cones whose lattices sum to the rank of both are settled with no
    # conversion; the answer is the one of converting every pair
    assert supports_meet_only_at_origin(a, b) == every_pair_meets_only_at_origin(a, b)
