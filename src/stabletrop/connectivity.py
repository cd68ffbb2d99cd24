"""Connectivity of a cycle through codimension one.

Two facets count as adjacent when they meet in dimension one less than
the cycle. The cells are those of the per-hull overlay
`cycles.normalize_weighted`, so that cancelling weights are gone and the
answer is an invariant of the cycle and not of how it was entered; the
pieces of one convex cell are connected through codimension one, so no
finer refinement can change the components.

The showcase scenario builds two three-dimensional cycles in Q^5 as
stable squares of hypersurfaces. Each is connected through codimension
one, yet their slices with a hyperplane meet only at the origin and the
sum of the slices is disconnected: connectedness does not survive stable
intersection, even against an invertible-weight hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from stabletrop.cycles import TropicalCycle, _ridge_index, cycle, cycle_sum, normalize_weighted
from stabletrop.lattices import int_rank
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import RationalPolytope, polytope, standard_simplex, tropical_hypersurface
from stabletrop.stable import stable_intersection, stable_power


def facet_graph(x: TropicalCycle):
    """Per-hull overlay of x plus its facet graph: adj[i] lists the cells
    sharing a facet with cell i, read off `_ridge_index`. Within one hull
    the overlay is a complex, so its cells meet in common faces, and cells
    of different hulls meet in dimension at most d - 1: two cells sharing
    a facet meet in exactly d - 1. Cells of different hulls may also meet
    in d - 1 with no shared facet, as two crossing lines do."""
    refined = normalize_weighted(x.ambient_dim, x.weighted_cells())
    adj = [[] for _ in refined.cells]
    for _, members in _ridge_index(refined.cells).values():
        for i, _ in members:
            adj[i].extend(j for j, _ in members if j != i)
    return refined, adj


def connected_components(x: TropicalCycle):
    """The cycle split through codimension one, in order of first cells; a
    zero cycle has none. The facet graph is joined by union-find (Tarjan
    1975); then a pair still in two classes is converted when its hulls
    can meet in dimension d - 1: the stacked equality rows of two d-cells,
    which the overlay has computed to group them by hull, have rank
    n - 2d + rank(N_a + N_b) when the hulls meet and one more when they do
    not, so that rank is at most n - d + 1 (`int_rank`)."""
    refined, adj = facet_graph(x)
    n, d, cells = x.ambient_dim, refined.dim, refined.cells
    root = list(range(len(cells)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, neighbors in enumerate(adj):
        for j in neighbors:
            root[find(j)] = find(i)
    for i, j in combinations(range(len(cells)), 2):
        if d and find(i) != find(j) and int_rank(cells[i].hrep()[1] + cells[j].hrep()[1]) <= n - d + 1:
            if cells[i].intersect(cells[j]).dim == d - 1:
                root[find(j)] = find(i)
    comps = {}
    for i, c in enumerate(cells):
        comps.setdefault(find(i), []).append((c, refined.multiplicities[i]))
    return [cycle(n, comp) for comp in comps.values()]


def is_connected_through_codim1(x: TropicalCycle) -> bool:
    return len(connected_components(x)) <= 1


def supports_meet_only_at_origin(a: TropicalCycle, b: TropicalCycle) -> bool:
    """Whether every overlap of cells of a and b is exactly the origin.
    The spans of two cones meet only at 0 exactly when their stacked
    equality rows have rank n, since those rows span the orthogonal
    complement of each span; such cones meet in the origin alone and are
    settled with no conversion of their intersection (`int_rank`, as in
    `connected_components`)."""
    n = a.ambient_dim
    origin = Polyhedron.point(tuple(0 for _ in range(n)))
    for ca in a.cells:
        for cb in b.cells:
            if ca.is_cone and cb.is_cone and int_rank(ca.hrep()[1] + cb.hrep()[1]) == n:
                continue
            w = ca.intersect(cb)
            if w.is_empty:
                continue
            if w != origin:
                return False
    return True


@dataclass(frozen=True)
class DisconnectionScenario:
    """Two connected 3-cycles in Q^5 whose hyperplane slices are separated."""

    p1: RationalPolytope
    p2: RationalPolytope
    t1: TropicalCycle
    t2: TropicalCycle
    hyperplane: TropicalCycle
    slice1: TropicalCycle
    slice2: TropicalCycle
    union: TropicalCycle


def scenario_polytopes():
    p1 = standard_simplex(5)
    p2 = polytope(
        5,
        [
            (0, 0, 0, 0, 0),
            (1, 0, 0, 1, 0),
            (0, 1, 0, 0, 1),
            (0, 0, 2, 3, 0),
            (0, 0, 0, 4, 7),
            (0, 0, 6, 0, 1),
        ],
    )
    return p1, p2


def disconnection_scenario() -> DisconnectionScenario:
    p1, p2 = scenario_polytopes()
    t1 = stable_power(tropical_hypersurface(p1), 2)
    t2 = stable_power(tropical_hypersurface(p2), 2)
    h = cycle(
        5,
        [(Polyhedron.from_hrep(5, [], [((1, 1, 1, 1, 1), 0)]), 1)],
    )
    slice1 = stable_intersection(t1, h)
    slice2 = stable_intersection(t2, h)
    return DisconnectionScenario(
        p1, p2, t1, t2, h, slice1, slice2, cycle_sum(slice1, slice2)
    )
