"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (LP feasibility on generator
coordinates, pulling triangulations, inclusion-exclusion over Minkowski
sums) so that production code paths are checked against a second route
sharing no geometry code with them beyond exact arithmetic. The
arrangement references for balancing and connectivity are the exception:
they refine the whole cycle by every facet hyperplane of every cell and
read both answers off the ridges of that complex, which the library's
local checks never build. `lp_cut` keeps the cut by emptiness and
dimension tests on both closed halves, the reference for the library's
cut by vertex signs.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial

from stabletrop.cycles import _normal_in_quotient, _overlay, _ridge_index, cycle
from stabletrop.lattices import (
    nullspace_rational,
    quotient_matrix,
    rank_rows,
    rational_to_primitive,
    rref,
    saturation,
    transpose,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from stabletrop.linprog import feasible_point
from stabletrop.polyhedra import Polyhedron


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def solve_rational(matrix, rhs):
    """One rational solution x of matrix * x == rhs, or None."""
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [a / pv for a in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nr):
        if aug[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][nc]
    return tuple(x)


def vgen_member(points, rays, lin, x):
    """Whether x = sum lam_i p_i + sum mu_j r_j + sum nu_k l_k with
    lam >= 0 summing to one and mu >= 0, decided by exact LP."""
    if not points:
        return False
    n = len(x)
    gens = list(points) + list(rays) + list(lin)
    width = len(gens)
    eqs = []
    for j in range(n):
        eqs.append((tuple(g[j] for g in gens), Fraction(x[j])))
    eqs.append((tuple([1] * len(points) + [0] * (len(rays) + len(lin))), 1))
    ineqs = []
    for i in range(len(points) + len(rays)):
        row = [0] * width
        row[i] = -1
        ineqs.append((tuple(row), 0))
    return feasible_point(width, ineqs, eqs) is not None


def affine_lattice_coordinates(vertices):
    """Coordinates of vertices in a lattice basis of their affine span.

    The first vertex maps to the origin; the rest are expressed in a
    basis of the saturated direction lattice, so the output is volume
    faithful: a fundamental lattice cell of the span has volume one.
    """
    v0 = vertices[0]
    diffs = [vec_sub(v, v0) for v in vertices[1:]]
    prim = [rational_to_primitive(d) for d in diffs if any(d)]
    if not prim:
        return [tuple() for _ in vertices], 0
    lat = saturation(len(v0), prim)
    basis_cols = transpose(lat.generators)
    out = [tuple(Fraction(0) for _ in range(lat.rank))]
    for d in diffs:
        coords = solve_rational(basis_cols, d)
        assert coords is not None
        out.append(tuple(coords))
    return out, lat.rank


def _det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / Fraction(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _supported_faces(pts, base, rank):
    """Facets of conv(pts) avoiding base, as point subsets of rank-1.

    pts all lie in a common affine subspace of dimension rank (possibly
    inside a larger ambient space); the facet normal is computed inside
    that subspace, so the search is exact at every recursion depth.
    """
    n = len(pts[0])
    span_rows, _ = rref([vec_sub(p, pts[0]) for p in pts[1:]])
    out = []
    seen = set()
    for subset in combinations(range(len(pts)), rank):
        sel = [pts[i] for i in subset]
        diffs = [vec_sub(p, sel[0]) for p in sel[1:]]
        m = [[vec_dot(s, d) for s in span_rows] for d in diffs]
        betas = nullspace_rational(m, ncols=rank)
        if len(betas) != 1:
            continue
        beta = betas[0]
        h = tuple(sum(b * s[j] for b, s in zip(beta, span_rows)) for j in range(n))
        vals = [vec_dot(h, p) for p in pts]
        c = vec_dot(h, sel[0])
        if all(v <= c for v in vals) or all(v >= c for v in vals):
            face = tuple(sorted(p for p, v in zip(pts, vals) if v == c))
            if base not in face and face not in seen:
                seen.add(face)
                out.append(list(face))
    return out


def _triangulate(pts, rank):
    """Pulling triangulation: yields (rank+1)-tuples of points covering
    conv(pts) with disjoint interiors."""
    pts = sorted(set(pts))
    if rank == 0:
        yield (pts[0],)
        return
    if len(pts) == rank + 1:
        yield tuple(pts)
        return
    base = pts[0]
    for facet_pts in _supported_faces(pts, base, rank):
        for sub in _triangulate(facet_pts, rank - 1):
            yield (base,) + sub


def triangulation_volume(vertices):
    """Normalized volume of conv(vertices) inside its own affine span.

    Sum of |det| of simplex edge matrices in lattice coordinates: the
    unit simplex has volume one, a point has volume one by convention.
    """
    verts = sorted(set(tuple(Fraction(a) for a in v) for v in vertices))
    coords, rank = affine_lattice_coordinates(verts)
    if rank == 0:
        return Fraction(1)
    total = Fraction(0)
    for simplex in _triangulate(coords, rank):
        mat = [vec_sub(p, simplex[0]) for p in simplex[1:]]
        total += abs(_det(mat))
    return total


def full_dim_volume(vertex_set, n):
    """Normalized n-volume in Q^n; zero when the hull is lower dimensional."""
    verts = sorted(set(tuple(Fraction(a) for a in v) for v in vertex_set))
    if len(verts) <= n:
        return Fraction(0)
    diffs = [vec_sub(v, verts[0]) for v in verts[1:]]
    if rank_rows(diffs) < n:
        return Fraction(0)
    return triangulation_volume(verts)


def minkowski_sum_vertices(vertex_sets):
    """All pairwise-sum points of several vertex sets (superset of the
    vertices of the Minkowski sum, which is all the volume needs)."""
    acc = [tuple(Fraction(0) for _ in vertex_sets[0][0])]
    for vs in vertex_sets:
        acc = [tuple(a + b for a, b in zip(p, q)) for p in acc for q in vs]
    return sorted(set(acc))


def mixed_volume_oracle(vertex_sets):
    """Mixed volume of n polytopes in Q^n, normalized so that
    MV(simplex, ..., simplex) == 1, by inclusion-exclusion over
    normalized volumes of sub-sums."""
    n = len(vertex_sets)
    total = Fraction(0)
    for bits in product((0, 1), repeat=n):
        chosen = [vs for vs, b in zip(vertex_sets, bits) if b]
        if not chosen:
            continue
        pts = minkowski_sum_vertices(chosen)
        vol = full_dim_volume(pts, n)
        sign = 1 if (n - len(chosen)) % 2 == 0 else -1
        total += sign * vol
    return total / factorial(n)


def lp_cut(cell, planes):
    """Pieces of one cell cut by hyperplane rows (a..., b), each piece of
    the cell's dimension and weakly on one side of every hyperplane."""
    n = cell.ambient_dim
    pieces = [cell]
    for row in planes:
        a, b = row[:n], row[n]
        nxt = []
        for p in pieces:
            lo = p.intersect(Polyhedron.from_hrep(n, [(a, b)]))
            hi = p.intersect(Polyhedron.from_hrep(n, [(tuple(-x for x in a), -b)]))
            keep = [s for s in (lo, hi) if not s.is_empty and s.dim == p.dim]
            if len(keep) == 2 and keep[0] == keep[1]:
                # p lies inside the hyperplane
                keep = keep[:1]
            nxt.extend(keep)
        pieces = nxt
    return pieces


@lru_cache(maxsize=4)
def arrangement_refinement(x):
    """x refined into an honest complex by the global arrangement of all
    facet hyperplanes of all its cells, overlaps merged."""
    return cycle(x.ambient_dim, _overlay(x.weighted_cells()))


def arrangement_is_balanced(x):
    """Balancing read off the ridges of the global arrangement: the
    weighted normals around each ridge of the refinement must cancel.
    Returns (flag, failures) with (ridge, defect) pairs."""
    refined = arrangement_refinement(x)
    failures = []
    # in a genuine complex the cells containing a ridge are those having it as a facet
    for ridge, members in _ridge_index(refined.cells).values():
        qmat = quotient_matrix(ridge.direction_lattice())
        total = (0,) * len(qmat)
        for i in members:
            g = _normal_in_quotient(qmat, refined.cells[i], ridge)
            total = tuple(s + refined.multiplicities[i] * a for s, a in zip(total, g))
        if not vec_is_zero(total):
            failures.append((ridge, total))
    return not failures, failures


def arrangement_facet_graph(x):
    """The refinement by the global arrangement plus the adjacency lists
    of its facets: over a genuine complex two facets meet in dimension one
    less exactly when they share a ridge."""
    refined = arrangement_refinement(x)
    adj = [set() for _ in refined.cells]
    for _, members in _ridge_index(refined.cells).values():
        for a in members:
            for b in members:
                if a != b:
                    adj[a].add(b)
    return refined, [sorted(s) for s in adj]


def arrangement_components(x):
    """Components through codimension one of the arrangement's facet graph."""
    refined, adj = arrangement_facet_graph(x)
    seen = set()
    out = []
    for start in range(len(refined.cells)):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            comp.append((refined.cells[i], refined.multiplicities[i]))
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        out.append(cycle(x.ambient_dim, comp))
    return out
