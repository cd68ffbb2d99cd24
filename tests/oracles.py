"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (LP feasibility on generator
coordinates, pulling triangulations, inclusion-exclusion over Minkowski
sums) so that production code paths are checked against a second route
sharing no geometry code with them beyond exact arithmetic. The
arrangement references for balancing and connectivity are the exception:
they refine the whole cycle by every facet hyperplane of every cell and
read both answers off the ridges of that complex, which the library's
local checks never build, with each facet normal signed by the interior
points of the cell and the ridge (`interior_point_normal`), not by the
facet row as the library signs it. `lp_cut` keeps the cut by emptiness and
dimension tests on both closed halves, the reference for the library's
cut by vertex signs. `hrep_facets` and `hrep_all_faces` rebuild each
face from the H-rep with its tight rows made equalities, the reference
for faces read off the V-rep.
`split_point_in_sum` decides membership in a signed Minkowski sum by one
LP over the stacked coordinates of all operands, the reference for the
library's LP displacement test by intersection, `point_in_sum`.
`intersect_then_link` is the engine's former pair decision, converting
the pair's intersection for its dimension and testing the links at its
interior point by `point_in_sum`, the reference for `link_difference`,
whose rows are also compared with the Minkowski difference of the links;
`link_at` is the link cone it tests, cut out by the rows tight at a
point. `point_in_sum` stays in the library, where the benchmark's tracer
binds it by name, though the engine no longer calls it. `diagonal_intersection` is the
diagonal route of stable intersection, (X x Y) . diagonal read back
through the first factor, a cross-check of the engine on other inputs,
and `link_cycle` the local picture of a cycle at a point.
`fraction_feasible_point`
is the phase-1 simplex run on a Fraction tableau, the reference for the
library's integer tableau. `smith_transform` is the Smith form with all
four transforms U, U^-1, D and V; `snf_diagonal`, `solve_integer`,
`smith_integer_kernel`, `smith_saturation`, `smith_lattice_index` and
`smith_quotient_matrix` read invariant factors, integer solutions,
kernels, saturations, indices and the quotient map off it, the
references for the library's Hermite forms. `rref` is the reduced row
echelon form by `Fraction` elimination and `nullspace_rational` the null
space read off it, the references for the library's reduced echelon
form by back-substitution on its Bareiss echelon. `contains_vector` and
`is_subgroup_of` decide lattice membership by an integer solve, and
`rank_rows` is a rank of integer or Fraction rows. `canonical_vrep` and
`canonical_hrep` are the former canonicalizing post-passes of `vrep` and
`hrep`, a `Fraction` rref modulo the saturated lineality
(`_mod_reducer`, `_canonical_cone`), the reference for the integer
reduction inside the library's `_dd`. `support_contains` tests a region
against the support of a cycle. `hrep_hypersurface` is the former
construction of a tropical hypersurface, each edge's normal cone built
from one H-row per vertex and converted, weighted by `lattice_length`,
the reference for the cones read off the polytope's incidences.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial

from stabletrop.cycles import (
    _overlay,
    _ridge_index,
    cartesian_product,
    cycle,
    zero_cycle,
)
from stabletrop.errors import DimensionError, ValidationError
from stabletrop.lattices import (
    LatticeSubgroup,
    SubgroupError,
    identity_matrix,
    int_rank,
    mat_from_rows,
    mat_vec,
    quotient_matrix,
    rational_to_primitive,
    saturation,
    transpose,
    vec_dot,
    vec_is_zero,
    vec_sub,
    zero_subgroup,
)
from stabletrop.linprog import feasible_point
from stabletrop.polyhedra import Polyhedron, covered_by, point_in_sum
from stabletrop.stable import stable_intersection


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
    out = [tuple(0 for _ in range(lat.rank))]
    for d in diffs:
        coords = solve_rational(basis_cols, d)
        assert coords is not None
        out.append(tuple(int(c) if c.denominator == 1 else c for c in coords))
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
        # a positive multiple of the normal supports the same faces
        h = rational_to_primitive(tuple(sum(b * s[j] for b, s in zip(beta, span_rows)) for j in range(n)))
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


def split_point_in_sum(polys, x, signs):
    """Whether x lies in the signed Minkowski sum sum_i signs_i * P_i.

    Decided by one exact LP over the concatenated coordinates.
    """
    if any(p.is_empty for p in polys):
        return False
    n = polys[0].ambient_dim
    x = tuple(Fraction(a) for a in x)
    k = len(polys)
    width = k * n
    ineqs = []
    eqs = []
    for i, p in enumerate(polys):
        pi, pe = p._constraints()
        for r in pi:
            row = [0] * width
            row[i * n : (i + 1) * n] = list(r[:n])
            ineqs.append((tuple(row), r[n]))
        for r in pe:
            row = [0] * width
            row[i * n : (i + 1) * n] = list(r[:n])
            eqs.append((tuple(row), r[n]))
    for j in range(n):
        row = [0] * width
        for i, s in enumerate(signs):
            row[i * n + j] = s
        eqs.append((tuple(row), x[j]))
    return feasible_point(width, ineqs, eqs) is not None


def fraction_feasible_point(n, ineqs=(), eqs=()):
    """The phase-1 simplex of `feasible_point` run on a Fraction tableau:
    the reference for the library's integer tableau, which must make the
    same pivots and return the same point.

    A rational point satisfying a·x <= b for (a, b) in ineqs and
    c·x == d for (c, d) in eqs, or None if the system is infeasible.

    Free variables are split as x = xp - xm; slack variables turn the
    inequalities into equations; one artificial variable per row makes the
    identity starting basis. Bland's rule guarantees termination.
    """
    ineqs = [(tuple(Fraction(a) for a in row), Fraction(b)) for row, b in ineqs]
    eqs = [(tuple(Fraction(a) for a in row), Fraction(b)) for row, b in eqs]
    m = len(ineqs) + len(eqs)
    if m == 0:
        return tuple(Fraction(0) for _ in range(n))
    nslack = len(ineqs)
    # columns: xp (n) | xm (n) | slack (nslack) | artificial (m)
    width = 2 * n + nslack + m
    rows = []
    rhs = []
    for k, (a, b) in enumerate(ineqs):
        row = [Fraction(0)] * width
        for j in range(n):
            row[j] = a[j]
            row[n + j] = -a[j]
        row[2 * n + k] = Fraction(1)
        rows.append(row)
        rhs.append(b)
    for k, (c, d) in enumerate(eqs):
        row = [Fraction(0)] * width
        for j in range(n):
            row[j] = c[j]
            row[n + j] = -c[j]
        rows.append(row)
        rhs.append(d)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]
        rows[i][2 * n + nslack + i] = Fraction(1)

    basis = [2 * n + nslack + i for i in range(m)]
    # objective: minimize the sum of artificials; reduced cost row
    obj = [Fraction(0)] * width
    for j in range(2 * n + nslack):
        obj[j] = -sum(rows[i][j] for i in range(m))
    z = -sum(rhs)

    while True:
        enter = None
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rhs[i] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            return None
        piv = rows[leave][enter]
        rows[leave] = [a / piv for a in rows[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
                rhs[i] -= f * rhs[leave]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, rows[leave])]
            z -= f * rhs[leave]
        basis[leave] = enter

    if z != 0:
        return None
    x = [Fraction(0)] * width
    for i, col in enumerate(basis):
        x[col] = rhs[i]
    return tuple(x[j] - x[n + j] for j in range(n))


def smith_transform(matrix):
    """Smith normal form with all four transforms.

    Returns (U, Uinv, D, V) with U * matrix * V == D, where U and V are
    unimodular, Uinv is the inverse of U, and D is diagonal with
    nonnegative invariant factors d1 | d2 | ...
    """
    D = [list(int(a) for a in r) for r in matrix]
    nr = len(D)
    nc = len(D[0]) if nr else 0
    U = [list(r) for r in identity_matrix(nr)]
    Uinv = [list(r) for r in identity_matrix(nr)]
    V = [list(r) for r in identity_matrix(nc)]

    def row_sub(i, j, q):
        # row_i -= q * row_j; Uinv gets the inverse column operation
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]
        for k in range(nr):
            Uinv[k][j] += q * Uinv[k][i]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for k in range(nr):
            Uinv[k][i], Uinv[k][j] = Uinv[k][j], Uinv[k][i]

    def row_negate(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for k in range(nr):
            Uinv[k][i] = -Uinv[k][i]

    def col_sub(j, i, q):
        # col_j -= q * col_i
        for k in range(nr):
            D[k][j] -= q * D[k][i]
        for k in range(nc):
            V[k][j] -= q * V[k][i]

    def col_swap(i, j):
        for k in range(nr):
            D[k][i], D[k][j] = D[k][j], D[k][i]
        for k in range(nc):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        entries = [(abs(D[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if D[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        dirty = False
        for i in range(t + 1, nr):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                row_sub(i, t, q)
                if D[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                col_sub(j, t, q)
                if D[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        p = D[t][t]
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if D[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_sub(t, bad, -1)
            continue
        if D[t][t] < 0:
            row_negate(t)
        t += 1
    return (mat_from_rows(U), mat_from_rows(Uinv), mat_from_rows(D), mat_from_rows(V))


def smith_quotient_matrix(sub):
    """The quotient map by a saturated subgroup read off the Smith row
    transform of its generator columns: the rows d..n of U annihilate
    them, and U is unimodular, so the map is onto Z^(n-d)."""
    n, d = sub.ambient_rank, sub.rank
    if d == 0:
        return identity_matrix(n)
    u, _, diag, _ = smith_transform(sub.basis_columns())
    if any(abs(diag[i][i]) != 1 for i in range(d)):
        raise SubgroupError("subgroup is not saturated")
    return tuple(u[i] for i in range(d, n))


def rref(rows):
    """Reduced row echelon form over Q. Returns (rows, pivot_columns)."""
    m = [[Fraction(a) for a in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def nullspace_rational(rows, ncols=None):
    """Basis of the rational null space of a matrix, deterministic order."""
    nc = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    if not rows:
        return [tuple(Fraction(1 if i == j else 0) for i in range(nc)) for j in range(nc)]
    red, pivots = rref(rows)
    free = [j for j in range(nc) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def snf_diagonal(matrix):
    """Invariant factor list of an integer matrix, zeros for rank defects."""
    _, _, d, _ = smith_transform(matrix)
    k = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(k)]


def solve_integer(matrix, rhs):
    """One integer solution x of matrix * x == rhs, or None."""
    m = mat_from_rows(matrix)
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nr == 0:
        return tuple(0 for _ in range(nc))
    u, _, d, v = smith_transform(m)
    ub = mat_vec(u, tuple(rhs))
    y = [0] * nc
    for i in range(nr):
        di = d[i][i] if i < min(nr, nc) else 0
        if di != 0:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
        elif ub[i] != 0:
            return None
    return mat_vec(v, tuple(y))


def smith_integer_kernel(matrix):
    """Integer kernel basis read off the columns of V in U * matrix * V == D."""
    m = mat_from_rows(matrix)
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nc == 0:
        return []
    _, _, d, v = smith_transform(m)
    return [
        tuple(v[i][j] for i in range(nc))
        for j in range(nc)
        if j >= min(nr, nc) or d[j][j] == 0
    ]


def smith_saturation(ambient_rank, vectors):
    """Saturated lattice spanned by the first rank columns of Uinv."""
    vecs = [tuple(int(a) for a in v) for v in vectors if not vec_is_zero(v)]
    if not vecs:
        return zero_subgroup(ambient_rank)
    _, uinv, d, _ = smith_transform(transpose(vecs))
    nz = sum(1 for i in range(min(ambient_rank, len(vecs))) if d[i][i] != 0)
    gens = [tuple(uinv[i][j] for i in range(ambient_rank)) for j in range(nz)]
    return LatticeSubgroup.from_vectors(ambient_rank, gens)


def smith_lattice_index(ambient, sub):
    """Index [ambient : sub] by one integer solve per generator of sub and
    the invariant factors of its coordinates: a Fraction, None when it is
    infinite, SubgroupError when sub is not contained in ambient."""
    if ambient.ambient_rank != sub.ambient_rank:
        raise ValueError("ambient ranks differ")
    if sub.rank == 0:
        if ambient.rank == 0:
            return Fraction(1)
        return None
    cols = ambient.basis_columns()
    coords = []
    for g in sub.generators:
        x = solve_integer(cols, g)
        if x is None:
            raise SubgroupError("generators do not lie in the ambient subgroup")
        coords.append(x)
    if sub.rank < ambient.rank:
        return None
    idx = 1
    for d in snf_diagonal(transpose(coords)):
        if d == 0:
            return None
        idx *= abs(d)
    return Fraction(idx)


def contains_vector(lattice, v):
    """Whether the integer vector v lies in the lattice subgroup."""
    if vec_is_zero(v):
        return True
    if not lattice.generators:
        return False
    return solve_integer(lattice.basis_columns(), v) is not None


def is_subgroup_of(a, b):
    """Whether every generator of the subgroup a lies in b."""
    return all(contains_vector(b, g) for g in a.generators)


def rank_rows(rows) -> int:
    """Rank of a matrix with integer or Fraction entries."""
    scaled = []
    for r in rows:
        if any(isinstance(a, Fraction) and a.denominator != 1 for a in r):
            scaled.append(rational_to_primitive(r) if any(r) else tuple(0 for _ in r))
        else:
            scaled.append(tuple(int(a) for a in r))
    return int_rank(scaled)


def _mod_reducer(lin_rows):
    """Linear map eliminating the pivot coordinates of span(lin_rows)."""
    if not lin_rows:
        return lambda v: tuple(Fraction(a) for a in v)
    red, piv = rref(lin_rows)

    def reduce(v):
        w = [Fraction(a) for a in v]
        for row, p in zip(red, piv):
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    return reduce


def _canonical_cone(dim, lin, rays):
    """Canonical (lin_rows, ray_tuple) for a cone given any generators."""
    lin_sat = saturation(dim, lin)
    reduce = _mod_reducer(lin_sat.generators)
    out = set()
    for r in rays:
        r2 = reduce(r)
        if not vec_is_zero(r2):
            out.add(rational_to_primitive(r2))
    return lin_sat.generators, tuple(sorted(out))


def canonical_vrep(n, points, rays, lin):
    """Canonical (points, rays, lin) of the polyhedron whose vertices,
    extreme rays and lineality are given in any presentation: rays and
    points reduced modulo the saturated lineality by a Fraction rref."""
    lin_rows, ray_tuple = _canonical_cone(n, lin, rays)
    reduce = _mod_reducer(lin_rows)
    return tuple(sorted({reduce(p) for p in points})), ray_tuple, lin_rows


def canonical_hrep(n, ineq_rows, eq_rows):
    """Canonical (ineq_rows, eq_rows) of the polyhedron whose facet rows
    and equality rows (a..., b) are given in any presentation."""
    eq_rows, rows = _canonical_cone(n + 1, eq_rows, ineq_rows)
    return tuple(r for r in rows if not vec_is_zero(r[:n])), eq_rows


def hrep_dim(p):
    """Dimension read off the H-rep: ambient minus the equality rows."""
    return -1 if p.is_empty else p.ambient_dim - len(p.hrep()[1])


def hrep_facets(p):
    """Codimension-one faces of p."""
    n = p.ambient_dim
    ineqs, eqs = p.hrep()
    out = []
    for r in ineqs:
        pairs_i = [(q[:n], q[n]) for q in ineqs]
        pairs_e = [(q[:n], q[n]) for q in eqs] + [(r[:n], r[n])]
        out.append(Polyhedron.from_hrep(n, pairs_i, pairs_e))
    return out


def hrep_all_faces(p):
    """Every nonempty face of p, including p itself."""
    if p.is_empty:
        return ()
    seen = {}
    stack = [p]
    while stack:
        f = stack.pop()
        k = f.key()
        if k in seen:
            continue
        seen[k] = f
        stack.extend(hrep_facets(f))
    return tuple(sorted(seen.values(), key=lambda f: (hrep_dim(f), f.key())))


def lattice_length(edge):
    """Length of a segment in units of the primitive lattice vector along it."""
    if edge.dim != 1 or not edge.is_bounded:
        raise ValidationError("lattice length needs a bounded segment")
    pts, _, _ = edge.vrep()
    d = vec_sub(pts[1], pts[0])
    p = rational_to_primitive(d)
    i = next(k for k, x in enumerate(p) if x != 0)
    return Fraction(d[i], p[i])


def hrep_hypersurface(p):
    """Tropical hypersurface of a polytope from H-rows: each edge [u, v]
    among the faces rebuilt from the H-rep gives the cone of w with
    w.u <= w.x for every vertex x and w.(v - u) == 0, converted, weighted
    by `lattice_length`."""
    n = p.ambient_dim
    poly = p.polyhedron
    if poly.dim == 0:
        return zero_cycle(n)
    cells = []
    for e in hrep_all_faces(poly):
        if e.dim != 1:
            continue
        pts, _, _ = e.vrep()
        u = pts[0]
        ineqs = [(vec_sub(u, x), 0) for x in p.vertices]
        eqs = [(vec_sub(pts[1], u), 0)]
        cells.append((Polyhedron.from_hrep(n, ineqs, eqs), lattice_length(e)))
    return cycle(n, cells)


@lru_cache(maxsize=4)
def arrangement_refinement(x):
    """x refined into an honest complex by the global arrangement of all
    facet hyperplanes of all its cells, overlaps merged."""
    return cycle(x.ambient_dim, _overlay(x.weighted_cells()))


def interior_point_normal(qmat, sigma, ridge):
    """Primitive image of sigma's direction lattice in the quotient by the
    ridge directions, signed by the interior points: it points along the
    image of sigma's interior point minus the ridge's."""
    img = None
    for g in sigma.direction_lattice().generators:
        w = mat_vec(qmat, g)
        if not vec_is_zero(w):
            img = rational_to_primitive(w)
            break
    if img is None:
        raise ValidationError("facet does not extend the ridge")
    d = vec_sub(sigma.interior_point(), ridge.interior_point())
    qd = mat_vec(qmat, d)
    j = next(i for i, a in enumerate(img) if a != 0)
    if qd[j] * img[j] < 0:
        img = tuple(-a for a in img)
    return img


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
        for i, _ in members:
            g = interior_point_normal(qmat, refined.cells[i], ridge)
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
        for a, _ in members:
            for b, _ in members:
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


def diagonal_cycle(n):
    """The diagonal subspace {(u, u)} of Q^(2n) with weight one."""
    gens = [tuple(1 if j == i or j == i + n else 0 for j in range(2 * n)) for i in range(n)]
    cell = Polyhedron.from_vrep(2 * n, [tuple(0 for _ in range(2 * n))], lin=gens)
    return cycle(2 * n, [(cell, 1)])


def diagonal_intersection(x, y):
    """Stable intersection computed as (X x Y) . diagonal, read back
    through the first factor; the diagonal lattice maps to Z^n
    unimodularly, so weights carry over unchanged."""
    if x.ambient_dim != y.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    n = x.ambient_dim
    if x.is_zero or y.is_zero:
        return zero_cycle(n)
    prod = cartesian_product(x, y)
    z = stable_intersection(prod, diagonal_cycle(n))
    proj = [tuple(1 if j == i else 0 for j in range(2 * n)) for i in range(n)]
    return cycle(n, [(c.image(proj), m) for c, m in z.weighted_cells()])


def link_at(p, v):
    """Cone of directions u with v + eps*u in P for small eps > 0."""
    if not p.contains(v):
        raise ValidationError("link base point is not in the polyhedron")
    v = tuple(Fraction(a) for a in v)
    n = p.ambient_dim
    ineqs, eqs = p.hrep()
    tight = [r for r in ineqs if vec_dot(r[:n], v) == r[n]]
    return Polyhedron.from_hrep(
        n,
        [(r[:n], 0) for r in tight],
        [(r[:n], 0) for r in eqs],
    )


def link_cycle(x, w):
    """Cone cycle of directions along which x is entered from w."""
    pairs = []
    for c, m in zip(x.cells, x.multiplicities):
        if c.contains(w):
            pairs.append((link_at(c, w), m))
    return cycle(x.ambient_dim, pairs)


def intersect_then_link(p, q, v):
    """The engine's pair decision before its pair tests read the cells'
    rows (`link_difference`): convert P ∩ Q to read its dimension, take
    its interior point, and test the links there. True when the pair
    contributes."""
    k_res = p.dim + q.dim - p.ambient_dim
    w = p.intersect(q)
    if w.dim != k_res:
        return False
    gamma = w.interior_point()
    return point_in_sum(link_at(p, gamma), link_at(q, gamma), v)


def support_contains(x, region):
    """Whether the region lies inside the support of x."""
    return covered_by(region, x.cells)
