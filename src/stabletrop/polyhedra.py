"""Exact rational polyhedra via the double description method.

A polyhedron is stored with lazily computed canonical representations:

* V-side: (points, rays, lineality) with the lineality basis in Hermite
  form of its saturated lattice, rays reduced modulo the lineality and
  primitive, points reduced modulo the lineality, everything sorted. Two
  polyhedra are equal iff their canonical V-data agree.
* H-side: inequality rows (a_1, ..., a_n, b) meaning a.x <= b, one per
  facet, jointly primitive and reduced modulo the equality lattice;
  equality rows (c_1, ..., c_n, d) meaning c.x = d, the Hermite basis of
  the saturated lattice of all valid integer equalities.

Both directions of conversion run the same cone double description core
`_dd`, once on the homogenization and once on the dual wedge of valid
inequalities. Ray adjacency inside `_dd` uses the exact algebraic test
(rank of the common tight set), not a combinatorial heuristic, so the
output rays are exactly the extreme rays.
"""

from __future__ import annotations

from fractions import Fraction

from stabletrop.errors import DimensionError, ValidationError
from stabletrop.lattices import (
    LatticeSubgroup,
    int_rank,
    rational_to_primitive,
    rref,
    saturation,
    vec_dot,
    vec_is_zero,
)
from stabletrop.linprog import feasible_point


def _dd(dim, eq_normals, ineq_normals):
    """Generators of the cone {y : e.y == 0 for e in eq_normals,
    a.y >= 0 for a in ineq_normals}.

    Returns (lin, rays): a basis of the lineality space and the extreme
    rays modulo lineality, all primitive integer vectors, not yet in any
    canonical form.
    """
    constraints = [("eq", e) for e in eq_normals if not vec_is_zero(e)]
    constraints += [("ineq", a) for a in ineq_normals if not vec_is_zero(a)]
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    done_eqs = []
    done_ineqs = []
    for kind, raw in constraints:
        a = rational_to_primitive(raw)
        pivot = next((i for i, l in enumerate(lin) if vec_dot(a, l) != 0), None)
        if pivot is not None:
            l0 = lin[pivot]
            if vec_dot(a, l0) < 0:
                l0 = tuple(-x for x in l0)
            al0 = vec_dot(a, l0)
            new_lin = []
            for i, w in enumerate(lin):
                if i == pivot:
                    continue
                aw = vec_dot(a, w)
                w2 = tuple(al0 * x - aw * y for x, y in zip(w, l0))
                new_lin.append(rational_to_primitive(w2))
            new_rays = []
            for r in rays:
                ar = vec_dot(a, r)
                r2 = tuple(al0 * x - ar * y for x, y in zip(r, l0))
                new_rays.append(rational_to_primitive(r2))
            lin = new_lin
            rays = new_rays
            if kind == "ineq":
                rays.append(l0)
        else:
            plus, zero, minus = [], [], []
            for r in rays:
                ar = vec_dot(a, r)
                (plus if ar > 0 else zero if ar == 0 else minus).append(r)
            target = len(lin) + 2

            def adjacent(p, q):
                tight = list(done_eqs)
                tight += [g for g in done_ineqs if vec_dot(g, p) == 0 and vec_dot(g, q) == 0]
                if not tight:
                    return dim == target
                return dim - int_rank(tight) == target

            combos = {}
            for p in plus:
                ap = vec_dot(a, p)
                for q in minus:
                    if not adjacent(p, q):
                        continue
                    aq = vec_dot(a, q)
                    w = tuple(ap * y - aq * x for x, y in zip(p, q))
                    if not vec_is_zero(w):
                        combos[rational_to_primitive(w)] = True
            kept = (plus if kind == "ineq" else []) + zero + list(combos)
            seen = {}
            for r in kept:
                seen[r] = True
            rays = list(seen)
        if kind == "eq":
            done_eqs.append(a)
        else:
            done_ineqs.append(a)
    return lin, rays


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


class Polyhedron:
    """A rational polyhedron in Q^n, immutable once constructed."""

    __slots__ = (
        "ambient_dim",
        "_raw_ineqs",
        "_raw_eqs",
        "_raw_points",
        "_raw_rays",
        "_raw_lin",
        "_hrep",
        "_vrep",
        "_empty",
        "_dim",
        "_dirlat",
        "_faces",
    )

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self._raw_ineqs = None
        self._raw_eqs = None
        self._raw_points = None
        self._raw_rays = None
        self._raw_lin = None
        self._hrep = None
        self._vrep = None
        self._empty = None
        self._dim = None
        self._dirlat = None
        self._faces = None

    # ------------------------------------------------------------ builders

    @staticmethod
    def from_hrep(ambient_dim, ineqs=(), eqs=(), known_nonempty=False):
        """Polyhedron {x : a.x <= b, c.x == d}; constraints are (vector, rhs)
        pairs with rational entries."""
        self = Polyhedron(ambient_dim)
        rows_i = []
        rows_e = []
        for a, b in ineqs:
            a = tuple(a)
            if len(a) != ambient_dim:
                raise DimensionError("inequality has wrong length")
            if vec_is_zero(a):
                if Fraction(b) < 0:
                    self._empty = True
                continue
            rows_i.append(rational_to_primitive(a + (Fraction(b),)))
        for c, d in eqs:
            c = tuple(c)
            if len(c) != ambient_dim:
                raise DimensionError("equality has wrong length")
            if vec_is_zero(c):
                if Fraction(d) != 0:
                    self._empty = True
                continue
            rows_e.append(rational_to_primitive(c + (Fraction(d),)))
        self._raw_ineqs = tuple(rows_i)
        self._raw_eqs = tuple(rows_e)
        if known_nonempty and self._empty is None:
            self._empty = False
        return self

    @staticmethod
    def from_vrep(ambient_dim, points, rays=(), lin=()):
        self = Polyhedron(ambient_dim)
        self._raw_points = tuple(tuple(Fraction(a) for a in p) for p in points)
        self._raw_rays = tuple(tuple(Fraction(a) for a in r) for r in rays if not vec_is_zero(r))
        self._raw_lin = tuple(tuple(Fraction(a) for a in l) for l in lin if not vec_is_zero(l))
        for v in self._raw_points + self._raw_rays + self._raw_lin:
            if len(v) != ambient_dim:
                raise DimensionError("generator has wrong length")
        self._empty = not self._raw_points
        if self._empty:
            self._vrep = ((), (), ())
        return self

    @staticmethod
    def point(coords):
        coords = tuple(coords)
        return Polyhedron.from_vrep(len(coords), [coords])

    @staticmethod
    def ambient(n):
        return Polyhedron.from_hrep(n, known_nonempty=True)

    @staticmethod
    def cone_from_rays(n, rays, lin=()):
        return Polyhedron.from_vrep(n, [tuple(0 for _ in range(n))], rays, lin)

    @staticmethod
    def empty(n):
        self = Polyhedron(n)
        self._empty = True
        self._vrep = ((), (), ())
        return self

    # ---------------------------------------------------------- emptiness

    @property
    def is_empty(self):
        if self._empty is None:
            # raw H present
            n = self.ambient_dim
            if all(r[n] >= 0 for r in self._raw_ineqs) and all(
                r[n] == 0 for r in self._raw_eqs
            ):
                # the origin is feasible; covers every cone for free
                self._empty = False
            else:
                ineqs = [(r[:n], r[n]) for r in self._raw_ineqs]
                eqs = [(r[:n], r[n]) for r in self._raw_eqs]
                self._empty = feasible_point(n, ineqs, eqs) is None
        return self._empty

    # ------------------------------------------------------- conversions

    def vrep(self):
        """Canonical (points, rays, lin)."""
        if self._vrep is not None:
            return self._vrep
        if self.is_empty:
            self._vrep = ((), (), ())
            return self._vrep
        n = self.ambient_dim
        ineq_rows, eq_rows = self._constraints()
        # homogenize: a.x <= b t, c.x == d t, t >= 0
        eqn = [r[:n] + (-r[n],) for r in eq_rows]
        inn = [tuple(-x for x in r[:n]) + (r[n],) for r in ineq_rows]
        t_pos = tuple(0 for _ in range(n)) + (1,)
        lin, rays = _dd(n + 1, eqn, [t_pos] + inn)
        lin_x = [l[:n] for l in lin]  # lineality has t == 0
        pts, rec = [], []
        for r in rays:
            if r[n] > 0:
                pts.append(tuple(Fraction(x, r[n]) for x in r[:n]))
            else:
                rec.append(r[:n])
        lin_rows, ray_tuple = _canonical_cone(n, lin_x, rec)
        reduce = _mod_reducer(lin_rows)
        points = tuple(sorted({reduce(p) for p in pts}))
        self._vrep = (points, ray_tuple, lin_rows)
        return self._vrep

    def hrep(self):
        """Canonical (ineq_rows, eq_rows); rows are (n+1)-tuples (a..., b)."""
        if self._hrep is not None:
            return self._hrep
        n = self.ambient_dim
        if self.is_empty:
            self._hrep = ((tuple(0 for _ in range(n)) + (-1,),), ())
            return self._hrep
        if self._raw_points is not None:
            points, rays, lin = self._raw_points, self._raw_rays, self._raw_lin
        else:
            points, rays, lin = self.vrep()
        # dual wedge in (a, b): a.p <= b, a.r <= 0, a.l == 0
        eqn = [tuple(l) + (0,) for l in lin]
        inn = [tuple(-x for x in p) + (1,) for p in points]
        inn += [tuple(-x for x in r) + (0,) for r in rays]
        dlin, drays = _dd(n + 1, eqn, inn)
        eq_rows = saturation(n + 1, dlin).generators
        for row in eq_rows:
            if vec_is_zero(row[:n]):
                raise ValidationError("inconsistent equality system")
        reduce = _mod_reducer(eq_rows)
        out = set()
        for r in drays:
            r2 = reduce(r)
            if not vec_is_zero(r2[:n]):
                out.add(rational_to_primitive(r2))
        self._hrep = (tuple(sorted(out)), eq_rows)
        return self._hrep

    def _constraints(self):
        """(ineq_rows, eq_rows) as given when built from constraints,
        else the canonical H-representation."""
        if self._raw_ineqs is not None:
            return self._raw_ineqs, self._raw_eqs
        return self.hrep()

    @property
    def ineq_rows(self):
        return self.hrep()[0]

    @property
    def eq_rows(self):
        return self.hrep()[1]

    # ------------------------------------------------------------ queries

    @property
    def dim(self):
        if self._dim is None:
            if self.is_empty:
                self._dim = -1
            else:
                self._dim = self.ambient_dim - len(self.hrep()[1])
        return self._dim

    def key(self):
        if self.is_empty:
            return (self.ambient_dim, "empty")
        return (self.ambient_dim, self.vrep())

    def __eq__(self, other):
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_empty:
            return f"Polyhedron(empty in Q^{self.ambient_dim})"
        p, r, l = self.vrep()
        return f"Polyhedron(dim {self.dim} in Q^{self.ambient_dim}, {len(p)} pts, {len(r)} rays, lin {len(l)})"

    def contains(self, x):
        if self.is_empty:
            return False
        x = tuple(Fraction(a) for a in x)
        n = self.ambient_dim
        ineqs, eqs = self._constraints()
        return all(vec_dot(r[:n], x) <= r[n] for r in ineqs) and all(
            vec_dot(r[:n], x) == r[n] for r in eqs
        )

    def relint_contains(self, x):
        """Membership in the relative interior (facet rows strict)."""
        if self.is_empty:
            return False
        x = tuple(Fraction(a) for a in x)
        n = self.ambient_dim
        ineqs, eqs = self.hrep()
        return all(vec_dot(r[:n], x) < r[n] for r in ineqs) and all(
            vec_dot(r[:n], x) == r[n] for r in eqs
        )

    def contains_poly(self, other):
        """Whether other is a subset of self."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        n = self.ambient_dim
        ineqs, eqs = self.hrep()
        pts, rays, lin = other.vrep()
        for r in ineqs:
            a, b = r[:n], r[n]
            if any(vec_dot(a, p) > b for p in pts):
                return False
            if any(vec_dot(a, v) > 0 for v in rays):
                return False
            if any(vec_dot(a, v) != 0 for v in lin):
                return False
        for r in eqs:
            c, d = r[:n], r[n]
            if any(vec_dot(c, p) != d for p in pts):
                return False
            if any(vec_dot(c, v) != 0 for v in rays + lin):
                return False
        return True

    def interior_point(self):
        """A rational point in the relative interior."""
        if self.is_empty:
            raise ValidationError("empty polyhedron has no interior point")
        points, rays, lin = self.vrep()
        k = len(points)
        mean = tuple(sum(p[i] for p in points) / k for i in range(self.ambient_dim))
        for r in rays:
            mean = tuple(a + b for a, b in zip(mean, r))
        return mean

    @property
    def is_cone(self):
        if self.is_empty:
            return False
        points = self.vrep()[0]
        return len(points) == 1 and vec_is_zero(points[0])

    @property
    def is_bounded(self):
        if self.is_empty:
            return True
        _, rays, lin = self.vrep()
        return not rays and not lin

    def direction_lattice(self) -> LatticeSubgroup:
        """Saturated lattice of the direction space of the affine hull."""
        if self._dirlat is None:
            points, rays, lin = self.vrep()
            vecs = list(rays) + list(lin)
            p0 = points[0]
            for p in points[1:]:
                vecs.append(rational_to_primitive(tuple(a - b for a, b in zip(p, p0))))
            self._dirlat = saturation(self.ambient_dim, vecs)
        return self._dirlat

    def lineality_lattice(self) -> LatticeSubgroup:
        return LatticeSubgroup.from_vectors(self.ambient_dim, self.vrep()[2])

    # --------------------------------------------------------- operations

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        n = self.ambient_dim
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(n)
        si, se = self._constraints()
        oi, oe = other._constraints()
        return Polyhedron.from_hrep(
            n,
            [(r[:n], r[n]) for r in si + oi],
            [(r[:n], r[n]) for r in se + oe],
        )

    def translate(self, t):
        t = tuple(Fraction(a) for a in t)
        n = self.ambient_dim
        if self.is_empty:
            return self
        if self._raw_ineqs is not None or self._hrep is not None:
            ineqs, eqs = self._constraints()
            return Polyhedron.from_hrep(
                n,
                [(r[:n], r[n] + vec_dot(r[:n], t)) for r in ineqs],
                [(r[:n], r[n] + vec_dot(r[:n], t)) for r in eqs],
                known_nonempty=True,
            )
        if self._vrep is not None:
            pts, rays, lin = self._vrep
        else:
            pts, rays, lin = self._raw_points, self._raw_rays, self._raw_lin
        return Polyhedron.from_vrep(n, [tuple(a + b for a, b in zip(p, t)) for p in pts], rays, lin)

    def minkowski(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.ambient_dim)
        p1, r1, l1 = self.vrep()
        p2, r2, l2 = other.vrep()
        pts = [tuple(a + b for a, b in zip(p, q)) for p in p1 for q in p2]
        return Polyhedron.from_vrep(self.ambient_dim, pts, tuple(r1) + tuple(r2), tuple(l1) + tuple(l2))

    def image(self, matrix):
        """Image under the linear map given by rational matrix rows."""
        m = len(matrix)
        if self.is_empty:
            return Polyhedron.empty(m)
        pts, rays, lin = self.vrep()
        mv = lambda v: tuple(vec_dot(row, v) for row in matrix)
        return Polyhedron.from_vrep(m, [mv(p) for p in pts], [mv(r) for r in rays], [mv(l) for l in lin])

    def times(self, other):
        """Cartesian product, ambient Q^(n1+n2)."""
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.ambient_dim + other.ambient_dim)
        p1, r1, l1 = self.vrep()
        p2, r2, l2 = other.vrep()
        z1 = tuple(0 for _ in range(self.ambient_dim))
        z2 = tuple(0 for _ in range(other.ambient_dim))
        return Polyhedron.from_vrep(
            self.ambient_dim + other.ambient_dim,
            [p + q for p in p1 for q in p2],
            [r + z2 for r in r1] + [z1 + r for r in r2],
            [l + z2 for l in l1] + [z1 + l for l in l2],
        )

    def recession(self):
        if self.is_empty:
            return Polyhedron.empty(self.ambient_dim)
        _, rays, lin = self.vrep()
        return Polyhedron.cone_from_rays(self.ambient_dim, rays, lin)

    def link_at(self, v):
        """Cone of directions u with v + eps*u in P for small eps > 0."""
        if not self.contains(v):
            raise ValidationError("link base point is not in the polyhedron")
        v = tuple(Fraction(a) for a in v)
        n = self.ambient_dim
        ineqs, eqs = self.hrep()
        tight = [r for r in ineqs if vec_dot(r[:n], v) == r[n]]
        return Polyhedron.from_hrep(
            n,
            [(r[:n], 0) for r in tight],
            [(r[:n], 0) for r in eqs],
            known_nonempty=True,
        )

    def minimal_face_at(self, w):
        """Smallest face containing the point w of P."""
        if not self.contains(w):
            raise ValidationError("point is not in the polyhedron")
        w = tuple(Fraction(a) for a in w)
        n = self.ambient_dim
        ineqs, eqs = self.hrep()
        tight = [r for r in ineqs if vec_dot(r[:n], w) == r[n]]
        return Polyhedron.from_hrep(
            n,
            [(r[:n], r[n]) for r in ineqs],
            [(r[:n], r[n]) for r in eqs] + [(r[:n], r[n]) for r in tight],
            known_nonempty=True,
        )

    def facets(self):
        """Codimension-one faces."""
        n = self.ambient_dim
        ineqs, eqs = self.hrep()
        out = []
        for r in ineqs:
            pairs_i = [(q[:n], q[n]) for q in ineqs]
            pairs_e = [(q[:n], q[n]) for q in eqs] + [(r[:n], r[n])]
            out.append(Polyhedron.from_hrep(n, pairs_i, pairs_e, known_nonempty=True))
        return out

    def all_faces(self):
        """Every nonempty face, including the polyhedron itself."""
        if self._faces is not None:
            return self._faces
        if self.is_empty:
            self._faces = ()
            return self._faces
        seen = {}
        stack = [self]
        while stack:
            f = stack.pop()
            k = f.key()
            if k in seen:
                continue
            seen[k] = f
            stack.extend(f.facets())
        self._faces = tuple(sorted(seen.values(), key=lambda f: (f.dim, f.key())))
        return self._faces

    def is_face_of(self, other):
        """Whether self is a (nonempty) face of other."""
        if self.is_empty or other.is_empty:
            return False
        if not other.contains_poly(self):
            return False
        w = self.interior_point()
        return other.minimal_face_at(w) == self


def point_in_sum(polys, x, signs=None):
    """Whether x lies in the signed Minkowski sum sum_i signs_i * P_i.

    Decided by one exact LP over the concatenated coordinates.
    """
    if signs is None:
        signs = [1] * len(polys)
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


def _hyperplanes_of(cells):
    """Deduplicated affine hyperplanes carrying any facet or equality of any cell."""
    n = cells[0].ambient_dim if cells else 0
    planes = {}
    for c in cells:
        ineqs, eqs = c.hrep()
        for r in list(ineqs) + list(eqs):
            a = r[:n]
            if vec_is_zero(a):
                continue
            row = r if next(x for x in a if x != 0) > 0 else tuple(-x for x in r)
            planes[row] = True
    return list(planes)


def _cut(cell, planes):
    """Pieces of one cell cut by hyperplane rows (a..., b), each piece of
    the cell's dimension and weakly on one side of every hyperplane.

    A plane is decided by signs over the piece's canonical V-rep, with no
    LP or dimension test: a.p - b over its points, a.r over its rays, and
    both signs for a lineality l with a.l != 0. Without both signs the
    piece is kept whole; with both, its relative interior meets both open
    sides, so both closed halves, lo then hi, are nonempty and of its
    dimension.
    """
    n = cell.ambient_dim
    pieces = [cell]
    for row in planes:
        a, b = row[:n], row[n]
        nxt = []
        for p in pieces:
            points, rays, lin = p.vrep()
            if not points:
                continue
            vals = [vec_dot(a, q) - b for q in points] + [vec_dot(a, r) for r in rays]
            if not (any(vec_dot(a, l) for l in lin) or max(vals) > 0 > min(vals)):
                nxt.append(p)
                continue
            for h in ((a, b), (tuple(-x for x in a), -b)):
                half = p.intersect(Polyhedron.from_hrep(n, [h], known_nonempty=True))
                half._empty, half._dim = False, p.dim
                nxt.append(half)
        pieces = nxt
    return pieces


def refine_cells(cells):
    """Refine each cell by every hyperplane spanned by any cell's facets.

    Returns a list of (original_index, piece) pairs. Every piece of a cell
    lies weakly on one side of every hyperplane, so the pieces of all
    cells together form a polyhedral complex whenever the input cells'
    pairwise intersections are covered by those hyperplanes (always true:
    all facets of all cells are included). Each plane is decided on each
    piece by the signs over the piece's V-rep (`_cut`), with no LP.
    """
    planes = _hyperplanes_of(cells)
    return [(idx, piece) for idx, cell in enumerate(cells) for piece in _cut(cell, planes)]


def covered_by(region, cells):
    """Whether the region lies inside the union of the cells.

    Only the region is cut, by the hyperplanes of itself and the cells,
    each decided by the signs over a piece's V-rep (`_cut`), with no LP.
    No such hyperplane crosses a piece, so a piece lies in a cell exactly
    when its interior point does.
    """
    if region.is_empty:
        return True
    pieces = _cut(region, _hyperplanes_of([region] + list(cells)))
    return all(any(c.contains(p.interior_point()) for c in cells) for p in pieces)


def is_polyhedral_complex(cells):
    """Whether every pairwise intersection is a face of both cells."""
    for i, p in enumerate(cells):
        for q in cells[i + 1 :]:
            c = p.intersect(q)
            if c.is_empty:
                continue
            if not (c.is_face_of(p) and c.is_face_of(q)):
                return False
    return True
