"""Exact rational polyhedra via the double description method.

A polyhedron keeps what it was built from, its rows (`_rows`) or its
generators (`_gens`), beside lazily computed canonical representations:

* V-side: (points, rays, lineality) with the lineality basis in Hermite
  form of its saturated lattice, rays reduced modulo the lineality and
  primitive, points reduced modulo the lineality, everything sorted. Two
  polyhedra are equal iff their canonical V-data agree.
* H-side: inequality rows (a_1, ..., a_n, b) meaning a.x <= b, one per
  facet, jointly primitive and reduced modulo the equality lattice;
  equality rows (c_1, ..., c_n, d) meaning c.x = d, the Hermite basis of
  the saturated lattice of all valid integer equalities.

Conversions run the cone double description core `_dd`: `vrep` on the
homogenization of the rows, and `hrep` of a polyhedron built from
generators on the dual wedge of valid inequalities. `_dd` returns its
cone in canonical form: the lineality as the Hermite basis of its
saturated lattice, the extreme rays reduced modulo it in integers
(`reduce_modulo`, with a positive factor on the ray, so a ray keeps its
sign), primitive and sorted. A homogenized point (t*p, t) with t > 0
reduces to a positive multiple of (t*q, t), q being p reduced modulo the
lineality, so `vrep` reads the points off as Fraction(x, t), and `hrep`
only drops the row 0 <= 1. Ray adjacency inside `_dd` uses the exact
algebraic test (rank of the common tight set), not a combinatorial
heuristic, so the output rays are exactly the extreme rays. A polyhedron
built from rows runs no second `_dd`: once its V-rep is known, `hrep`
reads the canonical H-rep off the rows it was given (`_facet_rows`), the
equality rows being the integer kernel of the homogenized generators and
the facet rows those of the given rows whose tight generators have the
rank of a facet, in the same canonical form.

Every reader of rows goes through `_constraints()`: the rows as given,
else the canonical H-rep. `_generators()` is its V-side twin, read by
`is_empty` and `hrep`. Emptiness is read off the generators: a
polyhedron is empty when they have no point, so one built from rows is
empty when `_dd` finds no ray with t > 0 in its homogenization. A
zero-normal row that fails (0 <= b with b < 0, or 0 = d with d != 0) is
kept as a row for that reason. The empty polyhedron has the V-rep
((), (), ()) and the one H-row 0 <= -1, so membership, `intersect`,
`translate`, `minkowski`, `image`, `times` and `point_in_sum` need no
emptiness branch: the rows or generators they read already say it.

Faces are index sets. Each polyhedron caches one incidence
(`_incidence`): for each canonical facet row, the set of indices of the
canonical generators (points, then rays) tight on it, computed once in
integers. A face is the set of generators it holds, and `_face` returns
the sub-tuple of P's canonical V-rep, which is the face's canonical
V-rep since a face keeps P's lineality, with no conversion. `facets`
takes one row's set each, `minimal_face_at` intersects the sets of the
rows tight at a point, `all_faces` closes the full set under the row
sets, and `is_face_of` looks a polyhedron up among those faces. `dim` is
the rank of the V side's direction vectors (`int_rank`), so neither a
face's H-rep nor its saturated direction lattice is computed until asked
for.

Rows, rays and lineality vectors are made primitive integer tuples at
the door (`from_hrep`, `from_vrep`), and `hrep` homogenizes each point
once, so `_dd` and `intersect` convert nothing. The engine's pair test
`link_difference` reads the canonical rows of both cells: one integer
elimination gives the rows of C_P - C_Q, the difference of their links,
and an LP runs only for a pair that is not two cones meeting in a point
or along a line."""

from __future__ import annotations

from fractions import Fraction

from stabletrop.errors import DimensionError, ValidationError
from stabletrop.lattices import (
    LatticeSubgroup,
    _echelon,
    int_rank,
    integer_kernel,
    primitive,
    rational_to_primitive,
    reduce_modulo,
    saturation,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from stabletrop.linprog import feasible_point


def _dd(dim, eq_normals, ineq_normals):
    """Generators of the cone {y : e.y == 0 for e in eq_normals,
    a.y >= 0 for a in ineq_normals}, the normals given as integer
    tuples, so that every step stays in integers (`primitive`).

    Returns (lin, rays) in canonical form: lin is the Hermite basis of
    the saturated lattice of the lineality space, and rays are the
    extreme rays reduced modulo lin by integer steps (`reduce_modulo`, so
    zero at lin's pivot columns), primitive, distinct and sorted.
    """
    constraints = [("eq", e) for e in eq_normals if not vec_is_zero(e)]
    constraints += [("ineq", a) for a in ineq_normals if not vec_is_zero(a)]
    lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    done_eqs = []
    done_ineqs = []
    for kind, a in constraints:
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
                new_lin.append(primitive(w2))
            new_rays = []
            for r in rays:
                ar = vec_dot(a, r)
                r2 = tuple(al0 * x - ar * y for x, y in zip(r, l0))
                new_rays.append(primitive(r2))
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
                        combos[primitive(w)] = True
            rays = list(dict.fromkeys((plus if kind == "ineq" else []) + zero + list(combos)))
        if kind == "eq":
            done_eqs.append(a)
        else:
            done_ineqs.append(a)
    lin = saturation(dim, lin).generators
    rays = {primitive(r) for r in reduce_modulo(lin, rays) if not vec_is_zero(r)}
    return lin, tuple(sorted(rays))


class Polyhedron:
    """A rational polyhedron in Q^n, immutable once constructed."""

    __slots__ = ("ambient_dim", "_rows", "_gens", "_hrep", "_vrep", "_dim", "_dirlat", "_inc", "_faces")

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self._rows = None
        self._gens = None
        self._hrep = None
        self._vrep = None
        self._dim = None
        self._dirlat = None
        self._inc = None
        self._faces = None

    # ------------------------------------------------------------ builders

    @staticmethod
    def from_hrep(ambient_dim, ineqs=(), eqs=()):
        """Polyhedron {x : a.x <= b, c.x == d}; constraints are (vector, rhs)
        pairs with int or Fraction entries. A zero-normal row is dropped
        when it holds and kept when it does not, so that the conversion
        finds no point."""
        rows_i = []
        rows_e = []
        for a, b in ineqs:
            a = tuple(a)
            if len(a) != ambient_dim:
                raise DimensionError("inequality has wrong length")
            if b < 0 or not vec_is_zero(a):
                rows_i.append(rational_to_primitive(a + (b,)))
        for c, d in eqs:
            c = tuple(c)
            if len(c) != ambient_dim:
                raise DimensionError("equality has wrong length")
            if d != 0 or not vec_is_zero(c):
                rows_e.append(rational_to_primitive(c + (d,)))
        return Polyhedron._from_rows(ambient_dim, rows_i, rows_e)

    @staticmethod
    def _from_rows(ambient_dim, ineq_rows, eq_rows):
        """Polyhedron on rows that are already primitive integer tuples
        (a..., b), as `from_hrep` and `hrep` leave them."""
        self = Polyhedron(ambient_dim)
        self._rows = (tuple(ineq_rows), tuple(eq_rows))
        return self

    @staticmethod
    def from_vrep(ambient_dim, points, rays=(), lin=()):
        """conv(points) + cone(rays) + span(lin); the rays and lineality
        vectors are kept as primitive integer tuples."""
        self = Polyhedron(ambient_dim)
        self._gens = (
            tuple(tuple(Fraction(a) for a in p) for p in points),
            tuple(rational_to_primitive(tuple(map(Fraction, r))) for r in rays if not vec_is_zero(r)),
            tuple(rational_to_primitive(tuple(map(Fraction, l))) for l in lin if not vec_is_zero(l)),
        )
        for v in self._gens[0] + self._gens[1] + self._gens[2]:
            if len(v) != ambient_dim:
                raise DimensionError("generator has wrong length")
        if not self._gens[0]:
            self._vrep = ((), (), ())
        return self

    @staticmethod
    def point(coords):
        coords = tuple(coords)
        return Polyhedron.from_vrep(len(coords), [coords])

    @staticmethod
    def ambient(n):
        return Polyhedron.from_hrep(n)

    @staticmethod
    def cone_from_rays(n, rays, lin=()):
        return Polyhedron.from_vrep(n, [tuple(0 for _ in range(n))], rays, lin)

    @staticmethod
    def empty(n):
        return Polyhedron.from_vrep(n, [])

    # ------------------------------------------------------- conversions

    def _constraints(self):
        """(ineq_rows, eq_rows) as given when built from constraints,
        else the canonical H-representation."""
        return self.hrep() if self._rows is None else self._rows

    def _generators(self):
        """(points, rays, lin) as given when built from generators, else
        the canonical V-representation."""
        return self.vrep() if self._gens is None else self._gens

    @property
    def is_empty(self):
        """Read off the generators: a polyhedron is empty when it has no
        point, so one built from rows is empty when its conversion finds
        none."""
        return not self._generators()[0]

    def vrep(self):
        """Canonical (points, rays, lin); ((), (), ()) when empty."""
        if self._vrep is None:
            n = self.ambient_dim
            ineq_rows, eq_rows = self._constraints()
            # homogenize: a.x <= b t, c.x == d t, t >= 0
            eqn = [r[:n] + (-r[n],) for r in eq_rows]
            inn = [tuple(-x for x in r[:n]) + (r[n],) for r in ineq_rows]
            t_pos = tuple(0 for _ in range(n)) + (1,)
            lin, rays = _dd(n + 1, eqn, [t_pos] + inn)
            # a ray (t*p, t) with t > 0 is the point p; lineality has t == 0
            points = tuple(sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays if r[n] > 0))
            rec = tuple(r[:n] for r in rays if r[n] == 0)
            self._vrep = (points, rec, tuple(l[:n] for l in lin)) if points else ((), (), ())
        return self._vrep

    def hrep(self):
        """Canonical (ineq_rows, eq_rows); rows are (n+1)-tuples (a..., b),
        and the one row 0 <= -1 when empty. Built from rows, it is read
        off them (`_facet_rows`); built from generators, it is the dual
        `_dd`."""
        if self._hrep is None:
            n = self.ambient_dim
            points, rays, lin = self._generators()
            if not points:
                self._hrep = ((tuple(0 for _ in range(n)) + (-1,),), ())
            elif self._rows is not None:
                self._hrep = self._facet_rows()
            else:
                # dual wedge in (a, b): a.p <= b, a.r <= 0, a.l == 0
                eqn = [l + (0,) for l in lin]
                inn = [rational_to_primitive(tuple(-x for x in p) + (1,)) for p in points]
                inn += [tuple(-x for x in r) + (0,) for r in rays]
                eq_rows, drays = _dd(n + 1, eqn, inn)
                # drop the trivial row 0 <= 1
                self._hrep = (tuple(r for r in drays if not vec_is_zero(r[:n])), eq_rows)
        return self._hrep

    def _homogenized(self):
        """The canonical points and rays homogenized to integer rows,
        (p, -1) made primitive and (r, 0), so that a row (a, b) is tight
        on a generator when their dot is 0."""
        points, rays, _ = self.vrep()
        return [rational_to_primitive(p + (-1,)) for p in points] + [r + (0,) for r in rays]

    def _facet_rows(self):
        """The canonical H-rep of a nonempty polyhedron built from rows,
        read off its rows and its canonical generators with no `_dd`. The
        equality rows are the Hermite basis of the integer kernel of the
        homogenized generators and lineality, the lattice `_dd` saturates
        to. A given row is a facet row when its tight generators and the
        lineality have rank one less than the homogenized cone, n + 1
        minus the equality rows; each is reduced modulo the equality rows
        and made primitive, and a row whose normal part reduces to zero
        (the face t = 0 at infinity) is dropped, as `hrep` drops 0 <= 1.
        The tight sets are the incidence (`_incidence`), cached with it."""
        n = self.ambient_dim
        gens = self._homogenized()
        lin = [l + (0,) for l in self.vrep()[2]]
        eq_rows = tuple(integer_kernel(gens + lin))
        rank = n - len(eq_rows)
        tight = {}
        for r in dict.fromkeys(self._rows[0]):
            t = frozenset(i for i, g in enumerate(gens) if vec_dot(r, g) == 0)
            tight.setdefault(t, r)
        facets = {}
        for t, r in tight.items():
            if int_rank([gens[i] for i in t] + lin) == rank:
                row = primitive(reduce_modulo(eq_rows, [r])[0])
                if not vec_is_zero(row[:n]):
                    facets[row] = t
        rows = tuple(sorted(facets))
        self._inc = tuple(facets[r] for r in rows)
        return rows, eq_rows

    @property
    def ineq_rows(self):
        return self.hrep()[0]

    @property
    def eq_rows(self):
        return self.hrep()[1]

    # ------------------------------------------------------------ queries

    @property
    def dim(self):
        """The rank of the direction vectors (`int_rank`), or of the
        direction lattice when it is already cached; -1 when empty. No
        saturation runs until a caller asks for the lattice."""
        if self._dim is None:
            if self.is_empty:
                self._dim = -1
            else:
                self._dim = self._dirlat.rank if self._dirlat is not None else int_rank(self._directions())
        return self._dim

    def key(self):
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
        x = tuple(Fraction(a) for a in x)
        n = self.ambient_dim
        ineqs, eqs = self._constraints()
        return all(vec_dot(r[:n], x) <= r[n] for r in ineqs) and all(
            vec_dot(r[:n], x) == r[n] for r in eqs
        )

    def relint_contains(self, x):
        """Membership in the relative interior (facet rows strict)."""
        x = tuple(Fraction(a) for a in x)
        n = self.ambient_dim
        ineqs, eqs = self.hrep()
        return all(vec_dot(r[:n], x) < r[n] for r in ineqs) and all(
            vec_dot(r[:n], x) == r[n] for r in eqs
        )

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
        points = self.vrep()[0]
        return len(points) == 1 and vec_is_zero(points[0])

    @property
    def is_bounded(self):
        _, rays, lin = self.vrep()
        return not rays and not lin

    def _directions(self):
        """Integer vectors spanning the direction space of the affine
        hull: the rays, the lineality, and each point minus the first."""
        points, rays, lin = self.vrep()
        p0 = points[0]
        return list(rays) + list(lin) + [rational_to_primitive(vec_sub(p, p0)) for p in points[1:]]

    def direction_lattice(self) -> LatticeSubgroup:
        """Saturated lattice of the direction space of the affine hull."""
        if self._dirlat is None:
            self._dirlat = saturation(self.ambient_dim, self._directions())
        return self._dirlat

    def lineality_lattice(self) -> LatticeSubgroup:
        return LatticeSubgroup.from_vectors(self.ambient_dim, self.vrep()[2])

    # --------------------------------------------------------- operations

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        (si, se), (oi, oe) = self._constraints(), other._constraints()
        return Polyhedron._from_rows(self.ambient_dim, si + oi, se + oe)

    def translate(self, t):
        t = tuple(Fraction(a) for a in t)
        n = self.ambient_dim
        ineqs, eqs = self._constraints()
        shift = lambda r: (r[:n], r[n] + vec_dot(r[:n], t))
        return Polyhedron.from_hrep(n, [shift(r) for r in ineqs], [shift(r) for r in eqs])

    def minkowski(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        p1, r1, l1 = self.vrep()
        p2, r2, l2 = other.vrep()
        pts = [tuple(a + b for a, b in zip(p, q)) for p in p1 for q in p2]
        return Polyhedron.from_vrep(self.ambient_dim, pts, tuple(r1) + tuple(r2), tuple(l1) + tuple(l2))

    def image(self, matrix):
        """Image under the linear map given by rational matrix rows."""
        m = len(matrix)
        pts, rays, lin = self.vrep()
        mv = lambda v: tuple(vec_dot(row, v) for row in matrix)
        return Polyhedron.from_vrep(m, [mv(p) for p in pts], [mv(r) for r in rays], [mv(l) for l in lin])

    def times(self, other):
        """Cartesian product, ambient Q^(n1+n2)."""
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

    def _incidence(self):
        """For each canonical facet row, in row order, the frozenset of
        indices of P's canonical generators (points, then rays) tight on
        it; computed once, in integers, on the homogenized points."""
        if self._inc is None:
            rows = self.hrep()[0]
            if self._inc is None:  # a row-built H-rep sets it on the way
                gens = self._homogenized()
                self._inc = tuple(frozenset(i for i, g in enumerate(gens) if vec_dot(r, g) == 0) for r in rows)
        return self._inc

    def _face(self, s):
        """The face whose generators are P's canonical points and rays with
        indices in s (points first), with P's lineality. A face has P's
        lineality, so the same reduction and order hold and the sub-tuple
        is canonical as it stands; the face's H-rep stays lazy. Empty when
        s holds no point."""
        points, rays, lin = self.vrep()
        k = len(points)
        pts = tuple(points[i] for i in sorted(s) if i < k)
        if not pts:
            return Polyhedron.empty(self.ambient_dim)
        face = Polyhedron(self.ambient_dim)
        face._vrep = (pts, tuple(rays[i - k] for i in sorted(s) if i >= k), lin)
        return face

    def minimal_face_at(self, w):
        """Smallest face containing the point w of P: the generators tight
        on every facet row tight at w."""
        if not self.contains(w):
            raise ValidationError("point is not in the polyhedron")
        w = tuple(Fraction(a) for a in w)
        n = self.ambient_dim
        points, rays, _ = self.vrep()
        s = frozenset(range(len(points) + len(rays)))
        for r, t in zip(self.hrep()[0], self._incidence()):
            if vec_dot(r[:n], w) == r[n]:
                s &= t
        return self._face(s)

    def facets(self):
        """Codimension-one faces, one per canonical facet row, in row order."""
        return [self._face(t) for t in self._incidence()]

    def all_faces(self):
        """Every nonempty face, including the polyhedron itself, in
        (dim, key) order, read off the incidence (Kaibel–Pfetsch): the
        face sets are the full set closed under intersection with each
        facet row's tight set. A set that holds no point is the empty
        face; each other set gives one face (`_face`)."""
        if self._faces is None:
            points, rays, _ = self.vrep()
            k = len(points)
            full = frozenset(range(k + len(rays)))
            sets = {full: self} if k else {}
            stack = list(sets)
            while stack:
                s = stack.pop()
                for t in self._incidence():
                    c = s & t
                    if c not in sets and min(c, default=k) < k:
                        sets[c] = self._face(c)
                        stack.append(c)
            self._faces = tuple(sorted(sets.values(), key=lambda f: (f.dim, f.key())))
        return self._faces

    def is_face_of(self, other):
        """Whether self is a (nonempty) face of other."""
        return not self.is_empty and self in other.all_faces()


def link_difference(p, q):
    """The integer rows g with C_P - C_Q = {v : g·v >= 0}, C_P and C_Q the
    links of P and Q along relint(P ∩ Q), or None unless P ∩ Q has the
    dimension of A = aff P ∩ aff Q. This holds for any spanning pair: its
    equality normals are then independent, so P's equalities c·y = 0 and
    Q's c·y = c·v have a solution y for every v, and a row tight along
    relint(P ∩ Q), being constant on A, is there a linear function of v.
    One Bareiss echelon of the equality rows beside their v-coefficients,
    (c | 0) for P's and (c | c) for Q's, and one reduction of the
    inequality rows, (a | 0) and (a | a), read it off: a reduced row whose
    first n entries are zero is constant on A, and the last n entries of
    each such row tight at the pair's point are its g; (Q, P) gives -g.

    The point is the origin of the homogenized coordinates (y, s) when it
    is feasible: every d is 0, every b of a constant row is >= 0 and every
    other b is >= 1, as for two cones meeting in a point. Two cones whose
    hulls meet in a line pass exactly when the non-constant rows take one
    sign on its direction, and the origin serves as their point, since a
    constant row takes one value on A. Any other pair runs one LP:
    c·y = d·s, a·y - b·s <= -1 for a non-constant row and <= 0 for a
    constant one, and s >= 1; a non-constant row is strict at every
    feasible point, so which one is found does not change g."""
    n = p.ambient_dim
    (pi, pe), (qi, qe) = p.hrep(), q.hrep()
    zero = (0,) * n
    echelon = _echelon([r[:n] + zero for r in pe] + [r[:n] + r[:n] for r in qe])
    rows = pi + qi
    reduced = reduce_modulo(echelon, [r[:n] + zero for r in pi] + [r[:n] + r[:n] for r in qi])
    constant = [vec_is_zero(r[:n]) for r in reduced]
    lift = lambda r: r[:n] + (-r[n],)
    point = zero + (1,)
    at_origin = all(r[n] == 0 for r in pe + qe)
    if at_origin and all(r[n] == 0 for r in rows) and len(echelon) == n - 1:
        (d,) = integer_kernel([r[:n] for r in pe + qe] or [zero])  # Q^1 has no equality rows
        if len({vec_dot(r[:n], d) > 0 for r, c in zip(rows, constant) if not c}) > 1:
            return None
    elif not (at_origin and all(r[n] >= (0 if c else 1) for r, c in zip(rows, constant))):
        ineqs = [(lift(r), 0 if c else -1) for r, c in zip(rows, constant)]
        point = feasible_point(n + 1, ineqs + [(zero + (-1,), -1)], [(lift(r), 0) for r in pe + qe])
        if point is None:
            return None
        point = rational_to_primitive(point)  # same tight rows, integer dots
    return [g[n:] for g, r, c in zip(reduced, rows, constant) if c and vec_dot(lift(r), point) == 0]


def point_in_sum(p, q, v):
    """Whether v lies in the Minkowski difference P - Q, that is whether
    P meets Q + v: one LP on P's rows and Q's rows with right-hand sides
    shifted by a·v, or none when the origin is feasible (two cones). The
    engine's displacement test before `link_difference`; the tests check
    `link_difference` against it."""
    n = p.ambient_dim
    (pi, pe), (qi, qe) = p._constraints(), q._constraints()
    shift = lambda r: (r[:n], r[n] + vec_dot(r[:n], v))
    ineqs = [(r[:n], r[n]) for r in pi] + [shift(r) for r in qi]
    eqs = [(r[:n], r[n]) for r in pe] + [shift(r) for r in qe]
    if all(b >= 0 for _, b in ineqs) and all(d == 0 for _, d in eqs):
        return True
    return feasible_point(n, ineqs, eqs) is not None


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
            for h in (row, tuple(-x for x in row)):
                half = p.intersect(Polyhedron._from_rows(n, [h], ()))
                half._dim = p.dim
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
    pairs = ((p, q, p.intersect(q)) for i, p in enumerate(cells) for q in cells[i + 1 :])
    return all(c.is_empty or c.is_face_of(p) and c.is_face_of(q) for p, q, c in pairs)
