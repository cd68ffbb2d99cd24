"""Acceptance suite: one test per acceptance criterion, all exact.

Every criterion is a single test that prints one PASS line when its
checks all hold; any violation fails the assertion carrying the same
label. Random instances come from fixed seeds, so runs are reproducible
byte for byte.
"""

import random
from fractions import Fraction

from oracles import (
    diagonal_intersection,
    full_dim_volume,
    link_cycle,
    mixed_volume_oracle,
    rank_rows,
    support_contains,
)

from stabletrop.algebra import (
    add_elements,
    algebra_one,
    build_hypersurface_basis,
    decompose_into_powers,
    element_equal,
    element_product,
    exp_element,
    log_element,
    polytope_class,
    scale_element,
)
from stabletrop.connectivity import (
    connected_components,
    disconnection_scenario,
    is_connected_through_codim1,
    supports_meet_only_at_origin,
)
from stabletrop.cycles import (
    ambient_cycle,
    cycle_sum,
    cycles_equal,
    is_balanced,
    pushforward,
    scalar,
)
from stabletrop.errors import ValidationError
from stabletrop.lattices import (
    LatticeSubgroup,
    intersect_lattices,
    lattice_index,
    standard_lattice,
    sum_lattices,
)
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import (
    cube,
    from_polyhedron,
    mixed_volume,
    normalized_volume,
    polytope,
    projection_comparison,
    standard_simplex,
    tropical_hypersurface,
)
from stabletrop.stable import (
    perturbation_intersection,
    stable_intersection,
    stable_power,
)


def report(label: str, ok: bool):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def random_lattice_polytope(rng, dim, max_coord, max_points, full_dim=True):
    least = dim + 1 if full_dim else 2
    while True:
        count = rng.randint(least, max_points)
        pts = [tuple(rng.randint(0, max_coord) for _ in range(dim)) for _ in range(count)]
        p = polytope(dim, pts)
        if not full_dim or p.dim == dim:
            return p


def random_star(rng, max_coord=3, max_points=5):
    """Balanced one-dimensional fan cycle in the plane."""
    return tropical_hypersurface(random_lattice_polytope(rng, 2, max_coord, max_points))


def test_criterion_1_hyperplane_slices_disconnect():
    # two connected three-dimensional cycles in Q^5, both containing the
    # cone over e1 and e2, whose slices with the coordinate-sum hyperplane
    # meet only at the origin, so their sum cannot be connected through
    # codimension one
    sc = disconnection_scenario()
    shared = Polyhedron.cone_from_rays(5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    checks = {
        "slice1 balanced": is_balanced(sc.slice1)[0],
        "slice2 balanced": is_balanced(sc.slice2)[0],
        "first square connected": is_connected_through_codim1(sc.t1),
        "second square connected": is_connected_through_codim1(sc.t2),
        "first square contains cone(e1, e2)": support_contains(sc.t1, shared),
        "second square contains cone(e1, e2)": support_contains(sc.t2, shared),
        "slices meet only at origin": supports_meet_only_at_origin(sc.slice1, sc.slice2),
    }
    comps = connected_components(sc.union)
    checks["union splits in two"] = len(comps) == 2
    checks["union not connected"] = len(comps) > 1
    report("criterion 1, connectivity lost under a hyperplane slice", all(checks.values()))


def test_criterion_2_normalized_volume_matches_triangulation():
    rng = random.Random(402)
    done = 0
    for dim, trials, max_coord in ((2, 30, 4), (3, 20, 3)):
        for _ in range(trials):
            p = random_lattice_polytope(rng, dim, max_coord, 8)
            got = normalized_volume(p)
            want = full_dim_volume(list(p.vertices), dim)
            assert got == want, (p.vertices, got, want)
            done += 1
    report(f"criterion 2, {done} hypersurface-power volumes equal the triangulation oracle", done >= 50)


def test_criterion_3_mixed_volumes_match_inclusion_exclusion():
    s = standard_simplex(2)
    e1 = polytope(2, [(0, 0), (1, 0)])
    e2 = polytope(2, [(0, 0), (0, 1)])
    assert mixed_volume([s, s]) == 1
    assert mixed_volume([s.dilate(2), s.dilate(2)]) == 4
    assert mixed_volume([e1, e2]) == 1
    rng = random.Random(403)
    done = 0
    for _ in range(12):
        p = random_lattice_polytope(rng, 2, 3, 5, full_dim=False)
        q = random_lattice_polytope(rng, 2, 3, 5, full_dim=False)
        got = mixed_volume([p, q])
        want = mixed_volume_oracle([list(p.vertices), list(q.vertices)])
        assert got == want, (p.vertices, q.vertices, got, want)
        done += 1
    for _ in range(8):
        triple = [random_lattice_polytope(rng, 3, 2, 4, full_dim=False) for _ in range(3)]
        got = mixed_volume(triple)
        want = mixed_volume_oracle([list(t.vertices) for t in triple])
        assert got == want, ([t.vertices for t in triple], got, want)
        done += 1
    report(f"criterion 3, anchors plus {done} random mixed volumes match", done >= 20)


def test_criterion_4_three_intersection_engines_agree():
    rng = random.Random(404)
    done = 0
    for dim, trials in ((2, 20), (3, 10)):
        for i in range(trials):
            x = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
            y = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
            if i % 3 == 2:
                # replace one operand by its link at a facet point
                w = y.cells[rng.randrange(len(y.cells))].interior_point()
                y = link_cycle(y, w)
            z = stable_intersection(x, y)
            assert cycles_equal(z, perturbation_intersection(x, y).limit)
            assert cycles_equal(z, diagonal_intersection(x, y))
            done += 1
    report(f"criterion 4, displacement, perturbation, and diagonal agree on {done} pairs", done >= 30)


def test_criterion_5_structural_laws():
    rng = random.Random(405)
    # dimension formula, balancing, commutativity
    for dim, trials in ((2, 10), (3, 5)):
        for _ in range(trials):
            x = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
            y = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
            z = stable_intersection(x, y)
            assert cycles_equal(z, stable_intersection(y, x))
            if not z.is_zero:
                assert z.dim == x.dim + y.dim - dim
            assert is_balanced(z)[0]
    # associativity on twenty triples
    assoc = 0
    for _ in range(12):
        x, y, w = (
            tropical_hypersurface(random_lattice_polytope(rng, 3, 1, 4)) for _ in range(3)
        )
        left = stable_intersection(stable_intersection(x, y), w)
        right = stable_intersection(x, stable_intersection(y, w))
        assert cycles_equal(left, right)
        assoc += 1
    for _ in range(8):
        x, y = random_star(rng), random_star(rng)
        a = ambient_cycle(2, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        triple = [x, y, a]
        rng.shuffle(triple)
        left = stable_intersection(stable_intersection(triple[0], triple[1]), triple[2])
        right = stable_intersection(triple[0], stable_intersection(triple[1], triple[2]))
        assert cycles_equal(left, right)
        assoc += 1
    # distributivity over cycle sums
    for _ in range(10):
        x, y, w = random_star(rng), random_star(rng), random_star(rng)
        lhs = stable_intersection(x, cycle_sum(y, w))
        rhs = cycle_sum(stable_intersection(x, y), stable_intersection(x, w))
        assert cycles_equal(lhs, rhs)
    # intersection commutes with passing to links
    links = 0
    for dim in (2, 2, 2, 2, 3, 3, 3, 3):
        x = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
        y = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
        z = stable_intersection(x, y)
        for cell in z.cells[:3]:
            w = cell.interior_point()
            local = stable_intersection(link_cycle(x, w), link_cycle(y, w))
            assert cycles_equal(link_cycle(z, w), local)
            links += 1
    report(f"criterion 5, structural laws hold ({assoc} triples, {links} link checks)", assoc >= 20)


def test_criterion_6_index_exchange_identity():
    # worked instance in Z^2: both sides equal 2
    n2 = standard_lattice(2)
    a = LatticeSubgroup.from_vectors(2, [(2, 0), (0, 1)])
    b = LatticeSubgroup.from_vectors(2, [(1, 0), (0, 2)])
    c = LatticeSubgroup.from_vectors(2, [(1, 1), (0, 2)])
    lhs = lattice_index(n2, sum_lattices(a, c)) * lattice_index(
        n2, sum_lattices(b, intersect_lattices(a, c))
    )
    rhs = lattice_index(n2, sum_lattices(a, b)) * lattice_index(
        n2, sum_lattices(intersect_lattices(a, b), c)
    )
    assert lhs == rhs == 2
    rng = random.Random(406)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        mats = [
            [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
            for _ in range(3)
        ]
        if any(rank_rows(m) < n for m in mats):
            continue
        ga, gb, gc = (LatticeSubgroup.from_vectors(n, m) for m in mats)
        amb = standard_lattice(n)
        lhs = lattice_index(amb, sum_lattices(ga, gc)) * lattice_index(
            amb, sum_lattices(gb, intersect_lattices(ga, gc))
        )
        rhs = lattice_index(amb, sum_lattices(ga, gb)) * lattice_index(
            amb, sum_lattices(intersect_lattices(ga, gb), gc)
        )
        assert lhs == rhs, (mats, lhs, rhs)
        done += 1
    report(f"criterion 6, index exchange identity on {done} subgroup triples and the worked case", done >= 100)


def test_criterion_7_polytope_algebra():
    rng = random.Random(407)
    # the class map turns Minkowski sums into products, grade by grade
    pairs = 0
    for dim, trials, max_coord in ((2, 16, 2), (3, 4, 1)):
        for _ in range(trials):
            p = random_lattice_polytope(rng, dim, max_coord, 4, full_dim=False)
            q = random_lattice_polytope(rng, dim, max_coord, 4, full_dim=False)
            lhs = polytope_class(p.minkowski(q))
            rhs = element_product(polytope_class(p), polytope_class(q))
            assert element_equal(lhs, rhs)
            pairs += 1
    # nilpotency of [P] - 1 and the log/exp inverse pair
    for _ in range(5):
        p = random_lattice_polytope(rng, 2, 3, 5, full_dim=False)
        n = p.ambient_dim
        shifted = add_elements(polytope_class(p), scale_element(-1, algebra_one(n)))
        power = algebra_one(n)
        for _ in range(n + 1):
            power = element_product(power, shifted)
        assert element_equal(power, scale_element(0, algebra_one(n)))
        assert element_equal(log_element(exp_element(shifted)), shifted)
        assert element_equal(exp_element(log_element(polytope_class(p))), polytope_class(p))
    # valuation identity for polytopes split by a hyperplane
    splits = 0
    while splits < 10:
        p = random_lattice_polytope(rng, 2, 3, 5)
        normal = (rng.randint(-2, 2), rng.randint(-2, 2))
        if normal == (0, 0):
            continue
        values = sorted(sum(a * b for a, b in zip(normal, v)) for v in p.vertices)
        if values[0] == values[-1]:
            continue
        level = Fraction(values[0] + values[-1], 2)
        lo = p.polyhedron.intersect(Polyhedron.from_hrep(2, [(normal, level)], []))
        hi = p.polyhedron.intersect(
            Polyhedron.from_hrep(2, [(tuple(-a for a in normal), -level)], [])
        )
        below = from_polyhedron(lo)
        above = from_polyhedron(hi)
        middle = from_polyhedron(lo.intersect(hi))
        lhs = add_elements(polytope_class(below), polytope_class(above))
        rhs = add_elements(polytope_class(p), polytope_class(middle))
        assert element_equal(lhs, rhs)
        splits += 1
    # decomposition into powers of basis hypersurfaces round-trips
    square_walls = tropical_hypersurface(cube(2)).cells
    basis = build_hypersurface_basis(2, list(square_walls))
    z2 = stable_power(tropical_hypersurface(cube(2)), 2)
    coeffs = decompose_into_powers(z2, basis.cycles())
    rebuilt = _rebuild(2, coeffs, basis.cycles())
    assert cycles_equal(rebuilt, z2)
    fans = 1
    while fans < 6:
        walls = tropical_hypersurface(random_lattice_polytope(rng, 2, 3, 5)).cells
        fan_basis = build_hypersurface_basis(2, list(walls))
        weights = [rng.randint(0, 3) for _ in fan_basis.vectors]
        if not any(weights):
            continue
        combo = tuple(
            sum(Fraction(c) * vec[i] for c, vec in zip(weights, fan_basis.vectors))
            for i in range(len(walls))
        )
        z = fan_basis.weighting_cycle(combo)
        got = decompose_into_powers(z, fan_basis.cycles())
        assert cycles_equal(_rebuild(2, got, fan_basis.cycles()), z)
        fans += 1
    report(
        f"criterion 7, class map homomorphism on {pairs} pairs, valuation on {splits} splits,"
        f" decomposition on {fans} fans",
        pairs >= 20 and splits >= 10 and fans >= 6,
    )


def _rebuild(n, coeffs, basis_cycles):
    total = None
    for combo, coeff in coeffs.items():
        term = ambient_cycle(n)
        for idx in combo:
            term = stable_intersection(term, basis_cycles[idx])
        term = scalar(coeff, term)
        total = term if total is None else cycle_sum(total, term)
    return total if total is not None else scalar(0, ambient_cycle(n))


def _random_unimodular(rng, n):
    # product of elementary shears and a coordinate permutation
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(rows[p]) for p in perm]


def test_criterion_8_pushforward_outputs_balanced():
    rng = random.Random(408)
    balanced = 0
    for dim, trials in ((2, 8), (3, 7)):
        for _ in range(trials):
            x = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
            z = pushforward(_random_unimodular(rng, dim), x)
            assert is_balanced(z)[0]
            balanced += 1
    projections = 0
    while projections < 15:
        dim = rng.choice([2, 3])
        x = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 4))
        m = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim - 1)]
        if rank_rows(m) < dim - 1:
            continue
        try:
            z = pushforward(m, x)
        except ValidationError:
            continue
        assert is_balanced(z)[0]
        balanced += 1
        projections += 1
    # full-dimensional images carry one constant generic multiplicity
    constant = 0
    while constant < 5:
        dim = rng.choice([2, 3])
        x = tropical_hypersurface(random_lattice_polytope(rng, dim, 2, 5))
        m = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim - 1)]
        if rank_rows(m) < dim - 1:
            continue
        try:
            z = pushforward(m, x)
        except ValidationError:
            continue
        if z.is_zero or z.dim != dim - 1:
            continue
        assert len(set(z.multiplicities)) == 1, (m, z.multiplicities)
        constant += 1
    report(
        f"criterion 8, {balanced} pushforwards balanced, {constant} full-dimensional images constant",
        balanced >= 30 and constant >= 5,
    )


def test_criterion_9_projections_of_polytopes():
    rng = random.Random(409)
    done = 0
    for dim, keep, trials in ((2, 1, 6), (3, 1, 3), (3, 2, 3), (4, 1, 1), (4, 2, 1), (4, 3, 1)):
        for _ in range(trials):
            p = random_lattice_polytope(rng, dim, 2, 4, full_dim=False)
            rows = sorted(rng.sample(range(dim), keep))
            matrix = [tuple(1 if j == i else 0 for j in range(dim)) for i in rows]
            lhs, rhs = projection_comparison(p, matrix)
            assert cycles_equal(lhs, rhs), (p.vertices, matrix)
            done += 1
    report(f"criterion 9, {done} coordinate projections factor through stable intersection", done >= 15)
