"""Lattice layer: Hermite forms, indexes, kernels, saturation, the
quotient map, and the fraction-free echelon with its reduced form over Q.

Expected values in the direct tests were frozen from hand computations
before the implementation existed (2x2 determinants, gcd arguments, and
explicit coset counting on small boxes). The library reads indices,
kernels, saturations and the quotient map off Hermite forms; the Smith
forms with all four transforms in `oracles` (`smith_transform`,
`snf_diagonal`, `solve_integer`, `smith_quotient_matrix` and the routes
built on them) are the reference they are checked against. The Fraction
`rref` and `nullspace_rational` in `oracles` are the reference of the
reduced echelon form built on the Bareiss echelon.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import (
    contains_vector,
    is_subgroup_of,
    mat_mul,
    nullspace_rational,
    rank_rows,
    rref,
    smith_integer_kernel,
    smith_lattice_index,
    smith_quotient_matrix,
    smith_saturation,
    smith_transform,
    snf_diagonal,
    solve_integer,
    solve_rational,
)
from stabletrop import lattices
from stabletrop.algebra import _null_space
from stabletrop.lattices import (
    LatticeSubgroup,
    SubgroupError,
    _echelon,
    identity_matrix,
    int_rank,
    integer_kernel,
    intersect_lattices,
    lattice_index,
    mat_vec,
    primitive,
    quotient_matrix,
    rational_to_primitive,
    reduce_modulo,
    reduced_echelon,
    row_hermite,
    saturation,
    standard_lattice,
    sum_lattices,
    transpose,
    vec_dot,
    vec_is_zero,
    zero_subgroup,
)

small_int = st.integers(min_value=-4, max_value=4)


def int_matrix(n, m):
    return st.lists(
        st.lists(small_int, min_size=m, max_size=m).map(tuple),
        min_size=n,
        max_size=n,
    ).map(tuple)


def any_matrix():
    return st.integers(min_value=0, max_value=4).flatmap(
        lambda r: st.integers(min_value=1, max_value=5).flatmap(lambda c: int_matrix(r, c))
    )


# ---------------------------------------------------------------- primitives


def test_primitive_examples():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((-2, 0, 4)) == (-1, 0, 2)
    assert primitive((0, 5)) == (0, 1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_rational_to_primitive():
    assert rational_to_primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert rational_to_primitive((Fraction(-2), Fraction(0))) == (-1, 0)
    for v in [(4, -6, 0), (0, 3), (-5,), (7, 14, -21), (1, 0, 0, 0)]:
        assert rational_to_primitive(v) == primitive(v)
    assert rational_to_primitive((2, Fraction(1, 3), 0)) == (6, 1, 0)
    assert rational_to_primitive((Fraction(-3, 4), -2, Fraction(5, 6))) == (-9, -24, 10)
    assert all(type(a) is int for a in rational_to_primitive((Fraction(-1, 2), Fraction(4), 3)))


@given(st.lists(small_int, min_size=1, max_size=5))
def test_primitive_is_primitive(v):
    assume(any(v))
    p = primitive(tuple(v))
    from math import gcd

    assert gcd(*(abs(a) for a in p)) == 1
    # same ray: v is a positive multiple of p
    k = next(a // b for a, b in zip(v, p) if b != 0)
    assert k > 0 and tuple(k * b for b in p) == tuple(v)


# ------------------------------------------------------------- hermite forms


def test_row_hermite_frozen_example():
    # gcd column reduction of {(4,6),(2,2)} gives the rectangular lattice 2Z x 2Z
    assert row_hermite([(4, 6), (2, 2)]) == ((2, 0), (0, 2))


def test_row_hermite_shapes():
    assert row_hermite([]) == ()
    assert row_hermite([(0, 0)]) == ()
    assert row_hermite([(1, 5), (0, 3)]) == ((1, 2), (0, 3))


@given(int_matrix(3, 3))
def test_hermite_preserves_row_lattice(rows):
    sub = LatticeSubgroup.from_vectors(3, rows)
    # every original row lies in the canonical subgroup
    for r in rows:
        assert contains_vector(sub, r)
    # every canonical generator is an integer combination of the rows
    nonzero = [r for r in rows if any(r)]
    for g in sub.generators:
        assert solve_integer(transpose(nonzero), g) is not None
    # canonicalization is idempotent
    assert LatticeSubgroup.from_vectors(3, sub.generators) == sub


# ----------------------------------------------------------------- int rank


def test_int_rank_examples():
    assert int_rank([(1, 2), (2, 4)]) == 1
    assert int_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    assert int_rank([(0, 0), (0, 0)]) == 0
    assert rank_rows([(Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(2))]) == 1


def in_span(rows, vectors):
    """The span test the engine reads off one echelon: a vector lies in
    the span of the rows exactly when it reduces to zero modulo their
    echelon (`link_difference` finds the rows constant on a pair's affine
    hull this way)."""
    return [vec_is_zero(v) for v in reduce_modulo(_echelon(rows), vectors)]


def test_span_test_examples():
    rows = [(0, 0, 0), (2, 4, 6), (1, 2, 3), (0, 1, 1)]
    assert in_span(rows, [(3, 7, 10), (0, 0, 0), (0, 0, 1)]) == [True, True, False]
    assert in_span([], [(1,), (0,)]) == [False, True]


@given(st.data())
def test_span_test_matches_rank(data):
    # zero, repeated and dependent rows, v both inside the span (an integer
    # combination of the rows) and drawn freely
    n = data.draw(st.integers(min_value=1, max_value=5))
    vec = st.lists(small_int, min_size=n, max_size=n).map(tuple)
    base = data.draw(st.lists(vec, max_size=4))
    coeffs = st.lists(small_int, min_size=len(base), max_size=len(base))
    combine = lambda cs: tuple(sum(c * r[j] for c, r in zip(cs, base)) for j in range(n))
    rows = base + [combine(cs) for cs in data.draw(st.lists(coeffs, max_size=2))]
    rows += data.draw(st.lists(st.sampled_from(base + [(0,) * n]), max_size=2))
    rows = list(data.draw(st.permutations(rows)))
    inside = data.draw(st.booleans())
    v = combine(data.draw(coeffs)) if inside else data.draw(vec)
    expected = rank_rows(rows + [v]) == rank_rows(rows)
    assert in_span(rows, [v]) == [expected]
    assert expected or not inside


# -------------------------------------------------------------- smith forms


def test_snf_frozen_examples():
    assert snf_diagonal([(2, 0), (0, 3)]) == [1, 6]
    assert snf_diagonal([(2, 4), (6, 8)]) == [2, 4]
    assert snf_diagonal([(1, 0), (0, 1)]) == [1, 1]
    assert snf_diagonal([(0, 0), (0, 0)]) == [0, 0]


@given(int_matrix(3, 3))
def test_snf_transform_contract(m):
    u, uinv, d, v = smith_transform(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert mat_mul(u, uinv) == identity_matrix(3)
    diag = [d[i][i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


@given(int_matrix(2, 4))
def test_snf_rectangular(m):
    u, uinv, d, v = smith_transform(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert mat_mul(u, uinv) == identity_matrix(2)


# ------------------------------------------------------------ linear solves


def test_solve_integer_examples():
    assert solve_integer([(2, 0), (0, 3)], (4, 9)) == (2, 3)
    assert solve_integer([(2, 0), (0, 3)], (3, 2)) is None
    assert solve_integer([(1, 1)], (5,)) is not None


@given(int_matrix(3, 2), st.lists(small_int, min_size=2, max_size=2).map(tuple))
def test_solve_integer_roundtrip(m, x):
    rhs = mat_vec(m, x)
    sol = solve_integer(m, rhs)
    assert sol is not None
    assert mat_vec(m, sol) == rhs


def test_solve_rational_and_rref():
    assert solve_rational([(2, 0), (0, 4)], (1, 1)) == (Fraction(1, 2), Fraction(1, 4))
    assert solve_rational([(1, 1), (1, 1)], (0, 1)) is None
    red, piv = rref([(2, 4), (1, 2)])
    assert red == ((Fraction(1), Fraction(2)),) and piv == (0,)


fraction_entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def rational_matrices(draw):
    """Matrices over Q, the empty one included, with Fraction entries,
    zero rows and rows that are rational combinations of other rows."""
    nc = draw(st.integers(min_value=0, max_value=5))
    row = st.lists(st.one_of(small_int, fraction_entry), min_size=nc, max_size=nc).map(tuple)
    rows = draw(st.lists(row, max_size=4))
    for cs in draw(st.lists(st.lists(fraction_entry, min_size=len(rows), max_size=len(rows)), max_size=2)):
        rows.append(tuple(sum(c * r[j] for c, r in zip(cs, rows)) for j in range(nc)))
    rows += [(0,) * nc] * draw(st.integers(min_value=0, max_value=2))
    return nc, list(draw(st.permutations(rows)))


@given(rational_matrices())
@example((0, []))
@example((3, []))
@example((2, [(0, 0), (Fraction(1, 2), 1), (1, 2)]))
def test_reduced_echelon_matches_fraction_rref(m):
    # the reduced echelon form is unique, so back-substitution on the
    # Bareiss echelon gives the Fraction rref entry for entry, and the null
    # space read off it is the reference's vector for vector
    nc, rows = m
    assert reduced_echelon(rows) == rref(rows)
    assert _null_space(rows, nc) == nullspace_rational(rows, ncols=nc)


def test_nullspace_rational():
    ns = nullspace_rational([(1, 1, 1)])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0
    assert nullspace_rational([], ncols=2) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


# ------------------------------------------------------------ integer kernel


def test_integer_kernel_sum_zero():
    ker = integer_kernel([(1, 1, 1)])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0
    # kernel lattice is saturated: the two routes agree
    assert LatticeSubgroup.from_vectors(3, ker) == saturation(3, ker)


def test_integer_kernel_trivial():
    assert integer_kernel([(1, 0), (0, 1)]) == []
    assert len(integer_kernel([(0, 0)])) == 2


@given(int_matrix(2, 3))
def test_integer_kernel_annihilates(m):
    for v in integer_kernel(m):
        assert mat_vec(m, v) == (0, 0)


@given(any_matrix())
def test_integer_kernel_matches_reference(m):
    # the Hermite basis of the lattice the Smith route spans
    nc = len(m[0]) if m else 0
    ker = integer_kernel(m)
    expected = LatticeSubgroup.from_vectors(nc, smith_integer_kernel(m))
    assert tuple(ker) == expected.generators


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(small_int, min_size=n, max_size=n), max_size=4))
))
def test_saturation_matches_reference(data):
    n, rows = data
    assert saturation(n, rows) == smith_saturation(n, rows)


# ---------------------------------------------------------------- subgroups


def test_subgroup_membership():
    even_sum = LatticeSubgroup.from_vectors(2, [(1, 1), (0, 2)])
    assert contains_vector(even_sum, (3, 5))
    assert not contains_vector(even_sum, (1, 0))
    assert contains_vector(zero_subgroup(2), (0, 0))
    assert not contains_vector(zero_subgroup(2), (1, 0))


def test_lattice_index_frozen_examples():
    n2 = standard_lattice(2)
    rect = LatticeSubgroup.from_vectors(2, [(2, 0), (0, 3)])
    assert lattice_index(n2, rect) == Fraction(6)
    even_sum = sum_lattices(
        LatticeSubgroup.from_vectors(2, [(2, 0)]),
        LatticeSubgroup.from_vectors(2, [(0, 2), (1, 1)]),
    )
    assert even_sum == LatticeSubgroup.from_vectors(2, [(1, 1), (0, 2)])
    assert lattice_index(n2, even_sum) == Fraction(2)
    # rank-deficient subgroup has infinite index
    assert lattice_index(n2, LatticeSubgroup.from_vectors(2, [(1, 0)])) is None
    assert lattice_index(n2, zero_subgroup(2)) is None
    assert lattice_index(zero_subgroup(2), zero_subgroup(2)) == Fraction(1)


def test_lattice_index_rejects_non_subgroup():
    rect = LatticeSubgroup.from_vectors(2, [(2, 0), (0, 2)])
    with pytest.raises(SubgroupError):
        lattice_index(rect, standard_lattice(2))


def test_lattice_index_in_the_standard_lattice_takes_no_containment_test(monkeypatch):
    # every integer lattice lies in Z^n, so the index in the standard
    # lattice takes no Hermite form of the sum (one per call before);
    # any other ambient lattice still takes it, and still refuses a
    # lattice it does not contain
    calls = []
    f = lattices.sum_lattices
    monkeypatch.setattr(lattices, "sum_lattices", lambda a, b: calls.append(1) or f(a, b))
    rect = LatticeSubgroup.from_vectors(2, [(2, 0), (0, 3)])
    assert lattice_index(standard_lattice(2), rect) == Fraction(6)
    assert lattice_index(standard_lattice(3), zero_subgroup(3)) is None
    assert calls == []
    assert lattice_index(rect, LatticeSubgroup.from_vectors(2, [(4, 0), (0, 3)])) == Fraction(2)
    with pytest.raises(SubgroupError):
        lattice_index(rect, standard_lattice(2))
    assert len(calls) == 2


def index_or_error(index, ambient, sub):
    try:
        return index(ambient, sub)
    except SubgroupError:
        return SubgroupError


@given(st.data())
def test_lattice_index_matches_reference(data):
    # zero, rank-deficient and full-rank lattices, sub drawn inside the
    # ambient (integer combinations of its generators) or freely
    n = data.draw(st.integers(min_value=1, max_value=4))
    vec = st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n).map(tuple)
    ambient = LatticeSubgroup.from_vectors(n, data.draw(st.lists(vec, max_size=n + 1)))
    if data.draw(st.booleans()):
        coeffs = st.lists(small_int, min_size=ambient.rank, max_size=ambient.rank)
        gens = [
            tuple(sum(c * g[j] for c, g in zip(cs, ambient.generators)) for j in range(n))
            for cs in data.draw(st.lists(coeffs, max_size=n + 1))
        ]
    else:
        gens = data.draw(st.lists(vec, max_size=n + 1))
    sub = LatticeSubgroup.from_vectors(n, gens)
    expected = index_or_error(smith_lattice_index, ambient, sub)
    assert index_or_error(lattice_index, ambient, sub) == expected


def test_intersect_frozen_example():
    two_by_one = LatticeSubgroup.from_vectors(2, [(2, 0), (0, 1)])
    even_sum = LatticeSubgroup.from_vectors(2, [(1, 1), (0, 2)])
    got = intersect_lattices(two_by_one, even_sum)
    assert got == LatticeSubgroup.from_vectors(2, [(2, 0), (0, 2)])


def test_intersect_box_oracle():
    # brute-force check on a box: membership in the intersection subgroup
    # coincides with membership in both operands
    a = LatticeSubgroup.from_vectors(2, [(2, 1), (0, 3)])
    b = LatticeSubgroup.from_vectors(2, [(1, 2), (3, 0)])
    inter = intersect_lattices(a, b)
    for v in product(range(-6, 7), repeat=2):
        both = contains_vector(a, v) and contains_vector(b, v)
        assert contains_vector(inter, v) == both


def test_index_identity_worked_instance():
    # three subgroups of Z^2 where both sides of the exchange identity
    # evaluate to 2
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
    assert lhs == rhs == Fraction(2)


def full_rank_subgroup(n):
    return (
        int_matrix(n, n)
        .filter(lambda m: int_rank(m) == n)
        .map(lambda m: LatticeSubgroup.from_vectors(n, m))
    )


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.just(n), full_rank_subgroup(n), full_rank_subgroup(n), full_rank_subgroup(n))
))
def test_index_identity_random(data):
    n, a, b, c = data
    amb = standard_lattice(n)
    lhs = lattice_index(amb, sum_lattices(a, c)) * lattice_index(
        amb, sum_lattices(b, intersect_lattices(a, c))
    )
    rhs = lattice_index(amb, sum_lattices(a, b)) * lattice_index(
        amb, sum_lattices(intersect_lattices(a, b), c)
    )
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.just(n), full_rank_subgroup(n), int_matrix(n, n).filter(lambda m: int_rank(m) == n))
))
def test_index_tower_multiplicativity(data):
    n, a, m = data
    # b = rows of m expressed in a's basis, so b is a finite-index subgroup of a
    b_gens = [mat_vec(transpose(a.generators), row) for row in m]
    b = LatticeSubgroup.from_vectors(n, b_gens)
    amb = standard_lattice(n)
    assert lattice_index(amb, a) * lattice_index(a, b) == lattice_index(amb, b)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.just(n), full_rank_subgroup(n), full_rank_subgroup(n))
))
def test_index_sum_intersection_product(data):
    n, a, b = data
    amb = standard_lattice(n)
    lhs = lattice_index(amb, a) * lattice_index(amb, b)
    rhs = lattice_index(amb, sum_lattices(a, b)) * lattice_index(amb, intersect_lattices(a, b))
    assert lhs == rhs


# ------------------------------------------------------ saturation, quotient


def test_saturation_examples():
    sat = saturation(3, [(2, 2, 0)])
    assert sat == LatticeSubgroup.from_vectors(3, [(1, 1, 0)])
    assert saturation(2, [(2, 0), (0, 2)]) == standard_lattice(2)
    assert saturation(2, []) == zero_subgroup(2)


@given(int_matrix(2, 3))
def test_saturation_contains_and_spans(rows):
    sat = saturation(3, rows)
    sub = LatticeSubgroup.from_vectors(3, rows)
    assert is_subgroup_of(sub, sat)
    assert sat.rank == rank_rows(rows) if any(any(r) for r in rows) else sat.rank == 0
    # saturated: any integer vector in the span is in the subgroup
    for g in sat.generators:
        assert contains_vector(sat, g)
    if sub.rank == sat.rank and sub.rank > 0:
        idx = lattice_index(sat, sub)
        assert idx is not None and idx >= 1


def test_quotient_matrix_diagonal():
    diag = saturation(3, [(1, 1, 1)])
    q = quotient_matrix(diag)
    assert len(q) == 2 and len(q[0]) == 3
    assert mat_vec(q, (1, 1, 1)) == (0, 0)
    # surjectivity: both unit vectors of the quotient are hit
    assert solve_integer(q, (1, 0)) is not None
    assert solve_integer(q, (0, 1)) is not None


def test_quotient_matrix_requires_saturated():
    doubled = LatticeSubgroup.from_vectors(2, [(2, 0)])
    with pytest.raises(SubgroupError):
        quotient_matrix(doubled)


def test_quotient_matrix_zero_subgroup():
    assert quotient_matrix(zero_subgroup(2)) == identity_matrix(2)


@given(int_matrix(2, 4))
def test_quotient_matrix_kernel(rows):
    sat = saturation(4, rows)
    q = quotient_matrix(sat)
    assert len(q) == 4 - sat.rank
    for g in sat.generators:
        assert all(x == 0 for x in mat_vec(q, g))
    # kernel of q is no bigger than sat
    for col in integer_kernel(q):
        assert contains_vector(sat, col)


@st.composite
def saturated_lattices(draw):
    """Saturated subgroups of Z^1-Z^5 of every rank, from the zero
    subgroup to Z^n."""
    n = draw(st.integers(min_value=1, max_value=5))
    vec = st.lists(small_int, min_size=n, max_size=n).map(tuple)
    return saturation(n, draw(st.lists(vec, max_size=n)))


@given(saturated_lattices(), st.integers(min_value=2, max_value=3))
def test_quotient_matrix_is_the_annihilator_hermite_basis(sat, k):
    # the map's kernel is sat, it is onto Z^(n-d), and it spans the row
    # lattice of the Smith map; a multiple of a generator breaks saturation
    n, d = sat.ambient_rank, sat.rank
    q = quotient_matrix(sat)
    assert len(q) == n - d
    kernel = integer_kernel(q) if q else identity_matrix(n)
    assert LatticeSubgroup.from_vectors(n, kernel) == sat
    assert row_hermite(transpose(q)) == identity_matrix(n - d)
    assert row_hermite(q) == row_hermite(smith_quotient_matrix(sat))
    if d:
        scaled = (tuple(k * a for a in sat.generators[0]),) + sat.generators[1:]
        with pytest.raises(SubgroupError):
            quotient_matrix(LatticeSubgroup.from_vectors(n, scaled))


def test_vec_dot_sanity():
    assert vec_dot((1, 2, 3), (4, 5, 6)) == 32
