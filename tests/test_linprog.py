"""Feasibility oracle tests: soundness always, completeness on constructed
feasible systems."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fraction_feasible_point
from stabletrop import linprog
from stabletrop.linprog import feasible_point

small_int = st.integers(min_value=-4, max_value=4)
# ints and Fractions of mixed denominators, negative right-hand sides too
number = st.one_of(small_int, st.fractions(min_value=-4, max_value=4, max_denominator=6))


def test_simple_feasible():
    # 1 <= x <= 1
    x = feasible_point(1, ineqs=[((1,), 1), ((-1,), -1)])
    assert x == (Fraction(1),)


def test_simple_infeasible():
    assert feasible_point(1, ineqs=[((1,), 0), ((-1,), -1)]) is None


def test_equality_with_bounds():
    pt = feasible_point(2, ineqs=[((-1, 0), 0), ((0, -1), 0)], eqs=[((2, 3), 6)])
    assert pt is not None
    x, y = pt
    assert 2 * x + 3 * y == 6 and x >= 0 and y >= 0


def test_no_constraints():
    assert feasible_point(3) == (0, 0, 0)


def test_fractional_solution():
    pt = feasible_point(1, eqs=[((2,), 1)])
    assert pt == (Fraction(1, 2),)


def test_negative_rhs():
    pt = feasible_point(1, ineqs=[((-1,), -5)])
    assert pt is not None and pt[0] >= 5


def test_infeasible_equalities():
    assert feasible_point(2, eqs=[((1, 1), 0), ((1, 1), 1)]) is None


@given(
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_constructed_feasible_systems(n, data):
    # build constraints that x0 satisfies; the oracle must find some point
    x0 = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=n, max_size=n))
    nin = data.draw(st.integers(min_value=0, max_value=4))
    neq = data.draw(st.integers(min_value=0, max_value=2))
    ineqs = []
    for _ in range(nin):
        a = data.draw(st.lists(small_int, min_size=n, max_size=n))
        slack = data.draw(st.integers(min_value=0, max_value=3))
        ineqs.append((tuple(a), sum(ai * xi for ai, xi in zip(a, x0)) + slack))
    eqs = []
    for _ in range(neq):
        c = data.draw(st.lists(small_int, min_size=n, max_size=n))
        eqs.append((tuple(c), sum(ci * xi for ci, xi in zip(c, x0))))
    pt = feasible_point(n, ineqs=ineqs, eqs=eqs)
    assert pt is not None
    for a, b in ineqs:
        assert sum(ai * pi for ai, pi in zip(a, pt)) <= b
    for c, d in eqs:
        assert sum(ci * pi for ci, pi in zip(c, pt)) == d


@given(st.data())
def test_random_systems_sound(data):
    # whenever a point is returned it satisfies every constraint
    n = data.draw(st.integers(min_value=1, max_value=3))
    nin = data.draw(st.integers(min_value=1, max_value=5))
    ineqs = []
    for _ in range(nin):
        a = tuple(data.draw(st.lists(small_int, min_size=n, max_size=n)))
        b = data.draw(small_int)
        ineqs.append((a, b))
    pt = feasible_point(n, ineqs=ineqs)
    if pt is not None:
        for a, b in ineqs:
            assert sum(ai * pi for ai, pi in zip(a, pt)) <= b


@st.composite
def systems(draw):
    """n in 1..4, at most 8 inequalities and 3 equalities; possibly a zero
    row, a repeated row (a degenerate Bland tie) and an infeasible pair of
    equalities c·x == d, c·x == d + 1."""
    n = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(st.tuples(*[number] * n), number)
    ineqs = draw(st.lists(row, max_size=6))
    eqs = draw(st.lists(row, max_size=2))
    if ineqs and draw(st.booleans()):
        ineqs.append(draw(st.sampled_from(ineqs)))
    if draw(st.booleans()):
        ineqs.append(((0,) * n, draw(number)))
    if eqs and draw(st.booleans()):
        c, d = draw(st.sampled_from(eqs))
        eqs.append((c, d + 1))
    return n, ineqs, eqs


# two repeated rows: the ratio test ties, and Bland's rule picks the point
TIED = (3, [((0, -1, -1), -1), ((-1, 0, 1), 1)] * 2, [((-1, -1, 0), -1)])


@settings(max_examples=200)
@given(systems())
@example(TIED)
def test_matches_fraction_tableau(system):
    # the integer tableau returns the Fraction tableau's point, or both None
    assert feasible_point(*system) == fraction_feasible_point(*system)


def test_integer_rows_build_no_fraction(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linprog, "Fraction", counting)
    # x1 + x2 + x3 >= 3 with x <= 0: infeasible after three pivots
    ineqs = [((-1, -1, -1), -3), ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)]
    assert feasible_point(3, ineqs) is None
    assert built == []
    # x >= 1 with x1 + x2 + x3 == 4: four pivots; the tableau has 2*3 + 3 + 4
    # columns, and only the point is built of Fractions
    ineqs = [((-1, 0, 0), -1), ((0, -1, 0), -1), ((0, 0, -1), -1)]
    assert feasible_point(3, ineqs, [((1, 1, 1), 4)]) == (2, 1, 1)
    assert len(built) <= 2 * 3 + 3 + 4
