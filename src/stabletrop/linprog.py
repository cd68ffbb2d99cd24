"""Exact linear feasibility over the rationals.

A single phase-1 simplex with Bland's rule on an integer tableau: every
entry, right-hand side and the objective row are Python ints over one
positive common denominator D, the determinant of the current basis
(the integer-preserving simplex of Edmonds 1967 and Bareiss 1968). A
pivot divides exactly by the previous D, so no Fraction is built until
the returned point, and every decision is the one the same tableau over
the rationals would make. This is only used as a feasibility oracle
(the engine's pair test and displacement test, and polytopality
certificates), so there is no objective beyond driving the artificial
variables to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def feasible_point(n, ineqs=(), eqs=()):
    """A rational point satisfying a·x <= b for (a, b) in ineqs and
    c·x == d for (c, d) in eqs, or None if the system is infeasible.

    Free variables are split as x = xp - xm; slack variables turn the
    inequalities into equations; one artificial variable per row makes the
    identity starting basis. Bland's rule guarantees termination.
    """
    ineqs = [(tuple(a), b) for a, b in ineqs]
    system = ineqs + [(tuple(c), d) for c, d in eqs]
    m = len(system)
    if m == 0:
        return tuple(Fraction(0) for _ in range(n))
    nslack = len(ineqs)
    # Rational rows are cleared by L, the lcm of all denominators. The
    # tableau L*A at the identity basis has determinant L^m, so it starts
    # as L^m * A over D = L^m; a scale per row would not divide exactly.
    d = lcm(*(x.denominator for a, b in system for x in a + (b,))) ** m
    # columns: xp (n) | xm (n) | slack (nslack) | artificial (m) | rhs
    width = 2 * n + nslack + m
    tab = []
    for k, (a, b) in enumerate(system):
        a = [x.numerator * (d // x.denominator) for x in a]
        row = a + [-x for x in a] + [0] * (nslack + m)
        row.append(b.numerator * (d // b.denominator))
        if k < nslack:
            row[2 * n + k] = d
        if row[width] < 0:
            row = [-x for x in row]
        row[2 * n + nslack + k] = d
        tab.append(row)
    # objective: minimize the sum of artificials; reduced cost row, z last
    obj = [-sum(col) for col in zip(*tab)]
    obj[2 * n + nslack : width] = [0] * m
    tab.append(obj)
    basis = list(range(2 * n + nslack, width))

    while True:
        obj = tab[m]
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        # ratio test rhs_i / T[i][enter] by cross-multiplication (D > 0)
        leave = None
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tab[i][width] * tab[leave][enter]
                rhs = tab[leave][width] * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            return None
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[enter]
            if f:
                tab[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                tab[i] = [a * p // d for a in row]
        d = p
        basis[leave] = enter

    if tab[m][width] != 0:
        return None
    x = [0] * width
    for i, col in enumerate(basis):
        x[col] = tab[i][width]
    return tuple(Fraction(x[j] - x[n + j], d) for j in range(n))
