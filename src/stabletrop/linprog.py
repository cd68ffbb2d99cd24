"""Exact linear feasibility over the rationals.

A single phase-1 simplex with Bland's rule, run entirely in Fraction
arithmetic. This is only used as a feasibility oracle (emptiness of
polyhedra given by constraints, which decides the engine's displacement
test, and polytopality certificates), so there is no objective beyond
driving the artificial variables to zero.
"""

from __future__ import annotations

from fractions import Fraction


def feasible_point(n, ineqs=(), eqs=()):
    """A rational point satisfying a·x <= b for (a, b) in ineqs and
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
