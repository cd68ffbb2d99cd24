"""Volume and mixed-volume problems for the `volumes` workload.

The problems are those of acceptance criteria 2 and 3: the random
lattice polytopes that `random_lattice_polytope` of the acceptance tests
draws there, with the same generator, sizes and seeds (402 and 403). That
is 30 normalized volumes in Q^2 and 20 in Q^3, 12 mixed volumes of two
bodies in Q^2 and 8 of three bodies in Q^3.

The benchmark's seed picks how each problem is presented: a symmetry of
the coordinate box the points were drawn from (coordinates permuted and
reflected, the same for every body of a problem), the order of the points,
of the bodies and of the problems. These are lattice isomorphisms, so
every answer and every size stays that of the criteria. The library only
receives the points; the code here shares none of the library's.

The answers are computed once with the independent oracles of
tests/oracles.py and kept in volume_answers.json, because the three-body
oracles alone take longer than a timed run:

    python3 perfbench/problems.py > perfbench/volume_answers.json
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

# (criterion seed, classes drawn from it in order); a class is
# (kind, ambient dim, max coordinate, most points, full-dimensional bodies
# only, bodies per problem, problems), as in tests/test_acceptance.py.
CRITERIA = (
    (402, (("volume", 2, 4, 8, True, 1, 30), ("volume", 3, 3, 8, True, 1, 20))),
    (403, (("mixed", 2, 3, 5, False, 2, 12), ("mixed", 3, 2, 4, False, 3, 8))),
)


def affine_rank(points):
    """Dimension of the affine hull of integer points (fraction-free)."""
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for c in range(len(points[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [p[c] * a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def lattice_points(rng, dim, max_coord, max_points, full_dim):
    """The points `random_lattice_polytope` draws, with the same calls on rng."""
    least = dim + 1 if full_dim else 2
    while True:
        count = rng.randint(least, max_points)
        pts = [tuple(rng.randint(0, max_coord) for _ in range(dim)) for _ in range(count)]
        if not full_dim or affine_rank(pts) == dim:
            return pts


def present(rng, dim, max_coord, bodies):
    """The bodies under a random symmetry of the box [0, max_coord]^dim,
    with points and bodies in random order."""
    axes = rng.sample(range(dim), dim)
    flips = [rng.random() < 0.5 for _ in range(dim)]
    out = []
    for body in bodies:
        pts = [tuple(max_coord - p[a] if f else p[a] for a, f in zip(axes, flips)) for p in body]
        rng.shuffle(pts)
        out.append(tuple(pts))
    rng.shuffle(out)
    return tuple(out)


def base_problems():
    """The criteria's problems in draw order, as (kind, dim, max_coord,
    bodies)."""
    out = []
    for criterion_seed, classes in CRITERIA:
        draw = random.Random(criterion_seed)
        for kind, dim, max_coord, most, full_dim, nbodies, count in classes:
            for _ in range(count):
                bodies = [lattice_points(draw, dim, max_coord, most, full_dim) for _ in range(nbodies)]
                out.append((kind, dim, max_coord, bodies))
    return out


def make_round(seed, per_class=None):
    """The problems as hashable (number, kind, dim, bodies), number being
    the place in draw order; shuffled, at most per_class of each class.
    The same seed gives the same round."""
    rng = random.Random(seed)
    out = []
    taken = Counter()
    for number, (kind, dim, max_coord, bodies) in enumerate(base_problems()):
        taken[kind, dim] += 1
        if per_class is None or taken[kind, dim] <= per_class:
            out.append((number, kind, dim, present(rng, dim, max_coord, bodies)))
    rng.shuffle(out)
    return out


def main():
    """Prints the answers in draw order, from the independent oracles of
    tests/oracles.py. Presentation keeps every answer, so these are the
    answers of every round; they are stored as volume_answers.json."""
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import oracles

    answers = []
    for kind, dim, _, bodies in base_problems():
        if kind == "volume":
            answers.append(oracles.full_dim_volume(bodies[0], dim))
        else:
            answers.append(oracles.mixed_volume_oracle(bodies))
    print(json.dumps([str(a) for a in answers]))


if __name__ == "__main__":
    main()
