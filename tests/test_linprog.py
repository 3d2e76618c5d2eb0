import random
from collections import Counter
from fractions import Fraction

from gitloci.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from oracles import solve_lp as reference_solve_lp


def _random_lp(rng):
    """A small equality-form LP with rational entries: some rows repeat as
    combinations of others (redundant), some right-hand sides are negative,
    and x >= 0 leaves some programs infeasible and some unbounded."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)

    def entry():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))

    A = [[entry() for _ in range(n)] for _ in range(m)]
    b = [entry() for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        k = Fraction(rng.randint(-2, 2) or 1, rng.randint(1, 2))
        i, j = rng.sample(range(m), 2)
        A.append([k * a for a in A[i]])
        b.append(k * b[i])
        A.append([a + c for a, c in zip(A[i], A[j])])
        b.append(b[i] + b[j])
    c = [rng.choice((0, entry())) for _ in range(n)]
    return A, b, c, rng.random() < 0.5


def test_integer_tableau_matches_fraction_simplex():
    # the same pivots give the same basis, so x is the reference's even
    # where the optimum is not unique
    rng = random.Random(31337)
    seen = Counter()
    for _ in range(2000):
        A, b, c, maximize = _random_lp(rng)
        got = solve_lp(A, b, c, maximize=maximize)
        assert got == reference_solve_lp(A, b, c, maximize=maximize), (A, b, c)
        status, x, value = got
        if status == OPTIMAL:
            assert all(isinstance(v, Fraction) for v in x)
            assert isinstance(value, Fraction)
        seen[status, maximize, len(A) > 4, any(v < 0 for v in b)] += 1
    for status in (OPTIMAL, INFEASIBLE, UNBOUNDED):
        assert sum(k for (s, *_), k in seen.items() if s == status) > 50, seen
    for flag in (1, 2, 3):
        assert sum(k for key, k in seen.items() if key[0] == OPTIMAL and key[flag]) > 20


def test_degenerate_programs_match_fraction_simplex():
    # zero rows, a row of zeros with a zero right-hand side (dropped after
    # phase 1), an artificial left at level zero in the basis that the
    # drive-out step replaces through a negative pivot, and ratio-test ties
    # that only the smallest-basic-index rule sends to the reference's
    # optimal vertex
    cases = [
        ([[-1, -1, 0, 2], [1, 2, 1, 0]], [0, 2], [0, 0, 1, 0], False),
        ([[-1, 2, 0, 1], [2, 1, 2, -1]], [2, 1], [1, -1, 0, -1], False),
        ([[0, 0], [1, 1]], [0, 1], [1, 2], False),
        ([[1, -1, 0], [-2, 2, 0], [0, 1, 1]], [0, 0, 1], [0, 1, -1], True),
        ([[1, 1, 0], [0, -1, 1], [1, 0, 1]], [0, 0, 0], [1, 1, 1], False),
        ([[1, 1], [-1, -1]], [0, 0], [1, 2], True),
        ([[2, 1, -1], [-4, -2, 2], [1, 3, 0]], [0, 0, 5], [1, -1, 2], True),
        ([[Fraction(1, 2), -1]], [Fraction(-3, 4)], [1, 0], True),
        ([], [], [1, -1], False),
    ]
    for A, b, c, maximize in cases:
        got = solve_lp(A, b, c, maximize=maximize)
        assert got == reference_solve_lp(A, b, c, maximize=maximize), (A, b, c)
