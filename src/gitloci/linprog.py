"""Exact rational linear programming (two-phase simplex, Bland's rule).

Problems here are tiny (a handful of rows, a few dozen columns), so the
implementation favours clarity over speed: the reduced-cost row is
recomputed every iteration.  The tableau is integer: [A | b] is scaled by
one common denominator, and the rational tableau is kept as integer rows
over one positive denominator, pivoted by `qpoly.montante_step`.  Every
sign test and ratio comparison is the rational one, so the pivots are those
of a simplex over Fractions, and Fractions are built only for the solution
and its value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .qpoly import clear_denominators, montante_step

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def solve_lp(
    A: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int],
    maximize: bool = False,
) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Solve min (or max) c.x subject to A x = b, x >= 0.

    Returns (status, x, value).  Bland's rule prevents cycling, so the
    routine always terminates; exactness means no tolerance knobs.
    """
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    rows, _ = clear_denominators(
        [-v for v in (*row, rhs)] if rhs < 0 else (*row, rhs)
        for row, rhs in zip(A, b)
    )
    (cost,), dc = clear_denominators([c])
    # tableau: columns = n structural + m artificial + rhs, over den
    T = [
        [*r[:-1], *(int(j == i) for j in range(m)), r[-1]]
        for i, r in enumerate(rows)
    ]
    basis = list(range(n, n + m))
    den = 1

    phase1 = [0] * n + [1] * m
    status, den = _simplex(T, basis, phase1, n + m, den)
    if status != OPTIMAL:
        raise AssertionError("phase 1 cannot be unbounded")
    if sum(phase1[basis[i]] * T[i][-1] for i in range(m)) > 0:
        return INFEASIBLE, None, None

    # drive artificial variables out of the basis (or drop redundant rows)
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j] != 0), None)
            if piv is None:
                T.pop(i)
                basis.pop(i)
            else:
                basis[i] = piv
                den = montante_step(T, i, piv, den)
                if den < 0:  # T / den is unchanged by negating both
                    den = -den
                    for row in T:
                        row[:] = [-v for v in row]

    # phase 2 on structural columns only
    for row in T:
        del row[n:-1]
    phase2 = [-v for v in cost] if maximize else cost
    status, den = _simplex(T, basis, phase2, n, den)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(T[i][-1], den)
    value = Fraction(sum(cost[bi] * T[i][-1] for i, bi in enumerate(basis)), den * dc)
    return OPTIMAL, x, value


def _simplex(
    T: list[list[int]], basis: list[int], cost: list[int], ncols: int, den: int
) -> tuple[str, int]:
    """Bland's rule on the tableau T / den, den > 0: the reduced cost of
    column j has the sign of den * cost_j - sum cost_B(i) T[i][j], and the
    ratio test cross-multiplies.  Returns the status and the final den."""
    while True:
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            if den * cost[j] < sum(cost[bi] * row[j] for bi, row in zip(basis, T)):
                entering = j
                break  # Bland: smallest index
        if entering is None:
            return OPTIMAL, den
        leaving = None
        for i, row in enumerate(T):
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                best = T[leaving]
                lhs, rhs = row[-1] * best[entering], best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            return UNBOUNDED, den
        basis[leaving] = entering
        den = montante_step(T, leaving, entering, den)


def lp_feasible(
    A: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]
) -> tuple[bool, Optional[list[Fraction]]]:
    """Feasibility of A x = b, x >= 0, with a witness when feasible; no
    path of the package calls it (the tests and the benchmark do)."""
    n = len(A[0]) if A else 0
    status, x, _ = solve_lp(A, b, [Fraction(0)] * n)
    return (status == OPTIMAL), x


def lp_maximize_free(
    objective: Sequence[Fraction | int],
    eqs: Sequence[tuple[Sequence[Fraction | int], Fraction | int]],
    ges: Sequence[tuple[Sequence[Fraction | int], Fraction | int]],
) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Maximise over FREE variables subject to <a,x> = b and <a,x> >= b rows.

    Free variables are split into positive and negative parts; inequality
    rows get slack variables.  Returns values for the original variables.
    """
    nv = len(objective)
    nslack = len(ges)

    def stretch(row: Sequence[Fraction | int]) -> list[Fraction | int]:
        return [x for v in row for x in (v, -v)]

    A = [stretch(row) + [0] * nslack for row, _ in eqs]
    for k, (row, _) in enumerate(ges):
        A.append(stretch(row) + [-int(j == k) for j in range(nslack)])
    b = [rhs for _, rhs in (*eqs, *ges)]
    c = stretch(objective) + [0] * nslack
    status, x, value = solve_lp(A, b, c, maximize=True)
    if status != OPTIMAL:
        return status, None, None
    orig = [x[2 * i] - x[2 * i + 1] for i in range(nv)]
    return OPTIMAL, orig, value
