"""Rational reference routines that the tests check the integer kernels
against.  No code of the package calls them.

`row_reduce` is Gauss-Jordan elimination over Q, the reference for
`qpoly.integer_row_reduce`.  `solve_lp` is the two-phase simplex over
`Fraction`s, the reference for `linprog.solve_lp`'s integer tableau, and
`hull_membership_two_lp` the two-program membership route on it, a
reference for `polytope._hull_membership_lp`.  `facet_normal_candidates` is
a finite certificate set for the semistability of a rank <= 2 support, the
reference for hull membership and for the Hilbert-Mumford minimisers.
`verify_stratification_oracle` checks the stratification by full scans: every
(support, sub-support) pair for the closure order, and every support against
every beta for the retraction; it is the reference for
`strata.verify_stratification`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from gitloci import strata
from gitloci.action import SupportPoint, TorusAction
from gitloci.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED
from gitloci.polytope import (
    DimensionMismatch,
    HullPosition,
    convex_hull_2d,
    hull_position,
)
from gitloci.qpoly import RationalVector
from gitloci.strata import BetaIndex, StratificationReport


def row_reduce(
    matrix: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan elimination over Q.

    Returns the reduced row echelon form (each pivot 1 and alone in its
    column, zero rows last), the pivot columns in order, and the determinant
    of the leading square block, which is 0 when that block is singular
    (meaningful when there are at least as many columns as rows).
    """
    rows = [[Fraction(v) for v in r] for r in matrix]
    n = len(rows)
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        top = rows[r]
        det *= top[col]
        rows[r] = top = [v / top[col] for v in top]
        for i in range(n):
            f = rows[i][col]
            if i != r and f != 0:
                rows[i] = [a - f * v for a, v in zip(rows[i], top)]
        pivots.append(col)
    return rows, pivots, det


def solve_lp(
    A: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int],
    maximize: bool = False,
) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """min (or max) c.x subject to A x = b, x >= 0 by the two-phase simplex
    with Bland's rule, every tableau entry a Fraction; (status, x, value)."""
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    cost = [Fraction(v) for v in c]
    if maximize:
        cost = [-v for v in cost]
    for i in range(m):
        if len(A[i]) != n:
            raise ValueError("inconsistent LP dimensions")
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # tableau: columns = n structural + m artificial + rhs
    T = [
        A[i][:] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    if _simplex(T, basis, phase1, n + m) != OPTIMAL:
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
                _pivot(T, basis, i, piv)

    # phase 2 on structural columns only
    for row in T:
        del row[n:-1]
    phase2 = cost[:]
    status = _simplex(T, basis, phase2, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    value = sum(cost[j] * x[j] for j in range(n))
    if maximize:
        value = -value
    return OPTIMAL, x, value


def _simplex(
    T: list[list[Fraction]], basis: list[int], cost: list[Fraction], ncols: int
) -> str:
    while True:
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            reduced = cost[j] - sum(
                cost[basis[i]] * T[i][j] for i in range(len(T))
            )
            if reduced < 0:
                entering = j
                break  # Bland: smallest index
        if entering is None:
            return OPTIMAL
        leaving = None
        best: Optional[Fraction] = None
        for i in range(len(T)):
            if T[i][entering] > 0:
                ratio = T[i][-1] / T[i][entering]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(T, basis, leaving, entering)


def _pivot(T: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [a - f * v for a, v in zip(T[i], T[row])]
    basis[row] = col


def hull_membership_two_lp(
    diffs: Sequence[Sequence[int]], dim: int, relative: bool
) -> HullPosition:
    """The origin against the hull of the diffs by two programs on the
    reference simplex: a feasibility program decides OUTSIDE, then the
    relative-interior program (max t with lambda = mu + t) separates
    BOUNDARY from the relative interior, and a rank test on the diffs
    separates that from the ambient interior."""
    cols = [[Fraction(v) for v in d] for d in diffs]
    m = len(cols)
    # membership: exists lambda >= 0, sum lambda = 1, sum lambda d_i = 0
    A = [[c[row] for c in cols] for row in range(dim)]
    A.append([Fraction(1)] * m)
    b = [Fraction(0)] * dim + [Fraction(1)]
    if solve_lp(A, b, [Fraction(0)] * m)[0] != OPTIMAL:
        return HullPosition.OUTSIDE
    # relative interior: max t s.t. mu >= 0, t >= 0, lambda = mu + t
    A2 = [row + [sum(row)] for row in A[:dim]]
    A2.append([Fraction(1)] * m + [Fraction(m)])
    c2 = [Fraction(0)] * m + [Fraction(1)]
    status, _, value = solve_lp(A2, b, c2, maximize=True)
    if status != OPTIMAL:
        raise AssertionError("bounded LP reported unbounded")
    if value <= 0:
        return HullPosition.BOUNDARY
    if relative:
        return HullPosition.INTERIOR
    d0 = cols[0]
    _, pivots, _ = row_reduce([[x - y for x, y in zip(d, d0)] for d in cols[1:]])
    return HullPosition.INTERIOR if len(pivots) == dim else HullPosition.BOUNDARY


def facet_normal_candidates(points: Sequence[RationalVector]) -> list[RationalVector]:
    """Inner facet normals of conv(points) plus the coordinate directions.

    For rank <= 2 this is a finite certificate set for semistability: the
    origin lies outside the hull iff some candidate direction has strictly
    positive minimum pairing over the points.
    """
    dim = points[0].dim
    candidates: list[RationalVector] = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        candidates.append(RationalVector(e))
        candidates.append(-RationalVector(e))
    if dim == 1:
        return candidates
    if dim != 2:
        raise DimensionMismatch("facet normals implemented for rank <= 2")
    hull = convex_hull_2d(points)
    if len(hull) == 1:
        return candidates
    if len(hull) == 2:
        d = hull[1] - hull[0]
        perp = RationalVector([-d.entries[1], d.entries[0]])
        candidates.extend([d, -d, perp, -perp])
        return candidates
    n = len(hull)
    for i in range(n):
        d = hull[(i + 1) % n] - hull[i]
        inner = RationalVector([-d.entries[1], d.entries[0]])  # CCW inner normal
        candidates.append(inner)
    return candidates


def verify_stratification_oracle(a: TorusAction) -> StratificationReport:
    """The stratification report by full scans: (ii) compares every valid
    support with every valid sub-support, and (iii) takes every support's
    least Segre value against every nonzero beta.

    `support_beta` and `_functional` are looked up on `gitloci.strata` at
    call time, so a test that patches them there reaches this reference too.
    """
    supports = list(a.iter_supports())
    betas: dict[tuple[Fraction, ...], BetaIndex] = {}
    by_support: dict[frozenset[int], RationalVector] = {}
    sizes: dict[tuple[Fraction, ...], int] = {}
    violations: list[dict] = []

    norms: dict[frozenset[int], Fraction] = {}
    # beta depends on a support only through its distinct weights
    by_weights: dict[tuple[tuple[int, ...], ...], tuple[RationalVector, Fraction]] = {}
    for sp in supports:
        weights = a.support_weights(sp)
        if weights not in by_weights:
            beta = strata.support_beta(a, sp)
            by_weights[weights] = beta, a.ip.norm_sq(beta)
        beta, norms[sp.support] = by_weights[weights]
        by_support[sp.support] = beta
        key = beta.entries
        sizes[key] = sizes.get(key, 0) + 1
        if key not in betas:
            betas[key] = BetaIndex.from_beta(a, beta)

    # (ii) closure order under sub-supports
    for sp in supports:
        base = norms[sp.support]
        for sub in a.support_sets(sp):
            if norms[sub] < base:
                violations.append(
                    {
                        "kind": "closure-order",
                        "support": sorted(sp.support),
                        "sub_support": sorted(sub),
                    }
                )

    # (iii) Yss = p^{-1}(Zss) for every nonzero index
    for key, bi in sorted(betas.items()):
        if bi.beta.is_zero():
            continue
        values, level = strata._functional(a, bi.beta)
        untwisted = bi.beta + a.twist  # beta against the untwisted weights
        for sp in supports:
            if a.segre_min(values, sp) != level:
                continue  # not in the Y-stratum of this index
            retracted = SupportPoint(
                itertools.chain.from_iterable(a.segre_argmin(values, sp))
            )
            lhs = by_support[sp.support] == bi.beta  # lambda_beta adapted to sp
            pos = hull_position(a.support_weights(retracted), untwisted)
            rhs = pos is not HullPosition.OUTSIDE
            if lhs != rhs:
                violations.append(
                    {
                        "kind": "retraction-semistability",
                        "support": sorted(sp.support),
                        "beta": [str(v) for v in bi.beta.entries],
                    }
                )

    ordered = [betas[k] for k in sorted(betas)]
    labels = {s: beta.entries for s, beta in by_support.items()}
    return StratificationReport(tuple(ordered), sizes, labels, tuple(violations))
