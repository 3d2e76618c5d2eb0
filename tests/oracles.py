"""Rational reference routines that the tests check the integer kernels
against.  No code of the package calls them.

`row_reduce` is Gauss-Jordan elimination over Q, the reference for
`qpoly.integer_row_reduce`.  `facet_normal_candidates` is a finite
certificate set for the semistability of a rank <= 2 support, the reference
for hull membership and for the Hilbert-Mumford minimisers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from gitloci.polytope import DimensionMismatch, convex_hull_2d
from gitloci.qpoly import RationalVector


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
