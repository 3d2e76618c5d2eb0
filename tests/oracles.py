"""Rational reference routines that the tests check the integer kernels
against.  No code of the package calls them.

`row_reduce` is Gauss-Jordan elimination over Q, the reference for
`qpoly.integer_row_reduce`.  `solve_lp` is the two-phase simplex over
`Fraction`s, the reference for `linprog.solve_lp`'s integer tableau, and
`hull_membership_two_lp` the two-program membership route on it, a
reference for `polytope._hull_membership_lp`.  `facet_normal_candidates` is
a finite certificate set for the semistability of a rank <= 2 support, the
reference for hull membership and for the Hilbert-Mumford minimisers.
`dual_to_oracle` is lambda_beta as the primitive multiple of the `Fraction`
vector G beta, the reference for `stability.OneParamSubgroup.dual_to`, which
works on the integers.  `support_positions_scan` places every support's
weight hull by one `hull_position` call each, the reference for
`stability.support_positions`.
`verify_stratification_oracle` checks the stratification by full scans: every
(support, sub-support) pair for the closure order, and every support against
every beta for the retraction; it is the reference for
`strata.verify_stratification`.  `h_stable_explicit_oracle` decides every
orbit candidate by `stability.achievable_supports` and then keeps the
non-stable ones, the reference for `stability.h_stable_explicit`, which
decides only those.  `common_zero_exists_oracle` and
`common_zero_avoiding_oracle` are the two common-zero decisions as they stood
before `qpoly.common_zero_avoiding` became the only one, each reading its own
fields of the elimination's zero-set description; they and that elimination
are kept here as written then, the reference for `qpoly.common_zero_exists`
and `qpoly.common_zero_avoiding`.  Their elimination finds roots and curve
points with `rational_roots` and `_curve_points` as they stood before
`qpoly.rational_roots` moved to integers: a `Fraction` Horner test of every
candidate p/q and synthetic division, the reference for the integer search.
`chamber_decomposition_2d_fraction` is the 2D arrangement decomposition as
it stood with its crossings, their dedupe and sort and its cell midpoints on
`Fraction`s, the reference for `polytope.chamber_decomposition_2d`, which
works on one integer scale per line.  `plane`, `line_through` and `line_side`
state rational planes, lines through points and signs at points in the
arrangement's integer terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from gitloci import stability, strata
from gitloci.action import ExplicitPoint, GroupSpec, SupportPoint, TorusAction
from gitloci.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED
from gitloci.polytope import (
    Arrangement2D,
    Decomposition,
    DimensionMismatch,
    EmptyRegion,
    Face,
    HullPosition,
    Line2D,
    _signs,
    convex_hull_2d,
    hull_position,
    region_interior_point,
)
from gitloci.qpoly import (
    _ROOT_SEARCH_LIMIT,
    BiPoly,
    CommonZeroResult,
    CZStatus,
    EmptyInput,
    InnerProduct,
    RationalVector,
    _divisors,
    _grid_witnesses,
    _poly_trim,
    _univariate_coeffs,
    clear_denominators,
    gcd_univariate,
    nonvanishing_point,
    resultant,
)
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


def dual_to_oracle(
    beta: RationalVector, ip: InnerProduct
) -> stability.OneParamSubgroup:
    """lambda_beta from the `Fraction` vector G beta, by `RationalVector.dot`
    on each row of the Gram matrix."""
    gb = RationalVector(RationalVector(row).dot(beta) for row in ip.gram)
    return stability.OneParamSubgroup.from_vector(gb)


def support_positions_scan(
    a: TorusAction, chi: RationalVector, relative: bool = False
) -> list[tuple[frozenset[int], HullPosition]]:
    """Every support's hull position against chi in `support_sets` order,
    from its own Segre weights: one `hull_position` call per support."""
    return [
        (s, hull_position(a.support_weights(SupportPoint(s)), chi, relative=relative))
        for s in a.support_sets()
    ]


def h_stable_explicit_oracle(
    x: ExplicitPoint, a: TorusAction, g: GroupSpec
) -> stability.SweepVerdict:
    """The full group's sweep verdict with every candidate decided first:
    `achievable_supports` filtered by torus status."""
    return stability._sweep_verdict(
        cand
        for cand in stability.achievable_supports(x, a, g)
        if stability.torus_status(a, cand.support) is not stability.TorusStatus.STABLE
    )


def verify_stratification_oracle(a: TorusAction) -> StratificationReport:
    """The stratification report by full scans: (ii) compares every valid
    support with every valid sub-support, and (iii) takes every support's
    least Segre value against every nonzero beta.

    `hull_min_norm` and `_functional` are looked up on `gitloci.strata` at
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
            beta = strata.hull_min_norm(weights, a.twist, a.ip)
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


@dataclass(frozen=True)
class _ZeroSetInfo:
    """Structured description of the common zero set of a system in (b, c).

    kind:
      * "empty"      -- provably no common zero over the algebraic closure
      * "finite"     -- provably zero-dimensional; `points` lists the rational
                        ones, exhaustively iff `complete`
      * "lines"      -- contains full coordinate lines {var = value} x A^1
      * "curve"      -- contains the zero locus of `curve` (a single
                        nonconstant polynomial system)
      * "everything" -- every parameter pair is a zero (all polynomials zero)
      * "unknown"    -- the elimination strategy degenerated
    """

    kind: str
    points: tuple[tuple[Fraction, Fraction], ...] = ()
    complete: bool = False
    lines: tuple[tuple[str, Fraction], ...] = ()
    lines_complete: bool = False
    curve: Optional[BiPoly] = None
    has_nonrational: bool = False


def rational_roots(p: BiPoly, var: str) -> tuple[list[Fraction], bool]:
    """All rational roots of a univariate polynomial, with multiplicity
    stripped, plus a flag telling whether the polynomial splits over Q
    (so the returned roots account for every root in the algebraic closure).
    """
    cs = _univariate_coeffs(p, var)
    cs = _poly_trim(cs)
    if not cs:
        raise ValueError("zero polynomial has every value as a root")
    if len(cs) == 1:
        return [], True
    (ints,), _ = clear_denominators([cs])
    roots: list[Fraction] = []
    # factor out powers of the variable
    k = 0
    while ints[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        ints = ints[k:]
    if len(ints) == 1:
        return roots, True
    content = math.gcd(*ints)
    ints = [v // content for v in ints]
    if abs(ints[0]) > _ROOT_SEARCH_LIMIT or abs(ints[-1]) > _ROOT_SEARCH_LIMIT:
        return roots, False
    candidates = [
        sign * Fraction(nu, de)
        for nu in _divisors(ints[0])
        for de in _divisors(ints[-1])
        for sign in (1, -1)
    ]
    work = [Fraction(v) for v in ints]
    for cand in sorted(set(candidates)):
        while len(work) > 1 and _horner(work, cand) == 0:
            if cand not in roots:
                roots.append(cand)
            work = _deflate(work, cand)
    return sorted(set(roots)), len(work) == 1


def _horner(cs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _deflate(cs: list[Fraction], root: Fraction) -> list[Fraction]:
    # synthetic division by (x - root); the remainder is known to be zero
    out = [Fraction(0)] * (len(cs) - 1)
    out[-1] = cs[-1]
    for i in range(len(cs) - 3, -1, -1):
        out[i] = cs[i + 1] + out[i + 1] * root
    return out


def _curve_points(p: BiPoly, limit: int) -> list[tuple[Fraction, Fraction]]:
    pts = []
    for b0 in range(-limit, limit + 1):
        fibre = p.substitute("b", Fraction(b0))
        if fibre.is_zero():
            pts.append((Fraction(b0), Fraction(0)))
            continue
        if fibre.is_constant():
            continue
        roots, _ = rational_roots(fibre, "c")
        pts.extend((Fraction(b0), r) for r in roots)
    return pts


def _analyze_common_zeros(polys: Iterable[BiPoly]) -> _ZeroSetInfo:
    """Describe the common zero set of a polynomial system in (b, c).

    Strategy, in order: constant check; single-variable gcd; pairwise
    resultants eliminating c; gcd of the resulting univariates in b;
    back-substitution at its rational roots.  Completeness of the rational
    data is tracked so that callers can distinguish "no common zero" from
    "none found".
    """
    original = list(polys)
    if not original:
        raise EmptyInput("common-zero analysis requires at least one polynomial")
    system = [p for p in original if not p.is_zero()]
    if not system:
        return _ZeroSetInfo(kind="everything", points=((Fraction(0), Fraction(0)),))
    if any(p.is_constant() for p in system):
        return _ZeroSetInfo(kind="empty")  # a nonzero constant kills the system

    uses_b = any(p.uses("b") for p in system)
    uses_c = any(p.uses("c") for p in system)

    if uses_b and not uses_c:
        return _lines_info(system, "b")
    if uses_c and not uses_b:
        return _lines_info(system, "c")

    if len(system) == 1:
        pts = _curve_points(system[0], limit=6)
        return _ZeroSetInfo(
            kind="curve", points=tuple(pts), curve=system[0], has_nonrational=True
        )

    c_polys = [p for p in system if p.uses("c")]
    b_only = [p for p in system if not p.uses("c")]
    elim: list[BiPoly] = list(b_only)
    for i in range(len(c_polys)):
        for j in range(i + 1, len(c_polys)):
            elim.append(resultant(c_polys[i], c_polys[j], "c"))
    nonzero_elim = [p for p in elim if not p.is_zero()]
    if not nonzero_elim:
        # every pairwise resultant vanished: shared factors; fall back to search
        pts = _grid_witnesses(system, bound=4)
        if pts:
            return _ZeroSetInfo(kind="unknown", points=tuple(pts), has_nonrational=True)
        return _ZeroSetInfo(kind="unknown")
    g = gcd_univariate(nonzero_elim, "b")
    if g.is_constant():
        return _ZeroSetInfo(kind="empty")
    roots, b_split = rational_roots(g, "b")

    points: list[tuple[Fraction, Fraction]] = []
    lines: list[tuple[str, Fraction]] = []
    fibres_split = True
    exists_nonrational = False
    for r in roots:
        subbed = [p.substitute("b", r) for p in system]
        live = [p for p in subbed if not p.is_zero()]
        if any(p.is_constant() for p in live):
            continue  # this fibre is blocked by a nonzero constant
        if not live:
            lines.append(("b", r))
            points.append((r, Fraction(0)))
            continue
        gc = gcd_univariate(live, "c")
        if gc.is_constant():
            continue  # coprime on this fibre: no common c
        exists_nonrational = True
        croots, c_split = rational_roots(gc, "c")
        points.extend((r, cr) for cr in croots)
        if not c_split:
            fibres_split = False

    if lines:
        # the listed lines and points describe the whole zero set exactly
        # when the eliminant splits and every contributing fibre splits
        return _ZeroSetInfo(
            kind="lines",
            points=tuple(points),
            lines=tuple(lines),
            lines_complete=b_split and fibres_split,
            has_nonrational=exists_nonrational,
        )
    if points or exists_nonrational:
        return _ZeroSetInfo(
            kind="finite",
            points=tuple(points),
            complete=b_split and fibres_split,
            has_nonrational=exists_nonrational,
        )
    if b_split:
        # every possible b-projection was enumerated and failed
        return _ZeroSetInfo(kind="empty")
    return _ZeroSetInfo(kind="unknown")


def _lines_info(system: list[BiPoly], var: str) -> _ZeroSetInfo:
    g = gcd_univariate(system, var)
    if g.is_constant():
        return _ZeroSetInfo(kind="empty")
    roots, split = rational_roots(g, var)
    lines = tuple((var, r) for r in roots)
    pts = tuple(
        (r, Fraction(0)) if var == "b" else (Fraction(0), r) for r in roots
    )
    # when the gcd splits over Q the listed lines exhaust the zero set
    return _ZeroSetInfo(
        kind="lines",
        points=pts,
        lines=lines,
        lines_complete=split,
    )


def common_zero_exists_oracle(polys: Iterable[BiPoly]) -> CommonZeroResult:
    """Decide whether a system has a common zero over the algebraic closure.

    Yes carries a rational witness when the elimination finds one; Undecided
    is reserved for genuine degenerations of the documented strategy.
    """
    info = _analyze_common_zeros(polys)
    if info.kind == "empty":
        return CommonZeroResult(CZStatus.NO)
    if info.kind == "everything":
        return CommonZeroResult(CZStatus.YES, (Fraction(0), Fraction(0)))
    if info.points:
        return CommonZeroResult(CZStatus.YES, min(info.points))
    if info.kind in ("lines", "curve") or info.has_nonrational:
        return CommonZeroResult(CZStatus.YES, None)
    return CommonZeroResult(CZStatus.UNDECIDED)


def common_zero_avoiding_oracle(
    vanish: Sequence[BiPoly], avoid: Sequence[BiPoly]
) -> CommonZeroResult:
    """Decide whether some common zero of `vanish` avoids every zero of `avoid`.

    Used to test achievability of orbit supports: the coordinates outside a
    candidate support must vanish simultaneously while those inside stay
    nonzero.  `avoid` entries must be nonzero polynomials.
    """
    for p in avoid:
        if p.is_zero():
            raise ValueError("avoid-polynomials must be nonzero")
    if not list(vanish):
        return CommonZeroResult(CZStatus.YES, nonvanishing_point(avoid))
    info = _analyze_common_zeros(vanish)
    if info.kind == "empty":
        return CommonZeroResult(CZStatus.NO)
    if info.kind == "everything":
        return CommonZeroResult(CZStatus.YES, nonvanishing_point(avoid))

    def point_ok(pt: tuple[Fraction, Fraction]) -> bool:
        return all(p.eval_at(*pt) != 0 for p in avoid)

    good = [pt for pt in info.points if point_ok(pt)]
    if good:
        return CommonZeroResult(CZStatus.YES, min(good))

    if info.kind == "lines":
        for var, value in info.lines:
            restricted = [p.substitute(var, value) for p in avoid]
            if any(p.is_zero() for p in restricted):
                continue  # this line is contained in a forbidden locus
            other = "c" if var == "b" else "b"
            prod = BiPoly.const(1)
            for p in restricted:
                prod = prod * p
            for t in range(max(prod.degree(other), 0) + 1):
                if prod.substitute(other, t).eval_at(0, 0) != 0:
                    pt = (value, Fraction(t)) if var == "b" else (Fraction(t), value)
                    return CommonZeroResult(CZStatus.YES, pt)
        if info.lines_complete:
            # the listed lines and points exhaust the zero set: every line is
            # inside a forbidden locus and every point failed above
            return CommonZeroResult(CZStatus.NO)
        return CommonZeroResult(CZStatus.UNDECIDED)

    if info.kind == "finite":
        if info.complete:
            return CommonZeroResult(CZStatus.NO)
        return CommonZeroResult(CZStatus.UNDECIDED)

    if info.kind == "curve":
        more = _curve_points(info.curve, limit=10)
        good = [pt for pt in more if point_ok(pt)]
        if good:
            return CommonZeroResult(CZStatus.YES, min(good))
        return CommonZeroResult(CZStatus.UNDECIDED)

    return CommonZeroResult(CZStatus.UNDECIDED)


def plane(normal: RationalVector, offset: Fraction | int) -> tuple[int, ...]:
    """The integer plane (*normal, offset), denominators cleared, of
    <normal, x> = offset: a positive multiple, so a region plane of
    `Arrangement2D` or a `Line2D`'s arguments."""
    (row,), _ = clear_denominators([(*normal.entries, Fraction(offset))])
    return row


def line_through(p: Sequence[Fraction | int], q: Sequence[Fraction | int]) -> Line2D:
    """The line through two distinct points of the plane, rational or
    integer: normal (-dy, dx) for q - p = (dx, dy), through p."""
    (px, py), (qx, qy) = p, q
    normal = RationalVector([py - qy, qx - px])
    return Line2D(*plane(normal, normal.dot(RationalVector([px, py]))))


def line_side(line: Line2D, x: RationalVector) -> int:
    """The sign of a * x + b * y - c at x."""
    x0, x1 = x.entries
    v = line.a * x0 + line.b * x1 - line.c
    return (v > 0) - (v < 0)


def _mid(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def chamber_decomposition_2d_fraction(arr: Arrangement2D) -> Decomposition:
    """`chamber_decomposition_2d` as it stood before each line moved to one
    integer scale: every crossing a `Fraction`, deduped in a set of them and
    sorted by their comparisons, and every cell sampled at `_mid` of its
    `Fraction` ends.  The integer kernel must return an equal `Decomposition`.
    """
    lines = arr.lines
    n_lines = len(lines)
    # a positive multiple of a plane keeps its signs and their ratios
    planes = [(ln.a, ln.b, ln.c) for ln in lines] + list(arr.region)
    vertices: list[Face] = []
    cells: list[Face] = []
    chambers: dict[tuple[int, ...], RationalVector] = {}
    for idx in range(n_lines):
        a, b, c = planes[idx]
        m = a or b  # positive: a canonical line leads with a positive entry
        E = [(p if a else q) * c - m * o for p, q, o in planes]
        S = [q * a - p * b for p, q, _ in planes]
        R = [p * a + q * b for p, q, _ in planes]
        bx, by = (Fraction(c, a), 0) if a else (0, Fraction(c, b))
        bounds = list(zip(E[n_lines:], S[n_lines:]))
        if any(s == 0 and e <= 0 for e, s in bounds):
            continue  # a parallel region boundary the line is not inside
        lo = max((Fraction(-e, m * s) for e, s in bounds if s > 0), default=None)
        hi = min((Fraction(-e, m * s) for e, s in bounds if s < 0), default=None)
        if lo is not None and hi is not None and lo >= hi:
            continue
        crossings: set[Fraction] = set()
        for jdx in range(n_lines):
            if jdx == idx or S[jdx] == 0:
                continue
            t = Fraction(-E[jdx], m * S[jdx])
            if (lo is not None and t <= lo) or (hi is not None and t >= hi):
                continue
            if t in crossings:
                continue
            crossings.add(t)
            # a cut first met at a later line is a vertex on no earlier
            # line, so each vertex is emitted once, in (idx, partner) order
            if jdx > idx:
                Q, mP = t.denominator, m * t.numerator
                signs = _signs(e * Q + mP * s for e, s in zip(E[:n_lines], S))
                sample = RationalVector([bx - b * t, by + a * t])
                vertices.append(Face("vertex", sample, signs))
        edges: list[Optional[Fraction]] = [lo, *sorted(crossings), hi]
        for seg_lo, seg_hi in zip(edges, edges[1:]):
            t = _mid(seg_lo, seg_hi)
            Q, mP = t.denominator, m * t.numerator
            w = [e * Q + mP * s for e, s in zip(E, S)]
            signs = _signs(w[:n_lines])
            x, y = bx - b * t, by + a * t
            cells.append(
                Face("cell", RationalVector([x, y]), signs, idx, (seg_lo, seg_hi))
            )
            for side in (1, -1):
                sv = signs[:idx] + (side,) + signs[idx + 1 :]
                if sv in chambers:
                    continue
                best: Optional[tuple[int, int]] = None  # least |w_j| / |R_j|
                for wj, rj in zip(w, R):
                    if wj * side * rj >= 0:
                        continue  # the step moves away from plane j
                    v, r = abs(wj), abs(rj)
                    if best is None or v * best[1] < best[0] * r:
                        best = v, r
                off = Fraction(best[0], 2 * m * Q * best[1]) if best else Fraction(1)
                chambers[sv] = RationalVector([x + side * a * off, y + side * b * off])
    if not cells:
        sample = region_interior_point(arr.region, 2)
        if sample is None:
            raise EmptyRegion("region has no interior point")
        chambers[tuple(line_side(ln, sample) for ln in lines)] = sample
    ordered = sorted(chambers.items(), key=lambda kv: kv[1].entries)
    faces = vertices + cells + [Face("chamber", sample, sv) for sv, sample in ordered]
    return Decomposition(lines, tuple(faces))
