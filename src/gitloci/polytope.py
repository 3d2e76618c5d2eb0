"""Exact polyhedral predicates.

Hull membership distinguishes Outside / Boundary / Interior, where Interior
means interior in the ambient space: a hull of less than full dimension never
returns Interior.  The relative-interior reading (the `relative` argument,
behind the CLI's --relative-interior) also calls a point inside a
lower-dimensional hull Interior.  The minimum-norm point is computed by
Wolfe's algorithm.  An independent path enumerates corrals: affinely
independent subsets of at most dim points whose affine minimum-norm point
lies in their hull, and the origin when one hull test puts it in the hull
of all the points (it is the minimum-norm point of any corral of dim + 1).
By Caratheodory every minimum-norm point of a subset is one of these, so
the enumeration (polynomial, O(n^dim) subsets) serves both as the test
oracle for Wolfe and as the stratum index set.

Both run on one integer frame, a `GramFrame`: integer points p_i over one
denominator d (the twist's, or the points' common one) and their integer
Gram table <p_i, p_j>_G, built once.  Wolfe takes a list of indices into
the frame, so one table serves every hull of a stratification.  Each
affine minimum-norm point solves the bordered KKT system
[[M_T, 1], [1^T, 0]] by the integer elimination of `qpoly`, which gives
integer coefficient numerators over one denominator, so the sign tests are
integer tests.  A minimum-norm point comes back as reduced integer
numerators over one positive denominator, so equal points are equal integer
pairs; `min_norm_point` and `min_norm_point_oracle` build their own frame
and a Fraction per output coordinate.

Membership of one hull runs in one integer kernel, `hull_position`:
integer points against a rational query, translated so that the query is
the origin and scaled by its denominator.  Dimension 1 compares extremes,
dimension 2 takes an integer hull and orientations, higher dimensions solve
one exact simplex program on `linprog`'s integer tableau.  Every support of
an action is placed at once, at any rank, by `stability.support_positions`
from per-factor tables, on the normals (`primitive_normal`) of hyperplanes
spanned by within-factor weight differences and axes.  The vertices of one
integer hull come from `hull_vertices`: the extremes in dimension 1, the
CCW hull in dimension 2, every distinct point above that; the effective
region and the strata's support hulls are keyed by them.

The 2D arrangement is integer at its interface too: `Line2D`s and the
region's planes are integer triples, and each face of
`chamber_decomposition_2d` keeps its sample as integers, sorted on exact
integer keys, until a caller reads it as `Fraction`s.  `PointSet`,
`hull_membership`, `min_norm_point`, `min_norm_point_oracle` and
`convex_hull_2d` are `Fraction` entry points over the kernels above that no
path of the package calls; they stay as the tests' and the benchmark's
names for them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .linprog import INFEASIBLE, OPTIMAL, lp_maximize_free, solve_lp
from .qpoly import (
    InnerProduct,
    RationalVector,
    clear_denominators,
    integer_row_reduce,
)


class DimensionMismatch(ValueError):
    pass


class EmptyRegion(ValueError):
    pass


class HullPosition(str, Enum):
    OUTSIDE = "outside"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


@dataclass(frozen=True)
class PointSet:
    """A finite weight set; duplicates permitted (weight multiplicity).

    The `Fraction` input of `hull_membership`, `min_norm_point` and
    `min_norm_point_oracle`; production paths pass integer weights to the
    kernels instead.
    """

    points: tuple[RationalVector, ...]
    dim: int

    def __init__(self, points: Iterable[RationalVector]):
        pts = tuple(points)
        if not pts:
            raise ValueError("PointSet needs at least one point")
        dim = pts[0].dim
        if any(p.dim != dim for p in pts):
            raise DimensionMismatch("points of mixed dimension")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim", dim)

    def deduplicated(self) -> list[RationalVector]:
        seen = set()
        out = []
        for p in self.points:
            if p.entries not in seen:
                seen.add(p.entries)
                out.append(p)
        return out


def _integer_frame(
    points: Iterable[Sequence[int]], q: RationalVector
) -> tuple[set[tuple[int, ...]], int]:
    """The distinct points d*p - d*q and d, the denominator of q: integers
    for integer points p."""
    (dq,), d = clear_denominators([q.entries])
    return {tuple(map(operator.sub, map(d.__mul__, p), dq)) for p in points}, d


def hull_membership(
    S: PointSet, q: RationalVector, *, relative: bool = False
) -> HullPosition:
    """Exact classification of q against conv(S), by `hull_position` on
    the points and q scaled by their common denominator."""
    if q.dim != S.dim:
        raise DimensionMismatch(f"query dim {q.dim} vs point dim {S.dim}")
    rows = [p.entries for p in S.deduplicated()]
    (*ints, q_int), _ = clear_denominators([*rows, q.entries])
    return hull_position(ints, RationalVector(q_int), relative=relative)


def hull_position(
    points: Iterable[Sequence[int]], q: RationalVector, *, relative: bool = False
) -> HullPosition:
    """Exact classification of q against the hull of integer points.

    With d the denominator of q, the points d*p - d*q are integers, and q
    sits against the hull as the origin sits against theirs.
    """
    diffs, _ = _integer_frame(points, q)
    if q.dim == 1:
        lo, hi = min(diffs)[0], max(diffs)[0]
        if lo > 0 or hi < 0:
            return HullPosition.OUTSIDE
        if lo < 0 < hi or (relative and lo == hi):
            # a point hull at q is its own relative interior
            return HullPosition.INTERIOR
        return HullPosition.BOUNDARY
    if q.dim > 2:
        return _hull_membership_lp(list(diffs), q.dim, relative)
    hull = convex_hull_2d_int(diffs)
    if len(hull) == 1:
        if hull[0] == (0, 0):
            # hull is the single point q itself
            return HullPosition.INTERIOR if relative else HullPosition.BOUNDARY
        return HullPosition.OUTSIDE
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        if x1 * y2 != y1 * x2:
            return HullPosition.OUTSIDE
        if x1 == 0 == y1 or x2 == 0 == y2:
            return HullPosition.BOUNDARY  # endpoint
        if x1 * x2 + y1 * y2 < 0:
            # origin strictly between the endpoints
            return HullPosition.INTERIOR if relative else HullPosition.BOUNDARY
        return HullPosition.OUTSIDE
    on_edge = False
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        cross = x1 * y2 - y1 * x2  # orientation of the origin against the edge
        if cross < 0:
            return HullPosition.OUTSIDE
        if cross == 0:
            on_edge = True
    return HullPosition.BOUNDARY if on_edge else HullPosition.INTERIOR


def _hull_membership_lp(
    diffs: Sequence[Sequence[int]], dim: int, relative: bool
) -> HullPosition:
    """The simplex route: the origin against the hull of integer diffs.

    One program: maximise t over mu >= 0, t >= 0 with lambda = mu + t * 1,
    sum lambda = 1 and sum lambda d_i = 0.  It is infeasible exactly when
    the origin is outside the hull, and t > 0 at the optimum exactly when
    the origin is in its relative interior.
    """
    m = len(diffs)
    A = [[*(d[k] for d in diffs), sum(d[k] for d in diffs)] for k in range(dim)]
    A.append([1] * m + [m])
    status, _, value = solve_lp(A, [0] * dim + [1], [0] * m + [1], maximize=True)
    if status == INFEASIBLE:
        return HullPosition.OUTSIDE
    if status != OPTIMAL:
        raise AssertionError("bounded LP reported unbounded")
    if value == 0:
        return HullPosition.BOUNDARY
    if relative:
        return HullPosition.INTERIOR
    # interior in the ambient space needs a full-dimensional affine hull
    d0 = diffs[0]
    _, pivots, _ = integer_row_reduce(
        [[x - y for x, y in zip(d, d0)] for d in diffs[1:]]
    )
    return HullPosition.INTERIOR if len(pivots) == dim else HullPosition.BOUNDARY


def convex_hull_2d_int(points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain hull over integer coordinates, CCW, strict turns only.

    Returns one point for a point-hull and two for a segment-hull.
    """
    pts = sorted(set(points))
    if len(pts) == 1:
        return [pts[0]]

    def half(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            x, y = p
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                    break  # a strict left turn at the last point
                out.pop()
            out.append(p)
        return out

    # each chain runs from one extreme to the other, so collinear points
    # leave just the two extremes
    return half(pts)[:-1] + half(reversed(pts))[:-1]


def hull_vertices(
    points: Collection[tuple[int, ...]], dim: int
) -> tuple[tuple[int, ...], ...]:
    """The vertices of the hull of integer points in dimension dim: the two
    extremes in dimension 1 (one if they coincide), the CCW
    `convex_hull_2d_int` in dimension 2.  Above that every distinct point is
    kept, sorted: a superset of the vertices with the same hull."""
    if dim == 1:
        return tuple(dict.fromkeys((min(points), max(points))))
    if dim == 2:
        return tuple(convex_hull_2d_int(points))
    return tuple(sorted(set(points)))


def convex_hull_2d(points: Sequence[RationalVector]) -> list[RationalVector]:
    """Hull vertices of rational points in the plane, CCW: the `Fraction`
    entry point of `convex_hull_2d_int`."""
    uniq = list({p.entries: p for p in points}.values())
    ints, _ = clear_denominators(p.entries for p in uniq)
    back = {iv: p for iv, p in zip(ints, uniq)}
    return [back[iv] for iv in convex_hull_2d_int(ints)]


# ---------------------------------------------------------------------------
# Minimum-norm point
# ---------------------------------------------------------------------------


def _gram(points: Sequence[Sequence[int]], ip: InnerProduct) -> list[list[int]]:
    """The integer Gram matrix <p_i, p_j>_G of integer points."""
    forms = [[sum(map(operator.mul, row, p)) for row in ip.gram] for p in points]
    return [[sum(map(operator.mul, p, gq)) for gq in forms] for p in points]


def _bordered_solve(
    gram: Sequence[Sequence[int]], subset: Sequence[int]
) -> Optional[list[int]]:
    """Affine minimum-norm coefficients of the points indexed by `subset`,
    as integer numerators N over their sum D > 0 (a_i = N_i / D).

    Solves [[M_T, 1], [1^T, 0]] [a; nu] = [0; 1], with M_T the subset's
    block of the Gram matrix, by `integer_row_reduce`: the right-hand column
    ends as +-det * (a; nu).  The system is singular, and None is returned,
    exactly when the points are affinely dependent (a kernel vector (a, nu)
    has sum(a) = 0 and |sum a_i p_i|^2 = 0).
    """
    k = len(subset)
    rows = [[gram[i][j] for j in subset] + [1, 0] for i in subset]
    rows.append([1] * k + [0, 1])
    rows, pivots, det = integer_row_reduce(rows)
    if pivots != list(range(k + 1)):
        return None
    sign = 1 if det > 0 else -1  # the coefficients sum to 1, so D = |det|
    return [sign * row[-1] for row in rows[:k]]


def _combination(
    points: Sequence[Sequence[int]],
    subset: Sequence[int],
    weights: Sequence[int],
    d: int,
) -> tuple[tuple[int, ...], int]:
    """sum_i w_i p_i / (d * sum_i w_i), as reduced integer numerators over
    one positive denominator."""
    num = [
        sum(w * points[i][c] for w, i in zip(weights, subset))
        for c in range(len(points[0]))
    ]
    den = d * sum(weights)
    g = math.gcd(*num, den)
    return tuple(v // g for v in num), den // g


def _positive(
    subset: Sequence[int], weights: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The members of positive weight, their weights divided by their gcd."""
    keep = [(i, w) for i, w in zip(subset, weights) if w > 0]
    g = math.gcd(*(w for _, w in keep))
    return [i for i, _ in keep], [w // g for _, w in keep]


def _vector(num: Sequence[int], den: int) -> RationalVector:
    return RationalVector(Fraction(n, den) for n in num)


class GramFrame:
    """Integer points p_i / d on one integer Gram table <p_i, p_j>_G, built
    once; the minimum-norm points of their subsets come back as integer
    numerators N over one denominator D > 0, reduced, so that equal points
    are equal pairs (N, D).  The origin is (0, ..., 0), 1.
    """

    def __init__(self, rows: Sequence[tuple[int, ...]], d: int, ip: InnerProduct):
        self.rows = rows
        self.d = d
        self.gram = _gram(rows, ip)

    @staticmethod
    def shifted(
        points: Iterable[Sequence[int]], q: RationalVector, ip: InnerProduct
    ) -> "GramFrame":
        """The frame of conv(points) - q, for integer points: the distinct
        d*p - d*q in sorted order (the order of the distinct points), d the
        denominator of q."""
        diffs, d = _integer_frame(points, q)
        return GramFrame(sorted(diffs), d, ip)

    def min_norm(self, subset: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """Wolfe's minimum-norm point of the hull of the points indexed by
        `subset`, distinct indices (their order steers the path, not the
        point).

        The iterate x = sum u_i p_i / sum(u) is held as positive integer
        weights u on the corral, so with s_j = sum(u) * <x, p_j> from the
        subset's block of the Gram table the optimality test
        <x, p> >= |x|^2 reads s_j * sum(u) >= sum_i u_i s_i.  The corral
        stays affinely independent throughout (a point strictly below the
        current level cannot lie in the corral's affine hull), so the KKT
        systems are nonsingular and termination follows from strict norm
        decrease over finitely many corrals.
        """
        gram = [[self.gram[i][j] for j in subset] for i in subset]
        n = len(subset)
        rows = self.rows
        corral = [min(range(n), key=lambda k: (gram[k][k], rows[subset[k]]))]
        u = [1]
        while True:
            cols = zip(*(gram[i] for i in corral))
            s = [sum(map(operator.mul, u, col)) for col in cols]
            best = min(range(n), key=s.__getitem__)  # the first least pairing
            level = sum(map(operator.mul, u, map(s.__getitem__, corral)))
            if s[best] * sum(u) >= level:
                return _combination(rows, [subset[i] for i in corral], u, self.d)
            corral.append(best)
            u.append(0)
            while True:
                coeffs = _bordered_solve(gram, corral)
                if min(coeffs) >= 0:
                    # drop zero coefficients: the affine minimiser of the rest
                    # is the same point, now an interior convex combination
                    corral, u = _positive(corral, coeffs)
                    break
                # move x toward the affine minimiser y until a weight reaches
                # 0: over the common denominator sum(u) * sum(coeffs), x has
                # weights c and y has e, and the step is
                # theta = min c_i / (c_i - e_i) over e_i < 0, taken as p / q
                # by cross-multiplication
                total, den = sum(u), sum(coeffs)
                c = [w * den for w in u]
                e = [v * total for v in coeffs]
                p, q = 1, 0
                for ci, ei in zip(c, e):
                    if ei < 0 and ci * q < p * (ci - ei):
                        p, q = ci, ci - ei
                corral, u = _positive(
                    corral, [(q - p) * ci + p * ei for ci, ei in zip(c, e)]
                )

    def corral_points(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """The affine minimum-norm point of every affinely independent subset
        of at most dim of the (distinct) points whose KKT coefficients are
        all nonnegative, smaller subsets first, each size in combinations
        order; then the origin, once, when it lies in the points' hull.

        Each yield is the minimum-norm point of its subset's hull;
        conversely the minimum-norm point of any subset lies in the relative
        interior of a face, hence (Caratheodory) of such a subset or of
        dim + 1 affinely independent points.  Those span the space, so
        theirs is the origin, the minimum-norm point of some subset exactly
        when it lies in the hull: one `hull_position` stands for that tier.
        So these are exactly the minimum-norm points of all nonempty
        subsets, from O(n^dim) small solves, each one fraction-free bordered
        solve on the Gram table.
        """
        rows = self.rows
        dim = len(rows[0])
        for size in range(1, min(len(rows), dim) + 1):
            for subset in itertools.combinations(range(len(rows)), size):
                coeffs = _bordered_solve(self.gram, subset)
                if coeffs is not None and min(coeffs) >= 0:
                    yield _combination(rows, subset, coeffs, self.d)
        origin = RationalVector.zero(dim)
        if hull_position(rows, origin) is not HullPosition.OUTSIDE:
            yield (0,) * dim, 1


def min_norm_point(S: PointSet, ip: InnerProduct) -> RationalVector:
    """The unique point of conv(S) closest to the origin, by Wolfe's
    minimum-norm-point algorithm (`GramFrame.min_norm`) on a frame of the
    points with their common denominator cleared."""
    frame = GramFrame(*clear_denominators(p.entries for p in S.deduplicated()), ip)
    return _vector(*frame.min_norm(range(len(frame.rows))))


def min_norm_point_oracle(S: PointSet, ip: InnerProduct) -> RationalVector:
    """Independent test oracle for Wolfe: the least-norm corral point
    (`GramFrame.corral_points`) of a frame of the points with their common
    denominator cleared."""
    frame = GramFrame(*clear_denominators(p.entries for p in S.deduplicated()), ip)
    return min((_vector(*beta) for beta in frame.corral_points()), key=ip.norm_sq)


# ---------------------------------------------------------------------------
# Cones, regions, and 2D arrangements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """Intersection of homogeneous halfspaces through the origin."""

    halfspaces: tuple[tuple[RationalVector, bool], ...]

    def __init__(self, halfspaces: Iterable[tuple[RationalVector, bool]]):
        object.__setattr__(self, "halfspaces", tuple(halfspaces))

    @property
    def is_full_space(self) -> bool:
        return not self.halfspaces

    def contains(self, v: RationalVector) -> bool:
        for normal, strict in self.halfspaces:
            val = normal.dot(v)
            if strict and val <= 0:
                return False
            if not strict and val < 0:
                return False
        return True


def region_interior_point(
    region: Sequence[Sequence[int]], dim: int
) -> Optional[RationalVector]:
    """A rational point strictly inside the region, or None.

    The region is the open set where <normal, x> > offset for every integer
    plane (*normal, offset) of it, in dimension dim.  Maximises a margin t,
    capped at 1, with <normal, x> - t >= offset on every plane: a positive
    optimum is exactly an interior point.
    """
    if not region:
        return RationalVector.zero(dim) if dim else None
    objective = [0] * dim + [1]
    ges = [([*plane[:-1], -1], plane[-1]) for plane in region]
    ges.append(([0] * dim + [-1], -1))  # t <= 1
    ges.append(([0] * dim + [1], 0))  # t >= 0
    status, x, value = lp_maximize_free(objective, [], ges)
    if status != OPTIMAL or value is None or value <= 0:
        return None
    return RationalVector(x[:dim])


def cone_has_interior_point(cone: Cone, dim: int) -> Optional[RationalVector]:
    """A primitive integral nonzero point pairing strictly positively with
    the normals of the strict rows and nonnegatively with the others, or
    None.

    By homogeneity, strict feasibility is equivalent to feasibility of
    <normal, x> >= 1 for the strict rows.
    """
    if cone.is_full_space:
        e = [Fraction(0)] * dim
        e[0] = Fraction(1)
        return RationalVector(e)
    ges = []
    for normal, strict in cone.halfspaces:
        rhs = Fraction(1) if strict else Fraction(0)
        ges.append((list(normal.entries), rhs))
    status, x, _ = lp_maximize_free([Fraction(0)] * dim, [], ges)
    if status != OPTIMAL or x is None:
        return None
    v = RationalVector(x)
    if v.is_zero():
        return None
    return v.primitive_integral()


def primitive_line(*coeffs: int) -> tuple[int, ...]:
    """The canonical integer form of the hyperplane <normal, x> = offset
    from its coefficients (*normal, offset), the normal nonzero: divided by
    their gcd and negated where the normal's leading nonzero entry is
    negative.  In the plane, (a, b, c) is the line a*x + b*y = c."""
    g = math.gcd(*coeffs)
    if next(filter(None, coeffs)) < 0:
        g = -g
    return tuple(v // g for v in coeffs)


def primitive_normal(vectors: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The primitive normal, signed as by `primitive_line`, of the hyperplane
    spanned by n - 1 integer vectors in dimension n, or None when they are
    dependent: the kernel of the reduced rows, their last pivot D at the
    free column and minus each row's free entry at that row's pivot."""
    rows, pivots, det = integer_row_reduce(vectors)
    if len(pivots) < len(vectors):
        return None
    normal = [0] * (len(vectors) + 1)
    (free,) = set(range(len(normal))).difference(pivots)
    normal[free] = det
    for row, pc in zip(rows, pivots):
        normal[pc] = -row[free]
    return primitive_line(*normal)


@dataclass(frozen=True)
class Line2D:
    """The line a*x + b*y = c, held as its canonical integer triple
    (`primitive_line`: primitive, the leading nonzero entry of (a, b)
    positive); the constructor takes any nonzero integer multiple of it."""

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int):
        if not (a or b):
            raise ValueError("line normal must be nonzero")
        for name, v in zip("abc", primitive_line(a, b, c)):
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Arrangement2D:
    """Distinct lines in first-seen order, and an open convex region: the
    points with a*x + b*y > c for every integer plane (a, b, c) of
    `region`, of which any positive multiple means the same."""

    lines: tuple[Line2D, ...]
    region: tuple[tuple[int, int, int], ...]

    def __init__(
        self, lines: Iterable[Line2D], region: Iterable[tuple[int, int, int]]
    ):
        object.__setattr__(self, "lines", tuple(dict.fromkeys(lines)))
        object.__setattr__(self, "region", tuple(region))


class Face:
    """One face of the decomposition: a certified sample point, its sign
    vector over the lines and, for a cell, the index of its line.

    The sample is held as the kernel gives it: integers
    `point` = (*numerators, den), den > 0, whose `RationalVector` is built
    when `sample` is first read.  Faces compare by kind, sample value, signs
    and line index.
    """

    __slots__ = ("kind", "signs", "line_index", "point", "_sample")

    def __init__(
        self,
        kind: str,  # "chamber" | "cell" | "vertex"
        point: tuple[int, ...],
        signs: tuple[int, ...],
        line_index: Optional[int] = None,
    ):
        self.kind = kind
        self.point = point
        self.signs = signs
        self.line_index = line_index
        self._sample: Optional[RationalVector] = None

    @property
    def sample(self) -> RationalVector:
        if self._sample is None:
            self._sample = _vector(self.point[:-1], self.point[-1])
        return self._sample

    def _key(self) -> tuple:
        return self.kind, self.sample, self.signs, self.line_index

    def __eq__(self, other: object) -> bool:
        if type(other) is not Face:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "Face({!r}, {!r}, {!r}, {!r})".format(*self._key())


def faces_by_sample(faces: Iterable[Face]) -> list[Face]:
    """The kernel's faces sorted by sample, on exact integer keys: the
    numerators of each `point` scaled to one common denominator, the lcm of
    the faces' denominators."""
    faces = list(faces)
    lcm = math.lcm(*(f.point[2] for f in faces))

    def key(face: Face) -> tuple[int, int]:
        x, y, den = face.point
        return x * (lcm // den), y * (lcm // den)

    return sorted(faces, key=key)


@dataclass(frozen=True)
class Decomposition:
    lines: tuple[Line2D, ...]
    faces: tuple[Face, ...]

    def chambers(self) -> list[Face]:
        return [f for f in self.faces if f.kind == "chamber"]

    def cells(self) -> list[Face]:
        return [f for f in self.faces if f.kind == "cell"]

    def vertices(self) -> list[Face]:
        return [f for f in self.faces if f.kind == "vertex"]


def chamber_decomposition_2d(arr: Arrangement2D) -> Decomposition:
    """Complete face list of a line arrangement inside an open convex region.

    Faces partition the region: open 2-cells (chambers), open 1-cells on the
    lines (cells/walls), and vertices.  Every face carries an interior
    rational sample point and its sign vector over the arrangement lines.
    Vertices come first, then the cells line by line in ascending line
    index, then the chambers.

    Each line is parametrised as base + t * (-b, a) from its axis
    intercept.  The region's halfspaces clip it in closed form to an open
    interval of t; the line is active when that interval is nonempty.  The
    other lines cut it, and a cut by a later line is a vertex strictly inside
    the region.  Each cell is sampled at the midpoint of its interval (a cut
    +/- 1 where unbounded).  Its chambers are sampled by stepping off the
    line along +/- its normal by half the distance to the nearest crossing of
    another line or the region's boundary.  That step crosses nothing, so a
    chamber's signs are its cell's with the line's zero set to the side.  An
    LP runs only when no line is active, to find the region's one chamber or
    that it is empty.

    All of it is integer arithmetic on the planes (n_j, o_j): the lines'
    triples, then the region's.  For the line with normal n = (a, b), offset
    c and direction d = (-b, a), the base is (c/m, 0) with m = a, or
    (0, c/m) with m = b when a = 0; m > 0 as the line is canonical.  Per
    plane j the integers
        E_j = m * (<n_j, base> - o_j),  S_j = <n_j, d>,  R_j = <n_j, n>
    give <n_j, x> - o_j = w_j / (m * Q) at x = base + (P/Q) * d, with
    w_j = E_j * Q + m * P * S_j.  So plane j meets the line at
    t = -E_j / (m * S_j), and its sign at a sample is the sign of w_j.  A
    step s along side * n changes w_j / (m * Q) by s * side * R_j, so the
    nearest crossing is at the least |w_j| / (m * Q * |R_j|) over the planes
    with w_j * side * R_j < 0.

    Each line works on one integer scale.  With L the lcm of the nonzero
    |S_j| over all planes, plane j crosses at t = T_j / (m * L) with the
    integer T_j = -E_j * (L / S_j), so the interval's ends and the crossings
    are compared, deduped and sorted as integers.  Every sample lies at
    t = P / Q with the one Q = 2 * m * L: a vertex at P = 2 * T_j, a cell at
    P = T_lo + T_hi, at P = 2 * T_hi - Q or 2 * T_lo + Q (t one past its cut)
    where unbounded on one side, and at P = 0 on a line with no ends.  Q
    scales the reduced denominator by a positive integer, which changes no
    sign of w_j and no ratio between them.  Each face keeps its sample as
    those integers (x, y, den), and the chambers are sorted on them scaled to
    one common denominator (`faces_by_sample`), so no `Fraction` is built
    here: a face builds its `RationalVector` when a caller reads its
    `sample`.
    """
    lines = arr.lines
    n_lines = len(lines)
    # a positive multiple of a plane keeps its signs and their ratios
    planes = [(ln.a, ln.b, ln.c) for ln in lines] + list(arr.region)
    vertices: list[Face] = []
    cells: list[Face] = []
    chambers: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for idx in range(n_lines):
        a, b, c = planes[idx]
        m = a or b  # positive: a canonical line leads with a positive entry
        E = [(p if a else q) * c - m * o for p, q, o in planes]
        S = [q * a - p * b for p, q, _ in planes]
        R = [p * a + q * b for p, q, _ in planes]
        bounds = list(zip(E[n_lines:], S[n_lines:]))
        if any(s == 0 and e <= 0 for e, s in bounds):
            continue  # a parallel region boundary the line is not inside
        L = math.lcm(*filter(None, S))
        Q = 2 * m * L
        lo = max((-e * (L // s) for e, s in bounds if s > 0), default=None)
        hi = min((-e * (L // s) for e, s in bounds if s < 0), default=None)
        if lo is not None and hi is not None and lo >= hi:
            continue
        # the sample base + (P/Q) * d is (bx - b * P, by + a * P) / Q
        bx, by = (2 * L * c, 0) if a else (0, 2 * L * c)
        crossings: set[int] = set()
        for jdx in range(n_lines):
            if jdx == idx or S[jdx] == 0:
                continue
            t = -E[jdx] * (L // S[jdx])
            if (lo is not None and t <= lo) or (hi is not None and t >= hi):
                continue
            if t in crossings:
                continue
            crossings.add(t)
            # a cut first met at a later line is a vertex on no earlier
            # line, so each vertex is emitted once, in (idx, partner) order
            if jdx > idx:
                mP = 2 * m * t
                signs = _signs(e * Q + mP * s for e, s in zip(E[:n_lines], S))
                sample = (bx - 2 * b * t, by + 2 * a * t, Q)
                vertices.append(Face("vertex", sample, signs))
        edges: list[Optional[int]] = [lo, *sorted(crossings), hi]
        for seg_lo, seg_hi in zip(edges, edges[1:]):
            if seg_lo is None:
                P = 0 if seg_hi is None else 2 * seg_hi - Q
            else:
                P = 2 * seg_lo + Q if seg_hi is None else seg_lo + seg_hi
            mP = m * P
            w = [e * Q + mP * s for e, s in zip(E, S)]
            signs = _signs(w[:n_lines])
            x, y = bx - b * P, by + a * P
            cells.append(Face("cell", (x, y, Q), signs, idx))
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
                # a step of side * (v / (Q * k)) * n: v / (2 * m * Q * r) or 1
                v, k = (best[0], 2 * m * best[1]) if best else (Q, 1)
                dx, dy = side * a * v, side * b * v
                chambers[sv] = (x * k + dx, y * k + dy, Q * k)
    if not cells:
        sample = region_interior_point(arr.region, 2)
        if sample is None:
            raise EmptyRegion("region has no interior point")
        ((x, y),), den = clear_denominators([sample.entries])
        sv = _signs(a * x + b * y - c * den for a, b, c in planes[:n_lines])
        return Decomposition(lines, (Face("chamber", (x, y, den), sv),))
    ordered = faces_by_sample(Face("chamber", p, sv) for sv, p in chambers.items())
    return Decomposition(lines, tuple(vertices + cells + ordered))


def _signs(values: Iterable[int]) -> tuple[int, ...]:
    return tuple((v > 0) - (v < 0) for v in values)
