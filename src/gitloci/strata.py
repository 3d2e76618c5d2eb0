"""Stratification of the unstable locus by minimum-norm destabilisers.

Every support determines beta = the closest point to the origin of its
twisted weight hull; the strata are indexed by the distinct values.  For a
torus all of weight space counts as the positive chamber, so the index set
has no Weyl-group restriction.

The geometry of a stratum lives on the affine hyperplane through beta
perpendicular to it (perpendicular in the sense of the action's inner
product): supports whose twisted weights all pair >= |beta|^2 with beta, at
least one exactly, retract onto the exact-pairing face by flowing along the
associated one-parameter subgroup.

That pairing is the functional <alpha, G beta>, and lambda_beta is its
primitive integral multiple.  An index is one `stability.BetaIndex`, which
holds beta, |beta|^2 and lambda_beta, built once from Wolfe's integers
(`destabilising_beta` returns a support's own).  Every predicate takes that
record and reads the support's levels of its lambda_beta
(`TorusAction.levels`): a support is in Y when its first levels sum to
<lambda_beta, beta + chi>, in Z when it has one level per factor as well,
and its retraction keeps each factor's first level.

`verify_stratification` decides each property for every valid support
without forming a support's weights or comparing all pairs.  beta is the
minimum-norm point of a support's weight hull, the Minkowski sum of its
factors' hulls, so Wolfe runs once per distinct hull, on vertices summed
from per-factor tables of each coordinate subset's hull vertices.  Those
vertices are indexed in one `GramFrame` of twisted weights, whose integer
Gram table is built once per call; Wolfe returns each beta as reduced
integer numerators over one denominator, which key the betas, and each
distinct beta's `BetaIndex` is built once from them
(`BetaIndex.from_integers`).  The closure order is checked on immediate
sub-supports, since every valid sub-support is reached from its support
through valid supports one coordinate at a time: norm-squares are ranked as
integers in support order, where each immediate sub-support sits at a fixed
offset.  All pairs are compared only to list violations once an immediate
pair fails.  A stratum's Y-members are enumerated rather than searched for:
the least Segre value is a sum of per-factor minima, so a depth-first search
over the factors, cut only where the remaining factors' minima cannot reach
the level, yields every member by its flat position in support order, with
its retraction's.  Z-semistability is then one test per retraction hull and
beta, on its vertices.
"""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .action import SupportPoint, TorusAction
from .polytope import (
    GramFrame,
    HullPosition,
    hull_position,
    hull_vertices,
)
from .stability import BetaIndex, TorusStatus, destabilising_beta, torus_status


class NotInY(ValueError):
    pass


class NotInZ(ValueError):
    pass


def beta_index_set(a: TorusAction) -> list[BetaIndex]:
    """All distinct minimum-norm points over nonempty subsets of the distinct
    twisted weights (every subset is the state set of some ambient point),
    sorted by entries.

    These are the corral points of the distinct twisted weights: the affine
    minimum-norm points of affinely independent subsets of at most rank
    weights that lie in their subset's hull, O(n^rank) small solves, and
    the origin when one hull test puts it in the hull of all the weights.
    They come from one `GramFrame` of the weights as reduced integer pairs,
    so a beta is deduplicated without building it.
    """
    frame = GramFrame.shifted(a.support_weights(), a.twist, a.ip)
    found = dict.fromkeys(frame.corral_points())
    betas = [BetaIndex.from_integers(a, num, den) for num, den in found]
    return sorted(betas, key=lambda bi: bi.beta.entries)


@dataclass(frozen=True)
class StratumLabel:
    beta: BetaIndex
    in_Z: bool
    in_Y: bool
    in_Yss: bool

    def __post_init__(self):
        if self.in_Z and not self.in_Y:
            raise ValueError("Z membership implies Y membership")
        if self.in_Yss and not self.in_Y:
            raise ValueError("Yss membership implies Y membership")


def _y_level(a: TorusAction, b: BetaIndex) -> Fraction:
    """The least Segre value of a Y-member of a nonzero index:
    <lambda_beta, beta + chi>, a positive multiple of
    |beta|^2 + <chi, beta>."""
    return b.lambda_beta.pairing(b.beta + a.twist)


def in_Y(a: TorusAction, x: SupportPoint, b: BetaIndex) -> bool:
    """All support weights on the far side of the perpendicular hyperplane
    through beta, at least one exactly on it; equivalently the minimal
    pairing over the support equals |beta|^2."""
    if b.lambda_beta is None:
        return torus_status(a, x) is not TorusStatus.UNSTABLE
    levels = a.levels(b.lambda_beta.cochar, x)
    return sum(f[0][0] for f in levels) == _y_level(a, b)


def in_Z(a: TorusAction, x: SupportPoint, b: BetaIndex) -> bool:
    """All support weights exactly on the perpendicular hyperplane: the
    minimal pairing is |beta|^2 and every support coordinate attains its
    factor's minimum."""
    if b.lambda_beta is None:
        # degenerate reading: every twisted support weight is zero
        return all(w == a.twist.entries for w in a.support_weights(x))
    levels = a.levels(b.lambda_beta.cochar, x)
    least = sum(f[0][0] for f in levels)
    return all(len(f) == 1 for f in levels) and least == _y_level(a, b)


def stratum_of(a: TorusAction, x: SupportPoint) -> StratumLabel:
    """The stratum of a support, with its hyperplane-membership flags.

    The index is the support's own (`destabilising_beta`), so semistable
    supports land in the open stratum (beta = 0) and unstable ones satisfy
    the Y-membership conditions by the supporting-hyperplane property of the
    closest point.  Both predicates read that one index's lambda_beta.
    """
    bi = destabilising_beta(a, x)
    in_y = bi.lambda_beta is None or in_Y(a, x, bi)
    return StratumLabel(bi, in_Z(a, x, bi), in_y, True)


def p_beta(a: TorusAction, x: SupportPoint, b: BetaIndex) -> SupportPoint:
    """Retraction onto the perpendicular face: the limit of the flow along
    the associated subgroup keeps, per factor, the support coordinates of
    minimal pairing with beta.  For a Y-member the minimal Segre pairing is
    exactly |beta|^2, so this is the exact-pairing face (the twist shifts
    all Segre pairings equally and never moves the argmin)."""
    if not in_Y(a, x, b):
        raise NotInY("support is not in the Y-stratum of this index")
    if b.lambda_beta is None:
        return x
    levels = a.levels(b.lambda_beta.cochar, x)
    return SupportPoint(itertools.chain(*(f[0][1] for f in levels)))


def z_ss_check(a: TorusAction, x: SupportPoint, b: BetaIndex) -> bool:
    """Semistability on the perpendicular stratum core: after shifting by
    beta, the support must contain beta in its twisted weight hull, that is
    beta + chi in its untwisted one."""
    if not in_Z(a, x, b):
        raise NotInZ("support is not in the Z-stratum of this index")
    pos = hull_position(a.support_weights(x), b.beta + a.twist)
    return pos is not HullPosition.OUTSIDE


@dataclass(frozen=True)
class StratificationReport:
    betas: tuple[BetaIndex, ...]
    stratum_sizes: dict[tuple[Fraction, ...], int]
    support_beta: dict[frozenset[int], tuple[Fraction, ...]]
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_stratification(a: TorusAction) -> StratificationReport:
    """Exhaustive check of the stratification's combinatorial properties.

    Over all valid supports: (i) each support receives exactly one beta
    (disjoint cover including the open stratum); (ii) closure order: the
    beta of any valid sub-support has norm-square >= that of the support
    (support shrinking is the combinatorial closure of coordinate
    vanishing); (iii) the Y-semistable locus is the retraction preimage of
    the Z-semistable one, pointwise.  Violations are reported as data.

    (i) runs Wolfe once per distinct weight hull, on the hull's vertices
    from `_support_hulls`: beta is the hull's minimum-norm point, so no
    support's full sumset is formed.  The vertices of all the hulls make one
    `GramFrame`, one integer Gram table, and each hull goes to Wolfe as the
    sorted indices of its vertices there.  Each beta comes back as reduced
    integers, is numbered by them, and gets one `BetaIndex`; the stratum
    sizes and the support labels are gathered by those numbers.  (ii)
    compares each support with its immediate sub-supports, those with one
    coordinate removed from a factor that keeps one: a valid sub-support is
    reached from its support through valid supports one coordinate at a
    time, and a norm-square lower at the end of that chain is lower at some
    step.  `_closure_order_holds` makes these comparisons on integer norm
    ranks by flat index.  Only when an immediate pair fails are all pairs
    compared, which lists every violation.  (iii) takes the flat indices of
    each beta's Y-members and of their retractions from `_y_members`,
    without testing every support, and reads a member's beta from its hull
    and the retraction's Z-semistability from one hull test per retraction
    hull and beta.
    """
    subsets = a.factor_subsets()
    sets = list(a.support_sets())
    hulls, vertices = _support_hulls(a, subsets)
    distinct = list(dict.fromkeys(hulls))
    # one frame of the weights that are vertices of some support's hull;
    # beta depends on a support only through its hull, so Wolfe runs once
    # per distinct hull, and each distinct beta is numbered once
    weights = sorted({w for h in distinct for w in vertices[h]})
    index = {w: i for i, w in enumerate(weights)}
    frame = GramFrame.shifted(weights, a.twist, a.ip)
    numbers: dict[tuple[tuple[int, ...], int], int] = {}
    hull_beta = {
        h: numbers.setdefault(
            frame.min_norm(sorted(map(index.__getitem__, vertices[h]))),
            len(numbers),
        )
        for h in distinct
    }
    betas = [BetaIndex.from_integers(a, *k) for k in numbers]
    entries = [bi.beta.entries for bi in betas]
    order = sorted(range(len(betas)), key=entries.__getitem__)
    rank = {v: r for r, v in enumerate(sorted({bi.norm_sq for bi in betas}))}
    beta_rank = [rank[bi.norm_sq] for bi in betas]
    norms = [beta_rank[hull_beta[h]] for h in hulls]
    counts = [0] * len(betas)
    for h, count in collections.Counter(hulls).items():
        counts[hull_beta[h]] += count
    sizes = {entries[j]: counts[j] for j in order}
    violations: list[dict] = []

    # (ii) closure order under sub-supports
    if not _closure_order_holds(subsets, norms):
        by_set = dict(zip(sets, norms))
        for s, base in zip(sets, norms):
            for sub in a.support_sets(SupportPoint(s)):
                if by_set[sub] < base:
                    violations.append(
                        {
                            "kind": "closure-order",
                            "support": sorted(s),
                            "sub_support": sorted(sub),
                        }
                    )

    # (iii) Yss = p^{-1}(Zss) for every nonzero index
    for j in order:
        bi = betas[j]
        if bi.lambda_beta is None:
            continue
        untwisted = bi.beta + a.twist  # beta against the untwisted weights
        level = _y_level(a, bi)
        if level.denominator != 1:
            continue  # Segre values are integers: no Y-members
        values = a.coordinate_values(bi.lambda_beta.cochar)
        # Zss membership per retraction's hull number, decided once per hull
        z_ss: dict[int, bool] = {}
        for idx, ridx in _y_members(subsets, values, int(level)):
            h = hulls[ridx]
            if h not in z_ss:
                pos = hull_position(vertices[h], untwisted)
                z_ss[h] = pos is not HullPosition.OUTSIDE
            # its own beta is this one (one number per beta): lambda_beta is
            # adapted to it
            if (hull_beta[hulls[idx]] == j) != z_ss[h]:
                violations.append(
                    {
                        "kind": "retraction-semistability",
                        "support": sorted(sets[idx]),
                        "beta": [str(v) for v in entries[j]],
                    }
                )

    labels = {s: entries[hull_beta[h]] for s, h in zip(sets, hulls)}
    ordered = tuple(betas[j] for j in order)
    return StratificationReport(ordered, sizes, labels, tuple(violations))


_Points = tuple[tuple[int, ...], ...]


def _support_hulls(
    a: TorusAction, subsets: list[list[tuple[int, ...]]]
) -> tuple[list[int], list[_Points]]:
    """Every support's untwisted weight hull, as a number in `support_sets`
    order, and the vertices of each numbered hull (numbers also go to the
    factors' hulls and to partial sums).

    A support's hull is the Minkowski sum of its factors' hulls, and every
    vertex of that sum is a sum of the factors' vertices.  So each factor's
    subsets are tabled by the vertices of their weights (`hull_vertices`),
    and a support's vertices are formed one factor at a time, pruned after
    each step.  Each step sums every row of the factors before it, so a
    prefix is summed once for all of the factors after it, and a sum is
    formed once per distinct pair of hulls.
    """
    numbers: dict[_Points, int] = {}
    vertices: list[_Points] = []

    def number(pts: _Points) -> int:
        if pts not in numbers:
            numbers[pts] = len(vertices)
            vertices.append(pts)
        return numbers[pts]

    sums: dict[tuple[int, int], int] = {}

    def add(p: int, q: int) -> int:
        if (p, q) not in sums:
            pts = {
                tuple(map(operator.add, x, y)) for x in vertices[p] for y in vertices[q]
            }
            sums[p, q] = number(hull_vertices(pts, a.rank))
        return sums[p, q]

    tables = [
        [number(hull_vertices({a.weights[i] for i in s}, a.rank)) for s in factor]
        for factor in subsets
    ]
    rows = tables[0]
    for table in tables[1:]:
        rows = [add(p, q) for p in rows for q in table]
    return rows, vertices


def _closure_order_holds(
    subsets: list[list[tuple[int, ...]]], norms: list[int]
) -> bool:
    """Whether no support's norm rank exceeds an immediate sub-support's, for
    ranks given in `support_sets` order.

    A support's flat index there is sum_k j_k * stride_k, j_k the index of
    its subset in factor k's `factor_subsets` and stride_k the product of the
    later factors' subset counts.  Removing one coordinate from subset j
    gives an earlier subset c of the same factor, so the immediate
    sub-support sits at the support's index plus (c - j) * stride_k; these
    offsets are tabled per factor and subset.
    """
    steps = []
    stride = 1
    for factor in reversed(subsets):
        index = {s: j for j, s in enumerate(factor)}
        # a single coordinate is never removed: the factor must keep one
        steps.append(
            [
                tuple((index[s[:m] + s[m + 1 :]] - j) * stride for m in range(len(s)))
                if len(s) > 1
                else ()
                for j, s in enumerate(factor)
            ]
        )
        stride *= len(factor)
    for idx, parts in enumerate(itertools.product(*reversed(steps))):
        base = norms[idx]
        for part in parts:
            for off in part:
                if norms[idx + off] < base:
                    return False
    return True


def _y_members(
    subsets: list[list[tuple[int, ...]]], values: Sequence[int], level: int
) -> Iterator[tuple[int, int]]:
    """The supports whose least Segre value is `level`, each with its
    retraction, as flat indices in `support_sets` order, in that order.

    A support's least Segre value is the sum of its per-factor minima, so
    each factor's subsets are tabled with their least value and the flat
    offsets (as in `_closure_order_holds`) of the subset and its argmin,
    and the factors are searched depth-first, summing offsets.  A partial
    sum is dropped once the remaining factors' least or greatest minima
    (their least and greatest coordinate values) cannot bring it to the
    level, which never drops a member.
    """
    # from the last factor: its rows, and the sums of minima from it on
    tables, least, greatest, stride = [], [0], [0], 1
    for factor in reversed(subsets):
        index = {s: j for j, s in enumerate(factor)}
        rows = []
        for j, s in enumerate(factor):
            lo = min(values[i] for i in s)
            arg = tuple(i for i in s if values[i] == lo)
            rows.append((lo, j * stride, index[arg] * stride))
        tables.append(rows)
        least.append(least[-1] + min(r[0] for r in rows))
        greatest.append(greatest[-1] + max(r[0] for r in rows))
        stride *= len(factor)
    for seq in (tables, least, greatest):
        seq.reverse()

    def walk(k, total, idx, ridx):
        if k == len(tables):
            yield idx, ridx
            return
        for lo, j, r in tables[k]:
            rest = level - total - lo
            if least[k + 1] <= rest <= greatest[k + 1]:
                yield from walk(k + 1, total + lo, idx + j, ridx + r)

    return walk(0, 0, 0, 0)
