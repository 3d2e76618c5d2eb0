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
primitive integral multiple.  So every hyperplane test reads lambda_beta's
value on each coordinate through the action's per-factor kernel: a support
is in Y when its least Segre value is <lambda_beta, beta + chi>, and its
retraction keeps each factor's argmin.

`verify_stratification` decides each property for every valid support
without comparing all pairs.  The closure order is checked on immediate
sub-supports, since every valid sub-support is reached from its support
through valid supports one coordinate at a time; all pairs are compared
only to list violations once an immediate pair fails.  A stratum's
Y-members are enumerated rather than searched for: the least Segre value is
a sum of per-factor minima, so a depth-first search over the factors, cut
only where the remaining factors' minima cannot reach the level, yields
every member and no other support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .action import SupportPoint, TorusAction
from .polytope import HullPosition, corral_points, hull_min_norm, hull_position
from .qpoly import RationalVector
from .stability import OneParamSubgroup, TorusStatus, torus_status


class NotInY(ValueError):
    pass


class NotInZ(ValueError):
    pass


@dataclass(frozen=True)
class BetaIndex:
    """One stratum index: the minimum-norm point of some weight subset."""

    beta: RationalVector
    norm_sq: Fraction
    lambda_beta: Optional[OneParamSubgroup]

    @staticmethod
    def from_beta(a: TorusAction, beta: RationalVector) -> "BetaIndex":
        lam = None if beta.is_zero() else OneParamSubgroup.dual_to(beta, a.ip)
        return BetaIndex(beta, a.ip.norm_sq(beta), lam)


def beta_index_set(a: TorusAction) -> list[BetaIndex]:
    """All distinct minimum-norm points over nonempty subsets of the distinct
    twisted weights (every subset is the state set of some ambient point),
    sorted by entries.

    These are the corral points of the distinct twisted weights: the affine
    minimum-norm points of affinely independent subsets of at most rank + 1
    weights that lie in their subset's hull, O(n^(rank+1)) small solves.
    """
    weights = a.distinct_segre_weights(twisted=True)
    found = {beta.entries: beta for beta in corral_points(weights, a.ip)}
    return [BetaIndex.from_beta(a, found[k]) for k in sorted(found)]


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


def _functional(
    a: TorusAction, beta: RationalVector
) -> tuple[list[int], Fraction]:
    """lambda_beta's value on each coordinate, and the least Segre value of
    a Y-member: <lambda_beta, beta + chi>, a positive multiple of
    |beta|^2 + <chi, beta>."""
    lam = OneParamSubgroup.dual_to(beta, a.ip)
    return a.coordinate_values(lam.cochar), lam.pairing(beta + a.twist)


def in_Y(a: TorusAction, x: SupportPoint, beta: RationalVector) -> bool:
    """All support weights on the far side of the perpendicular hyperplane
    through beta, at least one exactly on it; equivalently the minimal
    pairing over the support equals |beta|^2."""
    if beta.is_zero():
        return torus_status(a, x) is not TorusStatus.UNSTABLE
    values, level = _functional(a, beta)
    return a.segre_min(values, x) == level


def in_Z(a: TorusAction, x: SupportPoint, beta: RationalVector) -> bool:
    """All support weights exactly on the perpendicular hyperplane: the
    minimal pairing is |beta|^2 and every support coordinate attains its
    factor's minimum."""
    if beta.is_zero():
        # degenerate reading: every twisted support weight is zero
        return all(w == a.twist.entries for w in a.support_weights(x))
    values, level = _functional(a, beta)
    return (
        a.segre_min(values, x) == level
        and frozenset().union(*a.segre_argmin(values, x)) == x.support
    )


def stratum_of(a: TorusAction, x: SupportPoint) -> StratumLabel:
    """The stratum of a support, with its hyperplane-membership flags.

    beta is the support's own minimum-norm destabiliser, so semistable
    supports land in the open stratum (beta = 0) and unstable ones satisfy
    the Y-membership conditions by the supporting-hyperplane property of the
    closest point.
    """
    beta = hull_min_norm(a.support_weights(x), a.twist, a.ip)
    bi = BetaIndex.from_beta(a, beta)
    if beta.is_zero():
        return StratumLabel(bi, in_Z(a, x, beta), True, True)
    return StratumLabel(bi, in_Z(a, x, beta), in_Y(a, x, beta), True)


def p_beta(a: TorusAction, x: SupportPoint, b: BetaIndex) -> SupportPoint:
    """Retraction onto the perpendicular face: the limit of the flow along
    the associated subgroup keeps, per factor, the support coordinates of
    minimal pairing with beta.  For a Y-member the minimal Segre pairing is
    exactly |beta|^2, so this is the exact-pairing face (the twist shifts
    all Segre pairings equally and never moves the argmin)."""
    if not in_Y(a, x, b.beta):
        raise NotInY("support is not in the Y-stratum of this index")
    if b.beta.is_zero():
        return x
    values, _ = _functional(a, b.beta)
    return SupportPoint(itertools.chain.from_iterable(a.segre_argmin(values, x)))


def z_ss_check(a: TorusAction, x: SupportPoint, b: BetaIndex) -> bool:
    """Semistability on the perpendicular stratum core: after shifting by
    beta, the support must contain beta in its twisted weight hull, that is
    beta + chi in its untwisted one."""
    if not in_Z(a, x, b.beta):
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

    (ii) compares each support with its immediate sub-supports, those with
    one coordinate removed from a factor that keeps one: a valid sub-support
    is reached from its support through valid supports one coordinate at a
    time, and a norm-square lower at the end of that chain is lower at some
    step.  Only when an immediate pair fails are all pairs compared, which
    lists every violation.  (iii) takes each beta's Y-members from
    `_y_members`, which yields all of them in support order without testing
    every support, and runs one hull test per distinct retracted weight set.
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
            beta = hull_min_norm(weights, a.twist, a.ip)
            by_weights[weights] = beta, a.ip.norm_sq(beta)
        beta, norms[sp.support] = by_weights[weights]
        by_support[sp.support] = beta
        key = beta.entries
        sizes[key] = sizes.get(key, 0) + 1
        if key not in betas:
            betas[key] = BetaIndex.from_beta(a, beta)

    # (ii) closure order under sub-supports
    if any(
        norms[sp.support - {i}] < norms[sp.support]
        for sp in supports
        for part in a.per_factor_support(sp)
        if len(part) > 1
        for i in part
    ):
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
    subsets = a.factor_subsets()
    for key, bi in sorted(betas.items()):
        if bi.beta.is_zero():
            continue
        values, level = _functional(a, bi.beta)
        if level.denominator != 1:
            continue  # Segre values are integers: no Y-members
        untwisted = bi.beta + a.twist  # beta against the untwisted weights
        # Zss membership per retracted weight set, read once per retraction
        by_weights_ss: dict[tuple[tuple[int, ...], ...], bool] = {}
        by_retraction: dict[tuple[int, ...], bool] = {}
        for support, retracted in _y_members(subsets, values, int(level)):
            if retracted not in by_retraction:
                weights = a.support_weights(SupportPoint(retracted))
                if weights not in by_weights_ss:
                    pos = hull_position(weights, untwisted)
                    by_weights_ss[weights] = pos is not HullPosition.OUTSIDE
                by_retraction[retracted] = by_weights_ss[weights]
            lhs = by_support[support] == bi.beta  # lambda_beta adapted to it
            if lhs != by_retraction[retracted]:
                violations.append(
                    {
                        "kind": "retraction-semistability",
                        "support": sorted(support),
                        "beta": [str(v) for v in bi.beta.entries],
                    }
                )

    ordered = [betas[k] for k in sorted(betas)]
    labels = {s: beta.entries for s, beta in by_support.items()}
    return StratificationReport(tuple(ordered), sizes, labels, tuple(violations))


def _y_members(
    subsets: list[list[tuple[int, ...]]], values: Sequence[int], level: int
) -> Iterator[tuple[frozenset[int], tuple[int, ...]]]:
    """The supports whose least Segre value is `level`, each with its
    retraction's coordinates, in `support_sets` order.

    A support's least Segre value is the sum of its per-factor minima, so
    each factor's subsets are tabled with their least value and argmin, and
    the factors are searched depth-first in `factor_subsets` order.  A
    partial sum is dropped once the remaining factors' least or greatest
    minima (their least and greatest coordinate values) cannot bring it to
    the level, which never drops a member.
    """
    tables = []
    for factor in subsets:
        rows = []
        for s in factor:
            lo = min(values[i] for i in s)
            rows.append((lo, s, tuple(i for i in s if values[i] == lo)))
        tables.append(rows)
    # the least and greatest sums of minima over the factors from k on
    least, greatest = [0], [0]
    for rows in reversed(tables):
        least.append(least[-1] + min(r[0] for r in rows))
        greatest.append(greatest[-1] + max(r[0] for r in rows))
    least.reverse()
    greatest.reverse()

    def walk(k, total, support, retracted):
        if k == len(tables):
            yield frozenset(support), retracted
            return
        for lo, s, arg in tables[k]:
            rest = level - total - lo
            if least[k + 1] <= rest <= greatest[k + 1]:
                yield from walk(k + 1, total + lo, support + s, retracted + arg)

    return walk(0, 0, (), ())
