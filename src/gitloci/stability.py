"""Hilbert-Mumford machinery for linearised torus actions.

A one-parameter subgroup rho is a cocharacter, held as an integer tuple and
paired with the integer weights by the dot product; twists, betas and
samples stay rational.  mu(x, rho) is the maximum of the negated rho-weights
over the nonzero coordinates of x, computed after shifting by the character
twist; its normalisation M = mu/|rho| is kept exact by comparing the
rational key sign(mu) mu^2/|rho|^2 instead of taking square roots.

Instability is measured by the norm of the minimum-norm point beta of the
support's twisted weight hull (a nonnegative number).  The associated
one-parameter subgroup lambda_beta is the primitive integral multiple of
G beta, the form dual of beta (G the inner product's Gram matrix): it pairs
with weights as <., beta> does, up to a positive factor, so its least
weight on the support is attained on beta's face and mu(x, lambda_beta) < 0.
Under the identity form G beta = beta.  A `BetaIndex` holds beta, |beta|^2
and lambda_beta, built once from Wolfe's reduced integers; it is what
`destabilising_beta` returns for a support and what every stratum predicate
reads.

A support's torus status is its weight hull's position against the twist:
`torus_status` places one hull, and `support_positions` every support at
once, from per-factor tables of the hulls' support functions.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .action import (
    ExplicitPoint,
    GroupSpec,
    SupportPoint,
    TorusAction,
    generic_support,
    integer_tuple,
    orbit_point,
)
from .polytope import (
    Arrangement2D,
    Cone,
    EmptyRegion,
    Face,
    GramFrame,
    HullPosition,
    Line2D,
    chamber_decomposition_2d,
    cone_has_interior_point,
    hull_position,
    primitive_line,
    primitive_normal,
)
from .qpoly import (
    BiPoly,
    CZStatus,
    RationalVector,
    analyze_common_zeros,
    clear_denominators,
    common_zero_avoiding,
)


class EmptyCone(ValueError):
    pass


class NoAdaptedTwist(ValueError):
    pass


class RankUnsupported(ValueError):
    pass


@dataclass(frozen=True)
class OneParamSubgroup:
    """A nonzero cocharacter, an integer tuple, kept as given."""

    cochar: tuple[int, ...]

    def __init__(self, cochar: RationalVector | Sequence[int]):
        cochar = integer_tuple(cochar)
        if not any(cochar):
            raise ValueError("a one-parameter subgroup must be nonzero")
        object.__setattr__(self, "cochar", cochar)

    @staticmethod
    def from_vector(v: RationalVector) -> "OneParamSubgroup":
        """The smallest integral positive multiple of a rational direction."""
        return OneParamSubgroup(v.primitive_integral())

    def pairing(self, w: Iterable[Fraction | int]) -> Fraction:
        """<cochar, w> for a rational vector w of the same dimension."""
        return sum((c * e for c, e in zip(self.cochar, w, strict=True)), Fraction(0))


@dataclass(frozen=True)
class BetaIndex:
    """One stratum index: a minimum-norm point beta of twisted weights,
    |beta|^2, and lambda_beta, the smallest integral positive multiple of
    G beta (None at beta = 0), so that <lambda_beta, alpha> is a positive
    multiple of <alpha, beta>."""

    beta: RationalVector
    norm_sq: Fraction
    lambda_beta: Optional[OneParamSubgroup]

    @staticmethod
    def from_integers(
        a: TorusAction, num: Sequence[int], den: int
    ) -> "BetaIndex":
        """The index of beta = num / den, den > 0: lambda_beta is the
        primitive G num, |beta|^2 is num . G num / den^2, and only the
        reported beta is made of Fractions."""
        gn = [sum(map(operator.mul, row, num)) for row in a.ip.gram]
        g = math.gcd(*gn)  # zero exactly for beta = 0: G is positive definite
        lam = OneParamSubgroup([v // g for v in gn]) if g else None
        norm_sq = Fraction(sum(map(operator.mul, num, gn)), den * den)
        return BetaIndex(RationalVector(Fraction(v, den) for v in num), norm_sq, lam)


@dataclass(frozen=True, order=True)
class HMValue:
    """mu / sqrt(norm_sq), compared without irrational arithmetic: by the
    exact key sign(mu) * mu^2 / norm_sq, which is monotone in mu / |rho|."""

    key: Fraction
    mu: Fraction = field(compare=False)
    norm_sq: Fraction = field(compare=False)

    def __init__(self, mu: Fraction | int, norm_sq: Fraction | int):
        mu, norm_sq = Fraction(mu), Fraction(norm_sq)
        if norm_sq <= 0:
            raise ValueError("norm square must be positive")
        object.__setattr__(self, "key", abs(mu) * mu / norm_sq)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "norm_sq", norm_sq)

    def sign(self) -> int:
        return (self.mu > 0) - (self.mu < 0)


class TorusStatus(str, Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


# interior means stable, boundary strictly semistable, outside unstable
TORUS_STATUS = {
    HullPosition.INTERIOR: TorusStatus.STABLE,
    HullPosition.BOUNDARY: TorusStatus.STRICTLY_SEMISTABLE,
    HullPosition.OUTSIDE: TorusStatus.UNSTABLE,
}


def hm_mu(a: TorusAction, x: SupportPoint, rho: OneParamSubgroup) -> Fraction:
    """mu(x, rho) = max over the support of -<rho, alpha_i - chi>.

    Computed per factor: the maximum over Segre coordinates of the negated
    sum is minus the least Segre value of rho.
    """
    a.validate_support(x)
    return rho.pairing(a.twist) - sum(f[0][0] for f in a.levels(rho.cochar, x))


def hm_M(a: TorusAction, x: SupportPoint, rho: OneParamSubgroup) -> HMValue:
    """Normalised Hilbert-Mumford value mu / |rho|, with |rho| from the dual
    of the action's form, so that M(x, lambda_beta) = -|beta|."""
    return HMValue(hm_mu(a, x, rho), a.ip.dual_norm_sq(rho.cochar))


def torus_status(
    a: TorusAction, x: SupportPoint, *, relative_interior: bool = False
) -> TorusStatus:
    """Classify the twist against the support's weight hull.

    Interior (in the ambient sense by default; relative interior with
    `relative_interior`, the CLI's --relative-interior) means stable;
    boundary, strictly semistable; outside, unstable.
    """
    pos = hull_position(a.support_weights(x), a.twist, relative=relative_interior)
    return TORUS_STATUS[pos]


def _directions(a: TorusAction) -> list[tuple[int, ...]]:
    """+- the primitive normals of the hyperplanes spanned by rank - 1
    independent vectors among the within-factor weight differences and the
    axes, u and -u half the list apart.  They decide every support's hull:
    each edge of a Minkowski sum is parallel to an edge of a summand, here a
    within-factor difference, so each facet of a full-dimensional hull
    spans such a hyperplane; where the hull is lower-dimensional, axes
    complete its span and each relative facet's to ones that cut out its
    affine span and its relative facets.  At rank 1 this is +-e_1; at rank
    2, the axes and the perpendiculars of the differences.
    """
    ints = a.weights
    spanning = {tuple(int(i == k) for i in range(a.rank)) for k in range(a.rank)}
    for blk in a.factor_partition:
        for i, j in itertools.combinations(blk, 2):
            if ints[i] != ints[j]:
                spanning.add(primitive_line(*map(operator.sub, ints[i], ints[j])))
    combos = itertools.combinations(spanning, a.rank - 1)
    dirs = sorted(set(filter(None, map(primitive_normal, combos))))
    return dirs + [tuple(-x for x in u) for u in dirs]


def _slacks(
    a: TorusAction, dirs: Sequence[tuple[int, ...]], chi: RationalVector
) -> Iterator[list[int]]:
    """Every support's slacks d * h(u) - <u, d * chi> along `dirs`, one row
    per support in `support_sets` order, d the denominator of chi (at
    chi = 0, the support function h).  A support's weight hull is the
    Minkowski sum of its factors' hulls, so h(u) is the sum over the factors
    of the greatest <u, w_j> over the support's coordinates j there, one
    entry of a table per factor by coordinate subset.  The factors before
    the last are summed into prefix rows, and the last factor's are streamed.
    """
    (dchi,), d = clear_denominators([chi.entries])
    values = [
        [d * sum(map(operator.mul, u, w)) for u in dirs] for w in a.weights
    ]
    rows = []  # per factor: its subsets' greatest values, by factor_subsets
    for subsets in a.factor_subsets():
        table: dict[tuple[int, ...], list[int]] = {}
        for s in subsets:
            # s minus its last coordinate comes earlier, one size smaller
            table[s] = values[s[0]] if len(s) == 1 else list(
                map(max, table[s[:-1]], values[s[-1]])
            )
        rows.append(list(table.values()))
    prefixes = [[-sum(map(operator.mul, u, dchi)) for u in dirs]]
    for factor in rows[:-1]:
        prefixes = [
            list(map(operator.add, acc, row)) for acc in prefixes for row in factor
        ]
    for acc in prefixes:
        for row in rows[-1]:
            yield list(map(operator.add, acc, row))


def support_positions(
    a: TorusAction, chi: RationalVector, *, relative: bool = False
) -> Iterator[tuple[frozenset[int], HullPosition]]:
    """Every support's weight hull against chi, as (coordinate set,
    position) in `support_sets` order: the Hilbert-Mumford criterion on the
    one-parameter subgroups `_directions`, exact at every rank.  chi is
    outside the hull if some slack is negative and interior if all are
    positive; with `relative`, in the relative interior if each is positive
    or the hull has zero width along it (slack(u) + slack(-u) = 0); on the
    boundary otherwise.
    """
    dirs = _directions(a)
    k = len(dirs) // 2
    for s, slack in zip(a.support_sets(), _slacks(a, dirs, chi)):
        least = min(slack)
        if least < 0:
            pos = HullPosition.OUTSIDE
        elif least > 0 or relative and all(
            lo + hi == 0 or lo and hi for lo, hi in zip(slack[:k], slack[k:])
        ):
            pos = HullPosition.INTERIOR
        else:
            pos = HullPosition.BOUNDARY
        yield s, pos


def destabilising_beta(a: TorusAction, x: SupportPoint) -> BetaIndex:
    """The index of the support's stratum: beta, the minimum-norm point of
    the twisted support weights, with its lambda_beta as the associated
    one-parameter subgroup.

    beta is Wolfe's point (`GramFrame.min_norm`) on the frame of the support
    weights shifted by the twist.  beta = 0 exactly when x is semistable;
    then there is no distinguished subgroup, and lambda_beta is None.
    """
    frame = GramFrame.shifted(a.support_weights(x), a.twist, a.ip)
    return BetaIndex.from_integers(a, *frame.min_norm(range(len(frame.rows))))


def admissible_cone(g: GroupSpec, rank: int) -> Cone:
    """Cocharacters pairing strictly positively with every adjoint weight.

    An empty adjoint list (trivial unipotent radical) gives the full space;
    infeasibility of the strict system is detected exactly and reported.
    """
    for w in g.adjoint_weights:
        if w.dim != rank:
            raise RankUnsupported("adjoint weights do not match the rank")
    cone = Cone([(w, True) for w in g.adjoint_weights])
    if not cone.is_full_space and cone_has_interior_point(cone, rank) is None:
        raise EmptyCone("no cocharacter pairs strictly positively with all adjoint weights")
    return cone


def x_min(a: TorusAction, lam: OneParamSubgroup) -> tuple[frozenset[int], ...]:
    """Per factor, the coordinates of least weight pairing with the flow (its
    first level); ties keep all of them.  The minimal weight space is their
    product, and a support is in its basin when it meets every one."""
    return tuple(factor[0][1] for factor in a.levels(lam.cochar))


@dataclass(frozen=True)
class AdaptedRegion:
    """Twist interval on the scalar t = <lambda, chi> making the flow adapted:
    strictly above the lowest weight, strictly below the next one, with the
    well-adapted sub-slab hugging the lower wall."""

    lower: Fraction
    upper: Fraction
    lam: OneParamSubgroup
    epsilon: Fraction

    def __init__(
        self,
        lower: Fraction,
        upper: Fraction,
        lam: OneParamSubgroup,
        epsilon: Fraction,
    ):
        lower, upper, epsilon = Fraction(lower), Fraction(upper), Fraction(epsilon)
        if not lower < upper:
            raise ValueError("adapted region needs lower < upper")
        if not 0 < epsilon < upper - lower:
            raise ValueError("epsilon must lie strictly inside the slab width")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "epsilon", epsilon)

    def is_adapted(self, t: Fraction) -> bool:
        return self.lower < t < self.upper

    def is_well_adapted(self, t: Fraction) -> bool:
        return self.lower < t < self.lower + self.epsilon

    def well_adapted_interval(self) -> tuple[Fraction, Fraction]:
        return (self.lower, self.lower + self.epsilon)


def adapted_region(
    a: TorusAction,
    lam: OneParamSubgroup,
    epsilon: Optional[Fraction] = None,
) -> AdaptedRegion:
    """The twist interval adapted to the flow, with its well-adapted slab.

    The flow's two least Segre values bound it, read from its levels: the
    least is the sum of the first levels, and the next adds the least gap
    between a factor's first two levels.  Default epsilon is a thousandth
    of the slab width (nothing in the theory pins a value; only existence
    of some positive epsilon is used).
    """
    levels = a.levels(lam.cochar)
    gaps = [f[1][0] - f[0][0] for f in levels if len(f) > 1]
    if not gaps:
        raise NoAdaptedTwist("the flow has a single weight; no adapted twist exists")
    lower = sum(f[0][0] for f in levels)
    upper = lower + min(gaps)
    if epsilon is None:
        epsilon = Fraction(upper - lower, 1000)
    return AdaptedRegion(lower, upper, lam, Fraction(epsilon))


# ---------------------------------------------------------------------------
# Cocharacter fans and universal flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FanPiece:
    face: Face
    sample: OneParamSubgroup
    per_factor_argmin: tuple[frozenset[int], ...]

    @property
    def min_support(self) -> frozenset[int]:
        return frozenset().union(*self.per_factor_argmin)


@dataclass(frozen=True)
class CocharacterFan:
    pieces: tuple[FanPiece, ...]

    def chamber_pieces(self) -> list[FanPiece]:
        return [p for p in self.pieces if p.face.kind == "chamber"]

    @property
    def is_universal(self) -> bool:
        """Every admissible flow selects the same minimal-weight face: the
        fan has exactly one full-dimensional piece."""
        return len(self.chamber_pieces()) == 1


def cocharacter_fan(a: TorusAction, cone: Cone) -> CocharacterFan:
    """Partition of the cone by the weight-difference hyperplanes, each piece
    labelled with its constant minimal-weight support.

    Only within-factor weight differences matter: the argmin of a sum of
    per-factor minima changes exactly where some factor's pairing order does.
    Exact face enumeration is implemented for rank <= 2.
    """
    if a.rank == 1:
        sample = cone_has_interior_point(cone, 1)
        if sample is None:
            raise EmptyCone("cone has no interior cocharacter")
        lam = OneParamSubgroup(sample)
        face = Face("chamber", (*lam.cochar, 1), ())
        return CocharacterFan((FanPiece(face, lam, x_min(a, lam)),))
    if a.rank != 2:
        raise RankUnsupported("exact fan enumeration is limited to rank <= 2")
    w = a.weights
    lines = [
        Line2D(w[i][0] - w[j][0], w[i][1] - w[j][1], 0)
        for blk in a.factor_partition
        for i, j in itertools.combinations(blk, 2)
        if w[i] != w[j]
    ]
    # the open cone: each normal cleared and made primitive, offset 0, so
    # that a lone chamber's sample does not depend on the normals' scale
    region = []
    for normal, _ in cone.halfspaces:
        n = clear_denominators([normal])[0][0]
        g = math.gcd(*n) or 1  # a zero normal leaves the open cone empty
        region.append((*(x // g for x in n), 0))
    arr = Arrangement2D(lines, region)
    try:
        dec = chamber_decomposition_2d(arr)
    except EmptyRegion as exc:
        raise EmptyCone(str(exc)) from exc
    pieces = []
    for face in dec.faces:
        if face.sample.is_zero():
            continue  # the apex carries no flow
        lam = OneParamSubgroup.from_vector(face.sample)
        pieces.append(FanPiece(face, lam, x_min(a, lam)))
    return CocharacterFan(tuple(pieces))


@dataclass(frozen=True)
class UniversalResult:
    unique: bool
    pieces: tuple[FanPiece, ...]


def universal_1ps(a: TorusAction, cone: Cone) -> UniversalResult:
    """Whether every admissible flow selects the same minimal-weight face
    (`CocharacterFan.is_universal`), with the fan's full-dimensional pieces."""
    fan = cocharacter_fan(a, cone)
    return UniversalResult(fan.is_universal, tuple(fan.chamber_pieces()))


def gm_stable_support(a: TorusAction, lam: OneParamSubgroup):
    """Predicate: properly attracted to the minimal stratum.

    A support satisfies it iff it meets the minimal weight space in every
    factor and is not entirely contained in it.
    """
    argmin = x_min(a, lam)

    def predicate(x: SupportPoint) -> bool:
        a.validate_support(x)
        pairs = list(zip(a.per_factor_support(x), argmin))
        return all(s & m for s, m in pairs) and not all(s <= m for s, m in pairs)

    return predicate


# ---------------------------------------------------------------------------
# Unipotent sweeps on explicit points
# ---------------------------------------------------------------------------


class SweepStatus(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class SweepVerdict:
    status: SweepStatus
    witness: Optional[tuple[Fraction, Fraction]] = None


def _sweep_verdict(results: Iterable) -> SweepVerdict:
    """Unstable at the first Yes, with its witness; otherwise Undecided if
    any result was, else Stable.  `results` carry `status` (a CZStatus) and
    `witness`, and are drawn only up to the first Yes."""
    undecided = False
    for res in results:
        if res.status is CZStatus.YES:
            return SweepVerdict(SweepStatus.UNSTABLE, res.witness)
        undecided = undecided or res.status is CZStatus.UNDECIDED
    return SweepVerdict(SweepStatus.UNDECIDED if undecided else SweepStatus.STABLE)


def uhat_stable_explicit(
    x: ExplicitPoint, a: TorusAction, g: GroupSpec, lam: OneParamSubgroup
) -> SweepVerdict:
    """Stability for the graded extension: the whole unipotent orbit must be
    properly attracted to the minimal stratum.

    Two elimination questions decide it: (i) per factor, the minimal-weight
    coordinates of u.x must have no common parameter zero; (ii) the
    non-minimal coordinates must have no common zero either.  A common zero
    is an instability witness (rational when the elimination finds one).
    When every coordinate is minimal, (ii) asks of an empty system, which
    vanishes everywhere: the orbit sits inside the minimal stratum.
    """
    orbit = orbit_point(x, g)
    local = _orbit_by_global_index(a, orbit)
    pairs = list(zip(a.factor_partition, x_min(a, lam)))
    systems = [[local[i] for i in blk if i in argmin] for blk, argmin in pairs]
    systems.append([local[i] for blk, argmin in pairs for i in blk if i not in argmin])
    return _sweep_verdict(common_zero_avoiding(s, []) for s in systems)


def _orbit_by_global_index(
    a: TorusAction, orbit: ExplicitPoint
) -> dict[int, BiPoly]:
    return {
        gidx: e
        for blk, coords in zip(a.factor_partition, orbit.coords)
        for gidx, e in zip(blk, coords)
    }


@dataclass(frozen=True)
class AchievableSupport:
    support: SupportPoint
    status: CZStatus
    witness: Optional[tuple[Fraction, Fraction]]


def achievable_supports(
    x: ExplicitPoint, a: TorusAction, g: GroupSpec
) -> list[AchievableSupport]:
    """Supports attained on the unipotent orbit of x, decided by elimination.

    A candidate support is achievable iff the coordinates outside it share a
    parameter zero avoiding the zero sets of the coordinates inside it.
    Candidates run between the never-vanishing coordinates (nonzero
    constants) and the generic support, factor by factor.  The integer grid
    |b|, |c| <= 3 is swept first: a candidate support met at a grid point is
    achievable there, and elimination runs only for the candidates the grid
    did not meet.
    """
    return list(_achievable(x, a, g, lambda sp: True))


def _achievable(
    x: ExplicitPoint, a: TorusAction, g: GroupSpec, keep: Callable[[SupportPoint], bool]
) -> Iterator[AchievableSupport]:
    """`achievable_supports`, lazily, over the candidates that `keep` takes:
    the others are not decided."""
    orbit = orbit_point(x, g)
    local = _orbit_by_global_index(a, orbit)
    gen = generic_support(orbit, a)

    grid_found: dict[frozenset[int], tuple[Fraction, Fraction]] = {}
    grid = range(-3, 4)
    values = [local[i].cleared_values(grid, grid) for i in range(a.num_coords)]
    for (b0, c0), column in zip(itertools.product(grid, grid), zip(*values)):
        key = frozenset(itertools.compress(range(a.num_coords), column))
        if key not in grid_found:
            grid_found[key] = (Fraction(b0), Fraction(c0))

    per_factor_options = []
    for blk in a.factor_partition:
        alive = [i for i in blk if i in gen.support]
        varying = [i for i in alive if not local[i].is_constant()]
        opts = []
        for r in range(len(varying) + 1):
            for drop in itertools.combinations(varying, r):
                sub = frozenset(set(alive) - set(drop))
                if sub:
                    opts.append(sub)
        per_factor_options.append(sorted(set(opts), key=sorted))

    for combo in itertools.product(*per_factor_options):
        support = frozenset(itertools.chain.from_iterable(combo))
        sp = SupportPoint(support)
        if not keep(sp):
            continue
        if support in grid_found:
            yield AchievableSupport(sp, CZStatus.YES, grid_found[support])
            continue
        vanish = [
            local[i]
            for i in gen.support
            if i not in support and not local[i].is_zero()
        ]
        avoid = [local[i] for i in sorted(support)]
        res = common_zero_avoiding(vanish, avoid)
        yield AchievableSupport(sp, res.status, res.witness)


def h_stable_explicit(
    x: ExplicitPoint, a: TorusAction, g: GroupSpec
) -> SweepVerdict:
    """Stability for the full group with torus Levi factor: every support
    achievable on the unipotent orbit must be torus-stable.

    An achievable non-stable support is a witness of instability; candidates
    the elimination cannot settle make the verdict Undecided only when they
    would matter (a non-stable status).  So only the non-stable candidates
    are decided, in `achievable_supports`' order, up to the first witness.
    """
    return _sweep_verdict(
        _achievable(x, a, g, lambda sp: torus_status(a, sp) is not TorusStatus.STABLE)
    )


class StabDimension(str, Enum):
    ZERO = "0"
    POSITIVE = "positive"
    UNDECIDED = "undecided"


def stab_u_dimension(x: ExplicitPoint, g: GroupSpec) -> StabDimension:
    """Dimension class of the unipotent stabiliser of a rational point.

    Solves u.x = x projectively per factor (2x2 minors eliminate the scale)
    and classifies the parameter solution set: a finite set means trivial
    stabiliser (a unipotent group has no nontrivial finite subgroups in
    characteristic zero), anything of positive dimension is Positive.
    """
    if g.u_params == 0:
        return StabDimension.ZERO
    orbit = orbit_point(x, g)
    minors: list[BiPoly] = []
    for vals, polys in zip(x.coords, orbit.coords):
        n = len(vals)
        for i in range(n):
            for j in range(i + 1, n):
                m = polys[i].scale(vals[j]) - polys[j].scale(vals[i])
                if not m.is_zero():
                    minors.append(m)
    if not minors:
        return StabDimension.POSITIVE  # all of U fixes x
    if g.u_params == 1:
        # minors are univariate in b; nonzero system means finitely many roots
        return StabDimension.ZERO
    info = analyze_common_zeros(minors)
    if info.kind == "finite":
        return StabDimension.ZERO
    if info.kind in ("lines", "curve", "everything"):
        return StabDimension.POSITIVE
    if info.kind == "empty":
        raise AssertionError("the identity always stabilises")
    return StabDimension.UNDECIDED
