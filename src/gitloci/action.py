"""Data model for linearised torus actions with graded unipotent extras.

A TorusAction records one weight per homogeneous coordinate (a character
of the torus, so an integer tuple), a rational character twist, an inner
product, and a partition of the coordinates into projective factors.
Products are stored factored and never Segre-expanded in a computation: a
point of a product has a nonzero coordinate in every factor, so support
logic stays per-factor.  A support's distinct Segre weights are the
per-factor sumset of its coordinates' weights (`support_weights`), which
hull membership and Wolfe run on.  A functional is given by its value on
each coordinate, a cocharacter's (an integer tuple too) by
`coordinate_values`.  `levels` tables a cocharacter's distinct values per
factor, ascending, each with the coordinates that take it: the least Segre
value is the sum of the first levels' values, attained on the products of
their coordinate sets.  Hilbert-Mumford values, flow limits, adapted
twists, the strata's hyperplane tests and the rank-2 walls all read this
one table.

Conventions:
  * cocharacter/weight pairings are plain dot products;
  * the inner product supplies norms (and the perpendicular geometry of the
    stratification);
  * the character twist chi enters every stability predicate through the
    shifted weights (alpha - chi).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .qpoly import BiPoly, InnerProduct, RationalVector, as_fraction


class RankMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class InvalidSupport(ValueError):
    pass


@dataclass(frozen=True)
class SupportPoint:
    """A point of the space known only through its nonzero coordinates."""

    support: frozenset[int]

    def __init__(self, indices: Iterable[int]):
        s = frozenset(map(operator.index, indices))
        if not s:
            raise InvalidSupport("support must be nonempty")
        object.__setattr__(self, "support", s)

    def sorted(self) -> list[int]:
        return sorted(self.support)

    def __contains__(self, i: int) -> bool:
        return i in self.support

    def __le__(self, other: "SupportPoint") -> bool:
        return self.support <= other.support


@dataclass(frozen=True)
class ExplicitPoint:
    """A point given by exact coordinates per factor.

    Entries are rationals, or BiPoly for symbolic orbit points.  Per factor,
    not all coordinates may vanish (identically, in the symbolic case).
    """

    coords: tuple[tuple[Fraction | BiPoly, ...], ...]

    def __init__(self, coords: Sequence[Sequence[Fraction | int | str | BiPoly]]):
        blocks = []
        for block in coords:
            # an exact Fraction is kept, as in RationalVector
            entries = tuple(
                e if type(e) is Fraction or isinstance(e, BiPoly) else as_fraction(e)
                for e in block
            )
            if all(_entry_is_zero(e) for e in entries):
                raise InvalidSupport(
                    "a projective point needs a nonzero coordinate in every factor"
                )
            blocks.append(entries)
        if not blocks:
            raise InvalidSupport("point needs at least one factor")
        object.__setattr__(self, "coords", tuple(blocks))

    @property
    def is_symbolic(self) -> bool:
        return any(
            isinstance(e, BiPoly) for block in self.coords for e in block
        )

    def support(self, action: "TorusAction") -> SupportPoint:
        """Support of a rational point (nonzero coordinates, global indices)."""
        if self.is_symbolic:
            raise ValueError("use generic_support for symbolic points")
        return generic_support(self, action)


def _entry_is_zero(e: Fraction | BiPoly) -> bool:
    return e.is_zero() if isinstance(e, BiPoly) else e == 0


def integer_tuple(v: Iterable[Fraction | int]) -> tuple[int, ...]:
    """An integral vector (a RationalVector or integral rationals) as an
    integer tuple."""
    entries = [e if isinstance(e, (int, Fraction)) else Fraction(e) for e in v]
    if any(e.denominator != 1 for e in entries):
        raise ValueError("entries must be integral")
    return tuple(e.numerator for e in entries)


@dataclass(frozen=True)
class TorusAction:
    """A rank-r torus action on a product of projective coordinate spaces."""

    rank: int
    weights: tuple[tuple[int, ...], ...]
    twist: RationalVector
    ip: InnerProduct
    factor_partition: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        rank: int,
        weights: Sequence[RationalVector | Sequence[int]],
        ip: InnerProduct,
        twist: Optional[RationalVector] = None,
        factor_partition: Optional[Sequence[Sequence[int]]] = None,
    ):
        rank = operator.index(rank)
        if rank < 1:
            raise ValueError("rank must be positive")
        weights = tuple(map(integer_tuple, weights))
        if not weights:
            raise ValueError("action needs at least one coordinate")
        if any(len(w) != rank for w in weights):
            raise RankMismatch("weight dimension differs from rank")
        if twist is None:
            twist = RationalVector.zero(rank)
        if twist.dim != rank:
            raise RankMismatch("twist dimension differs from rank")
        if ip.rank != rank:
            raise RankMismatch("inner product rank differs from rank")
        if factor_partition is None:
            factor_partition = [list(range(len(weights)))]
        blocks = tuple(tuple(map(operator.index, blk)) for blk in factor_partition)
        seen: set[int] = set()
        for blk in blocks:
            if not blk:
                raise ValueError("factor blocks must be nonempty")
            if seen & set(blk):
                raise ValueError("factor blocks must be disjoint")
            seen |= set(blk)
        if seen != set(range(len(weights))):
            raise ValueError("factor blocks must cover all coordinates")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "ip", ip)
        object.__setattr__(self, "factor_partition", blocks)
        object.__setattr__(self, "_block_sets", tuple(map(frozenset, blocks)))
        object.__setattr__(self, "_coords", frozenset(seen))

    # -- twists --------------------------------------------------------------

    def with_twist(self, twist: RationalVector) -> "TorusAction":
        return TorusAction(
            self.rank, self.weights, self.ip, twist, self.factor_partition
        )

    # -- supports --------------------------------------------------------------

    @property
    def num_coords(self) -> int:
        return len(self.weights)

    def validate_support(self, x: SupportPoint) -> None:
        if not x.support <= self._coords:
            raise InvalidSupport("support indices out of range")
        for blk in self._block_sets:
            if x.support.isdisjoint(blk):
                raise InvalidSupport(
                    "a support needs at least one index in every factor"
                )

    def per_factor_support(self, x: SupportPoint) -> list[frozenset[int]]:
        return [x.support & blk for blk in self._block_sets]

    def iter_supports(
        self, within: Optional[SupportPoint] = None
    ) -> Iterator[SupportPoint]:
        """All valid supports: a nonempty coordinate subset per factor, of
        the coordinates of `within` when given."""
        return map(SupportPoint, self.support_sets(within))

    def support_sets(
        self, within: Optional[SupportPoint] = None
    ) -> Iterator[frozenset[int]]:
        """The coordinate sets of `iter_supports(within)`, in its order: the
        product of the factors' `factor_subsets`, the last factor varying
        fastest."""
        for combo in itertools.product(*self.factor_subsets(within)):
            yield frozenset(itertools.chain.from_iterable(combo))

    def factor_subsets(
        self, within: Optional[SupportPoint] = None
    ) -> list[list[tuple[int, ...]]]:
        """Per factor, its nonempty coordinate subsets (of the coordinates of
        `within` when given), by size, each size in `itertools.combinations`
        order."""
        out = []
        for blk in self.factor_partition:
            if within is not None:
                blk = [i for i in blk if i in within.support]
            out.append(
                [
                    combo
                    for size in range(1, len(blk) + 1)
                    for combo in itertools.combinations(blk, size)
                ]
            )
        return out

    def support_count(self) -> int:
        n = 1
        for blk in self.factor_partition:
            n *= 2 ** len(blk) - 1
        return n

    # -- functionals given per coordinate ---------------------------------

    def coordinate_values(self, cochar: Sequence[int]) -> list[int]:
        """<cochar, alpha_i> for every coordinate i, for an integer cochar."""
        return [sum(map(operator.mul, cochar, w)) for w in self.weights]

    def levels(
        self, cochar: Sequence[int], support: Optional[SupportPoint] = None
    ) -> tuple[tuple[tuple[int, frozenset[int]], ...], ...]:
        """Per factor, the distinct values <cochar, alpha_i> over its
        coordinates (those of a support when given), ascending, each paired
        with the coordinates that take it.  The least Segre value is the sum
        of the first levels' values, attained on the products of their
        coordinate sets."""
        value = self.coordinate_values(cochar).__getitem__
        blocks = self.factor_partition
        if support is not None:
            blocks = self.per_factor_support(support)
        return tuple(
            tuple(
                (v, frozenset(coords))
                for v, coords in itertools.groupby(sorted(blk, key=value), value)
            )
            for blk in blocks
        )

    # -- Segre weights -----------------------------------------------------

    def segre_weights(
        self, support: Optional[SupportPoint] = None, twisted: bool = False
    ) -> list[RationalVector]:
        """Weights of all Segre coordinates (of a support), with
        multiplicity.

        The Segre weight of a coordinate tuple is the sum of the factor
        weights; the twisted variant subtracts the character twist.  This is
        the full expansion, exponential in the number of factors: only the
        weight diagram's multiplicities need it.
        """
        if support is not None:
            self.validate_support(support)
        blocks = [
            [i for i in blk if support is None or i in support.support]
            for blk in self.factor_partition
        ]
        shift = self.twist if twisted else RationalVector.zero(self.rank)
        return [
            RationalVector(
                sum(axis) - s
                for axis, s in zip(zip(*(self.weights[i] for i in combo)), shift)
            )
            for combo in itertools.product(*blocks)
        ]

    def support_weights(
        self, support: Optional[SupportPoint] = None
    ) -> tuple[tuple[int, ...], ...]:
        """The distinct untwisted Segre weights (of a support) as sorted
        integer tuples.

        They form the sumset over the factors of each factor's distinct
        weights on the support, deduplicated after every factor, so
        coinciding sums never multiply.
        """
        if support is not None:
            self.validate_support(support)
        acc = {(0,) * self.rank}
        for blk in self.factor_partition:
            block = {
                self.weights[i]
                for i in blk
                if support is None or i in support.support
            }
            acc = {tuple(map(operator.add, p, w)) for p in acc for w in block}
        return tuple(sorted(acc))


def build_product_action(factors: Sequence[TorusAction]) -> TorusAction:
    """Combine factor actions into the product action.

    Coordinates are the disjoint union of factor coordinates (the Segre
    expansion stays lazy); the twist is the sum of factor twists.
    """
    if not factors:
        raise ValueError("product needs at least one factor")
    rank = factors[0].rank
    ip = factors[0].ip
    for f in factors:
        if f.rank != rank:
            raise RankMismatch("all factors must share the torus rank")
        if f.ip != ip:
            raise RankMismatch("all factors must share the inner product")
    weights: list[tuple[int, ...]] = []
    partition: list[list[int]] = []
    twist = RationalVector.zero(rank)
    for f in factors:
        offset = len(weights)
        weights.extend(f.weights)
        for blk in f.factor_partition:
            partition.append([offset + i for i in blk])
        twist = twist + f.twist
    return TorusAction(rank, weights, ip, twist, partition)


@dataclass(frozen=True)
class GroupSpec:
    """Unipotent-radical data: adjoint weights of the grading torus on the
    Lie algebra, and polynomial matrices for the unipotent action per factor.
    """

    adjoint_weights: tuple[RationalVector, ...]
    u_params: int
    u_matrices: tuple[tuple[tuple[BiPoly, ...], ...], ...]

    def __init__(
        self,
        adjoint_weights: Sequence[RationalVector],
        u_params: int,
        u_matrices: Sequence[Sequence[Sequence[BiPoly]]],
    ):
        u_params = operator.index(u_params)
        if u_params not in (0, 1, 2):
            raise ValueError("u_params must be 0, 1 or 2")
        aw = tuple(adjoint_weights)
        mats = []
        for mat in u_matrices:
            rows = tuple(tuple(entries) for entries in mat)
            n = len(rows)
            if any(len(r) != n for r in rows):
                raise ValueError("u-matrices must be square")
            for i, row in enumerate(rows):
                for j, e in enumerate(row):
                    # terms descend in (e_b, e_c): a b exponent shows in the
                    # first, the constant term (the value at (0, 0)) is last
                    terms = e.coeffs
                    if u_params < 2 and any(ec for (_, ec), _ in terms):
                        raise ValueError(
                            "matrix entry uses parameter c but u_params < 2"
                        )
                    if u_params < 1 and terms and terms[0][0][0]:
                        raise ValueError(
                            "matrix entry uses parameter b but u_params < 1"
                        )
                    const = terms[-1][1] if terms and terms[-1][0] == (0, 0) else 0
                    if const != int(i == j):
                        raise ValueError(
                            "u-matrix at parameters (0,0) must be the identity"
                        )
            mats.append(rows)
        object.__setattr__(self, "adjoint_weights", aw)
        object.__setattr__(self, "u_params", u_params)
        object.__setattr__(self, "u_matrices", tuple(mats))

    @staticmethod
    def trivial() -> "GroupSpec":
        return GroupSpec([], 0, [])


def orbit_point(x: ExplicitPoint, g: GroupSpec) -> ExplicitPoint:
    """Coordinates of u.x as polynomials in the group parameters.  A group
    with no matrices (the trivial radical) acts as the identity on every
    factor."""
    if x.is_symbolic:
        raise ValueError("orbit_point expects rational coordinates")
    mats = g.u_matrices or [
        [[BiPoly.const(int(i == j)) for j in range(len(c))] for i in range(len(c))]
        for c in x.coords
    ]
    if len(mats) != len(x.coords):
        raise LengthMismatch("group matrices do not match the point's factors")
    blocks = []
    for mat, coords in zip(mats, x.coords):
        if len(mat) != len(coords):
            raise LengthMismatch("matrix size does not match factor size")
        new = []
        for row in mat:
            acc: dict[tuple[int, int], Fraction] = {}
            for entry, v in zip(row, coords):
                if v:
                    for k, q in entry.coeffs:
                        acc[k] = acc.get(k, 0) + q * v
            new.append(BiPoly(acc))
        blocks.append(new)
    return ExplicitPoint(blocks)


def generic_support(x: ExplicitPoint, action: TorusAction) -> SupportPoint:
    """Indices whose coordinate polynomial is not identically zero."""
    idx = []
    for block, coords in zip(action.factor_partition, x.coords):
        if len(block) != len(coords):
            raise LengthMismatch("point does not match the factor layout")
        for gidx, e in zip(block, coords):
            if not _entry_is_zero(e):
                idx.append(gidx)
    return SupportPoint(idx)


def evaluate_point(
    x: ExplicitPoint, b: Fraction | int, c: Fraction | int
) -> ExplicitPoint:
    """Specialise a symbolic point at rational parameter values."""
    blocks = []
    for coords in x.coords:
        blocks.append(
            [
                e.eval_at(b, c) if isinstance(e, BiPoly) else e
                for e in coords
            ]
        )
    return ExplicitPoint(blocks)


# ---------------------------------------------------------------------------
# External one-parameter extensions
# ---------------------------------------------------------------------------


def _extend_ip(ip: InnerProduct, extra: int) -> InnerProduct:
    n = ip.rank
    gram = [
        [ip.gram[i][j] if i < n and j < n else (1 if i == j else 0) for j in range(n + extra)]
        for i in range(n + extra)
    ]
    return InnerProduct(gram)


def build_external_extension(
    a: TorusAction, gm_weights: Sequence[int], N: int
) -> TorusAction:
    """Extend by an external one-parameter group acting with the given
    weights on the coordinates, crossed with a weight-(0, N) projective line.

    The rank grows by one; an old coordinate of weight alpha_i picks up the
    external weight m_i on the new axis, and the new line contributes a
    two-coordinate factor with new-axis weights 0 and N.  Choosing N large
    is the caller's responsibility.
    """
    if len(gm_weights) != a.num_coords:
        raise LengthMismatch("need one external weight per coordinate")
    N = operator.index(N)
    if N <= 0:
        raise ValueError("N must be positive")
    m = map(operator.index, gm_weights)
    zero = (0,) * a.rank
    new_weights = [(*w, mi) for w, mi in zip(a.weights, m)]
    new_weights += [(*zero, 0), (*zero, N)]
    base = a.num_coords
    partition = [list(blk) for blk in a.factor_partition] + [[base, base + 1]]
    twist = RationalVector(list(a.twist.entries) + [Fraction(0)])
    return TorusAction(
        a.rank + 1, new_weights, _extend_ip(a.ip, 1), twist, partition
    )


def build_double_extension(
    a: TorusAction,
    m_lambda: Sequence[int],
    m_mu: Sequence[int],
    N: int,
    epsilon: Fraction,
) -> tuple[TorusAction, RationalVector, RationalVector]:
    """Extend by two commuting external one-parameter groups at once.

    The rank grows by two (axis order: lambda then mu): the lambda extension
    is extended again by mu, under which both lambda-line coordinates have
    weight 0.  The weight set splits into four translates of the
    single-extension cluster at offsets {0, N} x {0, N}.  Returns the
    extended action together with the two character twists
    (0, N + r_lambda - eps) and (N + r_mu - eps, 0), expressed in the last
    two coordinates of the extended character space, where r_lambda and
    r_mu are the least external weights, min(m_lambda) and min(m_mu).
    """
    if len(m_lambda) != a.num_coords or len(m_mu) != a.num_coords:
        raise LengthMismatch("need one external weight per coordinate")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ml = list(map(operator.index, m_lambda))
    mm = list(map(operator.index, m_mu))
    N = operator.index(N)
    extended = build_external_extension(
        build_external_extension(a, ml, N), mm + [0, 0], N
    )
    pad = [Fraction(0)] * a.rank
    twist_lambda = RationalVector(pad + [Fraction(0), N + min(ml) - epsilon])
    twist_mu = RationalVector(pad + [N + min(mm) - epsilon, Fraction(0)])
    return extended, twist_lambda, twist_mu
