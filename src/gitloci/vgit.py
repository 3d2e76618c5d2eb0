"""Variation of the quotient over the space of rational character twists.

The ample-scaling direction is normalised away: only the character twist
varies, so the parameter space is the weight plane (rank 2) or the weight
line (rank 1).  A wall is where some support becomes strictly semistable,
which is on the boundary of that support's weight hull.  So in rank 2 every
wall lies on a hull-edge line, the line of a polygon hull's edge or of a
segment hull itself, and the complex is the one arrangement of those lines,
decomposed once and labelled face by face.  Wall lines are sums of
per-factor weight values along the directions of
`stability.support_positions`, found as canonical integer triples
(a, b, c) of a*x + b*y = c; each distinct one becomes a `Line2D` (the same
triple) once, for the arrangement and the report.

Families are read off sign vectors, with no hull arithmetic per face.  In
every rank each support has one rule: it is semistable unless the twist is
beyond a wall line <u, x> = h(u), for h the support's support function and
u one of the same directions.  So each support is a short list of (line,
forbidden sign) conditions, checked against a face's signs.

A chamber is one GIT-equivalence class: the chamber faces with one support
family form one chamber, sampled at the least of their samples.  GIT
classes are convex [DH98, Tha96], so faces with one family are always
joined through cells on which the family does not change.

A family is a bitmask over the action's supports from the arrangement to
the report.  Bit i is the i-th support in the order in which reports list
a family's supports, that of their sorted index lists, so a writer renders
a mask by its set bits with no sort.  The complex's faces carry their
masks, and crossings diff them with `&` and `& ~`; `family` renders one as
a frozenset for library callers, once per distinct mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, TypeVar

from .action import (
    TorusAction,
    build_double_extension,
    build_external_extension,
)
from .polytope import (
    Arrangement2D,
    Decomposition,
    Face,
    HullPosition,
    Line2D,
    RationalVector,
    chamber_decomposition_2d,
    faces_by_sample,
    hull_position,
    hull_vertices,
)
from .stability import RankUnsupported, _directions, _slacks, support_positions


class IneffectiveTwist(ValueError):
    pass


class NotAdjacent(ValueError):
    pass


class DegenerateWeights(ValueError):
    pass


@dataclass(frozen=True)
class EffectiveRegion:
    """Hull of all Segre weights: exactly the twists admitting a semistable
    support.  Its vertices are integer tuples: the two extreme weights in
    rank 1 (one if they coincide), the CCW hull in rank 2."""

    vertices: tuple[tuple[int, ...], ...]

    def contains(self, chi: RationalVector) -> bool:
        return hull_position(self.vertices, chi) is not HullPosition.OUTSIDE


def effective_cone(a: TorusAction) -> EffectiveRegion:
    """The effective twists, as the hull of all Segre weights."""
    if a.rank > 2:
        raise RankUnsupported("effective region is exact for rank <= 2 only")
    return EffectiveRegion(hull_vertices(a.support_weights(), a.rank))


def git_class(a: TorusAction, chi: RationalVector) -> frozenset[frozenset[int]]:
    """The semistable support family of a twist: all valid supports whose
    weight hull contains it.  Families are the GIT-equivalence invariants."""
    if chi.dim != a.rank:
        raise RankUnsupported("twist dimension differs from rank")
    family = _family_at(a, chi)
    if not family:
        raise IneffectiveTwist(f"no support is semistable at twist {chi!r}")
    return family


def _family_at(a: TorusAction, chi: RationalVector) -> frozenset[frozenset[int]]:
    """The semistable support family at a twist, empty when ineffective."""
    return frozenset(
        s for s, pos in support_positions(a, chi) if pos is not HullPosition.OUTSIDE
    )


_T = TypeVar("_T")
_BITS = bytes.maketrans(b"01", b"\0\1")


def masked(items: Sequence[_T], mask: int) -> Iterator[_T]:
    """The items at the set bits of a mask, bit i item i, in item order."""
    return itertools.compress(items, bin(mask)[:1:-1].encode().translate(_BITS))


class _SignFamilies:
    """Support families as a function of a face's sign vector.

    Each support is a few conditions (index, forbidden sign): it is
    semistable on a face exactly when no condition's index carries its
    forbidden sign there.  Per index and sign, the supports forbidding it
    form one bitmask, so a family costs one OR per index.  Bit i is the
    support `rows[i]`, the rows being the supports' sorted index tuples in
    ascending order, so bit order is the order in which reports list a
    family.  Families stay bitmasks, which compare as families do, through
    the complex and its report; `supports` renders one as a frozenset for
    library callers.
    """

    def __init__(
        self,
        keys: Sequence[frozenset[int]],
        conditions: Sequence[Sequence[tuple[int, int]]],
        width: int,
    ):
        rows = [tuple(sorted(k)) for k in keys]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        self.rows = tuple(rows[i] for i in order)
        self._keys = tuple(keys[i] for i in order)
        self._forbid = [[0, 0, 0] for _ in range(width)]  # by sign + 1
        for bit, i in enumerate(order):
            for k, sign in conditions[i]:
                self._forbid[k][sign + 1] |= 1 << bit
        self._full = (1 << len(self._keys)) - 1
        self._rendered: dict[int, frozenset[frozenset[int]]] = {}

    def family(self, signs: Sequence[int]) -> Optional[int]:
        """The family's bitmask over the supports, None where it is empty."""
        out = 0
        for row, s in zip(self._forbid, signs):
            out |= row[s + 1]
        return (self._full & ~out) or None

    def supports(self, mask: int) -> frozenset[frozenset[int]]:
        """The family of a bitmask, built once per distinct mask."""
        family = self._rendered.get(mask)
        if family is None:
            family = self._rendered[mask] = frozenset(masked(self._keys, mask))
        return family


def _sign_families(
    a: TorusAction, dirs: Sequence[tuple[int, ...]], lines: Sequence[tuple[int, ...]]
) -> _SignFamilies:
    """Families over the signs of the wall lines (*normal, offset), whose
    normals are among `dirs`: each support forbids the outer side of every
    wall line <u, x> = h(u), u in `dirs` and h its support function (the
    slacks at the origin).

    These conditions hold on the hull and cut it out: in rank 1 by its two
    ends; in rank 2 a polygon by its edges, a segment by its own line, both
    sides, and by a wall line through each end not parallel to it, and a
    point by two non-parallel wall lines through it, both sides.  Those
    exist unless all weights are collinear: a weight p with one coordinate
    added is a segment support at p, and if all of these segments were
    parallel every weight would lie on one line through p.
    """
    at = {u: {} for u in dirs}  # per direction: wall height -> condition
    for i, (*normal, c) in enumerate(lines):
        at[tuple(normal)][c] = (i, 1)
        at[tuple(-x for x in normal)][-c] = (i, -1)
    conditions = [
        [c for c in map(dict.get, at.values(), heights) if c]
        for heights in _slacks(a, dirs, RationalVector.zero(a.rank))
    ]
    return _SignFamilies(list(a.support_sets()), conditions, len(lines))


def _rank2_walls(a: TorusAction) -> tuple[list[Line2D], _SignFamilies]:
    """The hull-edge lines of the supports, in the order in which their
    first pair of distinct weights comes among all pairs, and the families
    over their signs.

    Each edge is parallel to a within-factor weight difference, so its
    normal u is among `_directions`.  Along u a support's face is the sum of
    its factors' faces, an edge exactly when some factor f has two distinct
    weights at its greatest value v, on the line <u, x> = v + the sum of
    one value h_g of u at a weight of each other factor g.  Those two
    weights and the h_g's coordinates make a support with that edge, so
    every such sum is an edge line, found with no pass over the supports.
    """
    points, w = a.support_weights(), a.weights
    dirs = _directions(a)
    edges: set[tuple[int, int, int]] = set()
    # the first half are the canonical normals, and -u gives the same lines
    for u in dirs[: len(dirs) // 2]:
        levels = a.levels(u)
        values = [{v for v, _ in factor} for factor in levels]
        for f, factor in enumerate(levels):
            sums = {v for v, coords in factor if len({w[i] for i in coords}) > 1}
            for g, vs in enumerate(values):
                if g != f and sums:
                    sums = {x + y for x in sums for y in vs}
            edges.update((*u, c) for c in sums)

    def first_pair(ln: tuple[int, int, int]) -> list[int]:
        nx, ny, c = ln
        return [k for k, (x, y) in enumerate(points) if nx * x + ny * y == c][:2]

    triples = sorted(edges, key=first_pair)
    return [Line2D(*ln) for ln in triples], _sign_families(a, dirs, triples)


# ---------------------------------------------------------------------------
# Chamber complexes
# ---------------------------------------------------------------------------


class _Labelled:
    """A face of a complex, whose support family is its bitmask `mask` over
    the supports of `labels`, the complex's."""

    @property
    def family(self) -> frozenset[frozenset[int]]:
        """The family as a frozenset of supports, one per distinct mask."""
        return self.labels.supports(self.mask)


@dataclass(frozen=True)
class WallCell(_Labelled):
    sample: RationalVector
    mask: int
    signs: tuple[int, ...]
    labels: _SignFamilies = field(repr=False, compare=False)


@dataclass(frozen=True)
class Wall:
    line: Line2D
    cells: tuple[WallCell, ...]


@dataclass(frozen=True)
class Chamber(_Labelled):
    sample: RationalVector
    mask: int
    signs: tuple[int, ...]
    labels: _SignFamilies = field(repr=False, compare=False)
    interval: Optional[tuple[Fraction, Fraction]] = None  # rank 1 only


@dataclass(frozen=True)
class VertexFace(_Labelled):
    point: RationalVector
    mask: int
    signs: tuple[int, ...]
    labels: _SignFamilies = field(repr=False, compare=False)


@dataclass(frozen=True)
class ChamberComplex:
    rank: int
    walls: tuple[Wall, ...]
    chambers: tuple[Chamber, ...]
    vertices: tuple[VertexFace, ...]
    effective: EffectiveRegion
    # families over the signs of the wall lines (rank 2) or weight values
    labels: _SignFamilies = field(repr=False, compare=False)

    def wall_values(self) -> list[Fraction]:
        """Rank-1 wall positions."""
        if self.rank != 1:
            raise RankUnsupported("wall values are a rank-1 notion")
        return sorted(w.cells[0].sample.entries[0] for w in self.walls)


def wall_chamber_decomposition(a: TorusAction) -> ChamberComplex:
    """Walls, chambers and cells of the twist space, with support families.

    Exact in ranks 1 and 2; rank >= 3 raises RankUnsupported.
    """
    if a.rank == 1:
        return _rank1_complex(a)
    if a.rank == 2:
        return _rank2_complex(a)
    raise RankUnsupported("wall/chamber enumeration is exact for rank <= 2 only")


def _rank1_complex(a: TorusAction) -> ChamberComplex:
    eff = effective_cone(a)
    values = [w for (w,) in a.support_weights()]  # sorted, distinct integers
    labels = _sign_families(a, _directions(a), [(1, v) for v in values])

    def signs(q: Fraction) -> tuple[int, ...]:
        return tuple((q > v) - (q < v) for v in values)

    # every value is a wall, as the point support there is semistable only
    # there, and every twist between values is effective, so no mask is None
    walls = tuple(
        Wall(
            Line2D(1, 0, v),
            (WallCell(RationalVector([v]), labels.family(sv), sv, labels),),
        )
        for v in values
        for sv in [signs(v)]
    )
    chambers = tuple(
        Chamber(RationalVector([q]), labels.family(sv), sv, labels, (lo, hi))
        for lo, hi in zip(values, values[1:])
        for q in [Fraction(lo + hi, 2)]
        for sv in [signs(q)]
    )
    return ChamberComplex(1, walls, chambers, (), eff, labels)


def _rank2_complex(a: TorusAction) -> ChamberComplex:
    eff = effective_cone(a)
    if len(eff.vertices) == 1:
        raise DegenerateWeights("a single weight gives a point effective region")
    if len(eff.vertices) < 3:
        raise DegenerateWeights(
            "all weights are collinear: the effective region has no interior"
        )
    lines, labels = _rank2_walls(a)
    region = _expanded_region(eff.vertices)
    dec = chamber_decomposition_2d(Arrangement2D(lines, region))
    families = {face.signs: labels.family(face.signs) for face in dec.faces}
    return _assemble(dec, families, labels, eff)


def _expanded_region(hull: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The open polygon of the integer CCW hull scaled by 2 about its
    centroid c = s / n (s the vertex sum, n the vertex count), whose
    vertices are 2 * v - c, as the integer planes of `Arrangement2D`.  An
    edge from v along (dx, dy) has the inner normal 2 * (-dy, dx) and the
    offset <normal, 2 * v - c>; times n, that is the plane
    (n * normal, 2 * n * <normal, v> - <normal, s>)."""
    n = len(hull)
    sx, sy = (sum(coord) for coord in zip(*hull))
    region = []
    for (px, py), (qx, qy) in zip(hull, [*hull[1:], hull[0]]):
        nx, ny = 2 * (py - qy), 2 * (qx - px)
        offset = 2 * n * (nx * px + ny * py) - nx * sx - ny * sy
        region.append((n * nx, n * ny, offset))
    return region


_Families = dict[tuple[int, ...], Optional[int]]


def _flip(signs: tuple[int, ...], idx: int, side: int) -> tuple[int, ...]:
    return signs[:idx] + (side,) + signs[idx + 1 :]


def _incident(cell: tuple[int, ...], vertex: tuple[int, ...]) -> bool:
    """Whether a vertex is an end of a cell: they agree wherever the vertex
    is off a line (so the vertex is on the cell's line, and no line crosses
    between them)."""
    return all(v == 0 or v == c for c, v in zip(cell, vertex))


def _assemble(
    dec: Decomposition,
    families: _Families,
    labels: _SignFamilies,
    eff: EffectiveRegion,
) -> ChamberComplex:
    # a cell is a true wall piece only where crossing it or standing on it
    # changes the family; cells equal to both neighbours carry no strict
    # semistability and lie inside one chamber
    walls = []
    surviving_by_line: dict[int, list[tuple[int, ...]]] = {}
    # the decomposition emits the cells line by line in ascending index
    for idx, cells in itertools.groupby(dec.cells(), lambda c: c.line_index):
        surviving = []
        for face in cells:
            fam = families[face.signs]
            if fam is None:
                continue
            left = _flip(face.signs, idx, 1)
            right = _flip(face.signs, idx, -1)
            if not families.get(left) == families.get(right) == fam:
                surviving.append(face)
        if surviving:
            surviving = faces_by_sample(surviving)
            surviving_by_line[idx] = [c.signs for c in surviving]
            cells_out = [
                WallCell(c.sample, families[c.signs], c.signs, labels)
                for c in surviving
            ]
            walls.append(Wall(dec.lines[idx], tuple(cells_out)))

    # one chamber per family (GIT class): the chamber faces come sorted by
    # sample, so each family's first face has its least sample
    least: dict[int, Face] = {}
    for face in dec.chambers():
        if families[face.signs] is not None:
            least.setdefault(families[face.signs], face)
    chambers = [
        Chamber(f.sample, mask, f.signs, labels) for mask, f in least.items()
    ]

    # an incident cell lies on a line through the vertex
    vertex_faces = [
        face
        for face in dec.vertices()
        if families[face.signs] is not None
        and any(
            _incident(cell, face.signs)
            for idx, s in enumerate(face.signs)
            if not s
            for cell in surviving_by_line.get(idx, ())
        )
    ]
    vertices = [
        VertexFace(f.sample, families[f.signs], f.signs, labels)
        for f in faces_by_sample(vertex_faces)
    ]
    return ChamberComplex(
        2, tuple(walls), tuple(chambers), tuple(vertices), eff, labels
    )


# ---------------------------------------------------------------------------
# Crossing reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipReport:
    """Combinatorial shadow of a wall crossing: support families gained and
    lost from left to right, plus the strictly wall-only semistables."""

    wall_cell: WallCell
    gained: frozenset[frozenset[int]]
    lost: frozenset[frozenset[int]]
    wall_only: frozenset[frozenset[int]]
    degenerate: bool


def crossing_report(complex_: ChamberComplex, wall_cell: WallCell) -> FlipReport:
    """Support-family diff across one wall cell of the complex, from the
    side where its line is negative (rank 1: below the wall value) to the
    side where it is positive.

    Each side is the cell with its zero sign flipped, and its family is read
    from the complex's sign table, so the sides need not be the complex's
    chambers; a side outside the effective region has the empty family.  A
    cell that is not one of the complex's raises NotAdjacent.
    """
    if not any(wall_cell in wall.cells for wall in complex_.walls):
        raise NotAdjacent("not a wall cell of this complex")
    labels = complex_.labels
    signs = wall_cell.signs
    idx = signs.index(0)
    # an ineffective side has no mask (None), and is the empty family
    left, right = (labels.family(_flip(signs, idx, side)) or 0 for side in (-1, 1))
    gained, lost = right & ~left, left & ~right
    wall_only = wall_cell.mask & ~(left | right)
    return FlipReport(
        wall_cell,
        labels.supports(gained),
        labels.supports(lost),
        labels.supports(wall_only),
        not (gained or lost),
    )


# ---------------------------------------------------------------------------
# External change of one-parameter subgroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalChangeReport:
    lambda_check: bool
    mu_check: bool
    single_lambda_family: frozenset[frozenset[int]]
    single_mu_family: frozenset[frozenset[int]]

    @property
    def passed(self) -> bool:
        return self.lambda_check and self.mu_check


def _restrict(
    family: Iterable[frozenset[int]], line: int
) -> frozenset[frozenset[int]]:
    """Restrict along the extension line whose coordinates are `line` and
    `line + 1`: keep the supports containing its 0-coordinate, drop the
    line's block and relabel the coordinates above it down by two."""
    return frozenset(
        frozenset(i if i < line else i - 2 for i in s if i - line not in (0, 1))
        for s in family
        if line in s
    )


def verify_external_change(
    a: TorusAction,
    m_lambda: Sequence[int],
    m_mu: Sequence[int],
    N: int,
    epsilon: Fraction,
) -> ExternalChangeReport:
    """Check that switching the external one-parameter group is a change of
    linearisation, at the level of semistable support families.

    Builds the two single extensions and the double extension with its two
    character twists; the double family under the lambda twist, restricted
    along the mu line's nonvanishing-at-0 coordinate and projected back,
    must equal the single lambda-extension family; symmetrically for mu.
    """
    epsilon = Fraction(epsilon)
    ext_l = build_external_extension(a, m_lambda, N)
    ext_m = build_external_extension(a, m_mu, N)
    double, twist_l, twist_m = build_double_extension(
        a, m_lambda, m_mu, N, epsilon
    )

    fam_single_l = _family_at(ext_l, ext_l.twist)
    fam_single_m = _family_at(ext_m, ext_m.twist)
    fam_double_l = _family_at(double, double.twist + twist_l)
    fam_double_m = _family_at(double, double.twist + twist_m)

    # the lambda line is at coordinates n, n + 1 and the mu line after it
    n = a.num_coords
    return ExternalChangeReport(
        _restrict(fam_double_l, n + 2) == fam_single_l,
        _restrict(fam_double_m, n) == fam_single_m,
        fam_single_l,
        fam_single_m,
    )
