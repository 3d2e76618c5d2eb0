"""Variation of the quotient over the space of rational character twists.

The ample-scaling direction is normalised away: only the character twist
varies, so the parameter space is the weight plane (rank 2) or the weight
line (rank 1).  A wall is where some support becomes strictly semistable,
which is on the boundary of that support's weight hull.  So in rank 2 every
wall lies on a hull-edge line, the line of a polygon hull's edge or of a
segment hull itself, and the complex is the one arrangement of those lines,
decomposed once and labelled face by face.  Wall lines are found,
deduplicated, ordered and signed as canonical integer triples (a, b, c) of
a*x + b*y = c; each distinct one becomes a `Line2D` once, for the
arrangement and the report.

Families are read off sign vectors, with no hull arithmetic per face.  A
twist is in a polygon hull iff it is on no edge line's outer side.  A
segment or point hull is cut out the same way by its own line and by other
edge lines through its endpoints, which exist unless all weights are
collinear.  So each support is a short list of (line, forbidden sign)
conditions, checked against a face's signs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .action import (
    TorusAction,
    build_double_extension,
    build_external_extension,
)
from .polytope import (
    Arrangement2D,
    Decomposition,
    Face,
    Halfspace,
    HullPosition,
    Line2D,
    PointSet,
    RationalVector,
    _signs,
    chamber_decomposition_2d,
    convex_hull_2d,
    convex_hull_2d_int,
    hull_membership,
    hull_position,
    primitive_line,
)
from .qpoly import row_reduce
from .stability import RankUnsupported


class IneffectiveTwist(ValueError):
    pass


class NotAdjacent(ValueError):
    pass


class DegenerateWeights(ValueError):
    pass


@dataclass(frozen=True)
class EffectiveRegion:
    """Hull of all Segre weights: exactly the twists admitting a semistable
    support."""

    dim: int
    vertices: tuple[RationalVector, ...]

    def contains(self, chi: RationalVector) -> bool:
        pts = PointSet(self.vertices)
        return hull_membership(pts, chi) is not HullPosition.OUTSIDE


def effective_cone(a: TorusAction) -> EffectiveRegion:
    """The effective twists, as the hull of all Segre weights."""
    if a.rank > 2:
        raise RankUnsupported("effective region is exact for rank <= 2 only")
    weights = a.distinct_segre_weights()
    if a.rank == 1:
        vals = sorted(w.entries[0] for w in weights)
        verts = [RationalVector([vals[0]])]
        if vals[-1] != vals[0]:
            verts.append(RationalVector([vals[-1]]))
        return EffectiveRegion(1, tuple(verts))
    return EffectiveRegion(2, tuple(convex_hull_2d(weights)))


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
        sp.support
        for sp in a.iter_supports()
        if hull_position(a.support_weights(sp), chi) is not HullPosition.OUTSIDE
    )


class _SignFamilies:
    """Support families as a function of a face's sign vector.

    Each support's hull becomes a few conditions (index, forbidden sign): the
    support is semistable on a face exactly when no condition's index carries
    its forbidden sign there.  Per index and sign, the supports forbidding it
    form one bitmask, so a family costs one OR per index.  Families stay
    bitmasks, which compare as families do, until `supports` renders one.
    """

    def __init__(
        self,
        keys: Sequence[frozenset[int]],
        conditions: Sequence[Sequence[tuple[int, int]]],
        width: int,
    ):
        self._keys = tuple(keys)
        self._forbid = [[0, 0, 0] for _ in range(width)]  # by sign + 1
        for bit, conds in enumerate(conditions):
            for k, sign in conds:
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
            bits = bin(mask)[:1:-1]  # bit i at position i
            family = frozenset(k for k, b in zip(self._keys, bits) if b == "1")
            self._rendered[mask] = family
        return family


def _rank1_families(a: TorusAction, values: Sequence[Fraction]) -> _SignFamilies:
    """Families over the signs of q - v for the sorted distinct weight values
    v: a support is semistable iff q >= its least and q <= its greatest."""
    position = {v: i for i, v in enumerate(values)}
    keys, conditions = [], []
    for sp in a.iter_supports():
        ws = a.support_weights(sp)  # sorted, so the extremes come first and last
        keys.append(sp.support)
        conditions.append([(position[ws[0][0]], -1), (position[ws[-1][0]], 1)])
    return _SignFamilies(keys, conditions, len(values))


def _rank2_walls(
    a: TorusAction, weights: Sequence[RationalVector]
) -> tuple[list[Line2D], list[tuple[int, ...]], _SignFamilies]:
    """The hull-edge lines of the supports, in the order in which their
    first pair of (distinct) weights comes among all pairs, their sign table
    (a row of signs at the weights per line) and the families over their
    signs.

    A polygon hull forbids the outer side of each edge's line.  A segment
    forbids both sides of its own line, and beyond each endpoint the far side
    of another edge line through that endpoint.  A point forbids both sides
    of the first two edge lines through it.  Those lines exist: a weight p
    with one coordinate added is a segment support at p, and if all of these
    segments were parallel every weight would lie on one line through p.
    """
    points = [tuple(map(int, w.entries)) for w in weights]
    position = {v: k for k, v in enumerate(points)}

    @functools.cache
    def through(p: int, q: int) -> tuple[int, int, int]:
        (px, py), (qx, qy) = points[p], points[q]
        nx, ny = py - qy, qx - px
        return primitive_line(nx, ny, nx * px + ny * py)

    hulls = []
    edges: set[tuple[int, int, int]] = set()
    for sp in a.iter_supports():
        hull = [position[v] for v in convex_hull_2d_int(a.support_weights(sp))]
        hulls.append((sp.support, hull))
        if len(hull) > 1:
            edges.update(through(p, q) for p, q in zip(hull, hull[1:] + hull[:1]))
    sides = {
        (nx, ny, c): _signs(nx * x + ny * y - c for x, y in points)
        for nx, ny, c in edges
    }

    def first_pair(ln: tuple[int, int, int]) -> list[int]:
        return [k for k, s in enumerate(sides[ln]) if not s][:2]

    triples = sorted(edges, key=first_pair)
    index = {ln: i for i, ln in enumerate(triples)}
    table = [sides[ln] for ln in triples]
    # the edge lines through each weight, in line order
    at = [[i for i, row in enumerate(table) if not row[k]] for k in range(len(points))]

    keys, conditions = [], []
    for support, hull in hulls:
        n = len(hull)
        if n >= 3:
            edge = [index[through(hull[i], hull[(i + 1) % n])] for i in range(n)]
            conds = [(e, -table[e][hull[(i + 2) % n]]) for i, e in enumerate(edge)]
        elif n == 2:
            p, q = hull
            own = index[through(p, q)]
            tp = next(i for i in at[p] if i != own)
            tq = next(i for i in at[q] if i != own)
            conds = [(own, 1), (own, -1), (tp, -table[tp][q]), (tq, -table[tq][p])]
        else:
            conds = [(i, s) for i in at[hull[0]][:2] for s in (1, -1)]
        keys.append(support)
        conditions.append(conds)
    lines = [Line2D.from_triple(ln) for ln in triples]
    return lines, table, _SignFamilies(keys, conditions, len(lines))


# ---------------------------------------------------------------------------
# Chamber complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallCell:
    sample: RationalVector
    interval: Optional[tuple[Optional[Fraction], Optional[Fraction]]]
    family: frozenset[frozenset[int]]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class Wall:
    line: Line2D
    cells: tuple[WallCell, ...]


@dataclass(frozen=True)
class Chamber:
    sample: RationalVector
    family: frozenset[frozenset[int]]
    signs: tuple[int, ...]
    interval: Optional[tuple[Fraction, Fraction]] = None  # rank 1 only


@dataclass(frozen=True)
class VertexFace:
    point: RationalVector
    family: frozenset[frozenset[int]]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class ChamberComplex:
    rank: int
    walls: tuple[Wall, ...]
    chambers: tuple[Chamber, ...]
    vertices: tuple[VertexFace, ...]
    effective: EffectiveRegion

    def wall_values(self) -> list[Fraction]:
        """Rank-1 wall positions."""
        if self.rank != 1:
            raise RankUnsupported("wall values are a rank-1 notion")
        return sorted(w.cells[0].sample.entries[0] for w in self.walls)


def wall_chamber_decomposition(a: TorusAction) -> ChamberComplex:
    """Walls, chambers and cells of the twist space, with support families.

    Rank >= 3 has no face graph here; use wall_hyperplane_candidates for the
    raw hyperplane list.
    """
    if a.rank == 1:
        return _rank1_complex(a)
    if a.rank == 2:
        return _rank2_complex(a)
    raise RankUnsupported("wall/chamber enumeration is exact for rank <= 2 only")


def wall_hyperplane_candidates(
    a: TorusAction,
) -> list[tuple[RationalVector, Fraction]]:
    """Candidate wall hyperplanes in any rank, as (normal, offset) pairs.

    These are the affine hyperplanes spanned by affinely independent
    rank-tuples of distinct weights (weight values themselves in rank 1),
    deduplicated and canonically scaled.  Over-generated: no pruning and no
    face graph in rank >= 3.
    """
    weights = a.distinct_segre_weights()
    if a.rank == 1:
        return [
            (RationalVector([1]), w.entries[0])
            for w in sorted(weights, key=lambda v: v.entries)
        ]
    seen: dict[tuple, tuple[RationalVector, Fraction]] = {}
    for combo in itertools.combinations(weights, a.rank):
        # the normal spans the kernel of the difference rows; affinely
        # dependent points leave a kernel of dimension >= 2
        rows, pivots, _ = row_reduce([(p - combo[0]).entries for p in combo[1:]])
        free = [c for c in range(a.rank) if c not in pivots]
        if len(free) != 1:
            continue
        entries = [Fraction(0)] * a.rank
        entries[free[0]] = Fraction(1)
        for row, pc in zip(rows, pivots):
            entries[pc] = -row[free[0]]
        normal = RationalVector(entries)
        offset = normal.dot(combo[0])
        triple = RationalVector(list(normal.entries) + [offset]).primitive_integral()
        lead = next(v for v in triple.entries[:-1] if v != 0)
        if lead < 0:
            triple = -triple
        key = triple.entries
        seen.setdefault(
            key, (RationalVector(triple.entries[:-1]), triple.entries[-1])
        )
    return [seen[k] for k in sorted(seen)]


def _rank1_complex(a: TorusAction) -> ChamberComplex:
    eff = effective_cone(a)
    values = sorted({w.entries[0] for w in a.distinct_segre_weights()})
    labels = _rank1_families(a, values)

    def family(q: Fraction) -> frozenset[frozenset[int]]:
        return labels.supports(labels.family([(q > v) - (q < v) for v in values]))

    # every value is a wall, as the point support there is semistable only
    # there, and every twist between values is effective
    walls = tuple(
        Wall(
            Line2D(RationalVector([1, 0]), v),
            (WallCell(RationalVector([v]), None, family(v), (0,)),),
        )
        for v in values
    )
    chambers = tuple(
        Chamber(RationalVector([(lo + hi) / 2]), family((lo + hi) / 2), (), (lo, hi))
        for lo, hi in zip(values, values[1:])
    )
    return ChamberComplex(1, walls, chambers, (), eff)


def _rank2_complex(a: TorusAction) -> ChamberComplex:
    eff = effective_cone(a)
    weights = a.distinct_segre_weights()
    if len(weights) == 1:
        raise DegenerateWeights("a single weight gives a point effective region")
    hull = list(eff.vertices)
    if len(hull) < 3:
        raise DegenerateWeights(
            "all weights are collinear: the effective region has no interior"
        )
    lines, _, labels = _rank2_walls(a, weights)
    dec = chamber_decomposition_2d(Arrangement2D(lines, _expanded_region(hull)))
    families = {face.signs: labels.family(face.signs) for face in dec.faces}
    return _assemble(dec, families, labels, eff)


def _expanded_region(hull: Sequence[RationalVector]) -> list[Halfspace]:
    n = len(hull)
    cx = sum((v.entries[0] for v in hull), Fraction(0)) / n
    cy = sum((v.entries[1] for v in hull), Fraction(0)) / n
    centre = RationalVector([cx, cy])
    expanded = [centre + (v - centre).scale(2) for v in hull]
    region = []
    for i in range(n):
        p, q = expanded[i], expanded[(i + 1) % n]
        d = q - p
        inner = RationalVector([-d.entries[1], d.entries[0]])  # CCW inner normal
        region.append(Halfspace(inner, inner.dot(p), True))
    return region


_Families = dict[tuple[int, ...], Optional[int]]


def _cells_by_line(dec: Decomposition) -> dict[int, list[Face]]:
    out: dict[int, list[Face]] = {}
    for face in dec.cells():
        out.setdefault(face.line_index, []).append(face)
    return out


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
    # semistability and their neighbours merge into one chamber
    parent: dict[tuple[int, ...], tuple[int, ...]] = {}

    def family(signs: tuple[int, ...]) -> frozenset[frozenset[int]]:
        return labels.supports(families[signs])

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    walls = []
    surviving_by_line: dict[int, list[tuple[int, ...]]] = {}
    for idx, cells in sorted(_cells_by_line(dec).items()):
        surviving = []
        for face in cells:
            fam = families[face.signs]
            if fam is None:
                continue
            left = _flip(face.signs, idx, 1)
            right = _flip(face.signs, idx, -1)
            lf, rf = families.get(left), families.get(right)
            if lf is not None and rf is not None and lf == rf == fam:
                union(left, right)
            else:
                surviving.append(face)
        if surviving:
            surviving.sort(key=lambda c: c.sample.sort_key())
            surviving_by_line[idx] = [c.signs for c in surviving]
            cells_out = [
                WallCell(c.sample, c.interval, family(c.signs), c.signs)
                for c in surviving
            ]
            walls.append(Wall(dec.lines[idx], tuple(cells_out)))

    groups: dict[tuple[int, ...], list[Face]] = {}
    for face in dec.chambers():
        if families[face.signs] is None:
            continue
        groups.setdefault(find(face.signs), []).append(face)
    chambers = []
    for root, members in groups.items():
        rep = min(members, key=lambda f: f.sample.sort_key())
        fams = {families[f.signs] for f in members}
        assert len(fams) == 1, "merged chambers must share one family"
        chambers.append(Chamber(rep.sample, family(rep.signs), rep.signs))
    chambers.sort(key=lambda c: c.sample.sort_key())

    vertices = []
    for face in dec.vertices():
        # an incident cell lies on a line through the vertex
        if families[face.signs] is not None and any(
            _incident(cell, face.signs)
            for idx, s in enumerate(face.signs)
            if not s
            for cell in surviving_by_line.get(idx, ())
        ):
            vertices.append(VertexFace(face.sample, family(face.signs), face.signs))
    vertices.sort(key=lambda v: v.point.sort_key())
    return ChamberComplex(2, tuple(walls), tuple(chambers), tuple(vertices), eff)


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


def _flip_families(
    left: frozenset[frozenset[int]],
    right: frozenset[frozenset[int]],
    wall: frozenset[frozenset[int]],
    cell: WallCell,
) -> FlipReport:
    gained = right - left
    lost = left - right
    wall_only = wall - (left | right)
    return FlipReport(cell, gained, lost, wall_only, not gained and not lost)


def crossing_report(
    a: TorusAction,
    complex_: ChamberComplex,
    wall_cell: WallCell,
    chamber_left: Chamber,
    chamber_right: Chamber,
) -> FlipReport:
    """Support-family diff across one wall cell.

    The chambers must be the two faces obtained from the cell by resolving
    its zero sign; anything else raises NotAdjacent.
    """
    if complex_.rank == 1:
        v = wall_cell.sample.entries[0]
        lo_ok = chamber_left.interval and chamber_left.interval[1] == v
        hi_ok = chamber_right.interval and chamber_right.interval[0] == v
        if not (lo_ok and hi_ok):
            raise NotAdjacent("chambers do not meet the wall from both sides")
    else:
        zero_at = [i for i, s in enumerate(wall_cell.signs) if s == 0]
        if len(zero_at) != 1:
            raise NotAdjacent("not a one-codimensional wall cell")
        idx = zero_at[0]
        expect = {_flip(wall_cell.signs, idx, 1), _flip(wall_cell.signs, idx, -1)}
        if {chamber_left.signs, chamber_right.signs} != expect:
            raise NotAdjacent("chambers are not the two sides of this cell")
    return _flip_families(
        chamber_left.family, chamber_right.family, wall_cell.family, wall_cell
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
    double_lambda_family: frozenset[frozenset[int]]
    double_mu_family: frozenset[frozenset[int]]

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
    *,
    twist_lambda_override: Optional[RationalVector] = None,
    twist_mu_override: Optional[RationalVector] = None,
) -> ExternalChangeReport:
    """Check that switching the external one-parameter group is a change of
    linearisation, at the level of semistable support families.

    Builds the two single extensions and the double extension with its two
    character twists; the double family under the lambda twist, restricted
    along the mu line's nonvanishing-at-0 coordinate and projected back,
    must equal the single lambda-extension family; symmetrically for mu.
    Twist overrides exist for negative controls.
    """
    if a.rank > 2:
        raise RankUnsupported("external-change check is exact for rank <= 2 only")
    epsilon = Fraction(epsilon)
    r_lambda = min(int(v) for v in m_lambda)
    r_mu = min(int(v) for v in m_mu)
    ext_l = build_external_extension(a, m_lambda, N)
    ext_m = build_external_extension(a, m_mu, N)
    double, twist_l, twist_m = build_double_extension(
        a, m_lambda, m_mu, N, r_lambda, r_mu, epsilon
    )
    if twist_lambda_override is not None:
        twist_l = twist_lambda_override
    if twist_mu_override is not None:
        twist_m = twist_mu_override

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
        fam_double_l,
        fam_double_m,
    )
