import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from gitloci.action import TorusAction, build_external_extension, build_product_action
from gitloci.polytope import (
    Arrangement2D,
    Line2D,
    chamber_decomposition_2d,
    convex_hull_2d,
    convex_hull_2d_int,
)
from gitloci.qpoly import InnerProduct, RationalVector
from gitloci.vgit import (
    Chamber,
    ChamberComplex,
    DegenerateWeights,
    IneffectiveTwist,
    NotAdjacent,
    Wall,
    WallCell,
    _assemble,
    _expanded_region,
    _family_at,
    _flip,
    _rank2_walls,
    _SignFamilies,
    crossing_report,
    effective_cone,
    git_class,
    verify_external_change,
    wall_chamber_decomposition,
)
from oracles import (
    chamber_decomposition_2d_fraction,
    flip_families,
    line_side,
    line_through,
)

V = RationalVector
IP1 = InnerProduct.identity(1)
IP2 = InnerProduct.identity(2)


def _a1():
    return TorusAction(1, [V([-1]), V([0]), V([2])], IP1)


def _sec71():
    w = [V([1, 0]), V([0, 1]), V([-1, -1])]
    fV = TorusAction(2, w, IP2)
    fVd = TorusAction(2, [-x for x in w], IP2)
    return build_product_action([fV, fV, fVd])


def test_effective_cone_examples():
    eff = effective_cone(_a1())
    assert eff.vertices == ((-1,), (2,))
    assert eff.contains(V([Fraction(1, 2)]))
    assert eff.contains(V([-1]))
    assert not eff.contains(V([3]))

    single = effective_cone(TorusAction(1, [V([5])], IP1))
    assert single.vertices == ((5,),)
    assert single.contains(V([5])) and not single.contains(V([4]))

    hexagon = effective_cone(_sec71())
    assert len(hexagon.vertices) == 6


def test_wall_chamber_rank1_example():
    cc = wall_chamber_decomposition(_a1())
    assert cc.wall_values() == [-1, 0, 2]
    assert [ch.interval for ch in cc.chambers] == [
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(2)),
    ]
    # chambers sharing a wall carry distinct families
    assert cc.chambers[0].family != cc.chambers[1].family


def test_wall_chamber_rank1_two_weights():
    a = TorusAction(1, [V([0]), V([1])], IP1)
    cc = wall_chamber_decomposition(a)
    assert cc.wall_values() == [0, 1]
    assert [ch.interval for ch in cc.chambers] == [(Fraction(0), Fraction(1))]


def test_git_class_examples():
    a = _a1()
    fam = git_class(a, V([Fraction(-1, 2)]))
    assert fam == frozenset(
        {frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})}
    )
    # two twists in one chamber give identical families
    assert fam == git_class(a, V([Fraction(-9, 10)]))
    # the wall family strictly contains the intersection of its neighbours
    wall = git_class(a, V([0]))
    left = git_class(a, V([Fraction(-1, 2)]))
    right = git_class(a, V([1]))
    assert wall > (left & right)
    with pytest.raises(IneffectiveTwist):
        git_class(a, V([3]))


def test_effectiveness_iff_nonempty_family():
    a = _a1()
    eff = effective_cone(a)
    for num in range(-30, 50, 7):
        chi = V([Fraction(num, 10)])
        if eff.contains(chi):
            assert git_class(a, chi)
        else:
            with pytest.raises(IneffectiveTwist):
                git_class(a, chi)


def test_crossing_report_rank1():
    a = _a1()
    cc = wall_chamber_decomposition(a)
    wall0 = next(w for w in cc.walls if w.cells[0].sample.entries[0] == 0)
    left = next(ch for ch in cc.chambers if ch.interval == (Fraction(-1), Fraction(0)))
    right = next(ch for ch in cc.chambers if ch.interval == (Fraction(0), Fraction(2)))
    rep = crossing_report(cc, wall0.cells[0])
    assert rep.gained == frozenset({frozenset({1, 2})})
    assert rep.lost == frozenset({frozenset({0, 1})})
    # the support of the weight-0 coordinate is semistable on the wall only
    assert rep.wall_only == frozenset({frozenset({1})})
    assert not rep.degenerate
    # the wall family is the side families plus the wall-only semistables
    assert wall0.cells[0].family == left.family | right.family | rep.wall_only
    # below the least weight no support is semistable
    low = next(w for w in cc.walls if w.cells[0].sample.entries[0] == -1)
    rep = crossing_report(cc, low.cells[0])
    assert rep.lost == frozenset()
    assert rep.gained == git_class(a, V([Fraction(-1, 2)]))
    with pytest.raises(NotAdjacent):
        crossing_report(cc, wall_chamber_decomposition(_sec71()).walls[0].cells[0])


def test_rank1_cells_sign_the_wall_values(ex1_7):
    # every wall cell has one zero, at its own wall, and each crossing reads
    # its sides' families: the neighbouring chambers', or empty past the ends
    rng = random.Random(2504)
    actions = [ex1_7.action, _a1(), TorusAction(1, [V([5])], IP1)]
    for _ in range(8):
        factors = [
            TorusAction(1, [[rng.randint(-3, 3)] for _ in range(rng.randint(1, 3))], IP1)
            for _ in range(rng.randint(1, 3))
        ]
        actions.append(build_product_action(factors))
    for a in actions:
        cc = wall_chamber_decomposition(a)
        values = cc.wall_values()
        n = len(values)
        for k, wall in enumerate(cc.walls):
            assert wall.cells[0].signs == tuple((k > i) - (k < i) for i in range(n))
        for ch in cc.chambers:
            (q,) = ch.sample.entries
            assert ch.signs == tuple((q > v) - (q < v) for v in values)
        ends = [values[0] - 1, *values, values[-1] + 1]
        mids = [V([Fraction(x + y, 2)]) for x, y in zip(ends, ends[1:])]
        for k, wall in enumerate(cc.walls):
            (cell,) = wall.cells
            lo, hi = _family_or_empty(a, mids[k]), _family_or_empty(a, mids[k + 1])
            rep = crossing_report(cc, cell)
            assert rep == flip_families(lo, hi, cell.family, cell), (a.weights, k)


def test_crossing_report_rank2_sec71():
    # every one-zero wall cell whose two sides are both chambers of the
    # complex: the report is the git_class difference at the two samples
    a = _sec71()
    cc = wall_chamber_decomposition(a)
    by_signs = {ch.signs: ch for ch in cc.chambers}
    crossed = 0
    for cell in (cell for wall in cc.walls for cell in wall.cells):
        (idx,) = [i for i, s in enumerate(cell.signs) if s == 0]
        left = by_signs.get(_flip(cell.signs, idx, -1))
        right = by_signs.get(_flip(cell.signs, idx, 1))
        if left is None or right is None:
            continue
        rep = crossing_report(cc, cell)
        lo, hi = git_class(a, left.sample), git_class(a, right.sample)
        assert (lo, hi) == (left.family, right.family)
        assert (rep.gained, rep.lost) == (hi - lo, lo - hi)
        assert rep.wall_only == cell.family - (lo | hi)
        assert rep.degenerate == (lo == hi)
        crossed += 1
        # a cell the complex does not have
        with pytest.raises(NotAdjacent):
            crossing_report(cc, dataclasses.replace(cell, signs=left.signs))
    assert crossed == 15


def _off_cell_twists(a, line, sample):
    """Twists just off a wall cell, sample -/+ delta * normal: delta is below
    half the distance, along the normal, from the sample to every line
    through two distinct weights that the sample is off."""
    n = V([line.a, line.b])
    delta = Fraction(1)
    for p, q in itertools.combinations(a.support_weights(), 2):
        other = line_through(p, q)
        rate = abs(other.a * line.a + other.b * line.b)
        gap = abs(V([other.a, other.b]).dot(sample) - other.c)
        if rate and gap:
            delta = min(delta, gap / (2 * rate))
    return sample - n.scale(delta), sample + n.scale(delta)


def _family_or_empty(a, chi):
    try:
        return git_class(a, chi)
    except IneffectiveTwist:
        return frozenset()


def test_crossing_report_every_sec71_wall_cell():
    # each side of a one-zero wall cell is read from the cell itself, also
    # on the effective region's edges, where the outer side is empty
    a = _sec71()
    cc = wall_chamber_decomposition(a)
    cells = [(w.line, c) for w in cc.walls for c in w.cells]
    assert len(cells) == 24
    one_sided = 0
    for line, cell in cells:
        lo, hi = (_family_or_empty(a, t) for t in _off_cell_twists(a, line, cell.sample))
        rep = crossing_report(cc, cell)
        assert (rep.gained, rep.lost) == (hi - lo, lo - hi)
        assert rep.wall_only == cell.family - (lo | hi)
        assert rep.degenerate == (lo == hi)
        assert rep.wall_cell == cell
        one_sided += not (lo and hi)
    assert one_sided == 9


def test_flip_report_degenerate_flag():
    # one wall value: {0} is semistable everywhere, {1} only on the wall
    fam = frozenset({frozenset({0})})
    wall = frozenset({frozenset({0}), frozenset({1})})
    labels = _SignFamilies(sorted(wall, key=sorted), [[], [(0, 1), (0, -1)]], 1)
    cell = WallCell(V([0]), labels.family((0,)), (0,), labels)
    cc = ChamberComplex(
        1, (Wall(Line2D(1, 0, 0), (cell,)),), (), (), effective_cone(_a1()), labels
    )
    rep = crossing_report(cc, cell)
    assert rep == flip_families(fam, fam, wall, cell)
    assert rep.degenerate
    assert rep.wall_only == frozenset({frozenset({1})})


def test_chamber_invariance_random_twists():
    a = _a1()
    rng = random.Random(314)
    cc = wall_chamber_decomposition(a)
    for ch in cc.chambers:
        lo, hi = ch.interval
        base = git_class(a, ch.sample)
        for _ in range(50):
            t = lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)
            assert git_class(a, V([t])) == base
    # distinct chambers: distinct families
    fams = [ch.family for ch in cc.chambers]
    assert len(set(fams)) == len(fams)


def test_wall_chamber_rank2_triangle():
    # single projective plane: every interior twist sees the same family,
    # the walls are the three hull edges
    a = TorusAction(2, [V([1, 0]), V([0, 1]), V([-1, -1])], IP2)
    cc = wall_chamber_decomposition(a)
    assert len(cc.chambers) == 1
    assert len(cc.walls) == 3
    assert len(cc.vertices) == 3
    full = frozenset({frozenset({0, 1, 2})})
    assert cc.chambers[0].family == full
    for w in cc.walls:
        for cell in w.cells:
            assert cell.family > full


def test_wall_chamber_rank2_matches_grid_oracle():
    a = TorusAction(2, [V([1, 0]), V([-1, 0]), V([0, 1]), V([0, -1])], IP2)
    cc = wall_chamber_decomposition(a)
    # oracle: distinct families over a dense rational grid, off the walls
    fams_grid = set()
    for i in range(-8, 9):
        for j in range(-8, 9):
            chi = V([Fraction(i, 4), Fraction(j, 4)])
            if any(line_side(w.line, chi) == 0 for w in cc.walls):
                continue
            try:
                fams_grid.add(git_class(a, chi))
            except IneffectiveTwist:
                pass
    assert {ch.family for ch in cc.chambers} == fams_grid


def test_spurious_cells_pruned_and_chambers_merged():
    # the x-axis line through (0,0), (1,0) extends past the weight pair into
    # the effective hull; there no support is strictly semistable, so those
    # cells are not walls and their neighbours merge
    a = TorusAction(2, [V([0, 0]), V([1, 0]), V([5, 5]), V([5, -5])], IP2)
    cc = wall_chamber_decomposition(a)
    families = [ch.family for ch in cc.chambers]
    assert len(families) == len(set(families)) == 3
    grid_families = set()
    for i in range(0, 44):
        for j in range(-44, 45):
            chi = V([Fraction(i, 8), Fraction(j, 8)])
            if any(line_side(w.line, chi) == 0 for w in cc.walls):
                continue
            try:
                grid_families.add(git_class(a, chi))
            except IneffectiveTwist:
                continue
    assert grid_families == set(families)
    # every surviving cell changes the family across or on it
    by_signs = {ch.signs: ch.family for ch in cc.chambers}
    for wall_idx, w in enumerate(cc.walls):
        for cell in w.cells:
            zero_at = [i for i, s in enumerate(cell.signs) if s == 0]
            sides = []
            for z in zero_at:
                for s in (1, -1):
                    sv = list(cell.signs)
                    sv[z] = s
                    fam = by_signs.get(tuple(sv))
                    if fam is not None:
                        sides.append(fam)
            assert any(f != cell.family for f in sides) or len(sides) < 2


def test_wall_chamber_degenerate_weights():
    with pytest.raises(DegenerateWeights):
        wall_chamber_decomposition(
            TorusAction(2, [V([0, 0]), V([1, 1]), V([2, 2])], IP2)
        )


def test_sec71_chamber_count_matches_sign_oracle():
    prod = _sec71()
    cc = wall_chamber_decomposition(prod)
    assert len(cc.chambers) >= 2
    # oracle: families seen on a grid over the hexagon, off all walls
    fams_grid = set()
    for i in range(-7, 8):
        for j in range(-7, 8):
            chi = V([Fraction(i, 2), Fraction(j, 2)])
            if any(line_side(w.line, chi) == 0 for w in cc.walls):
                continue
            try:
                fams_grid.add(git_class(prod, chi))
            except IneffectiveTwist:
                pass
    assert fams_grid == {ch.family for ch in cc.chambers}
    # chambers adjacent across a wall have distinct families
    by_signs = {ch.signs: ch for ch in cc.chambers}
    for idx, wall in enumerate(cc.walls):
        line_pos = [k for k, ln in enumerate(
            [w.line for w in cc.walls]) if ln == wall.line][0]
        for cell in wall.cells:
            sides = []
            for s in (1, -1):
                signs = list(cell.signs)
                signs[line_pos] = s
                ch = by_signs.get(tuple(signs))
                if ch is not None:
                    sides.append(ch.family)
            if len(sides) == 2:
                assert sides[0] != sides[1]


def test_external_change_toy_passes_and_control_fails(external_toy, mistwist_lambda):
    spec = external_toy
    ext = spec.external
    rep = verify_external_change(
        spec.action,
        ext["m_lambda"],
        ext["m_mu"],
        ext["N"],
        Fraction(ext["epsilon"]),
    )
    assert rep.lambda_check and rep.mu_check and rep.passed
    # deliberately mis-twisted control: (0, N + r_lambda + 1)
    mistwist_lambda(V([0, 0, Fraction(11)]))
    rep_bad = verify_external_change(
        spec.action,
        ext["m_lambda"],
        ext["m_mu"],
        ext["N"],
        Fraction(ext["epsilon"]),
    )
    assert not rep_bad.lambda_check


def test_external_change_on_a_rank3_base(mistwist_lambda):
    # sec7_1 with one external axis: the four families come off the
    # per-factor tables, exact at every rank
    base = build_external_extension(_sec71(), [i % 3 for i in range(9)], 10)
    base = base.with_twist(V([Fraction(1, 3), Fraction(1, 5), 1]))
    m_lambda = [int(i in (2, 10)) for i in range(11)]
    m_mu = [int(i == 5) for i in range(11)]
    rep = verify_external_change(base, m_lambda, m_mu, 10, Fraction(1, 2))
    assert rep.passed
    assert (len(rep.single_lambda_family), len(rep.single_mu_family)) == (72, 84)
    mistwist_lambda(V([0, 0, 0, 0, Fraction(21, 2)]))
    control = verify_external_change(base, m_lambda, m_mu, 10, Fraction(1, 2))
    assert not control.lambda_check


def test_external_change_trivial_weights_degenerate():
    a = TorusAction(1, [V([0]), V([0])], IP1)
    rep = verify_external_change(a, [0, 0], [0, 0], 8, Fraction(1, 2))
    assert rep.passed
    assert rep.single_lambda_family == rep.single_mu_family


def test_finiteness_grid_families_equal_face_count():
    # distinct families over a dense rational grid of effective twists match
    # the faces of the complex exactly (rank 1: walls + chambers)
    a = _a1()
    cc = wall_chamber_decomposition(a)
    face_families = {w.cells[0].family for w in cc.walls} | {
        ch.family for ch in cc.chambers
    }
    grid_families = set()
    for n in range(-10, 21):
        chi = V([Fraction(n, 10)])
        try:
            grid_families.add(git_class(a, chi))
        except IneffectiveTwist:
            continue
    assert grid_families == face_families
    assert len(face_families) == len(cc.walls) + len(cc.chambers)


def test_monotonicity_wall_contains_neighbour_intersection():
    for a in (_a1(), TorusAction(1, [V([-2]), V([-1]), V([1]), V([3])], IP1)):
        cc = wall_chamber_decomposition(a)
        chambers = {ch.interval: ch.family for ch in cc.chambers}
        for w in cc.walls:
            at = w.cells[0].sample.entries[0]
            left = next(
                (f for (lo, hi), f in chambers.items() if hi == at), None
            )
            right = next(
                (f for (lo, hi), f in chambers.items() if lo == at), None
            )
            if left is not None and right is not None:
                assert w.cells[0].family >= (left & right)


# ---------------------------------------------------------------------------
# Sign-vector face labels against the hull-membership oracle
# ---------------------------------------------------------------------------


def _first_pass(a):
    """The decomposition of all pair lines of the distinct weights in the
    expanded region, a refinement of the complex's arrangement."""
    weights = a.support_weights()
    lines = [line_through(p, q) for p, q in itertools.combinations(weights, 2)]
    region = _expanded_region(effective_cone(a).vertices)
    return chamber_decomposition_2d(Arrangement2D(lines, region))


def _random_p2xp2(rng):
    while True:
        a = build_product_action(
            [
                TorusAction(
                    2,
                    [V([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(3)],
                    IP2,
                )
                for _ in range(2)
            ]
        )
        weights = a.support_weights()
        # at most 7 distinct weights keeps the oracle's face count small
        if len(weights) <= 7 and len(convex_hull_2d_int(weights)) >= 3:
            return a


def _hull_shapes(a):
    """Which hull kinds the supports of a rank-2 action exercise."""
    shapes = set()
    for sp in a.iter_supports():
        weights = a.segre_weights(sp)
        distinct = {w.entries for w in weights}
        hull = convex_hull_2d(weights)
        if len(distinct) < len(weights):
            shapes.add("coinciding")
        if len(hull) == 1:
            shapes.add("point")
        elif len(hull) == 2:
            shapes.add("segment" if len(distinct) == 2 else "collinear3")
        else:
            shapes.add("polygon")
    return shapes


def _projected(a, dec):
    """The wall lines, their labels, and each face's family from its signs
    on the wall lines, which are among the lines of `dec`."""
    walls, labels = _rank2_walls(a)
    pos = [dec.lines.index(ln) for ln in walls]
    families = {f.signs: labels.family([f.signs[k] for k in pos]) for f in dec.faces}
    return walls, labels, families


def _rendered(labels, mask):
    return None if mask is None else labels.supports(mask)


def _collinear_and_coinciding():
    line = TorusAction(2, [V([0, 0]), V([1, 0]), V([2, 0])], IP2)
    plane = TorusAction(2, [V([0, 0]), V([1, 0]), V([0, 1])], IP2)
    return [
        build_product_action([line, plane]),  # three collinear weights
        build_product_action([plane, plane]),  # coinciding Segre weights
    ]


def test_sign_labels_match_family_oracle_rank2():
    rng = random.Random(20260)
    actions = _collinear_and_coinciding() + [_random_p2xp2(rng) for _ in range(10)]
    shapes = set()
    for a in actions:
        shapes |= _hull_shapes(a)
        dec = _first_pass(a)
        _, labels, families = _projected(a, dec)
        assert {f.kind for f in dec.faces} == {"chamber", "cell", "vertex"}
        for face in dec.faces:
            expected = _family_at(a, face.sample) or None
            got = _rendered(labels, families[face.signs])
            assert got == expected, (a.weights, face)
    assert shapes >= {"point", "segment", "collinear3", "polygon", "coinciding"}


def test_sign_labels_match_family_oracle_sec71_sample():
    a = _sec71()
    dec = _first_pass(a)
    _, labels, families = _projected(a, dec)
    faces = random.Random(71).sample(list(dec.faces), 100)
    assert {f.kind for f in faces} == {"chamber", "cell", "vertex"}
    for face in faces:
        expected = _family_at(a, face.sample) or None
        assert _rendered(labels, families[face.signs]) == expected, face


def test_sign_labels_match_family_oracle_rank1():
    rng = random.Random(1712)
    actions = [
        _a1(),
        TorusAction(1, [V([5])], IP1),
        build_product_action([_a1(), TorusAction(1, [V([0]), V([0]), V([3])], IP1)]),
    ]
    for _ in range(6):
        factors = []
        for _ in range(rng.randint(1, 3)):
            weights = [V([rng.randint(-3, 3)]) for _ in range(rng.randint(1, 3))]
            factors.append(TorusAction(1, weights, IP1))
        actions.append(build_product_action(factors))
    for a in actions:
        values = [Fraction(v) for (v,) in a.support_weights()]
        labels = wall_chamber_decomposition(a).labels
        probes = set(values) | {values[0] - 1, values[-1] + 1}
        probes |= {(lo + hi) / 2 for lo, hi in zip(values, values[1:])}
        for q in sorted(probes):
            signs = [(q > v) - (q < v) for v in values]
            expected = _family_at(a, V([q])) or None
            assert _rendered(labels, labels.family(signs)) == expected, (a.weights, q)
        assert wall_chamber_decomposition(a).wall_values() == values


# ---------------------------------------------------------------------------
# Edge-line walls against the pipeline that pruned all pair lines
# ---------------------------------------------------------------------------


def _contributing_lines(dec, families):
    """The lines of `dec` with a cell where the family changes across the
    line or on it, or that bounds the effective region."""
    keep = set()
    for face in dec.cells():
        fam = families[face.signs]
        if fam is None:
            continue
        idx = face.line_index
        sides = [families.get(_flip(face.signs, idx, s)) for s in (1, -1)]
        if all(f is None for f in sides) or any(
            f is not None and f != fam for f in sides
        ):
            keep.add(idx)
    return sorted(keep)


def _pruned_complex(a):
    """The complex from all pair lines: decompose them, keep the lines on
    which the family changes, decompose the kept lines afresh and label each
    face by the wall lines' signs at its sample."""
    eff = effective_cone(a)
    dec = _first_pass(a)
    walls, labels, families = _projected(a, dec)
    kept = [dec.lines[k] for k in _contributing_lines(dec, families)]
    dec = chamber_decomposition_2d(Arrangement2D(kept, _expanded_region(eff.vertices)))
    families = {
        f.signs: labels.family([line_side(ln, f.sample) for ln in walls])
        for f in dec.faces
    }
    return _assemble(dec, families, labels, eff)


def _p4():
    w = [V([1, 0]), V([0, 1]), V([-1, -1])]
    fV = TorusAction(2, w, IP2)
    fVd = TorusAction(2, [-x for x in w], IP2)
    return build_product_action([fV, fV, fVd, fV])


def _p3g():
    return build_product_action(
        [
            TorusAction(2, [V([1, 0]), V([0, 1]), V([-1, -1])], IP2),
            TorusAction(2, [V([2, 0]), V([0, 1]), V([-1, -2])], IP2),
            TorusAction(2, [V([-1, 0]), V([0, -1]), V([1, 1])], IP2),
        ]
    )


def test_edge_line_walls_match_pruned_pair_lines():
    rng = random.Random(6421)
    actions = [_random_p2xp2(rng) for _ in range(8)]
    actions += _collinear_and_coinciding() + [_sec71(), _p3g(), _p4()]
    for a in actions:
        cc = wall_chamber_decomposition(a)
        assert cc == _pruned_complex(a), a.weights
        assert cc.walls and cc.chambers
    # the pair lines of sec7_1 outnumber its walls
    assert len(_first_pass(_sec71()).lines) > len(
        wall_chamber_decomposition(_sec71()).walls
    )


# ---------------------------------------------------------------------------
# Integer edge lines against the Fraction edge lines they replaced
# ---------------------------------------------------------------------------


def _fraction_walls(a, weights):
    """The edge lines, their sign table at the weights and the support
    conditions, found on `Fraction`s: `line_through` per hull edge and
    `line_side` per weight, as `_rank2_walls` did before integer triples."""
    position = {tuple(map(int, w.entries)): k for k, w in enumerate(weights)}

    @functools.cache
    def through(p, q):
        return line_through(weights[p], weights[q])

    hulls, edges = [], set()
    for sp in a.iter_supports():
        hull = [position[v] for v in convex_hull_2d_int(a.support_weights(sp))]
        hulls.append((sp.support, hull))
        if len(hull) > 1:
            edges.update(through(p, q) for p, q in zip(hull, hull[1:] + hull[:1]))
    sides = {ln: tuple(line_side(ln, w) for w in weights) for ln in edges}
    lines = sorted(
        edges, key=lambda ln: [k for k, s in enumerate(sides[ln]) if not s][:2]
    )
    index = {ln: i for i, ln in enumerate(lines)}
    table = [sides[ln] for ln in lines]
    at = [[i for i, row in enumerate(table) if not row[k]] for k in range(len(weights))]
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
    return lines, table, keys, conditions


def _random_rank2(rng):
    """A product of 2 or 3 factors of 1 to 4 coordinates, weights in
    [-3, 3]^2, whose weights are not all collinear."""
    while True:
        a = build_product_action(
            [
                TorusAction(
                    2,
                    [
                        V([rng.randint(-3, 3), rng.randint(-3, 3)])
                        for _ in range(rng.randint(1, 4))
                    ],
                    IP2,
                )
                for _ in range(rng.randint(2, 3))
            ]
        )
        if len(convex_hull_2d_int(a.support_weights())) >= 3:
            return a


def test_integer_edge_lines_match_fraction_oracle():
    # the walls are the oracle's edge lines, and their families, though
    # built from other conditions, are the oracle's on every face of the
    # walls' arrangement and on both sides of every cell
    rng = random.Random(1123)
    repeated = TorusAction(2, [V([0, 0]), V([0, 0]), V([1, 0])], IP2)
    plane = TorusAction(2, [V([0, 0]), V([1, 0]), V([0, 1])], IP2)
    actions = _collinear_and_coinciding() + [_sec71(), _p3g(), _p4()]
    actions.append(build_product_action([repeated, plane]))
    actions += [_random_p2xp2(rng) for _ in range(6)]
    actions += [_random_rank2(rng) for _ in range(12)]
    hull_sizes = set()
    for a in actions:
        lines, labels = _rank2_walls(a)
        weights = [V(w) for w in a.support_weights()]
        o_lines, _, o_keys, o_conditions = _fraction_walls(a, weights)
        assert lines == o_lines, a.weights
        oracle = _SignFamilies(o_keys, o_conditions, len(o_lines))
        region = _expanded_region(effective_cone(a).vertices)
        dec = chamber_decomposition_2d(Arrangement2D(lines, region))
        signs = [f.signs for f in dec.faces]
        signs += [_flip(c.signs, c.line_index, s) for c in dec.cells() for s in (1, -1)]
        for sv in signs:
            got = _rendered(labels, labels.family(sv))
            assert got == _rendered(oracle, oracle.family(sv)), (a.weights, sv)
        hull_sizes |= {
            min(len(convex_hull_2d_int(a.support_weights(sp))), 3)
            for sp in a.iter_supports()
        }
    assert hull_sizes == {1, 2, 3}  # point, segment and polygon supports


def test_walls_build_no_hull_per_support(monkeypatch):
    # walls and families come off per-factor values and tables: one hull,
    # of all the weights, and no sumset for any support
    from gitloci import polytope

    calls = {"convex_hull_2d_int": 0, "support_weights": 0}
    hull, weights = polytope.convex_hull_2d_int, TorusAction.support_weights

    def counted_hull(points):
        calls["convex_hull_2d_int"] += 1
        return hull(points)

    def counted_weights(self, support=None):
        calls["support_weights"] += support is not None
        return weights(self, support)

    monkeypatch.setattr(polytope, "convex_hull_2d_int", counted_hull)
    monkeypatch.setattr(TorusAction, "support_weights", counted_weights)
    assert wall_chamber_decomposition(_sec71()).walls
    assert calls == {"convex_hull_2d_int": 1, "support_weights": 0}


def _wall_arrangement(a):
    lines, _ = _rank2_walls(a)
    return Arrangement2D(lines, _expanded_region(effective_cone(a).vertices))


def test_decomposition_builds_no_fraction_arithmetic(monkeypatch):
    # each line works on one integer scale: Fractions are only built for the
    # faces' samples, and compared by the final chamber sort
    arr = _wall_arrangement(_sec71())
    calls = dict.fromkeys(
        ["__hash__", "__add__", "__sub__", "__mul__", "__rmul__", "__truediv__"], 0
    )

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Fraction, name, counted(name))
    dec = chamber_decomposition_2d(arr)
    monkeypatch.undo()
    assert calls == dict.fromkeys(calls, 0)
    assert len(dec.faces) == 133


def _p2xp2_image(rng):
    """A seeded P2 x P2 product under an integral affine map: a unimodular
    matrix from three shears and a translation per factor."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for _ in range(3):
        k = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    factors = []
    for _ in range(2):
        tx, ty = rng.randint(-2, 2), rng.randint(-2, 2)
        weights = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        moved = [V([a * x + b * y + tx, c * x + d * y + ty]) for x, y in weights]
        factors.append(TorusAction(2, moved, IP2))
    return build_product_action(factors)


def test_complex_arrangements_decompose_as_the_fraction_kernel():
    rng = random.Random(2207)
    actions = [_sec71(), _p3g(), _p4()]
    while len(actions) < 9:
        a = _p2xp2_image(rng)
        if len(convex_hull_2d_int(a.support_weights())) >= 3:
            actions.append(a)
    for a in actions:
        arr = _wall_arrangement(a)
        dec = chamber_decomposition_2d(arr)
        assert dec == chamber_decomposition_2d_fraction(arr)
        # `_assemble` groups the cells by line in the order they come
        indices = [c.line_index for c in dec.cells()]
        assert indices == sorted(indices)


def test_assembled_order_is_the_fraction_order():
    # `_assemble` sorts each line's wall cells and the vertices on integer
    # keys over one common denominator: the order of their Fraction samples
    rng = random.Random(6007)
    actions = [_sec71(), _p3g(), *(_p2xp2_image(rng) for _ in range(8))]
    denominators = set()
    for a in actions:
        if len(convex_hull_2d_int(a.support_weights())) < 3:
            continue
        cc = wall_chamber_decomposition(a)
        for wall in cc.walls:
            samples = [c.sample.entries for c in wall.cells]
            assert samples == sorted(samples), a.weights
        points = [v.point.entries for v in cc.vertices]
        assert points == sorted(points), a.weights
        denominators |= {q.denominator for p in points for q in p}
    # vertices on lines of different scales are compared
    assert len(denominators) > 2


# ---------------------------------------------------------------------------
# One chamber per GIT class against the union-find over cells
# ---------------------------------------------------------------------------


def _union_find_chambers(dec, families, labels):
    """The chambers as a union-find over the cells found them: the two
    sides of a cell whose family equals both of theirs are one chamber,
    sampled at its least sample."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for face in dec.cells():
        fam = families[face.signs]
        idx = face.line_index
        left, right = _flip(face.signs, idx, 1), _flip(face.signs, idx, -1)
        if fam is not None and families.get(left) == families.get(right) == fam:
            roots = find(left), find(right)
            parent[max(roots)] = min(roots)
    groups = {}
    for face in dec.chambers():
        if families[face.signs] is not None:
            groups.setdefault(find(face.signs), []).append(face)
    chambers = []
    for members in groups.values():
        assert len({families[f.signs] for f in members}) == 1
        rep = min(members, key=lambda f: f.sample.entries)
        chambers.append(Chamber(rep.sample, families[rep.signs], rep.signs, labels))
    return sorted(chambers, key=lambda c: c.sample.entries)


def test_chambers_are_the_union_find_git_classes():
    rng = random.Random(3571)
    actions = _collinear_and_coinciding() + [_sec71()]
    actions += [_random_rank2(rng) for _ in range(12)]
    hull_sizes, merged = set(), 0
    for a in actions:
        lines, labels = _rank2_walls(a)
        region = _expanded_region(convex_hull_2d_int(a.support_weights()))
        dec = chamber_decomposition_2d(Arrangement2D(lines, region))
        families = {f.signs: labels.family(f.signs) for f in dec.faces}
        chambers = wall_chamber_decomposition(a).chambers
        assert list(chambers) == _union_find_chambers(dec, families, labels), a.weights
        # no two chambers share a family
        assert len({c.family for c in chambers}) == len(chambers), a.weights
        merged += len(dec.chambers()) > len(chambers)
        hull_sizes |= {
            min(len(convex_hull_2d_int(a.support_weights(sp))), 3)
            for sp in a.iter_supports()
        }
    assert hull_sizes == {1, 2, 3}  # point, segment and polygon supports
    assert merged  # chamber faces joined across cells occur


# ---------------------------------------------------------------------------
# Vertices against a brute-force wall oracle
# ---------------------------------------------------------------------------


def _crossing(l1, l2):
    (a1, b1, c1), (a2, b2, c2) = (l1.a, l1.b, l1.c), (l2.a, l2.b, l2.c)
    det = a1 * b2 - b1 * a2
    if det == 0:
        return None
    return V([Fraction(c1 * b2 - b1 * c2, det), Fraction(a1 * c2 - c1 * a2, det)])


def _half_step(lines, x, v):
    """Half the least t > 0 at which x + t * v meets one of the lines (1 if
    none), so that x + step * v lies on no line strictly between."""
    normals = [(V([ln.a, ln.b]), ln.c) for ln in lines]
    ts = [(c - n.dot(x)) / n.dot(v) for n, c in normals if n.dot(v) != 0]
    return min((t for t in ts if t > 0), default=Fraction(2)) / 2


def _wall_vertices_oracle(a, cc):
    """The crossings of the complex's wall lines inside the effective region
    where a wall reaches: beside the crossing on some wall line through it,
    the family there is nonempty and not the family on both sides off that
    line.  Steps stay short of every pair line of the weights, on which all
    family changes lie.  Families are from `git_class` (hull membership)."""
    weights = a.support_weights()
    pair_lines = {line_through(p, q) for p, q in itertools.combinations(weights, 2)}
    crossings = {}
    for w1, w2 in itertools.combinations(cc.walls, 2):
        p = _crossing(w1.line, w2.line)
        if p is not None and cc.effective.contains(p):
            crossings[p.entries] = p

    def wall_reaches(p):
        for wall in cc.walls:
            if line_side(wall.line, p) != 0:
                continue
            ln = wall.line
            n, d = V([ln.a, ln.b]), V([-ln.b, ln.a])
            for v in (d, -d):
                x = p + v.scale(_half_step(pair_lines, p, v))
                here = _family_at(a, x)
                sides = [
                    _family_at(a, x + m.scale(_half_step(pair_lines, x, m)))
                    for m in (n, -n)
                ]
                if here and not sides[0] == sides[1] == here:
                    return True
        return False

    out = {k: git_class(a, p) for k, p in crossings.items() if wall_reaches(p)}
    return out, len(crossings)


def test_vertices_match_wall_oracle():
    rng = random.Random(4141)
    partial_walls = build_product_action(
        [
            TorusAction(2, [V([3, 1]), V([0, 1]), V([3, -3])], IP2),
            TorusAction(2, [V([-2, 2]), V([3, 0]), V([0, 2])], IP2),
        ]
    )
    actions = [_sec71(), partial_walls] + [_random_p2xp2(rng) for _ in range(6)]
    triple = partial = 0
    for a in actions:
        cc = wall_chamber_decomposition(a)
        expected, crossings = _wall_vertices_oracle(a, cc)
        assert {v.point.entries: v.family for v in cc.vertices} == expected
        triple += sum(sum(s == 0 for s in v.signs) >= 3 for v in cc.vertices)
        partial += crossings - len(expected)
        if a is actions[0]:
            assert len(cc.vertices) == 12  # sec7_1's triple points
    # triple points of walls (lost before) and crossings of wall lines where
    # no wall reaches both occur
    assert triple and partial


def _shuffled(a, rng):
    """The action with its coordinates shuffled within each factor (never
    all fixed), and the map from old to new coordinate indices."""
    while True:
        new_of = {}
        for blk in a.factor_partition:
            new_of.update(zip(blk, rng.sample(blk, len(blk))))
        if any(old != new for old, new in new_of.items()):
            break
    weights = [None] * len(a.weights)
    for old, new in new_of.items():
        weights[new] = a.weights[old]
    return TorusAction(a.rank, weights, a.ip, a.twist, a.factor_partition), new_of


def test_rank2_complex_invariant_under_coordinate_shuffles():
    rng = random.Random(1597)
    for a in (_sec71(), _random_p2xp2(rng)):
        cc = wall_chamber_decomposition(a)
        assert cc.walls and cc.chambers and cc.vertices
        for _ in range(3):
            b, new_of = _shuffled(a, rng)
            cc2 = wall_chamber_decomposition(b)

            def moved(family):
                return frozenset(frozenset(new_of[i] for i in s) for s in family)

            assert [w.line for w in cc2.walls] == [w.line for w in cc.walls]
            for w, w2 in zip(cc.walls, cc2.walls):
                assert [(c.sample, c.signs) for c in w2.cells] == [
                    (c.sample, c.signs) for c in w.cells
                ]
                assert [c.family for c in w2.cells] == [moved(c.family) for c in w.cells]
            assert [(c.sample, c.signs) for c in cc2.chambers] == [
                (c.sample, c.signs) for c in cc.chambers
            ]
            assert [c.family for c in cc2.chambers] == [moved(c.family) for c in cc.chambers]
            assert [(v.point, v.signs) for v in cc2.vertices] == [
                (v.point, v.signs) for v in cc.vertices
            ]
            assert [v.family for v in cc2.vertices] == [moved(v.family) for v in cc.vertices]
