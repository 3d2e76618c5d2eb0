import random
from fractions import Fraction

import pytest

from gitloci.polytope import (
    Arrangement2D,
    Cone,
    DimensionMismatch,
    EmptyRegion,
    Halfspace,
    HullPosition,
    Line2D,
    PointSet,
    chamber_decomposition_2d,
    convex_hull_2d,
    facet_normal_candidates,
    hull_membership,
    min_norm_point,
    min_norm_point_oracle,
)
from gitloci.qpoly import InnerProduct, RationalVector

V = RationalVector
IP2 = InnerProduct.identity(2)


def test_hull_membership_examples():
    S = PointSet([V([-1, 0]), V([1, 0]), V([0, 1])])
    assert hull_membership(S, V([0, 0])) is HullPosition.BOUNDARY
    S = PointSet([V([-1, -1]), V([1, 0]), V([0, 1])])
    assert hull_membership(S, V([0, 0])) is HullPosition.INTERIOR
    S = PointSet([V([1, 0]), V([0, 1])])
    assert hull_membership(S, V([0, 0])) is HullPosition.OUTSIDE


def test_hull_membership_lower_dimensional_is_never_interior():
    segment = PointSet([V([-1, 0]), V([1, 0])])
    assert hull_membership(segment, V([0, 0])) is HullPosition.BOUNDARY
    assert hull_membership(segment, V([0, 0]), relative=True) is HullPosition.INTERIOR
    point = PointSet([V([0, 0])])
    assert hull_membership(point, V([0, 0])) is HullPosition.BOUNDARY
    with pytest.raises(DimensionMismatch):
        hull_membership(segment, V([0]))


def test_hull_membership_dim3_lp_path():
    S = PointSet(
        [V([1, 0, 0]), V([-1, 0, 0]), V([0, 1, 0]), V([0, -1, 0]), V([0, 0, 1]), V([0, 0, -1])]
    )
    assert hull_membership(S, V([0, 0, 0])) is HullPosition.INTERIOR
    assert hull_membership(S, V([1, 1, 1])) is HullPosition.OUTSIDE
    assert hull_membership(S, V([Fraction(1, 2), Fraction(1, 2), 0])) is HullPosition.BOUNDARY


def test_min_norm_point_examples():
    assert min_norm_point(PointSet([V([2, 0]), V([0, 2])]), IP2) == V([1, 1])
    assert min_norm_point(PointSet([V([-1, 0]), V([1, 0]), V([0, 1])]), IP2).is_zero()
    assert min_norm_point(PointSet([V([1, 2]), V([2, 1])]), IP2) == V(
        [Fraction(3, 2), Fraction(3, 2)]
    )


def test_min_norm_oracle_examples():
    assert min_norm_point_oracle(PointSet([V([2, 0]), V([0, 2])]), IP2) == V([1, 1])
    ip1 = InnerProduct.identity(2)
    assert min_norm_point_oracle(PointSet([V([3, 0])]), ip1) == V([3, 0])
    # a dominated point does not move the minimum
    assert min_norm_point_oracle(
        PointSet([V([1, 2]), V([2, 1]), V([3, 3])]), IP2
    ) == V([Fraction(3, 2), Fraction(3, 2)])


def test_wolfe_equals_oracle_randomised():
    rng = random.Random(1729)
    for trial in range(200):
        dim = rng.choice([1, 2, 3])
        npts = rng.randint(1, 8)
        pts = [
            V([Fraction(rng.randint(-5, 5)) for _ in range(dim)])
            for _ in range(npts)
        ]
        ip = InnerProduct.identity(dim)
        S = PointSet(pts)
        assert min_norm_point(S, ip) == min_norm_point_oracle(S, ip), (trial, pts)


def test_wolfe_equals_oracle_nontrivial_form():
    rng = random.Random(42)
    ip = InnerProduct([[2, 1], [1, 3]])
    for _ in range(60):
        pts = [
            V([Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))])
            for _ in range(rng.randint(1, 6))
        ]
        S = PointSet(pts)
        assert min_norm_point(S, ip) == min_norm_point_oracle(S, ip)


def test_min_norm_consistency_with_membership():
    rng = random.Random(3)
    for _ in range(120):
        dim = rng.choice([1, 2, 3])
        pts = [
            V([Fraction(rng.randint(-5, 5)) for _ in range(dim)])
            for _ in range(rng.randint(1, 6))
        ]
        ip = InnerProduct.identity(dim)
        S = PointSet(pts)
        mnp = min_norm_point(S, ip)
        origin = V([Fraction(0)] * dim)
        # the minimiser is never outside the hull
        assert hull_membership(S, mnp) is not HullPosition.OUTSIDE
        # membership of the origin is equivalent to a zero minimiser
        inside = hull_membership(S, origin) is not HullPosition.OUTSIDE
        assert inside == mnp.is_zero()


def test_facet_normal_candidates_certify_membership():
    rng = random.Random(11)
    for _ in range(150):
        pts = [
            V([Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))])
            for _ in range(rng.randint(1, 6))
        ]
        S = PointSet(pts)
        outside = hull_membership(S, V([0, 0])) is HullPosition.OUTSIDE
        separated = any(
            min(d.dot(p) for p in pts) > 0 for d in facet_normal_candidates(pts)
        )
        assert outside == separated


def _square(side: int = 2):
    s = Fraction(side)
    return [
        Halfspace(V([1, 0]), -s, True),
        Halfspace(V([-1, 0]), -s, True),
        Halfspace(V([0, 1]), -s, True),
        Halfspace(V([0, -1]), -s, True),
    ]


def test_chamber_decomposition_one_line():
    dec = chamber_decomposition_2d(
        Arrangement2D([Line2D.canonical(V([1, 0]), Fraction(0))], _square())
    )
    assert len(dec.chambers()) == 2
    assert len(dec.cells()) == 1
    assert len(dec.vertices()) == 0


def test_chamber_decomposition_two_crossing_lines():
    dec = chamber_decomposition_2d(
        Arrangement2D(
            [
                Line2D.canonical(V([1, 0]), Fraction(0)),
                Line2D.canonical(V([0, 1]), Fraction(0)),
            ],
            _square(),
        )
    )
    assert len(dec.chambers()) == 4
    assert len(dec.cells()) == 4
    assert len(dec.vertices()) == 1


def test_chamber_decomposition_matches_sign_sweep_oracle():
    # three rays through the origin inside the halfplane x > 0, mirroring the
    # rank-1 ray picture with slopes -1, 0, 2
    lines = [Line2D.canonical(V([a, -1]), Fraction(0)) for a in (-1, 0, 2)]
    region = [Halfspace(V([1, 0]), Fraction(0), True)]
    dec = chamber_decomposition_2d(Arrangement2D(lines, region))

    # oracle: sign vectors realised on a dense rational grid
    seen = set()
    for i in range(1, 60):
        for j in range(-120, 121):
            x, y = Fraction(i, 4), Fraction(j, 4)
            signs = tuple(
                (v > 0) - (v < 0)
                for v in (ln.normal.dot(V([x, y])) - ln.offset for ln in dec.lines)
            )
            if 0 not in signs:
                seen.add(signs)
    assert len(dec.chambers()) == len(seen) == 4
    assert {f.signs for f in dec.chambers()} == seen
    assert len(dec.cells()) == 3
    assert len(dec.vertices()) == 0


def test_chamber_faces_disjoint_and_signs_reproduce():
    lines = [
        Line2D.canonical(V([1, 0]), Fraction(0)),
        Line2D.canonical(V([0, 1]), Fraction(0)),
        Line2D.canonical(V([1, 1]), Fraction(1)),
    ]
    dec = chamber_decomposition_2d(Arrangement2D(lines, _square(3)))
    sign_vectors = [f.signs for f in dec.faces]
    assert len(sign_vectors) == len(set(sign_vectors))
    for f in dec.faces:
        recomputed = tuple(ln.side(f.sample) for ln in dec.lines)
        assert recomputed == f.signs
        zeros = sum(1 for s in f.signs if s == 0)
        if f.kind == "chamber":
            assert zeros == 0
        elif f.kind == "cell":
            assert zeros == 1
        else:
            assert zeros >= 2


def test_empty_region_raises():
    region = [
        Halfspace(V([1, 0]), Fraction(1), True),
        Halfspace(V([-1, 0]), Fraction(0), True),
    ]
    with pytest.raises(EmptyRegion):
        chamber_decomposition_2d(Arrangement2D([], region))


def test_convex_hull_2d_strict_vertices():
    pts = [V([0, 0]), V([2, 0]), V([1, 0]), V([2, 2]), V([0, 2]), V([1, 1])]
    hull = convex_hull_2d(pts)
    assert {tuple(p.entries) for p in hull} == {(0, 0), (2, 0), (2, 2), (0, 2)}


def test_hull_membership_2d_fast_path_agrees_with_lp():
    # the orientation predicates (rank 2) and the interval test (rank 1) are
    # optimisations over the simplex route; they must classify identically
    from gitloci.polytope import _hull_membership_2d, _hull_membership_lp

    rng = random.Random(314159)
    cases = [([V([3])], V([3])), ([V([3]), V([3])], V([3])), ([V([1]), V([3])], V([3]))]
    for _ in range(150):
        pts = [V([rng.randint(-4, 4)]) for _ in range(rng.randint(1, 4))]
        cases.append((pts, V([Fraction(rng.randint(-9, 9), 2)])))
    for pts, q in cases:
        diffs = [p - q for p in PointSet(pts).deduplicated()]
        for relative in (False, True):
            assert hull_membership(
                PointSet(pts), q, relative=relative
            ) == _hull_membership_lp(diffs, 1, relative), (pts, q, relative)

    rng = random.Random(271828)
    for _ in range(150):
        pts = [
            V([Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))])
            for _ in range(rng.randint(1, 6))
        ]
        q = V([Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2)])
        diffs = [p - q for p in PointSet(pts).deduplicated()]
        for relative in (False, True):
            assert _hull_membership_2d(diffs, relative) == _hull_membership_lp(
                diffs, 2, relative
            )


def _random_arrangement(rng, centre):
    """Canonical lines: a pencil of three through `centre`, a parallel pair
    on either side of it, and two random lines."""

    def normal():
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if (a, b) != (0, 0):
                return V([a, b])

    pencil = set()
    while len(pencil) < 3:
        n = normal()
        pencil.add(Line2D.canonical(n, n.dot(centre)))
    n = normal()
    lines = sorted(pencil, key=lambda ln: (ln.normal.entries, ln.offset))
    lines += [Line2D.canonical(n, n.dot(centre) + k) for k in (-1, 1)]
    for _ in range(2):
        offset = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        lines.append(Line2D.canonical(normal(), offset))
    return lines


def test_chamber_signs_reproduce_on_random_arrangements():
    rng = random.Random(5762)
    cone = Cone([(V([1, 0]), True), (V([1, 2]), False)])
    for trial in range(16):
        if trial % 2:
            region = cone.to_region()
            centre = V([rng.randint(1, 3), rng.randint(0, 2)])
        else:
            region = _square(3)
            centre = V([rng.randint(-2, 2), rng.randint(-2, 2)])
        lines = _random_arrangement(rng, centre)
        dec = chamber_decomposition_2d(Arrangement2D(lines, region))
        assert any(
            f.kind == "vertex" and sum(s == 0 for s in f.signs) >= 3
            for f in dec.faces
        )
        assert len({f.signs for f in dec.faces}) == len(dec.faces)
        for f in dec.faces:
            assert tuple(ln.side(f.sample) for ln in dec.lines) == f.signs, (trial, f)
            assert all(hs.normal.dot(f.sample) > hs.offset for hs in region)
        flipped = set()
        for cell in dec.cells():
            for side in (1, -1):
                sv = list(cell.signs)
                sv[cell.line_index] = side
                flipped.add(tuple(sv))
        assert {f.signs for f in dec.chambers()} == flipped
        # oracle: sign vectors of grid points inside the region, off all lines
        for i in range(-11, 12):
            for j in range(-11, 12):
                x = V([Fraction(i, 4), Fraction(j, 4)])
                signs = tuple(ln.side(x) for ln in dec.lines)
                inside = all(hs.normal.dot(x) > hs.offset for hs in region)
                if inside and 0 not in signs:
                    assert signs in flipped, (trial, x)
