import itertools
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
    _bordered_solve,
    _combination,
    _gram,
    chamber_decomposition_2d,
    convex_hull_2d,
    corral_points,
    hull_membership,
    hull_min_norm,
    hull_position,
    min_norm_point,
    min_norm_point_oracle,
    region_interior_point,
)
from gitloci.linprog import OPTIMAL, lp_maximize_free
from gitloci.qpoly import InnerProduct, RationalVector, clear_denominators
from gitloci.vgit import _expanded_region
from oracles import facet_normal_candidates, row_reduce

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


def _reference_affine_min_norm(pts, ip):
    """The affine minimum-norm point and its coefficients from the KKT
    system [[G, 1], [1^T, 0]] [a; nu] = [0; 1] row-reduced over Fractions,
    or None when it is singular (affinely dependent points)."""
    k = len(pts)
    rows = [[ip.pairing(p, q) for q in pts] + [Fraction(1), Fraction(0)] for p in pts]
    rows.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    reduced, _, det = row_reduce(rows)
    if det == 0:
        return None
    coeffs = [row[-1] for row in reduced[:k]]
    y = RationalVector.zero(pts[0].dim)
    for a, p in zip(coeffs, pts):
        y = y + p.scale(a)
    return y, coeffs


def _reference_corral_points(points, ip):
    for size in range(1, min(len(points), points[0].dim + 1) + 1):
        for subset in itertools.combinations(points, size):
            solved = _reference_affine_min_norm(subset, ip)
            if solved is not None and all(a >= 0 for a in solved[1]):
                yield solved[0]


_FORMS = {
    1: [InnerProduct([[1]]), InnerProduct([[3]])],
    2: [
        InnerProduct.identity(2),
        InnerProduct([[2, 1], [1, 3]]),
        InnerProduct([[3, -1], [-1, 2]]),
    ],
    3: [InnerProduct.identity(3), InnerProduct([[2, 1, 0], [1, 2, 1], [0, 1, 2]])],
}


def _rational_cases(seed, count):
    """Rational point sets in dims 1-3 with denominators 2, 3 or 7 under
    identity and non-identity forms; some carry the midpoint of two of
    their points, so that small subsets are affinely dependent."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.choice([1, 2, 3])
        den = rng.choice([2, 3, 7])
        pts = [
            V([Fraction(rng.randint(-9, 9), rng.choice([1, den])) for _ in range(dim)])
            for _ in range(rng.randint(1, 6))
        ]
        if len(pts) > 1 and rng.random() < 0.5:
            pts.append((pts[0] + pts[1]).scale(Fraction(1, 2)))
        yield PointSet(pts), rng.choice(_FORMS[dim])


def test_bordered_solve_matches_rational_kkt_reference():
    dependent = 0
    for S, ip in _rational_cases(2718, 150):
        pts = S.deduplicated()
        ints, d = clear_denominators(p.entries for p in pts)
        gram = _gram(ints, ip)
        for size in range(1, min(len(pts), S.dim + 2) + 1):
            for subset in itertools.combinations(range(len(pts)), size):
                want = _reference_affine_min_norm([pts[i] for i in subset], ip)
                coeffs = _bordered_solve(gram, subset)
                if want is None:
                    dependent += 1
                    assert coeffs is None, ([pts[i] for i in subset], ip.gram)
                    continue
                assert sum(coeffs) > 0  # the sign tests read the numerators
                assert [Fraction(c, sum(coeffs)) for c in coeffs] == want[1]
                assert _combination(ints, subset, coeffs, d) == want[0]
    assert dependent > 100  # the dependent subsets are exercised


def test_corral_points_match_rational_reference_in_order():
    for S, ip in _rational_cases(3141, 150):
        pts = S.deduplicated()
        assert list(corral_points(pts, ip)) == list(_reference_corral_points(pts, ip))


def test_wolfe_meets_variational_certificate_on_rational_points():
    # x is the minimum-norm point of conv(S) iff x is in conv(S) and
    # <x, p>_G >= |x|^2_G for every p in S: a check that solves nothing
    for S, ip in _rational_cases(1618, 150):
        x = min_norm_point(S, ip)
        assert hull_membership(S, x) is not HullPosition.OUTSIDE
        assert all(ip.pairing(x, p) >= ip.norm_sq(x) for p in S.points)
        assert x == min_norm_point_oracle(S, ip)


def test_hull_min_norm_is_wolfe_on_shifted_points():
    rng = random.Random(577)
    for S, ip in _rational_cases(577, 60):
        ints, _ = clear_denominators(p.entries for p in S.points)
        q = V(
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(S.dim)]
        )
        shifted = PointSet(V(p) - q for p in ints)
        assert hull_min_norm(ints, q, ip) == min_norm_point(shifted, ip)


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


def test_line_canonical_is_the_primitive_integral_triple():
    # the primitive integral multiple of (normal, offset), negated where the
    # normal's leading nonzero entry is negative
    rng = random.Random(529)
    for _ in range(300):
        normal = V([Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2)])
        if normal.is_zero():
            continue
        offset = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        prim = V([*normal.entries, offset]).primitive_integral()
        if next(v for v in prim.entries[:2] if v) < 0:
            prim = -prim
        line = Line2D.canonical(normal, offset)
        assert (*line.normal.entries, line.offset) == prim.entries
        assert all(type(e) is Fraction for e in (*line.normal.entries, line.offset))
        assert Line2D.canonical(normal.scale(-3), -3 * offset) == line
    with pytest.raises(ValueError):
        Line2D.canonical(V([0, 0]), Fraction(1))


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
    disjoint = [
        Halfspace(V([1, 0]), Fraction(1), True),
        Halfspace(V([-1, 0]), Fraction(0), True),
    ]
    # a line without interior: x >= 0 and -x >= 0
    flat = [
        Halfspace(V([1, 0]), Fraction(0), False),
        Halfspace(V([-1, 0]), Fraction(0), False),
    ]
    # no lines; a line along the flat region; a line across it
    axes = [Line2D.canonical(n, Fraction(0)) for n in (V([1, 0]), V([0, 1]))]
    line_sets = [[], axes[:1], axes[1:]]
    for region in (disjoint, flat):
        for lines in line_sets:
            with pytest.raises(EmptyRegion):
                chamber_decomposition_2d(Arrangement2D(lines, region))


def test_convex_hull_2d_strict_vertices():
    pts = [V([0, 0]), V([2, 0]), V([1, 0]), V([2, 2]), V([0, 2]), V([1, 1])]
    hull = convex_hull_2d(pts)
    assert {tuple(p.entries) for p in hull} == {(0, 0), (2, 0), (2, 2), (0, 2)}


def test_hull_membership_2d_fast_path_agrees_with_lp():
    # the orientation predicates (rank 2) and the interval test (rank 1) are
    # optimisations over the simplex route; they must classify identically
    from gitloci.polytope import _hull_membership_lp

    rng = random.Random(314159)
    cases = [([V([3])], V([3])), ([V([3]), V([3])], V([3])), ([V([1]), V([3])], V([3]))]
    for _ in range(150):
        pts = [V([rng.randint(-4, 4)]) for _ in range(rng.randint(1, 4))]
        cases.append((pts, V([Fraction(rng.randint(-9, 9), 2)])))
    for pts, q in cases:
        uniq = PointSet(pts).deduplicated()
        diffs, _ = clear_denominators((p - q).entries for p in uniq)
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
        uniq = PointSet(pts).deduplicated()
        diffs, _ = clear_denominators((p - q).entries for p in uniq)
        ints = [tuple(int(e) for e in p.entries) for p in pts]
        for relative in (False, True):
            assert hull_position(ints, q, relative=relative) == _hull_membership_lp(
                diffs, 2, relative
            )


def _kernel_queries(rng, pts):
    """Twists on the points, at midpoints of pairs of them (every hull edge's
    among them), at their centroid, and at random rationals with
    denominators 1 to 7."""
    dim = len(pts[0])
    out = [V(p) for p in pts]
    out.append(V([Fraction(sum(c), len(pts)) for c in zip(*pts)]))
    for p, q in itertools.combinations(pts, 2):
        out.append(V([Fraction(x + y, 2) for x, y in zip(p, q)]))
    for _ in range(6):
        out.append(
            V([Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(dim)])
        )
    return out


def test_hull_position_matches_lp_oracle():
    # the integer kernel against the independent simplex route, in ranks 1
    # to 3; small coordinate ranges make collinear, coplanar and repeated
    # points common, and the wrapper must agree on rescaled rational copies
    from gitloci.polytope import _hull_membership_lp

    rng = random.Random(16180)
    for dim, draws in ((1, 60), (2, 60), (3, 14)):
        for _ in range(draws):
            pts = [
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, 5 if dim < 3 else 6))
            ]
            k = rng.randint(1, 5)
            scaled = PointSet([V([Fraction(x, k) for x in p]) for p in pts])
            for q in _kernel_queries(rng, pts):
                diffs, _ = clear_denominators(
                    [x - y for x, y in zip(p, q.entries)] for p in set(pts)
                )
                for relative in (False, True):
                    want = _hull_membership_lp(diffs, dim, relative)
                    got = hull_position(pts, q, relative=relative)
                    assert got == want, (pts, q, relative)
                    q_scaled = q.scale(Fraction(1, k))
                    wrapped = hull_membership(scaled, q_scaled, relative=relative)
                    assert wrapped == want, (pts, k, q, relative)


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


def _reference_decomposition(lines, region):
    """The decomposition by the earlier algorithm: a base point per line from
    an LP for a point of the line strictly inside the region, vertices from
    pairwise intersections tested against the region, and signs from
    `Line2D.side`.  Faces are (kind, sample, signs, line_index, ends), with a
    cell's interval as its two end points (None where unbounded)."""
    if region_interior_point(region, 2) is None:
        raise EmptyRegion("region has no interior point")

    def signs_at(x):
        return tuple(ln.side(x) for ln in lines)

    bases = {}
    for i, line in enumerate(lines):
        eqs = [(list(line.normal.entries) + [0], line.offset)]
        ges = [(list(hs.normal.entries) + [-1], hs.offset) for hs in region]
        ges += [([0, 0, -1], -1), ([0, 0, 1], 0)]
        status, x, value = lp_maximize_free([0, 0, 1], eqs, ges)
        if status == OPTIMAL and value > 0:
            bases[i] = V(x[:2])
    if not bases:
        sample = region_interior_point(region, 2)
        return [("chamber", sample, signs_at(sample), None, None)]

    faces = []
    seen = set()
    for i, j in itertools.combinations(bases, 2):
        (a1, b1), (a2, b2) = lines[i].normal.entries, lines[j].normal.entries
        c1, c2 = lines[i].offset, lines[j].offset
        det = a1 * b2 - b1 * a2
        if det == 0:
            continue
        pt = V([(c1 * b2 - b1 * c2) / det, (a1 * c2 - c1 * a2) / det])
        inside = all(hs.normal.dot(pt) > hs.offset for hs in region)
        if inside and pt.entries not in seen:
            seen.add(pt.entries)
            faces.append(("vertex", pt, signs_at(pt), None, None))

    planes = [(ln.normal, ln.offset) for ln in lines]
    planes += [(hs.normal, hs.offset) for hs in region]
    chambers = {}
    for i, base in bases.items():
        line, d = lines[i], lines[i].direction()
        lo = hi = None
        for hs in region:
            nd = hs.normal.dot(d)
            if nd != 0:
                t = (hs.offset - hs.normal.dot(base)) / nd
                if nd > 0:
                    lo = t if lo is None else max(lo, t)
                else:
                    hi = t if hi is None else min(hi, t)
        cuts = set()
        for j in bases:
            nd = lines[j].normal.dot(d)
            if j != i and nd != 0:
                t = (lines[j].offset - lines[j].normal.dot(base)) / nd
                if (lo is None or t > lo) and (hi is None or t < hi):
                    cuts.add(t)
        edges = [lo, *sorted(cuts), hi]
        for a, b in zip(edges, edges[1:]):
            if a is None and b is None:
                t = Fraction(0)
            else:
                t = b - 1 if a is None else a + 1 if b is None else (a + b) / 2
            sample = base + d.scale(t)
            ends = tuple(None if e is None else base + d.scale(e) for e in (a, b))
            signs = signs_at(sample)
            faces.append(("cell", sample, signs, i, ends))
            for side in (1, -1):
                sv = signs[:i] + (side,) + signs[i + 1 :]
                if sv in chambers:
                    continue
                # half the step along side * normal to the nearest crossing
                steps = []
                for normal, offset in planes:
                    rate = side * normal.dot(line.normal)
                    if rate != 0 and (offset - normal.dot(sample)) / rate > 0:
                        steps.append((offset - normal.dot(sample)) / rate)
                step = min(steps) / 2 if steps else Fraction(1)
                chambers[sv] = sample + line.normal.scale(side * step)
    for sv, sample in sorted(chambers.items(), key=lambda kv: kv[1].entries):
        faces.append(("chamber", sample, sv, None, None))
    return faces


def _faces_with_ends(dec):
    """Faces as in `_reference_decomposition`: a rank-2 cell's interval is in
    parameters along the line's direction from its axis intercept."""
    out = []
    for f in dec.faces:
        ends = None
        if f.kind == "cell":
            line = dec.lines[f.line_index]
            a, b = line.normal.entries
            base = V([line.offset / a, 0]) if a else V([0, line.offset / b])
            d = line.direction()
            ends = tuple(None if t is None else base + d.scale(t) for t in f.interval)
        out.append((f.kind, f.sample, f.signs, f.line_index, ends))
    return out


def _differential_cases():
    rng = random.Random(8128)

    def normal():
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if (a, b) != (0, 0):
                return V([a, b])

    def point(span=4):
        return V([rng.randint(-span, span), rng.randint(-span, span)])

    for _ in range(8):  # bounded regions of the chamber complexes
        while True:
            weights = list({point().entries: None for _ in range(rng.randint(4, 6))})
            hull = convex_hull_2d([V(w) for w in weights])
            if len(hull) >= 3:
                break
        pairs = list(itertools.combinations([V(w) for w in weights], 2))
        lines = [Line2D.through(p, q) for p, q in rng.sample(pairs, min(8, len(pairs)))]
        yield "polygon", lines, _expanded_region(hull)
    for _ in range(8):  # fans: lines through the apex of a cone
        halfspaces = [(normal(), rng.random() < 0.5) for _ in range(rng.randint(1, 2))]
        cone = Cone(halfspaces)
        lines = [Line2D.canonical(normal(), Fraction(0)) for _ in range(4)]
        lines.append(Line2D.canonical(normal(), Fraction(rng.randint(1, 3))))
        yield "cone", lines, cone.to_region()
    for _ in range(4):  # the full plane
        centre = point(2)
        yield "plane", [Line2D.canonical(normal(), Fraction(rng.randint(-3, 3)))], []
        normals = [normal() for _ in range(3)]
        pencil = {Line2D.canonical(n, n.dot(centre)) for n in normals}
        yield "plane", sorted(pencil, key=lambda ln: ln.normal.entries), []
    wedge = Cone([(V([1, 0]), True), (V([1, 2]), False)]).to_region()
    for trial in range(8):  # pencils, parallel pairs and random lines
        centre = point(2)
        region = _square(3) if trial % 2 else wedge
        yield "pencil", _random_arrangement(rng, centre), region
    # halfspaces parallel to lines, which hold on them or drop them
    region = _square(3)
    parallel = [Line2D.canonical(V([0, 1]), Fraction(k)) for k in (-4, -3, 0, 2, 3)]
    parallel += [Line2D.canonical(V([1, 0]), Fraction(k, 2)) for k in (-7, -6, 1)]
    yield "parallel", parallel + [Line2D.canonical(V([1, 1]), Fraction(1))], region
    # lines that miss the region, with and without one that meets it
    miss = [Line2D.canonical(V([1, 1]), Fraction(k)) for k in (7, -9)]
    miss.append(Line2D.canonical(V([1, -2]), Fraction(12)))
    yield "miss", miss, region
    yield "miss", miss + [Line2D.canonical(V([1, 2]), Fraction(1))], region


def test_chamber_decomposition_matches_lp_reference():
    kinds = set()
    for kind, lines, region in _differential_cases():
        dec = chamber_decomposition_2d(Arrangement2D(lines, region))
        expected = _reference_decomposition(dec.lines, region)
        assert _faces_with_ends(dec) == expected, (kind, lines, region)
        kinds.add(kind)
        if kind == "miss" and len(lines) == 3:
            assert [f.kind for f in dec.faces] == ["chamber"]
        if kind == "parallel":
            assert {f.line_index for f in dec.cells()} == {2, 3, 7, 8}
    assert kinds == {"polygon", "cone", "plane", "pencil", "parallel", "miss"}


def test_non_canonical_lines_decompose_as_their_canonical_forms():
    # non-primitive, non-integral and negatively led lines, one of them twice
    raw = [
        (V([2, 0]), Fraction(2)),
        (V([-1, 1]), Fraction(1, 2)),
        (V([0, Fraction(-2, 3)]), Fraction(1)),
        (V([1, 0]), Fraction(1)),
        (V([Fraction(3, 2), 1]), Fraction(-1, 2)),
    ]
    canonical = [Line2D.canonical(normal, offset) for normal, offset in raw]
    assert [(ln.a, ln.b, ln.c) for ln in canonical] == [
        (1, 0, 1), (2, -2, -1), (0, 2, -3), (1, 0, 1), (3, 2, -1),
    ]
    assert canonical[0] == canonical[3]
    # the constructor canonicalises any nonzero integer multiple
    for ln in canonical:
        for k in (-3, -1, 2):
            scaled = Line2D(k * ln.a, k * ln.b, k * ln.c)
            assert scaled == ln and (scaled.a, scaled.b, scaled.c) == (ln.a, ln.b, ln.c)
    with pytest.raises(ValueError):
        Line2D(0, 0, 1)
    for region in (_square(3), Cone([(V([1, 0]), True), (V([1, 2]), False)]).to_region()):
        dec = chamber_decomposition_2d(Arrangement2D(canonical, region))
        assert dec.lines == tuple(dict.fromkeys(canonical))
        assert _faces_with_ends(dec) == _reference_decomposition(dec.lines, region)
