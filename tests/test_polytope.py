import itertools
import math
import random
from fractions import Fraction

import pytest

from gitloci.polytope import (
    Arrangement2D,
    Cone,
    DimensionMismatch,
    EmptyRegion,
    HullPosition,
    Line2D,
    PointSet,
    _bordered_solve,
    _combination,
    _gram,
    chamber_decomposition_2d,
    convex_hull_2d,
    convex_hull_2d_int,
    corral_points,
    hull_membership,
    hull_min_norm,
    hull_position,
    hull_vertices,
    min_norm_point,
    min_norm_point_oracle,
    region_interior_point,
)
from gitloci.linprog import OPTIMAL, lp_maximize_free
from gitloci.qpoly import InnerProduct, RationalVector, clear_denominators
from gitloci.vgit import _expanded_region
from oracles import (
    chamber_decomposition_2d_fraction,
    facet_normal_candidates,
    hull_membership_two_lp,
    line_side,
    line_through,
    plane,
    row_reduce,
)

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


def _reference_corrals(points, ip, top):
    """Fraction solves of the affinely independent subsets of at most `top`
    points with nonnegative coefficients, smaller subsets first, each size
    in combinations order."""
    for size in range(1, min(len(points), top) + 1):
        for subset in itertools.combinations(points, size):
            solved = _reference_affine_min_norm(subset, ip)
            if solved is not None and all(a >= 0 for a in solved[1]):
                yield solved[0]


def _reference_corral_points(points, ip):
    """The corrals of at most dim points, then the origin once when it is
    the minimum-norm point of a corral of at most dim + 1 points (by
    Caratheodory, when it is in the hull), decided by that full enumeration
    and not by a hull test."""
    dim = points[0].dim
    yield from _reference_corrals(points, ip, dim)
    if any(y.is_zero() for y in _reference_corrals(points, ip, dim + 1)):
        yield RationalVector.zero(dim)


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
                num, den = _combination(ints, subset, coeffs, d)
                assert den > 0 and math.gcd(*num, den) == 1
                assert V([Fraction(v, den) for v in num]) == want[0]
    assert dependent > 100  # the dependent subsets are exercised


def test_corral_points_match_rational_reference_in_order():
    for S, ip in _rational_cases(3141, 150):
        pts = S.deduplicated()
        assert list(corral_points(pts, ip)) == list(_reference_corral_points(pts, ip))


def _integer_cases(seed, count):
    """Distinct integer point sets in dims 1-3, small enough that the
    origin is often inside, on a face of, or outside their hull."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.choice([1, 2, 3])
        pts = {
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 7))
        }
        yield PointSet(V(p) for p in sorted(pts)), rng.choice(_FORMS[dim])


def test_corral_points_are_the_full_enumeration_as_a_set():
    # dropping the subsets of dim + 1 points for one origin test keeps the
    # set of corral points that all subsets of at most dim + 1 points give
    seen = {"origin": 0, "origin from the top tier only": 0, "no origin": 0}
    for S, ip in [*_rational_cases(3141, 150), *_integer_cases(4242, 150)]:
        pts = S.deduplicated()
        full = {y.entries for y in _reference_corrals(pts, ip, S.dim + 1)}
        assert {y.entries for y in corral_points(pts, ip)} == full, (pts, ip.gram)
        origin = RationalVector.zero(S.dim).entries
        low = {y.entries for y in _reference_corrals(pts, ip, S.dim)}
        seen["origin"] += origin in full
        seen["origin from the top tier only"] += origin in full and origin not in low
        seen["no origin"] += origin not in full
    assert min(seen.values()) >= 50, seen


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


def _square(r: int = 2):
    """The open square |x|, |y| < r."""
    return [(1, 0, -r), (-1, 0, -r), (0, 1, -r), (0, -1, -r)]


_WEDGE = [(1, 0, 0), (1, 2, 0)]  # x > 0 and x + 2 * y > 0


def _inside(region, x):
    x0, x1 = x.entries
    return all(a * x0 + b * x1 > c for a, b, c in region)


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
        line = Line2D(*plane(normal, offset))
        assert (line.a, line.b, line.c) == prim.entries
        assert all(type(e) is int for e in (line.a, line.b, line.c))
        assert Line2D(*plane(normal.scale(-3), -3 * offset)) == line
    with pytest.raises(ValueError):
        Line2D(*plane(V([0, 0]), Fraction(1)))


def test_chamber_decomposition_one_line():
    dec = chamber_decomposition_2d(
        Arrangement2D([Line2D(1, 0, 0)], _square())
    )
    assert len(dec.chambers()) == 2
    assert len(dec.cells()) == 1
    assert len(dec.vertices()) == 0


def test_chamber_decomposition_two_crossing_lines():
    dec = chamber_decomposition_2d(
        Arrangement2D(
            [Line2D(1, 0, 0), Line2D(0, 1, 0)],
            _square(),
        )
    )
    assert len(dec.chambers()) == 4
    assert len(dec.cells()) == 4
    assert len(dec.vertices()) == 1


def test_chamber_decomposition_matches_sign_sweep_oracle():
    # three rays through the origin inside the halfplane x > 0, mirroring the
    # rank-1 ray picture with slopes -1, 0, 2
    lines = [Line2D(a, -1, 0) for a in (-1, 0, 2)]
    region = [(1, 0, 0)]
    dec = chamber_decomposition_2d(Arrangement2D(lines, region))

    # oracle: sign vectors realised on a dense rational grid
    seen = set()
    for i in range(1, 60):
        for j in range(-120, 121):
            x, y = Fraction(i, 4), Fraction(j, 4)
            signs = tuple(
                (v > 0) - (v < 0)
                for v in (ln.a * x + ln.b * y - ln.c for ln in dec.lines)
            )
            if 0 not in signs:
                seen.add(signs)
    assert len(dec.chambers()) == len(seen) == 4
    assert {f.signs for f in dec.chambers()} == seen
    assert len(dec.cells()) == 3
    assert len(dec.vertices()) == 0


def test_chamber_faces_disjoint_and_signs_reproduce():
    lines = [Line2D(1, 0, 0), Line2D(0, 1, 0), Line2D(1, 1, 1)]
    dec = chamber_decomposition_2d(Arrangement2D(lines, _square(3)))
    sign_vectors = [f.signs for f in dec.faces]
    assert len(sign_vectors) == len(set(sign_vectors))
    for f in dec.faces:
        recomputed = tuple(line_side(ln, f.sample) for ln in dec.lines)
        assert recomputed == f.signs
        zeros = sum(1 for s in f.signs if s == 0)
        if f.kind == "chamber":
            assert zeros == 0
        elif f.kind == "cell":
            assert zeros == 1
        else:
            assert zeros >= 2


def test_empty_region_raises():
    disjoint = [(1, 0, 1), (-1, 0, 0)]
    # two opposite sides on one line: x > 0 and -x > 0
    flat = [(1, 0, 0), (-1, 0, 0)]
    # no lines; a line along the flat region; a line across it
    axes = [Line2D(1, 0, 0), Line2D(0, 1, 0)]
    line_sets = [[], axes[:1], axes[1:]]
    for region in (disjoint, flat):
        for lines in line_sets:
            with pytest.raises(EmptyRegion):
                chamber_decomposition_2d(Arrangement2D(lines, region))


def test_convex_hull_2d_strict_vertices():
    pts = [V([0, 0]), V([2, 0]), V([1, 0]), V([2, 2]), V([0, 2]), V([1, 1])]
    hull = convex_hull_2d(pts)
    assert {tuple(p.entries) for p in hull} == {(0, 0), (2, 0), (2, 2), (0, 2)}


def test_hull_vertices_are_inputs_spanning_the_hull():
    # every returned point is an input and no input lies outside their
    # hull; in dimensions 1 and 2 no returned point is in the others' hull
    rng = random.Random(2718)
    for dim in (1, 2, 3):
        for _ in range(40):
            points = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 9))
            ]
            verts = hull_vertices(points, dim)
            assert set(verts) <= set(points) and len(set(verts)) == len(verts)
            for p in points:
                assert hull_position(verts, V(list(p))) is not HullPosition.OUTSIDE
            if dim < 3 and len(verts) > 1:
                for i, p in enumerate(verts):
                    others = verts[:i] + verts[i + 1 :]
                    assert hull_position(others, V(list(p))) is HullPosition.OUTSIDE


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
    # the integer kernel against the simplex route, in ranks 1 to 3 (rank 3
    # runs that route itself; the next test checks it independently); small
    # coordinate ranges make collinear, coplanar and repeated points common,
    # and the wrapper must agree on rescaled rational copies
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


def test_rank_three_and_four_membership_matches_independent_oracles():
    # at ranks 3 and 4 hull_position is the one-program simplex route, so it
    # is checked against the two-program route on the Fraction simplex, and
    # OUTSIDE against a nonzero minimum-norm point of the hull minus q
    rng = random.Random(14142)
    seen = set()
    for dim, draws in ((3, 10), (4, 10)):
        ip = InnerProduct.identity(dim)
        for _ in range(draws):
            pts = [
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, dim + 4))
            ]
            for q in _kernel_queries(rng, pts):
                diffs, _ = clear_denominators(
                    [x - y for x, y in zip(p, q.entries)] for p in set(pts)
                )
                outside = not hull_min_norm(pts, q, ip).is_zero()
                for relative in (False, True):
                    got = hull_position(pts, q, relative=relative)
                    assert got == hull_membership_two_lp(diffs, dim, relative), (
                        pts, q, relative,
                    )
                    assert (got is HullPosition.OUTSIDE) == outside, (pts, q)
                    seen.add((dim, relative, got))
    assert len(seen) == 12, seen


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
        pencil.add(Line2D(*plane(n, n.dot(centre))))
    n = normal()
    lines = sorted(pencil, key=lambda ln: (ln.a, ln.b, ln.c))
    lines += [Line2D(*plane(n, n.dot(centre) + k)) for k in (-1, 1)]
    for _ in range(2):
        offset = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        lines.append(Line2D(*plane(normal(), offset)))
    return lines


def test_chamber_signs_reproduce_on_random_arrangements():
    rng = random.Random(5762)
    for trial in range(16):
        if trial % 2:
            region = _WEDGE
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
            signs = tuple(line_side(ln, f.sample) for ln in dec.lines)
            assert signs == f.signs, (trial, f)
            assert _inside(region, f.sample)
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
                signs = tuple(line_side(ln, x) for ln in dec.lines)
                if _inside(region, x) and 0 not in signs:
                    assert signs in flipped, (trial, x)


def _reference_decomposition(lines, region):
    """The decomposition by the earlier algorithm: a base point per line from
    an LP for a point of the line strictly inside the region, vertices from
    pairwise intersections tested against the region, and signs from
    `line_side`.  Faces are (kind, sample, signs, line_index)."""
    if region_interior_point(region, 2) is None:
        raise EmptyRegion("region has no interior point")

    def signs_at(x):
        return tuple(line_side(ln, x) for ln in lines)

    bases = {}
    for i, line in enumerate(lines):
        eqs = [([line.a, line.b, 0], line.c)]
        ges = [([a, b, -1], c) for a, b, c in region]
        ges += [([0, 0, -1], -1), ([0, 0, 1], 0)]
        status, x, value = lp_maximize_free([0, 0, 1], eqs, ges)
        if status == OPTIMAL and value > 0:
            bases[i] = V(x[:2])
    if not bases:
        sample = region_interior_point(region, 2)
        return [("chamber", sample, signs_at(sample), None)]

    faces = []
    seen = set()
    for i, j in itertools.combinations(bases, 2):
        (a1, b1, c1), (a2, b2, c2) = (
            (ln.a, ln.b, ln.c) for ln in (lines[i], lines[j])
        )
        det = a1 * b2 - b1 * a2
        if det == 0:
            continue
        pt = V([Fraction(c1 * b2 - b1 * c2, det), Fraction(a1 * c2 - c1 * a2, det)])
        if _inside(region, pt) and pt.entries not in seen:
            seen.add(pt.entries)
            faces.append(("vertex", pt, signs_at(pt), None))

    bounds = [(V([a, b]), c) for a, b, c in region]
    planes = [(V([ln.a, ln.b]), ln.c) for ln in lines] + bounds
    chambers = {}
    for i, base in bases.items():
        n, d = planes[i][0], V([-lines[i].b, lines[i].a])
        lo = hi = None
        for normal, offset in bounds:
            nd = normal.dot(d)
            if nd != 0:
                t = (offset - normal.dot(base)) / nd
                if nd > 0:
                    lo = t if lo is None else max(lo, t)
                else:
                    hi = t if hi is None else min(hi, t)
        cuts = set()
        for j in bases:
            normal, offset = planes[j]
            nd = normal.dot(d)
            if j != i and nd != 0:
                t = (offset - normal.dot(base)) / nd
                if (lo is None or t > lo) and (hi is None or t < hi):
                    cuts.add(t)
        edges = [lo, *sorted(cuts), hi]
        for a, b in zip(edges, edges[1:]):
            if a is None and b is None:
                t = Fraction(0)
            else:
                t = b - 1 if a is None else a + 1 if b is None else (a + b) / 2
            sample = base + d.scale(t)
            signs = signs_at(sample)
            faces.append(("cell", sample, signs, i))
            for side in (1, -1):
                sv = signs[:i] + (side,) + signs[i + 1 :]
                if sv in chambers:
                    continue
                # half the step along side * normal to the nearest crossing
                steps = []
                for normal, offset in planes:
                    rate = side * normal.dot(n)
                    if rate != 0 and (offset - normal.dot(sample)) / rate > 0:
                        steps.append((offset - normal.dot(sample)) / rate)
                step = min(steps) / 2 if steps else Fraction(1)
                chambers[sv] = sample + n.scale(side * step)
    for sv, sample in sorted(chambers.items(), key=lambda kv: kv[1].entries):
        faces.append(("chamber", sample, sv, None))
    return faces


def _faces(dec):
    """Faces as in `_reference_decomposition`."""
    return [(f.kind, f.sample, f.signs, f.line_index) for f in dec.faces]


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
            weights = [tuple(map(int, w)) for w in weights]
            hull = convex_hull_2d_int(weights)
            if len(hull) >= 3:
                break
        pairs = list(itertools.combinations(weights, 2))
        lines = [line_through(p, q) for p, q in rng.sample(pairs, min(8, len(pairs)))]
        yield "polygon", lines, _expanded_region(hull)
    for _ in range(8):  # fans: lines through the apex of a cone
        halfspaces = [(normal(), rng.random() < 0.5) for _ in range(rng.randint(1, 2))]
        cone = Cone(halfspaces)
        lines = [Line2D(*plane(normal(), 0)) for _ in range(4)]
        lines.append(Line2D(*plane(normal(), rng.randint(1, 3))))
        yield "cone", lines, [plane(n, 0) for n, _ in cone.halfspaces]
    for _ in range(4):  # the full plane
        centre = point(2)
        yield "plane", [Line2D(*plane(normal(), rng.randint(-3, 3)))], []
        normals = [normal() for _ in range(3)]
        pencil = {Line2D(*plane(n, n.dot(centre))) for n in normals}
        yield "plane", sorted(pencil, key=lambda ln: (ln.a, ln.b)), []
    for trial in range(8):  # pencils, parallel pairs and random lines
        centre = point(2)
        region = _square(3) if trial % 2 else _WEDGE
        yield "pencil", _random_arrangement(rng, centre), region
    # halfspaces parallel to lines, which hold on them or drop them
    region = _square(3)
    parallel = [Line2D(0, 1, k) for k in (-4, -3, 0, 2, 3)]
    parallel += [Line2D(*plane(V([1, 0]), Fraction(k, 2))) for k in (-7, -6, 1)]
    yield "parallel", parallel + [Line2D(1, 1, 1)], region
    # lines that miss the region, with and without one that meets it
    miss = [Line2D(1, 1, k) for k in (7, -9)]
    miss.append(Line2D(1, -2, 12))
    yield "miss", miss, region
    yield "miss", miss + [Line2D(1, 2, 1)], region


def test_chamber_decomposition_matches_lp_reference():
    kinds = set()
    for kind, lines, region in _differential_cases():
        dec = chamber_decomposition_2d(Arrangement2D(lines, region))
        expected = _reference_decomposition(dec.lines, region)
        assert _faces(dec) == expected, (kind, lines, region)
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
    canonical = [Line2D(*plane(normal, offset)) for normal, offset in raw]
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
    for region in (_square(3), _WEDGE):
        dec = chamber_decomposition_2d(Arrangement2D(canonical, region))
        assert dec.lines == tuple(dict.fromkeys(canonical))
        assert _faces(dec) == _reference_decomposition(dec.lines, region)


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction kernel it replaced
# ---------------------------------------------------------------------------


def _scale_cases():
    """Arrangements whose lines' integer scales differ from the differential
    cases': rational region offsets over 3, 5 and 7, lines of many distinct
    directions (a large lcm L of the |S_j|), horizontal lines, no region,
    parallel lines, boundaries parallel to a line and lines missing the
    region."""
    rng = random.Random(4093)

    def direction(span):
        while True:
            a, b = rng.randint(-span, span), rng.randint(-span, span)
            if (a, b) != (0, 0):
                return V([a, b])

    for _ in range(12):  # a polygon around a centre, offsets over 3, 5, 7
        centre = V([Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in "xy"])
        region = []
        for _ in range(rng.randint(3, 6)):
            n = direction(5)
            gap = Fraction(rng.randint(1, 20), rng.choice((3, 5, 7)))
            rng.random()  # drew a side's strictness, which an open region ignores
            region.append(plane(n, n.dot(centre) - gap))
        lines = []
        for _ in range(rng.randint(6, 12)):
            n = direction(9)
            shift = Fraction(rng.randint(-12, 12), rng.choice((1, 3, 5, 7)))
            lines.append(Line2D(*plane(n, n.dot(centre) + shift)))
        yield "scales", lines, region
    horizontal = [Line2D(0, 1, k) for k in (-2, 0, 1)]
    slanted = [Line2D(1, 0, 1), Line2D(2, 3, 1), Line2D(1, -1, 0)]
    for region in (_square(3), _WEDGE, []):
        yield "horizontal", horizontal + slanted, region
    yield "plane", [Line2D(3, -5, 2)], []
    yield "plane", [Line2D(0, 2, 1)], []
    yield "plane", slanted + [Line2D(5, 7, -3)], []
    parallel = [Line2D(1, 2, k) for k in (-9, -2, 0, 3, 4)]
    for region in (_square(3), _WEDGE, []):
        yield "parallel", parallel, region
    # x = 1 lies inside the square, beside its boundaries x > -3 and x < 3;
    # x = 5 and y = -4 lie outside
    for lines in ([Line2D(1, 0, 1)], [Line2D(1, 0, 5)], [Line2D(0, 1, -4)]):
        yield "beside", lines + [Line2D(1, 1, 0)], _square(3)
    yield "miss", [Line2D(1, 1, 7), Line2D(0, 1, 5), Line2D(1, 0, -4)], _square(3)


def test_chamber_decomposition_matches_fraction_kernel():
    scales = []
    for kind, lines, region in itertools.chain(_differential_cases(), _scale_cases()):
        arr = Arrangement2D(lines, region)
        dec = chamber_decomposition_2d(arr)
        assert dec == chamber_decomposition_2d_fraction(arr), (kind, lines, region)
        if kind == "scales":
            planes = [(ln.a, ln.b) for ln in arr.lines]
            planes += [(a, b) for a, b, _ in region]
            scales += [
                math.lcm(*filter(None, (q * ln.a - p * ln.b for p, q in planes)))
                for ln in arr.lines
            ]
    # lines of many directions: the per-line scale reaches past 10^6
    assert max(scales) > 10**6
