import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import verify_stratification_oracle

from gitloci import polytope, strata
from gitloci.action import (
    SupportPoint,
    TorusAction,
    build_external_extension,
    build_product_action,
)
from gitloci.polytope import GramFrame, PointSet, convex_hull_2d_int, min_norm_point
from gitloci.qpoly import InnerProduct, RationalVector
from gitloci.stability import (
    OneParamSubgroup,
    TorusStatus,
    destabilising_beta,
    torus_status,
)
from gitloci.strata import (
    NotInY,
    NotInZ,
    beta_index_set,
    in_Y,
    in_Z,
    p_beta,
    stratum_of,
    verify_stratification,
    z_ss_check,
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


def test_beta_index_set_rank1():
    betas = beta_index_set(_a1())
    values = sorted(b.beta.entries[0] for b in betas)
    assert values == [-1, 0, 2]
    by_value = {b.beta.entries[0]: b for b in betas}
    assert by_value[2].lambda_beta.cochar == (1,)
    assert by_value[-1].lambda_beta.cochar == (-1,)
    assert by_value[0].lambda_beta is None
    assert by_value[2].norm_sq == 4


def test_beta_index_set_trivial_cases():
    same = TorusAction(1, [V([3]), V([3])], IP1)
    betas = beta_index_set(same)
    assert [b.beta.entries[0] for b in betas] == [3]
    with_zero = TorusAction(1, [V([0]), V([7])], IP1)
    assert Fraction(0) in {b.beta.entries[0] for b in beta_index_set(with_zero)}


def test_beta_index_set_many_weights():
    # every weight of a rank-1 line is the minimum-norm point of itself,
    # and every subset's minimum is one of its weights or 0
    a = TorusAction(1, [V([i]) for i in range(20)], IP1)
    assert [b.beta.entries[0] for b in beta_index_set(a)] == list(range(20))
    # twisted weights -19/2, ..., 19/2 straddle the origin: 0 joins them
    shifted = a.with_twist(V([Fraction(19, 2)]))
    expected = sorted([Fraction(2 * i - 19, 2) for i in range(20)] + [0])
    assert [b.beta.entries[0] for b in beta_index_set(shifted)] == expected


def _wolfe_subset_sweep(a):
    """Reference index set: Wolfe on all 2^n subsets of the distinct twisted
    weights, sorted by entries."""
    weights = [V(w) - a.twist for w in a.support_weights()]
    found = set()
    for size in range(1, len(weights) + 1):
        for combo in itertools.combinations(weights, size):
            found.add(min_norm_point(PointSet(combo), a.ip).entries)
    return sorted(found)


def test_beta_index_set_matches_wolfe_subset_sweep(ex1_7, sec7_1, external_toy):
    rng = random.Random(2024)
    forms = {1: [IP1], 2: [IP2, InnerProduct([[2, 1], [1, 3]])], 3: [InnerProduct.identity(3)]}
    actions = [spec.action for spec in (ex1_7, sec7_1, external_toy)]
    for rank in (1, 2, 3):
        for _ in range(5):
            weights = [
                V([rng.randint(-4, 4) for _ in range(rank)])
                for _ in range(rng.randint(1, 10))
            ]
            twist = V([Fraction(rng.randint(-3, 3), 2) for _ in range(rank)])
            actions.append(
                TorusAction(rank, weights, rng.choice(forms[rank]), twist)
            )
    for a in actions:
        got = [b.beta.entries for b in beta_index_set(a)]
        assert got == _wolfe_subset_sweep(a), a.weights


def test_beta_index_set_origin_from_the_full_rank_tier():
    # 0 interior only to a simplex of rank + 1 weights (the triangle, and
    # the tetrahedron on hull_position's LP branch) or on a segment of
    # collinear weights, each against a case whose hull misses 0
    p2 = [V([1, 0]), V([0, 1]), V([-1, -1])]
    triangle = TorusAction(2, p2, IP2)  # no segment passes through 0
    outside = triangle.with_twist(V([2, 2]))
    ip3 = InnerProduct.identity(3)
    tetrahedron = TorusAction(
        3, [V([1, 0, 0]), V([0, 1, 0]), V([0, 0, 1]), V([-1, -1, -1])], ip3
    )
    off_centre = tetrahedron.with_twist(V([1, 1, 1]))
    segment = TorusAction(2, [V([1, 1]), V([-2, -2]), V([3, 3])], IP2)
    short = TorusAction(2, [V([1, 1]), V([3, 3])], IP2)
    for a, origin in [
        (triangle, True),
        (outside, False),
        (tetrahedron, True),
        (off_centre, False),
        (segment, True),
        (short, False),
    ]:
        betas = beta_index_set(a)
        assert any(b.beta.is_zero() for b in betas) is origin, a.weights
        assert [b.beta.entries for b in betas] == _wolfe_subset_sweep(a), a.weights


def test_beta_index_set_solves_subsets_of_at_most_rank_weights(sec7_1, monkeypatch):
    sizes = []
    solve = polytope._bordered_solve

    def counted(gram, subset):
        sizes.append(len(subset))
        return solve(gram, subset)

    monkeypatch.setattr(polytope, "_bordered_solve", counted)
    a = sec7_1.action
    assert len(beta_index_set(a)) == 41
    # C(12, 1) + C(12, 2) solves over the 12 distinct weights
    assert len(sizes) == 78 and max(sizes) <= a.rank


def test_stratum_of_examples():
    a = _a1()
    lab = stratum_of(a, SupportPoint([2]))
    assert lab.beta.beta == V([2])
    assert lab.in_Z and lab.in_Y and lab.in_Yss
    lab = stratum_of(a, SupportPoint([0, 2]))
    assert lab.beta.beta.is_zero()
    lab = stratum_of(a, SupportPoint([1, 2]))  # hull [0, 2] touches the origin
    assert lab.beta.beta.is_zero()


def test_stratum_membership_predicates():
    a = _a1()
    two = V([2])
    assert in_Y(a, SupportPoint([2]), two)
    assert in_Z(a, SupportPoint([2]), two)
    assert not in_Y(a, SupportPoint([0, 2]), two)
    assert not in_Z(a, SupportPoint([1, 2]), two)


def test_p_beta_examples():
    a = _a1()
    betas = {b.beta.entries[0]: b for b in beta_index_set(a)}
    b2 = betas[2]
    assert p_beta(a, SupportPoint([2]), b2).support == {2}
    with pytest.raises(NotInY):
        p_beta(a, SupportPoint([0, 2]), b2)
    # a mixed support retracting onto the perpendicular face: weights 0 and 2
    # pair exactly |beta|^2 with beta, weight 1 strictly more
    a2 = TorusAction(2, [V([0, 1]), V([1, 2]), V([3, 1])], IP2)
    beta, _ = destabilising_beta(a2, SupportPoint([0, 1, 2]))
    assert beta == V([0, 1])
    from gitloci.strata import BetaIndex

    bi = BetaIndex.from_beta(a2, beta)
    assert p_beta(a2, SupportPoint([0, 1, 2]), bi).support == {0, 2}


def test_p_beta_idempotent_and_lands_in_Z():
    a = _sec71()
    report_betas = {b.beta.entries: b for b in _realized_betas(a)}
    for sp in a.iter_supports():
        beta, _ = destabilising_beta(a, sp)
        if beta.is_zero():
            continue
        bi = report_betas[beta.entries]
        retracted = p_beta(a, sp, bi)
        assert in_Z(a, retracted, bi.beta)
        assert p_beta(a, retracted, bi).support == retracted.support


def _realized_betas(a):
    from gitloci.strata import BetaIndex

    seen = {}
    for sp in a.iter_supports():
        beta, _ = destabilising_beta(a, sp)
        if beta.entries not in seen:
            seen[beta.entries] = BetaIndex.from_beta(a, beta)
    return list(seen.values())


def test_z_ss_check_examples():
    a = _a1()
    betas = {b.beta.entries[0]: b for b in beta_index_set(a)}
    assert z_ss_check(a, SupportPoint([2]), betas[2])
    with pytest.raises(NotInZ):
        z_ss_check(a, SupportPoint([0, 2]), betas[2])
    # two weights on the perpendicular line, both strictly to one side of beta
    a2 = TorusAction(2, [V([1, 1]), V([1, 3]), V([1, 5])], IP2)
    beta, _ = destabilising_beta(a2, SupportPoint([0]))
    assert beta == V([1, 1])
    from gitloci.strata import BetaIndex

    bi = BetaIndex.from_beta(a2, beta)
    # support {1, 2} lies on the line <v, beta> = 2 but its hull misses beta
    assert in_Z(a2, SupportPoint([1, 2]), beta) is False  # pairings 4, 6
    b_high, _ = destabilising_beta(a2, SupportPoint([1]))
    assert z_ss_check(a2, SupportPoint([1]), BetaIndex.from_beta(a2, b_high))


def test_beta_index_from_integers_matches_rational_reference():
    # the integer constructor against the Fraction paths, on seeded rational
    # betas (numerators not always reduced) and beta = 0: |beta|^2 by the
    # form's pairing and lambda_beta by `OneParamSubgroup.dual_to`
    from gitloci.strata import BetaIndex

    rng = random.Random(1729)
    for ip in (IP2, InnerProduct([[2, 1], [1, 3]])):
        a = TorusAction(2, [V([0, 0])], ip)
        cases = [((0, 0), 1), ((0, 0), 6)]
        cases += [
            ((rng.randint(-9, 9), rng.randint(-9, 9)), rng.randint(1, 12))
            for _ in range(200)
        ]
        for num, den in cases:
            beta = V([Fraction(v, den) for v in num])
            bi = BetaIndex.from_integers(a, num, den)
            assert bi.beta == beta
            assert bi.norm_sq == ip.norm_sq(beta)
            if beta.is_zero():
                assert bi.lambda_beta is None
            else:
                assert bi.lambda_beta == OneParamSubgroup.dual_to(beta, ip)
            assert bi == BetaIndex.from_beta(a, beta)


def test_z_ss_check_matches_twisted_hull_oracle():
    # beta against the twisted weights, as defined, under nonzero twists
    from gitloci.polytope import HullPosition, hull_membership
    from gitloci.strata import BetaIndex

    rng = random.Random(4242)
    actions = []
    for rank, ip in ((1, IP1), (2, IP2)):
        for _ in range(3):
            factors = [
                TorusAction(
                    rank,
                    [V([rng.randint(-2, 2) for _ in range(rank)]) for _ in range(3)],
                    ip,
                    V(
                        [
                            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(rank)
                        ]
                    ),
                )
                for _ in range(2)
            ]
            a = build_product_action(factors)
            # a twist on a Segre weight puts a support in the zero Z-stratum
            actions += [a, a.with_twist(V(a.support_weights()[0]))]
    checked = 0
    for a in actions:
        zero = BetaIndex.from_beta(a, V([0] * a.rank))
        for sp in a.iter_supports():
            at_twist = all(w.is_zero() for w in a.segre_weights(sp, twisted=True))
            assert in_Z(a, sp, zero.beta) == at_twist
        for bi in beta_index_set(a) + [zero]:
            for sp in a.iter_supports():
                if not in_Z(a, sp, bi.beta):
                    continue
                pts = PointSet(a.segre_weights(sp, twisted=True))
                want = hull_membership(pts, bi.beta) is not HullPosition.OUTSIDE
                assert z_ss_check(a, sp, bi) == want, (a, sp, bi.beta)
                checked += 1
    assert checked > 0


def test_verify_stratification_rank1():
    rep = verify_stratification(_a1())
    assert rep.ok
    sizes = {k[0]: v for k, v in rep.stratum_sizes.items()}
    assert sizes == {Fraction(-1): 1, Fraction(0): 5, Fraction(2): 1}
    assert len(rep.betas) == 3
    # per-support labels cover every valid support and match stratum_of
    assert len(rep.support_beta) == 7
    assert rep.support_beta[frozenset({2})] == (Fraction(2),)
    assert rep.support_beta[frozenset({0, 2})] == (Fraction(0),)


def test_verify_stratification_single_weight():
    rep = verify_stratification(TorusAction(1, [V([4])], IP1))
    assert rep.ok
    assert len(rep.betas) == 1
    assert sum(rep.stratum_sizes.values()) == 1


def test_verify_stratification_sec71():
    a = _sec71()
    rep = verify_stratification(a)
    assert rep.ok, rep.violations
    assert sum(rep.stratum_sizes.values()) == 343
    # the open stratum is the semistable locus
    zero_key = (Fraction(0), Fraction(0))
    semistable = sum(
        1
        for sp in a.iter_supports()
        if torus_status(a, sp) is not TorusStatus.UNSTABLE
    )
    assert rep.stratum_sizes[zero_key] == semistable
    # realized strata embed into the ambient index sweep
    ambient = {b.beta.entries for b in beta_index_set(a)}
    assert {b.beta.entries for b in rep.betas} <= ambient


def test_zero_beta_iff_semistable():
    for a in (_a1(), _sec71()):
        for sp in a.iter_supports():
            beta, _ = destabilising_beta(a, sp)
            semistable = torus_status(a, sp) is not TorusStatus.UNSTABLE
            assert beta.is_zero() == semistable


def test_stratification_invariant_under_permutation():
    a = _a1()
    rep = verify_stratification(a)
    b = TorusAction(1, [V([2]), V([-1]), V([0])], IP1)
    rep2 = verify_stratification(b)
    assert rep2.ok
    assert {k: v for k, v in rep.stratum_sizes.items()} == {
        k: v for k, v in rep2.stratum_sizes.items()
    }
    assert {b_.beta.entries for b_ in rep.betas} == {
        b_.beta.entries for b_ in rep2.betas
    }


def test_stratification_with_twist():
    a = TorusAction(1, [V([-1]), V([0]), V([2])], IP1, twist=V([Fraction(1, 2)]))
    rep = verify_stratification(a)
    assert rep.ok
    twisted = sorted(k[0] for k in rep.stratum_sizes)
    assert twisted == [Fraction(-3, 2), Fraction(-1, 2), Fraction(0), Fraction(3, 2)]


def _random_products(seed, count):
    """Seeded products of two or three factors, rank 1 to 3, under the
    non-identity rank-2 form and at rational twists."""
    rng = random.Random(seed)
    forms = {1: IP1, 2: InnerProduct([[2, 1], [1, 3]]), 3: InnerProduct.identity(3)}
    out = []
    for rank in (1, 2, 3):
        for _ in range(count):
            factors = [
                TorusAction(
                    rank,
                    [
                        V([rng.randint(-3, 3) for _ in range(rank)])
                        for _ in range(rng.randint(1, 4 if rank < 3 else 3))
                    ],
                    forms[rank],
                )
                for _ in range(rng.randint(2, 3))
            ]
            twist = V(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)]
            )
            out.append(build_product_action(factors).with_twist(twist))
    return out


def test_verify_stratification_matches_full_scan_oracle(ex1_7, sec7_1):
    twist = V([Fraction(1, 2), Fraction(-1, 3)])
    actions = [ex1_7.action, sec7_1.action, sec7_1.action.with_twist(twist)]
    actions += _random_products(1414, 5)
    for a in actions:
        rep = verify_stratification(a)
        assert rep.ok
        assert rep == verify_stratification_oracle(a), a


# two P^3 lines under a rank-1 torus, the shape of the benchmark's rank-1
# strata inputs: 225 supports, 60 distinct weight hulls
TWO_LINES = ((-3, 2, -2, 1), (3, 1, -3, 0))


def _lines(*factors):
    return build_product_action(
        [TorusAction(1, [V([w]) for w in ws], IP1) for ws in factors]
    )


def _plane(*factors):
    return build_product_action(
        [TorusAction(2, [V(w) for w in ws], IP2) for ws in factors]
    )


def test_verify_stratification_matches_oracle_where_vertices_prune(sec7_1):
    # inputs where a factor's or a partial sum's weights are not all hull
    # vertices, so Wolfe sees fewer points than the oracle's sumsets
    twist = V([Fraction(1, 2), Fraction(-1, 3)])
    collinear = _plane([(0, 0), (1, 0), (2, 0)], [(0, 1), (-1, 0), (1, -1)])
    inside = _plane([(0, 0), (3, 0), (0, 3), (1, 1)], [(-1, -1), (1, 0)])
    repeated = _plane([(1, 0), (1, 0), (0, 1)], [(-1, 0), (0, -1), (0, 0)])
    actions = [
        collinear,
        collinear.with_twist(V([1, Fraction(1, 2)])),
        inside,
        inside.with_twist(twist),
        repeated,
        repeated.with_twist(twist),
        _lines(*TWO_LINES),
        _lines(*TWO_LINES).with_twist(V([Fraction(3, 2)])),
    ]
    rng = random.Random(2026)
    for rank, ip in ((1, IP1), (2, IP2), (2, InnerProduct([[2, 1], [1, 3]]))):
        for _ in range(6):
            factors = [
                TorusAction(
                    rank,
                    [
                        V([rng.randint(-2, 2) for _ in range(rank)])
                        for _ in range(rng.randint(2, 4))
                    ],
                    ip,
                )
                for _ in range(rng.randint(2, 3))
            ]
            twist = V(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)]
            )
            actions.append(build_product_action(factors).with_twist(twist))
    # rank 3, where every distinct weight is passed to Wolfe
    ext = build_external_extension(sec7_1.action, [0, 1, 2, 0, 2, 1, 1, 0, 2], 10)
    actions += [ext, ext.with_twist(V([Fraction(1, 2), Fraction(-1, 3), 5]))]
    for a in actions:
        rep = verify_stratification(a)
        want = verify_stratification_oracle(a)
        assert list(rep.violations) == list(want.violations), a
        assert rep == want, a


def test_verify_stratification_reads_no_support_sumset(monkeypatch, sec7_1):
    # every check reads supports by flat position in per-factor tables: no
    # support's weights are formed (check (iii) tests each retraction's
    # hull vertices), and Wolfe runs once per distinct weight hull
    log = []
    inner_weights = TorusAction.support_weights

    def counted_weights(self, support=None):
        if support is not None:
            log.append(support)
        return inner_weights(self, support)

    monkeypatch.setattr(TorusAction, "support_weights", counted_weights)
    wolfe = []
    inner_wolfe = GramFrame.min_norm

    def counted_wolfe(self, subset):
        wolfe.append(tuple(self.rows[i] for i in subset))
        return inner_wolfe(self, subset)

    monkeypatch.setattr(GramFrame, "min_norm", counted_wolfe)
    grams = []
    inner_gram = polytope._gram

    def counted_gram(points, ip):
        grams.append(len(points))
        return inner_gram(points, ip)

    monkeypatch.setattr(polytope, "_gram", counted_gram)
    lines = _lines(*TWO_LINES)
    for a in (sec7_1.action, lines):
        log.clear()
        wolfe.clear()
        grams.clear()
        assert verify_stratification(a).ok
        assert log == []
        assert len(set(wolfe)) == len(wolfe)
        # one Gram table per call, served to every Wolfe run by index
        assert len(grams) == 1
    hulls = {
        (min(ws), max(ws))
        for ws in (inner_weights(lines, sp) for sp in lines.iter_supports())
    }
    assert len(wolfe) == len(hulls) == 60


def test_closure_order_walk_matches_set_differences():
    # the flat-index walk against immediate sub-supports found by removing
    # each coordinate from each factor part that keeps one, on norm ranks
    # with no failing pair, one planted failing pair, and random ones
    rng = random.Random(77)
    layouts = [
        [[0]],
        [[0, 1, 2]],
        [[0, 1], [2, 3]],
        [[0], [1, 2, 3]],
        [[0, 1, 2], [3], [4, 5]],
    ]
    for layout in layouts:
        coords = sum(map(len, layout))
        a = TorusAction(1, [V([0])] * coords, IP1, factor_partition=layout)
        subsets = a.factor_subsets()
        sets = list(a.support_sets())
        position = {sp: k for k, sp in enumerate(sets)}
        pairs = [
            (position[sp], position[sp - {i}])
            for sp in sets
            for part in a.per_factor_support(SupportPoint(sp))
            if len(part) > 1
            for i in part
        ]
        monotone = [len(layout) * 9 - len(sp) for sp in sets]
        assert strata._closure_order_holds(subsets, monotone)
        for sup, sub in pairs:
            planted = list(monotone)
            planted[sub] = -1
            assert not strata._closure_order_holds(subsets, planted), (layout, sup, sub)
        for _ in range(30):
            norms = [rng.randint(0, 3) for _ in sets]
            want = all(norms[sub] >= norms[sup] for sup, sub in pairs)
            assert strata._closure_order_holds(subsets, norms) == want, layout


def test_y_members_walk_matches_support_scan():
    # the positional walk, decoded through `support_sets`, against a scan of
    # every support: the members of a level are the supports whose least
    # Segre value is that level, in support order, each retracting onto its
    # per-factor argmin; levels are every attained value and one that is not
    rng = random.Random(2121)

    def weight(rank):
        return [rng.randint(-2, 2) for _ in range(rank)]

    for rank in (1, 2, 3):
        ip = InnerProduct.identity(rank)
        for _ in range(4):
            factors = []
            for _ in range(rng.randint(1, 3)):
                ws = [weight(rank)]
                for _ in range(rng.randint(0, 3)):
                    # some weights repeat an earlier one of their factor
                    ws.append(rng.choice(ws) if rng.random() < 0.3 else weight(rank))
                factors.append(TorusAction(rank, [V(w) for w in ws], ip))
            a = build_product_action(factors)
            subsets = a.factor_subsets()
            sets = list(a.support_sets())
            for _ in range(3):
                cochar = tuple(rng.randint(-3, 3) for _ in range(rank))
                values = a.coordinate_values(cochar)
                scan = []
                for s in sets:
                    first = [f[0] for f in a.levels(cochar, SupportPoint(s))]
                    least = sum(v for v, _ in first)
                    scan.append((s, least, frozenset().union(*(c for _, c in first))))
                attained = sorted({m for _, m, _ in scan})
                for level in attained + [attained[-1] + 1]:
                    walk = strata._y_members(subsets, values, level)
                    got = [(sets[i], sets[r]) for i, r in walk]
                    want = [(s, r) for s, m, r in scan if m == level]
                    assert got == want, (factors, values, level)


def _count_closure_full_scans(monkeypatch):
    """Count the `support_sets(within=...)` calls, which only the full
    closure-order scan makes."""
    calls = []
    inner = TorusAction.support_sets

    def counted(self, within=None):
        if within is not None:
            calls.append(within)
        return inner(self, within)

    monkeypatch.setattr(TorusAction, "support_sets", counted)
    return calls


def _hull_size(points):
    """A size of the hull of integer points that does not depend on which
    points besides its vertices are given: its integer points at rank 1,
    its vertices at rank 2, every point at rank 3 (where
    `verify_stratification` passes Wolfe the whole distinct sumset, as the
    oracle does)."""
    points = list(points)
    if len(points[0]) == 1:
        return max(points)[0] - min(points)[0] + 1
    if len(points[0]) == 2:
        return len(convex_hull_2d_int(points))
    return len(set(points))


def test_wrong_wolfe_violations_match_oracle(monkeypatch, sec7_1):
    # zero on hulls of size two and doubled on hulls of size three or four:
    # sub-supports drop below their supports, and Y-members lose or change
    # their label.  The size is read from the hull, not from the point
    # count: the oracle passes Wolfe a support's sumset, the check its
    # hull's vertices.  Both run Wolfe on a frame of their own, so the
    # frame's Wolfe is patched and plants the same betas in both.
    real = GramFrame.min_norm

    def wrong(self, subset):
        num, den = real(self, subset)
        k = {2: 0, 3: 2, 4: 2}.get(_hull_size([self.rows[i] for i in subset]), 1)
        g = math.gcd(*(k * v for v in num), den)
        return tuple(k * v // g for v in num), den // g

    monkeypatch.setattr(GramFrame, "min_norm", wrong)
    full_scans = _count_closure_full_scans(monkeypatch)
    # P1 x P1 with twisted weights 5..8: every factor has two coordinates,
    # so the failing immediate pairs empty a two-coordinate factor part
    lines = build_product_action(
        [TorusAction(1, [V([0]), V([k])], IP1) for k in (1, 2)]
    ).with_twist(V([-5]))
    kinds = set()
    for a in [sec7_1.action, lines] + _random_products(1415, 2):
        full_scans.clear()
        rep = verify_stratification(a)
        want = verify_stratification_oracle(a)
        assert list(rep.violations) == list(want.violations), a
        assert rep == want
        if any(v["kind"] == "closure-order" for v in rep.violations):
            # the immediate pairs failed, so every pair was compared
            assert full_scans
        kinds |= {v["kind"] for v in rep.violations}
    assert kinds == {"closure-order", "retraction-semistability"}


def test_verify_stratification_work_counts_sec71(monkeypatch, sec7_1):
    a = sec7_1.action
    full_scans = _count_closure_full_scans(monkeypatch)
    level_calls = []
    inner_levels = TorusAction.levels

    def counted_levels(self, cochar, support=None):
        level_calls.append(support)
        return inner_levels(self, cochar, support)

    monkeypatch.setattr(TorusAction, "levels", counted_levels)
    hull_calls = []
    inner_hull = strata.hull_position

    def counted_hull(points, q, **kw):
        hull_calls.append((q.entries, tuple(points)))
        return inner_hull(points, q, **kw)

    monkeypatch.setattr(strata, "hull_position", counted_hull)
    rep = verify_stratification(a)
    assert rep.ok
    assert level_calls == [] and full_scans == []
    # one hull test per distinct (beta, retracted weight set), not one per
    # Y-member (454 of them)
    assert len(set(hull_calls)) == len(hull_calls) == 87
