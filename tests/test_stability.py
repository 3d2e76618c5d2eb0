import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gitloci.action import (
    ExplicitPoint,
    GroupSpec,
    SupportPoint,
    TorusAction,
    build_double_extension,
    build_external_extension,
    build_product_action,
    evaluate_point,
    orbit_point,
)
from gitloci.cli import load_spec
from gitloci.polytope import Cone, convex_hull_2d_int
from gitloci.qpoly import BiPoly, InnerProduct, RationalVector
from gitloci.stability import (
    AdaptedRegion,
    EmptyCone,
    HMValue,
    NoAdaptedTwist,
    OneParamSubgroup,
    StabDimension,
    SweepStatus,
    TorusStatus,
    adapted_region,
    admissible_cone,
    cocharacter_fan,
    destabilising_beta,
    gm_stable_support,
    h_stable_explicit,
    hm_M,
    hm_mu,
    stab_u_dimension,
    support_positions,
    torus_status,
    uhat_stable_explicit,
    universal_1ps,
    x_min,
)
from oracles import (
    dual_to_oracle,
    facet_normal_candidates,
    h_stable_explicit_oracle,
    support_positions_scan,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
V = RationalVector
IP1 = InnerProduct.identity(1)
IP2 = InnerProduct.identity(2)
B, C = BiPoly.var("b"), BiPoly.var("c")
ONE, ZERO = BiPoly.const(1), BiPoly.zero()


def _a1():
    return TorusAction(1, [V([-1]), V([0]), V([2])], IP1)


def _sec71():
    w = [V([1, 0]), V([0, 1]), V([-1, -1])]
    fV = TorusAction(2, w, IP2)
    fVd = TorusAction(2, [-x for x in w], IP2)
    prod = build_product_action([fV, fV, fVd])
    uV = [[ONE, B, C], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    uVd = [[ONE, ZERO, ZERO], [-B, ONE, ZERO], [-C, ZERO, ONE]]
    g = GroupSpec([V([1, -1]), V([2, 1])], 2, [uV, uV, uVd])
    return prod, g


def test_hm_mu_examples():
    a = _a1()
    rho = OneParamSubgroup(V([1]))
    assert hm_mu(a, SupportPoint([0, 1, 2]), rho) == 1
    assert hm_mu(a, SupportPoint([2]), rho) == -2
    assert hm_mu(a, SupportPoint([2]), OneParamSubgroup(V([-1]))) == 2


def test_hm_M_examples():
    a = _a1()
    m = hm_M(a, SupportPoint([0, 1, 2]), OneParamSubgroup(V([1])))
    assert m == HMValue(1, 1)
    scaled = hm_M(a, SupportPoint([2]), OneParamSubgroup(V([2])))
    assert scaled == HMValue(-4, 4) == HMValue(-2, 1)
    assert HMValue(-2, 4) == HMValue(-1, 1)
    assert HMValue(-2, 4) < HMValue(1, 1)
    assert HMValue(1, 4) < HMValue(1, 1)
    assert HMValue(-1, 1) < HMValue(-1, 2)


def test_hm_value_compares_as_cross_multiplied_squares():
    # oracle: the sign first, then mu^2 * norm_sq' against mu'^2 * norm_sq,
    # reversed for negative mu; `==`, `<` and `hash` read one exact key
    def sign(mu):
        return (mu > 0) - (mu < 0)

    def equal(x, y):
        return sign(x[0]) == sign(y[0]) and x[0] ** 2 * y[1] == y[0] ** 2 * x[1]

    def less(x, y):
        if sign(x[0]) != sign(y[0]):
            return sign(x[0]) < sign(y[0])
        lhs, rhs = x[0] ** 2 * y[1], y[0] ** 2 * x[1]
        return lhs < rhs if sign(x[0]) >= 0 else lhs > rhs

    rng = random.Random(28)
    pairs = [(Fraction(0), 1), (Fraction(-2), 4), (Fraction(-1), 1), (Fraction(6), 9)]
    pairs += [
        (Fraction(rng.randint(-12, 12), 2), rng.randint(1, 9)) for _ in range(60)
    ]
    for x in pairs:
        hx = HMValue(*x)
        assert (hx.mu, hx.norm_sq, hx.sign()) == (x[0], x[1], sign(x[0]))
        for y in pairs:
            hy = HMValue(*y)
            assert (hx == hy) == equal(x, y)
            assert (hx < hy) == less(x, y)
            assert (hx > hy) == less(y, x)
            if hx == hy:
                assert hash(hx) == hash(hy)


def test_torus_status_examples():
    a = _a1()
    assert torus_status(a, SupportPoint([0, 2])) is TorusStatus.STABLE
    assert torus_status(a, SupportPoint([1])) is TorusStatus.STRICTLY_SEMISTABLE
    assert torus_status(a, SupportPoint([2])) is TorusStatus.UNSTABLE


def test_torus_status_has_no_lambda_parameter():
    # one-parameter independence is structural: the signature takes no flow
    params = inspect.signature(torus_status).parameters
    assert "lam" not in params and "lambda_" not in params


def _hull_midpoints(a, rng, count):
    """Midpoints of hull edges (rank 1: of the extremes) of random supports'
    weights, on the boundary of the hull of the support they come from; at
    rank >= 3, midpoints of random pairs of the support's weights."""
    supports = list(a.support_sets())
    out = []
    for s in rng.sample(supports, min(count, len(supports))):
        weights = a.support_weights(SupportPoint(s))
        if a.rank > 2:
            p, q = rng.choice(weights), rng.choice(weights)
        else:
            hull = (
                [weights[0], weights[-1]] if a.rank == 1 else convex_hull_2d_int(weights)
            )
            p, q = rng.choice(list(zip(hull, hull[1:] + hull[:1])))
        out.append(V([Fraction(x + y, 2) for x, y in zip(p, q)]))
    return out


def _twists(a, rng):
    """At weights, at hull edge midpoints, outside the effective region
    (past the greatest first coordinate) and at random rationals."""
    weights = a.support_weights()
    beyond = max(w[0] for w in weights) + Fraction(1, 3)
    return [
        *(V(w) for w in rng.sample(weights, min(3, len(weights)))),
        *_hull_midpoints(a, rng, 3),
        V([beyond, *(Fraction(rng.randint(-3, 3)) for _ in range(a.rank - 1))]),
        *(
            V([Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(a.rank)])
            for _ in range(3)
        ),
    ]


def _assert_positions_match_scan(a, twists):
    for chi in twists:
        for relative in (False, True):
            got = list(support_positions(a, chi, relative=relative))
            assert got == support_positions_scan(a, chi, relative), (chi, relative)


def test_support_positions_match_scan_on_corpus():
    rng = random.Random(17)
    for path in sorted(CORPUS.glob("*.json")):
        a = load_spec(str(path)).action
        assert a.rank <= 2, path
        _assert_positions_match_scan(a, [a.twist, *_twists(a, rng)])


def _random_factor(rng, rank):
    """Weights of one factor: P0, one weight repeated, collinear weights
    (a segment hull), coplanar ones (a planar hull, at rank >= 3) or free
    ones."""
    def vec():
        return [rng.randint(-3, 3) for _ in range(rank)]

    kinds = ["p0", "repeated", "collinear", "free", "free"]
    kind = rng.choice(kinds + ["coplanar"] * (rank > 2))
    if kind == "p0":
        return [vec()]
    n = rng.randint(2, 4)
    if kind == "repeated":
        w = vec()
        return [w] + [rng.choice([w, vec()]) for _ in range(n - 1)]
    if kind == "collinear":
        p, d = vec(), vec()
        return [[x + t * y for x, y in zip(p, d)] for t in rng.sample(range(-2, 3), n)]
    if kind == "coplanar":
        p, d, e = vec(), vec(), vec()
        return [
            [x + s * y + t * z for x, y, z in zip(p, d, e)]
            for s, t in ((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n))
        ]
    return [vec() for _ in range(n)]


def test_support_positions_match_scan_on_random_products():
    rng = random.Random(3)
    # explicit degenerate products besides the random ones: only P0 and
    # repeated-weight factors (point hulls) and only parallel segments
    fixed = [
        (2, [[[1, 2]], [[0, -1], [0, -1]], [[2, 2], [2, 2], [2, 2]]]),
        (2, [[[0, 0], [1, 1], [3, 3]], [[-1, -1], [2, 2]], [[5, 5]]]),
        (1, [[[2]], [[-1], [-1]]]),
    ]
    # at most two factors at rank 4, where the scan's one simplex program
    # per support is the cost; the extensions test places five there
    cases = fixed + [
        (rank, [_random_factor(rng, rank) for _ in range(rng.randint(1, 3 - (rank > 3)))])
        for rank in (1, 2, 3, 4)
        for _ in range(25)
    ]
    for rank, factors in cases:
        a = build_product_action(
            [TorusAction(rank, [V(w) for w in ws], InnerProduct.identity(rank)) for ws in factors]
        )
        _assert_positions_match_scan(a, _twists(a, rng))


def test_support_positions_match_scan_on_extensions():
    # sec7_1 with one external axis (rank 3) and with two (rank 4), and the
    # double extension of external_toy (rank 3), whose weights are coplanar
    a, _ = _sec71()
    ext = build_external_extension(a, [0, 1, 2, 0, 2, 1, 1, 0, 2], 10)
    assert ext.rank == 3
    _assert_positions_match_scan(
        ext, [V([Fraction(1, 2), Fraction(-1, 3), Fraction(9, 2)]), V([1, 0, 0])]
    )
    double, twist_l, twist_m = build_double_extension(
        a, [i % 3 for i in range(9)], [(2 * i + 1) % 3 for i in range(9)], 10,
        Fraction(1, 2),
    )
    assert double.rank == 4
    _assert_positions_match_scan(double, [double.twist + twist_l, double.twist + twist_m])
    toy = load_spec(str(CORPUS / "external_toy.json"))
    ext = toy.external
    double, twist_l, twist_m = build_double_extension(
        toy.action, ext["m_lambda"], ext["m_mu"], ext["N"], Fraction(1, 2)
    )
    assert double.rank == 3
    rng = random.Random(29)
    _assert_positions_match_scan(
        double, [double.twist + twist_l, double.twist + twist_m, *_twists(double, rng)]
    )


def test_destabilising_beta_examples():
    a2 = TorusAction(2, [V([1, 2]), V([2, 1])], IP2)
    beta, lam = destabilising_beta(a2, SupportPoint([0, 1]))
    assert beta == V([Fraction(3, 2), Fraction(3, 2)])
    assert lam.cochar == (1, 1)
    a = _a1()
    beta, lam = destabilising_beta(a, SupportPoint([0, 2]))
    assert beta.is_zero() and lam is None
    beta, lam = destabilising_beta(
        TorusAction(2, [V([2, 0])], IP2), SupportPoint([0])
    )
    assert beta == V([2, 0]) and lam.cochar == (1, 0)


def test_beta_deterministic_under_permutation():
    rng = random.Random(5)
    for _ in range(40):
        wts = [
            V([Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))])
            for _ in range(4)
        ]
        a = TorusAction(2, wts, IP2)
        beta, _ = destabilising_beta(a, SupportPoint([0, 1, 2, 3]))
        perm = list(range(4))
        rng.shuffle(perm)
        b = TorusAction(2, [wts[i] for i in perm], IP2)
        beta2, _ = destabilising_beta(b, SupportPoint([0, 1, 2, 3]))
        assert beta == beta2


def test_admissible_cone_examples():
    _, g = _sec71()
    cone = admissible_cone(g, 2)
    assert [(tuple(n.entries), s) for n, s in cone.halfspaces] == [
        ((1, -1), True),
        ((2, 1), True),
    ]
    # inside the cone yet outside the standard positive Weyl chamber:
    # the witness pairs negatively with the other simple-root weight (1, 2)
    assert cone.contains(V([1, -1]))
    assert V([1, -1]).dot(V([1, 2])) < 0

    trivial = admissible_cone(GroupSpec.trivial(), 2)
    assert trivial.is_full_space

    with pytest.raises(EmptyCone):
        admissible_cone(
            GroupSpec([V([1, -1]), V([-1, 1])], 0, []), 2
        )


def test_x_min_examples():
    a = _a1()
    assert x_min(a, OneParamSubgroup(V([1]))) == (frozenset({0}),)
    assert sum(f[0][0] for f in a.levels((1,))) == -1
    tie = TorusAction(1, [V([-1]), V([-1]), V([2])], IP1)
    assert x_min(tie, OneParamSubgroup(V([1]))) == (frozenset({0, 1}),)
    prod, _ = _sec71()
    argmin = x_min(prod, OneParamSubgroup(V([1, 0])))
    assert argmin == (frozenset({2}), frozenset({5}), frozenset({6}))
    # the hexagon vertex (-3, -2) under <(1,0), .>
    assert sum(f[0][0] for f in prod.levels((1, 0))) == -3


def test_x_min_argmin_scale_invariant():
    prod, _ = _sec71()
    lam = OneParamSubgroup(V([1, 0]))
    lam3 = OneParamSubgroup(V([3, 0]))
    assert x_min(prod, lam) == x_min(prod, lam3)


def test_adapted_region_examples():
    a = _a1()
    region = adapted_region(a, OneParamSubgroup(V([1])), Fraction(1, 10))
    assert (region.lower, region.upper) == (-1, 0)
    assert region.well_adapted_interval() == (-1, Fraction(-9, 10))
    assert region.is_adapted(Fraction(-1, 2))
    assert not region.is_adapted(Fraction(0))
    assert region.is_well_adapted(Fraction(-19, 20))

    doubled = adapted_region(a, OneParamSubgroup(V([2])))
    assert (doubled.lower, doubled.upper) == (-2, 0)
    # the set of adapted characters is unchanged under positive rescaling
    for chi in [Fraction(-1, 2), Fraction(-99, 100), Fraction(1, 7), Fraction(-2)]:
        t1 = V([chi]).dot(V([1]))
        t2 = V([chi]).dot(V([2]))
        assert region.is_adapted(t1) == doubled.is_adapted(t2)

    single = TorusAction(1, [V([3]), V([3])], IP1)
    with pytest.raises(NoAdaptedTwist):
        adapted_region(single, OneParamSubgroup(V([1])))

    with pytest.raises(ValueError):
        AdaptedRegion(0, 1, OneParamSubgroup(V([1])), Fraction(2))


def test_adapted_region_matches_the_segre_sumset():
    # the flow's two least values over the distinct Segre weights (the
    # sumset), against the per-factor reading; factors with one value under
    # the flow, alone or beside others, and flows with no adapted twist
    rng = random.Random(2503)
    cases = [
        (2, [[[1, 2]], [[0, 0], [0, 3]]], [1, 0]),
        (2, [[[1, 2]], [[0, 0], [0, 3]], [[2, 1], [0, 0], [1, 1]]], [1, 0]),
        (1, [[[3]], [[-1], [-1]]], [2]),
        (1, [[[3]], [[-1], [4]], [[0], [2], [7]]], [-1]),
    ]
    for rank in (1, 2, 3):
        for _ in range(25):
            factors = [_random_factor(rng, rank) for _ in range(rng.randint(1, 3))]
            lam = [rng.randint(-2, 2) for _ in range(rank)]
            if any(lam):
                cases.append((rank, factors, lam))
    none = 0
    for rank, factors, lam in cases:
        ip = InnerProduct.identity(rank)
        a = build_product_action([TorusAction(rank, ws, ip) for ws in factors])
        flow = OneParamSubgroup(lam)
        values = sorted({flow.pairing(w) for w in a.support_weights()})
        if len(values) < 2:
            none += 1
            with pytest.raises(NoAdaptedTwist):
                adapted_region(a, flow)
            continue
        region = adapted_region(a, flow)
        assert (region.lower, region.upper) == tuple(values[:2]), (factors, lam)
        assert region.epsilon == (values[1] - values[0]) / 1000
    assert none >= 2


def test_cocharacter_fan_rank1_single_piece():
    a = _a1()
    cone = Cone([(V([1]), True)])
    fan = cocharacter_fan(a, cone)
    assert len(fan.pieces) == 1
    # its face carries the cocharacter as integers over denominator 1
    face = fan.pieces[0].face
    assert face.point == (1, 1) and face.sample == V([1])
    # the one rank-1 piece is a chamber, so the fan is universal
    assert fan.chamber_pieces() == list(fan.pieces) and fan.is_universal
    assert universal_1ps(a, cone).unique


def test_fan_all_weights_equal_single_piece():
    a = TorusAction(1, [V([2]), V([2])], IP1)
    cone = Cone([(V([1]), True)])
    fan = cocharacter_fan(a, cone)
    assert len(fan.pieces) == 1
    assert fan.pieces[0].min_support == frozenset({0, 1})


def test_fan_sec71_multiple_pieces():
    prod, g = _sec71()
    cone = admissible_cone(g, 2)
    fan = cocharacter_fan(prod, cone)
    chambers = fan.chamber_pieces()
    assert len(chambers) >= 2
    assert len({p.min_support for p in chambers}) >= 2
    res = universal_1ps(prod, cone)
    assert not res.unique


def test_fan_lone_chamber_sample_ignores_adjoint_weight_scale():
    # the one weight-difference line x = 0 bounds the open quadrant, so the
    # quadrant is one chamber, sampled by the region's LP; positive
    # multiples of the adjoint weights cut out the same cone
    a = TorusAction(2, [V([0, 0]), V([1, 0])], IP2)
    samples = set()
    for s, t in [(1, 1), (3, 1), (1, 3), (2, 5)]:
        cone = admissible_cone(GroupSpec([V([s, 0]), V([0, t])], 0, []), 2)
        (piece,) = cocharacter_fan(a, cone).pieces
        samples.add(piece.sample)
    assert len(samples) == 1


def test_fan_rank2_cone_without_interior_raises_empty_cone():
    prod, _ = _sec71()
    ray = Cone([(V([1, -1]), False), (V([-1, 1]), False)])
    with pytest.raises(EmptyCone):
        cocharacter_fan(prod, ray)


def test_fan_propagates_decomposition_defects(monkeypatch):
    # only an empty region means an empty cone; any other error is a defect
    import gitloci.stability as stability

    def broken(arr):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(stability, "chamber_decomposition_2d", broken)
    prod, g = _sec71()
    with pytest.raises(ZeroDivisionError):
        cocharacter_fan(prod, admissible_cone(g, 2))


def test_universal_1ps_b0_variant_is_none():
    prod, _ = _sec71()
    g_b0 = GroupSpec([V([2, 1])], 0, [])
    cone = admissible_cone(g_b0, 2)
    res = universal_1ps(prod, cone)
    assert not res.unique
    assert len(res.pieces) > 1


def test_gm_stable_support_examples():
    a = _a1()
    pred = gm_stable_support(a, OneParamSubgroup(V([1])))
    assert pred(SupportPoint([0, 2]))
    assert not pred(SupportPoint([0]))      # inside the minimal stratum
    assert not pred(SupportPoint([1, 2]))   # not attracted at all


def test_uhat_trivial_group_reduces_to_gm():
    a = _a1()
    g = GroupSpec.trivial()
    g1 = GroupSpec([], 0, [[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]])
    lam = OneParamSubgroup(V([1]))
    x = ExplicitPoint([[1, 0, 1]])
    y = ExplicitPoint([[1, 0, 0]])
    # a group with no matrices acts as the identity on every factor
    for group in (g, g1):
        assert orbit_point(x, group) == orbit_point(x, g1)
        assert uhat_stable_explicit(x, a, group, lam).status is SweepStatus.STABLE
        assert uhat_stable_explicit(y, a, group, lam).status is SweepStatus.UNSTABLE


def test_uhat_single_factor_witness():
    w = [V([1, 0]), V([0, 1]), V([-1, -1])]
    a = TorusAction(2, w, IP2)
    g = GroupSpec(
        [V([1, -1]), V([2, 1])], 2, [[[ONE, B, C], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]]
    )
    # pick the flow making index 0 the unique minimal coordinate
    lam = OneParamSubgroup(V([-1, 0]))
    assert x_min(a, lam) == (frozenset({0}),)
    verdict = uhat_stable_explicit(ExplicitPoint([[0, 1, 0]]), a, g, lam)
    assert verdict.status is SweepStatus.UNSTABLE
    assert verdict.witness == (0, 0)  # the orbit coordinate b vanishes at 0
    # under the flow with minimal coordinate 2 the orbit coordinate there is
    # invariant, so a nonzero constant keeps the whole orbit attracted
    lam2 = OneParamSubgroup(V([1, 0]))
    assert x_min(a, lam2) == (frozenset({2}),)
    verdict = uhat_stable_explicit(ExplicitPoint([[0, 1, 1]]), a, g, lam2)
    assert verdict.status is SweepStatus.STABLE


def test_uhat_all_minimal_is_unstable_at_the_identity():
    # both weights are equal, so every coordinate is minimal under the flow;
    # the per-factor system {1+b, 1} has no common zero, and the empty
    # non-minimal system vanishes everywhere: the orbit sits inside the
    # minimal stratum, with (0, 0) as the witness
    a = TorusAction(1, [V([1]), V([1])], IP1)
    g = GroupSpec([], 1, [[[ONE, B], [ZERO, ONE]]])
    lam = OneParamSubgroup(V([1]))
    assert x_min(a, lam) == (frozenset({0, 1}),)
    verdict = uhat_stable_explicit(ExplicitPoint([[1, 1]]), a, g, lam)
    assert verdict.status is SweepStatus.UNSTABLE
    assert verdict.witness == (0, 0)


def test_uhat_sec71_sample_points():
    prod, g = _sec71()
    lam = OneParamSubgroup(V([1, 0]))
    basin_miss = ExplicitPoint([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    in_min = ExplicitPoint([[0, 0, 1], [0, 0, 1], [1, 0, 0]])
    stable = ExplicitPoint([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert uhat_stable_explicit(basin_miss, prod, g, lam).status is SweepStatus.UNSTABLE
    assert uhat_stable_explicit(in_min, prod, g, lam).status is SweepStatus.UNSTABLE
    assert uhat_stable_explicit(stable, prod, g, lam).status is SweepStatus.STABLE


def test_uhat_stable_implies_gm_stable_at_identity():
    prod, g = _sec71()
    lam = OneParamSubgroup(V([1, 0]))
    pred = gm_stable_support(prod, lam)
    stable = ExplicitPoint([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert uhat_stable_explicit(stable, prod, g, lam).status is SweepStatus.STABLE
    assert pred(stable.support(prod))


def test_h_stable_trivial_group_equals_torus_status():
    a = _a1()
    g1 = GroupSpec([], 0, [[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]])
    assert h_stable_explicit(ExplicitPoint([[1, 0, 1]]), a, g1).status is SweepStatus.STABLE
    assert h_stable_explicit(ExplicitPoint([[0, 0, 1]]), a, g1).status is SweepStatus.UNSTABLE


def test_h_stable_sec71():
    prod, g = _sec71()
    # every achievable orbit support of this point is torus-stable
    good = ExplicitPoint([[1, 0, 0], [1, 1, 1], [1, 1, 1]])
    assert h_stable_explicit(good, prod, g).status is SweepStatus.STABLE
    # generic support already unstable: the identity parameter is a witness
    bad = ExplicitPoint([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    verdict = h_stable_explicit(bad, prod, g)
    assert verdict.status is SweepStatus.UNSTABLE
    # an orbit degeneration can break stability even when the generic
    # support is stable
    fragile = ExplicitPoint([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert torus_status(prod, fragile.support(prod)) is TorusStatus.STABLE
    assert h_stable_explicit(fragile, prod, g).status is SweepStatus.UNSTABLE


def test_h_stable_cross_check_with_grid():
    prod, g = _sec71()
    pts = {
        "good": ExplicitPoint([[1, 0, 0], [1, 1, 1], [1, 1, 1]]),
        "fragile": ExplicitPoint([[1, 0, 1], [0, 1, 1], [1, 1, 0]]),
    }
    for name, x in pts.items():
        orbit = orbit_point(x, g)
        grid_ok = True
        for b0 in range(-5, 6):
            for c0 in range(-5, 6):
                pt = evaluate_point(orbit, b0, c0)
                if torus_status(prod, pt.support(prod)) is not TorusStatus.STABLE:
                    grid_ok = False
        verdict = h_stable_explicit(x, prod, g).status
        if verdict is SweepStatus.STABLE:
            assert grid_ok, name
        if not grid_ok:
            assert verdict is not SweepStatus.STABLE, name


def _seeded_sweep(rng):
    """An explicit point of sec7_1 and a group whose u-matrices are upper or
    lower unitriangular with entries of degree <= 2 in (b, c)."""
    monomials = [B, C, B * B, B * C, C * C]

    def entry():
        e = ZERO
        for m in rng.sample(monomials, rng.randint(0, 2)):
            e = e + m.scale(rng.choice((-2, -1, 1, 2)))
        return e

    def matrix():
        upper = rng.random() < 0.5
        return [
            [ONE if i == j else entry() if (j > i) == upper else ZERO for j in range(3)]
            for i in range(3)
        ]

    coords = [[rng.choice((0, 0, 1, 1, -1, 2)) for _ in range(3)] for _ in range(3)]
    for block in coords:
        block[rng.randrange(3)] = 1  # no factor of zeros
    g = GroupSpec([V([1, -1]), V([2, 1])], 2, [matrix() for _ in range(3)])
    return ExplicitPoint(coords), g


def test_h_stable_decides_only_non_stable_candidates(monkeypatch):
    from gitloci import stability

    cases = []
    for path in sorted(CORPUS.glob("*.json")):
        spec = load_spec(str(path))
        if spec.group is not None:
            cases += [
                (x, spec.action, spec.group)
                for x in spec.points.values()
                if isinstance(x, ExplicitPoint)
            ]
    prod, _ = _sec71()
    rng = random.Random(41)
    cases += [(x, prod, g) for x, g in (_seeded_sweep(rng) for _ in range(24))]
    # h_stable_explicit places each candidate just before deciding it, so
    # the last status placed is the status of the candidate being decided
    placed, reached = [], []
    real_status, real_decide = stability.torus_status, stability.common_zero_avoiding

    def status(*args, **kwargs):
        placed.append(real_status(*args, **kwargs))
        return placed[-1]

    def decide(vanish, avoid):
        reached.append(placed[-1])
        return real_decide(vanish, avoid)

    monkeypatch.setattr(stability, "torus_status", status)
    monkeypatch.setattr(stability, "common_zero_avoiding", decide)
    got = [h_stable_explicit(x, a, g) for x, a, g in cases]
    monkeypatch.undo()
    assert reached and TorusStatus.STABLE not in reached
    assert got == [h_stable_explicit_oracle(x, a, g) for x, a, g in cases]
    assert {v.status for v in got} == set(SweepStatus)


def test_stab_u_dimension_examples():
    w = [V([1, 0]), V([0, 1]), V([-1, -1])]
    g = GroupSpec(
        [V([1, -1]), V([2, 1])], 2, [[[ONE, B, C], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]]
    )
    assert stab_u_dimension(ExplicitPoint([[1, 0, 0]]), g) is StabDimension.POSITIVE
    assert stab_u_dimension(ExplicitPoint([[0, 1, 0]]), g) is StabDimension.POSITIVE
    prod, gfull = _sec71()
    trivial = ExplicitPoint([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert stab_u_dimension(trivial, gfull) is StabDimension.ZERO
    whole = ExplicitPoint([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    assert stab_u_dimension(whole, gfull) is StabDimension.POSITIVE


def test_semistability_iff_mu_nonnegative_exhaustive():
    # rank <= 2 corpus-scale actions, every support, every facet-normal
    actions = [
        _a1(),
        TorusAction(2, [V([1, 0]), V([0, 1]), V([-1, -1])], IP2),
        TorusAction(
            2,
            [V([1, 1]), V([-1, 1]), V([1, -1]), V([-1, -1]), V([2, 0])],
            IP2,
            twist=V([Fraction(1, 3), 0]),
        ),
    ]
    for a in actions:
        for sp in a.iter_supports():
            wts = a.segre_weights(sp, twisted=True)
            semistable = torus_status(a, sp) is not TorusStatus.UNSTABLE
            mu_ok = all(
                hm_mu(a, sp, OneParamSubgroup.from_vector(d)) >= 0
                for d in facet_normal_candidates(wts)
            )
            beta, _ = destabilising_beta(a, sp)
            assert semistable == mu_ok == beta.is_zero()


def test_md1ps_minimises_M_over_facet_candidates():
    # the returned subgroup attains the minimal normalised value among the
    # facet-normal candidate set, for unstable supports, and that value is
    # -|beta| (cocharacters normed by the dual form)
    rng = random.Random(23)
    for ip in (IP2, InnerProduct([[2, 1], [1, 1]])):
        for _ in range(60):
            wts = [
                V([Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))])
                for _ in range(rng.randint(1, 5))
            ]
            a = TorusAction(2, wts, ip)
            sp = SupportPoint(range(len(wts)))
            beta, lam = destabilising_beta(a, sp)
            if beta.is_zero():
                continue
            m_beta = hm_M(a, sp, lam)
            assert m_beta == HMValue(-ip.norm_sq(beta), ip.norm_sq(beta))
            candidates = [
                OneParamSubgroup.from_vector(d)
                for d in facet_normal_candidates(a.segre_weights(sp, twisted=True))
            ]
            best = min(hm_M(a, sp, rho) for rho in candidates)
            assert not (m_beta > best)


def test_lambda_beta_destabilises_under_any_form():
    # lambda_beta is the primitive multiple of G beta, the form dual of
    # beta: the multiple of beta itself need not destabilise
    from gitloci.strata import BetaIndex

    G = InnerProduct([[2, 1], [1, 1]])
    a = TorusAction(2, [V([-2, 1]), V([3, 3]), V([3, -3])], G)
    sp = SupportPoint([0, 2])
    beta, lam = destabilising_beta(a, sp)
    assert beta == V([Fraction(3, 26), Fraction(-9, 13)])
    assert lam.cochar == (-4, -5)
    assert hm_mu(a, sp, lam) == -3
    assert BetaIndex.from_beta(a, beta).lambda_beta == lam

    rng = random.Random(808)
    checked = 0
    while checked < 200:
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(-3, 3)
        if p * q - r * r <= 0 or r == 0:
            continue  # positive definite and not diagonal
        ip = InnerProduct([[p, r], [r, q]])
        weights = [V([rng.randint(-4, 4), rng.randint(-4, 4)]) for _ in range(3)]
        twist = V([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)])
        a = TorusAction(2, weights, ip, twist)
        for sp in a.iter_supports():
            beta, lam = destabilising_beta(a, sp)
            if beta.is_zero():
                continue
            dual = RationalVector([ip.pairing(e, beta) for e in (V([1, 0]), V([0, 1]))])
            assert lam.cochar == tuple(dual.primitive_integral())
            # the least pairing over the support is attained on beta's face
            assert hm_mu(a, sp, lam) == -lam.pairing(beta) < 0
            assert BetaIndex.from_beta(a, beta).lambda_beta == lam
            checked += 1


def test_dual_to_matches_fraction_oracle():
    rng = random.Random(2020)
    forms = [
        IP1,
        IP2,
        InnerProduct([[2, 1], [1, 3]]),
        InnerProduct.identity(3),
        InnerProduct([[3, -1, 0], [-1, 2, 1], [0, 1, 4]]),
    ]
    checked = 0
    for ip in forms:
        for _ in range(40):
            beta = V(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(ip.rank)]
            )
            if beta.is_zero():
                with pytest.raises(ValueError):
                    OneParamSubgroup.dual_to(beta, ip)
                continue
            assert OneParamSubgroup.dual_to(beta, ip) == dual_to_oracle(beta, ip)
            checked += 1
    assert checked > 150
