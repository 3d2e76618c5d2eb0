import inspect
import random
from fractions import Fraction

import pytest

from gitloci.action import (
    ExplicitPoint,
    GroupSpec,
    SupportPoint,
    TorusAction,
    build_product_action,
    evaluate_point,
    orbit_point,
)
from gitloci.polytope import Cone
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
    ZeroBeta,
    adapted_region,
    admissible_cone,
    cocharacter_fan,
    destabilising_beta,
    gm_stable_support,
    h_stable_explicit,
    hm_M,
    hm_mu,
    stab_u_dimension,
    torus_status,
    uhat_stable_explicit,
    universal_1ps,
    x_min,
)
from oracles import facet_normal_candidates

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
    scaled = hm_M(a, SupportPoint([2]), OneParamSubgroup(V([2]), primitive=False))
    assert scaled == HMValue(-4, 4) == HMValue(-2, 1)
    assert HMValue(-2, 4) == HMValue(-1, 1)
    assert HMValue(-2, 4) < HMValue(1, 1)
    assert HMValue(1, 4) < HMValue(1, 1)
    assert HMValue(-1, 1) < HMValue(-1, 2)


def test_torus_status_examples():
    a = _a1()
    assert torus_status(a, SupportPoint([0, 2])) is TorusStatus.STABLE
    assert torus_status(a, SupportPoint([1])) is TorusStatus.STRICTLY_SEMISTABLE
    assert torus_status(a, SupportPoint([2])) is TorusStatus.UNSTABLE


def test_torus_status_has_no_lambda_parameter():
    # one-parameter independence is structural: the signature takes no flow
    params = inspect.signature(torus_status).parameters
    assert "lam" not in params and "lambda_" not in params


def test_destabilising_beta_examples():
    a2 = TorusAction(2, [V([1, 2]), V([2, 1])], IP2)
    beta, lam = destabilising_beta(a2, SupportPoint([0, 1]))
    assert beta == V([Fraction(3, 2), Fraction(3, 2)])
    assert lam.cochar == V([1, 1])
    a = _a1()
    beta, lam = destabilising_beta(a, SupportPoint([0, 2]))
    assert beta.is_zero() and lam is None
    with pytest.raises(ZeroBeta):
        destabilising_beta(a, SupportPoint([0, 2]), require_unstable=True)
    beta, lam = destabilising_beta(
        TorusAction(2, [V([2, 0])], IP2), SupportPoint([0])
    )
    assert beta == V([2, 0]) and lam.cochar == V([1, 0])


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
    data = x_min(a, OneParamSubgroup(V([1])))
    assert data.per_factor_argmin == (frozenset({0}),)
    assert data.min_weight == -1
    tie = TorusAction(1, [V([-1]), V([-1]), V([2])], IP1)
    assert x_min(tie, OneParamSubgroup(V([1]))).per_factor_argmin == (
        frozenset({0, 1}),
    )
    prod, _ = _sec71()
    data = x_min(prod, OneParamSubgroup(V([1, 0])))
    assert data.per_factor_argmin == (frozenset({2}), frozenset({5}), frozenset({6}))
    assert data.min_weight == -3  # the hexagon vertex (-3, -2) under <(1,0), .>


def test_x_min_argmin_scale_invariant():
    prod, _ = _sec71()
    lam = OneParamSubgroup(V([1, 0]))
    lam3 = OneParamSubgroup(V([3, 0]), primitive=False)
    assert x_min(prod, lam).per_factor_argmin == x_min(prod, lam3).per_factor_argmin


def test_adapted_region_examples():
    a = _a1()
    region = adapted_region(a, OneParamSubgroup(V([1])), Fraction(1, 10))
    assert (region.lower, region.upper) == (-1, 0)
    assert region.well_adapted_interval() == (-1, Fraction(-9, 10))
    assert region.is_adapted(Fraction(-1, 2))
    assert not region.is_adapted(Fraction(0))
    assert region.is_well_adapted(Fraction(-19, 20))

    doubled = adapted_region(a, OneParamSubgroup(V([2]), primitive=False))
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


def test_cocharacter_fan_rank1_single_piece():
    a = _a1()
    cone = Cone([(V([1]), True)])
    fan = cocharacter_fan(a, cone)
    assert len(fan.pieces) == 1
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
    assert uhat_stable_explicit(x, a, g1, lam).status is SweepStatus.STABLE
    y = ExplicitPoint([[1, 0, 0]])
    assert uhat_stable_explicit(y, a, g1, lam).status is SweepStatus.UNSTABLE


def test_uhat_single_factor_witness():
    w = [V([1, 0]), V([0, 1]), V([-1, -1])]
    a = TorusAction(2, w, IP2)
    g = GroupSpec(
        [V([1, -1]), V([2, 1])], 2, [[[ONE, B, C], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]]
    )
    # pick the flow making index 0 the unique minimal coordinate
    lam = OneParamSubgroup(V([-1, 0]))
    assert x_min(a, lam).per_factor_argmin == (frozenset({0}),)
    verdict = uhat_stable_explicit(ExplicitPoint([[0, 1, 0]]), a, g, lam)
    assert verdict.status is SweepStatus.UNSTABLE
    assert verdict.witness == (0, 0)  # the orbit coordinate b vanishes at 0
    # under the flow with minimal coordinate 2 the orbit coordinate there is
    # invariant, so a nonzero constant keeps the whole orbit attracted
    lam2 = OneParamSubgroup(V([1, 0]))
    assert x_min(a, lam2).per_factor_argmin == (frozenset({2}),)
    verdict = uhat_stable_explicit(ExplicitPoint([[0, 1, 1]]), a, g, lam2)
    assert verdict.status is SweepStatus.STABLE


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
    assert lam.cochar == V([-4, -5])
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
            assert lam.cochar == dual.primitive_integral()
            # the least pairing over the support is attained on beta's face
            assert hm_mu(a, sp, lam) == -lam.pairing(beta) < 0
            assert BetaIndex.from_beta(a, beta).lambda_beta == lam
            checked += 1
