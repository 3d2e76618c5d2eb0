"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (rational equality); the only numeric knobs are the
stated wall-clock budgets, enforced with monotonic timers.
"""

import itertools
import random
import time
from fractions import Fraction

from gitloci.action import (
    SupportPoint,
    TorusAction,
    evaluate_point,
    orbit_point,
)
from gitloci.linprog import lp_feasible
from gitloci.polytope import (
    PointSet,
    convex_hull_2d,
    min_norm_point,
    min_norm_point_oracle,
)
from gitloci.qpoly import InnerProduct, RationalVector
from gitloci.stability import (
    OneParamSubgroup,
    SweepStatus,
    TorusStatus,
    adapted_region,
    admissible_cone,
    destabilising_beta,
    gm_stable_support,
    hm_mu,
    torus_status,
    uhat_stable_explicit,
    universal_1ps,
    x_min,
)
from gitloci.strata import beta_index_set, verify_stratification
from gitloci.vgit import git_class, verify_external_change, wall_chamber_decomposition
from oracles import facet_normal_candidates

V = RationalVector


def _report(number: int, label: str):
    print(f"[PASS] criterion {number}: {label}")


def _corpus_actions(ex1_7, sec7_1, external_toy):
    return [
        ("ex1_7", ex1_7.action),
        ("sec7_1", sec7_1.action),
        ("external_toy", external_toy.action),
    ]


def test_criterion_01_chamber_structure(ex1_7):
    t0 = time.monotonic()
    cc = wall_chamber_decomposition(ex1_7.action)
    assert cc.wall_values() == [Fraction(-1), Fraction(0), Fraction(2)]
    assert [ch.interval for ch in cc.chambers] == [
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(2)),
    ]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "rank-1 walls at {-1, 0, 2} with chambers (-1,0), (0,2)")


def test_criterion_02_hexagon(sec7_1):
    t0 = time.monotonic()
    action = sec7_1.action
    hull = convex_hull_2d(action.distinct_segre_weights())
    got = {tuple(int(e) for e in v.entries) for v in hull}
    assert len(hull) == 6

    # independent oracle: enumerate all 27 vertex sums directly from the
    # factor weights, then detect hull vertices by LP membership against
    # the other points (simplex path, not the monotone chain under test)
    blocks = [
        [tuple(int(e) for e in action.weights[i].entries) for i in blk]
        for blk in action.factor_partition
    ]
    sums = sorted(
        {
            (a[0] + b[0] + c[0], a[1] + b[1] + c[1])
            for a, b, c in itertools.product(*blocks)
        }
    )

    def in_hull_of_others(v, pts):
        others = [p for p in pts if p != v]
        rows = [
            [Fraction(p[0]) for p in others],
            [Fraction(p[1]) for p in others],
            [Fraction(1)] * len(others),
        ]
        rhs = [Fraction(v[0]), Fraction(v[1]), Fraction(1)]
        feasible, _ = lp_feasible(rows, rhs)
        return feasible

    oracle_vertices = {v for v in sums if not in_hull_of_others(v, sums)}
    assert got == oracle_vertices == {
        (3, 1), (1, 3), (-1, 2), (-3, -2), (-2, -3), (2, -1),
    }
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(2, "product weight hull is the hexagon with 6 oracle-matched vertices")


def test_criterion_03_admissible_cone(sec7_1):
    cone = admissible_cone(sec7_1.group, 2)
    assert [(tuple(int(e) for e in n.entries), s) for n, s in cone.halfspaces] == [
        ((1, -1), True),
        ((2, 1), True),
    ]
    # strictly larger than the standard positive Weyl chamber: an integral
    # cocharacter in the cone pairing negatively with the root weight (1, 2)
    witness = V([1, -1])
    assert cone.contains(witness)
    assert witness.dot(V([1, 2])) < 0
    _report(3, "admissible cone {a-b>0, 2a+b>0} strictly exceeds the Weyl chamber")


def test_criterion_04_b0_variant_no_universal_choice(sec7_1):
    full_cone = admissible_cone(sec7_1.group, 2)
    b0_cone = admissible_cone(sec7_1.variants["b0"], 2)
    # dropping the (1,-1) adjoint weight strictly enlarges the cone
    assert len(b0_cone.halfspaces) == 1
    enlarger = V([0, 1])
    assert b0_cone.contains(enlarger) and not full_cone.contains(enlarger)
    result = universal_1ps(sec7_1.action, b0_cone)
    assert not result.unique
    assert len(result.pieces) > 1
    _report(4, "b=0 variant enlarges the cone and has no universal flow")


def test_criterion_05_min_norm_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(90210)
    for _ in range(200):
        dim = rng.choice([1, 2, 3])
        pts = [
            V([Fraction(rng.randint(-5, 5)) for _ in range(dim)])
            for _ in range(rng.randint(1, 8))
        ]
        ip = InnerProduct.identity(dim)
        S = PointSet(pts)
        assert min_norm_point(S, ip) == min_norm_point_oracle(S, ip)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(5, "Wolfe equals the face-enumeration oracle on 200 random sets")


def test_criterion_06_hilbert_mumford_consistency(ex1_7, sec7_1, external_toy):
    for name, action in _corpus_actions(ex1_7, sec7_1, external_toy):
        assert len(action.distinct_segre_weights()) <= 12
        for sp in action.iter_supports():
            wts = action.segre_weights(sp, twisted=True)
            semistable = torus_status(action, sp) is not TorusStatus.UNSTABLE
            mu_ok = all(
                hm_mu(action, sp, OneParamSubgroup.from_vector(d)) >= 0
                for d in facet_normal_candidates(wts)
            )
            beta, _ = destabilising_beta(action, sp)
            assert semistable == mu_ok == beta.is_zero(), (name, sorted(sp.support))
    _report(6, "semistable == mu-nonnegative == zero minimum-norm point, exhaustively")


def test_criterion_07_stratification_shadow(ex1_7, sec7_1, external_toy):
    for name, action in _corpus_actions(ex1_7, sec7_1, external_toy):
        report = verify_stratification(action)
        assert report.ok, (name, report.violations)
    rank1 = verify_stratification(ex1_7.action)
    betas = sorted(b.beta.entries[0] for b in rank1.betas)
    assert betas == [Fraction(-1), Fraction(0), Fraction(2)]
    sizes = {k[0]: v for k, v in rank1.stratum_sizes.items()}
    assert sizes == {Fraction(0): 5, Fraction(-1): 1, Fraction(2): 1}
    _report(7, "zero stratification violations; rank-1 partition is 5/1/1")


def test_criterion_08_external_change_equivalence(external_toy):
    t0 = time.monotonic()
    ext = external_toy.external
    rep = verify_external_change(
        external_toy.action,
        ext["m_lambda"],
        ext["m_mu"],
        ext["N"],
        Fraction(ext["epsilon"]),
    )
    assert rep.lambda_check and rep.mu_check
    control = verify_external_change(
        external_toy.action,
        ext["m_lambda"],
        ext["m_mu"],
        ext["N"],
        Fraction(ext["epsilon"]),
        twist_lambda_override=V([0, 0, Fraction(ext["N"] + 1)]),
    )
    assert not control.lambda_check
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(8, "both extension checks pass; the mis-twisted control fails")


def test_criterion_09_chamber_invariance(ex1_7):
    rng = random.Random(60221023)
    action = ex1_7.action
    cc = wall_chamber_decomposition(action)
    for ch in cc.chambers:
        lo, hi = ch.interval
        for _ in range(50):  # 50 pairs per chamber: 100 pairs total
            t1 = lo + (hi - lo) * Fraction(rng.randint(1, 199), 200)
            t2 = lo + (hi - lo) * Fraction(rng.randint(1, 199), 200)
            assert git_class(action, V([t1])) == git_class(action, V([t2]))
    families = [ch.family for ch in cc.chambers]
    assert len(set(families)) == len(families) == 2
    _report(9, "identical families within chambers, distinct across them")


def test_criterion_10_unipotent_sweep_soundness(sec7_1):
    t0 = time.monotonic()
    action, group = sec7_1.action, sec7_1.group
    lam = OneParamSubgroup(V([1, 0]))
    predicate = gm_stable_support(action, lam)
    grid = [Fraction(k) for k in range(-10, 11)]  # 21 x 21 rational grid
    for name, point in sorted(sec7_1.points.items()):
        if isinstance(point, SupportPoint):
            continue
        verdict = uhat_stable_explicit(point, action, group, lam)
        assert verdict.status in (SweepStatus.STABLE, SweepStatus.UNSTABLE), name
        orbit = orbit_point(point, group)
        grid_all_stable = True
        for b0 in grid:
            for c0 in grid:
                spec = evaluate_point(orbit, b0, c0)
                if not predicate(spec.support(action)):
                    grid_all_stable = False
        if verdict.status is SweepStatus.STABLE:
            assert grid_all_stable, name
        else:
            witness_fails = False
            if verdict.witness is not None:
                spec = evaluate_point(orbit, *verdict.witness)
                witness_fails = not predicate(spec.support(action))
            assert witness_fails or not grid_all_stable, name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(10, "sweep verdicts agree with the 21x21 parameter grid")


def test_criterion_11_scale_and_permutation_invariance(ex1_7, sec7_1):
    # positive rescaling of the flow
    for action in (ex1_7.action, sec7_1.action):
        rank = action.rank
        base = [0] * rank
        base[0] = 1
        lam = OneParamSubgroup(V(base))
        for n in (2, 3, 7):
            lam_n = OneParamSubgroup(lam.cochar.scale(n), primitive=False)
            assert (
                x_min(action, lam).per_factor_argmin
                == x_min(action, lam_n).per_factor_argmin
            )
            try:
                r1 = adapted_region(action, lam)
                rn = adapted_region(action, lam_n)
            except Exception:
                continue
            assert rn.lower == n * r1.lower and rn.upper == n * r1.upper
            for chi_t in (Fraction(-1, 2), Fraction(1, 5), r1.lower, r1.upper):
                assert r1.is_adapted(chi_t) == rn.is_adapted(n * chi_t)

    # permutations of the weight list leave every report unchanged
    rng = random.Random(8128)
    a = ex1_7.action
    perm = [2, 0, 1]
    permuted = TorusAction(
        1, [a.weights[i] for i in perm], a.ip, a.twist
    )
    relabel = {old: new for new, old in enumerate(perm)}

    for sp in a.iter_supports():
        sp2 = SupportPoint({relabel[i] for i in sp.support})
        assert torus_status(a, sp) == torus_status(permuted, sp2)
        b1, _ = destabilising_beta(a, sp)
        b2, _ = destabilising_beta(permuted, sp2)
        assert b1 == b2

    cc1 = wall_chamber_decomposition(a)
    cc2 = wall_chamber_decomposition(permuted)
    assert cc1.wall_values() == cc2.wall_values()
    assert [c.interval for c in cc1.chambers] == [c.interval for c in cc2.chambers]
    for c1, c2 in zip(cc1.chambers, cc2.chambers):
        assert {frozenset(relabel[i] for i in s) for s in c1.family} == set(c2.family)

    s1 = verify_stratification(a)
    s2 = verify_stratification(permuted)
    assert s1.ok and s2.ok
    assert dict(s1.stratum_sizes) == dict(s2.stratum_sizes)
    assert {b.beta.entries for b in s1.betas} == {b.beta.entries for b in s2.betas}

    assert {b.beta.entries for b in beta_index_set(a)} == {
        b.beta.entries for b in beta_index_set(permuted)
    }
    _report(11, "reports invariant under flow rescaling and weight permutation")
