import itertools
import random
from fractions import Fraction

import pytest

from gitloci.action import (
    BadMinimalWeight,
    ExplicitPoint,
    GroupSpec,
    InvalidSupport,
    LengthMismatch,
    RankMismatch,
    SupportPoint,
    TorusAction,
    build_double_extension,
    build_external_extension,
    build_product_action,
    evaluate_point,
    forget_extension_axis,
    generic_support,
    orbit_point,
)
from gitloci.polytope import convex_hull_2d
from gitloci.qpoly import BiPoly, InnerProduct, RationalVector

V = RationalVector
IP1 = InnerProduct.identity(1)
IP2 = InnerProduct.identity(2)
B, C = BiPoly.var("b"), BiPoly.var("c")
ONE, ZERO = BiPoly.const(1), BiPoly.zero()


def _p2_factors():
    w = [V([1, 0]), V([0, 1]), V([-1, -1])]
    fV = TorusAction(2, w, IP2)
    fVd = TorusAction(2, [-x for x in w], IP2)
    return fV, fVd


def _sec71_product():
    fV, fVd = _p2_factors()
    return build_product_action([fV, fV, fVd])


def _sec71_group():
    uV = [[ONE, B, C], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    uVd = [[ONE, ZERO, ZERO], [-B, ONE, ZERO], [-C, ZERO, ONE]]
    return GroupSpec([V([1, -1]), V([2, 1])], 2, [uV, uV, uVd])


def test_product_of_two_rank1_lines():
    line = TorusAction(1, [V([-1]), V([1])], IP1)
    prod = build_product_action([line, line])
    assert prod.num_coords == 4
    assert prod.factor_partition == ((0, 1), (2, 3))
    segre = sorted(w.entries[0] for w in prod.segre_weights())
    assert segre == [-2, 0, 0, 2]


def test_single_factor_product_is_identity():
    line = TorusAction(1, [V([-1]), V([1])], IP1)
    prod = build_product_action([line])
    assert prod.weights == line.weights
    assert prod.factor_partition == line.factor_partition


def test_product_rank_mismatch():
    line = TorusAction(1, [V([-1]), V([1])], IP1)
    plane = TorusAction(2, [V([1, 0])], IP2)
    with pytest.raises(RankMismatch):
        build_product_action([line, plane])


def test_segre_hexagon_has_six_vertices():
    prod = _sec71_product()
    assert len(prod.segre_weights()) == 27
    hull = convex_hull_2d(prod.distinct_segre_weights())
    assert {tuple(int(e) for e in v.entries) for v in hull} == {
        (3, 1), (1, 3), (-1, 2), (-3, -2), (-2, -3), (2, -1),
    }


def test_segre_weight_is_sum_of_factor_weights():
    prod = _sec71_product()
    blocks = prod.factor_partition
    expected = []
    for combo in itertools.product(*blocks):
        w = V([0, 0])
        for i in combo:
            w = w + prod.weights[i]
        expected.append(tuple(w.entries))
    assert sorted(tuple(w.entries) for w in prod.segre_weights()) == sorted(expected)


def test_support_weights_are_the_distinct_segre_weights():
    # the per-factor sumset against the full Segre expansion, per support
    from test_vgit import _collinear_and_coinciding

    rng = random.Random(1729)
    actions = [_sec71_product(), *_collinear_and_coinciding()]
    for rank, n_factors in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        ip = InnerProduct.identity(rank)
        for _ in range(3):
            factors = [
                TorusAction(
                    rank,
                    [
                        V([rng.randint(-2, 2) for _ in range(rank)])
                        for _ in range(rng.randint(1, 3))
                    ],
                    ip,
                    V([Fraction(rng.randint(-3, 3), 2) for _ in range(rank)]),
                )
                for _ in range(n_factors)
            ]
            actions.append(build_product_action(factors))
    for a in actions:
        for sp in [None, *a.iter_supports()]:
            got = a.support_weights(sp)
            assert list(got) == sorted(set(got))
            assert all(type(e) is int for w in got for e in w)
            assert set(got) == {w.entries for w in a.segre_weights(sp)}
    # sec7_1's full support: 27 Segre coordinates on 12 distinct weights
    prod = _sec71_product()
    assert len(prod.support_weights(SupportPoint(range(9)))) == 12


def test_segre_min_and_argmin_match_the_segre_expansion():
    # the per-factor kernel against the least value over every Segre
    # coordinate of a support, and the coordinate tuples attaining it
    rng = random.Random(4711)
    actions = [_sec71_product()]
    for rank, n_factors in ((1, 2), (2, 2), (2, 3), (3, 2)):
        ip = InnerProduct.identity(rank)
        for _ in range(3):
            factors = [
                TorusAction(
                    rank,
                    [
                        V([rng.randint(-2, 2) for _ in range(rank)])
                        for _ in range(rng.randint(1, 3))
                    ],
                    ip,
                )
                for _ in range(n_factors)
            ]
            actions.append(build_product_action(factors))
    for a in actions:
        for _ in range(4):
            cochar = V([rng.randint(-3, 3) for _ in range(a.rank)])
            values = a.coordinate_values(cochar)
            assert values == [cochar.dot(w) for w in a.weights]
            for sp in [None, *a.iter_supports()]:
                blocks = a.factor_partition if sp is None else a.per_factor_support(sp)
                sums = {c: sum(values[i] for i in c) for c in itertools.product(*blocks)}
                least = min(sums.values())
                assert a.segre_min(values, sp) == least
                argmin = a.segre_argmin(values, sp)
                assert set(itertools.product(*argmin)) == {
                    c for c, v in sums.items() if v == least
                }
                assert least == min(cochar.dot(w) for w in a.segre_weights(sp))


def test_iter_supports_within_a_support():
    a = _sec71_product()
    every = list(a.iter_supports())
    assert len(every) == a.support_count() == 343
    for sp in every[::17]:
        inside = list(a.iter_supports(sp))
        assert [s.support for s in inside] == [
            s.support for s in every if s.support <= sp.support
        ]


def test_orbit_point_examples():
    g = GroupSpec(
        [V([1, -1]), V([2, 1])], 2, [[[ONE, B, C], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]]
    )
    fixed = orbit_point(ExplicitPoint([[1, 0, 0]]), g)
    assert [str(e) for e in fixed.coords[0]] == ["1*b^0*c^0", "0", "0"]
    moved = orbit_point(ExplicitPoint([[0, 1, 0]]), g)
    assert moved.coords[0][0] == B
    assert moved.coords[0][1] == ONE
    # dual factor acts by the inverse transpose
    gd = GroupSpec(
        [V([1, -1]), V([2, 1])],
        2,
        [[[ONE, ZERO, ZERO], [-B, ONE, ZERO], [-C, ZERO, ONE]]],
    )
    dual = orbit_point(ExplicitPoint([[1, 0, 0]]), gd)
    assert dual.coords[0][1] == -B and dual.coords[0][2] == -C


def test_orbit_point_at_identity_is_x():
    prod = _sec71_product()
    g = _sec71_group()
    x = ExplicitPoint([[1, 2, 3], [0, 1, 1], [1, 0, 5]])
    orbit = orbit_point(x, g)
    back = evaluate_point(orbit, 0, 0)
    assert back.coords == x.coords


def test_generic_support_examples():
    prod = _sec71_product()
    g = _sec71_group()
    x = ExplicitPoint([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    orbit = orbit_point(x, g)
    sup = generic_support(orbit, prod)
    # [b:1:0], [c:0:1], [1:-b:-c]
    assert sup.support == {0, 1, 3, 5, 6, 7, 8}
    assert x.support(prod).support <= sup.support
    # cancellation inside a coordinate polynomial
    y = ExplicitPoint([[B * C - B * C, ONE, C]])
    single = TorusAction(2, [V([1, 0]), V([0, 1]), V([-1, -1])], IP2)
    assert generic_support(y, single).support == {1, 2}


def test_all_zero_factor_rejected():
    with pytest.raises(InvalidSupport):
        ExplicitPoint([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(InvalidSupport):
        ExplicitPoint([[ZERO, ZERO]])


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec([], 1, [[[ONE, C], [ZERO, ONE]]])  # c needs u_params = 2
    with pytest.raises(ValueError):
        GroupSpec([], 1, [[[ONE, ONE], [ZERO, ONE]]])  # not identity at (0,0)


@pytest.mark.parametrize("value", [1.7, 1.0, Fraction(1), "1"])
def test_integer_arguments_are_not_truncated(value):
    # each of these passed through int() once: GroupSpec([], 1.7, []) had
    # u_params 1, TorusAction(1.5, ...) rank 1 and SupportPoint([1.7]) {1}
    with pytest.raises(TypeError):
        SupportPoint([0, value])
    with pytest.raises(TypeError):
        GroupSpec([], value, [])
    with pytest.raises(TypeError):
        TorusAction(value, [V([0]), V([1])], IP1)
    with pytest.raises(TypeError):
        TorusAction(1, [V([0]), V([1])], IP1, factor_partition=[[0, value]])
    a = TorusAction(1, [V([-1]), V([2])], IP1)
    with pytest.raises(TypeError):
        build_external_extension(a, [1, 0], value)
    with pytest.raises(TypeError):
        build_external_extension(a, [value, 0], 5)
    with pytest.raises(TypeError):
        build_double_extension(a, [1, 0], [0, 1], value, 0, 0, Fraction(1, 2))
    with pytest.raises(TypeError):
        build_double_extension(a, [1, value], [0, 1], 5, 0, 0, Fraction(1, 2))


def test_external_extension_examples():
    a = TorusAction(1, [V([0])], IP1)
    ext = build_external_extension(a, [0], 3)
    assert sorted(tuple(w.entries) for w in ext.segre_weights()) == [(0, 0), (0, 3)]

    a = TorusAction(1, [V([-1]), V([2])], IP1)
    ext = build_external_extension(a, [1, 0], 5)
    assert sorted(tuple(w.entries) for w in ext.segre_weights()) == [
        (-1, 1), (-1, 6), (2, 0), (2, 5),
    ]
    # extending then forgetting the new axis recovers the action
    back = forget_extension_axis(ext)
    assert back.weights == a.weights
    assert back.factor_partition == a.factor_partition
    with pytest.raises(LengthMismatch):
        build_external_extension(a, [1], 5)


def test_double_extension_structure():
    a = TorusAction(1, [V([0]), V([1])], IP1)
    ext, tw_l, tw_m = build_double_extension(a, [0, 0], [0, 0], 4, 0, 0, Fraction(1, 2))
    # eight Segre weights (alpha, 4j, 4k)
    segre = sorted(tuple(w.entries) for w in ext.segre_weights())
    expected = sorted(
        (alpha, 4 * j, 4 * k) for alpha in (0, 1) for j in (0, 1) for k in (0, 1)
    )
    assert segre == expected
    assert tuple(tw_l.entries) == (0, 0, Fraction(7, 2))
    assert tuple(tw_m.entries) == (0, Fraction(7, 2), 0)


def test_double_extension_validates_minimal_weights():
    a = TorusAction(1, [V([0]), V([1])], IP1)
    with pytest.raises(BadMinimalWeight):
        build_double_extension(a, [2, 1], [0, 0], 4, 0, 0, Fraction(1, 2))


def test_double_extension_restricts_to_single():
    a = TorusAction(1, [V([-1]), V([2])], IP1)
    ml, mm = [1, 0], [3, 2]
    ext_l = build_external_extension(a, ml, 7)
    ext_m = build_external_extension(a, mm, 7)
    dbl, _, _ = build_double_extension(a, ml, mm, 7, 0, 2, Fraction(1, 4))
    # k = 0 coordinates, mu axis dropped, reproduce the lambda extension
    old = a.num_coords
    for i, w in enumerate(dbl.weights[:old]):
        assert w.entries[:-1] == ext_l.weights[i].entries
        assert (w.entries[0], w.entries[2]) == ext_m.weights[i].entries
    # the lambda line block matches the single extension's line block
    assert dbl.weights[old].entries[:-1] == ext_l.weights[old].entries
    assert dbl.weights[old + 1].entries[:-1] == ext_l.weights[old + 1].entries
    # the mu line block matches, after dropping the lambda axis
    assert (dbl.weights[old + 2].entries[0], dbl.weights[old + 2].entries[2]) == ext_m.weights[old].entries
    assert (dbl.weights[old + 3].entries[0], dbl.weights[old + 3].entries[2]) == ext_m.weights[old + 1].entries


def test_support_validation():
    prod = _sec71_product()
    with pytest.raises(InvalidSupport):
        prod.validate_support(SupportPoint([0, 1, 2]))  # misses two factors
    prod.validate_support(SupportPoint([0, 3, 6]))
    assert prod.support_count() == 343
    assert sum(1 for _ in prod.iter_supports()) == 343
