import itertools
import random
from fractions import Fraction

import pytest

from gitloci.action import (
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
    generic_support,
    orbit_point,
)
from gitloci.polytope import convex_hull_2d_int
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
    hull = convex_hull_2d_int(prod.support_weights())
    assert set(hull) == {
        (3, 1), (1, 3), (-1, 2), (-3, -2), (-2, -3), (2, -1),
    }


def test_segre_weight_is_sum_of_factor_weights():
    prod = _sec71_product()
    blocks = prod.factor_partition
    expected = []
    for combo in itertools.product(*blocks):
        w = V([0, 0])
        for i in combo:
            w = w + V(prod.weights[i])
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


def test_levels_match_the_segre_expansion():
    # each factor's levels against its coordinates' values, and the first
    # levels against the least value over every Segre coordinate of a
    # support and the coordinate tuples attaining it
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
            ints = tuple(map(int, cochar))
            values = a.coordinate_values(ints)
            assert values == [cochar.dot(V(w)) for w in a.weights]
            for sp in [None, *a.iter_supports()]:
                blocks = a.factor_partition if sp is None else a.per_factor_support(sp)
                levels = a.levels(ints, sp)
                assert len(levels) == len(blocks)
                for factor, blk in zip(levels, blocks):
                    assert [v for v, _ in factor] == sorted({values[i] for i in blk})
                    for v, coords in factor:
                        assert coords == {i for i in blk if values[i] == v}
                sums = {c: sum(values[i] for i in c) for c in itertools.product(*blocks)}
                least = min(sums.values())
                assert sum(factor[0][0] for factor in levels) == least
                argmin = [factor[0][1] for factor in levels]
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


def _random_bipoly(rng, max_exp=2):
    return BiPoly(
        {
            (rng.randint(0, max_exp), rng.randint(0, max_exp)): Fraction(
                rng.randint(-3, 3), rng.randint(1, 3)
            )
            for _ in range(rng.randint(0, 3))
        }
    )


def test_group_spec_term_check_matches_uses_and_eval_at():
    # oracle: the rules as written with BiPoly.uses and eval_at(0, 0), entry
    # by entry: c first, then b, then the identity at the origin
    def old_error(u_params, mat):
        for i, row in enumerate(mat):
            for j, e in enumerate(row):
                if u_params < 2 and e.uses("c"):
                    return "uses parameter c"
                if u_params < 1 and e.uses("b"):
                    return "uses parameter b"
                if e.eval_at(0, 0) != (Fraction(1) if i == j else Fraction(0)):
                    return "must be the identity"
        return None

    rng = random.Random(30)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 3)
        u_params = rng.randint(0, 2)
        mat = [[_random_bipoly(rng) for _ in range(n)] for _ in range(n)]
        # mostly near the identity, so that accepted matrices occur too
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.6:
                    e = mat[i][j]
                    const = dict(e.coeffs).get((0, 0), Fraction(0))
                    mat[i][j] = e + BiPoly.const(int(i == j) - const)
                if rng.random() < 0.4 and u_params < 2:
                    mat[i][j] = mat[i][j].substitute("c", 0)
                if rng.random() < 0.4 and u_params < 1:
                    mat[i][j] = mat[i][j].substitute("b", 0)
        expected = old_error(u_params, mat)
        seen.add(expected)
        if expected is None:
            assert GroupSpec([], u_params, [mat]).u_matrices == (
                tuple(map(tuple, mat)),
            )
        else:
            with pytest.raises(ValueError, match=expected):
                GroupSpec([], u_params, [mat])
    assert seen == {
        None, "uses parameter c", "uses parameter b", "must be the identity"
    }


def test_orbit_point_matches_scale_and_add():
    # oracle: each row summed as BiPoly.scale and BiPoly.__add__, entry by
    # entry, skipping zero coordinates
    def old_orbit(x, mats):
        return [
            [
                sum(
                    (e.scale(v) for e, v in zip(row, coords) if v != 0),
                    BiPoly.zero(),
                )
                for row in mat
            ]
            for mat, coords in zip(mats, x.coords)
        ]

    def unipotent(e, i, j):
        # the identity at the origin, which GroupSpec asks for
        return e + BiPoly.const(int(i == j) - dict(e.coeffs).get((0, 0), 0))

    rng = random.Random(30)
    groups = [_sec71_group()]
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        mats = [
            [[unipotent(_random_bipoly(rng), i, j) for j in range(n)] for i in range(n)]
            for n in sizes
        ]
        groups.append(GroupSpec([], 2, mats))
    for g in groups:
        mats = g.u_matrices
        for _ in range(10):
            coords = []
            for mat in mats:
                block = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in mat]
                block[rng.randrange(len(block))] = Fraction(rng.choice([-2, 1, 3]))
                coords.append(block)
            x = ExplicitPoint(coords)
            orbit = orbit_point(x, g).coords
            assert [list(block) for block in orbit] == old_orbit(x, mats)


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
        build_double_extension(a, [1, 0], [0, 1], value, Fraction(1, 2))
    with pytest.raises(TypeError):
        build_double_extension(a, [1, value], [0, 1], 5, Fraction(1, 2))


def test_external_extension_examples():
    a = TorusAction(1, [V([0])], IP1)
    ext = build_external_extension(a, [0], 3)
    assert sorted(tuple(w.entries) for w in ext.segre_weights()) == [(0, 0), (0, 3)]

    a = TorusAction(1, [V([-1]), V([2])], IP1)
    ext = build_external_extension(a, [1, 0], 5)
    assert sorted(tuple(w.entries) for w in ext.segre_weights()) == [
        (-1, 1), (-1, 6), (2, 0), (2, 5),
    ]
    with pytest.raises(LengthMismatch):
        build_external_extension(a, [1], 5)


def test_double_extension_structure():
    a = TorusAction(1, [V([0]), V([1])], IP1)
    ext, tw_l, tw_m = build_double_extension(a, [0, 0], [0, 0], 4, Fraction(1, 2))
    # eight Segre weights (alpha, 4j, 4k)
    segre = sorted(tuple(w.entries) for w in ext.segre_weights())
    expected = sorted(
        (alpha, 4 * j, 4 * k) for alpha in (0, 1) for j in (0, 1) for k in (0, 1)
    )
    assert segre == expected
    assert tuple(tw_l.entries) == (0, 0, Fraction(7, 2))
    assert tuple(tw_m.entries) == (0, Fraction(7, 2), 0)
    # the twists read the least external weights, here 1 and 3
    _, tw_l, tw_m = build_double_extension(a, [2, 1], [3, 5], 4, Fraction(1, 2))
    assert tuple(tw_l.entries) == (0, 0, Fraction(9, 2))
    assert tuple(tw_m.entries) == (0, Fraction(13, 2), 0)


def test_double_extension_restricts_to_single():
    a = TorusAction(1, [V([-1]), V([2])], IP1)
    ml, mm = [1, 0], [3, 2]
    ext_l = build_external_extension(a, ml, 7)
    ext_m = build_external_extension(a, mm, 7)
    dbl, _, _ = build_double_extension(a, ml, mm, 7, Fraction(1, 4))
    # k = 0 coordinates, mu axis dropped, reproduce the lambda extension
    old = a.num_coords
    for i, w in enumerate(dbl.weights[:old]):
        assert w[:-1] == ext_l.weights[i]
        assert (w[0], w[2]) == ext_m.weights[i]
    # the lambda line block matches the single extension's line block
    assert dbl.weights[old][:-1] == ext_l.weights[old]
    assert dbl.weights[old + 1][:-1] == ext_l.weights[old + 1]
    # the mu line block matches, after dropping the lambda axis
    assert (dbl.weights[old + 2][0], dbl.weights[old + 2][2]) == ext_m.weights[old]
    assert (dbl.weights[old + 3][0], dbl.weights[old + 3][2]) == ext_m.weights[old + 1]


def test_support_validation():
    prod = _sec71_product()
    with pytest.raises(InvalidSupport):
        prod.validate_support(SupportPoint([0, 1, 2]))  # misses two factors
    prod.validate_support(SupportPoint([0, 3, 6]))
    assert prod.support_count() == 343
    assert sum(1 for _ in prod.iter_supports()) == 343
