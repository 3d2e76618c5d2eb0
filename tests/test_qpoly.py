import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gitloci.qpoly import (
    BiPoly,
    CZStatus,
    EmptyInput,
    InnerProduct,
    RationalVector,
    analyze_common_zeros,
    common_zero_avoiding,
    common_zero_exists,
    gcd_univariate,
    integer_row_reduce,
    parse_rational,
    poly_is_zero,
    rational_roots,
    resultant,
)

from oracles import row_reduce

B = BiPoly.var("b")
C = BiPoly.var("c")
ONE = BiPoly.const(1)


def test_field_axioms_randomised():
    # associativity, distributivity, inverse round-trips on 10^4 random cases
    rng = random.Random(20240117)

    def q():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 30))

    for _ in range(10_000):
        x, y, z = q(), q(), q()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x != 0:
            assert x * (1 / x) == 1
        assert x - y == -(y - x)


def test_rational_parse_format_roundtrip():
    for text in ["0", "7", "-3", "5/3", "-11/4"]:
        assert str(parse_rational(text)) == text
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("a/b")


def test_poly_is_zero_examples():
    assert poly_is_zero(BiPoly.zero())
    assert not poly_is_zero(ONE)
    assert poly_is_zero((B + C) - B - C)


def test_bipoly_canonical_string_order():
    p = B * B + B * C.scale(2) + C + BiPoly.const(Fraction(1, 2))
    # descending lexicographic exponents (e_b, e_c), terms joined by "+"
    assert str(p) == "1*b^2*c^0+2*b^1*c^1+1*b^0*c^1+1/2*b^0*c^0"
    assert BiPoly.parse(str(p)) == p
    assert str(BiPoly.zero()) == "0"
    assert BiPoly.parse("0") == BiPoly.zero()


def test_bipoly_parse_shorthands():
    assert BiPoly.parse("b") == B
    assert BiPoly.parse("-c") == -C
    assert BiPoly.parse("2*b*c") == (B * C).scale(2)
    assert BiPoly.parse("1 + b") == ONE + B
    with pytest.raises(ValueError):
        BiPoly.parse("q^2")


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5),
        max_size=6,
    )
)
def test_bipoly_string_roundtrip(coeffs):
    p = BiPoly(coeffs)
    assert BiPoly.parse(str(p)) == p


def test_resultant_examples():
    # Sylvester determinant, p-rows first: res_c(c-b, c+b) = det [[1,-b],[1,b]] = 2b
    assert resultant(C - B, C + B, "c") == B.scale(2)
    assert resultant(C, C, "c").is_zero()
    # a c-free argument is returned unchanged
    assert resultant(B, C + ONE, "c") == B


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(7)

    def rand_univariate(var):
        while True:
            p = BiPoly(
                {
                    ((d, 0) if var == "b" else (0, d)): Fraction(
                        rng.randint(-4, 4)
                    )
                    for d in range(rng.randint(1, 3) + 1)
                }
            )
            if p.degree(var) > 0:
                return p

    for _ in range(100):
        p, q = rand_univariate("c"), rand_univariate("c")
        res = resultant(p, q, "c")
        gcd = gcd_univariate([p, q], "c")
        assert res.is_zero() == (gcd.degree("c") > 0)


def test_common_zero_examples():
    r = common_zero_exists([B, C])
    assert r.status is CZStatus.YES and r.witness == (0, 0)
    assert common_zero_exists([ONE]).status is CZStatus.NO
    # substitute b=0 into bc-1: the single candidate fibre is blocked
    assert common_zero_exists([B * C - ONE, B]).status is CZStatus.NO
    with pytest.raises(EmptyInput):
        common_zero_exists([])


def test_common_zero_witnesses_verify():
    # 200 random pairs of bidegree <= 3, checked against a rational grid
    rng = random.Random(998)

    def rand_poly():
        return BiPoly(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 5))
            }
        )

    grid = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2)]
    for _ in range(200):
        polys = [rand_poly(), rand_poly()]
        if all(p.is_zero() for p in polys):
            continue
        r = common_zero_exists(polys)
        grid_witness = None
        for b0 in grid:
            for c0 in grid:
                if all(p.eval_at(b0, c0) == 0 for p in polys):
                    grid_witness = (b0, c0)
                    break
            if grid_witness:
                break
        if grid_witness is not None:
            assert r.status is not CZStatus.NO
        if r.status is CZStatus.YES and r.witness is not None:
            assert all(p.eval_at(*r.witness) == 0 for p in polys)


def test_analyze_structured_kinds():
    assert analyze_common_zeros([BiPoly.zero()]).kind == "everything"
    assert analyze_common_zeros([B * C - ONE]).kind == "curve"
    info = analyze_common_zeros([B.scale(1) * B - BiPoly.const(4)])
    assert info.kind == "lines"
    assert {v for _, v in info.lines} == {Fraction(2), Fraction(-2)}
    assert analyze_common_zeros([B, B - ONE]).kind == "empty"


def test_common_zero_avoiding():
    # zeros of {b} avoiding {c-1}: the line b=0 minus one point
    r = common_zero_avoiding([B], [C - ONE])
    assert r.status is CZStatus.YES
    assert r.witness[0] == 0 and r.witness[1] != 1
    # zeros of {b} cannot avoid {b+c, c}: on b=0 they force c to dodge 0... viable
    r = common_zero_avoiding([B], [B + C, C])
    assert r.status is CZStatus.YES
    # nothing to vanish: pick any point off the avoid loci
    r = common_zero_avoiding([], [B, C])
    assert r.status is CZStatus.YES
    assert all(p.eval_at(*r.witness) != 0 for p in [B, C])
    # impossible: {b, b-1} have no common zero at all
    assert common_zero_avoiding([B, B - ONE], [C]).status is CZStatus.NO
    # the zero set of b(b-1) is exactly the two lines, both forbidden
    r = common_zero_avoiding([B * (B - ONE)], [B, B - ONE])
    assert r.status is CZStatus.NO
    # irrational lines defeat the rational sweep: honestly undecided
    r = common_zero_avoiding([B * B - BiPoly.const(2)], [C])
    assert r.status is CZStatus.UNDECIDED


def test_rational_roots_completeness():
    p = (B - ONE) * (B + BiPoly.const(Fraction(1, 2))) * B
    roots, complete = rational_roots(p, "b")
    assert set(roots) == {Fraction(0), Fraction(1), Fraction(-1, 2)}
    assert complete
    q = B * B - BiPoly.const(2)  # irrational roots
    roots, complete = rational_roots(q, "b")
    assert roots == [] and not complete


def test_inner_product_validation():
    with pytest.raises(ValueError):
        InnerProduct([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        InnerProduct([[0, 0], [0, 1]])  # not positive definite
    ip = InnerProduct([[2, 1], [1, 2]])
    u = RationalVector([1, 0])
    v = RationalVector([0, 1])
    assert ip.pairing(u, v) == 1
    assert ip.norm_sq(u + v) == 6


def test_vector_primitive_integral():
    v = RationalVector([Fraction(3, 2), Fraction(3, 2)])
    assert v.primitive_integral().entries == (1, 1)
    w = RationalVector([Fraction(-4), Fraction(6)])
    assert w.primitive_integral().entries == (-2, 3)
    with pytest.raises(ValueError):
        RationalVector([0, 0]).primitive_integral()


def _leibniz_det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * _leibniz_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(n)
    )


def test_row_reduce_solve_rank_kernel_det():
    # square, wide and tall integer matrices, a third of them rank deficient
    rng = random.Random(61)
    deficient = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        cols = max(1, n + rng.randint(-1, 2))
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(n)]
        if n > 1 and rng.random() < 0.35:
            # a combination of the other rows
            k, j = rng.sample(range(n), 2)
            m[k] = [rng.randint(-2, 2) * v for v in m[j]]
        rows, pivots, D = integer_row_reduce(m)
        ref, ref_pivots, _ = row_reduce(m)
        assert pivots == ref_pivots
        deficient += len(pivots) < n
        assert all(type(v) is int for row in rows for v in row)
        # the pivot rows over D are the reduced row echelon form
        assert [[Fraction(v, D) for v in row] for row in rows[: len(pivots)]] == ref[
            : len(pivots)
        ]
        assert all(not any(row) for row in rows[len(pivots) :])
        # the kernel read off the free columns annihilates the input
        for free in (c for c in range(cols) if c not in pivots):
            v = [0] * cols
            v[free] = D
            for i, c in enumerate(pivots):
                v[c] = -rows[i][free]
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        if n <= cols:
            det = _leibniz_det([row[:n] for row in m])
            if det:
                assert pivots[:n] == list(range(n))
                assert abs(D) == abs(det)
    assert deficient > 50
    assert integer_row_reduce([]) == ([], [], 1)
    assert row_reduce([]) == ([], [], 1)


def test_dual_norm_sq_matches_rational_solve():
    # v . G^-1 v from the integer kernel against G x = v solved over Q
    rng = random.Random(67)
    forms = [
        InnerProduct([[1]]),
        InnerProduct([[3]]),
        InnerProduct([[2, 1], [1, 3]]),
        InnerProduct([[3, -1], [-1, 2]]),
        InnerProduct([[2, 1, 0], [1, 2, 1], [0, 1, 2]]),
    ]
    for _ in range(100):
        ip = rng.choice(forms)
        v = RationalVector(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(ip.rank)]
        )
        rows, _, _ = row_reduce([[*g, e] for g, e in zip(ip.gram, v.entries)])
        assert ip.dual_norm_sq(v) == sum(e * row[-1] for e, row in zip(v.entries, rows))
