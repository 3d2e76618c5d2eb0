import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gitloci.qpoly import (
    BiPoly,
    CommonZeroResult,
    CZStatus,
    EmptyInput,
    InnerProduct,
    RationalVector,
    _ROOT_SEARCH_LIMIT,
    analyze_common_zeros,
    clear_denominators,
    common_zero_avoiding,
    common_zero_exists,
    gcd_univariate,
    integer_row_reduce,
    parse_rational,
    rational_roots,
    resultant,
)

from oracles import (
    common_zero_avoiding_oracle,
    common_zero_exists_oracle,
    rational_roots as rational_roots_oracle,
    row_reduce,
)

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


def test_common_zero_avoiding_uncovered_branches():
    # a system that vanishes everywhere: the witness avoids every avoided zero
    r = common_zero_avoiding([BiPoly.zero(), BiPoly.zero()], [B, C - ONE])
    assert r == CommonZeroResult(CZStatus.YES, (Fraction(1), Fraction(0)))
    # one curve, b*c = 1: every point listed over b in [-6, 6] has b in +-1..6,
    # all avoided, so the answer comes from the wider grid, b in [-10, 10]
    curve = B * C - ONE
    avoid = [B * B - BiPoly.const(k * k) for k in range(1, 7)]
    assert analyze_common_zeros([curve]).kind == "curve"
    r = common_zero_avoiding([curve], avoid)
    assert r == CommonZeroResult(CZStatus.YES, (Fraction(-10), Fraction(-1, 10)))


def test_eval_at_matches_fraction_sum():
    # the integer form over one common denominator against sum q * b^e * c^f
    rng = random.Random(16)
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 5)]
    polys = [BiPoly.zero(), ONE, BiPoly.const(Fraction(-7, 3)), (B + C) - B - C]
    for _ in range(300):
        polys.append(
            BiPoly(
                {
                    (rng.randint(0, 4), rng.randint(0, 4)): Fraction(
                        rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 9])
                    )
                    for _ in range(rng.randint(1, 6))
                }
            )
        )
    assert polys[0].is_zero() and polys[3].is_zero() and not polys[1].is_zero()
    for p in polys:
        for _ in range(8):
            b, c = rng.choice(values), rng.choice(values)
            for point in ((b, c), (b.numerator, c.numerator)):
                expected = sum(
                    (q * point[0] ** eb * point[1] ** ec for (eb, ec), q in p.coeffs),
                    Fraction(0),
                )
                value = p.eval_at(*point)
                assert type(value) is Fraction and value == expected
        # the lazily kept integer form takes no part in equality or hashing
        twin = BiPoly(dict(p.coeffs))
        assert twin == p and hash(twin) == hash(p) and {p: 1}[twin] == 1


def _poly_times(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_root_polynomial(rng: random.Random, var: str) -> BiPoly:
    """A product of linear factors d*x - n, often repeated, sometimes with x^k,
    an irreducible quadratic, a random cofactor or a quadratic cofactor
    whose leading coefficient is past the root search's limit, scaled by a
    rational that may push the content past that limit."""
    cs = [1]
    for _ in range(rng.randint(0, 3)):
        n, d = rng.randint(-8, 8), rng.randint(1, 5)
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            cs = _poly_times(cs, [-n, d])
        if len(cs) > 4:
            break
    shape = rng.random()
    if shape < 0.2:
        cs = _poly_times(cs, [rng.choice([2, 3, 5, 6, 7]), 0, rng.choice([1, 2, 3])])
    elif shape < 0.35:
        cs = _poly_times(cs, [rng.randint(-9, 9) for _ in range(rng.randint(2, 3))])
    elif shape < 0.45:
        # +-1 + L*x^2 with L not a square: no rational root, and a primitive
        # leading coefficient that the search gives up on
        cs = _poly_times(cs, [rng.choice([1, -1]), 0, rng.choice([11, 101]) * 10**6 + 1])
    if rng.random() < 0.2:
        cs = [0] * rng.randint(1, 2) + cs
    scale = rng.random()
    if scale < 0.3:
        factor = Fraction(rng.randint(1, 12) * rng.choice([1, -1]), rng.randint(1, 12))
    elif scale < 0.45:
        factor = Fraction(rng.choice([11, 101]) * 10**6, rng.choice([1, 3, 7]))
    else:
        factor = Fraction(1)
    key = (lambda i: (i, 0)) if var == "b" else (lambda i: (0, i))
    return BiPoly({key(i): factor * a for i, a in enumerate(cs)})


def test_rational_roots_matches_fraction_reference():
    rng = random.Random(1616)
    seen = {"repeated": 0, "zero": 0, "not split": 0, "give up": 0, "big content": 0}
    checked = 0
    while checked < 2000:
        var = rng.choice(["b", "c"])
        p = _random_root_polynomial(rng, var)
        if not 0 < p.degree(var) <= 6:
            continue
        roots, split = rational_roots(p, var)
        assert (roots, split) == rational_roots_oracle(p, var)
        assert all(type(r) is Fraction for r in roots)
        checked += 1
        seen["zero"] += Fraction(0) in roots
        seen["not split"] += not split
        (ints,), _ = clear_denominators([[q for _, q in p.coeffs]])
        content = math.gcd(*ints)
        give_up = max(abs(ints[0]), abs(ints[-1])) // content > _ROOT_SEARCH_LIMIT
        assert not (give_up and split)
        seen["give up"] += give_up
        seen["big content"] += content > _ROOT_SEARCH_LIMIT and not give_up
        seen["repeated"] += split and len(roots) < p.degree(var)
    assert min(seen.values()) >= 50, seen
    # content above the limit: the limit reads the primitive coefficients
    big = (B - ONE).scale(3 * 10**7)
    assert rational_roots(big, "b") == rational_roots_oracle(big, "b") == (
        [Fraction(1)],
        True,
    )


def test_wider_curve_scan_skips_the_listed_fibres(monkeypatch):
    # b*c = 1 with every point over |b| <= 6 avoided: the wider scan adds the
    # 8 fibres 7 <= |b| <= 10 to the 13 already scanned, 21 substitutions
    curve = B * C - ONE
    avoid = [B * B - BiPoly.const(k * k) for k in range(1, 7)]
    calls = []
    substitute = BiPoly.substitute

    def counted(self, var, value):
        calls.append((var, value))
        return substitute(self, var, value)

    monkeypatch.setattr(BiPoly, "substitute", counted)
    assert common_zero_avoiding([curve], avoid).status is CZStatus.YES
    assert sorted(v for _, v in calls) == list(range(-10, 11))


def _random_system(rng: random.Random) -> list[BiPoly]:
    """One to three polynomials of small bidegree, often sharing a factor, so
    that every kind of zero set comes up: curves, lines, finite sets and
    the degenerate "unknown" elimination."""
    var = rng.choice(["b", "c", None, None, None])  # one parameter: lines

    def poly(degree: int) -> BiPoly:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            eb, ec = rng.randint(0, degree), rng.randint(0, degree)
            key = {"b": (eb + ec, 0), "c": (0, eb + ec)}.get(var, (eb, ec))
            terms[key] = rng.randint(-3, 3)
        return BiPoly(terms)

    shared = rng.choice(
        [ONE, ONE, B - ONE, B * B - BiPoly.const(2), B + C, B * C - ONE, poly(1)]
    )
    if var is not None:
        shared = shared.substitute("c" if var == "b" else "b", 2)
    return [shared * poly(rng.choice([1, 2])) for _ in range(rng.randint(1, 3))]


def test_common_zero_decision_matches_the_two_former_rules():
    rng = random.Random(15)
    kinds = set()
    for _ in range(400):
        vanish = _random_system(rng)
        kinds.add(analyze_common_zeros(vanish).kind)
        assert common_zero_exists(vanish) == common_zero_exists_oracle(vanish)
        assert common_zero_avoiding(vanish, []) == common_zero_exists(vanish)
        avoid = [
            p
            for p in (_random_system(rng)[0] for _ in range(rng.randint(1, 3)))
            if not p.is_zero()
        ]
        if avoid:
            assert common_zero_avoiding(vanish, avoid) == common_zero_avoiding_oracle(
                vanish, avoid
            )
    assert {"curve", "lines", "finite", "unknown", "empty"} <= kinds


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


@pytest.mark.parametrize("entry", [1.5, 2.0, Fraction(3, 2), Fraction(2), "2"])
def test_inner_product_rejects_non_integer_entries(entry):
    # int() would truncate 1.5 to 1 and norm under a form that was not given
    with pytest.raises(TypeError):
        InnerProduct([[entry]])
    with pytest.raises(TypeError):
        InnerProduct([[2, 1], [1, entry]])


@pytest.mark.parametrize("exponent", [1.5, 1.0, Fraction(3, 2), Fraction(1), "1"])
def test_bipoly_rejects_non_integer_exponents(exponent):
    # int() would truncate b^1.5 to b
    with pytest.raises(TypeError):
        BiPoly({(exponent, 0): 1})
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 1, (1, exponent): 2})


def test_vector_primitive_integral():
    v = RationalVector([Fraction(3, 2), Fraction(3, 2)])
    assert v.primitive_integral().entries == (1, 1)
    w = RationalVector([Fraction(-4), Fraction(6)])
    assert w.primitive_integral().entries == (-2, 3)
    with pytest.raises(ValueError):
        RationalVector([0, 0]).primitive_integral()


def test_vector_entries_are_exact_fractions():
    class Sub(Fraction):
        pass

    third = Fraction(1, 3)
    assert RationalVector([third, 2]).entries[0] is third
    for entry, value in [
        (7, Fraction(7)),
        ("2/4", Fraction(1, 2)),
        (True, Fraction(1)),
        (Sub(-3, 6), Fraction(-1, 2)),
    ]:
        (got,) = RationalVector([entry]).entries
        assert type(got) is Fraction and got == value == Fraction(entry)
    with pytest.raises(ValueError):
        RationalVector([])


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
