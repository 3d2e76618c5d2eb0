"""Exact rational scalars, vectors, and small bivariate polynomials.

Values are exact rationals, :class:`fractions.Fraction` (arbitrary-precision,
always reduced, positive denominator), because the polyhedral predicates
downstream decide exact equalities such as wall membership.  No floating
point is used anywhere in this package's computation paths.  The hot
kernels compute on integers and build a `Fraction` only for their result:
`rational_roots` searches the primitive integer multiple of its polynomial
(divisor candidates n/d filtered by f(1) and f(-1), tested by the
homogeneous sum d^deg f(n/d), divided out exactly), and `BiPoly.eval_at`
evaluates the polynomial's integer form over one common denominator.

The one exact elimination is integer: `integer_row_reduce` runs
fraction-free Gauss-Jordan elimination (Montante), in which every step,
`montante_step`, maps each entry v off the pivot row to
(pivot * v - f * t) / previous pivot, an exact division, so all entries stay
integers and the pivot rows divided by the last pivot are the reduced row
echelon form; `linprog`'s simplex pivots by the same step.  Rational input
is scaled to integers by the one denominator-clearing helper,
`clear_denominators`.

Polynomials are restricted to at most two parameters, named ``b`` and ``c``.
That is enough for the bundled two-dimensional unipotent groups.
Elimination runs on the integer forms D * p that `BiPoly` keeps, with no
intermediate `Fraction` or `BiPoly`: zero tests at integer points by
`BiPoly.cleared_values`, curve fibres b = b0 as integer coefficient lists
(`_fibre`) searched by `_integer_roots`, resultants as Sylvester
determinants over Z[x] by Bareiss's fraction-free elimination, and gcds by
the primitive pseudo-remainder sequence over Z.  Each builds a `Fraction`
only for its result.

The one common-zero decision is `common_zero_avoiding`: does some common
zero of one list avoid every zero of another?  `common_zero_exists` is it
with nothing to avoid.  It reads the elimination's `ZeroSetInfo` and returns
``UNDECIDED``, rather than guessing, in three cases only: the elimination
degenerated (kind "unknown") and no listed point avoids; a single curve
whose wider rational grid finds no point off the avoided zeros; and lines
and points that are not known to be the whole zero set, none of which
avoids.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

# numerator and denominator, the denominator without a leading zero and so
# nonzero, as in `action.schema.json`
_RATIONAL = r"(-?\d+)(?:/([1-9]\d*))?"
_RATIONAL_RE = re.compile(rf"^{_RATIONAL}$")


class EmptyInput(ValueError):
    """Raised when an operation requiring a nonempty input receives none."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"num"`` or ``"num/den"`` into a Fraction, den without a
    leading zero and so nonzero, as in `action.schema.json`."""
    text = text.strip()
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    return _matched_rational(m)


def _matched_rational(m: re.Match) -> Fraction:
    """The rational of a `_RATIONAL` match, from its integers: Fraction(str)
    would parse the text a second time."""
    num, den = m.group(1, 2)
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def as_fraction(e: Fraction | int | str) -> Fraction:
    """e as an exact Fraction: a Fraction is kept, an int, a bool or a
    rational literal converted.  A float is refused with TypeError: its
    binary value (0.1 is 3602879701896397/36028797018963968) is rarely the
    rational meant."""
    if type(e) is Fraction:
        return e
    if isinstance(e, float):
        raise TypeError(f"a float is not an exact rational: {e!r}")
    return Fraction(e)


@dataclass(frozen=True)
class RationalVector:
    """An exact point of character/cocharacter space."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Fraction | int | str]):
        # an exact Fraction is kept without a call: Fraction(e) would rebuild
        # it through the numbers.Rational path
        object.__setattr__(
            self,
            "entries",
            tuple(e if type(e) is Fraction else as_fraction(e) for e in entries),
        )
        if not self.entries:
            raise ValueError("RationalVector needs at least one entry")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def zero(dim: int) -> "RationalVector":
        return RationalVector([Fraction(0)] * dim)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "RationalVector":
        return RationalVector(-a for a in self.entries)

    def scale(self, q: Fraction | int) -> "RationalVector":
        q = Fraction(q)
        return RationalVector(q * a for a in self.entries)

    def dot(self, other: "RationalVector") -> Fraction:
        """Canonical cocharacter/weight pairing (plain dot product)."""
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def primitive_integral(self) -> "RationalVector":
        """The shortest integral vector on the ray through this one.

        Equivalently q * self for the smallest positive rational q with
        integral image.  Errors on the zero vector.
        """
        if self.is_zero():
            raise ValueError("zero vector has no primitive integral multiple")
        (ints,), _ = clear_denominators([self.entries])
        g = math.gcd(*ints)
        return RationalVector(v // g for v in ints)

    def _check_dim(self, other: "RationalVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        return "(" + ", ".join(map(str, self.entries)) + ")"


@dataclass(frozen=True)
class InnerProduct:
    """A positive definite symmetric integer bilinear form.

    Positive definiteness is checked at construction via leading principal
    minors.  The Gram matrix G norms weights; cocharacters, which pair with
    weights by the dot product, are normed by the dual form G^-1
    (`dual_norm_sq`).  The corpus files use identity forms, under which the
    dot pairing and the form pairing agree and G^-1 = G.
    """

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram: Sequence[Sequence[int]]):
        rows = tuple(tuple(map(operator.index, row)) for row in gram)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        for k in range(1, n + 1):
            # with the smaller leading minors positive no row is swapped, so
            # the last pivot of a nonsingular minor is its determinant
            _, pivots, det = integer_row_reduce([r[:k] for r in rows[:k]])
            if len(pivots) < k or det <= 0:
                raise ValueError("gram matrix must be positive definite")
        object.__setattr__(self, "gram", rows)

    @staticmethod
    def identity(rank: int) -> "InnerProduct":
        return InnerProduct(
            [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        )

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, u: RationalVector, v: RationalVector) -> Fraction:
        """u . G v, summed in integers over the vectors' common denominator."""
        if u.dim != self.rank or v.dim != self.rank:
            raise ValueError("vector dimension does not match form rank")
        (nu, nv), d = clear_denominators([u, v])
        return Fraction(
            sum(a * g * b for a, row in zip(nu, self.gram) for g, b in zip(row, nv)),
            d * d,
        )

    def norm_sq(self, v: RationalVector) -> Fraction:
        return self.pairing(v, v)

    def dual_norm_sq(self, v: Iterable[Fraction | int]) -> Fraction:
        """v . G^-1 v, the norm of a cocharacter (any rational vector of the
        form's rank) under the dual form: with d the denominator of v,
        G x = d * v is solved over the integers."""
        (dv,), d = clear_denominators([v])
        rows, _, det = integer_row_reduce(
            [[*row, e] for row, e in zip(self.gram, dv, strict=True)]
        )
        return Fraction(sum(e * row[-1] for e, row in zip(dv, rows)), det * d * d)


def clear_denominators(
    rows: Iterable[Iterable[Fraction | int]],
) -> tuple[list[tuple[int, ...]], int]:
    """Rows of rationals scaled by the least common denominator d of all
    their entries: the integer rows and d."""
    rows = [tuple(r) for r in rows]
    d = math.lcm(*(e.denominator for r in rows for e in r))
    return [tuple(e.numerator * (d // e.denominator) for e in r) for r in rows], d


def integer_row_reduce(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination over Z: the one exact row
    reduction behind linear solves, ranks, kernel vectors and determinants.

    Returns the rows, the pivot columns in order and the last pivot D (1
    for a matrix without pivots).  Every pivot entry ends as D and alone in
    its column, zero rows come last, and the pivot rows divided by D are the
    reduced row echelon form.  When the n rows are no more than the columns
    and the leading n x n block is nonsingular, the pivots are the
    columns 0..n-1 and D is +-that block's determinant, + when no rows were
    swapped.  Each step is one `montante_step`.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    pivots: list[int] = []
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prev = montante_step(rows, r, col, prev)
        pivots.append(col)
    return rows, pivots, prev


def montante_step(rows: list[list[int]], r: int, col: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on the pivot rows[r][col], in
    place: every entry v off row r becomes (pivot * v - f * t) / prev, with f
    its row's entry in `col` and t the pivot row's in its column.  The rows
    over the returned pivot are the rows over prev after a rational pivot
    step.  The division is exact: the entries are minors of the first
    step's rows (taken with prev 1)."""
    top = rows[r]
    piv = top[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            row[:] = [(piv * v - f * t) // prev for v, t in zip(row, top)]
    return piv


# ---------------------------------------------------------------------------
# Bivariate polynomials in the unipotent parameters b, c
# ---------------------------------------------------------------------------

_VARS = ("b", "c")

# a term: a rational coefficient, then b and c, each optional; a present
# parameter's sign group matches "" or "-", an absent one's None
_TERM_RE = re.compile(
    rf"^(?:{_RATIONAL})?"
    r"(?:\*?(?P<bsign>-?)b(?:\^(?P<bexp>\d+))?)?"
    r"(?:\*?(?P<csign>-?)c(?:\^(?P<cexp>\d+))?)?$"
)


@dataclass(frozen=True)
class BiPoly:
    """A polynomial in at most the two parameters b and c.

    Stored sparsely as a map from exponent pairs (e_b, e_c) to nonzero
    rational coefficients; the zero polynomial is the empty map.
    """

    coeffs: tuple[tuple[tuple[int, int], Fraction], ...] = field(default=())

    def __init__(self, coeffs: dict[tuple[int, int], Fraction] | None = None):
        items = []
        if coeffs:
            for (eb, ec), q in coeffs.items():
                if not isinstance(q, Fraction):
                    q = as_fraction(q)
                eb, ec = operator.index(eb), operator.index(ec)
                if eb < 0 or ec < 0:
                    raise ValueError("exponents must be nonnegative")
                if q != 0:
                    items.append(((eb, ec), q))
        items.sort(key=lambda kv: kv[0], reverse=True)
        object.__setattr__(self, "coeffs", tuple(items))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(q: Fraction | int | str) -> "BiPoly":
        return BiPoly({(0, 0): Fraction(q)})

    @staticmethod
    def var(name: str) -> "BiPoly":
        if name == "b":
            return BiPoly({(1, 0): Fraction(1)})
        if name == "c":
            return BiPoly({(0, 1): Fraction(1)})
        raise ValueError(f"unknown parameter {name!r} (only b, c exist)")

    # -- ring structure ----------------------------------------------------

    def _as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        d = self._as_dict()
        for k, q in other.coeffs:
            d[k] = d.get(k, Fraction(0)) + q
        return BiPoly(d)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        d = self._as_dict()
        for k, q in other.coeffs:
            d[k] = d.get(k, Fraction(0)) - q
        return BiPoly(d)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -q for k, q in self.coeffs})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        d: dict[tuple[int, int], Fraction] = {}
        for (eb1, ec1), q1 in self.coeffs:
            for (eb2, ec2), q2 in other.coeffs:
                k = (eb1 + eb2, ec1 + ec2)
                d[k] = d.get(k, Fraction(0)) + q1 * q2
        return BiPoly(d)

    def scale(self, q: Fraction | int) -> "BiPoly":
        q = Fraction(q)
        return BiPoly({k: q * v for k, v in self.coeffs})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k, _ in self.coeffs)

    def degree(self, var: str) -> int:
        """Degree in the named parameter; -1 for the zero polynomial."""
        idx = _VARS.index(var)
        if not self.coeffs:
            return -1
        return max(k[idx] for k, _ in self.coeffs)

    def uses(self, var: str) -> bool:
        return self.degree(var) > 0

    @cached_property
    def _integer_form(self) -> tuple[int, int, int, tuple[tuple[int, int, int], ...]]:
        """(D, deg_b, deg_c, terms): D is the least common denominator of
        the coefficients and terms the (e_b, e_c, D * q) of every term.
        Cleared inline, not by `clear_denominators`: on a few terms its row
        handling costs more than the clearing."""
        den = math.lcm(*[q.denominator for _, q in self.coeffs])
        terms = tuple(
            [
                (eb, ec, q.numerator * (den // q.denominator))
                for (eb, ec), q in self.coeffs
            ]
        )
        # the terms are in descending lexicographic order of (e_b, e_c)
        deg_b = terms[0][0] if terms else 0
        return den, deg_b, max([ec for _, ec, _ in terms], default=0), terms

    def eval_at(self, b: Fraction | int, c: Fraction | int) -> Fraction:
        """The value at (b, c) = (bn/bd, cn/cd): the integer form homogenised
        in each parameter, sum a * bn^eb * bd^(deg_b-eb) * cn^ec * cd^(deg_c-ec),
        over D * bd^deg_b * cd^deg_c."""
        den, deg_b, deg_c, terms = self._integer_form
        bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator
        total = sum(
            [
                a * bn**eb * bd ** (deg_b - eb) * cn**ec * cd ** (deg_c - ec)
                for eb, ec, a in terms
            ]
        )
        return Fraction(total, den * bd**deg_b * cd**deg_c)

    def cleared_values(self, bs: Iterable[int], cs: Sequence[int]) -> list[int]:
        """D * p(b0, c0) at the integer points of bs x cs, b0 major, D the
        least common denominator of the coefficients: zero exactly where p
        vanishes.  Each fibre b = b0 of the integer form (`_fibre`) is
        summed at every c0 by Horner's rule."""
        out = []
        for b0 in bs:
            fibre = _fibre(self, b0)[::-1]
            for c0 in cs:
                acc = 0
                for a in fibre:
                    acc = acc * c0 + a
                out.append(acc)
        return out

    def substitute(self, var: str, value: Fraction | int) -> "BiPoly":
        """Substitute a rational value for one parameter."""
        value = Fraction(value)
        idx = _VARS.index(var)
        d: dict[tuple[int, int], Fraction] = {}
        for (eb, ec), q in self.coeffs:
            exps = [eb, ec]
            q = q * value ** exps[idx]
            exps[idx] = 0
            k = (exps[0], exps[1])
            d[k] = d.get(k, Fraction(0)) + q
        return BiPoly(d)

    # -- canonical string form ----------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for (eb, ec), q in self.coeffs:  # already descending lex in (eb, ec)
            terms.append(f"{q!s}*b^{eb}*c^{ec}")
        return "+".join(terms)

    @staticmethod
    def parse(text: str) -> "BiPoly":
        """Parse the canonical form, plus shorthands like "b", "-c", "2*b*c"."""
        text = text.strip()
        if text == "0":
            return BiPoly.zero()
        d: dict[tuple[int, int], Fraction] = {}
        for raw in text.split("+"):
            term = raw.strip().replace(" ", "")
            if not term:
                raise ValueError(f"empty term in polynomial {text!r}")
            coef, eb, ec = _parse_term(term, text)
            k = (eb, ec)
            d[k] = d[k] + coef if k in d else coef
        return BiPoly(d)


def _parse_term(term: str, context: str) -> tuple[Fraction, int, int]:
    m = _TERM_RE.match(term)
    if not m or m.group(1, "bsign", "csign") == (None, None, None):
        raise ValueError(f"cannot parse term {term!r} in polynomial {context!r}")
    _, _, bsign, bexp, csign, cexp = m.groups()
    coef = _matched_rational(m) if m.group(1) else Fraction(1)
    if (bsign == "-") != (csign == "-"):
        coef = -coef
    eb = 0 if bsign is None else int(bexp or 1)
    ec = 0 if csign is None else int(cexp or 1)
    return coef, eb, ec


# ---------------------------------------------------------------------------
# Univariate helpers (integer coefficient lists, ascending)
# ---------------------------------------------------------------------------


def _integer_coeffs(p: BiPoly, var: str) -> list[int]:
    """The ascending coefficients in `var` of D * p, D the least common
    denominator of p's coefficients, trimmed: empty for the zero polynomial.
    p must be free of the other parameter."""
    _, deg_b, deg_c, terms = p._integer_form
    idx = _VARS.index(var)
    if (deg_c, deg_b)[idx]:
        raise ValueError(f"polynomial {p} is not univariate in {var}")
    out = [0] * ((deg_b, deg_c)[idx] + 1)
    for term in terms:
        out[term[idx]] = term[2]
    return _poly_trim(out)


def _poly_trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _bareiss_entry(
    piv: list[int], v: list[int], f: list[int], t: list[int], prev: list[int]
) -> list[int]:
    """(piv * v - f * t) / prev for integer polynomials (ascending lists),
    the division exact: one entry of a fraction-free elimination step.  Each
    quotient coefficient is an exact integer division by prev's leading
    one."""
    out = [0] * max(len(piv) + len(v), len(f) + len(t))
    for g, h, sign in ((piv, v, 1), (f, t, -1)):
        for i, x in enumerate(g):
            if x:
                x *= sign
                for j, y in enumerate(h):
                    out[i + j] += x * y
    _poly_trim(out)
    if prev == [1]:
        return out
    q = [0] * (len(out) - len(prev) + 1)
    lead, top = prev[-1], len(prev) - 1
    for shift in range(len(q) - 1, -1, -1):
        k = q[shift] = out[shift + top] // lead
        if k:
            for i, y in enumerate(prev):
                out[shift + i] -= k * y
    return q


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """The remainder of f by a nonzero g over Z, up to a power of g's
    leading coefficient: each step scales f by that coefficient and cancels
    f's leading term."""
    lead, n = g[-1], len(g)
    while len(f) >= n:
        k, shift = f[-1], len(f) - n
        f = _poly_trim(
            [lead * a for a in f[:shift]]
            + [lead * a - k * b for a, b in zip(f[shift:], g)]
        )
    return f


def gcd_univariate(polys: Sequence[BiPoly], var: str) -> BiPoly:
    """Gcd of polynomials univariate in `var`; zero inputs are ignored.

    Returns the zero polynomial when every input is zero.  The first nonzero
    input is returned as given, not made monic, when it is the only one or
    a constant; any other gcd is monic.  The gcd is taken over Z by the primitive pseudo-remainder
    sequence (Collins) on the integer coefficients `_integer_coeffs`, each
    remainder divided by its content, and made monic once.
    """
    acc: list[int] = []
    first: Optional[BiPoly] = None  # the first nonzero input, while alone
    for p in polys:
        cs = _integer_coeffs(p, var)
        if not cs:
            continue
        if acc:
            first = None
            while cs:
                g = math.gcd(*cs)
                cs = [a // g for a in cs]
                acc, cs = cs, _pseudo_remainder(acc, cs)
        else:
            acc, first = cs, p
        if len(acc) == 1:  # constant gcd: cannot shrink further
            break
    if not acc:
        return BiPoly.zero()
    if first is not None:
        return first
    key = (lambda i: (i, 0)) if var == "b" else (lambda i: (0, i))
    return BiPoly({key(i): Fraction(a, acc[-1]) for i, a in enumerate(acc)})


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


_ROOT_SEARCH_LIMIT = 10**7  # coefficient size beyond which we give up factoring


def rational_roots(p: BiPoly, var: str) -> tuple[list[Fraction], bool]:
    """All rational roots of a univariate polynomial, with multiplicity
    stripped, plus a flag telling whether the polynomial splits over Q
    (so the returned roots account for every root in the algebraic closure).

    The search runs over the integers, on the primitive multiple f of the
    polynomial with its powers of the variable divided out.  A root n/d in
    lowest terms has n | f(0) and d | the leading coefficient, and d*x - n
    divides f over Z (Gauss's lemma), so (d - n) | f(1) and (d + n) | f(-1).
    A candidate passing those tests is tried by the homogeneous Horner sum
    d^deg f(n/d), and each root found is divided out exactly.  The search
    gives up (not split) when f(0) or f's leading coefficient is past
    _ROOT_SEARCH_LIMIT.  The search is `_integer_roots` on the integer
    coefficients `_integer_coeffs`.
    """
    ints = _integer_coeffs(p, var)
    if not ints:
        raise ValueError("zero polynomial has every value as a root")
    return _integer_roots(ints)


def _integer_roots(ints: list[int]) -> tuple[list[Fraction], bool]:
    """`rational_roots` of the polynomial with the ascending integer
    coefficients `ints`, trimmed and not all zero."""
    if len(ints) == 1:
        return [], True
    roots: list[Fraction] = []
    # factor out powers of the variable
    k = 0
    while ints[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        ints = ints[k:]
    if len(ints) == 1:
        return roots, True
    content = math.gcd(*ints)
    work = [a // content for a in ints]
    if abs(work[0]) > _ROOT_SEARCH_LIMIT or abs(work[-1]) > _ROOT_SEARCH_LIMIT:
        return roots, False
    candidates = [
        (sign * n, d)
        for n in _divisors(work[0])
        for d in _divisors(work[-1])
        if math.gcd(n, d) == 1
        for sign in (1, -1)
    ]
    at_one, at_minus_one = sum(work), _homogeneous_value(work, -1, 1)
    for n, d in candidates:
        if len(work) == 1:
            break
        if not (_divides(d - n, at_one) and _divides(d + n, at_minus_one)):
            continue
        if _homogeneous_value(work, n, d):
            continue
        roots.append(Fraction(n, d))
        while len(work) > 1 and _homogeneous_value(work, n, d) == 0:
            work = _deflate(work, n, d)
        at_one, at_minus_one = sum(work), _homogeneous_value(work, -1, 1)
    return sorted(roots), len(work) == 1


def _divides(k: int, v: int) -> bool:
    return v % k == 0 if k else v == 0


def _homogeneous_value(cs: list[int], n: int, d: int) -> int:
    """d^deg * f(n/d) for the ascending integer coefficients cs of f."""
    acc, d_power = 0, 1
    for a in reversed(cs):
        acc = acc * n + a * d_power
        d_power *= d
    return acc


def _deflate(cs: list[int], n: int, d: int) -> list[int]:
    """The quotient of f by d*x - n, for a root n/d of f in lowest terms:
    exact over Z when f is primitive."""
    out = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry = (cs[i] + n * carry) // d
        out[i - 1] = carry
    return out


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------


def resultant(p: BiPoly, q: BiPoly, eliminate: str) -> BiPoly:
    """Sylvester resultant eliminating one parameter.

    Convention: determinant of the Sylvester matrix with the p-coefficient
    rows first, then the q rows, coefficients in descending order.  If one
    argument is free of the eliminated parameter it is returned unchanged.

    The determinant is taken over Z[x], x the kept parameter: the matrix is
    built from the integer forms D_p * p and D_q * q, its entries dense
    integer polynomials in x, and reduced by `_integer_det`.  With m and n
    the degrees of p and q, that is D_p^n * D_q^m times the resultant, so
    the result is divided by it once.
    """
    if not p.uses(eliminate):
        return p
    if not q.uses(eliminate):
        return q
    idx = _VARS.index(eliminate)
    dens, coefficients = [], []
    for f in (p, q):
        # D * f's coefficients in the eliminated parameter, descending, each
        # a trimmed ascending integer list in the kept one
        den, *degrees, terms = f._integer_form
        top, width = degrees[idx], degrees[1 - idx] + 1
        cs = [[0] * width for _ in range(top + 1)]
        for term in terms:
            cs[top - term[idx]][term[1 - idx]] = term[2]
        dens.append(den)
        coefficients.append([_poly_trim(c) for c in cs])
    pc, qc = coefficients
    m, n = len(pc) - 1, len(qc) - 1  # degrees
    rows = [[[]] * i + pc + [[]] * (n - 1 - i) for i in range(n)]
    rows += [[[]] * i + qc + [[]] * (m - 1 - i) for i in range(m)]
    den = dens[0] ** n * dens[1] ** m
    key = (lambda i: (0, i)) if eliminate == "b" else (lambda i: (i, 0))
    return BiPoly({key(i): Fraction(a, den) for i, a in enumerate(_integer_det(rows))})


def _integer_det(rows: list[list[list[int]]]) -> list[int]:
    """The determinant of a square matrix of integer polynomials (ascending
    lists, [] for zero) by Bareiss's fraction-free elimination: after step
    k each entry right of and below the pivot is a (k+2)-minor, pivot times
    entry minus the products across, divided exactly by the previous pivot.
    The rows are reduced in place."""
    n = len(rows)
    sign, prev = 1, [1]
    for k in range(n - 1):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return []
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        piv = top[k]
        for row in rows[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [
                _bareiss_entry(piv, v, f, t, prev)
                for v, t in zip(row[k + 1 :], top[k + 1 :])
            ]
        prev = piv
    det = rows[-1][-1]
    return det if sign > 0 else [-a for a in det]


# ---------------------------------------------------------------------------
# Common-zero detection
# ---------------------------------------------------------------------------


class CZStatus(str, Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class CommonZeroResult:
    status: CZStatus
    witness: Optional[tuple[Fraction, Fraction]] = None


@dataclass(frozen=True)
class ZeroSetInfo:
    """Structured description of the common zero set of a system in (b, c).

    kind:
      * "empty"      -- provably no common zero over the algebraic closure
      * "finite"     -- nonempty and, over the rational roots of the
                        b-eliminant, zero-dimensional; `points` lists the
                        rational zeros found there
      * "lines"      -- contains the full coordinate lines {var = value} x A^1
                        of `lines`; `points` holds one point on each, then
                        the isolated rational zeros
      * "curve"      -- contains the zero locus of `curve` (a single
                        nonconstant polynomial); `points` are rational points
                        on it over b in [-6, 6]
      * "everything" -- every parameter pair is a zero (all polynomials zero)
      * "unknown"    -- the elimination strategy degenerated; `points` are
                        the integer grid zeros a search found, if any

    `complete` ("finite" and "lines" only): the listed lines and points are
    the whole zero set.
    """

    kind: str
    points: tuple[tuple[Fraction, Fraction], ...] = ()
    complete: bool = False
    lines: tuple[tuple[str, Fraction], ...] = ()
    curve: Optional[BiPoly] = None


# the curve fibres b = b0 listed by `analyze_common_zeros`, and those
# `common_zero_avoiding` adds when none of those points avoids
_CURVE_FIBRES = range(-6, 7)
_WIDER_CURVE_FIBRES = (*range(-10, -6), *range(7, 11))


def analyze_common_zeros(polys: Iterable[BiPoly]) -> ZeroSetInfo:
    """Describe the common zero set of a polynomial system in (b, c).

    Strategy, in order: constant check; single-variable gcd; pairwise
    resultants eliminating c; gcd of the resulting univariates in b;
    back-substitution at its rational roots.  Completeness of the rational
    data is tracked so that callers can distinguish "no common zero" from
    "none found".
    """
    original = list(polys)
    if not original:
        raise EmptyInput("common-zero analysis requires at least one polynomial")
    system = [p for p in original if not p.is_zero()]
    if not system:
        return ZeroSetInfo(kind="everything", points=((Fraction(0), Fraction(0)),))
    if any(p.is_constant() for p in system):
        return ZeroSetInfo(kind="empty")  # a nonzero constant kills the system

    uses_b = any(p.uses("b") for p in system)
    uses_c = any(p.uses("c") for p in system)

    if uses_b and not uses_c:
        return _lines_info(system, "b")
    if uses_c and not uses_b:
        return _lines_info(system, "c")

    if len(system) == 1:
        pts = _curve_points(system[0], _CURVE_FIBRES)
        return ZeroSetInfo(kind="curve", points=tuple(pts), curve=system[0])

    c_polys = [p for p in system if p.uses("c")]
    b_only = [p for p in system if not p.uses("c")]
    elim: list[BiPoly] = list(b_only)
    for i in range(len(c_polys)):
        for j in range(i + 1, len(c_polys)):
            elim.append(resultant(c_polys[i], c_polys[j], "c"))
    nonzero_elim = [p for p in elim if not p.is_zero()]
    if not nonzero_elim:
        # every pairwise resultant vanished: shared factors; fall back to
        # the integer grid |b|, |c| <= 4
        grid = range(-4, 5)
        values = [p.cleared_values(grid, grid) for p in system]
        pts = (
            (Fraction(b0), Fraction(c0))
            for (b0, c0), column in zip(itertools.product(grid, grid), zip(*values))
            if not any(column)
        )
        return ZeroSetInfo(kind="unknown", points=tuple(pts))
    g = gcd_univariate(nonzero_elim, "b")
    if g.is_constant():
        return ZeroSetInfo(kind="empty")
    roots, b_split = rational_roots(g, "b")

    points: list[tuple[Fraction, Fraction]] = []
    lines: list[tuple[str, Fraction]] = []
    fibres_split = True
    isolated = False  # some fibre has a common zero off the lines
    for r in roots:
        subbed = [p.substitute("b", r) for p in system]
        live = [p for p in subbed if not p.is_zero()]
        if any(p.is_constant() for p in live):
            continue  # this fibre is blocked by a nonzero constant
        if not live:
            lines.append(("b", r))
            points.append((r, Fraction(0)))
            continue
        gc = gcd_univariate(live, "c")
        if gc.is_constant():
            continue  # coprime on this fibre: no common c
        isolated = True
        croots, c_split = rational_roots(gc, "c")
        points.extend((r, cr) for cr in croots)
        if not c_split:
            fibres_split = False

    if lines or isolated:
        # the listed lines and points describe the whole zero set exactly
        # when the eliminant splits and every contributing fibre splits
        return ZeroSetInfo(
            kind="lines" if lines else "finite",
            points=tuple(points),
            complete=b_split and fibres_split,
            lines=tuple(lines),
        )
    if b_split:
        # every possible b-projection was enumerated and failed
        return ZeroSetInfo(kind="empty")
    return ZeroSetInfo(kind="unknown")


def _lines_info(system: list[BiPoly], var: str) -> ZeroSetInfo:
    g = gcd_univariate(system, var)
    if g.is_constant():
        return ZeroSetInfo(kind="empty")
    roots, split = rational_roots(g, var)
    lines = tuple((var, r) for r in roots)
    pts = tuple(
        (r, Fraction(0)) if var == "b" else (Fraction(0), r) for r in roots
    )
    # when the gcd splits over Q the listed lines exhaust the zero set
    return ZeroSetInfo(kind="lines", points=pts, complete=split, lines=lines)


def _curve_points(
    p: BiPoly, fibres: Iterable[int]
) -> list[tuple[Fraction, Fraction]]:
    """The rational points of the curve p = 0 on the fibres b = b0: each
    fibre is the integer polynomial `_fibre` in c, searched by
    `_integer_roots`."""
    pts = []
    for b0 in fibres:
        cs = _fibre(p, b0)
        if not cs:
            pts.append((Fraction(b0), Fraction(0)))
        elif len(cs) > 1:
            roots, _ = _integer_roots(cs)
            pts.extend((Fraction(b0), r) for r in roots)
    return pts


def _fibre(p: BiPoly, b0: int) -> list[int]:
    """The ascending coefficients in c of D * p(b0, c) at an integer b0, D
    from p's integer form, trimmed: empty where the fibre vanishes."""
    _, _, deg_c, terms = p._integer_form
    cs = [0] * (deg_c + 1)
    for eb, ec, a in terms:
        cs[ec] += a * b0**eb
    return _poly_trim(cs)


def common_zero_exists(polys: Iterable[BiPoly]) -> CommonZeroResult:
    """Decide whether a nonempty system has a common zero over the algebraic
    closure: `common_zero_avoiding` with nothing to avoid."""
    polys = list(polys)
    if not polys:
        raise EmptyInput("common-zero analysis requires at least one polynomial")
    return common_zero_avoiding(polys, [])


def nonvanishing_point(
    polys: Sequence[BiPoly],
) -> tuple[Fraction, Fraction]:
    """A rational point at which no polynomial of the list vanishes.

    Exists whenever no input is identically zero: a polynomial of degree
    (d_b, d_c) cannot vanish on a (d_b+1) x (d_c+1) grid, so trying the grid
    for the product of the inputs always terminates.  The product is not
    formed: its degrees are the sums of the inputs' degrees, and it is
    nonzero where every input's `cleared_values` are, taken a row b = b0
    at a time.
    """
    live = [p for p in polys if not p.is_zero()]
    if len(live) != len(list(polys)):
        raise ValueError("an identically zero polynomial vanishes everywhere")
    cs = range(sum(p.degree("c") for p in live) + 1)
    for b0 in range(sum(p.degree("b") for p in live) + 1):
        row = [p.cleared_values([b0], cs) for p in live]
        for c0 in cs:
            if all(v[c0] for v in row):
                return (Fraction(b0), Fraction(c0))
    raise AssertionError("unreachable: a nonzero polynomial misses some grid point")


def common_zero_avoiding(
    vanish: Sequence[BiPoly], avoid: Sequence[BiPoly]
) -> CommonZeroResult:
    """Decide whether some common zero of `vanish` avoids every zero of
    `avoid`: the one common-zero decision.

    `stability.uhat_stable_explicit` asks it with nothing to avoid;
    `stability.achievable_supports` asks whether the coordinates outside a
    candidate support can vanish while those inside stay nonzero.  An empty
    `vanish` holds everywhere.  `avoid` entries must be nonzero polynomials.
    Yes carries a rational witness, except with nothing to avoid on a zero
    set that is nonempty but lists no rational point.
    """
    for p in avoid:
        if p.is_zero():
            raise ValueError("avoid-polynomials must be nonzero")
    vanish = list(vanish)
    info = analyze_common_zeros(vanish) if vanish else ZeroSetInfo(kind="everything")
    if info.kind == "empty":
        return CommonZeroResult(CZStatus.NO)
    if info.kind == "everything":
        return CommonZeroResult(CZStatus.YES, nonvanishing_point(avoid))

    def avoids(pt: tuple[Fraction, Fraction]) -> bool:
        return all(p.eval_at(*pt) != 0 for p in avoid)

    good = [pt for pt in info.points if avoids(pt)]
    if good:
        return CommonZeroResult(CZStatus.YES, min(good))
    if info.kind == "unknown":
        return CommonZeroResult(CZStatus.UNDECIDED)
    if not avoid:
        return CommonZeroResult(CZStatus.YES)  # every other kind is nonempty
    if info.kind == "curve":
        # the fibres |b| <= 6 were scanned for info.points, none avoiding
        wider = _curve_points(info.curve, _WIDER_CURVE_FIBRES)
        good = [pt for pt in wider if avoids(pt)]
        if good:
            return CommonZeroResult(CZStatus.YES, min(good))
        return CommonZeroResult(CZStatus.UNDECIDED)
    for var, value in info.lines:
        restricted = [p.substitute(var, value) for p in avoid]
        if any(p.is_zero() for p in restricted):
            continue  # this line is contained in a forbidden locus
        b0, c0 = nonvanishing_point(restricted)  # free of `var`: 0 there
        pt = (value, c0) if var == "b" else (b0, value)
        return CommonZeroResult(CZStatus.YES, pt)
    if info.complete:
        # the listed lines and points exhaust the zero set: every line is
        # inside a forbidden locus and every point failed above
        return CommonZeroResult(CZStatus.NO)
    return CommonZeroResult(CZStatus.UNDECIDED)
