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
That is enough for the bundled two-dimensional unipotent groups.  The one
common-zero decision is `common_zero_avoiding`: does some common zero of one
list avoid every zero of another?  `common_zero_exists` is it with nothing to
avoid.  It reads the elimination's `ZeroSetInfo` and returns ``UNDECIDED``,
rather than guessing, in three cases only: the elimination degenerated
(kind "unknown") and no listed point avoids; a single curve whose wider
rational grid finds no point off the avoided zeros; and lines and points that
are not known to be the whole zero set, none of which avoids.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


class EmptyInput(ValueError):
    """Raised when an operation requiring a nonempty input receives none."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"num"`` or ``"num/den"`` into a Fraction."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Canonical string form ``num`` or ``num/den`` (denominator > 0)."""
    return str(Fraction(q))


@dataclass(frozen=True)
class RationalVector:
    """An exact point of character/cocharacter space."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Fraction | int | str]):
        # an exact Fraction is kept: Fraction(e) would rebuild it through
        # the numbers.Rational path
        object.__setattr__(
            self,
            "entries",
            tuple(e if type(e) is Fraction else Fraction(e) for e in entries),
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

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

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

    def sort_key(self) -> tuple[Fraction, ...]:
        return self.entries

    def _check_dim(self, other: "RationalVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        return "(" + ", ".join(format_rational(e) for e in self.entries) + ")"


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
        object.__setattr__(
            self,
            "_is_identity",
            all(rows[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)),
        )

    @staticmethod
    def identity(rank: int) -> "InnerProduct":
        return InnerProduct(
            [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        )

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, u: RationalVector, v: RationalVector) -> Fraction:
        if u.dim != self.rank or v.dim != self.rank:
            raise ValueError("vector dimension does not match form rank")
        if self._is_identity:
            return sum(
                (a * b for a, b in zip(u.entries, v.entries)), Fraction(0)
            )
        total = Fraction(0)
        for i, ui in enumerate(u.entries):
            if ui == 0:
                continue
            row = self.gram[i]
            total += ui * sum(
                (row[j] * vj for j, vj in enumerate(v.entries)), Fraction(0)
            )
        return total

    def norm_sq(self, v: RationalVector) -> Fraction:
        return self.pairing(v, v)

    def dual_norm_sq(self, v: RationalVector) -> Fraction:
        """v . G^-1 v, the norm of a cocharacter under the dual form: with d
        the denominator of v, G x = d * v is solved over the integers."""
        (dv,), d = clear_denominators([v.entries])
        rows, _, det = integer_row_reduce(
            [[*row, e] for row, e in zip(self.gram, dv)]
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

_TERM_RE = re.compile(
    r"^(?P<coef>-?\d+(?:/\d+)?)?"
    r"(?P<bpart>\*?-?b(?:\^\d+)?)?"
    r"(?P<cpart>\*?-?c(?:\^\d+)?)?$"
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
                    q = Fraction(q)
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
        handling costs more than the clearing, and a spec load pays it once
        per u-matrix entry."""
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

    def coefficients_in(self, var: str) -> list["BiPoly"]:
        """Coefficient list w.r.t. one parameter, ascending, as polynomials
        in the other parameter.  Empty list for the zero polynomial."""
        if self.is_zero():
            return []
        idx = _VARS.index(var)
        deg = self.degree(var)
        buckets: list[dict[tuple[int, int], Fraction]] = [
            {} for _ in range(deg + 1)
        ]
        for (eb, ec), q in self.coeffs:
            exps = [eb, ec]
            power = exps[idx]
            exps[idx] = 0
            buckets[power][(exps[0], exps[1])] = q
        return [BiPoly(d) for d in buckets]

    # -- canonical string form ----------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for (eb, ec), q in self.coeffs:  # already descending lex in (eb, ec)
            terms.append(f"{format_rational(q)}*b^{eb}*c^{ec}")
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
            d[k] = d.get(k, Fraction(0)) + coef
        return BiPoly(d)


def _parse_term(term: str, context: str) -> tuple[Fraction, int, int]:
    m = _TERM_RE.match(term)
    if not m or (m.group("coef") is None and not m.group("bpart") and not m.group("cpart")):
        raise ValueError(f"cannot parse term {term!r} in polynomial {context!r}")
    coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
    eb = ec = 0
    for name, part in (("b", m.group("bpart")), ("c", m.group("cpart"))):
        if not part:
            continue
        part = part.lstrip("*")
        if part.startswith("-"):
            coef = -coef
            part = part[1:]
        if "^" in part:
            exp = int(part.split("^")[1])
        else:
            exp = 1
        if name == "b":
            eb = exp
        else:
            ec = exp
    return coef, eb, ec


# ---------------------------------------------------------------------------
# Univariate helpers (coefficient lists over Fraction)
# ---------------------------------------------------------------------------


def _univariate_coeffs(p: BiPoly, var: str) -> list[Fraction]:
    other = "c" if var == "b" else "b"
    if p.uses(other):
        raise ValueError(f"polynomial {p} is not univariate in {var}")
    out = [Fraction(0)] * (max(p.degree(var), 0) + 1)
    idx = _VARS.index(var)
    for k, q in p.coeffs:
        out[k[idx]] = q
    return out


def _poly_trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(
    num: list[Fraction], den: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    num = num[:]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and num:
        f = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = f
        for i, d in enumerate(den):
            num[shift + i] -= f * d
        _poly_trim(num)
    return q, num


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of univariate polynomials (coefficient lists, ascending)."""
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def gcd_univariate(polys: Sequence[BiPoly], var: str) -> BiPoly:
    """Monic gcd of polynomials univariate in `var`; zero inputs are ignored.

    Returns the zero polynomial when every input is zero.
    """
    acc: list[Fraction] = []
    for p in polys:
        if p.is_zero():
            continue
        cs = _univariate_coeffs(p, var)
        acc = _poly_gcd(acc, cs) if acc else _poly_trim(cs)
        if len(acc) == 1:  # constant gcd: cannot shrink further
            break
    if not acc:
        return BiPoly.zero()
    key = (lambda i: (i, 0)) if var == "b" else (lambda i: (0, i))
    return BiPoly({key(i): q for i, q in enumerate(acc)})


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
    _ROOT_SEARCH_LIMIT.
    """
    cs = _poly_trim(_univariate_coeffs(p, var))
    if not cs:
        raise ValueError("zero polynomial has every value as a root")
    if len(cs) == 1:
        return [], True
    (ints,), _ = clear_denominators([cs])
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
    """
    if not p.uses(eliminate):
        return p
    if not q.uses(eliminate):
        return q
    pc = list(reversed(p.coefficients_in(eliminate)))
    qc = list(reversed(q.coefficients_in(eliminate)))
    m, n = len(pc) - 1, len(qc) - 1  # degrees
    size = m + n
    rows: list[list[BiPoly]] = []
    for i in range(n):
        row = [BiPoly.zero()] * size
        for j, coef in enumerate(pc):
            row[i + j] = coef
        rows.append(row)
    for i in range(m):
        row = [BiPoly.zero()] * size
        for j, coef in enumerate(qc):
            row[i + j] = coef
        rows.append(row)
    return _det_poly(rows)


def _det_poly(rows: list[list[BiPoly]]) -> BiPoly:
    n = len(rows)
    if n == 0:
        return BiPoly.const(1)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    # expand along the row with the most zeros
    best = max(range(n), key=lambda i: sum(1 for e in rows[i] if e.is_zero()))
    total = BiPoly.zero()
    for j, entry in enumerate(rows[best]):
        if entry.is_zero():
            continue
        minor = [
            [row[k] for k in range(n) if k != j]
            for i, row in enumerate(rows)
            if i != best
        ]
        term = entry * _det_poly(minor)
        if (best + j) % 2:
            term = -term
        total = total + term
    return total


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
        # every pairwise resultant vanished: shared factors; fall back to search
        pts = _grid_witnesses(system, bound=4)
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
    """The rational points of the curve p = 0 on the fibres b = b0."""
    pts = []
    for b0 in fibres:
        fibre = p.substitute("b", Fraction(b0))
        if fibre.is_zero():
            pts.append((Fraction(b0), Fraction(0)))
            continue
        if fibre.is_constant():
            continue
        roots, _ = rational_roots(fibre, "c")
        pts.extend((Fraction(b0), r) for r in roots)
    return pts


def _grid_witnesses(
    system: list[BiPoly], bound: int
) -> list[tuple[Fraction, Fraction]]:
    pts = []
    for b0 in range(-bound, bound + 1):
        for c0 in range(-bound, bound + 1):
            if all(p.eval_at(b0, c0) == 0 for p in system):
                pts.append((Fraction(b0), Fraction(c0)))
    return pts


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
    for the product of the inputs always terminates.
    """
    live = [p for p in polys if not p.is_zero()]
    if len(live) != len(list(polys)):
        raise ValueError("an identically zero polynomial vanishes everywhere")
    prod = BiPoly.const(1)
    for p in live:
        prod = prod * p
    db, dc = max(prod.degree("b"), 0), max(prod.degree("c"), 0)
    for b0 in range(db + 1):
        for c0 in range(dc + 1):
            if prod.eval_at(b0, c0) != 0:
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
