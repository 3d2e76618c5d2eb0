"""Seeded generator of action-spec JSON files for the benchmark.

Everything here is plain Python on integers: the program under test sees
only the files written by these functions.  Draws that the program would
reject, or that a subcommand cannot answer, are redrawn from the same
random stream, so one seed always gives the same files and no operation
fails by construction:

* rank-2 weight sets that are all collinear (the chamber complex raises
  ``DegenerateWeights`` on them);
* ``beta``/``svg`` inputs with more than 14 distinct Segre weights (the
  2^n index-set sweep refuses them);
* u-matrices that are not the identity at parameters (0, 0).

Rank-2 chamber inputs are integral affine images of fixed base products
(a unimodular linear map, a small translation per factor, shuffled factor
and coordinate order).  The chamber combinatorics, and with it the cost of
an operation, is then the same for every seed, while the weights, the
reports and every intermediate rational differ.  Minimum-norm points
depend on the metric and the origin as well, so rank-2 inputs of `beta`,
`strata` and `svg` use only the lattice's isometries (signed coordinate
permutations), and rank-1 ones a mirror image with opposite shifts on the
two factors, which keep the Segre weights up to sign and so Wolfe's work.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

MAX_BETA_WEIGHTS = 14

# Two points of P^2 under a rank-2 torus, weights in [-2, 2]^2: 8 distinct
# Segre weights on 19 and 17 distinct pair lines.
CHAMBER_BASES = (
    (((-1, 2), (0, 0), (2, 1)), ((-1, -2), (0, 1), (2, 2))),
    (((0, 0), (0, 2), (0, -1)), ((-2, 0), (-1, 0), (-1, -2))),
)

# Two P^3 factors under a rank-1 torus: 11 distinct Segre weights, so the
# beta index set sweeps 2^11 - 1 subsets.
BETA_LINE_BASE = (((-3,), (2,), (-2,), (1,)), ((3,), (1,), (-3,), (0,)))

# Unimodular maps with entries in {-1, 0, 1}; the first eight are the
# isometries of the square lattice.
ISOMETRIES = 8
UNIMODULAR = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((0, -1), (-1, 0)),
    ((-1, 0), (0, -1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (-1, 1)),
)

# sec7_1's torus action: two points and a line of P^2.
SEC71_FACTORS = (
    ((1, 0), (0, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, -1)),
    ((-1, 0), (0, -1), (1, 1)),
)
SEC71_ADJOINT = ((1, -1), (2, 1))

# Monomials b^i c^j of degree 1 and 2 (the constant term is drawn separately).
_MONOMIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


class InvalidDraw(ValueError):
    """A drawn input that the program would reject or cannot answer."""


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


def segre_weights(factors) -> list[tuple[int, ...]]:
    """All sums of one weight per factor, with multiplicity."""
    out = []
    for combo in itertools.product(*factors):
        out.append(tuple(sum(c) for c in zip(*combo)))
    return out


def distinct_segre_weights(factors) -> list[tuple[int, ...]]:
    return sorted(set(segre_weights(factors)))


def all_collinear(points) -> bool:
    pts = sorted(set(points))
    if len(pts) < 3:
        return True
    (x0, y0), (x1, y1) = pts[0], pts[1]
    return all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for x, y in pts[2:])


def check_rank2(factors) -> None:
    if all_collinear(segre_weights(factors)):
        raise InvalidDraw("all Segre weights are collinear")


def check_beta_size(factors) -> None:
    n = len(distinct_segre_weights(factors))
    if n > MAX_BETA_WEIGHTS:
        raise InvalidDraw(f"{n} distinct weights exceed {MAX_BETA_WEIGHTS}")


def identity_at_origin(matrix) -> bool:
    """matrix[i][j] is a dict {(eb, ec): coef}; its value at b = c = 0 is
    the coefficient of (0, 0)."""
    n = len(matrix)
    return all(
        matrix[i][j].get((0, 0), 0) == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def _redraw(rng: random.Random, draw, check, limit: int = 1000):
    for _ in range(limit):
        value = draw(rng)
        try:
            check(value)
        except InvalidDraw:
            continue
        return value
    raise RuntimeError("generator rejected every draw; the ranges are wrong")


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


def affine_image(rng: random.Random, factors, isometric: bool = False):
    """An integral affine image of a rank-2 product, shuffled; with
    `isometric`, a signed coordinate permutation and no translation."""
    (a, b), (c, d) = rng.choice(UNIMODULAR[:ISOMETRIES] if isometric else UNIMODULAR)
    out = []
    for weights in factors:
        tx, ty = (0, 0) if isometric else (rng.randint(-1, 1), rng.randint(-1, 1))
        moved = [(a * x + b * y + tx, c * x + d * y + ty) for x, y in weights]
        rng.shuffle(moved)
        out.append(tuple(moved))
    rng.shuffle(out)
    return tuple(out)


def rank2_chamber_input(rng: random.Random, base):
    return _redraw(rng, lambda r: affine_image(r, base), check_rank2)


def rank2_beta_input(rng: random.Random, base):
    def check(factors):
        check_rank2(factors)
        check_beta_size(factors)

    return _redraw(rng, lambda r: affine_image(r, base, isometric=True), check)


def rank1_image(rng: random.Random, factors):
    """A mirror image of a two-factor rank-1 product with opposite shifts on
    its factors, shuffled: the Segre weights are the base's up to sign."""
    sign, shift = rng.choice((1, -1)), rng.randint(-2, 2)
    out = []
    for weights, t in zip(factors, (shift, -shift)):
        moved = [(sign * w + t,) for (w,) in weights]
        rng.shuffle(moved)
        out.append(tuple(moved))
    rng.shuffle(out)
    return tuple(out)


def rank1_beta_input(rng: random.Random, base):
    return _redraw(rng, lambda r: rank1_image(r, base), check_beta_size)


def rank1_input(rng: random.Random, sizes, distinct: int):
    """A rank-1 product of projective spaces with exactly `distinct`
    distinct Segre weights (fixing it fixes the 2^n index-set sweep)."""

    def draw(r):
        return tuple(tuple((r.randint(-3, 3),) for _ in range(k)) for k in sizes)

    def check(factors):
        n = len(distinct_segre_weights(factors))
        if n != distinct:
            raise InvalidDraw(f"{n} distinct weights, want {distinct}")
        check_beta_size(factors)

    return _redraw(rng, draw, check)


def twist2(rng: random.Random, den: int = 5, span: int = 2) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(rng.randint(-span * den, span * den), den) for _ in range(2))


def unitriangular(rng: random.Random, n: int = 3):
    """A 3x3 unitriangular matrix whose off-diagonal entries are polynomials
    of degree <= 2 in (b, c), as {(eb, ec): coef} dicts."""

    def draw(r):
        upper = r.random() < 0.5
        mat = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            mat[i][i] = {(0, 0): 1}
            for j in range(n):
                if (j > i) != upper or i == j:
                    continue
                entry = {}
                for mono in r.sample(_MONOMIALS, r.randint(0, 2)):
                    entry[mono] = r.choice((-2, -1, 1, 2))
                if r.random() < 0.1:
                    entry[(0, 0)] = 1
                mat[i][j] = entry
        return mat

    def check(mat):
        if not identity_at_origin(mat):
            raise InvalidDraw("u-matrix is not the identity at (0, 0)")

    return _redraw(rng, draw, check)


def flip_parameters(matrix, signs):
    """The u-matrix at (sb * b, sc * c): the parameter space mapped onto
    itself, so the sweep verdicts and the elimination work are unchanged."""
    sb, sc = signs
    return [
        [{(eb, ec): c * sb**eb * sc**ec for (eb, ec), c in entry.items()} for entry in row]
        for row in matrix
    ]


def explicit_point(rng: random.Random, sizes):
    def draw(r):
        return tuple(tuple(r.choice((0, 0, 1, 1, -1, 2)) for _ in range(k)) for k in sizes)

    def check(coords):
        if any(not any(block) for block in coords):
            raise InvalidDraw("a factor has all coordinates zero")

    return _redraw(rng, draw, check)


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------


def _q(value) -> str:
    return str(Fraction(value))


def _poly(entry: dict) -> str:
    if not entry:
        return "0"
    terms = sorted(entry.items(), reverse=True)
    return "+".join(f"{c}*b^{eb}*c^{ec}" for (eb, ec), c in terms)


def action_spec(name: str, factors, **extra) -> dict:
    rank = len(factors[0][0])
    spec = {
        "name": name,
        "rank": rank,
        "inner_product": [[int(i == j) for j in range(rank)] for i in range(rank)],
        "factors": [{"weights": [list(w) for w in ws]} for ws in factors],
    }
    spec.update(extra)
    return spec


def group_block(adjoint, matrices=()) -> dict:
    """A group over (b, c); without matrices, the torus alone."""
    return {
        "adjoint_weights": [list(w) for w in adjoint],
        "u_params": 2 if matrices else 0,
        "u_matrices": [[[_poly(e) for e in row] for row in m] for m in matrices],
    }


def point_block(coords) -> dict:
    return {"coords": [[_q(v) for v in block] for block in coords]}


def write_spec(directory: Path, spec: dict) -> str:
    path = directory / f"{spec['name']}.json"
    path.write_text(json.dumps(spec, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return str(path)
