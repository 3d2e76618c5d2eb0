"""The benchmark's four workloads, built from a seed.

A workload is one *round*: a fixed list of operations (ops) over seeded
input files.  Every op is one ``gitloci.cli.run(argv)`` call, except the
``hull`` ops of `queries`, which call ``polytope.hull_membership``
directly.  The mix of op kinds in a round is fixed; the seed chooses the
inputs and the arguments.  Counts are chosen so that each reported
percentile falls inside a block of ops of one kind, not on the edge
between two kinds of very different cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import gen

SEC71 = "corpus/sec7_1.json"


@dataclass
class Op:
    kind: str
    spec: str
    argv: list[str] = field(default_factory=list)
    data: object = None  # the queries of a `hull` op


@dataclass
class Workload:
    name: str
    inputs: list[str]  # distinct spec files, loaded once each by set-up
    ops: list[Op]  # one round


def _cli(kind: str, spec: str, *args: str) -> Op:
    return Op(kind, spec, [kind, "--input", spec, *args])


def _q2(pair) -> str:
    return ",".join(str(v) for v in pair)


def _workload(name: str, ops: list[Op], rng: random.Random) -> Workload:
    rng.shuffle(ops)
    inputs = sorted({op.spec for op in ops})
    return Workload(name, inputs, ops)


# ---------------------------------------------------------------------------
# chambers: face labelling and the 2D arrangement
# ---------------------------------------------------------------------------

# Affine images per base product in one round.  The second base is the
# cheaper one: the median falls among its images and the 90th percentile
# among the images of the first base.  A round takes 6 to 9 s, so that a
# run repeats every op.  sec7_1's complex (about 15 s in one op, longer
# than a round) is left to the benchmark's tests, which pin its counts.
CHAMBER_IMAGES = (2, 5)


def chambers(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    ops = []
    k = 0
    for base, count in zip(gen.CHAMBER_BASES, CHAMBER_IMAGES):
        for _ in range(count):
            factors = gen.rank2_chamber_input(rng, base)
            path = gen.write_spec(out, gen.action_spec(f"chambers{k}", factors))
            ops.append(_cli("chambers", path))
            k += 1
    return _workload("chambers", ops, rng)


# ---------------------------------------------------------------------------
# strata: Wolfe's min-norm point and the index set
# ---------------------------------------------------------------------------

# Tiers of cost in one round, cheapest first: strata on rank-2 inputs;
# rank-1 strata; rank-2 svg and beta (the median falls here); sec7_1's
# strata; rank-1 beta over 2^11 subsets (the 90th percentile falls here).
# Every input of one rank is an image of one base product, so a tier has
# one cost.  A round takes about 5 s.  sec7_1's beta and svg (7 s together)
# are left to the benchmark's tests, which pin its Wolfe calls and betas.
STRATA_RANK2 = 5
STRATA_RANK1 = 4


def strata(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    ops = [_cli("strata", SEC71)]
    for k in range(STRATA_RANK2):
        factors = gen.rank2_beta_input(rng, gen.CHAMBER_BASES[0])
        path = gen.write_spec(out, gen.action_spec(f"strata2_{k}", factors))
        ops += [_cli(kind, path) for kind in ("beta", "strata", "svg")]
    for k in range(STRATA_RANK1):
        factors = gen.rank1_beta_input(rng, gen.BETA_LINE_BASE)
        path = gen.write_spec(out, gen.action_spec(f"strata1_{k}", factors))
        ops += [_cli(kind, path) for kind in ("beta", "strata")]
    return _workload("strata", ops, rng)


# ---------------------------------------------------------------------------
# queries: millisecond corpus queries, dominated by per-call costs
# ---------------------------------------------------------------------------

# Tiers of cost, cheapest first: admissible-cone, adapted and rank-1
# stability; hull and rank-1 chambers (the median falls here); fan;
# external-equiv; rank-2 stability over sec7_1's 343 supports (the 90th
# percentile falls near the middle of this tier).
QUERY_MIX = {
    "stability2": 16,
    "stability1": 10,
    "adapted": 10,
    "admissible-cone": 6,
    "fan": 14,
    "external-equiv": 8,
    "chambers1": 16,
    "hull": 10,
}
HULL_BATCH = 40  # hull_membership calls in one `hull` op
QUERY_SPECS = 4  # seeded group blocks over sec7_1's action, and rank-1 products


def _primitive(rng: random.Random, span: int = 2) -> tuple[int, int]:
    while True:
        v = (rng.randint(-span, span), rng.randint(-span, span))
        if v != (0, 0) and gcd(*v) == 1:
            return v


def _adjoint_pair(rng: random.Random):
    """Two adjoint weights whose strict cone has interior: not opposite."""
    while True:
        u, v = _primitive(rng), _primitive(rng)
        if u != v and u != (-v[0], -v[1]):
            return u, v


def _adapted_args(rng: random.Random, segre) -> list[str]:
    lam = _primitive(rng)
    values = sorted({lam[0] * x + lam[1] * y for x, y in segre})
    args = ["--lambda", _q2(lam)]
    if rng.random() < 0.5:
        args += ["--twist", _q2(gen.twist2(rng))]
    if rng.random() < 0.5:
        width = values[1] - values[0]
        args += ["--epsilon", str(Fraction(width * rng.randint(1, 9), 10))]
    return args


def _external_spec(rng: random.Random, k: int) -> dict:
    """A P^1 whose twist is the weight of the coordinate with external
    weight 0: the single extensions then have nonempty semistable families."""
    weights = ((rng.randint(-1, 1),), (rng.randint(-1, 1),))
    return gen.action_spec(
        f"external{k}",
        (weights,),
        twist=[str(weights[1][0])],
        external={
            "m_lambda": [rng.randint(1, 3), 0],
            "m_mu": [rng.randint(1, 3), 0],
            "N": rng.choice((4, 8, 12)),
            "epsilon": rng.choice(("1/2", "1/3", "1/5")),
        },
    )


def queries(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    segre = gen.segre_weights(gen.SEC71_FACTORS)
    groups, rank1, externals = [], [], []
    for k in range(QUERY_SPECS):
        full = gen.group_block(_adjoint_pair(rng))
        b0 = gen.group_block([_primitive(rng)])
        spec = gen.action_spec(
            f"groups{k}", gen.SEC71_FACTORS, group=full, variants={"b0": b0}
        )
        groups.append(gen.write_spec(out, spec))
        factors = gen.rank1_input(rng, (3, 3), 6)
        rank1.append(gen.write_spec(out, gen.action_spec(f"line{k}", factors)))
        externals.append(gen.write_spec(out, _external_spec(rng, k)))

    ops: list[Op] = []
    for _ in range(QUERY_MIX["stability2"]):
        ops.append(
            _cli("stability", SEC71, "--point", "all", "--twist", _q2(gen.twist2(rng)))
        )
    for _ in range(QUERY_MIX["stability1"]):
        twist = Fraction(rng.randint(-20, 20), 4)
        ops.append(
            _cli("stability", rng.choice(rank1), "--point", "all", "--twist", str(twist))
        )
    for _ in range(QUERY_MIX["adapted"]):
        ops.append(_cli("adapted", SEC71, *_adapted_args(rng, segre)))
    for i in range(QUERY_MIX["admissible-cone"]):
        variant = ("--variant", "b0") if i % 2 else ()
        ops.append(_cli("admissible-cone", rng.choice(groups), *variant))
    for i in range(QUERY_MIX["fan"]):
        variant = ("--variant", "b0") if i % 2 else ()
        ops.append(_cli("fan", rng.choice(groups), *variant))
    for i in range(QUERY_MIX["external-equiv"]):
        ops.append(_cli("external-equiv", externals[i % len(externals)]))
    for i in range(QUERY_MIX["chambers1"]):
        ops.append(_cli("chambers", rank1[i % len(rank1)]))
    supports = _sec71_supports()
    for _ in range(QUERY_MIX["hull"]):
        batch = [(rng.choice(supports), gen.twist2(rng)) for _ in range(HULL_BATCH)]
        ops.append(Op("hull", SEC71, data=batch))
    return _workload("queries", ops, rng)


def _sec71_supports() -> list[tuple[int, ...]]:
    """Valid supports of sec7_1 (nonempty in each of the three factors), as
    sorted global coordinate indices."""
    blocks = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    per = []
    for blk in blocks:
        subsets = [
            tuple(i for j, i in enumerate(blk) if mask >> j & 1) for mask in range(1, 8)
        ]
        per.append(subsets)
    return [a + b + c for a in per[0] for b in per[1] for c in per[2]]


# ---------------------------------------------------------------------------
# sweeps: resultant and gcd elimination
# ---------------------------------------------------------------------------

# A fixed pool of u-matrices, points and flows, drawn once from POOL_SEED:
# the cost of a sweep varies several-fold between random matrices, so a
# workload seed only maps each pool entry's parameters (b, c) to
# (+-b, +-c) and shuffles the ops, which leaves the cost where it is.  A
# round of 240 ops takes about 3 s.
POOL_SEED = 0
SWEEP_SPECS = 48
SWEEP_FLOWS = 4  # usweep flows per point, one hstable
SWEEP_LAMBDAS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, -1), (-1, 2))


def sweeps(seed: int, out: Path) -> Workload:
    """Per spec: four `usweep` flows and one `hstable` at its point, so that
    the median falls inside the usweep block and the 90th percentile at the
    middle of the hstable block."""
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    ops: list[Op] = []
    for k in range(SWEEP_SPECS):
        mats = [gen.unitriangular(pool) for _ in gen.SEC71_FACTORS]
        point = gen.explicit_point(pool, (3, 3, 3))
        flows = pool.sample(SWEEP_LAMBDAS, SWEEP_FLOWS)
        signs = (rng.choice((1, -1)), rng.choice((1, -1)))
        spec = gen.action_spec(
            f"sweep{k}",
            gen.SEC71_FACTORS,
            group=gen.group_block(
                gen.SEC71_ADJOINT, [gen.flip_parameters(m, signs) for m in mats]
            ),
            points={"p": gen.point_block(point)},
        )
        path = gen.write_spec(out, spec)
        for lam in flows:
            ops.append(_cli("usweep", path, "--point", "p", "--lambda", _q2(lam)))
        ops.append(_cli("hstable", path, "--point", "p"))
    return _workload("sweeps", ops, rng)


WORKLOADS = {
    "chambers": chambers,
    "strata": strata,
    "queries": queries,
    "sweeps": sweeps,
}
