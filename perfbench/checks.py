"""Per-op correctness checks, run outside the timed interval.

Each check parses an op's report and confirms it through a path that is
independent of the one that produced it: a brute-force oracle of the
library (`git_class`, `min_norm_point_oracle` on small weight subsets,
Wolfe's `min_norm_point` against a hull test), the benchmark's own exact
planar hull test, the orbit evaluated at a witness (`evaluate_point`), or
plain integer arithmetic on the spec file.  A check returns None when
the report is right and a message when it is not.
"""

from __future__ import annotations

import itertools
import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import gen

GRID = range(-2, 3)  # integer parameter grid for stable sweep verdicts


def _vec(lib, values):
    return lib.RationalVector([Fraction(v) for v in values])


def _family(family) -> list[list[int]]:
    return sorted(sorted(s) for s in family)


def _support(key: str) -> tuple[int, ...]:
    return tuple(int(i) for i in key.split(","))


def hull_position(points, q) -> str:
    """'interior', 'boundary' or 'outside' for q against conv(points) in the
    plane, by an exact monotone-chain hull of the translated points."""
    pts = sorted({(Fraction(x) - q[0], Fraction(y) - q[1]) for x, y in points})

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    if len(pts) == 1:
        return "boundary" if pts[0] == (0, 0) else "outside"
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    origin = (Fraction(0), Fraction(0))
    if len(hull) == 2:
        a, b = hull
        if cross(a, b, origin) != 0:
            return "outside"
        between = (a[0] * b[0] + a[1] * b[1]) <= 0
        return "boundary" if between else "outside"
    sides = [cross(hull[i], hull[(i + 1) % len(hull)], origin) for i in range(len(hull))]
    if any(s < 0 for s in sides):
        return "outside"
    return "boundary" if any(s == 0 for s in sides) else "interior"


class Checker:
    """Checks one round of reports.  `lib` holds the library's modules,
    imported after set-up, and the specs set-up loaded (`lib.specs`)."""

    def __init__(self, lib: SimpleNamespace):
        self.lib = lib
        self._raw: dict[str, dict] = {}
        self._betas: dict[str, set[tuple[str, ...]]] = {}

    def raw(self, path: str) -> dict:
        if path not in self._raw:
            with open(path, encoding="utf-8") as fh:
                self._raw[path] = json.load(fh)
        return self._raw[path]

    def factors(self, path: str):
        return [
            [tuple(int(v) for v in w) for w in f["weights"]]
            for f in self.raw(path)["factors"]
        ]

    def betas(self, path: str) -> set[tuple[str, ...]]:
        """The beta index set of a spec, from the oracle alone: a minimum-norm
        point of a subset's hull lies in the hull of at most rank + 1 of its
        points (Caratheodory), where it is again the minimum-norm point, so
        the subsets of that size give every beta."""
        if path not in self._betas:
            action = self.lib.specs[path].action
            twist = [Fraction(v) for v in self.raw(path).get("twist", [0] * action.rank)]
            weights = [
                _vec(self.lib, [w - t for w, t in zip(wt, twist)])
                for wt in gen.distinct_segre_weights(self.factors(path))
            ]
            found = set()
            for size in range(1, action.rank + 2):
                for subset in itertools.combinations(weights, size):
                    beta = self.lib.polytope.min_norm_point_oracle(
                        self.lib.PointSet(list(subset)), action.ip
                    )
                    found.add(tuple(str(v) for v in beta.entries))
            self._betas[path] = found
        return self._betas[path]

    def check_round(self, ops, reports) -> list[Optional[str]]:
        out: list[Optional[str]] = [None] * len(ops)
        for i, (op, report) in enumerate(zip(ops, reports)):
            try:
                out[i] = self.check(op, report)
            except Exception as exc:  # a malformed report is a failed op
                out[i] = f"{type(exc).__name__}: {exc}"
        return out

    def check(self, op, text: str) -> Optional[str]:
        if op.kind == "svg":
            return self.svg(op, text)
        if op.kind == "hull":
            return self.hull(op, text)
        report = json.loads(text)
        if report.get("command") != op.kind:
            return f"report is for {report.get('command')!r}"
        method = getattr(self, op.kind.replace("-", "_"))
        return method(op, report["result"])

    # -- chambers / strata -------------------------------------------------

    def chambers(self, op, result) -> Optional[str]:
        action = self.lib.specs[op.spec].action
        if not result["chambers"]:
            return "no chambers"
        for ch in result["chambers"]:
            fam = self.lib.vgit.git_class(action, _vec(self.lib, ch["sample"]))
            if _family(fam) != ch["family"]:
                return f"chamber at {ch['sample']}: family differs from git_class"
        return None

    def beta(self, op, result) -> Optional[str]:
        gram = self.raw(op.spec)["inner_product"]
        found = set()
        for entry in result["beta_set"]:
            b = [Fraction(v) for v in entry["beta"]]
            norm = sum(b[i] * gram[i][j] * b[j] for i in range(len(b)) for j in range(len(b)))
            if norm != Fraction(entry["norm_sq"]):
                return f"norm_sq of {entry['beta']} is {norm}"
            if (entry["lambda"] is None) != (norm == 0):
                return f"lambda presence wrong at {entry['beta']}"
            found.add(tuple(entry["beta"]))
        want = self.betas(op.spec)
        if found != want or len(found) != len(result["beta_set"]):
            return f"index set has {len(found)} betas, the oracle gives {len(want)}"
        return None

    def strata(self, op, result) -> Optional[str]:
        lib = self.lib
        if not result["ok"] or result["violations"]:
            return "stratification reports violations"
        action = self.lib.specs[op.spec].action
        supports = result["supports"]
        if len(supports) != action.support_count() or sum(
            result["stratum_sizes"].values()
        ) != len(supports):
            return "supports do not cover every valid support exactly once"
        index_set = self.betas(op.spec)
        for key, beta in supports.items():
            sp = lib.SupportPoint(_support(key))
            pts = lib.PointSet(action.segre_weights(sp, twisted=True))
            oracle = lib.polytope.min_norm_point_oracle(pts, action.ip)
            if [str(v) for v in oracle.entries] != beta:
                return f"support {key}: beta {beta} but oracle gives {oracle!r}"
            if tuple(beta) not in index_set:
                return f"support {key}: beta {beta} missing from the beta index set"
        return None

    def svg(self, op, text: str) -> Optional[str]:
        root = ET.fromstring(text)
        circles = [el.attrib for el in root.iter() if el.tag.endswith("circle")]
        dots = sum(1 for c in circles if c.get("r") == "4")
        rings = sum(1 for c in circles if c.get("stroke") == "#aa2288")
        if dots != len(gen.distinct_segre_weights(self.factors(op.spec))):
            return f"{dots} weight dots"
        index_set = self.betas(op.spec)
        if rings != len(index_set):
            return f"{rings} beta rings for {len(index_set)} betas"
        return None

    # -- queries -----------------------------------------------------------

    def stability(self, op, result) -> Optional[str]:
        lib = self.lib
        base = self.lib.specs[op.spec].action
        action = base.with_twist(_vec(lib, result["twist"]))
        if len(result["statuses"]) != action.support_count():
            return "not every valid support has a status"
        for key, status in result["statuses"].items():
            sp = lib.SupportPoint(_support(key))
            pts = lib.PointSet(action.segre_weights(sp, twisted=True))
            beta = lib.polytope.min_norm_point(pts, action.ip)
            if (status == "unstable") != (not beta.is_zero()):
                return f"support {key}: {status} but beta = {beta!r}"
        return None

    def adapted(self, op, result) -> Optional[str]:
        argv = dict(zip(op.argv[3::2], op.argv[4::2]))
        lam = [int(v) for v in argv["--lambda"].split(",")]
        twist = [Fraction(v) for v in argv.get("--twist", "0,0").split(",")]
        values = sorted(
            {sum(l * w for l, w in zip(lam, wt)) for wt in gen.segre_weights(self.factors(op.spec))}
        )
        lo, hi = Fraction(values[0]), Fraction(values[1])
        eps = Fraction(argv["--epsilon"]) if "--epsilon" in argv else (hi - lo) / 1000
        t = sum(l * x for l, x in zip(lam, twist))
        want = {
            "lambda": [str(v) for v in lam],
            "adapted_interval": [str(lo), str(hi)],
            "well_adapted_interval": [str(lo), str(lo + eps)],
            "epsilon": str(eps),
            "current_t": str(t),
            "current_adapted": lo < t < hi,
            "current_well_adapted": lo < t < lo + eps,
        }
        return None if result == want else f"adapted report {result} != {want}"

    def _group(self, op) -> dict:
        raw = self.raw(op.spec)
        if "--variant" in op.argv:
            return raw["variants"][op.argv[op.argv.index("--variant") + 1]]
        return raw["group"]

    def admissible_cone(self, op, result) -> Optional[str]:
        adjoint = [[str(v) for v in w] for w in self._group(op)["adjoint_weights"]]
        got = [h["normal"] for h in result["halfspaces"]]
        if got != adjoint or not all(h["strict"] for h in result["halfspaces"]):
            return f"halfspaces {result['halfspaces']} for adjoint weights {adjoint}"
        return None if result["full_space"] == (not adjoint) else "full_space flag wrong"

    def fan(self, op, result) -> Optional[str]:
        adjoint = self._group(op)["adjoint_weights"]
        factors = self.factors(op.spec)
        chambers = 0
        for piece in result["pieces"]:
            lam = [int(v) for v in piece["sample"]]
            if any(sum(l * u for l, u in zip(lam, w)) <= 0 for w in adjoint):
                return f"piece sample {lam} is not admissible"
            support, offset = [], 0
            for weights in factors:
                vals = [sum(l * x for l, x in zip(lam, w)) for w in weights]
                support += [offset + i for i, v in enumerate(vals) if v == min(vals)]
                offset += len(weights)
            if sorted(support) != piece["min_support"]:
                return f"piece {lam}: min_support {piece['min_support']} != {support}"
            chambers += piece["kind"] == "chamber"
        return None if result["universal"] == (chambers == 1) else "universal flag wrong"

    def external_equiv(self, op, result) -> Optional[str]:
        """The single-extension families, by the own hull test; the double
        extension is rank 3, so its two checks are read from the report."""
        action = self.lib.specs[op.spec].action
        external = self.raw(op.spec)["external"]
        for key in ("lambda", "mu"):
            ext = self.lib.action.build_external_extension(
                action, external[f"m_{key}"], external["N"]
            )
            twist = ext.twist.entries
            family = sorted(
                sp.sorted()
                for sp in ext.iter_supports()
                if hull_position([tuple(w.entries) for w in ext.segre_weights(sp)], twist)
                != "outside"
            )
            if result[f"single_{key}_family"] != family:
                return f"single {key} family differs from the hull test"
        if result["passed"] and result["lambda_check"] and result["mu_check"]:
            return None
        return "change of grading is not a change of linearisation"

    def hull(self, op, text: str) -> Optional[str]:
        action = self.lib.specs[op.spec].action
        for (support, twist), got in zip(op.data, json.loads(text)):
            sp = self.lib.SupportPoint(support)
            pts = [tuple(w.entries) for w in action.segre_weights(sp)]
            want = hull_position(pts, twist)
            if got != want:
                return f"support {support} at {twist}: {got} != {want}"
        return None

    # -- sweeps ------------------------------------------------------------

    def _orbit(self, op):
        spec = self.lib.specs[op.spec]
        name = op.argv[op.argv.index("--point") + 1]
        return spec, self.lib.action.orbit_point(spec.points[name], spec.group)

    def _nonzero(self, orbit, b, c) -> list[list[bool]]:
        point = self.lib.action.evaluate_point(orbit, b, c)
        return [[v != 0 for v in block] for block in point.coords]

    def usweep(self, op, result) -> Optional[str]:
        spec, orbit = self._orbit(op)
        lam = [int(v) for v in op.argv[op.argv.index("--lambda") + 1].split(",")]
        argmin = []
        for weights in self.factors(op.spec):
            vals = [sum(l * x for l, x in zip(lam, w)) for w in weights]
            argmin.append([v == min(vals) for v in vals])

        def destabilised(nonzero) -> bool:
            # a factor whose minimal coordinates all vanish, or no nonzero
            # coordinate outside the minimal weight space
            if any(not any(n and m for n, m in zip(nz, am)) for nz, am in zip(nonzero, argmin)):
                return True
            return not any(n and not m for nz, am in zip(nonzero, argmin) for n, m in zip(nz, am))

        if result["status"] == "unstable" and result["witness"] is not None:
            b, c = (Fraction(v) for v in result["witness"])
            if not destabilised(self._nonzero(orbit, b, c)):
                return f"witness {result['witness']} does not destabilise"
        if result["status"] == "stable":
            for b, c in itertools.product(GRID, GRID):
                if destabilised(self._nonzero(orbit, b, c)):
                    return f"stable, but ({b}, {c}) destabilises"
        return None

    def hstable(self, op, result) -> Optional[str]:
        spec, orbit = self._orbit(op)
        factors = self.factors(op.spec)
        twist = [Fraction(v) for v in self.raw(op.spec).get("twist", ["0", "0"])]

        def torus_stable(nonzero) -> bool:
            chosen = [
                [w for w, n in zip(weights, nz) if n] for weights, nz in zip(factors, nonzero)
            ]
            return hull_position(gen.segre_weights(chosen), twist) == "interior"

        # the report names no witness, so only a stable verdict is checked
        if result["status"] == "stable":
            for b, c in itertools.product(GRID, GRID):
                if not torus_stable(self._nonzero(orbit, b, c)):
                    return f"stable, but ({b}, {c}) gives a non-stable support"
        return None
