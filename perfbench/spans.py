"""Spans around calls into gitloci's public functions, from outside the
package.

`Tracer.install` rebinds every module attribute that holds a traced
function: the defining module and every gitloci module that imported it by
name, so that ``solve_lp`` is traced whether `linprog` or `polytope` calls
it.  `Tracer.uninstall` restores the originals.  Spans are kept in memory
as tuples (name, start, end, parent, op, self, size) and written out by
`Tracer.dump`; times are `hostspeed.CLOCK.net` seconds, and self time is
the span's duration minus the time its direct child spans cover (calls are
strictly nested in one thread).

Rational arithmetic is not traced: it runs millions of calls and its cost
stays in the self time of the layer that calls it.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Callable, Optional

from hostspeed import CLOCK

# Public functions whose calls become spans, by defining module.  `size`
# records one number per span: the input or output size an optimisation of
# that function would change.
SPANNED = {
    "cli": ("run", "load_spec"),
    "action": (
        "build_product_action",
        "orbit_point",
        "evaluate_point",
        "build_external_extension",
        "build_double_extension",
    ),
    "vgit": (
        "wall_chamber_decomposition",
        "git_class",
        "effective_cone",
        "verify_external_change",
    ),
    "strata": ("beta_index_set", "verify_stratification"),
    "stability": (
        "torus_status",
        "admissible_cone",
        "adapted_region",
        "cocharacter_fan",
        "universal_1ps",
        "uhat_stable_explicit",
        "h_stable_explicit",
        "achievable_supports",
        "stab_u_dimension",
        "destabilising_beta",
    ),
    "polytope": (
        "hull_membership",
        "min_norm_point",
        "min_norm_point_oracle",
        "chamber_decomposition_2d",
        "convex_hull_2d",
        "cone_has_interior_point",
        "region_interior_point",
    ),
    "linprog": ("solve_lp", "lp_feasible", "lp_maximize_free"),
    "qpoly": (
        "analyze_common_zeros",
        "common_zero_exists",
        "common_zero_avoiding",
        "resultant",
        "gcd_univariate",
        "rational_roots",
    ),
    "svg": ("svg_weight_diagram",),
}

# Methods of action.TorusAction that are only counted: they are cheap,
# cached or generators, and run too often for a span to be worth its cost.
COUNTED_METHODS = ("segre_weights", "iter_supports")


def _size_of(qualname: str) -> Optional[Callable]:
    if qualname == "polytope.chamber_decomposition_2d":
        return lambda args, result: (len(args[0].lines), len(result.faces))
    if qualname == "strata.beta_index_set":
        return lambda args, result: len(result)
    if qualname in ("qpoly.common_zero_exists", "qpoly.common_zero_avoiding"):
        return lambda args, result: int(result.status.value == "undecided")
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        size = _size_of(name)
        spans, stack, clock = self.spans, self._stack, CLOCK.net

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]  # span index, time covered by children
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                measured = size(args, result) if size and result is not None else None
                own = end - start - frame[1]
                spans[index] = (name, start, end, parent, self.op, own, measured)

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "gitloci" or name.startswith("gitloci."))
        }
        for layer, names in SPANNED.items():
            home = modules[f"gitloci.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cls = modules["gitloci.action"].TorusAction
        for mname in COUNTED_METHODS:
            original = cls.__dict__[mname]
            self._saved.append((cls, mname, original))
            setattr(cls, mname, self._count(f"action.{mname}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write one JSON array per span: name, start, end, parent index,
        op id, self seconds, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
