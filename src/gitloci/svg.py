"""Static SVG weight diagrams for rank-2 actions.

Rendering converts exact rationals to 6-digit decimal strings by integer
scaling only; nothing computed here feeds back into any predicate (this
module is imported by the CLI alone).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .action import TorusAction
from .polytope import Cone, convex_hull_2d_int
from .qpoly import RationalVector
from .stability import RankUnsupported

_VIEW = 600
_MARGIN = 60


def _decimal(q: Fraction) -> str:
    scaled = q * 10**6
    n = scaled.numerator // scaled.denominator  # floor; inputs are bounded
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10**6)
    return f"{sign}{whole}.{frac:06d}"


class _Mapper:
    """Plane points (integer tuples or rational vectors) to viewport
    coordinates."""

    def __init__(self, points: Sequence[Sequence[int]]):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        self.xmin, self.xmax = min(xs + [Fraction(0)]), max(xs + [Fraction(0)])
        self.ymin, self.ymax = min(ys + [Fraction(0)]), max(ys + [Fraction(0)])
        span = max(self.xmax - self.xmin, self.ymax - self.ymin, Fraction(1))
        self.scale = Fraction(_VIEW - 2 * _MARGIN) / span

    def map(self, p: Sequence[Fraction | int]) -> tuple[str, str]:
        x = _MARGIN + (p[0] - self.xmin) * self.scale
        y = _VIEW - _MARGIN - (p[1] - self.ymin) * self.scale
        return _decimal(x), _decimal(y)


def svg_weight_diagram(
    a: TorusAction,
    *,
    cone: Optional[Cone] = None,
    betas: Optional[Sequence[RationalVector]] = None,
) -> str:
    """Weights as labelled dots with the hull outline and optional overlays.

    Deterministic output: fixed viewport, sorted element order, decimal
    coordinates derived by exact integer scaling.
    """
    if a.rank != 2:
        raise RankUnsupported("weight diagrams are drawn for rank 2 only")
    weights = a.support_weights()  # distinct and sorted
    # an integral Fraction tuple hashes and compares as its int tuple
    multiplicity = Counter(w.entries for w in a.segre_weights())
    mapper = _Mapper(weights)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" height="{_VIEW}" '
        f'viewBox="0 0 {_VIEW} {_VIEW}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    hull = convex_hull_2d_int(weights)
    if len(hull) >= 2:
        pts = " ".join(",".join(mapper.map(v)) for v in hull)
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="#444" stroke-width="1.5"/>'
        )

    if cone is not None and not cone.is_full_space:
        for normal, strict in cone.halfspaces:
            d = RationalVector([-normal.entries[1], normal.entries[0]])
            for sign in (1, -1):
                end = d.scale(sign * 10)
                x1, y1 = mapper.map(RationalVector.zero(2))
                x2, y2 = mapper.map(end)
                dash = ' stroke-dasharray="6 3"' if strict else ""
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="#3366cc" stroke-width="1"{dash}/>'
                )

    for w in weights:
        x, y = mapper.map(w)
        mult = multiplicity[w]
        parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#222"/>')
        label = f"({w[0]},{w[1]})"
        if mult > 1:
            label += f" x{mult}"
        parts.append(
            f'<text x="{x}" y="{y}" dx="6" dy="-6" font-size="11" '
            f'fill="#222">{label}</text>'
        )

    if betas:
        for beta in sorted(betas, key=lambda v: v.entries):
            x, y = mapper.map(beta)
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="3" fill="none" '
                f'stroke="#aa2288" stroke-width="1.5"/>'
            )

    ox, oy = mapper.map(RationalVector.zero(2))
    parts.append(
        f'<circle cx="{ox}" cy="{oy}" r="2.5" fill="#cc0000"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
