"""Command-line entry point: load JSON action specs, dispatch computations,
emit deterministic JSON reports (sorted keys, canonical rationals) or SVG
weight diagrams.

Exit codes: 0 success, 2 an argument or validation error, 3 an Undecided
result under --strict.  Undecided is otherwise a first-class result, not an
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from .action import (
    ExplicitPoint,
    GroupSpec,
    InvalidSupport,
    SupportPoint,
    TorusAction,
)
from .qpoly import BiPoly, InnerProduct, RationalVector, parse_rational
from .stability import (
    OneParamSubgroup,
    SweepStatus,
    SweepVerdict,
    TORUS_STATUS,
    adapted_region,
    admissible_cone,
    cocharacter_fan,
    h_stable_explicit,
    stab_u_dimension,
    support_positions,
    torus_status,
    uhat_stable_explicit,
)
from .strata import beta_index_set, verify_stratification
from .svg import svg_weight_diagram
from .vgit import masked, verify_external_change, wall_chamber_decomposition


class SpecError(ValueError):
    """Input validation failure; the message names the offending field."""


@dataclass
class LoadedSpec:
    action: TorusAction
    group: Optional[GroupSpec]
    variants: dict[str, GroupSpec]
    points: dict[str, ExplicitPoint | SupportPoint]
    external: Optional[dict[str, Any]]
    name: str


def _require(data: dict, key: str, context: str) -> Any:
    if key not in data:
        raise SpecError(f"{context}: missing required field {key!r}")
    return data[key]


def _object(value: Any, context: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{context}: expected a JSON object")
    return value


def _list(value: Any, context: str) -> list:
    if not isinstance(value, list):
        raise SpecError(f"{context}: expected a JSON list")
    return value


def _integer(value: Any, context: str) -> int:
    if type(value) is not int:  # a JSON bool is an int to Python
        raise SpecError(f"{context}: expected an integer, got {value!r}")
    return value


def _rational(value: Any, context: str) -> Fraction:
    try:
        if isinstance(value, str):
            return parse_rational(value)
        if type(value) is int:  # a JSON bool is an int to Python
            return Fraction(value)
    except ValueError:
        pass
    raise SpecError(f"{context}: expected a rational literal, got {value!r}")


def _entries(value: Any, rank: int, context: str) -> list[Fraction]:
    if not isinstance(value, list) or len(value) != rank:
        raise SpecError(f"{context}: expected a list of {rank} rationals")
    return [_rational(v, context) for v in value]


def _vector(value: Any, rank: int, context: str) -> RationalVector:
    return RationalVector(_entries(value, rank, context))


def load_spec(path: str) -> LoadedSpec:
    """Validate an action-spec JSON file into the in-memory model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("top level: expected a JSON object")

    rank = _integer(_require(data, "rank", "top level"), "rank")
    if rank < 1:
        raise SpecError("rank: must be a positive integer")
    gram = []
    form = _list(_require(data, "inner_product", "top level"), "inner_product")
    for i, row in enumerate(form):
        ctx = f"inner_product[{i}]"
        gram.append([_integer(v, f"{ctx}[{j}]") for j, v in enumerate(_list(row, ctx))])
    try:
        ip = InnerProduct(gram)
    except ValueError as exc:
        raise SpecError(f"inner_product: {exc}") from exc
    if ip.rank != rank:
        raise SpecError(f"inner_product: a form of rank {ip.rank}, not {rank}")

    # the product action, built once from every factor's weights
    factors_data = _require(data, "factors", "top level")
    if not isinstance(factors_data, list) or not factors_data:
        raise SpecError("factors: expected a nonempty list")
    weights: list[tuple[int, ...]] = []
    partition = []
    for fi, fdata in enumerate(factors_data):
        ctx = f"factors[{fi}]"
        wts = _require(_object(fdata, ctx), "weights", ctx)
        if not isinstance(wts, list) or not wts:
            raise SpecError(f"{ctx}.weights: expected a nonempty list")
        start = len(weights)
        for wi, w in enumerate(wts):
            entries = _entries(w, rank, f"{ctx}.weights[{wi}]")
            if any(q.denominator != 1 for q in entries):
                raise SpecError(f"{ctx}.weights[{wi}]: weights must be integral")
            weights.append(tuple(q.numerator for q in entries))
        partition.append(range(start, len(weights)))
    twist = _vector(data["twist"], rank, "twist") if "twist" in data else None
    action = TorusAction(rank, weights, ip, twist, partition)

    group = None
    if "group" in data:
        group = _load_group(data["group"], action, rank, "group")
    variants = {}
    vblock = data.get("variants")
    for vname, vdata in _object({} if vblock is None else vblock, "variants").items():
        variants[vname] = _load_group(vdata, action, rank, f"variants.{vname}")

    points: dict[str, ExplicitPoint | SupportPoint] = {}
    pblock = data.get("points")
    for pname, pdata in _object({} if pblock is None else pblock, "points").items():
        ctx = f"points.{pname}"
        if "support" in _object(pdata, ctx):
            blocks = pdata["support"]
            if not isinstance(blocks, list) or len(blocks) != len(
                action.factor_partition
            ):
                raise SpecError(f"{ctx}.support: one index list per factor required")
            idx = []
            for bi, (blk, local) in enumerate(zip(action.factor_partition, blocks)):
                for i in _list(local, f"{ctx}.support[{bi}]"):
                    if not 0 <= _integer(i, f"{ctx}.support[{bi}]") < len(blk):
                        raise SpecError(f"{ctx}.support: index {i} out of range")
                    idx.append(blk[i])
            sp = SupportPoint(idx)
            try:
                action.validate_support(sp)
            except ValueError as exc:
                raise SpecError(f"{ctx}.support: {exc}") from exc
            points[pname] = sp
        elif "coords" in pdata:
            blocks = pdata["coords"]
            if not isinstance(blocks, list) or len(blocks) != len(
                action.factor_partition
            ):
                raise SpecError(f"{ctx}.coords: one list per factor required")
            coords = []
            for bi, blk in enumerate(blocks):
                bctx = f"{ctx}.coords[{bi}]"
                coords.append([_rational(v, bctx) for v in _list(blk, bctx)])
            try:
                points[pname] = ExplicitPoint(coords)
            except InvalidSupport as exc:
                raise SpecError(f"{ctx}.coords: {exc}") from exc
        else:
            raise SpecError(f"{ctx}: needs either 'support' or 'coords'")

    external = data.get("external")
    if external is not None:
        for key in ("m_lambda", "m_mu", "N"):
            _require(_object(external, "external"), key, "external")
        for key in ("m_lambda", "m_mu"):
            for i, v in enumerate(_list(external[key], f"external.{key}")):
                _integer(v, f"external.{key}[{i}]")
        _integer(external["N"], "external.N")

    name = data.get("name", "action")
    if not isinstance(name, str):
        raise SpecError("name: expected a string")
    return LoadedSpec(action, group, variants, points, external, name)


def _load_group(
    gdata: dict, action: TorusAction, rank: int, ctx: str
) -> GroupSpec:
    _object(gdata, ctx)
    aw = []
    for wi, w in enumerate(
        _list(gdata.get("adjoint_weights", []), f"{ctx}.adjoint_weights")
    ):
        aw.append(_vector(w, rank, f"{ctx}.adjoint_weights[{wi}]"))
    u_params = _integer(gdata.get("u_params", 0), f"{ctx}.u_params")
    mats_data = _list(gdata.get("u_matrices", []), f"{ctx}.u_matrices")
    if mats_data and len(mats_data) != len(action.factor_partition):
        raise SpecError(f"{ctx}.u_matrices: one matrix per factor required")
    mats = []
    for mi, mat in enumerate(mats_data):
        rows = []
        for ri, row in enumerate(_list(mat, f"{ctx}.u_matrices[{mi}]")):
            entries = []
            for ci, cell in enumerate(_list(row, f"{ctx}.u_matrices[{mi}][{ri}]")):
                try:
                    entries.append(BiPoly.parse(str(cell)))
                except ValueError as exc:
                    raise SpecError(
                        f"{ctx}.u_matrices[{mi}][{ri}][{ci}]: {exc}"
                    ) from exc
            rows.append(entries)
        mats.append(rows)
    try:
        return GroupSpec(aw, u_params, mats)
    except ValueError as exc:
        raise SpecError(f"{ctx}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON rendering (canonical: rationals as strings, sorted keys).
# `_render` is the one report writer: the join of its pieces is, byte for
# byte, json.dumps(value, sort_keys=True, indent=2), built by hand, as
# `indent` makes json leave its C encoder for a pure-Python one.
# ---------------------------------------------------------------------------


_escape = json.encoder.encode_basestring_ascii
_CHUNK = 1 << 20  # characters joined into one write


def _flat(items, indent: str) -> str:
    """A nonempty list of rendered scalars whose lines break at `indent`."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


class _Memo(dict):
    """A dict that fills in a missing key with `make(key)`."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _MaskTexts:
    """The texts of one complex's support families, by bitmask.

    Bit i is the support `rows[i]`, its sorted indices, and the rows
    ascend, so a family's text is the join of its set bits' texts in bit
    order, with no sort.  Each support's text is built once per indent, on
    the first family written there, and each family's once per (mask,
    indent).
    """

    def __init__(self, rows: Sequence[tuple[int, ...]]) -> None:
        self._rows = _Memo(lambda indent: [_flat(map(str, r), indent) for r in rows])
        self._texts: dict[tuple[int, str], str] = {}

    def __call__(self, mask: int) -> "_MaskFamily":
        return _MaskFamily(mask, self)

    def text(self, mask: int, indent: str) -> str:
        """The text of a family whose lines break at `indent`."""
        text = self._texts.get((mask, indent))
        if text is None:
            rows = self._rows[indent + "  "]
            text = _flat(masked(rows, mask), indent) if mask else "[]"
            self._texts[mask, indent] = text
        return text


class _MaskFamily:
    """A report value: a support family as its bitmask over `texts`."""

    __slots__ = ("mask", "texts")

    def __init__(self, mask: int, texts: _MaskTexts) -> None:
        self.mask = mask
        self.texts = texts


class _Writer:
    """The text pieces of one report, appended to one list so that no text
    is copied again at each nesting level.

    A support family comes as a `_MaskFamily` and is written as the sorted
    list of its sorted supports, with its text from its `_MaskTexts`.
    """

    def __init__(self) -> None:
        self.pieces: list[str] = []

    def emit(self, value: Any, indent: str, head: str = "") -> None:
        """Append `head` and then the text of a report value whose lines
        break at `indent`: dicts with string keys, lists (or tuples),
        support families as masks, strings, ints, bools and None.  A key
        and its value's first text are one piece, unless the value is a
        family, whose text is shared."""
        if type(value) is str:  # most leaves
            self.pieces.append(head + _escape(value))
            return
        put = self.pieces.append
        if type(value) is _MaskFamily:
            put(head)  # a piece of its own: the family's text is shared
            put(value.texts.text(value.mask, indent))
        elif isinstance(value, dict):
            if not value:
                put(head + "{}")
                return
            inner = indent + "  "
            sep = head + "{" + inner
            for k in sorted(value):
                self.emit(value[k], inner, sep + _escape(k) + ": ")
                sep = "," + inner
            put(indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put(head + "[]")
                return
            kinds = set(map(type, value))
            if kinds == {str}:
                put(head + _flat(map(_escape, value), indent))
            elif kinds == {int}:  # exactly int: a bool is rendered on its own
                put(head + _flat(map(int.__repr__, value), indent))
            else:
                inner = indent + "  "
                sep = head + "[" + inner
                for v in value:
                    self.emit(v, inner, sep)
                    sep = "," + inner
                put(indent + "]")
        else:
            put(head + _scalar(value))


def _scalar(value: Any) -> str:
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(value: Any) -> list[str]:
    """The text pieces of a report value; see `_Writer.emit`."""
    writer = _Writer()
    writer.emit(value, "\n")
    return writer.pieces


def _write(pieces: list[str], fh) -> None:
    """Write text pieces in joins of at least `_CHUNK` characters but the
    last: one join and one write for a small report."""
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            fh.write("".join(chunk))
            chunk, size = [], 0
    if chunk:
        fh.write("".join(chunk))


def _jvec(v: RationalVector) -> list[str]:
    return list(map(str, v.entries))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _group_for(spec: LoadedSpec, args) -> GroupSpec:
    if args.variant:
        if args.variant not in spec.variants:
            raise SpecError(f"variant {args.variant!r} not present in the input")
        return spec.variants[args.variant]
    if spec.group is None:
        raise SpecError("this command needs a 'group' block in the input")
    return spec.group


def _point_for(spec: LoadedSpec, args) -> tuple[str, ExplicitPoint | SupportPoint]:
    name = args.point
    if not name:
        raise SpecError("this command needs --point NAME")
    if name not in spec.points:
        raise SpecError(f"point {name!r} not present in the input")
    return name, spec.points[name]


def _twist_for(spec: LoadedSpec, args) -> TorusAction:
    action = spec.action
    if args.twist:
        parts = [p.strip() for p in args.twist.split(",")]
        if len(parts) != action.rank:
            raise SpecError(f"--twist needs {action.rank} comma-separated rationals")
        action = action.with_twist(
            RationalVector([_flag_rational(p, "--twist") for p in parts])
        )
    return action


def _flag_rational(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise SpecError(f"{flag}: {exc}") from exc


def _lambda_for(args, rank: int) -> OneParamSubgroup:
    if not args.lam:
        raise SpecError("this command needs --lambda \"a,b\"")
    parts = [p.strip() for p in args.lam.split(",")]
    if len(parts) != rank:
        raise SpecError(f"--lambda needs {rank} comma-separated integers")
    try:
        return OneParamSubgroup([int(p) for p in parts])
    except ValueError as exc:
        raise SpecError(f"--lambda: {exc}") from exc


def _cmd_stability(spec: LoadedSpec, args) -> dict:
    action = _twist_for(spec, args)
    results = {}
    if args.point == "all" and "all" not in spec.points:
        text = {pos: status.value for pos, status in TORUS_STATUS.items()}
        for support, pos in support_positions(
            action, action.twist, relative=args.relative_interior
        ):
            results[",".join(map(str, sorted(support)))] = text[pos]
    else:
        name, pt = _point_for(spec, args)
        sp = pt if isinstance(pt, SupportPoint) else pt.support(action)
        results[name] = torus_status(
            action, sp, relative_interior=args.relative_interior
        ).value
    return {"statuses": results, "twist": _jvec(action.twist)}


def _cmd_beta(spec: LoadedSpec, args) -> dict:
    action = _twist_for(spec, args)
    out = []
    for bi in beta_index_set(action):
        out.append(
            {
                "beta": _jvec(bi.beta),
                "norm_sq": str(bi.norm_sq),
                "lambda": (
                    list(map(str, bi.lambda_beta.cochar))
                    if bi.lambda_beta
                    else None
                ),
            }
        )
    return {"beta_set": out}


def _cmd_chambers(spec: LoadedSpec, args) -> dict:
    action = spec.action
    cc = wall_chamber_decomposition(action)
    family = _MaskTexts(cc.labels.rows)
    if cc.rank == 1:
        walls = [
            {
                "at": str(w.cells[0].sample.entries[0]),
                "family": family(w.cells[0].mask),
            }
            for w in cc.walls
        ]
        chambers = [
            {
                "interval": [str(ch.interval[0]), str(ch.interval[1])],
                "sample": _jvec(ch.sample),
                "family": family(ch.mask),
            }
            for ch in cc.chambers
        ]
        return {"rank": 1, "walls": walls, "chambers": chambers}
    walls = []
    for w in cc.walls:
        walls.append(
            {
                "line": {
                    "normal": [str(w.line.a), str(w.line.b)],
                    "offset": str(w.line.c),
                },
                "cells": [
                    {
                        "sample": _jvec(cell.sample),
                        "family": family(cell.mask),
                        "signs": list(cell.signs),
                    }
                    for cell in w.cells
                ],
            }
        )
    chambers = [
        {
            "sample": _jvec(ch.sample),
            "family": family(ch.mask),
            "signs": list(ch.signs),
        }
        for ch in cc.chambers
    ]
    vertices = [
        {"point": _jvec(v.point), "family": family(v.mask)}
        for v in cc.vertices
    ]
    return {
        "rank": 2,
        "walls": walls,
        "chambers": chambers,
        "vertices": vertices,
        "effective_vertices": [list(map(str, v)) for v in cc.effective.vertices],
    }


def _cmd_strata(spec: LoadedSpec, args) -> dict:
    action = _twist_for(spec, args)
    rep = verify_stratification(action)
    # each beta rendered once: the report shares one entries tuple among a
    # beta's supports, so its identity keys the text (hashing the Fractions
    # would cost more than rendering them)
    text: dict[int, list[str]] = {}
    supports = {}
    for s, beta in rep.support_beta.items():
        if id(beta) not in text:
            text[id(beta)] = [str(v) for v in beta]
        supports[",".join(str(i) for i in sorted(s))] = text[id(beta)]
    return {
        "betas": [
            {"beta": _jvec(b.beta), "norm_sq": str(b.norm_sq)} for b in rep.betas
        ],
        "stratum_sizes": {
            ",".join(str(v) for v in key): size
            for key, size in sorted(rep.stratum_sizes.items())
        },
        "supports": supports,
        "violations": list(rep.violations),
        "ok": rep.ok,
    }


def _cmd_admissible_cone(spec: LoadedSpec, args) -> dict:
    g = _group_for(spec, args)
    cone = admissible_cone(g, spec.action.rank)
    return {
        "halfspaces": [
            {"normal": _jvec(n), "strict": strict} for n, strict in cone.halfspaces
        ],
        "full_space": cone.is_full_space,
    }


def _cmd_adapted(spec: LoadedSpec, args) -> dict:
    action = _twist_for(spec, args)
    lam = _lambda_for(args, action.rank)
    eps = _flag_rational(args.epsilon, "--epsilon") if args.epsilon else None
    region = adapted_region(action, lam, eps)
    t = lam.pairing(action.twist)
    return {
        "lambda": list(map(str, lam.cochar)),
        "adapted_interval": [str(region.lower), str(region.upper)],
        "well_adapted_interval": [str(v) for v in region.well_adapted_interval()],
        "epsilon": str(region.epsilon),
        "current_t": str(t),
        "current_adapted": region.is_adapted(t),
        "current_well_adapted": region.is_well_adapted(t),
    }


def _cmd_fan(spec: LoadedSpec, args) -> dict:
    g = _group_for(spec, args)
    cone = admissible_cone(g, spec.action.rank)
    fan = cocharacter_fan(spec.action, cone)
    pieces = []
    for p in fan.pieces:
        pieces.append(
            {
                "kind": p.face.kind,
                "sample": list(map(str, p.sample.cochar)),
                "min_support": sorted(p.min_support),
            }
        )
    return {"universal": fan.is_universal, "pieces": pieces}


def _jverdict(name: str, verdict: SweepVerdict) -> dict:
    """A sweep verdict on a named point: its status and the orbit parameters
    (b, c) that decide it, or null."""
    return {
        "point": name,
        "status": verdict.status.value,
        "witness": [str(v) for v in verdict.witness] if verdict.witness else None,
    }


def _cmd_usweep(spec: LoadedSpec, args) -> dict:
    g = _group_for(spec, args)
    lam = _lambda_for(args, spec.action.rank)
    name, pt = _point_for(spec, args)
    if isinstance(pt, SupportPoint):
        raise SpecError("usweep needs an explicit-coordinates point")
    return _jverdict(name, uhat_stable_explicit(pt, spec.action, g, lam))


def _cmd_hstable(spec: LoadedSpec, args) -> dict:
    action = _twist_for(spec, args)
    g = _group_for(spec, args)
    name, pt = _point_for(spec, args)
    if isinstance(pt, SupportPoint):
        raise SpecError("hstable needs an explicit-coordinates point")
    out = _jverdict(name, h_stable_explicit(pt, action, g))
    out["stab_u_dimension"] = stab_u_dimension(pt, g).value
    return out


def _cmd_external_equiv(spec: LoadedSpec, args) -> dict:
    if spec.external is None:
        raise SpecError("this command needs an 'external' block in the input")
    eps = (
        _flag_rational(args.epsilon, "--epsilon")
        if args.epsilon
        else _rational(spec.external.get("epsilon", "1/2"), "external.epsilon")
    )
    rep = verify_external_change(
        _twist_for(spec, args),
        spec.external["m_lambda"],
        spec.external["m_mu"],
        spec.external["N"],
        eps,
    )
    return {
        "lambda_check": rep.lambda_check,
        "mu_check": rep.mu_check,
        "passed": rep.passed,
        "single_lambda_family": sorted(map(sorted, rep.single_lambda_family)),
        "single_mu_family": sorted(map(sorted, rep.single_mu_family)),
    }


def _cmd_svg(spec: LoadedSpec, args) -> str:
    action = _twist_for(spec, args)
    cone = None
    if spec.group is not None:
        cone = admissible_cone(spec.group, action.rank)
    betas = None
    if action.rank == 2:
        betas = [b.beta for b in beta_index_set(action)]
    return svg_weight_diagram(action, cone=cone, betas=betas)


_COMMANDS = {
    "stability": _cmd_stability,
    "beta": _cmd_beta,
    "chambers": _cmd_chambers,
    "strata": _cmd_strata,
    "admissible-cone": _cmd_admissible_cone,
    "adapted": _cmd_adapted,
    "fan": _cmd_fan,
    "usweep": _cmd_usweep,
    "hstable": _cmd_hstable,
    "external-equiv": _cmd_external_equiv,
}


# Every command takes every flag; value-taking flags are those without an
# argparse action.
_FLAGS = {
    "--input": {"required": True, "help": "action spec JSON file"},
    "--output": {"help": "output file (default stdout)"},
    "--epsilon": {"help": "rational epsilon"},
    "--twist": {"help": 'character twist "q1,q2"'},
    "--point": {"help": "named point, or 'all'"},
    "--lambda": {"dest": "lam", "help": 'cocharacter "a,b"'},
    "--variant": {"help": "named group variant"},
    "--strict": {"action": "store_true", "help": "exit 3 on Undecided"},
    "--relative-interior": {
        "action": "store_true",
        "help": "read stability as relative-interior membership",
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gitloci",
        description="Exact stability loci, chambers and stratifications for linearised torus actions.",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "svg"])
    for flag, options in _FLAGS.items():
        parser.add_argument(flag, **options)
    return parser


_PARSER = _build_parser()


def _glue_flag_values(argv: Sequence[str]) -> list[str]:
    """Join value-taking flags with their argument so that values beginning
    with a minus sign (negative rationals) survive argparse."""
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in _FLAGS and "action" not in _FLAGS[tok]:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def run(argv: Sequence[str]) -> int:
    args = _PARSER.parse_args(_glue_flag_values(argv))
    undecided = False
    try:
        spec = load_spec(args.input)
        if args.command == "svg":
            pieces = [_cmd_svg(spec, args)]
        else:
            payload = _COMMANDS[args.command](spec, args)
            report = {"command": args.command, "input": spec.name, "result": payload}
            pieces = _render(report)
            pieces.append("\n")
            # only the verdicts count: a point's name may read "undecided"
            undecided = args.strict and SweepStatus.UNDECIDED.value in (
                payload.get("status"),
                payload.get("stab_u_dimension"),
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        _write(pieces, sys.stdout)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write(pieces, fh)
        except OSError as exc:
            print(f"error: cannot write output file: {exc}", file=sys.stderr)
            return 2
    return 3 if undecided else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
