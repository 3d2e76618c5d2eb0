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
    SupportPoint,
    TorusAction,
    build_product_action,
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
from .vgit import verify_external_change, wall_chamber_decomposition


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


def _vector(value: Any, rank: int, context: str) -> RationalVector:
    if not isinstance(value, list) or len(value) != rank:
        raise SpecError(f"{context}: expected a list of {rank} rationals")
    return RationalVector([_rational(v, context) for v in value])


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

    factors_data = _require(data, "factors", "top level")
    if not isinstance(factors_data, list) or not factors_data:
        raise SpecError("factors: expected a nonempty list")
    factor_actions = []
    for fi, fdata in enumerate(factors_data):
        ctx = f"factors[{fi}]"
        wts = _require(_object(fdata, ctx), "weights", ctx)
        if not isinstance(wts, list) or not wts:
            raise SpecError(f"{ctx}.weights: expected a nonempty list")
        weights = []
        for wi, w in enumerate(wts):
            vec = _vector(w, rank, f"{ctx}.weights[{wi}]")
            if not vec.is_integral():
                raise SpecError(f"{ctx}.weights[{wi}]: weights must be integral")
            weights.append(vec)
        factor_actions.append(TorusAction(rank, weights, ip))
    action = build_product_action(factor_actions)
    if "twist" in data:
        action = action.with_twist(_vector(data["twist"], rank, "twist"))

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
            try:
                points[pname] = ExplicitPoint(
                    [
                        [_rational(v, ctx) for v in _list(blk, f"{ctx}.coords[{bi}]")]
                        for bi, blk in enumerate(blocks)
                    ]
                )
            except ValueError as exc:
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
# JSON rendering helpers (canonical: rationals as strings, sorted keys).
# `_render` is the one report writer: its text is, byte for byte,
# json.dumps(value, sort_keys=True, indent=2), built by string joins, as
# `indent` makes json leave its C encoder for a pure-Python one.
# ---------------------------------------------------------------------------


_escape = json.encoder.encode_basestring_ascii


def _render(value: Any, indent: str = "\n") -> str:
    """JSON text of a report value whose lines break at `indent`: dicts with
    string keys, lists (or tuples), strings, ints, bools and None.

    A container's text is one join of its punctuation and its children's
    texts, so a large child is copied once, not again by concatenation.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for k in sorted(value):
            parts += (",", inner, _escape(k), ": ", _render(value[k], inner))
        parts[0] = "{"  # the first item's comma opens the object
        parts.append(indent + "}")
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(_escape, value)
        elif kinds == {int}:  # exactly int: a bool is rendered on its own
            items = map(int.__repr__, value)
        else:
            parts = []
            for v in value:
                parts += (",", inner, _render(v, inner))
            parts[0] = "["
            parts.append(indent + "]")
            return "".join(parts)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
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


def _jq(q: Fraction) -> str:
    return str(q)


def _jvec(v: RationalVector) -> list[str]:
    return [_jq(e) for e in v.entries]


def _jfamily(family) -> list[list[int]]:
    return sorted(sorted(s) for s in family)


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
            RationalVector([parse_rational(p) for p in parts])
        )
    return action


def _lambda_for(args, rank: int) -> OneParamSubgroup:
    if not args.lam:
        raise SpecError("this command needs --lambda \"a,b\"")
    parts = [p.strip() for p in args.lam.split(",")]
    if len(parts) != rank:
        raise SpecError(f"--lambda needs {rank} comma-separated integers")
    try:
        return OneParamSubgroup(RationalVector([int(p) for p in parts]))
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
                "norm_sq": _jq(bi.norm_sq),
                "lambda": (
                    [str(int(e)) for e in bi.lambda_beta.cochar.entries]
                    if bi.lambda_beta
                    else None
                ),
            }
        )
    return {"beta_set": out}


def _cmd_chambers(spec: LoadedSpec, args) -> dict:
    action = spec.action
    cc = wall_chamber_decomposition(action)
    if cc.rank == 1:
        walls = [
            {
                "at": _jq(w.cells[0].sample.entries[0]),
                "family": _jfamily(w.cells[0].family),
            }
            for w in cc.walls
        ]
        chambers = [
            {
                "interval": [_jq(ch.interval[0]), _jq(ch.interval[1])],
                "sample": _jvec(ch.sample),
                "family": _jfamily(ch.family),
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
                        "family": _jfamily(cell.family),
                        "signs": list(cell.signs),
                    }
                    for cell in w.cells
                ],
            }
        )
    chambers = [
        {
            "sample": _jvec(ch.sample),
            "family": _jfamily(ch.family),
            "signs": list(ch.signs),
        }
        for ch in cc.chambers
    ]
    vertices = [
        {"point": _jvec(v.point), "family": _jfamily(v.family)}
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
            text[id(beta)] = [_jq(v) for v in beta]
        supports[",".join(str(i) for i in sorted(s))] = text[id(beta)]
    return {
        "betas": [
            {"beta": _jvec(b.beta), "norm_sq": _jq(b.norm_sq)} for b in rep.betas
        ],
        "stratum_sizes": {
            ",".join(_jq(v) for v in key): size
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
    eps = parse_rational(args.epsilon) if args.epsilon else None
    region = adapted_region(action, lam, eps)
    t = lam.pairing(action.twist)
    return {
        "lambda": [str(int(e)) for e in lam.cochar.entries],
        "adapted_interval": [_jq(region.lower), _jq(region.upper)],
        "well_adapted_interval": [_jq(v) for v in region.well_adapted_interval()],
        "epsilon": _jq(region.epsilon),
        "current_t": _jq(t),
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
                "sample": [str(int(e)) for e in p.sample.cochar.entries],
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
        "witness": [_jq(v) for v in verdict.witness] if verdict.witness else None,
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
        parse_rational(args.epsilon)
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
        "single_lambda_family": _jfamily(rep.single_lambda_family),
        "single_mu_family": _jfamily(rep.single_mu_family),
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
            text = _cmd_svg(spec, args)
        else:
            payload = _COMMANDS[args.command](spec, args)
            report = {"command": args.command, "input": spec.name, "result": payload}
            text = _render(report) + "\n"
            undecided = args.strict and _has_undecided(payload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if undecided else 0


def _has_undecided(payload) -> bool:
    if isinstance(payload, dict):
        return any(_has_undecided(v) for v in payload.values())
    if isinstance(payload, list):
        return any(_has_undecided(v) for v in payload)
    return payload == SweepStatus.UNDECIDED.value


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
