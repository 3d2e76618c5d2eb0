"""gitloci benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the script finds it from its own
path).  The seed goes to a generator that writes the workload's spec files
under ``perfbench/out/``; the program sees only those files, the bundled
corpus and argv.  A *round* is the workload's fixed list of ops, each one
in-process ``gitloci.cli.run(argv)`` call timed from argv to a captured
report (the ``hull`` ops of `queries` load their spec and call
``hull_membership`` directly).  Times are reference seconds
(`hostspeed.py`): net wall seconds scaled by the host's speed measured
around them, so that they do not move with other tenants of the host.  Rounds repeat while another one is
expected to end within S seconds; there is always at least one.  The first
round's reports are checked (`checks.py`) and every later round must
reproduce them byte for byte.  All of this runs in one single-threaded
process.

--trace 0 prints the end-to-end metrics:
  op_p50_s, op_p90_s  median and 90th percentile of seconds per op, over
                      every op of every round
  ops_per_s           ops completed per second of round wall time
  setup_s             median over SETUP_REPEATS repeats of importing
                      gitloci.cli and loading each distinct input once
                      (sys.modules purged)
  peak_rss_mb         the process's peak resident memory after the rounds

--trace 1 runs one untraced round (checked, and a warm-up), then traced
(`spans.py`) and untraced rounds in turn, and prints the per-layer
metrics, per traced round: self seconds per layer and per traced function,
call counts, ratios, the undecided share of sweep verdicts, and the
tracing overhead (mean traced minus mean untraced round seconds, over the
rounds after the first).  Self times are scaled like op times, by the
host's speed during their op.

The last stdout line is the JSON result; the line before it names the
sha256 digest of the first round's reports.  Details (with the
end-to-end metrics in unscaled wall seconds) and, in traced runs, the
spans are written next to the generated inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from checks import Checker
from hostspeed import CLOCK
from spans import Tracer
from workloads import SEC71, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 25

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Traced functions whose call count and self time are reported on their own.
REPORTED_FUNCTIONS = (
    "cli.run",
    "cli.load_spec",
    "polytope.chamber_decomposition_2d",
    "polytope.min_norm_point",
    "polytope.hull_membership",
    "strata.beta_index_set",
    "strata.verify_stratification",
    "stability.torus_status",
    "stability.uhat_stable_explicit",
    "stability.h_stable_explicit",
    "stability.stab_u_dimension",
    "linprog.solve_lp",
    "qpoly.analyze_common_zeros",
    "qpoly.resultant",
    "qpoly.gcd_univariate",
    "qpoly.rational_roots",
)
LAYERS = ("cli", "action", "vgit", "strata", "stability", "polytope", "linprog", "qpoly", "svg")


@dataclass
class Round:
    """Net seconds per op, exit codes and reports of one round; `at` holds
    each op's net start and end time and `span` the round's."""

    times: list[float] = field(default_factory=list)
    codes: list[object] = field(default_factory=list)
    reports: list[str] = field(default_factory=list)
    wall: float = 0.0
    at: list[tuple[float, float]] = field(default_factory=list)
    span: tuple[float, float] = (0.0, 0.0)

    def scaled_times(self) -> list[float]:
        return [t * CLOCK.rate(a, b) for t, (a, b) in zip(self.times, self.at)]

    def scaled_wall(self) -> float:
        return self.wall * CLOCK.rate(*self.span)


# ---------------------------------------------------------------------------
# Set-up and ops
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int):
    """Generate the workload's inputs and set up: returns the workload, its
    output directory, the set-up seconds and the imported library."""
    os.chdir(ROOT)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    out = HERE / "out" / f"{workload}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](seed, out.relative_to(ROOT))
    setup_s, lib = setup(wl.inputs)
    return wl, out, setup_s, lib


def setup(inputs: list[str]) -> tuple[float, SimpleNamespace]:
    """Import gitloci.cli and load every distinct input, SETUP_REPEATS times
    from a purged module cache; returns the median in reference seconds and
    the last import."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "gitloci" or m.startswith("gitloci.")]:
            del sys.modules[name]
        t0 = CLOCK.net()
        cli = importlib.import_module("gitloci.cli")
        for path in inputs:
            cli.load_spec(path)
        t1 = CLOCK.net()
        times.append((t0, t1))
    times = [(t1 - t0) * CLOCK.rate(t0, t1) for t0, t1 in times]
    mods = {n: importlib.import_module(f"gitloci.{n}") for n in ("action", "polytope", "qpoly", "vgit")}
    lib = SimpleNamespace(
        cli=cli,
        RationalVector=mods["qpoly"].RationalVector,
        SupportPoint=mods["action"].SupportPoint,
        PointSet=mods["polytope"].PointSet,
        specs={path: cli.load_spec(path) for path in inputs},
        **mods,
    )
    return statistics.median(times), lib


def _hull_op(lib, op) -> str:
    action = lib.cli.load_spec(op.spec).action  # fresh caches in every round
    out = []
    for support, twist in op.data:
        pts = lib.PointSet(action.segre_weights(lib.SupportPoint(support)))
        out.append(lib.polytope.hull_membership(pts, lib.RationalVector(list(twist))).value)
    return json.dumps(out)


def run_op(lib, op) -> tuple[float, float, object, str]:
    """Net start and end time, exit code (0 is success) and captured report
    of one op."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = CLOCK.net()
        try:
            if op.kind == "hull":
                out.write(_hull_op(lib, op))
                code = 0
            else:
                code = lib.cli.run(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the op failed; keep measuring the others
            code = traceback.format_exc(limit=3)
        t1 = CLOCK.net()
    if code != 0 and err.getvalue():
        code = f"{code}: {err.getvalue().strip()}"
    return t0, t1, code, out.getvalue()


def run_round(lib, ops, tracer: Tracer | None = None, first: Round | None = None) -> Round:
    """One pass over the ops.  A report equal to the first round's is kept
    as that round's string, so memory does not grow with the rounds."""
    rnd = Round()
    t0 = CLOCK.net()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start, end, code, report = run_op(lib, op)
        if first is not None and report == first.reports[i]:
            report = first.reports[i]
        rnd.times.append(end - start)
        rnd.at.append((start, end))
        rnd.codes.append(code)
        rnd.reports.append(report)
    t1 = CLOCK.net()
    rnd.wall, rnd.span = t1 - t0, (t0, t1)
    return rnd


def run_rounds(lib, ops, seconds: float) -> list[Round]:
    """At least one round; another only if it is expected to end in time."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(lib, ops, None, rounds[0] if rounds else None))
        mean = sum(r.wall for r in rounds) / len(rounds)
        if time.perf_counter() - start + mean > seconds:
            return rounds


def run_traced(lib, ops, seconds: float, first: Round) -> tuple[Tracer, list[Round], list[Round]]:
    """A traced and an untraced round in turn, at least once; another pair
    only if it is expected to end in time."""
    tracer = Tracer()
    traced: list[Round] = []
    untraced: list[Round] = []
    start = time.perf_counter()
    while True:
        tracer.install()
        try:
            traced.append(run_round(lib, ops, tracer, first))
        finally:
            tracer.uninstall()
        untraced.append(run_round(lib, ops, None, first))
        pair = sum(r.wall for r in traced + untraced) / len(traced)
        if time.perf_counter() - start + pair > seconds:
            return tracer, traced, untraced


# ---------------------------------------------------------------------------
# Checks and digest
# ---------------------------------------------------------------------------


def failures(lib, ops, rounds: list[Round]) -> list[str]:
    """One message per failed op: nonzero exit, a failed check of the first
    round, or a later round whose report differs from the first."""
    first = rounds[0]
    verdicts = Checker(lib).check_round(
        ops, [rep if code == 0 else None for rep, code in zip(first.reports, first.codes)]
    )
    out = []
    for k, rnd in enumerate(rounds):
        for i, op in enumerate(ops):
            if rnd.codes[i] != 0:
                problem = f"exit {rnd.codes[i]}"
            elif k == 0:
                problem = verdicts[i]
            elif rnd.reports[i] != first.reports[i]:
                problem = "report differs from the first round"
            else:
                problem = None
            if problem is not None:
                out.append(f"round {k} op {i} {' '.join(op.argv) or op.kind}: {problem}")
    return out


def digest(reports: list[str]) -> str:
    return hashlib.sha256("".join(reports).encode("utf-8")).hexdigest()


def undecided_ratio(ops, reports: list[str]) -> float:
    verdicts = undecided = 0
    for op, text in zip(ops, reports):
        if op.kind in ("usweep", "hstable"):
            status = json.loads(text)["result"]["status"]
            verdicts += 1
            undecided += status == "undecided"
    return undecided / verdicts if verdicts else 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(rounds: list[Round], setup_s: float, rss_kb: int, scaled: bool = True) -> dict:
    """The end-to-end metrics, in reference seconds unless not `scaled`."""
    if scaled:
        times = [t for r in rounds for t in r.scaled_times()]
        wall = sum(r.scaled_wall() for r in rounds)
    else:
        times = [t for r in rounds for t in r.times]
        wall = sum(r.wall for r in rounds)
    return {
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "ops_per_s": len(times) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def _per_round(total, rounds: int):
    return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds


def per_layer(tracer: Tracer, ops, traced: list[Round], untraced: list[Round]) -> dict:
    spans, n = tracer.spans, len(traced)
    # The host's speed during each op of each traced round, in span order.
    op_rates = [[CLOCK.rate(a, b) for a, b in r.at] for r in traced]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_s = {layer: 0.0 for layer in LAYERS}
    faces = betas = beta_wolfe = undecided = 0
    first_dec: dict[int, int] = {}  # lines of each complex's first and last
    last_dec: dict[int, int] = {}  # decomposition, by wall_chamber span
    k = 0  # traced round of the span
    for name, start, _end, parent, op, own, size in spans:
        if k + 1 < n and start >= traced[k + 1].span[0]:
            k += 1
        own *= op_rates[k][op]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer_s[name.split(".")[0]] += own
        caller = spans[parent][0] if parent >= 0 else None
        if name == "polytope.chamber_decomposition_2d":
            faces += size[1]
            if caller == "vgit.wall_chamber_decomposition":
                first_dec.setdefault(parent, size[0])
                last_dec[parent] = size[0]
        elif name == "strata.beta_index_set":
            betas += size
        elif name == "polytope.min_norm_point":
            beta_wolfe += caller == "strata.beta_index_set"
        elif name in ("qpoly.common_zero_exists", "qpoly.common_zero_avoiding"):
            undecided += size
    lines_before, lines_after = sum(first_dec.values()), sum(last_dec.values())

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_s[layer] / n, "s")
    for name in REPORTED_FUNCTIONS:
        metrics[f"{name}.calls"] = (_per_round(calls.get(name, 0), n), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
    for name, count in tracer.counts.items():
        metrics[f"{name}.calls"] = (_per_round(count, n), "count")
    metrics.update(
        {
            "polytope.chamber_decomposition_2d.faces": (_per_round(faces, n), "count"),
            "vgit.lines_kept_ratio": (lines_after / lines_before if lines_before else 0.0, "ratio"),
            "strata.beta_yield_ratio": (betas / beta_wolfe if beta_wolfe else 0.0, "ratio"),
            "qpoly.undecided": (_per_round(undecided, n), "count"),
            "undecided_ratio": (undecided_ratio(ops, untraced[0].reports), "ratio"),
            "cli.report_bytes": (sum(len(r) for r in untraced[0].reports), "bytes"),
            "trace.spans": (_per_round(len(spans), n), "count"),
            "trace.overhead_s": (
                sum(r.scaled_wall() for r in traced) / n
                - sum(r.scaled_wall() for r in untraced) / len(untraced),
                "s",
            ),
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/gitloci/cli.py", SEC71) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gitloci checkout, missing {missing}", file=sys.stderr)
        return 2
    CLOCK.start()
    try:
        wl, out, setup_s, lib = prepare(args.workload, args.seed)
        if args.trace:
            first = run_round(lib, wl.ops)
            remaining = max(args.seconds - first.wall, 0.0)
            tracer, traced, untraced = run_traced(lib, wl.ops, remaining, first)
            rounds = [first] + traced + untraced
        else:
            rounds = run_rounds(lib, wl.ops, args.seconds)
    finally:
        CLOCK.stop()
    unscaled = None
    if args.trace:
        tracer.dump(str(out / "spans.jsonl"))
        values = per_layer(tracer, wl.ops, traced, untraced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = end_to_end(rounds, setup_s, rss_kb)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        unscaled = end_to_end(rounds, setup_s, rss_kb, scaled=False)
        del unscaled["setup_s"]  # set-up keeps no unscaled times

    failed = failures(lib, wl.ops, rounds)
    attempted = sum(len(r.times) for r in rounds)
    sha = digest(rounds[0].reports)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "ops_per_round": len(wl.ops),
        "rounds": len(rounds),
        "host_speed": CLOCK.mean_speed(),
        "host_samples": len(CLOCK.speed),
        "report_sha256": sha,
        "failures": failed,
        "metrics": metrics,
        "unscaled_wall_metrics": unscaled,
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for line in failed[:10]:
        print(f"# FAILED {line}")
    print(
        f"# {wl.name} seed={args.seed} rounds={len(rounds)} ops/round={len(wl.ops)} "
        f"host_speed={CLOCK.mean_speed():.3f} report_sha256={sha}"
    )
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
