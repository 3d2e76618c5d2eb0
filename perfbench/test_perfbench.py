"""Sanity tests of the benchmark itself.

    python3 -m pytest perfbench

They pin the per-layer counts the benchmark reports on the corpus, check
that traced counts repeat exactly, that the generator is deterministic and
rejects invalid draws, that the checks reject a wrong report, and that the
host-speed clock scales times as documented.
"""

from __future__ import annotations

import json
import random
import time

import pytest

import gen
import run
from hostspeed import HostClock
from spans import Tracer
from workloads import SEC71, Op


def _traced(lib, ops):
    tracer = Tracer()
    tracer.install()
    try:
        rnd = run.run_round(lib, ops, tracer)
    finally:
        tracer.uninstall()
    assert rnd.codes == [0] * len(ops)
    return run.per_layer(tracer, ops, [rnd], [rnd])


def _counts(metrics) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes", "ratio")}


@pytest.mark.parametrize("workload", ["queries", "sweeps"])
def test_traced_counts_repeat_exactly(workload):
    wl, _, _, lib = run.prepare(workload, 7)
    first = _counts(_traced(lib, wl.ops))
    wl, _, _, lib = run.prepare(workload, 7)
    assert _counts(_traced(lib, wl.ops)) == first


def test_sec71_beta_runs_wolfe_on_every_subset():
    _, _, _, lib = run.prepare("strata", 1)
    metrics = _traced(lib, [Op("beta", SEC71, ["beta", "--input", SEC71])])
    assert metrics["polytope.min_norm_point.calls"][0] == 4095  # 2^12 - 1 subsets
    assert metrics["strata.beta_index_set.calls"][0] == 1
    assert metrics["strata.beta_yield_ratio"][0] == 41 / 4095


def test_sec71_chambers_decomposes_twice():
    _, _, _, lib = run.prepare("chambers", 1)
    metrics = _traced(lib, [Op("chambers", SEC71, ["chambers", "--input", SEC71])])
    assert metrics["polytope.chamber_decomposition_2d.calls"][0] == 2
    layers = {k: v for k, (v, _) in metrics.items() if k.count(".") == 1 and k.endswith(".self_s")}
    assert max(layers, key=layers.get) == "vgit.self_s"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wa = run.WORKLOADS[workload](3, a)
    wb = run.WORKLOADS[workload](3, b)
    assert [op.argv[:1] + op.argv[3:] for op in wa.ops] == [op.argv[:1] + op.argv[3:] for op in wb.ops]
    for fa in sorted(a.iterdir()):
        assert fa.read_text() == (b / fa.name).read_text()


def test_generator_rejects_invalid_draws():
    with pytest.raises(gen.InvalidDraw):
        gen.check_rank2((((0, 0), (1, 1), (2, 2)), ((0, 0), (-1, -1), (3, 3))))
    wide = (tuple((i, i * i) for i in range(4)), tuple((10 * i, 0) for i in range(4)))
    with pytest.raises(gen.InvalidDraw):
        gen.check_beta_size(wide)
    shifted = [[{(0, 0): 1}, {(0, 0): 1}], [{}, {(0, 0): 1}]]
    assert not gen.identity_at_origin(shifted)
    rng = random.Random(0)
    for _ in range(20):
        assert gen.identity_at_origin(gen.unitriangular(rng))


def _one_of_each(ops, kinds):
    return [next(op for op in ops if op.kind == kind) for kind in kinds]


def test_checks_reject_a_wrong_report():
    wl, _, _, lib = run.prepare("queries", 2)
    ops = _one_of_each(wl.ops, ("chambers", "adapted", "hull", "external-equiv"))
    rnd = run.run_round(lib, ops)
    assert run.failures(lib, ops, [rnd]) == []
    for i, op in enumerate(ops):
        bad = list(rnd.reports)
        if op.kind == "hull":
            flipped = ["outside" if p != "outside" else "interior" for p in json.loads(bad[i])]
            bad[i] = json.dumps(flipped)
        else:
            report = json.loads(bad[i])
            if op.kind == "chambers":
                report["result"]["chambers"][0]["family"].pop()
            elif op.kind == "external-equiv":
                report["result"]["single_mu_family"].pop()
            else:
                report["result"]["current_adapted"] = not report["result"]["current_adapted"]
            bad[i] = json.dumps(report)
        wrong = run.Round(rnd.times, rnd.codes, bad, rnd.wall)
        assert len(run.failures(lib, ops, [wrong])) == 1, op.kind


def test_checks_reject_a_wrong_beta_index_set():
    wl, _, _, lib = run.prepare("strata", 2)
    ops = [
        next(op for op in wl.ops if op.kind == "beta" and lib.specs[op.spec].action.rank == rank)
        for rank in (1, 2)
    ]
    rnd = run.run_round(lib, ops)
    assert run.failures(lib, ops, [rnd]) == []
    for i in range(len(ops)):
        bad = list(rnd.reports)
        report = json.loads(bad[i])
        report["result"]["beta_set"].pop()  # each entry stays self-consistent
        bad[i] = json.dumps(report)
        wrong = run.Round(rnd.times, rnd.codes, bad, rnd.wall)
        assert len(run.failures(lib, ops, [wrong])) == 1


def test_host_clock_excludes_probes_and_averages_nearby_samples():
    clock = HostClock()
    assert clock.rate(0.0, 1.0) == 1.0  # never sampled
    w0, n0 = time.perf_counter(), clock.net()
    clock.sample()
    n1, w1 = clock.net(), time.perf_counter()
    assert clock.spent > 0
    assert (w1 - w0) - (n1 - n0) == pytest.approx(clock.spent, abs=1e-4)
    clock.at, clock.speed = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.7, 2.0]
    assert clock.rate(0.95, 1.05) == 0.5  # the samples within WINDOW
    assert clock.rate(1.0, 2.0) == pytest.approx(0.6)
    assert clock.rate(2.5, 2.55) == 2.0  # none near: the nearest one
    assert clock.rate(2.45, 2.5) == 0.7
