"""Self-tests of the certification benchmark (certbench/run.py)."""
from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _keys(ops):
    return [op.key for op in ops]


WORKLOADS = [w["name"] for w in run.benchmark()["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_op_list(workload):
    first = workloads.load_ops(workload, 7)
    assert _keys(first) == _keys(workloads.load_ops(workload, 7))
    other = workloads.load_ops(workload, 8)
    assert _keys(first) != _keys(other)
    assert sorted(_keys(first)) == sorted(_keys(other))


def test_workload_sizes():
    assert len(workloads.sweep_part("minors")) == 176
    assert len(workloads.sweep_part("small")) == 441
    assert len(workloads.universe("sweep-minors")) == 30
    assert len(workloads.universe("sweep-small")) == 441
    assert len(workloads.universe("verify-docs")) == 32


@pytest.mark.parametrize("n", [11, 12, 33, 100, 441, 1000])
def test_tail_leaves_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    random.Random(n).shuffle(values)
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - run.TAIL_BEYOND) / n)


class _SlowAfterTen:
    """Host at reference speed before t = 10 s and at half of it after."""

    def scale(self, start, end):
        return 0.5 if start >= 10 else 1.0


def test_times_are_scaled_to_reference_speed():
    res = {"latencies": {"a": [(10, 1.0), (12, 9.0), (14, 1.0)],
                         "b": [(0, 1.5), (20, 3.0)]},
           "attempted": 5, "failed": 0, "probe": _SlowAfterTen()}
    out = run.summarize(res)
    assert out["raw"]["ops_per_s"] == pytest.approx(2 / 3.25)
    assert out["ops_per_s"] == pytest.approx(1.0)
    assert out["op_p50_s"] == pytest.approx(1.0)
    assert out["raw"]["op_p50_s"] == pytest.approx(1.625)


def test_probe_scale_uses_samples_near_the_interval():
    probe = speed.SpeedProbe()
    probe.times = [0.0, 0.5, 5.0, 5.5, 6.0]
    probe.samples = [speed.REF_S] * 2 + [2 * speed.REF_S] * 3
    assert probe.scale(0.2, 0.4) == pytest.approx(1.0)
    assert probe.scale(5.1, 5.2) == pytest.approx(0.5)
    assert probe.scale(50, 51) == pytest.approx(0.5)


def _cheapest(workload, pred=lambda op: True):
    return min((op for op in workloads.universe(workload) if pred(op)),
               key=lambda op: (op.size, op.key))


def test_planted_mismatch_and_exception_are_failed_ops():
    good = _cheapest("sweep-small")
    wrong = dataclasses.replace(good, key="planted-mismatch",
                                expect=dict(good.expect, mds_checked=-1))
    boom = dataclasses.replace(good, key="planted-exception",
                               payload=(9,) + good.payload[1:])
    clean = run.summarize(run.measure([good], 0))
    assert clean["failed_frac"] == 0 and clean["ok_frac"] == 1
    for planted in (wrong, boom):
        res = run.measure([good, planted], 0)
        assert (res["attempted"], res["failed"]) == (2, 1)
        assert res["failures"][0].startswith(planted.key)
        assert run.summarize(res)["failed_frac"] == 0.5


def _traced(ops):
    tracer = tracing.Tracer()
    with tracer:
        res = run.measure(ops, 0, tracer)
    assert res["failed"] == 0, res["failures"]
    return tracer.metrics()


# per workload: the ops to trace and the per-layer metrics that must be
# nonzero there, because the layer is predicted to move that workload
def _sweep_small_ops():
    by_family = [_cheapest("sweep-small", lambda op, f=f: op.payload[0] == f)
                 for f in range(1, 6)]
    from qgrs import constructions

    family5 = sorted((op for op in workloads.universe("sweep-small")
                      if op.payload[0] == 5), key=lambda op: (op.size, op.key))
    kernel = next(op for op in family5 if constructions.construct(
        *op.payload).provenance["path"] == "kernel")
    return by_family + [kernel]


def _verify_docs_ops():
    groups = ["large", "exhaustive", "mutated"]
    ops = [_cheapest("verify-docs", lambda op, g=g: op.payload["group"] == g)
           for g in groups]
    return ops + [_cheapest("verify-docs", lambda op: op.q == 81)]


PREDICTED = {
    "sweep-minors": (lambda: [_cheapest("sweep-minors")], [
        "verifier.certify_s", "verifier.minors_s", "verifier.minors_checked",
        "verifier.minors_per_s", "bulk.batch_minors_s", "bulk.minor_batches",
        "bulk.combinations_s", "bulk.self_s", "verifier.self_s"]),
    "sweep-small": (_sweep_small_ops, [
        "constructions.construct_s", "constructions.construct_calls",
        "constructions.f5_kernel_ratio", "solver.projective_unique_s",
        "solver.all_nonzero_s", "solver.descend_s", "solver.span_search_s",
        "solver.span_search_calls", "matrix.rref_s", "matrix.rref_calls",
        "grs.generator_matrix_s", "grs.gram_s", "grs.interp_s",
        "bulk.power_codes_s", "bulk.newton_s", "constructions.self_s",
        "solver.self_s", "matrix.self_s", "grs.self_s"]),
    "verify-docs": (_verify_docs_ops, [
        "cli.decode_s", "cli.encode_s", "cli.self_s", "grs.gram_s",
        "grs.interp_s", "grs.generator_matrix_s", "matrix.rref_s",
        "verifier.exhaustive_s", "verifier.words_checked",
        "verifier.words_per_s", "verifier.structural_s",
        "verifier.structural_samples"]),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_layer_spans_fire(workload):
    make_ops, names = PREDICTED[workload]
    metrics = _traced(make_ops())
    assert set(run.metric_units("per_layer")) - set(metrics) == {
        "field.build_s", "field.warmup_s", "field.setup_rss_mb",
        "trace.untraced_ops_per_s", "trace.traced_ops_per_s",
        "trace.overhead_ops_per_s"}
    silent = [name for name in names if not metrics[name] > 0]
    assert not silent, f"no span recorded for {silent} on {workload}"
    assert 0 <= metrics["trace.uncovered_share"] < 1


def test_field_warmup_is_measured():
    ops = [_cheapest("verify-docs", lambda op: op.q == 16)]
    metrics = workloads.warm_fields(ops)
    assert metrics["field.build_s"] > 0 and metrics["field.warmup_s"] > 0
    assert metrics["field.setup_rss_mb"] >= 0


def test_tracer_restores_every_binding():
    from qgrs import constructions, matrix

    before = (constructions.construct, matrix.FMatrix.rref)
    with tracing.Tracer():
        assert constructions.construct is not before[0]
    assert (constructions.construct, matrix.FMatrix.rref) == before
