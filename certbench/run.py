#!/usr/bin/env python3
"""Certification benchmark for qgrs: one workload per run, in one process.

    python3 certbench/run.py --workload sweep-minors --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each exists, workloads.py for what):
  sweep-minors  acceptance-grid tuples decided by literal minor sweeps
  sweep-small   the other acceptance-grid tuples: short construction-bound ops
  verify-docs   JSON documents re-verified as `qgrs verify` does it

The workload's operations run in seeded order, pass after pass, for
--seconds (at least one whole pass); every result is checked against its
reference record, and an op's latency is the median of its runs.  Times
are reported at the reference speed of the shared host: a fixed probe
(speed.py), timed between operations, scales each op run by the host's
speed around it; the raw figures are printed and saved too.  Set-up
(import, inputs, field builds, one warm-up operation per field) is
measured in this process and in SETUP_PROBES fresh child processes, run
one after another; setup_s is their median (see setup() for its scaling).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half with spans around every layer call (tracing.py) and
prints the per-layer metrics.  Every metric is printed by name with its
unit, the full result goes to certbench/results/, and the last stdout line
is one JSON object.  The exit code is 1 when any operation failed.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 2
SPEED_EVERY_S = 0.1
SETUP_SPEED_SAMPLES = 5
TAIL_BEYOND = 10

BENCHMARK = HERE.parent / "BENCHMARK.json"


def benchmark() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in benchmark()[section]}


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With fewer than TAIL_BEYOND + 1 samples
    there is no such percentile, and the maximum is returned at 100.
    """
    ordered = sorted(values)
    pos = len(ordered) - TAIL_BEYOND - 1
    if pos < 0:
        return ordered[-1], 100.0
    return ordered[pos], 100.0 * (pos + 1) / len(ordered)


def measure(ops, seconds: float, tracer=None) -> dict:
    """Run passes over ``ops`` until ``seconds`` have elapsed.

    The first pass always completes, so every op runs at least once; later
    passes stop at the first op that starts after the time is up.  Each op
    is timed alone; the reference check and the speed probe, sampled every
    SPEED_EVERY_S, run outside the timed interval.  ``latencies`` keeps the
    (start, seconds) of each run of an op that completed correctly.
    """
    import speed
    import workloads

    latencies: dict[str, list[tuple[float, float]]] = defaultdict(list)
    attempted = failed = passes = 0
    failures: list[str] = []
    probe = speed.SpeedProbe()
    probe.sample()
    start = last_probe = time.perf_counter()
    while True:
        for op in ops:
            if passes and time.perf_counter() - start > seconds:
                break
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = (tracer.run_op(attempted, op) if tracer is not None
                          else op())
                dt = time.perf_counter() - t0
                ok = workloads.check(op, result)
                detail = "result differs from its reference"
            except Exception:  # an op that raises is a failed op
                dt = time.perf_counter() - t0
                ok = False
                detail = traceback.format_exc(limit=3)
            if ok:
                latencies[op.key].append((t0, dt))
            else:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{op.key}: {detail}")
            if time.perf_counter() - last_probe >= SPEED_EVERY_S:
                probe.sample()
                last_probe = time.perf_counter()
        passes += 1
        if time.perf_counter() - start > seconds:
            break
    probe.sample()
    return {"latencies": latencies, "attempted": attempted,
            "failed": failed, "passes": passes, "failures": failures,
            "probe": probe}


def summarize(run: dict) -> dict:
    """End-to-end figures of one measured run.

    An op's latency is the median of its completed runs, each scaled to the
    reference host speed by the probe samples around it (speed.py).
    ops_per_s is completed operations over timed time for one pass made of
    those latencies, so it does not depend on where the time cuts the last
    pass; op_p50_s and op_tail_s are taken over the distinct ops, so the
    tail percentile depends only on the workload's size, not on how many
    passes fit in the time.  The unscaled figures are returned as "raw".
    """
    probe = run["probe"]

    def figures(per_op: list[float]) -> dict[str, float]:
        return {"ops_per_s": len(per_op) / sum(per_op),
                "op_p50_s": statistics.median(per_op),
                "op_tail_s": tail(per_op)[0]}

    runs = run["latencies"].values()
    scaled = [statistics.median(dt * probe.scale(t0, t0 + dt) for t0, dt in v)
              for v in runs]
    raw = [statistics.median(dt for _, dt in v) for v in runs]
    done = run["attempted"] - run["failed"]
    return {
        **figures(scaled),
        "raw": figures(raw),
        "op_tail_percentile": tail(scaled)[1],
        "op_samples": len(scaled),
        "ok_frac": done / run["attempted"],
        "failed_frac": run["failed"] / run["attempted"],
    }


def setup(workload: str, seed: int):
    """Set up; returns the ops, the field metrics and the set-up time, raw
    and at the reference host speed.

    Imports and input loading are interpreter-bound, so their time is scaled
    by the speed probe sampled right after them.  The field warm-ups are
    mostly dense table builds, whose speed does not follow the probe's (on
    a shared 2-core VM the q = 64 warm-up took 2.3-2.9 s whether the probe
    read 2.4 or 3.9 ms), so their time is kept as measured.  The probe's
    own time is in neither part.
    """
    import speed
    import workloads

    ops = workloads.load_ops(workload, seed)
    loaded = time.perf_counter() - T_START
    probe = speed.SpeedProbe()
    for _ in range(SETUP_SPEED_SAMPLES):
        probe.sample()
    t0 = time.perf_counter()
    field_metrics = workloads.warm_fields(ops)
    fields = time.perf_counter() - t0
    return ops, field_metrics, {"raw": loaded + fields,
                                "scaled": loaded * probe.scale() + fields}


def probe_setup(workload: str, seed: int) -> dict[str, float]:
    """Set-up times of a fresh interpreter running this workload's set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:<34} {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="qgrs certification benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up only and print it (used for probes)")
    args = ap.parse_args(argv)

    if not (SRC / "qgrs" / "__init__.py").is_file():
        print(f"certbench: qgrs sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ops, field_metrics, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(setup_s))
        return 0

    import tracing
    import workloads

    if args.trace:
        untraced = measure(ops, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer:
            run = measure(ops, args.seconds / 2, tracer)
        untraced_rate = summarize(untraced)["ops_per_s"]
        traced_rate = summarize(run)["ops_per_s"]
        metrics = dict(field_metrics)
        metrics.update(tracer.metrics())
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.traced_ops_per_s"] = traced_rate
        metrics["trace.overhead_ops_per_s"] = traced_rate - untraced_rate
        units = metric_units("per_layer")
        attempted = untraced["attempted"] + run["attempted"]
        failed = untraced["failed"] + run["failed"]
        failures = untraced["failures"] + run["failures"]
        extra = {"passes": [untraced["passes"], run["passes"]]}
    else:
        run = measure(ops, args.seconds)
        summary = summarize(run)
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        metrics = {
            "ops_per_s": summary["ops_per_s"],
            "op_p50_s": summary["op_p50_s"],
            "op_tail_s": summary["op_tail_s"],
            "setup_s": statistics.median(s["scaled"] for s in setups),
            "peak_rss_mb": workloads.peak_rss_mb(),
            "ok_frac": summary["ok_frac"],
        }
        units = metric_units("end_to_end")
        attempted, failed, failures = run["attempted"], run["failed"], run["failures"]
        extra = {"passes": run["passes"],
                 "latencies_s": {k: [dt for _, dt in v]
                                 for k, v in run["latencies"].items()},
                 "op_tail_percentile": summary["op_tail_percentile"],
                 "op_samples": summary["op_samples"],
                 "failed_frac": summary["failed_frac"],
                 "raw": dict(summary["raw"], setup_s=statistics.median(
                     s["raw"] for s in setups)),
                 "setup_samples_s": setups,
                 "field": field_metrics}

    print(f"certbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed}")
    for name, unit in units.items():
        _print_metric(name, metrics[name], unit)
    if not args.trace:
        print(f"  op_tail_s is p{extra['op_tail_percentile']:.1f} of "
              f"{extra['op_samples']} distinct ops; "
              f"failed_frac = {extra['failed_frac']:.6g}")
        print("  times above are at the reference host speed; raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items()))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, failures=failures, **extra),
                  fh, indent=1)
    if args.trace:
        tracer.write(RESULTS / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
