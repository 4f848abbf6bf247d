"""Timed and traced runs of one workload.

Import after ``run.prepare_interpreter()``: this loads levelgraph and numpy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import monotonic, perf_counter

import numpy as np

import gen
import ops
import tracing
from run import BENCH, THREAD_VARS

MIN_OPS = 100       # op_p90_ms then has at least ten samples beyond it
SETUP_PROBES = 5    # fresh interpreters per run; setup_s is their median
# inputs generated (and outputs judged) per batch, between timed stretches;
# witness batches hold one input from each of gen's 20 cost strata
BATCH = {"verdicts": 50, "dhym-sweep": 100, "witness": 20}
# A timed run does a fixed amount of work: --seconds times this rate, in
# whole batches.  The rates are a little below the wall-clock rates of the
# seed commit on a 2-vCPU Xeon, so a run there measures about --seconds.
# Fixed work makes `attempted` and `failed` a function of the seed alone:
# the known index defects fail the same operations in every run of a seed.
OPS_PER_SECOND = {"verdicts": 150, "dhym-sweep": 240, "witness": 14}
# a run stops early after this much timed work, so it ends within 180 s
# even on a commit several times slower than the rates above assume
MAX_TIMED_S = 140.0
# operations in a traced run: fixed, so per-operation counts repeat exactly
TRACE_OPS = {"verdicts": 400, "dhym-sweep": 400, "witness": 40}

TRACE_TARGETS = (
    "poly.roots",
    "poly.restrict_to_vertical_line",
    "cauchy.index_on_interval",
    "landscape.counting_function",
    "landscape.on_axis_critical_points",
    "landscape.validate_no_rhp_critical_points",
    "stability.classify",
    "dhym.compute_lifts",
    "tracer.graphical_connection",
    "kempf_ness.run_flow",
)

# per-layer metric -> (span or work counter, quantity, unit)
PER_LAYER = {
    "poly.roots.calls_per_op": ("poly.roots", "count", "calls/op"),
    "poly.roots.self_ms_per_op": ("poly.roots", "self_ms", "ms/op"),
    "poly.restrict_to_vertical_line.calls_per_op":
        ("poly.restrict_to_vertical_line", "count", "calls/op"),
    "cauchy.index_on_interval.calls_per_op": ("cauchy.index_on_interval", "count", "calls/op"),
    "cauchy.index_on_interval.self_ms_per_op": ("cauchy.index_on_interval", "self_ms", "ms/op"),
    "landscape.counting_function.calls_per_op":
        ("landscape.counting_function", "count", "calls/op"),
    "landscape.counting_function.self_ms_per_op":
        ("landscape.counting_function", "self_ms", "ms/op"),
    "landscape.on_axis_critical_points.calls_per_op":
        ("landscape.on_axis_critical_points", "count", "calls/op"),
    "landscape.validate_no_rhp_critical_points.calls_per_op":
        ("landscape.validate_no_rhp_critical_points", "count", "calls/op"),
    "stability.classify.self_ms_per_op": ("stability.classify", "self_ms", "ms/op"),
    "dhym.compute_lifts.self_ms_per_op": ("dhym.compute_lifts", "self_ms", "ms/op"),
    "tracer.graphical_connection.self_ms_per_op":
        ("tracer.graphical_connection", "self_ms", "ms/op"),
    "tracer.points_per_op": ("tracer.points", "count", "points/op"),
    "kempf_ness.run_flow.self_ms_per_op": ("kempf_ness.run_flow", "self_ms", "ms/op"),
    "kempf_ness.flow_steps_per_op": ("kempf_ness.flow_steps", "count", "steps/op"),
    "tracing_overhead_share": (None, "overhead", "1"),
}


def environment(workload, seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
    }


def _call(run, args):
    """run(args), or the exception it raised: failures are judged later."""
    try:
        return run(args)
    except Exception as exc:  # any raise is a failed operation, counted by type
        return exc


def setup_probe(workload, data):
    """Seconds from starting a fresh interpreter to its first operation done."""
    cmd = [sys.executable, str(BENCH / "probe.py"), "setup", workload]
    t0 = monotonic()
    proc = subprocess.run(cmd, input=json.dumps(data), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _verdict_draws():
    gen.InputStream("verdicts", 0).take(8)


_FLOW_X = np.linspace(0.05, 3.0, 257)
_FLOW_P = np.array([0.05, 0.0, -0.2 + 0.1j, 0.3j, 1.0, 0.0])  # highest power first
_FLOW_D = np.cos(np.outer(np.arange(259.0), np.linspace(0.0, 1.0, 259)))


def _flow_steps(steps=20, dt=0.05):
    """RK4 steps of v' = -Im p(x + iv) on 257 nodes, one 259x259 mat-vec each."""
    def rhs(v):
        return -np.polyval(_FLOW_P, _FLOW_X + 1j * v).imag

    v = 0.1 * np.sin(3.0 * _FLOW_X)
    for _ in range(steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _FLOW_D @ np.concatenate([[0.0], v, [0.0]])


# This benchmark was set up on a shared 2-vCPU machine whose speed drifted
# by up to a factor of two within minutes: the verdict draws took from 1.3
# to 2.9 ms.  Timings are therefore rescaled to a fixed machine speed, at
# which each reference computation takes the seconds given here.  Both are
# the benchmark's own code, so no commit of levelgraph changes them.  The
# verdict draws (Python complex arithmetic and small eigenproblems) track
# classify, analyze and interpreter start-up.  run_flow is mostly numpy
# calls on 257-vectors, which the machine's drift slows less, so witness
# uses the flow steps, shaped like its inner loop; at the fixed speed they
# take 3.0 ms, 1.05 times the draws, the median ratio of 20 paired timings.
REFERENCES = {"draws": (_verdict_draws, 2.9e-3), "flow": (_flow_steps, 3.0e-3)}
WORKLOAD_REFERENCE = {"verdicts": "draws", "dhym-sweep": "draws", "witness": "flow"}
# The speed also swings by tens of percent within a second: one witness
# input ran at 0.6 to 1.5 times its median time within a minute.  Over 940
# witness operations, 20-operation blocks spread by 15% (standard deviation)
# uncorrected and by 4% with the flow steps timed around every operation.
# classify and analyze take a few ms, about as long as a reference, so they
# are bracketed per batch; that already holds their spread near 2%.
REFERENCE_EVERY = {"verdicts": 50, "dhym-sweep": 100, "witness": 1}


def reference_seconds(kind="draws"):
    """Median time of three runs of one reference computation."""
    work = REFERENCES[kind][0]
    times = []
    for _ in range(3):
        t0 = perf_counter()
        work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _scale_since(before, kind="draws"):
    """The reference's fixed-speed time over the mean of `before` and a
    fresh reference time."""
    return REFERENCES[kind][1] / (0.5 * (before + reference_seconds(kind)))


def _judge(workload, batch, outs, failures):
    """Count each failed output in `failures` under its reason."""
    for data, out in zip(batch, outs):
        reason = ops.judge(workload, data, out)
        if reason:
            failures[reason] += 1


def _latency_metrics(latencies, busy):
    return {
        "ops_per_s": _metric(len(latencies) / busy, "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": _metric(1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
    }


def planned_ops(workload, seconds, min_ops=MIN_OPS):
    """Timed operations in a run: `seconds` of work at the nominal rate."""
    batch = BATCH[workload]
    whole = -(-round(seconds * OPS_PER_SECOND[workload]) // batch) * batch
    return max(min_ops, whole)


def timed_run(workload, seed, seconds, min_ops=MIN_OPS, setup_probes=SETUP_PROBES):
    """End-to-end metrics: planned_ops() operations timed, tracing off.

    Inputs are generated, and outputs judged, in batches between timed
    stretches; ops_per_s divides the operations by the timed stretches only.
    Every REFERENCE_EVERY operations are bracketed by the workload's
    reference computation, and each set-up probe by the verdict draws; the
    reported times are rescaled to the fixed speed of REFERENCES.  The
    summary keeps the raw wall-clock figures too.
    """
    prepare, run, _ = ops.WORKLOADS[workload]
    stream = gen.InputStream(workload, seed)
    first = stream.take(1)[0]
    raw_setups, setups = [], []
    for _ in range(setup_probes):
        before = reference_seconds()
        raw_setups.append(setup_probe(workload, first))
        setups.append(raw_setups[-1] * _scale_since(before))
    failures = Counter()
    _judge(workload, [first], [_call(run, prepare(first))], failures)  # warm-up

    planned = planned_ops(workload, seconds, min_ops)
    reference = WORKLOAD_REFERENCE[workload]
    fixed_speed, group = REFERENCES[reference][1], REFERENCE_EVERY[workload]
    raw, scaled, busy, scaled_busy, scales = [], [], 0.0, 0.0, []
    while len(raw) < planned and busy < MAX_TIMED_S:
        batch = stream.take(min(BATCH[workload], planned - len(raw)))
        prepared = [prepare(data) for data in batch]
        outs = []
        before = reference_seconds(reference)
        for i in range(0, len(prepared), group):
            times = []
            start = perf_counter()
            for args in prepared[i:i + group]:
                t0 = perf_counter()
                outs.append(_call(run, args))
                times.append(perf_counter() - t0)
            stretch = perf_counter() - start
            after = reference_seconds(reference)
            scale = fixed_speed / (0.5 * (before + after))
            before = after
            scales.append(scale)
            raw.extend(times)
            scaled.extend(t * scale for t in times)
            busy += stretch
            scaled_busy += stretch * scale
        _judge(workload, batch, outs, failures)

    attempted = len(raw) + 1
    failed = sum(failures.values())
    metrics = _latency_metrics(scaled, scaled_busy)
    metrics["setup_s"] = _metric(statistics.median(setups), "s")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    summary = {
        "environment": environment(workload, seed),
        "trace": 0,
        "planned_operations": planned,
        "timed_operations": len(raw),
        "timed_seconds": busy,
        "raw_setup_samples_s": raw_setups,
        "speed_scale_median": statistics.median(scales),
        "raw_wall_clock": {**_latency_metrics(raw, busy),
                           "setup_s": _metric(statistics.median(raw_setups), "s")},
        "failed_share": _metric(failed / attempted, "1"),
        "failures": dict(failures),
        "metrics": metrics,
    }
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return summary, result


def traced_pass(workload, batch):
    """Run every input once under spans.

    Returns (spans, outputs, missing layers, speed scale), the scale being
    the workload's reference measured around the pass (see REFERENCES).
    """
    prepare, run, _ = ops.WORKLOADS[workload]
    spans = tracing.Spans()
    prepared = [prepare(data) for data in batch]
    reference = WORKLOAD_REFERENCE[workload]
    before = reference_seconds(reference)
    with tracing.traced(spans, TRACE_TARGETS) as missing:
        outs = [spans.call("op", _call, run, args) for args in prepared]
    return spans, outs, missing, _scale_since(before, reference)


def tracing_overhead(workload, batch):
    """Traced over untraced time on the same inputs, minus one.

    Each input runs once each way, back to back and with the order
    alternating, so drift in machine speed cancels.  The program has seen
    every input already, so caches across calls favour neither side.
    """
    prepare, run, _ = ops.WORKLOADS[workload]
    plain = traced = 0.0
    for i, data in enumerate(batch):
        for with_spans in ((True, False) if i % 2 else (False, True)):
            args = prepare(data)
            if with_spans:
                spans = tracing.Spans()
                with tracing.traced(spans, TRACE_TARGETS):
                    t0 = perf_counter()
                    spans.call("op", _call, run, args)
                    traced += perf_counter() - t0
            else:
                t0 = perf_counter()
                _call(run, args)
                plain += perf_counter() - t0
    return traced / plain - 1.0


def work_counts(workload, spans, outs):
    """Per-run integer counts: calls per traced function plus output work."""
    counts = Counter({target: 0 for target in TRACE_TARGETS})
    counts.update({"tracer.points": 0, "kempf_ness.flow_steps": 0})
    for name, (calls, _) in spans.totals().items():
        if name != "op":
            counts[name] = calls
    if workload == "witness":
        for out in outs:
            if not isinstance(out, Exception):
                counts.update(ops.witness_work(out))
    return dict(counts)


def _traced_inputs(workload, seed, n_ops):
    """Warm up on input 0, then trace inputs 1..n_ops.

    Returns (inputs, spans, outputs, missing layers, speed scale).
    """
    prepare, run, _ = ops.WORKLOADS[workload]
    stream = gen.InputStream(workload, seed)
    first = stream.take(1)[0]
    _call(run, prepare(first))  # warm-up, as in the timed run
    batch = stream.take(n_ops)
    return (batch, *traced_pass(workload, batch))


def counts_for(workload, seed, n_ops):
    """Work counts of the traced pass alone, as a fresh process sees them."""
    _, spans, outs, _, _ = _traced_inputs(workload, seed, n_ops)
    return work_counts(workload, spans, outs)


def trace_run(workload, seed, n_ops=None):
    """Per-layer metrics from a traced pass over a fixed list of inputs.

    Self times are rescaled to the reference speed, like the end-to-end
    times.  The same inputs then give the tracing overhead, and a fresh
    interpreter repeats the traced pass: its work counts must match
    exactly, or the result is marked incorrect.
    """
    n_ops = n_ops or TRACE_OPS[workload]
    batch, spans, outs, missing, scale = _traced_inputs(workload, seed, n_ops)
    overhead = tracing_overhead(workload, batch)

    counts = work_counts(workload, spans, outs)
    cmd = [sys.executable, str(BENCH / "probe.py"), "counts", workload,
           str(seed), str(n_ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    repeat = json.loads(proc.stdout.splitlines()[-1])

    failures = Counter()
    _judge(workload, batch, outs, failures)
    totals = spans.totals()
    metrics = {}
    for name, (source, quantity, unit) in PER_LAYER.items():
        if quantity == "count":
            value = counts[source] / n_ops
        elif quantity == "self_ms":
            value = 1e3 * totals.get(source, (0, 0.0))[1] * scale / n_ops
        else:
            value = overhead
        metrics[name] = _metric(value, unit)
    failed = sum(failures.values())
    summary = {
        "environment": environment(workload, seed),
        "trace": 1,
        "traced_operations": n_ops,
        "spans": len(spans.names),
        "speed_scale": scale,
        "missing_layers": missing,
        "work_counts": counts,
        "counts_repeat_in_fresh_process": repeat == counts,
        "failed_share": _metric(failed / n_ops, "1"),
        "failures": dict(failures),
        "metrics": metrics,
    }
    result = {"correct": repeat == counts, "attempted": n_ops, "failed": failed,
              "metrics": metrics}
    return summary, result
