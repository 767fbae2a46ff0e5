"""Run one workload for a time budget and turn its cycles into metrics.

An untraced run reports the end-to-end metrics; a traced run alternates
untraced and traced cycles and reports the per-layer metrics, whose call
counts are per cycle and must repeat exactly across traced cycles.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass, field

import spans as tracing
from speed import SpeedMeter
from workloads import CYCLE_ERRORS, WORKLOADS, Config, Cycle

# End-to-end metrics, reported by every workload. An operation is one key
# (keygen), one epoch (train) or one suspect (audit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cycle_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
)
# Set-up spans worth reporting on their own: task generation and the
# bundle build (with its WL hashing) dominate set-up time.
SETUP_SPANS = (
    "data.make_synthetic_task",
    "carriers.build_bundle",
    "graphs.wl_hash",
    "carriers.estimate_rho0",
    "watermark.embed",
)
# Task generation happens only in set-up, so its spans are reported there.
CYCLE_SPANS = tuple(n for n in tracing.SPAN_NAMES if n != "data.make_synthetic_task")
RATIOS = ("carriers.accept_ratio", "carriers.wl_hash_per_carrier", "carriers.dead_zone_rejects")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in CYCLE_SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out.append((tracing.TENSOR_COUNT, "count"))
    for name in SETUP_SPANS:
        out += [(f"setup.{name}.calls", "count"), (f"setup.{name}.self_s", "s")]
    out += [(name, "ratio") for name in RATIOS]
    out += [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
    return out


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def slot_latencies(cycles: list[Cycle]) -> list[float]:
    """Each latency slot's median over the cycles.

    Every cycle repeats the same operations in the same order, so slot i is
    one suspect (audit) or the whole cycle's work (keygen, train). Taking a
    slot's median over cycles first keeps a moment of contention from
    reaching the tail percentiles, which then describe slow operations."""
    return [statistics.median(slot) for slot in zip(*(c.latencies for c in cycles))]


@dataclass
class Cycles:
    """What one run measured, before it is turned into metrics."""

    setup_s: list[float]
    untraced: list[Cycle] = field(default_factory=list)
    traced: list[Cycle] = field(default_factory=list)
    traced_tensors: list[int] = field(default_factory=list)  # per traced cycle
    raw_s: list[float] = field(default_factory=list)  # wall time per untraced cycle
    errors: int = 0


def _measure(workload, meter: SpeedMeter, tracer: tracing.Tracer | None, seconds: float) -> Cycles:
    """Set up, then repeat cycles until ``seconds`` have passed: at least two
    untraced cycles, or with a tracer at least one untraced and one traced,
    alternating."""
    if tracer:
        tracer.install()
    try:
        setup_s = []
        for _ in range(workload.setup_repeats):
            t = meter.now()
            workload.setup()
            setup_s.append(meter.rescale(t, meter.now()))
    finally:
        if tracer:
            tracer.uninstall()
    run = Cycles(setup_s)
    start = meter.now()
    while True:
        if (meter.now() - start) / 1e9 >= seconds and (
            (tracer and run.untraced and run.traced) or (not tracer and len(run.untraced) >= 2)
        ):
            return run
        tracing_now = tracer is not None and len(run.untraced) > len(run.traced)
        # Start every cycle from a collected heap, so that no cycle pays for
        # garbage an earlier one left behind.
        gc.collect()
        raw_before = meter.raw_s
        if tracing_now:
            tracer.trace_id = f"cycle{len(run.traced)}"
            tensors_before = tracer.tensor_count
            tracer.install()
        try:
            cycle = workload.cycle()
        except CYCLE_ERRORS as exc:
            # One failed operation; stop, since every later cycle repeats it.
            run.errors += 1
            print(f"cycle failed: {type(exc).__name__}: {exc}")
            return run
        finally:
            if tracing_now:
                tracer.uninstall()
        if tracing_now:
            run.traced.append(cycle)
            run.traced_tensors.append(tracer.tensor_count - tensors_before)
        else:
            run.untraced.append(cycle)
            run.raw_s.append(meter.raw_s - raw_before)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str, cfg: Config | None = None) -> RunResult:
    meter = SpeedMeter()
    workload = WORKLOADS[name](cfg or Config(), seed, workdir, meter)
    # Spans are read on the meter's clock and rescaled like every other time.
    tracer = tracing.Tracer(meter.now, meter.scaled_s) if trace else None
    with meter:
        run = _measure(workload, meter, tracer, seconds)
    cycles = run.untraced + run.traced
    reference = cycles[0].digest if cycles else None
    result = RunResult(
        attempted=run.errors + sum(c.ops for c in cycles),
        failed=run.errors + sum(c.ops if c.digest != reference else c.failed for c in cycles),
        metrics={},
        digests=[c.digest for c in cycles],
        tracer=tracer,
    )
    if not run.untraced or (trace and not run.traced):
        return result

    untraced = run.untraced
    latencies = slot_latencies(untraced)
    samples = len(latencies) * len(untraced)
    ops = sum(c.ops for c in untraced)
    e2e = {
        "setup_s": (statistics.median(run.setup_s), len(run.setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "cycle_s": (statistics.median(c.seconds for c in untraced), len(untraced)),
        "op_p50_ms": (1000.0 * statistics.median(latencies), samples),
        "op_p90_ms": (1000.0 * nearest_rank(latencies, 0.9), samples),
        "ops_per_s": (ops / sum(c.seconds for c in untraced), ops),
    }
    lines = result.lines
    lines.append(
        f"{name} seed={seed}: {len(untraced)} untraced"
        + (f" + {len(run.traced)} traced" if trace else "")
        + f" cycles; {workload.op}s attempted={result.attempted} failed={result.failed}"
    )
    lines.append(f"  latency slot: {workload.latency}")
    lines.append(
        f"  times are rescaled to a fixed core speed; raw wall time of a cycle: "
        f"median {statistics.median(run.raw_s):.6g} s, range {min(run.raw_s):.6g}-{max(run.raw_s):.6g} s"
    )
    for metric, unit in END_TO_END:
        value, n = e2e[metric]
        better = "higher" if metric == "ops_per_s" else "lower"
        lines.append(f"  {metric:<24} {value:.6g} {unit} (n={n}, {better} is better)")
    lines += _workload_lines(name, untraced)
    lines.append(f"  digest {reference}")
    if trace:
        layer = _per_layer(run, tracer, e2e["cycle_s"][0], result)
        result.metrics = {m: (layer[m], unit) for m, unit in per_layer_names()}
    else:
        result.metrics = {m: (e2e[m][0], unit) for m, unit in END_TO_END}
    return result


def _per_layer(run: Cycles, tracer: tracing.Tracer, cycle_s: float, result: RunResult) -> dict[str, float]:
    """Per-layer metrics of a traced run; call counts that differ between
    traced cycles fail the run."""
    by_trace = tracing.summarize(tracer.spans, tracer.seconds)
    summaries = [by_trace[f"cycle{i}"] for i in range(len(run.traced))]
    layer: dict[str, float] = {}
    for span_name in CYCLE_SPANS:
        calls = {s[span_name][0] for s in summaries}
        if len(calls) != 1:
            result.failed += 1
            result.lines.append(f"  {span_name}: call counts differ across traced cycles: {sorted(calls)}")
        layer[f"{span_name}.calls"] = float(summaries[0][span_name][0])
        layer[f"{span_name}.self_s"] = statistics.median(s[span_name][1] for s in summaries)
    if len(set(run.traced_tensors)) != 1:
        result.failed += 1
    layer[tracing.TENSOR_COUNT] = float(run.traced_tensors[0])
    setup = by_trace["setup"]
    for span_name in SETUP_SPANS:
        layer[f"setup.{span_name}.calls"] = float(setup[span_name][0])
        layer[f"setup.{span_name}.self_s"] = setup[span_name][1]
    layer.update(tracing.carrier_ratios(tracer.spans) or {r: 0.0 for r in RATIOS})
    traced_s = statistics.median(c.seconds for c in run.traced)
    layer["trace.overhead_s"] = traced_s - cycle_s
    layer["trace.overhead_share"] = (traced_s - cycle_s) / cycle_s
    result.lines.append(
        f"  trace: {len(tracer.spans)} spans, overhead {layer['trace.overhead_share']:+.2%} of a cycle; "
        "self times are rescaled like every other time"
    )
    for metric, unit in per_layer_names():
        if layer[metric]:
            result.lines.append(f"  {metric:<44} {layer[metric]:.6g} {unit}")
    return layer


def _workload_lines(name: str, cycles: list[Cycle]) -> list[str]:
    """The workload's own metrics, by the names the benchmark notes use."""
    lines = []
    for stage in cycles[0].stages:
        value = statistics.median(c.stages[stage] for c in cycles)
        lines.append(f"  {stage:<24} {value:.6g} s (n={len(cycles)}, lower is better)")
    if name == "audit":
        slots = slot_latencies(cycles)
        n = len(slots) * len(cycles)
        total = sum(s for c in cycles for s in c.latencies)
        lines.append(f"  {'audit_p50_ms':<24} {1000 * statistics.median(slots):.6g} ms (n={n}, lower is better)")
        lines.append(f"  {'audit_p90_ms':<24} {1000 * nearest_rank(slots, 0.9):.6g} ms (n={n}, lower is better)")
        lines.append(f"  {'audit_suspects_per_s':<24} {n / total:.6g} 1/s (n={n}, higher is better)")
    for key, value in cycles[0].notes.items():
        if key.endswith("_acc"):
            lines.append(f"  {key:<24} {value:.6g} (n=1, higher is better)")
        else:
            lines.append(f"  {key} {value}")
    return lines
