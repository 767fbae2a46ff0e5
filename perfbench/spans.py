"""In-memory span tracing of invmark's public functions, from outside the package.

A ``Tracer`` rebinds each traced function's name in every loaded ``invmark``
module that holds it (so calls between modules and calls inside the defining
module are both seen), records one span per call and restores the original
objects on ``uninstall``. Spans stay in memory until the run writes them out.
Only span names, times, parent links, trace ids and small per-call notes
(a boolean or an integer) are recorded: never arguments or results, so no
key material can reach a trace.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: int  # integer reading of the tracer's clock
    end: int
    parent: int  # index of the causing span, -1 for a root
    trace_id: str
    note: int | None = None


# (span name, defining module, attribute, note on the result).
# Notes let the run derive ratios where the work happens: a successful
# carrier attempt, and the number of carriers a bundle holds.
TRACED = (
    ("data.make_synthetic_task", "invmark.data", "make_synthetic_task", None),
    ("graphs.wl_hash", "invmark.graphs", "wl_hash", None),
    ("graphs.lambda2", "invmark.graphs", "lambda2", None),
    ("graphs.local_clustering", "invmark.graphs", "local_clustering", None),
    ("graphs.graph_statistics", "invmark.graphs", "graph_statistics", None),
    ("graphs.degree_features", "invmark.graphs", "degree_features", None),
    ("carriers.build_bundle", "invmark.carriers", "build_bundle", lambda b: b.m),
    ("carriers.sample_carrier", "invmark.carriers", "sample_carrier", lambda c: int(c is not None)),
    ("carriers.double_edge_swap", "invmark.carriers", "double_edge_swap", None),
    ("carriers.ks_two_sample", "invmark.carriers", "ks_two_sample", None),
    ("carriers.estimate_rho0", "invmark.carriers", "estimate_rho0", None),
    ("carriers.bundle_from_dict", "invmark.carriers", "bundle_from_dict", None),
    ("calibration.monte_carlo_null", "invmark.calibration", "monte_carlo_null", None),
    ("nn.gcn_norm_matrix", "invmark.nn.model", "gcn_norm_matrix", None),
    ("nn.perception_score", "invmark.nn.model", "perception_score", None),
    ("nn.batch_task_loss", "invmark.nn.model", "batch_task_loss", None),
    ("nn.batch_logits", "invmark.nn.model", "batch_logits", None),
    ("nn.model_from_checkpoint", "invmark.nn.model", "model_from_checkpoint", None),
    ("nn.adam_step", "invmark.nn.optim", "adam_step", None),
    ("nn.spectral_norm", "invmark.nn.optim", "apply_spectral_norm_inplace", None),
    ("watermark.embed", "invmark.watermark", "embed", None),
    ("watermark.wm_loss", "invmark.watermark", "wm_loss", None),
    ("watermark.carrier_scores", "invmark.watermark", "carrier_scores", None),
    ("watermark.verify", "invmark.watermark", "verify", None),
    ("attacks.finetune", "invmark.attacks", "finetune", None),
    ("attacks.kd", "invmark.attacks", "kd", None),
    ("reports.read_report", "invmark.reports", "read_report", None),
)
# Methods of the tape's Tensor class: backward gets spans; construction
# (which runs a finiteness check) is only counted, since it happens tens of
# thousands of times per epoch.
BACKWARD_SPAN = "nn.backward"
TENSOR_COUNT = "nn.tensor.count"
SPAN_NAMES = tuple(name for name, *_ in TRACED) + (BACKWARD_SPAN,)


def _seconds(start: int, end: int) -> float:
    """Seconds between two ``time.perf_counter_ns`` readings."""
    return (end - start) / 1e9


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self, clock=time.perf_counter_ns, seconds=_seconds):
        """``clock`` reads integers; ``seconds(a, b)`` turns two readings into
        the seconds reported for that interval and is never negative."""
        self.clock = clock
        self.seconds = seconds
        self.spans: list[Span] = []
        self.tensor_count = 0
        self.trace_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), 0, stack[-1] if stack else -1, self.trace_id)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(result)
                return result
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr, note in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original, note)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "invmark" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        tensor = sys.modules["invmark.nn.tape"].Tensor
        self._patch(tensor, "backward", self._wrap(BACKWARD_SPAN, tensor.backward))
        init = tensor.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            self.tensor_count += 1
            init(obj, *args, **kwargs)

        self._patch(tensor, "__init__", counted_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, run_id: str):
        """Gzipped JSON lines, one per span; ids are indices into the file."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run": run_id,
                    "trace": s.trace_id,
                }
                if s.note is not None:
                    rec["note"] = s.note
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span], seconds=_seconds) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of a span run one after another inside it, so the span less its
    children is a run of pieces; ``seconds`` is applied to each piece and the
    results are summed. Nothing is subtracted, so a self time is never
    negative however ``seconds`` weighs time."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        total, t = 0.0, s.start
        for k in kids:
            total += seconds(t, spans[k].start)
            t = spans[k].end
        out.append(total + seconds(t, s.end))
    return out


def check_tree(spans: list[Span]) -> None:
    """Raise ValueError unless every span nests inside the span that caused it."""
    for i, s in enumerate(spans):
        if s.end < s.start:
            raise ValueError(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= i or s.parent < -1:
            raise ValueError(f"span {i} ({s.name}) has parent {s.parent} not before it")
        if s.parent >= 0:
            p = spans[s.parent]
            if not (p.start <= s.start and s.end <= p.end) or p.trace_id != s.trace_id:
                raise ValueError(f"span {i} ({s.name}) escapes its parent {s.parent}")


def summarize(spans: list[Span], seconds=_seconds) -> dict[str, dict[str, tuple[int, float]]]:
    """(calls, self seconds) per span name, for each trace id."""
    totals: dict[str, dict[str, list]] = {}
    for s, self_s in zip(spans, self_times(spans, seconds)):
        entry = totals.setdefault(s.trace_id, {name: [0, 0.0] for name in SPAN_NAMES})[s.name]
        entry[0] += 1
        entry[1] += self_s
    return {
        trace: {name: (calls, sec) for name, (calls, sec) in names.items()}
        for trace, names in totals.items()
    }


def carrier_ratios(spans: list[Span]) -> dict[str, float] | None:
    """Carrier protocol ratios over every traced build_bundle call.

    accept_ratio is carriers over carrier attempts, wl_hash_per_carrier counts
    WL hashes made inside the builds per carrier, and dead_zone_rejects counts
    attempts per build that passed every gate but landed in the target dead
    zone. None when no bundle was built.
    """
    inside: set[int] = set()  # builds and every span they caused
    for i, s in enumerate(spans):
        if s.name == "carriers.build_bundle" or s.parent in inside:
            inside.add(i)
    builds = [spans[i] for i in inside if spans[i].name == "carriers.build_bundle"]
    if not builds:
        return None
    carriers = sum(b.note or 0 for b in builds)
    attempts = passed = hashes = 0
    for i in inside:
        s = spans[i]
        if s.name == "carriers.sample_carrier":
            attempts += 1
            passed += s.note or 0
        elif s.name == "graphs.wl_hash":
            hashes += 1
    return {
        "carriers.accept_ratio": carriers / attempts,
        "carriers.wl_hash_per_carrier": hashes / carriers,
        "carriers.dead_zone_rejects": (passed - carriers) / len(builds),
    }
