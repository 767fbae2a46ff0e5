"""Tests of the benchmark's tracing, on a workload small enough to run in seconds.

Run from the root of the repository: python3 -m pytest perfbench/tests -q
"""

import gzip
import json
import sys

import pytest

import spans
from runner import per_layer_names, run_workload
from workloads import Config

TINY = Config(
    n_graphs=100,
    m=16,
    alpha=0.05,
    mc_trials=10**4,
    train_epochs=(("embed", 2), ("finetune", 1), ("kd", 1), ("kd_wm", 1)),
    owner_epochs=10,
    prune_fractions=(0.1,),
    quantize_bits=(8,),
    unrelated_models=4,
)
WORKLOADS = ("keygen", "train", "audit")


def _bindings():
    found = {}
    for _, module_name, attr, _ in spans.TRACED:
        original = getattr(sys.modules[module_name], attr)
        for mod_name, mod in sys.modules.items():
            if mod_name.split(".")[0] == "invmark" and getattr(mod, attr, None) is original:
                found[(mod_name, attr)] = original
    tensor = sys.modules["invmark.nn.tape"].Tensor
    for attr in ("backward", "__init__"):
        found[("Tensor", attr)] = tensor.__dict__[attr]
    return found


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(untraced, traced) result of every workload at seed 1, and the
    package's bindings from before the first run."""
    out = {"bindings": _bindings()}
    for name in WORKLOADS:
        out[name] = tuple(
            run_workload(name, 1, 0.0, trace, str(tmp_path_factory.mktemp(name)), TINY)
            for trace in (False, True)
        )
    return out


def test_uninstall_restores_every_original(runs):
    before = _bindings()
    assert before == runs["bindings"] and all(before[k] is runs["bindings"][k] for k in before)
    tracer = spans.Tracer()
    tracer.install()
    try:
        import invmark.carriers
        import invmark.nn.tape

        assert invmark.carriers.wl_hash is not before[("invmark.graphs", "wl_hash")]
        assert invmark.nn.tape.Tensor.__dict__["backward"] is not before[("Tensor", "backward")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tensor = sys.modules["invmark.nn.tape"].Tensor
    assert tensor.__dict__["__init__"] is before[("Tensor", "__init__")]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_gives_the_untraced_digests_and_decisions(runs, name):
    untraced, traced = runs[name]
    assert untraced.digests and traced.digests
    assert set(untraced.digests) == set(traced.digests) and len(set(traced.digests)) == 1
    assert (untraced.attempted, untraced.failed) == (traced.attempted, traced.failed)
    assert traced.correct


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_form_a_tree_with_nonnegative_self_time(runs, name):
    tracer = runs[name][1].tracer
    assert tracer.spans
    spans.check_tree(tracer.spans)
    # Rescaled self times, as reported, and plain wall time.
    assert min(spans.self_times(tracer.spans, tracer.seconds)) >= 0
    assert min(spans.self_times(tracer.spans)) >= 0
    assert any(s.parent >= 0 for s in tracer.spans)


def test_check_tree_rejects_a_child_outside_its_parent():
    good = [spans.Span("a", 0, 10, -1, "t"), spans.Span("b", 2, 5, 0, "t"), spans.Span("c", 5, 9, 0, "t")]
    spans.check_tree(good)
    assert spans.self_times(good, lambda a, b: b - a) == [3, 3, 4]
    with pytest.raises(ValueError):
        spans.check_tree([spans.Span("a", 0, 10, -1, "t"), spans.Span("b", 8, 12, 0, "t")])
    with pytest.raises(ValueError):
        spans.check_tree([spans.Span("a", 0, 10, 1, "t"), spans.Span("b", 1, 2, -1, "t")])


def test_per_layer_metrics_are_complete_and_written_spans_carry_no_values(runs, tmp_path):
    traced = runs["keygen"][1]
    names = [n for n, _ in per_layer_names()]
    assert list(traced.metrics) == names
    assert traced.metrics["graphs.wl_hash.calls"][0] > 0
    assert 0 < traced.metrics["carriers.accept_ratio"][0] <= 1
    path = tmp_path / "trace.jsonl.gz"
    traced.tracer.write(str(path), "keygen-seed1")
    allowed = {"id", "name", "start", "end", "parent", "run", "trace", "note"}
    for line in gzip.open(path, "rt").read().splitlines():
        rec = json.loads(line)
        assert set(rec) <= allowed
        assert isinstance(rec.get("note", 0), int)
