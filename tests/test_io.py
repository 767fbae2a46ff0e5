import hashlib
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmark.carriers import bundle_from_dict
from invmark.cli import main
from invmark.data import load_tudataset, make_synthetic_task
from invmark.errors import (
    IndexOutOfRangeError,
    InvmarkError,
    MalformedLineError,
    MissingFileError,
    ReportIOError,
)
from invmark.graphs import Graph
from invmark.pipeline import load_task
from invmark.reports import canonical_json, emit_report, read_report


# --- TUDataset ---------------------------------------------------------------------


def save_tudataset(dataset: list[tuple[Graph, int]], dir_path: str, name: str):
    """Emit a dataset back to the TUDataset layout (inverse of load_tudataset)."""
    os.makedirs(dir_path, exist_ok=True)
    adj, ind, lab = [], [], []
    node_lab: list[int] = []
    has_onehot = all(
        g.node_features is not None and g.node_features.shape[1] > 0 for g, _ in dataset
    )
    offset = 0
    for gid, (g, label) in enumerate(dataset, start=1):
        for u, v in g.edges:
            adj.append(f"{offset + u + 1}, {offset + v + 1}")
            adj.append(f"{offset + v + 1}, {offset + u + 1}")
        ind.extend([str(gid)] * g.node_count)
        lab.append(str(label))
        if has_onehot:
            for row in g.node_features:
                node_lab.append(int(np.argmax(row)))
        offset += g.node_count
    with open(os.path.join(dir_path, f"{name}_A.txt"), "w") as fh:
        fh.write("\n".join(adj) + ("\n" if adj else ""))
    with open(os.path.join(dir_path, f"{name}_graph_indicator.txt"), "w") as fh:
        fh.write("\n".join(ind) + "\n")
    with open(os.path.join(dir_path, f"{name}_graph_labels.txt"), "w") as fh:
        fh.write("\n".join(lab) + "\n")
    if has_onehot:
        with open(os.path.join(dir_path, f"{name}_node_labels.txt"), "w") as fh:
            fh.write("\n".join(str(x) for x in node_lab) + "\n")


# Two hand-written graphs: a triangle (label 1) and a path P3 (label 0). Node
# labels: triangle nodes carbon (0), path nodes carbon/nitrogen/carbon. Both
# edge directions are listed, exercising the dedup rule.
TOY = {
    "A": "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n5, 6\n6, 5\n",
    "graph_indicator": "1\n1\n1\n2\n2\n2\n",
    "graph_labels": "1\n0\n",
    "node_labels": "0\n0\n0\n0\n1\n0\n",
}


def _write_tu(dir_path, files: dict):
    """Write ``files`` (suffix to text or bytes; None leaves the file out) as the TOY layout."""
    os.makedirs(dir_path, exist_ok=True)
    for suffix, content in files.items():
        if content is not None:
            with open(os.path.join(dir_path, f"TOY_{suffix}.txt"), "wb") as fh:
                fh.write(content if isinstance(content, bytes) else content.encode())


def test_tu_fixture_loads_expected_graphs(tmp_path):
    _write_tu(str(tmp_path), TOY)
    pairs = load_tudataset(str(tmp_path))
    assert len(pairs) == 2
    (g1, y1), (g2, y2) = pairs
    assert y1 == 1 and y2 == 0
    assert g1.edges == ((0, 1), (0, 2), (1, 2))  # triangle, deduped
    assert g2.edges == ((0, 1), (1, 2))  # path
    assert g1.node_features.shape == (3, 2)
    assert np.array_equal(g2.node_features[1], [0.0, 1.0])  # the nitrogen node


def test_tu_roundtrip(tmp_path):
    _write_tu(str(tmp_path / "src"), TOY)
    pairs = load_tudataset(str(tmp_path / "src"))
    save_tudataset(pairs, str(tmp_path / "dst"), "ROUND")
    reloaded = load_tudataset(str(tmp_path / "dst"))
    assert len(reloaded) == len(pairs)
    for (g_a, y_a), (g_b, y_b) in zip(pairs, reloaded):
        assert y_a == y_b
        assert g_a.node_count == g_b.node_count
        assert g_a.edges == g_b.edges
        assert np.array_equal(g_a.node_features, g_b.node_features)


def test_tu_zero_indexed_indicator_rejected(tmp_path):
    _write_tu(str(tmp_path), TOY)
    with open(os.path.join(str(tmp_path), "TOY_graph_indicator.txt"), "w") as fh:
        fh.write("\n".join(["0"] + ["1"] * 2 + ["2"] * 3) + "\n")
    with pytest.raises(MalformedLineError):
        load_tudataset(str(tmp_path))


def test_tu_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        load_tudataset(str(tmp_path))
    _write_tu(str(tmp_path), TOY)
    os.remove(os.path.join(str(tmp_path), "TOY_graph_labels.txt"))
    with pytest.raises(MissingFileError):
        load_tudataset(str(tmp_path))


def test_tu_cross_graph_edge_rejected(tmp_path):
    _write_tu(str(tmp_path), TOY)
    with open(os.path.join(str(tmp_path), "TOY_A.txt"), "a") as fh:
        fh.write("3, 4\n")
    with pytest.raises(IndexOutOfRangeError):
        load_tudataset(str(tmp_path))


def _toy(**files) -> dict:
    return {**TOY, **files}


_TOY_GRAPHS = [
    (3, ((0, 1), (0, 2), (1, 2)), [[1, 0], [1, 0], [1, 0]], 1),
    (3, ((0, 1), (1, 2)), [[1, 0], [0, 1], [1, 0]], 0),
]
_SKIPPED_ID = {"graph_indicator": "1\n1\n1\n3\n3\n3\n", "graph_labels": "1\n0\n1\n"}

# Each case: the files of a directory, and the graphs it loads as
# (node count, edges, one-hot rows or None, label), or the error class and
# message it raises. The last five cases pin the typed errors for a graph id
# with no nodes, non-finite labels and a file that is not UTF-8 text.
TU_CASES = [
    pytest.param(TOY, _TOY_GRAPHS, id="fixture"),
    pytest.param(
        _toy(
            graph_indicator="1\n2\n1\n2\n1\n2\n",
            A="1, 3\n3, 5\n5, 1\n2, 4\n4, 6\n",
            node_labels="0\n0\n0\n1\n0\n0\n",
        ),
        _TOY_GRAPHS,
        id="interleaved-node-ids",
    ),
    pytest.param(
        _toy(
            A="\n1, 2\n2, 3\n \n  3 ,1  \n4, 5\n5, 6\n\n",
            graph_indicator="\n1\n  \n1\n1\n2\n2\n2\n\n",
            graph_labels=" 1 \n\n0\n",
            node_labels="0\n\n0\n0\n0\n\t1\n0\n",
        ),
        _TOY_GRAPHS,
        id="blank-lines",
    ),
    pytest.param(
        {name: text.replace("\n", "\r\n") for name, text in TOY.items()}, _TOY_GRAPHS, id="crlf-line-ends"
    ),
    pytest.param(
        _toy(graph_labels="2.9\n-1.5e0\n", node_labels="0.0\n0\n0\n0\n7.9\n-0.5\n"),
        [(n, edges, rows, label) for (n, edges, rows, _), label in zip(_TOY_GRAPHS, (2, -1))],
        id="float-labels",
    ),
    pytest.param(_toy(A=TOY["A"] + "1, 1\n6, 6\n"), _TOY_GRAPHS, id="self-loops"),
    pytest.param(
        _toy(A=""), [(n, (), rows, label) for n, _, rows, label in _TOY_GRAPHS], id="empty-edge-file"
    ),
    pytest.param(_toy(A=TOY["A"].replace(",", "")), _TOY_GRAPHS, id="no-comma"),
    pytest.param(
        _toy(node_labels=None), [(n, edges, None, label) for n, edges, _, label in _TOY_GRAPHS], id="no-node-labels"
    ),
    pytest.param(
        _toy(graph_indicator="1\nx\n1\n2\n2\n2\n"), (MalformedLineError, "{ind}:2: expected an integer"),
        id="indicator-text",
    ),
    pytest.param(
        _toy(graph_indicator="1.5\n1\n1\n2\n2\n2\n"), (MalformedLineError, "{ind}:1: expected an integer"),
        id="indicator-float",
    ),
    pytest.param(
        _toy(graph_indicator="0\n1\n1\n2\n2\n2\n"),
        (MalformedLineError, "{ind}:1: graph ids are 1-indexed, got 0"),
        id="indicator-zero",
    ),
    pytest.param(
        _toy(graph_indicator="1\n1\n1\n-1\n2\n2\n"),
        (MalformedLineError, "{ind}:4: graph ids are 1-indexed, got -1"),
        id="indicator-negative",
    ),
    pytest.param(
        _toy(graph_indicator="0\n1\nx\n2\n2\n2\n"),
        (MalformedLineError, "{ind}:1: graph ids are 1-indexed, got 0"),
        id="indicator-first-bad-line-wins",
    ),
    pytest.param(_toy(graph_indicator="\n \n"), (MalformedLineError, "{ind}:1: no nodes"), id="indicator-empty"),
    pytest.param(
        _toy(graph_indicator="1\n1\n1\n2\n2\n99999999999999999999999\n"),
        (IndexOutOfRangeError, "{lab}: 2 labels for 99999999999999999999999 graphs"),
        id="indicator-huge-id",
    ),
    pytest.param(_toy(graph_labels="1\nx\n"), (MalformedLineError, "{lab}:2: expected a number"), id="label-text"),
    pytest.param(_toy(graph_labels="nan\n0\n"), (MalformedLineError, "{lab}:1: expected a number"), id="label-nan"),
    pytest.param(
        _toy(graph_labels="1\n"), (IndexOutOfRangeError, "{lab}: 1 labels for 2 graphs"), id="labels-too-few"
    ),
    pytest.param(
        _toy(graph_labels="1\n0\n1\n"), (IndexOutOfRangeError, "{lab}: 3 labels for 2 graphs"), id="labels-too-many"
    ),
    pytest.param(
        _toy(graph_labels="x\n0\n", node_labels="x\n"),
        (MalformedLineError, "{lab}:1: expected a number"),
        id="graph-labels-before-node-labels",
    ),
    pytest.param(
        _toy(node_labels="0\n0\n0\n0\nx\n0\n"), (MalformedLineError, "{nl}:5: expected a number"),
        id="node-label-text",
    ),
    pytest.param(
        _toy(node_labels="0\nnan\n0\n0\n1\n0\n"), (MalformedLineError, "{nl}:2: expected a number"),
        id="node-label-nan",
    ),
    pytest.param(
        _toy(node_labels="0\n0\n0\n0\n1\n"), (IndexOutOfRangeError, "{nl}: 5 labels for 6 nodes"),
        id="node-labels-too-few",
    ),
    pytest.param(_toy(A=TOY["A"] + "1, 2, 3\n"), (MalformedLineError, "{A}:11: expected `u, v`"), id="edge-triple"),
    pytest.param(_toy(A=TOY["A"] + "1\n"), (MalformedLineError, "{A}:11: expected `u, v`"), id="edge-single"),
    pytest.param(_toy(A=TOY["A"] + "1, x\n"), (MalformedLineError, "{A}:11: expected integers"), id="edge-text"),
    pytest.param(_toy(A="1.5, 2\n"), (MalformedLineError, "{A}:1: expected integers"), id="edge-float"),
    pytest.param(_toy(A=TOY["A"] + "0, 1\n"), (IndexOutOfRangeError, "{A}:11: node id out of range"), id="edge-zero"),
    pytest.param(_toy(A=TOY["A"] + "6, 7\n"), (IndexOutOfRangeError, "{A}:11: node id out of range"), id="edge-beyond"),
    pytest.param(_toy(A=TOY["A"] + "3, 4\n"), (IndexOutOfRangeError, "{A}:11: edge crosses graphs"), id="edge-cross"),
    pytest.param(
        _toy(A="1, x\n", **_SKIPPED_ID), (MalformedLineError, "{A}:1: expected integers"),
        id="edge-error-before-skipped-id",
    ),
    pytest.param(_toy(graph_labels=None), (MissingFileError, "{lab}"), id="no-graph-labels"),
    pytest.param(_toy(graph_indicator=None), (MissingFileError, "{ind}"), id="no-indicator"),
    pytest.param(_toy(A=None), (MissingFileError, "no *_A.txt file in {dir}"), id="no-edge-file"),
    pytest.param(None, (MissingFileError, "no *_A.txt file in {dir}"), id="no-directory"),
    pytest.param(_toy(**_SKIPPED_ID), (IndexOutOfRangeError, "{ind}: graph 2 has no nodes"), id="skipped-graph-id"),
    pytest.param(_toy(graph_labels="inf\n0\n"), (MalformedLineError, "{lab}:1: expected a number"), id="label-inf"),
    pytest.param(_toy(graph_labels="1\n1e400\n"), (MalformedLineError, "{lab}:2: expected a number"), id="label-1e400"),
    pytest.param(
        _toy(node_labels="0\n0\n-inf\n0\n1\n0\n"), (MalformedLineError, "{nl}:3: expected a number"),
        id="node-label-minus-inf",
    ),
    pytest.param(
        _toy(node_labels=b"0\n\xff\n0\n0\n1\n0\n"), (MalformedLineError, "{nl}:2: not UTF-8 text"),
        id="node-labels-not-utf8",
    ),
]


@pytest.mark.parametrize("files, expected", TU_CASES)
def test_tu_characterisation(tmp_path, files, expected):
    dir_path = str(tmp_path / "tu")
    if files is not None:
        _write_tu(dir_path, files)
    if isinstance(expected, tuple):
        error, message = expected
        paths = {key: os.path.join(dir_path, f"TOY_{suffix}.txt") for key, suffix in
                 [("A", "A"), ("ind", "graph_indicator"), ("lab", "graph_labels"), ("nl", "node_labels")]}
        with pytest.raises(error) as info:
            load_tudataset(dir_path)
        assert str(info.value) == message.format(dir=dir_path, **paths)
        return
    pairs = load_tudataset(dir_path)
    assert len(pairs) == len(expected)
    for (g, label), (n, edges, rows, want_label) in zip(pairs, expected):
        assert (g.node_count, g.edges, label) == (n, edges, want_label)
        assert type(label) is int and all(type(i) is int for edge in g.edges for i in edge)
        if rows is None:
            assert g.node_features is None
        else:
            assert g.node_features.dtype == np.float64 and np.array_equal(g.node_features, rows)


def test_gen_carriers_writes_a_bundle_from_a_tudataset(tmp_path, capsys):
    task = make_synthetic_task(60, seed=1)
    save_tudataset(list(zip(task.graphs, task.labels.tolist())), str(tmp_path / "tu"), "SYN")
    out = str(tmp_path / "bundle.json")
    assert main(["gen-carriers", "--seed", "1", "--m", "4", "--tu-dir", str(tmp_path / "tu"), "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert len(bundle_from_dict(read_report(out)).carriers) == 4


# A triangle, an isolated node and a path: one edit to the isolated node's
# indicator line leaves graph 2 without nodes.
_FUZZ_FILES = {
    "A": "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n5, 6\n6, 5\n6, 7\n7, 6\n",
    "graph_indicator": "1\n1\n1\n2\n3\n3\n3\n",
    "graph_labels": "1\n1\n0\n",
    "node_labels": "0\n0\n0\n2\n0\n1\n0\n",
}
_LINE_VALUES = ["", "0", "-1", "x", "1.5", "nan", "inf", "1e400", "1, 2, 3", "3, 4"]


@st.composite
def mutated_tu_files(draw):
    """The fuzz fixture with one line of one file replaced, deleted or duplicated."""
    suffix = draw(st.sampled_from(sorted(_FUZZ_FILES)))
    lines = _FUZZ_FILES[suffix].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        lines[i] = draw(st.sampled_from(_LINE_VALUES))
    elif action == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return {**_FUZZ_FILES, suffix: "".join(line + "\n" for line in lines)}


@given(mutated_tu_files(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_mutated_tudataset_gives_a_task_or_a_typed_error(files, seed):
    with tempfile.TemporaryDirectory() as dir_path:
        _write_tu(dir_path, files)
        try:
            task = load_task(10, seed, dir_path)
        except InvmarkError:
            return
    assert len(task.graphs) == len(task.labels) == 3


# --- synthetic task ----------------------------------------------------------------


def _task_digest(task) -> str:
    """sha256 over each graph's node count, edges and features, the labels and the three splits."""
    h = hashlib.sha256()
    for g in task.graphs:
        h.update(np.array([g.node_count, len(g.edges)], dtype=np.int64).tobytes())
        h.update(np.array(g.edges, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(g.node_features, dtype=np.float64).tobytes())
    for part in (task.labels, task.train_idx, task.val_idx, task.test_idx):
        h.update(np.asarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "81854bf89bfc46c4ccfbb328ca99acf88909180d3a2a21bba4e3f5677ab87808"),
        (2, "4571285fc0d7cbb81d69cdca1517a99087622cb0217ae222958ecba7e80aa695"),
    ],
)
def test_synthetic_task_is_pinned(seed, digest):
    assert _task_digest(make_synthetic_task(600, seed)) == digest


def test_synthetic_task_deterministic():
    a = make_synthetic_task(60, seed=4)
    b = make_synthetic_task(60, seed=4)
    for x, y in zip(a.graphs, b.graphs, strict=True):
        assert (x.node_count, x.edges) == (y.node_count, y.edges)
        assert np.array_equal(x.node_features, y.node_features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.train_idx, b.train_idx)


@pytest.mark.parametrize("source", ["synthetic", "tudataset"])
def test_synthetic_task_balance_and_splits(tmp_path, source):
    task = make_synthetic_task(120, seed=6)
    if source == "tudataset":
        # save -> load_task re-splits the same labels with its own stream
        save_tudataset(list(zip(task.graphs, task.labels.tolist())), str(tmp_path), "SYN")
        task = load_task(120, 6, str(tmp_path))
    ones = int(task.labels.sum())
    assert abs(ones - 60) <= 1
    all_idx = np.concatenate([task.train_idx, task.val_idx, task.test_idx])
    assert sorted(all_idx) == list(range(120))
    for idx in (task.train_idx, task.val_idx, task.test_idx):
        frac = task.labels[idx].mean()
        assert 0.4 <= frac <= 0.6  # label balance within 10 points of parity
    assert len(task.train_idx) == 96
    assert len(task.val_idx) == 12


def test_synthetic_task_features_present():
    task = make_synthetic_task(20, seed=1)
    for g in task.graphs:
        assert g.node_features is not None
        assert g.node_features.shape == (g.node_count, 4)
        assert 10 <= g.node_count <= 30


def test_synthetic_task_too_small():
    with pytest.raises(ValueError):
        make_synthetic_task(5, seed=0)


# --- canonical reports ---------------------------------------------------------------


def test_canonical_json_stable_bytes(tmp_path):
    doc = {"b": 1.5, "a": [1, 2, {"z": 0.1, "y": "s"}]}
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    emit_report(doc, p1)
    emit_report(doc, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert read_report(p1) == doc


def test_reports_are_replaced_whole_and_owner_only(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("old")
    os.chmod(path, 0o644)
    emit_report({"a": 1}, str(path))
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    assert read_report(str(path)) == {"a": 1}
    with pytest.raises(ReportIOError):
        emit_report({"a": 2}, str(tmp_path))  # a directory cannot be replaced
    assert os.listdir(tmp_path) == ["r.json"]  # no temporary file is left behind


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ReportIOError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ReportIOError):
        canonical_json({"x": [float("inf")]})


def test_canonical_json_float_roundtrip():
    vals = [0.1, 1.0 / 3.0, 1e-300, 123456.789012345]
    doc = {"vals": vals}
    import json

    assert json.loads(canonical_json(doc))["vals"] == vals
