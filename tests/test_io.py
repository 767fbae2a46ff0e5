import os
import stat

import numpy as np
import pytest

from invmark.data import load_tudataset, make_synthetic_task
from invmark.errors import (
    IndexOutOfRangeError,
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


def _write_tu_fixture(dir_path):
    """Two hand-written graphs: a triangle (label 1) and a path P3 (label 0).

    Node labels: triangle nodes carbon(0), path nodes carbon/nitrogen.
    Both edge directions are listed, exercising the dedup rule.
    """
    os.makedirs(dir_path, exist_ok=True)
    adj = [
        "1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1",  # triangle on nodes 1..3
        "4, 5", "5, 4", "5, 6", "6, 5",  # path on nodes 4..6
    ]
    with open(os.path.join(dir_path, "TOY_A.txt"), "w") as fh:
        fh.write("\n".join(adj) + "\n")
    with open(os.path.join(dir_path, "TOY_graph_indicator.txt"), "w") as fh:
        fh.write("\n".join(["1"] * 3 + ["2"] * 3) + "\n")
    with open(os.path.join(dir_path, "TOY_graph_labels.txt"), "w") as fh:
        fh.write("1\n0\n")
    with open(os.path.join(dir_path, "TOY_node_labels.txt"), "w") as fh:
        fh.write("\n".join(["0", "0", "0", "0", "1", "0"]) + "\n")


def test_tu_fixture_loads_expected_graphs(tmp_path):
    _write_tu_fixture(str(tmp_path))
    pairs = load_tudataset(str(tmp_path))
    assert len(pairs) == 2
    (g1, y1), (g2, y2) = pairs
    assert y1 == 1 and y2 == 0
    assert g1.edges == ((0, 1), (0, 2), (1, 2))  # triangle, deduped
    assert g2.edges == ((0, 1), (1, 2))  # path
    assert g1.node_features.shape == (3, 2)
    assert np.array_equal(g2.node_features[1], [0.0, 1.0])  # the nitrogen node


def test_tu_roundtrip(tmp_path):
    _write_tu_fixture(str(tmp_path / "src"))
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
    _write_tu_fixture(str(tmp_path))
    with open(os.path.join(str(tmp_path), "TOY_graph_indicator.txt"), "w") as fh:
        fh.write("\n".join(["0"] + ["1"] * 2 + ["2"] * 3) + "\n")
    with pytest.raises(MalformedLineError):
        load_tudataset(str(tmp_path))


def test_tu_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        load_tudataset(str(tmp_path))
    _write_tu_fixture(str(tmp_path))
    os.remove(os.path.join(str(tmp_path), "TOY_graph_labels.txt"))
    with pytest.raises(MissingFileError):
        load_tudataset(str(tmp_path))


def test_tu_cross_graph_edge_rejected(tmp_path):
    _write_tu_fixture(str(tmp_path))
    with open(os.path.join(str(tmp_path), "TOY_A.txt"), "a") as fh:
        fh.write("3, 4\n")
    with pytest.raises(IndexOutOfRangeError):
        load_tudataset(str(tmp_path))


# --- synthetic task ----------------------------------------------------------------


def test_synthetic_task_deterministic():
    a = make_synthetic_task(60, seed=4)
    b = make_synthetic_task(60, seed=4)
    assert all(x == y for x, y in zip(a.graphs, b.graphs))
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
