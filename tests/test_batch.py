"""The batched forward against a per-graph oracle, and the batched tape ops."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmark.carriers import CarrierBundle, ProtocolParams, read_key
from invmark.data import er_graph
from invmark.errors import ShapeMismatchError
from invmark.graphs import Graph, NormalizationConstants, degree_features, wl_hash
from invmark.nn import GraphBatch, ModelHyper, Tensor, batch_logits, batch_task_loss, init_model, perception_scores
from invmark.nn import model as model_module
from invmark.nn.model import perception_score
from invmark.nn.tape import matmul, mean_rows, mul, propagate_dense_relu, sum_all
from invmark.watermark import carrier_scores, wm_loss

import oracles
from gradcheck import finite_diff_check

FEATURE_DIM = 4


# --- per-graph oracle: one graph at a time, plain numpy ------------------------------


def _oracle_embedding(model, g: Graph) -> np.ndarray:
    hyper = model.hyper
    p = {name: t.data for name, t in model.params.items()}
    n = g.node_count
    a = g.adjacency()
    h = g.node_features if g.node_features is not None else degree_features(g, hyper.feature_dim)
    for layer in range(hyper.layers):
        pre = f"backbone.{layer}."
        if hyper.backbone == "gcn":
            at = a + np.eye(n)
            inv_sqrt = 1.0 / np.sqrt(at.sum(axis=1))
            norm = at * inv_sqrt[:, None] * inv_sqrt[None, :]
            h = np.maximum((norm @ h) @ p[pre + "weight"] + p[pre + "bias"], 0.0)
        else:
            agg = (a + np.eye(n)) @ h
            hidden = np.maximum(agg @ p[pre + "w1"] + p[pre + "b1"], 0.0)
            h = np.maximum(hidden @ p[pre + "w2"] + p[pre + "b2"], 0.0)
    return h.mean(axis=0)


def _oracle_logits(model, g: Graph) -> np.ndarray:
    return _oracle_embedding(model, g) @ model.params["task.weight"].data + model.params["task.bias"].data


def _oracle_score(model, g: Graph) -> float:
    raw = _oracle_embedding(model, g) @ model.params["perc.weight"].data + model.params["perc.bias"].data
    return float(1.0 / (1.0 + np.exp(-np.clip(raw.sum(), -60.0, 60.0))))


# --- random graph lists --------------------------------------------------------------


@st.composite
def graph_lists(draw):
    """1-8 graphs of 1-30 nodes; sparse edge sets leave isolated nodes."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 30))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        edges = tuple(pair for pair in pairs if rng.random() < density)
        feats = rng.normal(size=(n, FEATURE_DIM)) if draw(st.booleans()) else None
        out.append(Graph(n, edges, feats))
    return out


hypers = st.sampled_from(
    [
        ModelHyper(feature_dim=FEATURE_DIM, hidden_dim=8, layers=2, n_classes=3, backbone="gcn"),
        ModelHyper(feature_dim=FEATURE_DIM, hidden_dim=8, layers=2, n_classes=2, backbone="gin"),
        ModelHyper(feature_dim=FEATURE_DIM, hidden_dim=6, layers=1, n_classes=2, backbone="gin"),
    ]
)


@given(graph_lists(), hypers, st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_batched_forward_matches_per_graph_oracle(graphs, hyper, seed):
    model = init_model(hyper, seed)
    batch = GraphBatch(graphs)
    logits = batch_logits(model, graphs).data
    scores = perception_scores(model, batch).data
    assert logits.shape == (len(graphs), hyper.n_classes)
    assert scores.shape == (len(graphs),)
    for i, g in enumerate(graphs):
        expected = _oracle_logits(model, g)
        assert np.max(np.abs(logits[i] - expected)) <= 1e-12
        assert np.max(np.abs(batch_logits(model, [g]).data[0] - expected)) <= 1e-12
        assert abs(scores[i] - _oracle_score(model, g)) <= 1e-12
        assert abs(float(perception_score(model, g).data) - _oracle_score(model, g)) <= 1e-12


@given(graph_lists(), graph_lists(), hypers)
@settings(max_examples=40, deadline=None)
def test_score_does_not_depend_on_batch_or_padding(graphs, others, hyper):
    model = init_model(hyper, 7)
    wide = Graph(30, tuple((i, i + 1) for i in range(29)))
    alone = perception_scores(model, GraphBatch(graphs)).data
    mixed = perception_scores(model, GraphBatch(others + graphs + [wide])).data[len(others) : -1]
    assert np.max(np.abs(alone - mixed)) <= 1e-12
    for i, g in enumerate(graphs):
        assert abs(perception_scores(model, GraphBatch([g])).data[0] - alone[i]) <= 1e-12


def _forward_outputs(model, graphs, labels, bundle):
    """Scores, logits, and the parameter gradients of the task and watermark losses."""
    out = {"scores": perception_scores(model, GraphBatch(graphs)).data, "logits": batch_logits(model, graphs).data}
    for name, loss in (("task", lambda: batch_task_loss(model, graphs, labels)), ("wm", lambda: wm_loss(model, bundle))):
        model.zero_grad()
        value = loss()
        value.backward()
        out[name] = value.data
        out.update({f"{name}.{p}": grad for p, grad in model.gradients().items()})
    return out


@given(graph_lists(), hypers, st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_dense_node_is_bit_identical_to_unfused_layers(graphs, hyper, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, hyper.n_classes, size=len(graphs))
    carriers = tuple({wl_hash(g): g for g in graphs}.values())
    targets = rng.random(len(carriers))
    bundle = CarrierBundle(
        carriers=carriers,
        targets=targets,
        key_bits=read_key(targets)[0],
        norm_constants=NormalizationConstants(0.0, 1.0),
        protocol=ProtocolParams(rng_seed=0),
        train_hash_set_digest="0" * 16,
        size_cap=30.0,
    )
    fused = _forward_outputs(init_model(hyper, seed), graphs, labels, bundle)
    unfused_layers = functools.partial(
        oracles.message_passing_from_features, gcn_layer=oracles.gcn_layer_unfused, gin_layer=oracles.gin_layer_unfused
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "_message_passing", unfused_layers)
        unfused = _forward_outputs(init_model(hyper, seed), graphs, labels, bundle)
    assert fused.keys() == unfused.keys()
    for key, value in fused.items():
        assert (value is None) == (unfused[key] is None) and np.array_equal(value, unfused[key]), key


def _distinct_graphs(rng, count: int, sizes: tuple[int, int]) -> tuple[Graph, ...]:
    """``count`` graphs of pairwise distinct WL hashes, sizes drawn from ``sizes``."""
    graphs: dict[str, Graph] = {}
    while len(graphs) < count:
        g = er_graph(rng, int(rng.integers(*sizes)), 0.4)
        graphs.setdefault(wl_hash(g), g)
    return tuple(graphs.values())


def _first_layer_outputs(model, bundle, carrier_subsets, pool, task_batches) -> list[bytes]:
    """Carrier scores; the wm_loss and its gradients on every carrier subset
    (None: all carriers); the task loss and its gradients on each taken task batch."""
    out = [carrier_scores(model, bundle)]
    losses = [lambda idx=idx: wm_loss(model, bundle, idx) for idx in carrier_subsets]
    losses += [lambda idx=idx: batch_task_loss(model, pool.take(idx), np.zeros(len(idx), dtype=int)) for idx in task_batches]
    for loss in losses:
        model.zero_grad()
        value = loss()
        value.backward()
        out += [value.data] + list(model.gradients().values())
    return [None if a is None else a.tobytes() for a in out]


@given(st.integers(0, 2**32 - 1), st.sampled_from(["gcn", "gin"]), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_kept_first_layer_input_equals_propagating_the_features_bit_for_bit(seed, backbone, layers):
    # Carriers of 8-15 nodes keep within the pool rule, so every wm_loss
    # subset's P and X are sliced from the carrier batch's. (A slice of the
    # carrier batch's P @ X would not do: one- and two-graph takes of random
    # graphs differed from their own product in the last bit.)
    rng = np.random.default_rng(seed)
    carriers = _distinct_graphs(rng, int(rng.integers(4, 40)), (8, 16))
    targets = rng.random(len(carriers))
    bundle = CarrierBundle(
        carriers=carriers,
        targets=targets,
        key_bits=read_key(targets)[0],
        norm_constants=NormalizationConstants(0.0, 1.0),
        protocol=ProtocolParams(rng_seed=0),
        train_hash_set_digest="0" * 16,
        size_cap=16.0,
    )
    assert bundle.carrier_batch._pool_fits
    pool = GraphBatch([er_graph(rng, int(rng.integers(2, 31)), 0.3) for _ in range(48)])
    subsets = [None] + [rng.choice(len(carriers), size=int(rng.integers(1, len(carriers) + 1)), replace=False) for _ in range(4)]
    task_batches = [rng.permutation(48)[:k] for k in (1, 16, 32)]
    model = init_model(ModelHyper(feature_dim=FEATURE_DIM, hidden_dim=8, layers=layers, backbone=backbone), seed % 1000)
    kept = _first_layer_outputs(model, bundle, subsets, pool, task_batches)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "_message_passing", oracles.message_passing_from_features)
        propagating = _first_layer_outputs(model, bundle, subsets, pool, task_batches)
    assert kept == propagating


def test_batch_keeps_its_input_tensors():
    hyper = ModelHyper(feature_dim=FEATURE_DIM)
    pool = GraphBatch([Graph(3, ((0, 1), (1, 2))), Graph(2, ((0, 1),)), Graph(4, ((0, 1), (2, 3)))])
    batch = pool.take([1, 0])
    prop, propagated = batch.inputs(hyper)
    assert batch.inputs(hyper)[0] is prop and batch.inputs(hyper)[1] is propagated
    assert not prop.requires_grad and not propagated.requires_grad
    assert np.array_equal(prop.data, batch.propagation(hyper))
    assert np.array_equal(propagated.data, batch.propagation(hyper) @ batch.features(hyper))
    assert propagated.shape == (2, 3, FEATURE_DIM) and np.all(propagated.data[0, 2] == 0.0)  # padded row
    with pytest.raises(ValueError):
        propagated.data[0, 0, 0] = 1.0  # kept arrays are read-only
    assert batch.inputs(ModelHyper(feature_dim=FEATURE_DIM, backbone="gin"))[1] is not propagated


@st.composite
def layer_inputs(draw):
    """A backbone layer's inputs: one graph's (n, n) operator or a padded
    (B, n_max, n_max) stack, node states with values in the padded rows too,
    and the layer's weights."""
    graphs = draw(graph_lists())
    backbone = draw(st.sampled_from(["gcn", "gin"]))
    hyper = ModelHyper(feature_dim=FEATURE_DIM, backbone=backbone)
    if draw(st.booleans()):
        prop = GraphBatch(graphs).propagation(hyper)
    else:
        prop = model_module.propagation_matrix(graphs[0], backbone)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_in, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shapes = {"weight": (d_in, d), "bias": (d,)} if backbone == "gcn" else {"w1": (d_in, d), "b1": (d,), "w2": (d, d), "b2": (d,)}
    arrays = {"h": rng.normal(size=prop.shape[:-1] + (d_in,))} | {k: rng.normal(size=v) for k, v in shapes.items()}
    return backbone, prop, arrays, rng.normal(size=prop.shape[:-1] + (d,))


@given(layer_inputs())
@settings(max_examples=100, deadline=None)
def test_fused_layer_equals_the_two_node_oracle_bit_for_bit(inputs):
    backbone, prop, arrays, upstream = inputs
    fused = model_module._gcn_layer if backbone == "gcn" else model_module._gin_layer
    oracle = oracles.gcn_layer_two_nodes if backbone == "gcn" else oracles.gin_layer_two_nodes
    results = []
    for layer in (fused, oracle):
        tensors = {name: Tensor(value, requires_grad=True) for name, value in arrays.items()}
        h = tensors.pop("h")
        out = layer(h, Tensor(prop), *tensors.values())
        sum_all(mul(out, Tensor(upstream))).backward()
        results.append([out.data.tobytes(), h.grad.tobytes()] + [t.grad.tobytes() for t in tensors.values()])
    assert results[0] == results[1]


def test_batch_padding_and_mask():
    graphs = [Graph(1, ()), Graph(3, ((0, 1), (1, 2)))]
    batch = GraphBatch(graphs)
    hyper = ModelHyper(feature_dim=FEATURE_DIM, backbone="gin")
    assert np.array_equal(batch.mask, [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    prop = batch.propagation(hyper)
    assert prop.shape == (2, 3, 3)
    assert np.array_equal(prop[0], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(prop[1], graphs[1].adjacency() + np.eye(3))
    feats = batch.features(hyper)
    assert feats.shape == (2, 3, FEATURE_DIM)
    assert np.all(feats[0, 1:] == 0.0)
    with pytest.raises(ValueError):
        GraphBatch([])


def _assert_same_arrays(taken: GraphBatch, fresh: GraphBatch, hyper: ModelHyper):
    """The taken batch's arrays equal the fresh batch's bit for bit and are C-contiguous."""
    assert taken.graphs == fresh.graphs
    pairs = [(taken.mask, fresh.mask), (taken.propagation(hyper), fresh.propagation(hyper))]
    pairs.append((taken.features(hyper), fresh.features(hyper)))
    for a, b in pairs:
        assert np.array_equal(a.view(np.int64), b.view(np.int64)) and a.flags.c_contiguous


@given(graph_lists(), hypers, st.data())
@settings(max_examples=60, deadline=None)
def test_take_equals_a_fresh_batch(graphs, hyper, data):
    pool = GraphBatch(graphs)
    for _ in range(3):
        idx = data.draw(st.lists(st.integers(0, len(graphs) - 1), min_size=1, max_size=len(graphs)))
        _assert_same_arrays(pool.take(idx), GraphBatch([graphs[i] for i in idx]), hyper)


def _ring(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def test_take_pads_a_skewed_set_batch_by_batch():
    # Padding all 64 graphs to the 600-node ring would take 64 * 600^2 * 8
    # bytes, 184 MB, for the operators alone; a batch of 4 with the ring
    # needs 11.5 MB, and the fresh batch it is checked against as much again.
    rng = np.random.default_rng(5)
    graphs = [_ring(int(n)) for n in rng.integers(10, 30, size=63)]
    graphs.insert(17, _ring(600))
    hyper = ModelHyper(feature_dim=FEATURE_DIM)
    pool = GraphBatch(graphs)
    tracemalloc.start()
    try:
        for start in range(0, len(graphs), 4):
            idx = np.arange(start, start + 4)
            _assert_same_arrays(pool.take(idx), GraphBatch(graphs[start : start + 4]), hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_per_graph_operators_computed_once(monkeypatch):
    calls = {"norm": 0, "features": 0}
    norm, feats = model_module.gcn_norm_matrix, model_module.degree_features

    def counting_norm(g):
        calls["norm"] += 1
        return norm(g)

    def counting_features(g, dim):
        calls["features"] += 1
        return feats(g, dim)

    monkeypatch.setattr(model_module, "gcn_norm_matrix", counting_norm)
    monkeypatch.setattr(model_module, "degree_features", counting_features)
    rng = np.random.default_rng(3)
    graphs = [er_graph(rng, int(rng.integers(2, 9)), 0.4) for _ in range(5)]
    model = init_model(ModelHyper(hidden_dim=4), 0)
    for _ in range(3):
        batch_logits(model, graphs)
        perception_scores(model, GraphBatch(graphs[::-1]))
        perception_score(model, graphs[0])
    assert calls == {"norm": 5, "features": 5}
    # another backbone or feature width is a different operator
    gin = init_model(ModelHyper(hidden_dim=4, backbone="gin"), 0)
    batch_logits(gin, graphs)
    assert calls == {"norm": 5, "features": 5}
    batch_logits(init_model(ModelHyper(feature_dim=3, hidden_dim=4), 0), graphs)
    assert calls == {"norm": 5, "features": 10}
    # kept operators are read-only
    with pytest.raises(ValueError):
        model_module.propagation_matrix(graphs[0], "gcn")[0, 0] = 2.0


def test_bundle_builds_carrier_batch_on_first_use():
    carriers = tuple(Graph(n, tuple((i, i + 1) for i in range(n - 1))) for n in (4, 5, 6))
    targets = np.array([0.8, 0.2, 0.6])
    bundle = CarrierBundle(
        carriers=carriers,
        targets=targets,
        key_bits=(targets >= 0.5).astype(int),
        norm_constants=NormalizationConstants(0.0, 1.0),
        protocol=ProtocolParams(rng_seed=0),
        train_hash_set_digest="0" * 16,
        size_cap=16.0,
    )
    assert "carrier_batch" not in vars(bundle)
    batch = bundle.carrier_batch
    assert batch is bundle.carrier_batch
    assert batch.graphs == carriers


# --- gradients of the batched tape ops -------------------------------------------------


@pytest.mark.parametrize("stack", [(), (3,)])
def test_propagate_dense_relu_gradient(rng, stack):
    prop = Tensor(rng.normal(size=stack + (4, 4)))
    h = Tensor(rng.normal(size=stack + (4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    weights = Tensor(rng.normal(size=stack + (4, 2)))
    finite_diff_check([h, w, b], lambda: sum_all(mul(propagate_dense_relu(prop, h, w, b), weights)))
    expected = np.maximum((prop.data @ h.data) @ w.data + b.data, 0.0)
    assert np.array_equal(propagate_dense_relu(prop, h, w, b).data, expected)


@pytest.mark.parametrize(
    "shapes",
    [
        ((3, 4, 4), (3, 5, 2), (2, 2), (2,)),  # operator and states differ in n
        ((3, 4, 5), (3, 4, 2), (2, 2), (2,)),  # operator not square
        ((2, 4, 4), (3, 4, 2), (2, 2), (2,)),  # stacks of different depth
        ((4, 4), (3, 4, 2), (2, 2), (2,)),  # a shared operator is not broadcast
        ((4, 4), (4, 2), (3, 2), (2,)),  # weight rows differ from state width
        ((4, 4), (4, 2), (2, 2), (3,)),  # bias differs from weight columns
        ((4,), (4,), (1, 2), (2,)),
    ],
)
def test_propagate_dense_relu_shape_mismatch(shapes):
    with pytest.raises(ShapeMismatchError):
        propagate_dense_relu(*(Tensor(np.ones(shape)) for shape in shapes))


@pytest.mark.parametrize("shapes", [((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (4,))])
def test_matmul_rejects_1d_operands(shapes):
    with pytest.raises(ShapeMismatchError):
        matmul(Tensor(np.ones(shapes[0])), Tensor(np.ones(shapes[1])))


def test_matmul_refuses_stacks():
    # stacked products happen only inside propagate_dense_relu
    with pytest.raises(ShapeMismatchError):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))))


def test_masked_mean_gradient(rng):
    a = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    mask = np.array([[1, 1, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0]], dtype=float)
    weights = Tensor(rng.normal(size=(3, 2)))
    finite_diff_check([a], lambda: sum_all(mul(mean_rows(a, mask), weights)))
    out = mean_rows(a, mask).data
    assert np.allclose(out[1], a.data[1, 0])
    assert np.allclose(out[2], a.data[2, :2].mean(axis=0))
    # padded rows get no gradient
    a.zero_grad()
    sum_all(mean_rows(a, mask)).backward()
    assert np.all(a.grad[1, 1:] == 0.0) and np.all(a.grad[2, 2:] == 0.0)


@st.composite
def padded_rows(draw):
    """(B, n_max, d) rows of 1 to 8 graphs of 1 to 30 nodes, and their 0/1 node mask.

    The padded rows hold values too, as a backbone's bias leaves them. Rows
    have 2 to 8 values: numpy's reduction sums a one-value row pairwise, and
    einsum does not."""
    sizes = np.array(draw(st.lists(st.integers(1, 30), min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(len(sizes), sizes.max(), draw(st.integers(2, 8))))
    return a, (np.arange(sizes.max())[None, :] < sizes[:, None]).astype(float)


@given(padded_rows(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_mean_rows_equals_the_product_oracle_bit_for_bit(rows, one_graph):
    a, mask = rows
    if one_graph:  # the 2-D form: the first graph's (n_max, d) rows
        a, mask = a[0], mask[0]
    upstream = Tensor(np.random.default_rng(0).normal(size=a.shape[:-2] + a.shape[-1:]))
    results = []
    for readout in (mean_rows, oracles.mean_rows_product):
        x = Tensor(a, requires_grad=True)
        out = readout(x, mask)
        sum_all(mul(out, upstream)).backward()
        results.append((out.data.tobytes(), x.grad.tobytes()))
    assert results[0] == results[1]


def test_graph_cache_is_per_graph():
    g = Graph(3, ((0, 1),))
    first = g.cached(("k",), lambda graph: np.ones(2))
    assert g.cached(("k",), lambda graph: np.zeros(2)) is first
    # an equal graph is another object with its own cache
    assert Graph(3, ((0, 1),)).cached(("k",), lambda graph: np.zeros(2))[0] == 0.0
