import numpy as np
import pytest

from oracles import (
    datasets_equal,
    finite_difference_gradient,
    instance_of,
    max_relative_error,
    reference_encoder_backward,
    reference_task_representation,
    sequential_segment_sum,
    with_train,
)
from uglm.encoder import (
    GRAD_CHUNK_ROWS,
    JAGGED_MIN_IDS,
    SEGMENT_CHUNK,
    GraphBatch,
    MultiScaleEncoder,
    encode_batch,
    encode_node_graph,
    encode_packed,
    encoder_backward,
    forward,
    task_representation,
)
from uglm.errors import ContractError, DimensionError
from uglm.graphdata import (
    EdgeTarget,
    GraphInstance,
    GraphTarget,
    NodeTarget,
    Pool,
    load_dataset,
    save_dataset,
)
from uglm.numcore import ParamSet
from uglm.persist import encode_checkpoint
from uglm.pretrain import PretrainConfig, encoder_to_checkpoint, pretrain_loop
from uglm.synthgen import DomainSpec, generate_domain


def manual_encoder(w_self, w_neigh, bias, heads_value=1.0):
    """Single-layer encoder with hand-set layer weights; scalars give d=1."""
    w_self = np.atleast_2d(np.asarray(w_self, dtype=np.float64))
    d_in, d = w_self.shape
    arrays = {
        "layer0.self_weight": w_self,
        "layer0.neigh_weight": np.atleast_2d(np.asarray(w_neigh, dtype=np.float64)),
        "layer0.bias": np.atleast_1d(np.asarray(bias, dtype=np.float64)),
    }
    for head in ("node_head", "edge_head", "graph_head"):
        arrays[f"{head}.weight"] = np.full((2 * d, d), heads_value)
        arrays[f"{head}.bias"] = np.zeros(d)
    return MultiScaleEncoder(input_dim=d_in, hidden_dim=d, num_layers=1, params=ParamSet(arrays))


def instance(num_nodes, edges, features, target, domain="d0"):
    return GraphInstance(
        num_nodes=num_nodes,
        edges=edges,
        node_features=np.asarray(features, dtype=np.float64),
        target=target,
        text_index=0,
        domain=domain,
    )


def random_instance(rng, n, d_in, kind):
    edges = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges += [(parent, v), (v, parent)]
    feats = rng.normal(size=(n, d_in))
    if kind == "node":
        target = NodeTarget(node=int(rng.integers(0, n)))
    elif kind == "edge":
        target = EdgeTarget(edge=edges[int(rng.integers(0, len(edges)))]) if edges else EdgeTarget(edge=(0, 0))
    else:
        target = GraphTarget()
    return instance(n, edges, feats, target)


# ----------------------------------------------------------------- forward


def test_sage_layer_identity_on_isolated_nodes():
    h = np.array([[1.0, 2.0], [3.0, -4.0]])
    enc = manual_encoder(np.eye(2), np.eye(2), np.zeros(2))
    out, _, _ = encode_node_graph(instance(2, [], h, GraphTarget()), enc)
    assert np.array_equal(out, h)


def test_sage_layer_two_node_worked_example():
    enc = manual_encoder(1.0, 1.0, 0.0)
    g = instance(2, [(0, 1), (1, 0)], [[1.0], [3.0]], GraphTarget())
    out, _, _ = encode_node_graph(g, enc)
    assert np.array_equal(out, np.array([[4.0], [4.0]]))


def test_sage_layer_zero_weights():
    enc = manual_encoder(0.0, 0.0, 0.0)
    out, _, _ = encode_node_graph(instance(2, [(0, 1)], [[1.0], [2.0]], GraphTarget()), enc)
    assert np.array_equal(out, np.zeros((2, 1)))


def test_sage_layer_dimension_error():
    enc = manual_encoder(np.eye(2), np.eye(2), np.zeros(2))
    with pytest.raises(DimensionError):
        encode_node_graph(instance(2, [], np.ones((2, 3)), GraphTarget()), enc)


def test_worked_example_graph_representation():
    enc = manual_encoder(1.0, 1.0, 0.0)
    g = instance(2, [(0, 1), (1, 0)], [[1.0], [3.0]], NodeTarget(node=0))
    h_node, h_graph, _ = encode_node_graph(g, enc)
    assert np.array_equal(h_node, np.array([[4.0], [4.0]]))
    assert np.array_equal(h_graph, np.array([4.0]))
    x, _ = task_representation(g, enc)
    assert np.array_equal(x, np.array([8.0]))


def test_single_node_graph_mean_is_identity():
    enc = MultiScaleEncoder.initialize(3, 4, 2, np.random.default_rng(0))
    g = instance(1, [], np.random.default_rng(1).normal(size=(1, 3)), GraphTarget())
    h_node, h_graph, _ = encode_node_graph(g, enc)
    assert np.array_equal(h_graph, h_node[0])


def test_permutation_invariance_of_graph_representation():
    rng = np.random.default_rng(4)
    enc = MultiScaleEncoder.initialize(3, 5, 2, rng)
    g = random_instance(rng, 6, 3, "graph")
    perm = rng.permutation(6)
    inv = np.argsort(perm)
    permuted = instance(
        6,
        [(int(perm[u]), int(perm[v])) for u, v in g.edges],
        np.asarray(g.node_features)[inv],
        GraphTarget(),
    )
    _, hg1, _ = encode_node_graph(g, enc)
    _, hg2, _ = encode_node_graph(permuted, enc)
    assert np.allclose(hg1, hg2, rtol=0.0, atol=1e-12)


def test_edge_representation_symmetric_in_endpoints():
    rng = np.random.default_rng(5)
    enc = MultiScaleEncoder.initialize(2, 4, 2, rng)
    base = random_instance(rng, 5, 2, "edge")
    u, v = base.edges[0]
    a = instance(5, base.edges, base.node_features, EdgeTarget(edge=(u, v)))
    b = instance(5, base.edges, base.node_features, EdgeTarget(edge=(v, u)))
    xa, _ = task_representation(a, enc)
    xb, _ = task_representation(b, enc)
    assert np.array_equal(xa, xb)


def test_graph_head_duplicated_concat_identity():
    rng = np.random.default_rng(6)
    enc = MultiScaleEncoder.initialize(2, 3, 1, rng)
    arrays = dict(enc.params.items())
    arrays["graph_head.weight"] = np.vstack([np.eye(3), np.eye(3)]) * 0.5
    arrays["graph_head.bias"] = np.zeros(3)
    enc = enc.with_params(ParamSet(arrays))
    g = random_instance(rng, 4, 2, "graph")
    _, h_graph, _ = encode_node_graph(g, enc)
    x, _ = task_representation(g, enc)
    assert np.array_equal(x, h_graph)


def test_all_granularities_share_dimension():
    rng = np.random.default_rng(7)
    enc = MultiScaleEncoder.initialize(3, 6, 2, rng)
    for kind in ("node", "edge", "graph"):
        g = random_instance(rng, 5, 3, kind)
        x, _ = task_representation(g, enc)
        assert x.shape == (6,)


def test_node_row_depends_only_on_in_neighborhood():
    # chain 0 -> 1 -> 2 -> 3 with L=2: node 3 sees only {1, 2, 3}
    rng = np.random.default_rng(8)
    enc = MultiScaleEncoder.initialize(2, 4, 2, rng)
    feats = rng.normal(size=(4, 2))
    edges = [(0, 1), (1, 2), (2, 3)]
    g1 = instance(4, edges, feats, NodeTarget(node=3))
    edited = feats.copy()
    edited[0] += 100.0
    g2 = instance(4, edges, edited, NodeTarget(node=3))
    h1, _, _ = encode_node_graph(g1, enc)
    h2, _, _ = encode_node_graph(g2, enc)
    assert np.array_equal(h1[3], h2[3])
    assert not np.array_equal(h1[1], h2[1])


# ---------------------------------------------------------------- backward


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(9):
        kind = ("node", "edge", "graph")[trial % 3]
        n = int(rng.integers(2, 7))
        d_in = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        enc = MultiScaleEncoder.initialize(d_in, d, int(rng.integers(1, 4)), rng)
        g = random_instance(rng, n, d_in, kind)
        probe = rng.normal(size=d)

        def f(ps, g=g, enc=enc, probe=probe):
            x, _ = task_representation(g, enc.with_params(ps))
            return float(probe @ x)

        _, cache = task_representation(g, enc)
        analytic = encoder_backward(cache, probe)
        numeric = finite_difference_gradient(f, enc.params)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst <= 1e-6


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(12)
    enc = MultiScaleEncoder.initialize(2, 3, 2, rng)
    g = random_instance(rng, 4, 2, "node")
    _, cache = task_representation(g, enc)
    grads = encoder_backward(cache, np.zeros(3))
    assert all(np.array_equal(arr, np.zeros_like(arr)) for _, arr in grads.items())


def test_neighbor_weight_gradient_zero_without_edges():
    rng = np.random.default_rng(13)
    enc = MultiScaleEncoder.initialize(2, 3, 2, rng)
    g = instance(3, [], rng.normal(size=(3, 2)), NodeTarget(node=1))
    _, cache = task_representation(g, enc)
    grads = encoder_backward(cache, rng.normal(size=3))
    assert np.array_equal(grads["layer0.neigh_weight"], np.zeros((2, 3)))
    assert np.array_equal(grads["layer1.neigh_weight"], np.zeros((3, 3)))
    assert not np.array_equal(grads["layer0.self_weight"], np.zeros((2, 3)))


def test_backward_requires_task_cache():
    rng = np.random.default_rng(14)
    enc = MultiScaleEncoder.initialize(2, 3, 1, rng)
    g = random_instance(rng, 3, 2, "node")
    _, _, cache = encode_node_graph(g, enc)
    with pytest.raises(ContractError):
        encoder_backward(cache, np.zeros(3))


# ------------------------------------------------------------ batched path


def mixed_batch(rng, d_in, big_nodes=0):
    """Node, edge and graph targets with the corner cases the batch must keep:
    a graph with no edges, isolated nodes, and a self-loop edge target."""
    graphs = [random_instance(rng, int(rng.integers(2, 8)), d_in, kind) for kind in ("node", "edge", "graph") * 2]
    graphs.append(instance(3, [], rng.normal(size=(3, d_in)), NodeTarget(node=2)))
    graphs.append(instance(5, [(0, 1), (1, 0), (1, 2)], rng.normal(size=(5, d_in)), GraphTarget()))
    graphs.append(instance(3, [(0, 1), (1, 1), (2, 1)], rng.normal(size=(3, d_in)), EdgeTarget(edge=(1, 1))))
    if big_nodes:
        graphs.append(random_instance(rng, big_nodes, d_in, "edge"))
    return [graphs[i] for i in rng.permutation(len(graphs))]


def assert_close(actual, expected, tol=1e-12):
    """Max abs difference at most ``tol`` of the largest reference entry."""
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= tol * scale


@pytest.mark.parametrize("chunk", [SEGMENT_CHUNK, 8])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_batch_matches_per_instance_reference(monkeypatch, layers, chunk):
    # a chunk of 8 entries cuts every segment sum many times, hub nodes included
    monkeypatch.setattr("uglm.encoder.SEGMENT_CHUNK", chunk)
    rng = np.random.default_rng(20 + layers)
    enc = MultiScaleEncoder.initialize(3, 5, layers, rng)
    # more nodes than one weight-gradient chunk, so the chunked sums run
    batch = mixed_batch(rng, 3, big_nodes=GRAD_CHUNK_ROWS + 40)
    x, cache = encode_batch(batch, enc)
    upstream = rng.normal(size=x.shape)
    grads = encoder_backward(cache, upstream)
    summed = np.zeros_like(grads.flat)
    for b, g in enumerate(batch):
        x_ref, ref_cache = reference_task_representation(g, enc)
        assert_close(x[b], x_ref)
        summed += reference_encoder_backward(ref_cache, upstream[b]).flat
    assert_close(grads.flat, summed)


@pytest.mark.parametrize("chunk", [SEGMENT_CHUNK, 8])
def test_built_batch_reused_across_parameters_is_bitwise_fresh(monkeypatch, chunk):
    # a chunk of 8 entries runs the chunked segment-sum plans, both widths
    monkeypatch.setattr("uglm.encoder.SEGMENT_CHUNK", chunk)
    rng = np.random.default_rng(36)
    enc_a = MultiScaleEncoder.initialize(3, 5, 2, rng)
    enc_b = MultiScaleEncoder.initialize(3, 5, 2, rng)
    instances = mixed_batch(rng, 3, big_nodes=40)
    upstream = rng.normal(size=(len(instances), 5))
    batch = GraphBatch.build(instances, 3)
    for enc in (enc_a, enc_b, enc_a):
        x, cache = forward(batch, enc)
        x_fresh, fresh = encode_batch(instances, enc)
        assert np.array_equal(x, x_fresh)
        grads = encoder_backward(cache, upstream).flat
        assert np.array_equal(grads, encoder_backward(fresh, upstream).flat)


@pytest.mark.parametrize("chunk", [8, 1 << 30])  # jagged-diagonal sums, then one bincount
def test_stacked_forward_equals_one_forward_per_parameter_vector(monkeypatch, chunk):
    monkeypatch.setattr("uglm.encoder.SEGMENT_CHUNK", chunk)
    rng = np.random.default_rng(39)
    enc = MultiScaleEncoder.initialize(3, 5, 3, rng)
    # hub 0 has in-degree 30, past the last pass of JAGGED_MIN_IDS ids; 31.. are isolated
    hub = instance(34, [(v, 0) for v in range(1, 31)], rng.normal(size=(34, 3)), NodeTarget(node=0))
    batch = GraphBatch.build([hub, *mixed_batch(rng, 3)], 3)
    assert {kind for kind, _, _ in batch.heads} == {"node", "edge", "graph"}
    stack = enc.params.flat + 0.1 * rng.normal(size=(7, enc.params.flat.size))
    x, _ = forward(batch, enc.with_params(enc.params.with_flat(stack)))
    assert x.shape == (7, len(batch.sizes), 5)
    for p in range(7):
        single, _ = forward(batch, enc.with_params(enc.params.with_flat(stack[p])))
        assert np.allclose(x[p], single, rtol=1e-12, atol=0.0)


def test_chunked_segment_sums_keep_every_rows_summation_order(monkeypatch):
    # the chunked plan sorts entries stably by id, so each sum adds in edge order
    rng = np.random.default_rng(38)
    enc = MultiScaleEncoder.initialize(3, 5, 3, rng)
    instances = mixed_batch(rng, 3, big_nodes=GRAD_CHUNK_ROWS + 40)
    upstream = rng.normal(size=(len(instances), 5))
    results = []
    for chunk in (1 << 30, 8):
        monkeypatch.setattr("uglm.encoder.SEGMENT_CHUNK", chunk)
        x, cache = encode_batch(instances, enc)
        results.append((x, encoder_backward(cache, upstream).flat))
    (x_whole, g_whole), (x_chunked, g_chunked) = results
    assert np.array_equal(x_whole, x_chunked)
    assert np.array_equal(g_whole, g_chunked)


def test_forward_rejects_a_batch_of_another_feature_dim():
    rng = np.random.default_rng(37)
    batch = GraphBatch.build(mixed_batch(rng, 2), 2)
    with pytest.raises(DimensionError):
        forward(batch, MultiScaleEncoder.initialize(3, 4, 1, rng))


def test_row_does_not_depend_on_the_rest_of_the_batch():
    rng = np.random.default_rng(31)
    enc = MultiScaleEncoder.initialize(2, 4, 2, rng)
    batch = mixed_batch(rng, 2)
    x, _ = encode_batch(batch, enc)
    others = mixed_batch(np.random.default_rng(32), 2)
    for b, g in enumerate(batch):
        alone, _ = task_representation(g, enc)
        assert_close(alone, x[b])
        mixed, _ = encode_batch(others[:3] + [g] + others[3:], enc)
        assert_close(mixed[3], x[b])


def test_batch_backward_matches_finite_differences():
    rng = np.random.default_rng(33)
    enc = MultiScaleEncoder.initialize(3, 4, 2, rng)
    batch = mixed_batch(rng, 3)
    probe = rng.normal(size=(len(batch), 4))

    def f(ps):
        x, _ = encode_batch(batch, enc.with_params(ps))
        return float(np.sum(probe * x))

    _, cache = encode_batch(batch, enc)
    analytic = encoder_backward(cache, probe)
    numeric = finite_difference_gradient(f, enc.params)
    assert max_relative_error(analytic, numeric) <= 1e-6


def test_self_loop_edge_target_gets_both_halves():
    # x = 0.5 * (h[u] + h[v]) with u == v is h[u]: its gradient is the full upstream
    enc = manual_encoder(1.0, 0.0, 0.0)
    g = instance(2, [(1, 1)], [[2.0], [3.0]], EdgeTarget(edge=(1, 1)))
    x, cache = encode_batch([g], enc)
    assert np.array_equal(x, np.array([[3.0 + 2.5]]))
    grads = encoder_backward(cache, np.ones((1, 1)))
    # dx/dw_self = d(h1 + mean(h))/dw_self = 3 + 2.5
    assert np.array_equal(grads["layer0.self_weight"], np.array([[5.5]]))


def test_backward_writes_into_the_given_vector():
    rng = np.random.default_rng(34)
    enc = MultiScaleEncoder.initialize(2, 3, 2, rng)
    batch = mixed_batch(rng, 2)
    x, cache = encode_batch(batch, enc)
    upstream = rng.normal(size=x.shape)
    buffer = np.zeros(enc.params.flat.size + 4)
    grads = encoder_backward(cache, upstream, out=buffer[: enc.params.flat.size])
    assert np.shares_memory(grads.flat, buffer)
    assert np.array_equal(buffer[: enc.params.flat.size], encoder_backward(cache, upstream).flat)
    assert np.array_equal(buffer[enc.params.flat.size :], np.zeros(4))


def test_empty_batch_and_wrong_upstream_are_contract_errors():
    rng = np.random.default_rng(35)
    enc = MultiScaleEncoder.initialize(2, 3, 1, rng)
    with pytest.raises(ContractError):
        encode_batch([], enc)
    _, cache = encode_batch(mixed_batch(rng, 2), enc)
    with pytest.raises(ContractError):
        encoder_backward(cache, np.zeros(3))


# ------------------------------------------------------ segment-sum kernels


@pytest.mark.parametrize("chunk", [-1, 8, SEGMENT_CHUNK, 1 << 30])  # -1: always jagged
@pytest.mark.parametrize("width", [1, 48])
def test_segment_sums_equal_the_sequential_oracle_bit_for_bit(monkeypatch, chunk, width):
    monkeypatch.setattr("uglm.encoder.SEGMENT_CHUNK", chunk)
    rng = np.random.default_rng(50)
    # hub 0 has in-degree 1200, far past the last pass of JAGGED_MIN_IDS ids;
    # nodes 1201.. are isolated and node 3 has a self-loop
    star = [(v, 0) for v in range(1, 1201)] + [(0, v) for v in range(1, 40)] + [(3, 3)]
    hub = instance(1300, star, rng.normal(size=(1300, 2)), GraphTarget())
    edgeless = instance(4, [], rng.normal(size=(4, 2)), NodeTarget(node=1))
    for graphs in ([hub, edgeless, *mixed_batch(rng, 2)], [edgeless]):
        batch = GraphBatch.build(graphs, 2)
        for w in (width, width + 2):  # one plan serves every width
            rows = rng.normal(size=(batch.features.shape[0], w))
            rows[::7] = -0.0  # a sum starts at +0.0, as np.bincount's do
            for plan in (batch.gather, batch.scatter, batch.pool):
                expected = sequential_segment_sum(rows, plan.take, plan.segment, plan.num_segments)
                assert np.array_equal(plan(rows), expected)
                assert np.array_equal(np.signbit(plan(rows)), np.signbit(expected))
    assert JAGGED_MIN_IDS > 1  # so the hub's tail is left to np.add.at


# -------------------------------------------------------- packed batches


def saved_and_loaded(tmp_path, tasks):
    """Domains of the given tasks, each as generated and as loaded from its files."""
    pairs = []
    for k, task in enumerate(tasks):
        made, _ = generate_domain(DomainSpec(
            domain=f"{task}{k}", task=task, num_instances=12, num_classes=2, nodes_min=2,
            nodes_max=40, feature_dim=3, text_dim=3, feature_noise=0.3, text_noise=0.1,
            label_noise=0.0, seed=60 + k,
        ))
        paths = tmp_path / f"{task}{k}.jsonl", tmp_path / f"{task}{k}.emb"
        save_dataset(made, *paths)
        pairs.append((made, load_dataset(*paths)))
    return pairs


@pytest.mark.parametrize("chunk", [8, SEGMENT_CHUNK])
def test_packed_batch_equals_the_instances_batch_bit_for_bit(monkeypatch, tmp_path, chunk):
    monkeypatch.setattr("uglm.encoder.SEGMENT_CHUNK", chunk)
    pairs = saved_and_loaded(tmp_path, ("node", "edge", "graph", "node"))
    loaded = [ds for _, ds in pairs]
    assert [ds.feature_dim for ds in loaded] == [3] * 4
    rng = np.random.default_rng(61)
    pool = Pool.of([with_train(ds, range(12)) for ds in loaded])  # every instance, in order
    rows = rng.permutation(48)  # the domains mixed, as in a Stage I batch
    enc = MultiScaleEncoder.initialize(3, 5, 3, rng)
    x, cache = encode_packed(pool.arrays, rows, pool.kinds[rows], enc)
    x_ref, ref = encode_batch([instance_of(loaded[r // 12], r % 12) for r in rows], enc)
    assert np.array_equal(x, x_ref)
    upstream = rng.normal(size=x.shape)
    assert np.array_equal(encoder_backward(cache, upstream).flat, encoder_backward(ref, upstream).flat)


def test_built_and_loaded_datasets_are_equal_and_train_to_the_same_checkpoint(tmp_path):
    # generate_domain's in-memory dataset against its save -> load round
    # trip, parsed from the JSONL and then read from the sidecar
    pairs = saved_and_loaded(tmp_path, ("node", "edge", "graph"))
    made = [m for m, _ in pairs]
    from_sidecar = [load_dataset(ds.graph_path, tmp_path / f"{ds.domain}.emb") for _, ds in pairs]
    for m, parsed, read in zip(made, [ds for _, ds in pairs], from_sidecar):
        assert datasets_equal(m, parsed) and datasets_equal(m, read)  # dtypes too
    config = PretrainConfig(epochs=3, batch_size=7, learning_rate=0.01, temperature=0.5, seed=5)
    blobs = []
    for datasets in (made, from_sidecar):
        result = pretrain_loop(config, datasets, hidden_dim=4, num_layers=2)
        blobs.append(encode_checkpoint(encoder_to_checkpoint(result.encoder, result.adapter, {})))
    assert blobs[0] == blobs[1]
