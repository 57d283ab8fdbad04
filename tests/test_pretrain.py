import math

import numpy as np
import pytest

from oracles import instance_of

from uglm.encoder import encode_packed
from uglm.errors import ContractError, DegenerateInputError, DimensionError, EmptyDataError
from uglm.graphdata import DomainDataset, GraphInstance, NodeTarget, Splits, load_dataset, save_dataset
from uglm.numcore import ParamSet
from uglm.persist import param_fingerprint
from uglm.pretrain import (
    DomainCenters,
    DomainWeights,
    PretrainConfig,
    TextAdapter,
    build_domain_weights,
    compute_domain_centers,
    domain_distance_matrix,
    domain_weight_matrix,
    dr_clip_forward,
    dr_clip_loss,
    evaluate_retrieval,
    pair_weights,
    pretrain_loop,
)
from uglm.synthgen import DomainSpec, generate_domain


def centers_from(points: dict[str, np.ndarray]) -> DomainCenters:
    return DomainCenters(
        domains=list(points),
        graph_centers={k: np.asarray(v, dtype=float) for k, v in points.items()},
        text_centers={k: np.asarray(v, dtype=float) for k, v in points.items()},
        sample_counts={k: 1 for k in points},
    )


def unit_weights(domains: list[str]) -> DomainWeights:
    k = len(domains)
    z = np.zeros((k, k))
    return DomainWeights(domains, z, z, np.ones((k, k)), np.ones((k, k)))


def tiny_dataset(domain, n, value_fn, text_fn, d_t=2):
    instances = []
    for i in range(n):
        instances.append(
            GraphInstance(
                num_nodes=1,
                edges=[],
                node_features=np.array([value_fn(i)], dtype=float),
                target=NodeTarget(node=0),
                label=0,
                text_index=i,
                domain=domain,
            )
        )
    emb = np.stack([np.asarray(text_fn(i), dtype=float) for i in range(n)])
    return DomainDataset.from_instances(domain, "node", 2, instances, emb, Splits(train=list(range(n))))


def synth_pair(seed=0, n=40, d_t=8):
    datasets = []
    for k, name in enumerate(("alpha", "beta")):
        ds, _ = generate_domain(
            DomainSpec(
                domain=name,
                task="node",
                num_instances=n,
                num_classes=4,
                nodes_min=3,
                nodes_max=6,
                feature_dim=6,
                text_dim=d_t,
                feature_noise=0.1,
                text_noise=0.1,
                label_noise=0.0,
                seed=seed * 10 + k,
            )
        )
        datasets.append(ds)
    return datasets


# ------------------------------------------------------------ domain centers


def test_center_of_constant_features_is_the_value():
    ds = tiny_dataset("a", 1, lambda i: [2.0, -1.0], lambda i: [0.5, 0.5])
    centers = compute_domain_centers([ds], rng=np.random.default_rng(0))
    assert np.array_equal(centers.graph_centers["a"], np.array([2.0, -1.0]))


def test_text_center_is_mean_of_embeddings():
    ds = tiny_dataset("a", 2, lambda i: [1.0], lambda i: [float(i), 1.0 - i])
    centers = compute_domain_centers([ds], rng=np.random.default_rng(0))
    assert np.allclose(centers.text_centers["a"], np.array([0.5, 0.5]), atol=1e-15)


def test_center_sampling_capped_at_1000():
    ds = tiny_dataset("big", 1500, lambda i: [1.0], lambda i: [1.0, 0.0])
    centers = compute_domain_centers([ds], rng=np.random.default_rng(0))
    assert centers.sample_counts["big"] == 1000


def test_empty_domain_is_empty_data_error():
    # refused when built, so compute_domain_centers never sees one
    with pytest.raises(EmptyDataError, match="^domain 'a': no instances$"):
        DomainDataset.from_instances("a", "node", 2, [], np.ones((1, 2)), Splits())


# ---------------------------------------------------------- distance/weights


def test_three_domain_worked_example():
    centers = centers_from({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 0.0]})
    m_g, m_t = domain_distance_matrix(centers)
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(m_g, expected)
    assert np.array_equal(m_t, expected)
    w_g, w_t = domain_weight_matrix(m_g, m_t)
    assert w_g[0, 1] == 2.0 and w_g[0, 2] == 1.0
    assert np.array_equal(np.diag(w_g), np.ones(3))
    assert np.array_equal(w_g, w_g.T)


def test_single_domain_zero_matrix():
    m_g, _ = domain_distance_matrix(centers_from({"only": [1.0, 2.0]}))
    assert np.array_equal(m_g, np.zeros((1, 1)))


def test_identical_centers_degenerate_to_zero():
    centers = centers_from({"a": [1.0, 1.0], "b": [1.0, 1.0]})
    m_g, m_t = domain_distance_matrix(centers)
    assert np.array_equal(m_g, np.zeros((2, 2)))
    assert np.array_equal(m_t, np.zeros((2, 2)))


def test_zero_norm_center_names_domain():
    centers = centers_from({"a": [1.0, 0.0], "weird": [0.0, 0.0]})
    with pytest.raises(DegenerateInputError) as exc:
        domain_distance_matrix(centers)
    assert "weird" in str(exc.value)


def test_weight_matrix_range_contract():
    with pytest.raises(ContractError):
        domain_weight_matrix(np.array([[0.0, 1.5], [1.5, 0.0]]), np.zeros((2, 2)))


def test_weight_properties_on_random_centers():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        pts = {f"d{i}": rng.normal(size=4) for i in range(k)}
        weights = build_domain_weights(centers_from(pts))
        for w in (weights.w_graph, weights.w_text):
            assert np.array_equal(w, w.T)
            assert np.array_equal(np.diag(w), np.ones(k))
            assert np.all(w >= 1.0) and np.all(w <= 2.0)
        # max-normalization: some entry reaches 1 when centers differ
        distinct = len({tuple(np.round(v / np.linalg.norm(v), 12)) for v in pts.values()})
        if distinct >= 2:
            assert np.isclose(weights.m_graph.max(), 1.0)


# ----------------------------------------------------------------- DR-CLIP


from oracles import (  # noqa: E402
    brute_force_dr_clip, brute_force_infonce, finite_difference_gradient, max_relative_error,
)


def test_single_pair_batch_loss_zero():
    w = unit_weights(["a"])
    res = dr_clip_loss(np.array([[1.0, 2.0]]), np.array([[0.5, -1.0]]), ["a"], w, 1.0)
    assert res.loss == 0.0
    assert np.array_equal(res.grad_x, np.zeros((1, 2)))
    assert np.array_equal(res.grad_t, np.zeros((1, 2)))


def test_two_pair_worked_example():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 2.0], [2.0, 1.0]])
    weights = DomainWeights(["a", "b"], k - 1.0, k - 1.0, k, k)
    res = dr_clip_loss(x, t, ["a", "b"], weights, 1.0)
    expected = math.log(math.e + 2.0) - 1.0  # -log(e / (e + 2))
    assert res.loss == pytest.approx(expected, abs=1e-12)
    assert res.loss == pytest.approx(0.5507, abs=2e-3)
    oracle = brute_force_dr_clip(x, t, ["a", "b"], k, k, {"a": 0, "b": 1}, 1.0)
    assert res.loss == pytest.approx(oracle, abs=1e-12)


def test_unit_weights_match_infonce_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        t = rng.normal(size=(n, d))
        tau = float(rng.uniform(0.07, 2.0))
        res = dr_clip_loss(x, t, ["only"] * n, unit_weights(["only"]), tau)
        assert abs(res.loss - brute_force_infonce(x, t, tau)) <= 1e-12


def test_weighted_loss_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        domains = ["a", "b", "c"]
        m = rng.uniform(0.0, 1.0, size=(3, 3))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        weights = DomainWeights(domains, m, m.copy(), 1.0 + m, 1.0 + m.copy())
        ids = [domains[int(rng.integers(0, 3))] for _ in range(n)]
        x = rng.normal(size=(n, 4))
        t = rng.normal(size=(n, 4))
        res = dr_clip_loss(x, t, ids, weights, 0.5)
        oracle = brute_force_dr_clip(
            x, t, ids, weights.w_graph, weights.w_text, weights.index, 0.5
        )
        assert abs(res.loss - oracle) <= 1e-12


def test_loss_with_distinct_graph_and_text_centers_matches_brute_force():
    # graph and text centers differ, so each direction has its own weights
    rng = np.random.default_rng(29)
    domains = ["a", "b", "c"]
    for _ in range(6):
        centers = DomainCenters(
            domains=domains,
            graph_centers={d: rng.normal(size=3) for d in domains},
            text_centers={d: rng.normal(size=3) for d in domains},
            sample_counts={d: 1 for d in domains},
        )
        weights = build_domain_weights(centers)
        assert np.abs(weights.w_graph - weights.w_text).max() > 0.05
        n = int(rng.integers(3, 9))
        ids = [domains[int(rng.integers(0, 3))] for _ in range(n)]
        x = rng.normal(size=(n, 4))
        t = rng.normal(size=(n, 4))
        res = dr_clip_loss(x, t, ids, weights, 0.3)
        oracle = brute_force_dr_clip(x, t, ids, weights.w_graph, weights.w_text, weights.index, 0.3)
        assert abs(res.loss - oracle) <= 1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    worst_x = worst_adapter = 0.0
    for trial in range(6):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        d_t = int(rng.integers(2, 6))
        domains = ["a", "b"]
        m = np.array([[0.0, 0.7], [0.7, 0.0]])
        weights = DomainWeights(domains, m, m, 1.0 + m, 1.0 + m)
        ids = [domains[int(rng.integers(0, 2))] for _ in range(n)]
        x = rng.normal(size=(n, d))
        t = rng.normal(size=(n, d_t))
        adapter = TextAdapter.initialize(d_t, d, rng)
        tau = float(rng.uniform(0.07, 1.5))

        res = dr_clip_loss(x, t, ids, weights, tau, adapter)

        fd_x = finite_difference_gradient(
            lambda ps: dr_clip_loss(ps["x"], t, ids, weights, tau, adapter).loss,
            ParamSet({"x": x}),
        )
        worst_x = max(
            worst_x, max_relative_error(ParamSet({"x": res.grad_x}), fd_x)
        )

        def loss_of_adapter(ps):
            return dr_clip_loss(x, t, ids, weights, tau, adapter.with_params(ps)).loss

        fd_a = finite_difference_gradient(loss_of_adapter, adapter.params())
        worst_adapter = max(worst_adapter, max_relative_error(res.grad_adapter, fd_a))
    assert worst_x <= 1e-6
    assert worst_adapter <= 1e-6


def test_positive_row_scaling_leaves_loss_unchanged():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 3))
    w = unit_weights(["a"])
    base = dr_clip_loss(x, t, ["a"] * 5, w, 0.3).loss
    scaled = x.copy()
    scaled[2] *= 17.5
    assert abs(dr_clip_loss(scaled, t, ["a"] * 5, w, 0.3).loss - base) <= 1e-10


def test_identical_domains_collapse_to_unit_weights_bitwise():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(6, 4))
    t = rng.normal(size=(6, 4))
    ids = ["a", "b", "a", "b", "a", "b"]
    coincident = centers_from({"a": [1.0, 2.0], "b": [1.0, 2.0]})
    collapsed = build_domain_weights(coincident)
    res1 = dr_clip_loss(x, t, ids, collapsed, 0.25)
    res2 = dr_clip_loss(x, t, ids, unit_weights(["a", "b"]), 0.25)
    assert res1.loss == res2.loss
    assert np.array_equal(res1.grad_x, res2.grad_x)
    assert np.array_equal(res1.grad_t, res2.grad_t)


def test_unknown_domain_id_rejected():
    w = unit_weights(["a"])
    for ids in (["mystery"], ["a", "mystery"]):  # alone, and after a known domain
        with pytest.raises(ContractError, match="^domain 'mystery' missing from the weight matrices$"):
            dr_clip_loss(np.ones((len(ids), 2)), np.ones((len(ids), 2)), ids, w, 1.0)


@pytest.mark.parametrize("tau", [1.0, 0.07])
@pytest.mark.parametrize("with_adapter", [False, True])
@pytest.mark.parametrize("n_domains", [1, 2, 3])
def test_loss_forward_is_the_loss_of_dr_clip_loss(tau, with_adapter, n_domains):
    # the gradient check differences this forward under the batch's fixed pair weights
    rng = np.random.default_rng(43 + n_domains)
    domains = [f"d{i}" for i in range(n_domains)]
    weights = build_domain_weights(centers_from({name: rng.normal(size=4) for name in domains}))
    ids = [domains[i % n_domains] for i in rng.permutation(7)]
    x = rng.normal(size=(7, 5))
    adapter = TextAdapter.initialize(3, 5, rng) if with_adapter else None
    t = rng.normal(size=(7, 3 if with_adapter else 5))
    wg, wt = pair_weights(ids, weights)
    expected = dr_clip_loss(x, t, ids, weights, tau, adapter).loss
    assert dr_clip_forward(x, t, wg, wt, tau, adapter).loss == expected


@pytest.mark.parametrize("tau", [1.0, 0.07])
def test_stacked_loss_forward_equals_one_call_per_stack_row(tau):
    rng = np.random.default_rng(47)
    domains = ["d0", "d1", "d2"]
    weights = build_domain_weights(centers_from({name: rng.normal(size=4) for name in domains}))
    wg, wt = pair_weights([domains[i % 3] for i in rng.permutation(6)], weights)
    x, t = rng.normal(size=(6, 5)), rng.normal(size=(6, 3))
    adapter = TextAdapter.initialize(3, 5, rng)
    xs = x + 0.1 * rng.normal(size=(7, 6, 5))  # a stack of graph rows
    loss = dr_clip_forward(xs, t, wg, wt, tau, adapter).loss
    assert loss.shape == (7,)
    singles = [dr_clip_forward(xs[p], t, wg, wt, tau, adapter).loss for p in range(7)]
    assert np.allclose(loss, singles, rtol=1e-12, atol=0.0)
    base = adapter.params()
    stack = base.flat + 0.1 * rng.normal(size=(7, base.flat.size))  # a stack of adapters
    loss = dr_clip_forward(x, t, wg, wt, tau, adapter.with_params(base.with_flat(stack))).loss
    assert loss.shape == (7,)
    singles = [dr_clip_forward(x, t, wg, wt, tau, adapter.with_params(base.with_flat(row))).loss for row in stack]
    assert np.allclose(loss, singles, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------- pretrain loop


def test_zero_learning_rate_is_identity():
    datasets = synth_pair()
    frozen = pretrain_loop(
        PretrainConfig(epochs=2, batch_size=16, learning_rate=0.0, seed=3),
        datasets, hidden_dim=12, num_layers=2,
    )
    untouched = pretrain_loop(
        PretrainConfig(epochs=0, batch_size=16, learning_rate=0.5, seed=3),
        datasets, hidden_dim=12, num_layers=2,
    )
    assert param_fingerprint(frozen.encoder.params) == param_fingerprint(untouched.encoder.params)
    assert param_fingerprint(frozen.adapter.params()) == param_fingerprint(untouched.adapter.params())


def test_same_seed_identical_loss_logs():
    datasets = synth_pair()
    cfg = PretrainConfig(epochs=3, batch_size=16, learning_rate=1e-3, temperature=0.07, seed=4)
    r1 = pretrain_loop(cfg, datasets, hidden_dim=12, num_layers=2)
    r2 = pretrain_loop(cfg, datasets, hidden_dim=12, num_layers=2)
    assert r1.epoch_losses == r2.epoch_losses
    assert param_fingerprint(r1.encoder.params) == param_fingerprint(r2.encoder.params)


def test_loss_decreases_on_learnable_data():
    datasets = synth_pair()
    cfg = PretrainConfig(epochs=6, batch_size=20, learning_rate=2e-3, temperature=0.07, seed=5)
    result = pretrain_loop(cfg, datasets, hidden_dim=12, num_layers=2)
    assert len(result.epoch_losses) == 6
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_adapter_absent_when_dims_match():
    datasets = synth_pair(d_t=12)
    cfg = PretrainConfig(epochs=1, batch_size=16, learning_rate=1e-3, seed=6)
    result = pretrain_loop(cfg, datasets, hidden_dim=12, num_layers=1)
    assert result.adapter is None


# ---------------------------------------------------------------- retrieval


def test_retrieval_single_candidate_is_perfect():
    datasets = synth_pair()
    result = pretrain_loop(
        PretrainConfig(epochs=0, batch_size=8, seed=0), datasets, hidden_dim=12, num_layers=1
    )
    r1, r5 = evaluate_retrieval(
        result.encoder, datasets[0], 1, np.random.default_rng(0), result.adapter
    )
    assert r1 == 1.0 and r5 == 1.0


def test_retrieval_encodes_its_pool_in_one_batch(monkeypatch):
    datasets = synth_pair()
    result = pretrain_loop(
        PretrainConfig(epochs=0, batch_size=8, seed=0), datasets, hidden_dim=12, num_layers=1
    )
    calls = []

    def counting(arrays, rows, *args):
        calls.append(len(rows))
        return encode_packed(arrays, rows, *args)

    monkeypatch.setattr("uglm.pretrain.encode_packed", counting)
    evaluate_retrieval(result.encoder, datasets[0], 3, np.random.default_rng(0), result.adapter)
    assert calls == [3]


def test_retrieval_ranks_an_instance_below_texts_that_tie_with_its_own():
    # two held-out instances share one text row, so each one's own cosine
    # ties with the other's text: neither is at rank 1
    ds = tiny_dataset("d", 2, lambda i: [1.0 + i, 2.0], lambda i: [1.0, 0.5])
    instances = [instance_of(ds, 0), instance_of(ds, 1)]
    instances[1].text_index = 0
    shared = DomainDataset.from_instances(
        "d", "node", 2, instances, ds.text_embeddings[:1], Splits(test=[0, 1])
    )
    result = pretrain_loop(PretrainConfig(epochs=0, seed=0), [ds], hidden_dim=3, num_layers=1)
    recalls = evaluate_retrieval(result.encoder, shared, 2, np.random.default_rng(0), result.adapter)
    assert recalls == (0.0, 1.0)


def test_retrieval_pool_too_large():
    datasets = synth_pair()
    result = pretrain_loop(
        PretrainConfig(epochs=0, batch_size=8, seed=0), datasets, hidden_dim=12, num_layers=1
    )
    held = len(datasets[0].splits.held_out())
    with pytest.raises(ContractError):
        evaluate_retrieval(
            result.encoder, datasets[0], held + 1, np.random.default_rng(0), result.adapter
        )


def test_adapter_rejects_text_rows_of_another_width():
    adapter = TextAdapter.initialize(3, 4, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        adapter.apply(np.ones((2, 5)))


def test_pretrain_bits_do_not_depend_on_the_segment_sum_path(monkeypatch, tmp_path):
    # 8 entries sends every neighbour, backward and pooling sum down the
    # jagged-diagonal path, 1 << 30 down the one-bincount path.
    datasets = []
    for k, task in enumerate(("node", "edge", "graph")):
        made, _ = generate_domain(DomainSpec(
            domain=f"{task}_dom", task=task, num_instances=16, num_classes=3, nodes_min=3,
            nodes_max=30, feature_dim=5, text_dim=4, feature_noise=0.2, text_noise=0.1,
            label_noise=0.0, seed=70 + k,
        ))
        paths = tmp_path / f"{task}.jsonl", tmp_path / f"{task}.emb"
        save_dataset(made, *paths)
        datasets.append(load_dataset(*paths))
    config = PretrainConfig(epochs=4, batch_size=6, learning_rate=0.01, temperature=0.5, seed=3)
    runs = []
    for chunk in (8, 1 << 30, 8):
        monkeypatch.setattr("uglm.encoder.SEGMENT_CHUNK", chunk)
        result = pretrain_loop(config, datasets, hidden_dim=6, num_layers=3)
        runs.append((result.encoder.params.flat, result.adapter.params().flat, result.epoch_losses))
    (enc, adapter, losses), *others = runs
    for other_enc, other_adapter, other_losses in others:
        assert np.array_equal(enc, other_enc) and np.array_equal(adapter, other_adapter)
        assert losses == other_losses and len(losses) == 4
