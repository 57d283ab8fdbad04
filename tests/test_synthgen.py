from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import datasets_equal, instance_of, planted_class, text_cosine_margin

from uglm.encoder import MultiScaleEncoder, encode_packed
from uglm.errors import InvalidParameterError
from uglm.graphdata import load_dataset
from uglm.pretrain import DomainWeights, TextAdapter, dr_clip_loss
from uglm.synthgen import (
    DEFAULT_MASTER_SEED,
    DomainSpec,
    SUITE_LAYOUT,
    generate_benchmark_suite,
    generate_domain,
    suite_spec,
)


def spec(task="node", n=12, classes=3, noise_x=0.1, noise_t=0.1, noise_label=0.0, seed=0):
    return DomainSpec(
        domain="synth",
        task=task,
        num_instances=n,
        num_classes=classes,
        nodes_min=3,
        nodes_max=6,
        feature_dim=4,
        text_dim=5,
        feature_noise=noise_x,
        text_noise=noise_t,
        label_noise=noise_label,
        seed=seed,
    )


def is_connected(num_nodes, edges):
    adj = {v: set() for v in range(num_nodes)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == num_nodes


def instances(ds):
    """Every instance of ``ds`` as a GraphInstance."""
    return [instance_of(ds, i) for i in range(len(ds.arrays["label"]))]


# ------------------------------------------------------------- generation


def test_zero_noise_degeneracy():
    ds, emb = generate_domain(spec(noise_x=0.0, noise_t=0.0))
    graphs = instances(ds)
    for i, inst in enumerate(graphs):
        cls = planted_class(ds, i)
        feats = np.asarray(inst.node_features)
        # every node row equals the class prototype exactly
        assert np.array_equal(feats, np.tile(feats[0], (inst.num_nodes, 1)))
        assert inst.label == cls
        same_class = [j for j in range(len(graphs)) if planted_class(ds, j) == cls]
        for j in same_class:
            assert np.array_equal(graphs[j].node_features[0], feats[0])
            assert np.array_equal(emb[j], emb[i])


def test_same_spec_bit_identical():
    a, emb_a = generate_domain(spec(seed=123))
    b, emb_b = generate_domain(spec(seed=123))
    assert datasets_equal(a, b)
    assert np.array_equal(emb_a, emb_b)


def test_round_robin_class_balance():
    ds, _ = generate_domain(spec(n=100, classes=2, noise_label=0.0))
    counts = Counter(ds.arrays["label"].tolist())
    assert counts[0] == 50 and counts[1] == 50


def test_label_noise_flips_to_other_classes():
    ds, _ = generate_domain(spec(n=200, classes=4, noise_label=1.0, seed=5))
    for i, label in enumerate(ds.arrays["label"].tolist()):
        assert label != planted_class(ds, i)
        assert 0 <= label < 4


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["node", "edge", "graph"]),
    st.integers(2, 10),
    st.integers(0, 2**31 - 1),
)
def test_graphs_connected_and_bidirectional(task, nodes_max, seed):
    s = DomainSpec(
        domain="p",
        task=task,
        num_instances=6,
        num_classes=2,
        nodes_min=2,
        nodes_max=nodes_max,
        feature_dim=3,
        text_dim=3,
        feature_noise=0.2,
        text_noise=0.2,
        label_noise=0.1,
        seed=seed,
    )
    ds, _ = generate_domain(s)
    for inst in instances(ds):
        edge_set = set(inst.edges)
        assert all((v, u) in edge_set for u, v in inst.edges)
        assert is_connected(inst.num_nodes, inst.edges)
        assert len(inst.edges) == len(edge_set)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        spec(classes=1)
    with pytest.raises(InvalidParameterError):
        spec(noise_label=1.5)
    with pytest.raises(InvalidParameterError):
        DomainSpec(
            domain="e", task="edge", num_instances=2, num_classes=2,
            nodes_min=1, nodes_max=1, feature_dim=2, text_dim=2,
            feature_noise=0.0, text_noise=0.0, label_noise=0.0, seed=0,
        )


def test_splits_partition_instances():
    ds, _ = generate_domain(spec(n=37))
    all_idx = sorted(np.concatenate([ds.splits.train, ds.splits.val, ds.splits.test]).tolist())
    assert all_idx == list(range(37))


# ------------------------------------------------------------ fixed suite


def test_suite_files_load(tmp_path):
    written = generate_benchmark_suite(tmp_path, DEFAULT_MASTER_SEED)
    assert len(written) == 5
    tasks = {}
    for name, (gp, ep) in written.items():
        ds = load_dataset(gp, ep)
        assert ds.domain == name
        assert len(ds.arrays["label"]) == 200
        tasks[name] = ds.task
    assert sorted(tasks.values()) == ["edge", "graph", "node", "node", "node"]


def test_suite_byte_identical_across_runs(tmp_path):
    w1 = generate_benchmark_suite(tmp_path / "a", DEFAULT_MASTER_SEED)
    w2 = generate_benchmark_suite(tmp_path / "b", DEFAULT_MASTER_SEED)
    for name in w1:
        for p1, p2 in zip(w1[name], w2[name]):
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()


def test_text_margin_collapses_with_text_noise():
    # Frozen regression: the difficulty knob must stay monotone over the
    # pinned suite (text noise 0.05 -> 0.3 -> 0.6).
    margins = {}
    for name in ("easy", "medium", "hard"):
        ds, _ = generate_domain(suite_spec(name, DEFAULT_MASTER_SEED))
        margins[name] = text_cosine_margin(ds)
    assert margins["easy"] > margins["medium"] > margins["hard"]
    assert margins["easy"] > 0.9
    assert margins["hard"] < 0.25


def test_hard_has_higher_untrained_contrastive_loss_than_easy():
    # Suite-acceptance check: with a fixed random encoder and all
    # reweighting off, the hard domain's contrastive loss must exceed the
    # easy domain's on matched batches.
    rng = np.random.default_rng(0)
    enc = MultiScaleEncoder.initialize(16, 32, 2, rng)
    adapter = TextAdapter.initialize(16, 32, rng)
    losses = {}
    for name in ("easy", "hard"):
        ds, _ = generate_domain(suite_spec(name, DEFAULT_MASTER_SEED))
        idx = ds.splits.train[:100]
        x, _ = encode_packed(ds.arrays, idx, ds.task, enc)
        t = ds.text_embeddings[ds.arrays["text_index"][idx]]
        ones = DomainWeights(
            [name], np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1))
        )
        losses[name] = dr_clip_loss(x, t, [name] * len(idx), ones, 0.07, adapter).loss
    assert losses["hard"] > losses["easy"]


def test_suite_layout_matches_contract():
    names = [row[0] for row in SUITE_LAYOUT]
    assert names == ["easy", "medium", "hard", "edges", "graphs"]
    by_name = {row[0]: row for row in SUITE_LAYOUT}
    assert by_name["easy"][3] == 0.05 and by_name["easy"][4] == 0.0
    assert by_name["hard"][3] == 0.6 and by_name["hard"][4] == 0.3
