import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import datasets_equal

from uglm.errors import EmptyDataError, ParseError, ValidationError
from uglm.graphdata import (
    DomainDataset,
    EdgeTarget,
    GraphInstance,
    GraphTarget,
    MAX_CLASSES,
    NodeTarget,
    Splits,
    iterate_epochs,
    load_dataset,
    load_embeddings,
    save_dataset,
    save_embeddings,
    validate_graph,
)


def make_instance(domain="d0", num_nodes=3, target=None, label=0, text_index=0, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(0, 1), (1, 0), (1, 2), (2, 1)]
    return GraphInstance(
        num_nodes=num_nodes,
        edges=edges,
        node_features=rng.normal(size=(num_nodes, 2)),
        target=target if target is not None else NodeTarget(node=0),
        label=label,
        text_index=text_index,
        domain=domain,
    )


def make_dataset(domain="d0", task="node", n=4, classes=2, d_t=3, train=None, seed=0):
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        if task == "node":
            target = NodeTarget(node=i % 3)
        elif task == "edge":
            target = EdgeTarget(edge=(0, 1))
        else:
            target = GraphTarget()
        instances.append(
            make_instance(domain=domain, target=target, label=i % classes, text_index=i, seed=seed + i)
        )
    emb = rng.normal(size=(n, d_t)).astype(np.float32).astype(np.float64)
    train = list(range(n)) if train is None else train
    rest = [i for i in range(n) if i not in train]
    half = len(rest) // 2
    return DomainDataset(
        domain=domain,
        task=task,
        num_classes=classes,
        instances=instances,
        text_embeddings=emb,
        splits=Splits(train=train, val=rest[:half], test=rest[half:]),
    )


# ----------------------------------------------------------- file round trips


def test_two_instance_file_roundtrip(tmp_path):
    ds = make_dataset(n=2)
    gp, ep = tmp_path / "d0.jsonl", tmp_path / "d0.emb"
    save_dataset(ds, gp, ep)
    loaded = load_dataset(gp, ep)
    assert len(loaded.instances) == 2
    assert datasets_equal(ds, loaded)


def test_reserialize_reload_is_equal(tmp_path):
    ds = make_dataset(n=5, task="edge")
    gp, ep = tmp_path / "a.jsonl", tmp_path / "a.emb"
    save_dataset(ds, gp, ep)
    first = load_dataset(gp, ep)
    gp2, ep2 = tmp_path / "b.jsonl", tmp_path / "b.emb"
    save_dataset(first, gp2, ep2)
    second = load_dataset(gp2, ep2)
    assert datasets_equal(first, second)
    assert gp.read_bytes() == gp2.read_bytes()
    assert ep.read_bytes() == ep2.read_bytes()


def test_roundtrip_with_edge_features_and_null_label(tmp_path):
    ds = make_dataset(n=3)
    rng = np.random.default_rng(9)
    ds.instances[0].edge_features = rng.normal(size=(len(ds.instances[0].edges), 2))
    ds.instances[1].label = None
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(ds, gp, ep)
    loaded = load_dataset(gp, ep)
    assert datasets_equal(ds, loaded)
    assert loaded.instances[0].edge_features.shape == (4, 2)
    assert loaded.instances[1].label is None


def test_flat_node_features_rejected(tmp_path):
    ds = make_dataset(n=1)
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(ds, gp, ep)
    lines = gp.read_text().splitlines()
    record = json.loads(lines[1])
    record["node_features"] = [1.0, 2.0, 3.0]
    gp.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(ParseError):
        load_dataset(gp, ep)


def _saved_with_line_edit(tmp_path, lineno, **fields):
    """Save a 2-instance dataset, then overwrite fields of one JSONL line."""
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=2), gp, ep)
    lines = gp.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    record.update(fields)
    lines[lineno - 1] = json.dumps(record)  # writes NaN/Infinity for non-finite floats
    gp.write_text("\n".join(lines) + "\n")
    return gp, ep


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_node_features_name_path_and_line(tmp_path, value):
    gp, ep = _saved_with_line_edit(
        tmp_path, 3, node_features=[[0.0, 1.0], [value, 0.0], [1.0, 1.0]]
    )
    with pytest.raises(ParseError) as exc:
        load_dataset(gp, ep)
    assert f"{gp}:3:" in str(exc.value) and "non-finite" in str(exc.value)


@pytest.mark.parametrize(
    "field, value",
    [("text_index", float("inf")), ("num_nodes", float("inf")), ("edge_features", 5)],
)
def test_unconvertible_field_values_are_parse_errors(tmp_path, field, value):
    gp, ep = _saved_with_line_edit(tmp_path, 2, **{field: value})
    with pytest.raises(ParseError) as exc:
        load_dataset(gp, ep)
    assert f"{gp}:2:" in str(exc.value)


def test_class_count_is_capped(tmp_path):
    gp, ep = _saved_with_line_edit(tmp_path, 1, classes=MAX_CLASSES + 1)
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert str(gp) in str(exc.value) and "class count" in str(exc.value)


def test_non_finite_embedding_row_names_path_and_row(tmp_path):
    table = np.ones((3, 2))
    table[2, 1] = np.inf
    path = tmp_path / "t.emb"
    save_embeddings(table, path)
    with pytest.raises(ParseError) as exc:
        load_embeddings(path)
    assert str(path) in str(exc.value) and "row 2" in str(exc.value)


def test_embedding_roundtrip_is_exact_float32(tmp_path):
    rng = np.random.default_rng(1)
    table = rng.normal(size=(4, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.emb"
    save_embeddings(table, path)
    back = load_embeddings(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, table)


def test_embedding_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOTEMB\x01" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_embeddings(path)


def test_malformed_record_reports_line_number(tmp_path):
    ds = make_dataset(n=2)
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(ds, gp, ep)
    lines = gp.read_text().splitlines()
    lines[2] = lines[2][:-5]  # chop the end of instance 2's JSON
    gp.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(gp, ep)
    assert ":3:" in str(exc.value)


def test_out_of_range_edge_is_validation_error(tmp_path):
    ds = make_dataset(n=2)
    ds.instances[1].edges.append((0, 5))
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(ds, gp, ep)
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    msg = str(exc.value)
    assert f"{gp}:3:" in msg and "(0,5)" in msg


def test_text_index_beyond_table_is_validation_error(tmp_path):
    ds = make_dataset(n=2)
    ds.instances[0].text_index = 99
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(ds, gp, ep)
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert "text_index" in str(exc.value)


def test_header_checks(tmp_path):
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=1), gp, ep)
    lines = gp.read_text().splitlines()
    header = json.loads(lines[0])
    header["format"] = "something-else"
    gp.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ParseError):
        load_dataset(gp, ep)


def test_split_overlap_rejected(tmp_path):
    ds = make_dataset(n=3, train=[0, 1])
    ds.splits.val = [1]
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(ds, gp, ep)
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert "two splits" in str(exc.value)


# -------------------------------------------------------------- validate_graph


def test_validate_graph_clean_instance():
    assert validate_graph(make_instance()) == []


def test_validate_graph_target_node_out_of_range():
    bad = make_instance(target=NodeTarget(node=3))
    problems = validate_graph(bad)
    assert len(problems) == 1 and "target node 3" in problems[0]


def test_validate_graph_target_edge_missing():
    bad = make_instance(target=EdgeTarget(edge=(0, 2)))
    problems = validate_graph(bad)
    assert len(problems) == 1 and "target edge" in problems[0]


def test_validate_graph_collects_all_violations():
    bad = make_instance(target=NodeTarget(node=9))
    bad.edges.append((7, 0))
    problems = validate_graph(bad, num_classes=1, num_texts=1)
    assert len(problems) == 2


# ------------------------------------------------------------------ batching


def test_exhaustive_batch_is_the_union():
    a = make_dataset(domain="a", n=10, seed=0)
    b = make_dataset(domain="b", n=10, seed=1)
    batch = next(iterate_epochs([a, b], 20, 1, np.random.default_rng(5)))
    assert len(batch) == 20
    assert batch.active_domains == ("a", "b")
    seen = Counter((ds.domain, idx) for ds, idx in batch.items)
    assert all(count == 1 for count in seen.values())
    assert len(seen) == 20


def test_batch_size_one_single_domain():
    a = make_dataset(domain="a", n=4)
    b = make_dataset(domain="b", n=4)
    batch = next(iterate_epochs([a, b], 1, 1, np.random.default_rng(0)))
    assert len(batch.active_domains) == 1


def test_same_seed_same_batch():
    a = make_dataset(domain="a", n=8)
    b1 = next(iterate_epochs([a], 3, 1, np.random.default_rng(42)))
    b2 = next(iterate_epochs([a], 3, 1, np.random.default_rng(42)))
    assert [(ds.domain, i) for ds, i in b1.items] == [(ds.domain, i) for ds, i in b2.items]


def test_epoch_batch_sizes_4_4_2():
    a = make_dataset(domain="a", n=10)
    sizes = [len(b) for b in iterate_epochs([a], 4, 1, np.random.default_rng(0))]
    assert sizes == [4, 4, 2]


def test_zero_epochs_empty_stream():
    a = make_dataset(domain="a", n=4)
    assert list(iterate_epochs([a], 2, 0, np.random.default_rng(0))) == []


def test_epoch_reshuffle_differs_but_run_repeats():
    a = make_dataset(domain="a", n=32)
    def run():
        return [
            [(ds.domain, i) for ds, i in b.items]
            for b in iterate_epochs([a], 8, 2, np.random.default_rng(9))
        ]
    first, second = run(), run()
    assert first == second  # identical seed -> identical stream
    epoch1, epoch2 = first[:4], first[4:]
    assert epoch1 != epoch2  # reshuffled between epochs


def test_empty_union_raises():
    a = make_dataset(domain="a", n=2, train=[])
    with pytest.raises(EmptyDataError):
        next(iterate_epochs([a], 1, 1, np.random.default_rng(0)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_each_train_instance_once_per_epoch(na, nb, batch_size, seed):
    a = make_dataset(domain="a", n=na, seed=0)
    b = make_dataset(domain="b", n=nb, seed=1)
    batches = list(iterate_epochs([a, b], batch_size, 1, np.random.default_rng(seed)))
    seen = Counter((ds.domain, idx) for batch in batches for ds, idx in batch.items)
    assert sum(seen.values()) == na + nb
    assert all(count == 1 for count in seen.values())


def test_long_run_domain_proportions_match_train_splits():
    a = make_dataset(domain="a", n=12, train=list(range(3)))
    b = make_dataset(domain="b", n=12, train=list(range(7)))
    counts: Counter = Counter()
    total = 0
    for batch in iterate_epochs([a, b], 4, 50, np.random.default_rng(3)):
        for ds, _ in batch.items:
            counts[ds.domain] += 1
            total += 1
    assert abs(counts["a"] / total - 3 / 10) <= 0.02
    assert abs(counts["b"] / total - 7 / 10) <= 0.02
