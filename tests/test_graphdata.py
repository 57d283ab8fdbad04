import contextlib
import dataclasses
import hashlib
import json
import os
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import datasets_equal, train_pool, with_labels

from uglm import graphdata
from uglm.cli import main
from uglm.errors import (
    DimensionError, EmptyDataError, InvalidParameterError, ParseError, UglmError, ValidationError,
)
from uglm.graphdata import (
    DomainDataset,
    EdgeTarget,
    GraphInstance,
    GraphTarget,
    MAX_CLASSES,
    NodeTarget,
    Pool,
    Splits,
    load_dataset,
    save_dataset,
    save_embeddings,
)
from uglm.persist import Checkpoint, decode_checkpoint, encode_checkpoint
from uglm.synthgen import DomainSpec, generate_benchmark_suite, generate_domain


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
    return DomainDataset.from_instances(
        domain, task, classes, instances, emb, Splits(train=train, val=rest[:half], test=rest[half:])
    )


# ----------------------------------------------------------- file round trips


def test_two_instance_file_roundtrip(tmp_path):
    ds = make_dataset(n=2)
    gp, ep = tmp_path / "d0.jsonl", tmp_path / "d0.emb"
    save_dataset(ds, gp, ep)
    loaded = load_dataset(gp, ep)
    assert len(loaded.arrays["label"]) == 2
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
    ds = with_labels(make_dataset(n=3), {1: None})
    rows = [[0.5, -1.0]] * int(ds.arrays["edge_offsets"][1])
    gp, ep = _saved_with_line_edit(tmp_path, 2, ds, edge_features=rows)
    loaded = load_dataset(gp, ep)
    assert datasets_equal(ds, loaded)  # edge features are accepted, then dropped
    assert loaded.arrays["label"][1] == -1  # null
    gp, ep = _saved_with_line_edit(tmp_path, 2, ds, edge_features=rows[:-1])
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert f"{gp}:2:" in str(exc.value) and "edge_features rows 3 != edge count 4" in str(exc.value)


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


def _saved_with_line_edit(tmp_path, lineno, ds=None, **fields):
    """Save a dataset (2 node-task instances by default), then overwrite
    fields of one JSONL line."""
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=2) if ds is None else ds, gp, ep)
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


@pytest.mark.parametrize(
    "lineno, fields, name",
    [
        (1, {"splits": {"train": [0.5, 1], "val": [], "test": []}}, "splits train"),
        (1, {"classes": 20.5}, "classes"),
        (1, {"classes": 2.0}, "classes"),
        (2, {"label": 0.5}, "label"),
        (2, {"label": True}, "label"),
        (2, {"text_index": 0.5}, "text_index"),
        (2, {"num_nodes": 3.0}, "num_nodes"),
        (2, {"target": {"node": 0.5}}, "target node"),
        (2, {"edges": [[0, 0.5], [1, 0]]}, "edges"),
        (2, {"edges": [[0, 1], [False, 0]]}, "edges"),
    ],
)
def test_integer_fields_take_only_json_integers(tmp_path, lineno, fields, name):
    gp, ep = _saved_with_line_edit(tmp_path, lineno, **fields)
    with pytest.raises(ParseError, match=f"^{gp}:{lineno}: malformed (header|record): field {name}: "):
        load_dataset(gp, ep)


@pytest.mark.parametrize(
    "lineno, fields, problem",
    [
        (1, {"version": True}, "unsupported version True"),
        (1, {"version": 1.0}, "unsupported version 1.0"),
        (3, {"target": {"graph": False}}, "graph target must be true, got False"),
        (3, {"target": {"graph": 7}}, "graph target must be true, got 7"),
    ],
    ids=["version-true", "version-1.0", "graph-target-false", "graph-target-7"],
)
def test_header_version_and_graph_target_take_only_their_json_values(tmp_path, capsys, lineno, fields, problem):
    data = tmp_path / "data"
    data.mkdir()  # fresh files: no sidecar can stand in for the parse
    gp, ep = _saved_with_line_edit(data, lineno, make_dataset(n=2, task="graph"), **fields)
    with pytest.raises(ParseError) as exc:
        load_dataset(gp, ep)
    assert str(exc.value) == f"{gp}:{lineno}: {problem}"
    config = tmp_path / "config.json"
    config.write_text("{}")
    assert main(["pretrain", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "e.ckpt")]) == 1
    assert capsys.readouterr().err == f"error: {gp}:{lineno}: {problem}\n"


def test_class_count_is_capped(tmp_path):
    gp, ep = _saved_with_line_edit(tmp_path, 1, classes=MAX_CLASSES + 1)
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert str(gp) in str(exc.value) and "class count" in str(exc.value)


def test_non_finite_embedding_row_names_path_and_row(tmp_path):
    gp, path = _saved_with_line_edit(tmp_path, 1)
    table = np.ones((3, 2))
    table[2, 1] = np.inf
    save_embeddings(table, path)
    with pytest.raises(ParseError) as exc:
        load_dataset(gp, path)
    assert str(path) in str(exc.value) and "row 2" in str(exc.value)


def test_embedding_roundtrip_is_exact_float32(tmp_path):
    gp, path = _saved_with_line_edit(tmp_path, 1)
    rng = np.random.default_rng(1)
    table = rng.normal(size=(4, 3)).astype(np.float32).astype(np.float64)
    save_embeddings(table, path)
    back = load_dataset(gp, path).text_embeddings
    assert back.dtype == np.float64
    assert np.array_equal(back, table)


def test_embedding_bad_magic(tmp_path):
    gp, path = _saved_with_line_edit(tmp_path, 1)
    path.write_bytes(b"NOTEMB\x01" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_dataset(gp, path)


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
    gp, ep = _saved_with_line_edit(tmp_path, 3, edges=[[0, 1], [1, 0], [1, 2], [2, 1], [0, 5]])
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    msg = str(exc.value)
    assert f"{gp}:3:" in msg and "(0,5)" in msg


def test_text_index_beyond_table_is_validation_error(tmp_path):
    gp, ep = _saved_with_line_edit(tmp_path, 2, text_index=99)
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
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=3, train=[0, 1]), gp, ep)
    lines = gp.read_text().splitlines()
    header = json.loads(lines[0])
    header["splits"]["val"] = [1]
    gp.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert str(exc.value) == f"{gp}:1: split val: index 1 appears in two splits"


def test_split_edit_raises_at_the_edit():
    ds = make_dataset(n=4, train=[0, 1])
    with pytest.raises(ValueError, match="read-only"):
        ds.splits.train[0] = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.splits.val = [1]
    with pytest.raises(AttributeError):
        ds.splits.train.append(99)
    assert ds.splits.train.dtype == np.intp and ds.splits.train.tolist() == [0, 1]
    for bad in ([1.5], [True], [[0, 1]], ["0"]):
        with pytest.raises(ValidationError, match="^split val must be a list of integer indices$"):
            Splits(val=bad)


@pytest.mark.parametrize(
    "splits, problem",
    [
        (Splits(train=[0, 1, 1]), "split train: index 1 appears in two splits"),
        (Splits(train=[2], val=[0, 5, 1], test=[2]), r"split val: index 5 not in \[0,4\)"),
        (Splits(train=[2], val=[0, 1], test=[3, 2]), "split test: index 2 appears in two splits"),
        (Splits(test=[-1]), r"split test: index -1 not in \[0,4\)"),
    ],
)
def test_split_checks_name_the_first_bad_index(splits, problem):
    with pytest.raises(ValidationError, match=f"^domain 'd0': {problem}$"):
        dataclasses.replace(make_dataset(n=4), splits=splits)


# ------------------------------------------------------------- validation


def test_validate_graph_clean_instance(tmp_path):
    ds = make_dataset(n=1)
    gp, ep = _saved_with_line_edit(tmp_path, 2, ds)
    assert datasets_equal(ds, load_dataset(gp, ep))


def test_validate_graph_target_node_out_of_range(tmp_path):
    gp, ep = _saved_with_line_edit(tmp_path, 2, target={"node": 3})
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert str(exc.value) == f"{gp}:2: target node 3 not in [0,3)"


def test_validate_graph_target_edge_missing(tmp_path):
    gp, ep = _saved_with_line_edit(tmp_path, 3, make_dataset(n=2, task="edge"), target={"edge": [0, 2]})
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert str(exc.value) == f"{gp}:3: target edge (0, 2) not in the edge list"


def test_validate_graph_collects_all_violations(tmp_path):
    edges = [[0, 1], [1, 0], [7, 0]]
    gp, ep = _saved_with_line_edit(
        tmp_path, 3, edges=edges, target={"node": 9}, label=5, text_index=2
    )
    with pytest.raises(ValidationError) as exc:
        load_dataset(gp, ep)
    assert str(exc.value) == (
        f"{gp}:3: edge 2 = (7,0) has endpoints outside [0,3); target node 9 not in [0,3); "
        "label 5 not in [0,2); text_index 2 not in [0,2)"
    )


# ------------------------------------------------- in-memory construction


def _no_nodes(g):
    g.num_nodes, g.edges, g.node_features = 0, [], np.zeros((0, 2))


@pytest.mark.parametrize(
    "spoil, problem",
    [
        # packed, (1, 3) would end on instance 2's node 0
        (lambda g: g.edges.append((1, 3)), "edge 4 = (1,3) has endpoints outside [0,3)"),
        (lambda g: setattr(g, "target", NodeTarget(node=3)), "target node 3 not in [0,3)"),
        (lambda g: setattr(g, "label", 7), "label 7 not in [0,2)"),
        (lambda g: setattr(g, "label", -1), "label -1 not in [0,2)"),
        (lambda g: setattr(g, "label", -2), "label -2 not in [0,2)"),
        (lambda g: setattr(g, "text_index", 3), "text_index 3 not in [0,3)"),
        (_no_nodes, "instance has no nodes"),
        (lambda g: setattr(g, "target", GraphTarget()),
         "field target: kind 'graph' does not match dataset task 'node'"),
    ],
)
def test_bad_instance_is_an_error_at_construction(spoil, problem):
    instances = [make_instance(domain="d", label=0, text_index=i, seed=i) for i in range(3)]
    spoil(instances[1])
    with pytest.raises(UglmError) as exc:
        DomainDataset.from_instances("d", "node", 2, instances, np.ones((3, 2)), Splits(train=[0, 1, 2]))
    assert str(exc.value) == f"domain 'd' instance 1: {problem}"


def test_domain_level_errors_name_the_domain():
    with pytest.raises(EmptyDataError, match="^domain 'd': no instances$"):
        DomainDataset.from_instances("d", "node", 2, [], np.ones((1, 2)), Splits())
    with pytest.raises(ValidationError, match=r"^domain 'd': split val: index 4 not in \[0,4\)$"):
        DomainDataset.from_instances("d", "node", 2, [make_instance("d")] * 4, np.ones((1, 2)),
                                     Splits(val=[4]))
    with pytest.raises(ValidationError, match=r"^domain 'd': class count"):
        DomainDataset.from_instances("d", "node", 0, [make_instance("d")], np.ones((1, 2)), Splits())


def test_feature_width_mismatch_names_the_instance():
    instances = [make_instance("d", num_nodes=2, seed=0), make_instance("d", num_nodes=2, seed=1)]
    instances[1].node_features = np.ones((2, 3))
    instances[0].edges = instances[1].edges = [(0, 1), (1, 0)]
    with pytest.raises(DimensionError) as exc:
        DomainDataset.from_instances("d", "node", 2, instances, np.ones((2, 2)), Splits(train=[0, 1]))
    assert str(exc.value) == "domain 'd' instance 1: node features (2, 3) do not match (2 nodes, 2)"


@pytest.mark.parametrize(
    "spoil",
    [
        lambda a: {**a, "label": a["label"][:-1]},
        lambda a: {**a, "node_offsets": a["node_offsets"] + 1},
        lambda a: {**a, "edge_offsets": a["edge_offsets"][::-1].copy()},
        lambda a: {**a, "edges": a["edges"].astype(np.float64)},
        lambda a: {**a, "target": a["target"][:, 0]},
        lambda a: {k: v for k, v in a.items() if k != "text_index"},
        lambda a: {**a, "node_features": a["node_features"].tolist()},
    ],
)
def test_in_memory_arrays_that_do_not_fit_together_are_a_validation_error(spoil):
    ds = make_dataset(n=3)
    with pytest.raises(ValidationError, match="^domain 'd0': packed arrays do not fit together$"):
        dataclasses.replace(ds, arrays=spoil(ds.arrays))


def test_arrays_are_read_only_after_validation():
    ds = make_dataset(n=3)
    for name in graphdata.PACK_ARRAYS:
        with pytest.raises(ValueError):
            ds.arrays[name][...] = 0
    with pytest.raises(ValidationError, match="^domain 'd0' instance 0: label 5 not in"):
        with_labels(ds, {0: 5})  # an edit builds a new dataset, which checks it


# ------------------------------------------------------------ pack sidecar


@pytest.fixture
def parse_count(monkeypatch):
    """How often load_dataset has parsed a JSONL file."""
    calls = []
    parse = graphdata._parse_jsonl

    def counted(lines, path):
        calls.append(path)
        return parse(lines, path)

    monkeypatch.setattr(graphdata, "_parse_jsonl", counted)
    return calls


def _pack_of(gp):
    return gp.with_name(gp.name + ".pack")


def _cold_and_warm(gp, ep, parse_count):
    """Load from the JSONL (writing the sidecar), then from the sidecar."""
    cold = load_dataset(gp, ep)
    assert len(parse_count) == 1 and _pack_of(gp).is_file()
    warm = load_dataset(gp, ep)
    assert len(parse_count) == 1, "the second load parsed the JSONL again"
    parse_count.clear()
    return cold, warm


def test_pack_path_equals_jsonl_path_on_suite_domains(tmp_path, parse_count):
    written = generate_benchmark_suite(str(tmp_path), 4)
    for gp, ep in written.values():
        cold, warm = _cold_and_warm(tmp_path / os.path.basename(gp), ep, parse_count)
        assert datasets_equal(cold, warm)
        assert not any(a.flags.writeable for a in warm.arrays.values())
        assert (warm.graph_path, warm.sha256) == (cold.graph_path, cold.sha256)


def test_pack_path_equals_jsonl_path_on_a_wide_domain(tmp_path, parse_count):
    spec = DomainSpec(
        domain="wide", task="edge", num_instances=120, num_classes=10, nodes_min=75,
        nodes_max=150, feature_dim=32, text_dim=24, feature_noise=0.5, text_noise=0.5,
        label_noise=0.1, seed=3,
    )
    ds, _ = generate_domain(spec)
    gp, ep = tmp_path / "wide.jsonl", tmp_path / "wide.emb"
    save_dataset(ds, gp, ep)
    cold, warm = _cold_and_warm(gp, ep, parse_count)
    assert datasets_equal(ds, cold) and datasets_equal(cold, warm)


def _flip_byte(pack, other):
    blob = bytearray(pack.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    pack.write_bytes(bytes(blob))


def _truncate(pack, other):
    pack.write_bytes(pack.read_bytes()[:-100])


def _bump_version(pack, other):
    old = decode_checkpoint(pack.read_bytes(), pack)
    meta = {**old.metadata, "pack_version": old.metadata["pack_version"] + 1}
    pack.write_bytes(encode_checkpoint(Checkpoint(meta, old.tensors)))


def _copy_other_domain(pack, other):
    pack.write_bytes(_pack_of(other).read_bytes())


def _rewrite_jsonl(pack, other):
    save_dataset(make_dataset(n=5, seed=11), pack.with_suffix(""), pack.with_suffix("").with_suffix(".emb"))


def _inconsistent_offsets(pack, other):
    # keyed and checksummed, but the validator rejects it: the edges overrun
    old = decode_checkpoint(pack.read_bytes(), pack)
    tensors = {**old.tensors, "edge_offsets": old.tensors["edge_offsets"] + 1.0}
    pack.write_bytes(encode_checkpoint(Checkpoint(old.metadata, tensors)))


@pytest.mark.parametrize(
    "spoil", [_flip_byte, _truncate, _bump_version, _copy_other_domain, _rewrite_jsonl, _inconsistent_offsets]
)
def test_spoiled_sidecar_is_reparsed(tmp_path, parse_count, spoil):
    gp, ep = tmp_path / "a.jsonl", tmp_path / "a.emb"
    other = tmp_path / "b.jsonl"
    save_dataset(make_dataset(n=4, task="edge"), gp, ep)
    save_dataset(make_dataset(domain="b", n=3, seed=5), other, tmp_path / "b.emb")
    load_dataset(gp, ep)
    load_dataset(other, tmp_path / "b.emb")
    spoil(_pack_of(gp), other)
    parse_count.clear()
    loaded = load_dataset(gp, ep)
    assert parse_count == [gp]
    _pack_of(gp).unlink()
    assert datasets_equal(loaded, load_dataset(gp, ep))  # what the JSONL alone gives
    parse_count.clear()
    load_dataset(gp, ep)
    assert parse_count == []  # the rewritten sidecar is used again


def test_directory_in_place_of_sidecar_means_parse_only(tmp_path, parse_count):
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    ds = make_dataset(n=3)
    save_dataset(ds, gp, ep)
    _pack_of(gp).mkdir()
    for _ in range(2):
        assert datasets_equal(ds, load_dataset(gp, ep))
    assert len(parse_count) == 2 and _pack_of(gp).is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.emb", "d.jsonl", "d.jsonl.pack"]


def test_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    ds = make_dataset(n=3)
    save_dataset(ds, gp, ep)

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(graphdata.os, "replace", refuse)
    assert datasets_equal(ds, load_dataset(gp, ep))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.emb", "d.jsonl"]


def test_shrunken_embedding_table_is_caught_on_the_pack_path(tmp_path, parse_count):
    ds = make_dataset(n=4)
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(ds, gp, ep)
    load_dataset(gp, ep)
    save_embeddings(ds.text_embeddings[:2], ep)
    parse_count.clear()
    with pytest.raises(ValidationError) as from_pack:
        load_dataset(gp, ep)
    assert parse_count == [gp]  # a sidecar that fails validation is stale: the error is the parse's
    _pack_of(gp).unlink()
    with pytest.raises(ValidationError) as from_jsonl:
        load_dataset(gp, ep)
    assert str(from_pack.value) == str(from_jsonl.value) == f"{gp}:4: text_index 2 not in [0,2)"


def test_sidecar_of_pack_version_1_is_parsed_again(tmp_path, parse_count):
    gp, ep = _saved_with_line_edit(tmp_path, 2)
    load_dataset(gp, ep)
    _saved_with_line_edit(tmp_path, 2, label=0.5)  # version 1 read this label as 0
    old = decode_checkpoint(_pack_of(gp).read_bytes(), gp)
    key = hashlib.sha256(gp.read_bytes()).hexdigest()
    meta = {**old.metadata, "pack_version": 1, "source_sha256": key}  # what version 1 wrote
    _pack_of(gp).write_bytes(encode_checkpoint(Checkpoint(meta, old.tensors)))
    parse_count.clear()
    with pytest.raises(ParseError, match=f"^{gp}:2: malformed record: field label: 0.5 is not"):
        load_dataset(gp, ep)
    assert parse_count == [gp]


@pytest.mark.parametrize(
    "lineno, fields, problem",
    [
        (1, {"version": True}, "unsupported version True"),
        (3, {"target": {"graph": 7}}, "graph target must be true, got 7"),
    ],
    ids=["version-true", "graph-target-7"],
)
def test_sidecar_of_pack_version_2_is_parsed_again(tmp_path, parse_count, lineno, fields, problem):
    graphs = make_dataset(n=2, task="graph")
    gp, ep = _saved_with_line_edit(tmp_path, lineno, graphs)
    load_dataset(gp, ep)
    _saved_with_line_edit(tmp_path, lineno, graphs, **fields)  # version 2 read the same arrays from this
    old = decode_checkpoint(_pack_of(gp).read_bytes(), gp)
    key = hashlib.sha256(gp.read_bytes()).hexdigest()
    meta = {**old.metadata, "pack_version": 2, "source_sha256": key}  # what version 2 wrote
    _pack_of(gp).write_bytes(encode_checkpoint(Checkpoint(meta, old.tensors)))
    parse_count.clear()
    with pytest.raises(ParseError, match=f"^{gp}:{lineno}: {problem}$"):
        load_dataset(gp, ep)
    assert parse_count == [gp]


def test_missing_jsonl_and_embeddings_raise_the_jsonls_error(tmp_path):
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=3), gp, ep)
    load_dataset(gp, ep)
    gp.unlink()
    ep.unlink()
    with pytest.raises(FileNotFoundError) as exc:
        load_dataset(gp, ep)
    assert str(exc.value) == f"[Errno 2] No such file or directory: '{gp}'"


def test_stale_sidecar_bad_line_and_missing_embeddings_raise_the_parse_error(tmp_path, parse_count):
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=3), gp, ep)
    load_dataset(gp, ep)
    lines = gp.read_text().splitlines()
    gp.write_text("\n".join([lines[0], "{not json", *lines[2:]]) + "\n")
    ep.unlink()
    parse_count.clear()
    with pytest.raises(ParseError, match=f"^{gp}:2: invalid JSON: "):
        load_dataset(gp, ep)
    assert parse_count == [gp]


def test_matching_sidecar_and_missing_embeddings_raise_for_the_embeddings(tmp_path, parse_count):
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=3), gp, ep)
    load_dataset(gp, ep)
    ep.unlink()
    parse_count.clear()
    with pytest.raises(FileNotFoundError) as exc:
        load_dataset(gp, ep)
    assert str(exc.value) == f"[Errno 2] No such file or directory: '{ep}'"
    assert parse_count == []


@pytest.mark.parametrize("spoil", [lambda gp, ep: None, lambda gp, ep: ep.unlink(),
                                   lambda gp, ep: gp.unlink(), lambda gp, ep: gp.write_text("{")])
def test_no_thread_outlives_a_load(tmp_path, spoil):
    gp, ep = tmp_path / "d.jsonl", tmp_path / "d.emb"
    save_dataset(make_dataset(n=3), gp, ep)
    load_dataset(gp, ep)
    spoil(gp, ep)
    before = threading.active_count()
    with contextlib.suppress(OSError, UglmError):
        load_dataset(gp, ep)
    assert threading.active_count() == before


def test_streamed_digest_of_a_file_longer_than_its_chunk(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(0).bytes(2500))
    digest = []
    graphdata._stream_sha256(path, digest, bytearray(1000))
    assert digest == [hashlib.sha256(path.read_bytes()).hexdigest()]
    graphdata._stream_sha256(tmp_path / "missing", digest, bytearray(1000))
    assert len(digest) == 1


# ------------------------------------------------------------------ batching


def pool_domains(datasets, batch):
    """The domain of each pool row of ``batch``."""
    pool = train_pool(datasets)
    return [pool[r][0].domain for r in batch]


def test_exhaustive_batch_is_the_union():
    a = make_dataset(domain="a", n=10, seed=0)
    b = make_dataset(domain="b", n=10, seed=1)
    batch = next(Pool.of([a, b]).batches(20, 1, np.random.default_rng(5)))
    assert len(batch) == 20 and batch.dtype.kind == "i"
    assert set(pool_domains([a, b], batch)) == {"a", "b"}
    assert sorted(batch.tolist()) == list(range(20))


def test_batch_size_one_single_domain():
    a = make_dataset(domain="a", n=4)
    b = make_dataset(domain="b", n=4)
    batch = next(Pool.of([a, b]).batches(1, 1, np.random.default_rng(0)))
    assert len(set(pool_domains([a, b], batch))) == 1


def test_batches_slice_one_permutation_of_the_pool_per_epoch():
    a = make_dataset(domain="a", n=6, train=[1, 4, 5])
    b = make_dataset(domain="b", n=5, train=[0, 3])
    batches = list(Pool.of([a, b]).batches(2, 2, np.random.default_rng(7)))
    assert [len(batch) for batch in batches] == [2, 2, 1] * 2
    rng = np.random.default_rng(7)  # one draw per epoch, of the pool's size
    assert np.array_equal(np.concatenate(batches), np.concatenate([rng.permutation(5), rng.permutation(5)]))


def test_same_seed_same_batch():
    a = make_dataset(domain="a", n=8)
    b1 = next(Pool.of([a]).batches(3, 1, np.random.default_rng(42)))
    b2 = next(Pool.of([a]).batches(3, 1, np.random.default_rng(42)))
    assert np.array_equal(b1, b2)


def test_epoch_batch_sizes_4_4_2():
    a = make_dataset(domain="a", n=10)
    sizes = [len(b) for b in Pool.of([a]).batches(4, 1, np.random.default_rng(0))]
    assert sizes == [4, 4, 2]


def test_zero_epochs_empty_stream():
    a = make_dataset(domain="a", n=4)
    assert list(Pool.of([a]).batches(2, 0, np.random.default_rng(0))) == []


def test_epoch_reshuffle_differs_but_run_repeats():
    a = make_dataset(domain="a", n=32)
    def run():
        return [b.tolist() for b in Pool.of([a]).batches(8, 2, np.random.default_rng(9))]
    first, second = run(), run()
    assert first == second  # identical seed -> identical stream
    epoch1, epoch2 = first[:4], first[4:]
    assert epoch1 != epoch2  # reshuffled between epochs


def test_empty_union_raises():
    a = make_dataset(domain="a", n=2, train=[])
    with pytest.raises(EmptyDataError):
        next(Pool.of([a]).batches(1, 1, np.random.default_rng(0)))


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
    batches = list(Pool.of([a, b]).batches(batch_size, 1, np.random.default_rng(seed)))
    seen = Counter(r for batch in batches for r in batch.tolist())
    assert sorted(seen) == list(range(na + nb))
    assert all(count == 1 for count in seen.values())


def test_long_run_domain_proportions_match_train_splits():
    a = make_dataset(domain="a", n=12, train=list(range(3)))
    b = make_dataset(domain="b", n=12, train=list(range(7)))
    counts: Counter = Counter()
    total = 0
    for batch in Pool.of([a, b]).batches(4, 50, np.random.default_rng(3)):
        for domain in pool_domains([a, b], batch):
            counts[domain] += 1
            total += 1
    assert abs(counts["a"] / total - 3 / 10) <= 0.02
    assert abs(counts["b"] / total - 7 / 10) <= 0.02


def test_pool_rows_are_the_splits_end_to_end():
    a = make_dataset(domain="a", n=6, train=[1, 4, 5], seed=0)
    b = make_dataset(domain="b", task="edge", n=5, train=[0, 3], seed=1)
    pool = Pool.of([a, b])
    assert len(pool) == 5 and pool.kinds.tolist() == ["node"] * 3 + ["edge"] * 2
    assert [(pool.datasets[d].domain, i) for d, i in zip(pool.dataset, pool.instance)] == [
        (ds.domain, i) for ds, i in train_pool([a, b])
    ]
    for r, (ds, i) in enumerate(train_pool([a, b])):
        assert pool.place(r) == ds.place(i)
        assert np.array_equal(pool.texts[r], ds.text_embeddings[ds.arrays["text_index"][i]])
        for k in ("target", "label", "text_index"):
            assert np.array_equal(pool.arrays[k][r], ds.arrays[k][i])
        nodes = slice(*pool.arrays["node_offsets"][r : r + 2])
        theirs = slice(*ds.arrays["node_offsets"][i : i + 2])
        assert np.array_equal(pool.arrays["node_features"][nodes], ds.arrays["node_features"][theirs])
        edges = slice(*pool.arrays["edge_offsets"][r : r + 2])
        theirs = slice(*ds.arrays["edge_offsets"][i : i + 2])
        assert np.array_equal(pool.arrays["edges"][edges], ds.arrays["edges"][theirs])
    held = Pool.of([a, b], "test")
    assert held.instance.tolist() == a.splits.test.tolist() + b.splits.test.tolist()
    with pytest.raises(InvalidParameterError, match="unknown split 'dev'"):
        Pool.of([a], "dev")
