"""Mutation fuzzing of every file the CLI reads.

Each example changes one thing in a tiny two-domain suite -- one field of
one JSONL record, one embedding header field, one byte, the length, a
tensor or a metadata entry of a ``.jsonl.pack`` sidecar, or one checkpoint
metadata entry or tensor -- and runs the commands that read it. Whatever the
mutation, ``cli.main`` must return an exit code: only ``UglmError`` and
``OSError`` may end a command, and ``main`` turns both into codes.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uglm.cli import main
from uglm.graphdata import EMBEDDING_MAGIC, save_dataset
from uglm.persist import Checkpoint, decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint
from uglm.synthgen import DomainSpec, generate_domain

DOMAINS = (("alpha", "node"), ("beta", "graph"))

# hidden_dim differs from text_dim, so the encoder carries a text adapter.
CONFIG = {
    "encoder": {"num_layers": 2, "hidden_dim": 4},
    "pretrain": {"epochs": 1, "batch_size": 8},
    "align": {"total_steps": 2, "batch_size": 4, "num_tokens": 2, "token_dim": 3},
}

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-2, 12), max_size=3),
    st.lists(st.lists(st.floats(-2, 2), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["node", "edge", "graph", "x"]), st.integers(-1, 3), max_size=2),
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A two-domain suite plus a config, an encoder and a projector for it."""
    root = tmp_path_factory.mktemp("tiny")
    data = root / "data"
    data.mkdir()
    for k, (name, task) in enumerate(DOMAINS):
        ds, _ = generate_domain(
            DomainSpec(
                domain=name, task=task, num_instances=8, num_classes=2,
                nodes_min=2, nodes_max=4, feature_dim=3, text_dim=3,
                feature_noise=0.1, text_noise=0.1, label_noise=0.0, seed=k,
            )
        )
        save_dataset(ds, data / f"{name}.jsonl", data / f"{name}.emb")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    encoder, projector = root / "encoder.ckpt", root / "projector.ckpt"
    assert main(["pretrain", "--config", str(config), "--data", str(data), "--out", str(encoder)]) == 0
    assert main([
        "align", "--config", str(config), "--data", str(data), "--encoder", str(encoder),
        "--out", str(projector), "--metrics", str(root / "metrics.csv"),
    ]) == 0
    return {"data": data, "config": config, "encoder": encoder, "projector": projector}


def _commands(tiny, work: Path, target: str) -> list[list[str]]:
    """The commands that read the mutated file, all on the work copies."""
    data, encoder = work / "data", work / "encoder.ckpt"
    pretrain = ["pretrain", "--config", str(tiny["config"]), "--data", str(data),
                "--out", str(work / "e.ckpt")]
    align = ["align", "--config", str(tiny["config"]), "--data", str(data),
             "--encoder", str(encoder), "--out", str(work / "p.ckpt"),
             "--metrics", str(work / "m.csv")]
    retrieval = ["eval", "--encoder", str(encoder), "--data", str(data),
                 "--mode", "retrieval", "--pool", "4"]
    classification = ["eval", "--encoder", str(encoder), "--projector",
                      str(work / "projector.ckpt"), "--data", str(data),
                      "--mode", "classification"]
    if target == "projector":
        return [classification]
    if target == "encoder":
        return [align, retrieval, classification]
    return [pretrain, align, retrieval, classification]


def _mutate_jsonl(draw, path: Path) -> None:
    lines = path.read_text().splitlines()
    lineno = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[lineno])
    key = draw(st.sampled_from(sorted(record)))
    if draw(st.booleans()):
        del record[key]
    else:
        record[key] = draw(JSON_VALUES)
    lines[lineno] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def _mutate_embedding_header(draw, path: Path) -> None:
    blob = bytearray(path.read_bytes())
    # one byte of the magic or of the u32 count and dim that follow it
    blob[draw(st.integers(0, len(EMBEDDING_MAGIC) + 7))] = draw(st.integers(0, 255))
    path.write_bytes(bytes(blob))


def _mutate_pack(draw, path: Path) -> None:
    blob = path.read_bytes()
    action = draw(st.sampled_from(["flip", "truncate", "drop", "metadata"]))
    if action == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
    elif action == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    else:  # re-encoded, so the container checksum is valid again
        pack = decode_checkpoint(blob, path)
        if action == "drop":
            del pack.tensors[draw(st.sampled_from(sorted(pack.tensors)))]
        else:
            pack.metadata[draw(st.sampled_from(sorted(pack.metadata)))] = draw(JSON_VALUES)
        blob = encode_checkpoint(Checkpoint(pack.metadata, pack.tensors))
    path.write_bytes(blob)


def _mutate_checkpoint(draw, path: Path) -> None:
    ckpt = load_checkpoint(path)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(ckpt.metadata)))
        if draw(st.booleans()):
            del ckpt.metadata[key]
        else:
            ckpt.metadata[key] = draw(JSON_VALUES)
    else:
        name = draw(st.sampled_from(sorted(ckpt.tensors)))
        arr = ckpt.tensors[name]
        action = draw(st.sampled_from(["drop", "widen", "flatten", "transpose", "entry"]))
        if action == "drop":
            del ckpt.tensors[name]
        elif action == "widen":
            ckpt.tensors[name] = np.concatenate([arr, arr[:1]])
        elif action == "flatten":
            ckpt.tensors[name] = arr.reshape(-1)
        elif action == "transpose":
            ckpt.tensors[name] = arr.T
        else:
            arr = arr.copy()
            arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.floats())
            ckpt.tensors[name] = arr
    save_checkpoint(ckpt, path)


@settings(max_examples=60, deadline=None)
@given(
    target=st.sampled_from(["jsonl", "embedding", "pack", "encoder", "projector"]),
    domain=st.sampled_from([name for name, _ in DOMAINS]),
    data=st.data(),
)
def test_one_mutation_never_escapes_cli_main(tiny, target, domain, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(tiny["data"], work / "data")
        shutil.copy(tiny["encoder"], work / "encoder.ckpt")
        shutil.copy(tiny["projector"], work / "projector.ckpt")
        if target == "jsonl":
            _mutate_jsonl(data.draw, work / "data" / f"{domain}.jsonl")
        elif target == "embedding":
            _mutate_embedding_header(data.draw, work / "data" / f"{domain}.emb")
        elif target == "pack":
            _mutate_pack(data.draw, work / "data" / f"{domain}.jsonl.pack")
        else:
            _mutate_checkpoint(data.draw, work / f"{target}.ckpt")
        for argv in _commands(tiny, work, target):
            assert main(argv) in (0, 1, 2)
