import json
import os
import pathlib
import subprocess
import sys

import pytest

import uglm
from uglm.errors import InvalidParameterError
from uglm.graphdata import save_dataset
from uglm.runtime import ordered_map, thread_cap
from uglm.synthgen import DomainSpec, generate_domain


def test_thread_cap_reads_env(monkeypatch):
    monkeypatch.setenv("UGLM_THREADS", "3")
    assert thread_cap() == 3


def test_thread_cap_defaults_to_cores(monkeypatch):
    monkeypatch.delenv("UGLM_THREADS", raising=False)
    assert thread_cap() >= 1


@pytest.mark.parametrize("bad", ["zero?", "0", "-2"])
def test_thread_cap_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("UGLM_THREADS", bad)
    with pytest.raises(InvalidParameterError):
        thread_cap()


def test_ordered_map_preserves_order(monkeypatch):
    monkeypatch.setenv("UGLM_THREADS", "4")
    items = list(range(200))
    assert ordered_map(lambda i: i * i, items) == [i * i for i in items]


def _graph_data(tmp_path):
    """One domain of 40-60-node graphs and a config with a wide encoder."""
    data = tmp_path / "data"
    data.mkdir()
    ds, _ = generate_domain(
        DomainSpec(
            domain="t", task="graph", num_instances=40, num_classes=3,
            nodes_min=40, nodes_max=60, feature_dim=16, text_dim=24,
            feature_noise=0.1, text_noise=0.1, label_noise=0.0, seed=2,
        )
    )
    save_dataset(ds, data / "t.jsonl", data / "t.emb")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "encoder": {"num_layers": 2, "hidden_dim": 48},
        "pretrain": {"epochs": 1, "batch_size": 16, "learning_rate": 0.01, "seed": 3},
        "align": {"total_steps": 30, "batch_size": 16, "token_dim": 32, "seed": 1},
    }))
    return data, config


def _uglm(argv, threads=None):
    """Run the CLI in a fresh process at ``threads`` BLAS threads (None: the default)."""
    paths = [str(pathlib.Path(uglm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    result = subprocess.run(
        [sys.executable, "-m", "uglm", *map(str, argv)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


def test_blas_thread_count_does_not_change_pretrain_checkpoint(tmp_path):
    # Batches of 16 graphs of 40-60 nodes hold more than 500 nodes, where one
    # BLAS product over all rows may reduce differently with the thread count.
    data, config = _graph_data(tmp_path)
    checkpoints = []
    for threads in ("1", None):  # one thread, then the default
        out = tmp_path / f"encoder-{threads}.ckpt"
        _uglm(["pretrain", "--config", config, "--data", data, "--out", out], threads)
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_blas_thread_count_does_not_change_align_outputs(tmp_path):
    # Stage II encodes the whole train split (about 1,000 node rows) in one batch.
    data, config = _graph_data(tmp_path)
    encoder = tmp_path / "encoder.ckpt"
    _uglm(["pretrain", "--config", config, "--data", data, "--out", encoder])
    outputs = []
    for threads in ("1", None):
        out, metrics = tmp_path / f"projector-{threads}.ckpt", tmp_path / f"metrics-{threads}.csv"
        _uglm(["align", "--config", config, "--data", data, "--encoder", encoder,
               "--out", out, "--metrics", metrics], threads)
        outputs.append((out.read_bytes(), metrics.read_bytes()))
    assert outputs[0] == outputs[1]
