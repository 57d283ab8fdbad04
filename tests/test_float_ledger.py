"""Float-order ledger: the SHA-256 of a small fixed pipeline's outputs.

A change to the order of any float reduction on the training path changes
these bytes. The ledger (``float_ledger.json``) holds the digests per
platform, keyed by the numpy version, the BLAS library and version that
``numpy.show_config`` reports, and the machine architecture. A change that
claims float-exactness leaves the ledger alone; one that changes float order
updates its entry and declares it. On a platform without an entry the test
skips and prints the key, so that platform can add its entry.
"""

import dataclasses
import hashlib
import json
import pathlib
import platform

import numpy as np
import pytest

from uglm.cli import main
from uglm.graphdata import save_dataset
from uglm.synthgen import generate_domain, suite_spec

LEDGER = pathlib.Path(__file__).with_name("float_ledger.json")

# One domain per task kind; width 32 runs both segment-sum paths.
CONFIG = {
    "encoder": {"num_layers": 2, "hidden_dim": 32},
    "pretrain": {"epochs": 8, "batch_size": 32, "learning_rate": 0.002, "temperature": 0.07, "seed": 0},
    "align": {"total_steps": 100, "batch_size": 16, "token_dim": 16, "curriculum_temperature": 0.2, "seed": 0},
}


def platform_key() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = {"name": "unknown", "version": "unknown"}
    return f"numpy {np.__version__} | {blas.get('name')} {blas.get('version')} | {platform.machine()}"


def pipeline_digests(work: pathlib.Path) -> dict[str, str]:
    data = work / "data"
    data.mkdir()
    for name in ("easy", "edges", "graphs"):
        dataset, _ = generate_domain(dataclasses.replace(suite_spec(name, 4), num_instances=100))
        save_dataset(dataset, str(data / f"{name}.jsonl"), str(data / f"{name}.emb"))
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG))
    outputs = {name: work / name for name in ("encoder.ckpt", "pretrain_loss.csv", "projector.ckpt", "metrics.csv")}
    assert main([
        "pretrain", "--config", str(config), "--data", str(data),
        "--out", str(outputs["encoder.ckpt"]), "--metrics", str(outputs["pretrain_loss.csv"]),
    ]) == 0
    assert main([
        "align", "--config", str(config), "--data", str(data), "--encoder", str(outputs["encoder.ckpt"]),
        "--out", str(outputs["projector.ckpt"]), "--metrics", str(outputs["metrics.csv"]),
    ]) == 0
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()}


def test_pipeline_bytes_match_the_ledger(tmp_path, capsys):
    key = platform_key()
    entry = json.loads(LEDGER.read_text(encoding="utf-8"))["entries"].get(key)
    if entry is None:
        pytest.skip(f"no float-order ledger entry for {key!r}")
    digests = pipeline_digests(tmp_path)
    capsys.readouterr()  # the commands' JSON lines
    changed = sorted(name for name in digests if digests[name] != entry.get(name))
    assert not changed, f"float order changed on {key!r}: {changed} now {[digests[n] for n in changed]}"
