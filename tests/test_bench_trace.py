"""A traced benchmark run reports every per-layer metric as valid JSON.

The benchmark's result line must carry every ``per_layer`` name listed in
BENCHMARK.json; a hook target that is gone, or a ratio whose denominator
reads 0, drops a name, and a NaN metric makes the line invalid JSON.
"""

import importlib.util
import json
import os
import pathlib
import sys

import pytest

import uglm.cli  # noqa: F401  -- the tracer hooks modules that are already loaded
from uglm.graphdata import save_dataset
from uglm.synthgen import DomainSpec, generate_domain

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _tiny_suite(out_dir: str, seed: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for k, (name, task) in enumerate((("alpha", "node"), ("beta", "graph"))):
        ds, _ = generate_domain(
            DomainSpec(
                domain=name, task=task, num_instances=24, num_classes=3,
                nodes_min=3, nodes_max=6, feature_dim=8, text_dim=8,
                feature_noise=0.1, text_noise=0.1, label_noise=0.0, seed=seed * 10 + k,
            )
        )
        save_dataset(ds, os.path.join(out_dir, f"{name}.jsonl"), os.path.join(out_dir, f"{name}.emb"))


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports tracer and workloads by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import workloads

    yield run, workloads
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_traced_run_reports_every_per_layer_metric(bench_modules, tmp_path):
    run, workloads = bench_modules
    workload = workloads.Workload(
        "tiny_trace", _tiny_suite, ("pretrain.epochs=1", "align.total_steps=10"),
        pool=6, gradcheck=True, default_seed=0, check_seed=1,
    )
    metrics, ops = run.run_workload(workload, 0, 0.0, True, tmp_path / "work")

    assert ops["failures"] == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]}
    assert len(names) == 59
    assert names <= set(metrics), f"missing: {sorted(names - set(metrics))}"
    json.dumps(metrics, allow_nan=False)
