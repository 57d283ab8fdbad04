"""The benchmark's workloads: how each makes its inputs and configures the CLI.

Every workload runs the CLI sequence of ``scripts/run_pipeline.py``
(gradcheck, on ``desk`` only; pretrain, align, retrieval eval,
classification eval) with ``configs/desk.json`` and the workload's
``--set`` overrides. Inputs are
generated from the workload seed before any timing starts, so the program
only ever sees files.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable


def _desk_suite(out_dir: str, seed: int) -> None:
    from uglm.synthgen import generate_benchmark_suite

    generate_benchmark_suite(out_dir, seed)


# Wide graphs: the suite's five domains, each with 120 graphs of 75-150
# nodes, 32-dim features, 24-dim text (so the text adapter trains) and at
# most 10 classes. 60 graphs of 150-300 nodes hold the same nodes and
# edges, but their 15 test graphs and 30 retrieval queries per domain
# scattered the quality numbers by up to 0.19-0.27 of their medians over
# ten runs; twice the graphs halve that.
WIDE_INSTANCES = 120
WIDE_NODES = (75, 150)
WIDE_FEATURE_DIM = 32
WIDE_TEXT_DIM = 24
WIDE_MAX_CLASSES = 10


def _wide_suite(out_dir: str, seed: int) -> None:
    from uglm.graphdata import save_dataset
    from uglm.synthgen import SUITE_FEATURE_NOISE, SUITE_LAYOUT, DomainSpec, generate_domain

    os.makedirs(out_dir, exist_ok=True)
    for k, (name, task, classes, text_noise, label_noise) in enumerate(SUITE_LAYOUT):
        spec = DomainSpec(
            domain=name,
            task=task,
            num_instances=WIDE_INSTANCES,
            num_classes=min(classes, WIDE_MAX_CLASSES),
            nodes_min=WIDE_NODES[0],
            nodes_max=WIDE_NODES[1],
            feature_dim=WIDE_FEATURE_DIM,
            text_dim=WIDE_TEXT_DIM,
            feature_noise=SUITE_FEATURE_NOISE,
            text_noise=text_noise,
            label_noise=label_noise,
            seed=seed * 100 + k,
        )
        dataset, _ = generate_domain(spec)
        save_dataset(
            dataset, os.path.join(out_dir, f"{name}.jsonl"), os.path.join(out_dir, f"{name}.emb")
        )


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[str, int], None]
    overrides: tuple[str, ...]  # --set KEY.PATH=VALUE, given to pretrain and align
    pool: int  # retrieval candidate pool per domain
    gradcheck: bool  # the sequence starts with gradcheck
    default_seed: int
    # A seed left unused while the benchmark was built; re-check gain claims on it.
    check_seed: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", _desk_suite, (), 100, True, default_seed=4, check_seed=1013),
        Workload(
            "wide_graphs",
            _wide_suite,
            (
                "encoder.num_layers=3",
                "encoder.hidden_dim=48",
                "pretrain.epochs=6",
                "align.total_steps=300",
            ),
            60,
            False,
            default_seed=4,
            check_seed=3041,
        ),
    )
}


if __name__ == "__main__":
    # python3 bench/workloads.py WORKLOAD OUT_DIR SEED: write one input set
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    name, out_dir, seed = sys.argv[1:]
    WORKLOADS[name].make_inputs(out_dir, int(seed))
