#!/usr/bin/env python3
"""End-to-end pipeline demo on the synthetic benchmark suite.

Runs synth -> gradcheck -> pretrain -> align -> eval (both modes) ->
report through the CLI, leaving every artifact under --out. Uses the
desk-scale config shipped in configs/desk.json unless --config is given.
The last line is a JSON object with the SHA-256 of both checkpoints and
both training CSVs, so a float-exact change can be checked by comparing
it with the line its parent commit prints for the same seed.
"""

import argparse
import hashlib
import json
import pathlib
import sys

from uglm.cli import main as uglm

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(argv: list[str]) -> None:
    print(f"\n$ uglm {' '.join(argv)}", flush=True)
    rc = uglm(argv)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="pipeline_out")
    parser.add_argument("--config", default=str(REPO_ROOT / "configs" / "desk.json"))
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suite = out / "suite"
    encoder = out / "encoder.ckpt"
    projector = out / "projector.ckpt"
    metrics = out / "metrics.csv"

    run(["synth", "--out", str(suite), "--seed", str(args.seed)])
    run(["gradcheck", "--seed", "0", "--trials", "21"])
    run([
        "pretrain", "--config", args.config, "--data", str(suite),
        "--out", str(encoder), "--metrics", str(out / "pretrain_loss.csv"),
    ])
    run([
        "align", "--config", args.config, "--data", str(suite),
        "--encoder", str(encoder), "--out", str(projector), "--metrics", str(metrics),
    ])
    run([
        "eval", "--encoder", str(encoder), "--data", str(suite),
        "--mode", "retrieval", "--pool", "100", "--seed", "0",
    ])
    run([
        "eval", "--encoder", str(encoder), "--projector", str(projector),
        "--data", str(suite), "--mode", "classification",
    ])
    run(["report", "--metrics", str(metrics), "--out", str(out / "report")])
    print(f"\nartifacts under {out}/")
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (encoder, projector, metrics, out / "pretrain_loss.csv")
    }
    print(json.dumps({"sha256": digests}))


if __name__ == "__main__":
    main()
