#!/usr/bin/env python3
"""Benchmark of the uglm trainer, driven through its public CLI.

One run is one workload in one fresh process:

    python3 bench/run.py --workload desk --seed 4 --seconds 40 --trace 0

It generates the workload's input files from the seed in a child
process, warms up with a short untimed pretrain and align, then repeats
the CLI sequence (gradcheck on ``desk``) -> pretrain
-> align -> eval retrieval -> eval classification, calling
``uglm.cli.main`` in-process, until the repetitions have taken
``--seconds`` (at least two). Repetition r trains on inputs generated from
seed + r * DATA_SEED_STRIDE. Set-up is timed by ``graphdata.load_dataset``
passes over the inputs before every command. Every command's output is
checked; the traced run trains twice on the same inputs, and the two
runs' checkpoints must be bit-identical. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end
metrics (medians over repetitions) with ``--trace 0``, the per-layer
metrics of one traced repetition with ``--trace 1``.

    python3 bench/run.py --workload all

runs every workload in both modes, each in its own process, and prints
every metric in one table. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
CONFIG = ROOT / "configs" / "desk.json"

# Before every command, load passes until they add up to SETUP_POINT_S:
# the machine's speed changes from second to second, so set-up is sampled
# across the whole run and reported as the median pass.
SETUP_POINT_S = 0.4
MIN_REPS = 2
# Repetition r trains on the inputs of seed + r * DATA_SEED_STRIDE, so a
# run's quality numbers are medians over several independent input sets.
DATA_SEED_STRIDE = 1_000_003
# The warm-up's shortened pretrain and align.
WARM_UP_OVERRIDES = ("pretrain.epochs=1", "align.total_steps=20")
GRADCHECK_CHECKS = 4
GRADCHECK_TOLERANCE = 1e-6
GRADCHECK_LINE = re.compile(r"^(\w+)\s+trials=\d+\s+max_rel_error=(\S+)\s+tol=\S+\s+(PASS|FAIL)$")
CHECKPOINTS = ("encoder.ckpt", "projector.ckpt")


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def _finite(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and math.isfinite(value), f"{what} is not finite: {value!r}")
    return float(value)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ------------------------------------------------------------------ inputs


def _domain_files(inputs: Path) -> list[tuple[str, str]]:
    graphs = sorted(inputs.glob("*.jsonl"))
    return [(str(g), str(g.with_suffix(".emb"))) for g in graphs]


def _load_all(inputs: Path):
    from uglm.graphdata import load_dataset

    return [load_dataset(g, e) for g, e in _domain_files(inputs)]


# -------------------------------------------------------------- sequence


def _cli(argv: list[str]) -> tuple[int, str, str, float, float]:
    from uglm.cli import main

    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start from a collected heap, as a fresh CLI process would
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # an escaped exception is a failed command
        rc = -1
        err.write(f"uncaught {type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), start, time.perf_counter()


def _commands(workload, inputs: Path, out: Path, extra: tuple[str, ...] = ()) -> list[tuple[str, list[str]]]:
    sets = [arg for spec in workload.overrides + extra for arg in ("--set", spec)]
    data, enc, proj = str(inputs), str(out / "encoder.ckpt"), str(out / "projector.ckpt")
    gradcheck = [("gradcheck", ["gradcheck", "--seed", "0", "--trials", "21"])] if workload.gradcheck else []
    return gradcheck + [
        ("pretrain", ["pretrain", "--config", str(CONFIG), "--data", data, "--out", enc,
                      "--metrics", str(out / "pretrain_loss.csv"), *sets]),
        ("align", ["align", "--config", str(CONFIG), "--data", data, "--encoder", enc,
                   "--out", proj, "--metrics", str(out / "metrics.csv"), *sets]),
        ("eval_retrieval", ["eval", "--encoder", enc, "--data", data, "--mode", "retrieval",
                            "--pool", str(workload.pool), "--seed", "0"]),
        ("eval_classification", ["eval", "--encoder", enc, "--projector", proj, "--data", data,
                                 "--mode", "classification"]),
    ]


def _check_gradcheck(stdout: str, out: Path, facts: dict) -> dict:
    lines = [m for m in map(GRADCHECK_LINE.match, stdout.splitlines()) if m]
    _require(len(lines) == GRADCHECK_CHECKS, f"expected {GRADCHECK_CHECKS} gradcheck lines, got {len(lines)}")
    for m in lines:
        error = float(m.group(2))
        _require(m.group(3) == "PASS" and error <= GRADCHECK_TOLERANCE, f"gradcheck {m.group(1)}: {error}")
    return {}


def _check_pretrain(stdout: str, out: Path, facts: dict) -> dict:
    from uglm.persist import load_checkpoint

    lines = _json_lines(stdout)
    epochs = lines[0]["config"]["pretrain"]["epochs"]
    summary = lines[-1]
    _require(summary.get("epochs") == epochs, f"pretrain ran {summary.get('epochs')} of {epochs} epochs")
    load_checkpoint(out / "encoder.ckpt")  # verifies the SHA-256 trailer
    return {
        "epochs": epochs,
        "final_epoch_loss": _finite(summary.get("final_epoch_loss"), "final_epoch_loss"),
    }


def _check_align(stdout: str, out: Path, facts: dict) -> dict:
    from uglm.persist import load_checkpoint, parse_metrics

    lines = _json_lines(stdout)
    steps = lines[0]["config"]["align"]["total_steps"]
    summary = lines[-1]
    _require(summary.get("steps") == steps, f"align ran {summary.get('steps')} of {steps} steps")
    rows = parse_metrics(out / "metrics.csv")
    _require(len(rows) == summary.get("metrics_rows"), "metrics CSV row count differs from the summary")
    per_step: dict[int, list[str]] = {}
    for step, domain, *values in rows:
        per_step.setdefault(step, []).append(domain)
        for v in values:
            _finite(v, f"metrics value at step {step}")
    _require(sorted(per_step) == list(range(1, steps + 1)), "metrics CSV does not cover every step once")
    for step, domains in per_step.items():
        _require(len(set(domains)) == len(domains), f"step {step} repeats a domain")
        _require(set(domains) <= facts["domains"], f"step {step} names an unknown domain")
    load_checkpoint(out / "projector.ckpt")
    return {"steps": steps}


def _domain_means(stdout: str, facts: dict, keys: tuple[str, ...]) -> dict:
    results = _json_lines(stdout)[-1]["results"]
    _require("skipped_domains" not in results, f"domains skipped: {results.get('skipped_domains')}")
    _require(set(results) == facts["domains"], "eval did not score every domain")
    means = {}
    for key in keys:
        values = [_finite(r[key], f"{domain} {key}") for domain, r in results.items()]
        _require(all(0.0 <= v <= 1.0 for v in values), f"{key} outside [0, 1]")
        means[key] = statistics.fmean(values)
    return means


def _check_retrieval(stdout: str, out: Path, facts: dict) -> dict:
    return _domain_means(stdout, facts, ("recall_at_1", "recall_at_5"))


def _check_classification(stdout: str, out: Path, facts: dict) -> dict:
    return _domain_means(stdout, facts, ("accuracy", "macro_f1"))


CHECKS = {
    "gradcheck": _check_gradcheck,
    "pretrain": _check_pretrain,
    "align": _check_align,
    "eval_retrieval": _check_retrieval,
    "eval_classification": _check_classification,
}


def warm_up(workload, inputs: Path, out: Path) -> None:
    """Untimed: a short pretrain and align, so that a run's first repetition
    does not pay for first-time allocation and lazy set-up that the later
    ones skip."""
    out.mkdir(parents=True)
    commands = dict(_commands(workload, inputs, out, WARM_UP_OVERRIDES))
    for name in ("pretrain", "align"):
        rc, _, stderr, _, _ = _cli(commands[name])
        if rc != 0:  # the repetitions will fail the same way and count it
            print(f"warm-up {name} exited {rc}: {stderr.strip()[-300:]}", file=sys.stderr)
            break
    shutil.rmtree(out)


def run_sequence(workload, inputs: Path, out: Path, facts: dict, tracer=None, before_command=None) -> dict:
    """One pass of the CLI sequence; checks run after the last command.

    ``before_command`` is called, untimed, before every command.
    """
    out.mkdir(parents=True)
    commands = _commands(workload, inputs, out)
    ran = []
    with tracer.hooked() if tracer else contextlib.nullcontext():  # the checks stay untraced
        for name, argv in commands:
            if before_command:
                before_command()
            with tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext():
                rc, stdout, stderr, start, end = _cli(argv)
            ran.append((name, rc, stdout, stderr, end - start))
            if rc != 0:
                break
    # an operation is one command with its checks
    rep = {"seconds": {}, "found": {}, "errors": {}, "attempted": len(commands)}
    for name, rc, stdout, stderr, seconds in ran:
        rep["seconds"][name] = seconds
        try:
            _require(rc == 0, f"exit code {rc}: {stderr.strip()[-300:]}")
            rep["found"].update(CHECKS[name](stdout, out, facts))
        except Exception as exc:  # a failed check, or output too broken to check
            rep["errors"][name] = f"{type(exc).__name__}: {exc}"
    for name, _ in commands[len(ran):]:
        rep["errors"][name] = "not run: an earlier command failed"
    # the commands' own time: the set-up passes between them are left out
    rep["wall_s"] = sum(rep["seconds"].values())
    if not rep["errors"]:
        rep["digests"] = {f: _sha256(out / f) for f in CHECKPOINTS}
    return rep


def rep_metrics(rep: dict, facts: dict, workload) -> dict:
    found, secs = rep["found"], rep["seconds"]
    eval_graphs = workload.pool * len(facts["domains"]) + facts["test"]
    return {
        "wall_s": rep["wall_s"],
        "pretrain_graphs_per_s": found["epochs"] * facts["train"] / secs["pretrain"],
        "align_steps_per_s": found["steps"] / secs["align"],
        "eval_graphs_per_s": eval_graphs / (secs["eval_retrieval"] + secs["eval_classification"]),
        "final_epoch_loss": found["final_epoch_loss"],
        "recall_at_1": found["recall_at_1"],
        "recall_at_5": found["recall_at_5"],
        "accuracy": found["accuracy"],
        "macro_f1": found["macro_f1"],
    }


def source_loc() -> dict[str, int]:
    """Non-blank source lines per module under src/uglm, and their total."""
    counts = {}
    for path in sorted((ROOT / "src" / "uglm").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts[f"src.{path.stem}.loc"] = sum(1 for line in text.splitlines() if line.strip())
    counts["src.total_loc"] = sum(counts.values())
    return counts


# ------------------------------------------------------------------- run


def _facts(inputs: Path) -> dict:
    """Domains and split sizes, read from the JSONL header lines."""
    headers = []
    for graph_path, _ in _domain_files(inputs):
        with open(graph_path, encoding="utf-8") as fh:
            headers.append(json.loads(fh.readline()))
    return {
        "domains": {h["domain"] for h in headers},
        "train": sum(len(h["splits"]["train"]) for h in headers),
        "test": sum(len(h["splits"]["test"]) for h in headers),
    }


def _load_passes(inputs: Path, times: list[float]) -> None:
    """Time load passes over the domain files until they add up to SETUP_POINT_S."""
    spent = 0.0
    while spent < SETUP_POINT_S:
        gc.collect()
        start = time.perf_counter()
        _load_all(inputs)
        times.append(time.perf_counter() - start)
        spent += times[-1]


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()

    def prepare(r: int) -> tuple[int, Path]:
        data_seed = seed + r * DATA_SEED_STRIDE
        inputs = work / f"inputs{r}"
        if trace:  # in-process, so the hooks time the generator
            with tracer.hooked():
                workload.make_inputs(str(inputs), data_seed)
        else:  # in a child, so the generator's memory is not in peak_rss_mb
            subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                            workload.name, str(inputs), str(data_seed)], check=True)
        return data_seed, inputs

    def repeat(data: tuple[int, Path], name: str, traced: bool = False, before_command=None) -> dict:
        data_seed, inputs = data
        facts = _facts(inputs)
        rep = run_sequence(workload, inputs, work / name, facts, tracer if traced else None, before_command)
        rep["metrics"] = None if rep["errors"] else rep_metrics(rep, facts, workload)
        rep["data_seed"] = data_seed
        return rep

    first = prepare(0)
    warm_up(workload, first[1], work / "warm_up")
    setup_times: list[float] = []
    if trace:  # the same inputs twice: the checkpoints must be bit-identical
        reps = [repeat(first, "untraced"), repeat(first, "traced", traced=True)]
        if all(rep.get("digests") for rep in reps):
            reps[1]["attempted"] += 1
            if reps[0]["digests"] != reps[1]["digests"]:
                reps[1]["errors"]["determinism"] = (
                    f"digests {reps[1]['digests']} differ from the untraced run's {reps[0]['digests']}"
                )
    else:
        reps = []
        data = first
        begin = time.perf_counter()
        while True:
            reps.append(repeat(data, f"rep{len(reps)}", before_command=lambda: _load_passes(data[1], setup_times)))
            shutil.rmtree(data[1])
            if len(reps) >= MIN_REPS and time.perf_counter() - begin >= seconds:
                break
            data = prepare(len(reps))

    ops = {
        "attempted": sum(rep["attempted"] for rep in reps),
        "failures": [f"rep {i} {name}: {msg}" for i, rep in enumerate(reps) for name, msg in rep["errors"].items()],
        "repetitions": [
            {"data_seed": rep["data_seed"], "wall_s": rep["wall_s"], "seconds": rep["seconds"],
             "digests": rep.get("digests")}
            for rep in reps
        ],
    }
    good = [rep["metrics"] for rep in reps if rep["metrics"]]
    if trace:
        metrics = layer_metrics(tracer.summary())
        if len(good) == 2:
            metrics["trace.overhead_s"] = reps[1]["wall_s"] - reps[0]["wall_s"]
        metrics.update(source_loc())
        traces = ROOT / ".bench_run" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{workload.name}-seed{seed}.jsonl")
    else:
        metrics = {name: statistics.median(m[name] for m in good) for name in (good[0] if good else {})}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, ops


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def _env(workload, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "uglm_threads_set": "UGLM_THREADS" in os.environ,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "check_seed": workload.check_seed,
    }


def _table(metrics: dict, units: dict) -> str:
    return "\n".join(
        f"  {name:<34} {value:>16.6g} {units.get(name, '(not in BENCHMARK.json)')}"
        for name, value in metrics.items()
    )


def main_one(args, spec: dict) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    env = _env(workload, seed)
    os.environ.pop("UGLM_THREADS", None)  # the program runs at its default thread count
    import uglm.cli  # bind every module before any hook is installed

    if Path(uglm.cli.__file__).resolve().parent != ROOT / "src" / "uglm":
        print(f"bench: uglm was imported from {uglm.cli.__file__}, not from this checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_run" / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics, ops = run_workload(workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(json.dumps({"env": env}, sort_keys=True))
    for i, rep in enumerate(ops["repetitions"]):
        print(json.dumps({"rep": i, **rep}, sort_keys=True))
    for failure in ops["failures"]:
        print(f"FAILED {failure}")
    failed = len(ops["failures"])
    print(f"{workload.name} seed={seed} trace={args.trace} failed_ops={failed}/{ops['attempted']}")
    print(_table(metrics, units))
    reported = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops["attempted"],
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def main_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
        failed = combined["failed"]
        print(f"== {name}: failed_ops so far {failed}/{combined['attempted']}\n")
    print(_table({k: v["value"] for k, v in combined["metrics"].items()},
                 {k: v["unit"] for k, v in combined["metrics"].items()}))
    print(json.dumps(combined))
    return 0


def main() -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "uglm" / "cli.py").is_file() or not CONFIG.is_file():
        print(f"bench: no uglm source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return main_all(args, spec)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    return main_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
