"""Command-line orchestration of the full pipeline.

Subcommands: ``synth`` (write the fixed benchmark suite), ``pretrain``
(Stage I), ``align`` (Stage II), ``eval`` (retrieval or classification),
``gradcheck`` (finite-difference verification), ``report`` (per-domain
trajectory CSVs from a metrics log).

Every run prints its fully resolved configuration as a single JSON line
before doing any work. Exit codes: 0 success, 1 validation/usage failure,
2 I/O failure, 3 gradient-check failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from .align import align_loop, evaluate_classification, projector_from_checkpoint, projector_to_checkpoint
from .config import load_run_config
from .errors import ContractError, EmptyDataError, InvalidParameterError, UglmError, ValidationError
from .gradcheck import GRADCHECK_TOLERANCE, run_gradcheck
from .graphdata import DomainDataset, load_dataset
from .persist import (
    export_loss_log,
    export_metrics,
    format_float,
    load_checkpoint,
    param_fingerprint,
    parse_metrics,
    save_checkpoint,
    write_csv,
)
from .pretrain import encoder_from_checkpoint, encoder_to_checkpoint, evaluate_retrieval, pretrain_loop
from . import runtime  # noqa: F401  no command calls it, but importing cli loads every module
from .synthgen import DEFAULT_MASTER_SEED, generate_benchmark_suite


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="uglm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="write the fixed synthetic benchmark suite")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)

    p = sub.add_parser("pretrain", help="Stage I contrastive pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="directory of <domain>.jsonl/.emb pairs")
    p.add_argument("--out", required=True, help="encoder checkpoint path")
    p.add_argument("--metrics", default=None, help="optional per-epoch loss CSV")
    p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE")

    p = sub.add_parser("align", help="Stage II curriculum projector tuning")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--encoder", required=True, help="Stage I encoder checkpoint")
    p.add_argument("--out", required=True, help="projector checkpoint path")
    p.add_argument("--metrics", required=True, help="curriculum metrics CSV path")
    p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE")

    p = sub.add_parser("eval", help="retrieval or classification evaluation")
    p.add_argument("--encoder", required=True)
    p.add_argument("--projector", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", required=True, choices=["retrieval", "classification"])
    p.add_argument("--pool", type=int, default=100, help="retrieval candidate pool size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="test", choices=["train", "val", "test"],
                   help="classification split; retrieval always draws its pool from val+test")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=21)

    p = sub.add_parser("report", help="split a metrics CSV into per-domain trajectories")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    return parser


def _echo(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _echo_command(args, **resolved) -> None:
    """The command line as one JSON line: every argument but ``--set``, the
    ``resolved`` values in place of their raw ones."""
    _echo({**{k: v for k, v in vars(args).items() if k != "set"}, **resolved})


def _discover_datasets(data_dir: str) -> list[DomainDataset]:
    if not os.path.isdir(data_dir):
        raise FileNotFoundError(f"data directory does not exist: {data_dir}")
    graph_paths = sorted(glob.glob(os.path.join(data_dir, "*.jsonl")))
    if not graph_paths:
        raise EmptyDataError(f"no *.jsonl dataset files found in {data_dir}")
    datasets: dict[str, DomainDataset] = {}
    for graph_path in graph_paths:
        ds = load_dataset(graph_path, graph_path[: -len(".jsonl")] + ".emb")
        if ds.domain in datasets:
            raise ValidationError(
                f"{datasets[ds.domain].graph_path} and {graph_path} both hold domain {ds.domain!r}"
            )
        datasets[ds.domain] = ds
    return list(datasets.values())


def _from_checkpoint(convert, path):
    """Load a checkpoint and convert it; contract errors name the file."""
    try:
        return convert(load_checkpoint(path))
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc


def _load_encoder(path, datasets: list[DomainDataset]):
    """A Stage I checkpoint's encoder and adapter, and how the loaded data
    differs from the data it was pretrained on.

    Known domains must keep their dims. Domains whose file digests differ
    from the recorded ones, and domains the checkpoint does not record, are
    listed under ``changed_domains`` and ``new_domains``; neither is an error.
    """

    def checked(ckpt):
        known = ckpt.metadata.get("domain_data", {})
        try:
            dims = {d: (int(known[d]["feature_dim"]), int(known[d]["text_dim"])) for d in known}
        except (LookupError, TypeError, ValueError, OverflowError) as exc:  # a list: IndexError
            raise ContractError(f"checkpoint domain_data is malformed: {exc!r}") from exc
        for ds in datasets:
            have = (ds.feature_dim, ds.text_dim)
            if dims.get(ds.domain, have) != have:
                raise ContractError(
                    f"domain {ds.domain!r} was pretrained with (feature_dim, text_dim) "
                    f"{dims[ds.domain]}, but {ds.graph_path} has {have}"
                )
        drift = {
            "changed_domains": [
                ds.domain for ds in datasets
                if ds.domain in known and known[ds.domain].get("sha256") != ds.sha256
            ],
            "new_domains": [ds.domain for ds in datasets if ds.domain not in known],
        }
        return (*encoder_from_checkpoint(ckpt), drift)

    return _from_checkpoint(checked, path)


def _cmd_synth(args) -> int:
    _echo_command(args)
    written = generate_benchmark_suite(args.out, args.seed)
    _echo({"written": {name: list(paths) for name, paths in sorted(written.items())}})
    return 0


def _cmd_pretrain(args) -> int:
    run_config = load_run_config(args.config, args.set)
    _echo_command(args, config=run_config.as_dict())
    datasets = _discover_datasets(args.data)
    result = pretrain_loop(
        run_config.pretrain,
        datasets,
        run_config.encoder.hidden_dim,
        run_config.encoder.num_layers,
    )
    ckpt = encoder_to_checkpoint(
        result.encoder,
        result.adapter,
        {
            "config": run_config.as_dict(),
            "seed": run_config.pretrain.seed,
            "domains": [ds.domain for ds in datasets],
            "domain_data": {  # checked by align and eval
                ds.domain: {"sha256": ds.sha256, "feature_dim": ds.feature_dim,
                            "text_dim": ds.text_dim, "classes": ds.num_classes} for ds in datasets
            },
        },
    )
    save_checkpoint(ckpt, args.out)
    if args.metrics:
        export_loss_log(result.epoch_losses, args.metrics)
    _echo(
        {
            "epochs": len(result.epoch_losses),
            "first_epoch_loss": result.epoch_losses[0] if result.epoch_losses else None,
            "final_epoch_loss": result.epoch_losses[-1] if result.epoch_losses else None,
        }
    )
    return 0


def _cmd_align(args) -> int:
    run_config = load_run_config(args.config, args.set)
    _echo_command(args, config=run_config.as_dict())
    datasets = _discover_datasets(args.data)
    encoder, _, drift = _load_encoder(args.encoder, datasets)
    state, head = align_loop(run_config.align, datasets, encoder)
    ckpt = projector_to_checkpoint(
        state.projector,
        head,
        {
            "config": run_config.as_dict(),
            "seed": run_config.align.seed,
            "domains": [ds.domain for ds in datasets],
            "step": state.step,
            "encoder_fingerprint": param_fingerprint(encoder.params),
        },
    )
    save_checkpoint(ckpt, args.out)
    export_metrics(state.metrics, args.metrics)
    _echo({"steps": state.step, "metrics_rows": len(state.metrics), **drift})
    return 0


def _cmd_eval(args) -> int:
    _echo_command(args)
    datasets = _discover_datasets(args.data)
    encoder, adapter, drift = _load_encoder(args.encoder, datasets)
    results: dict[str, dict] = {}  # one entry per scored domain
    skipped: list[str] = []
    if args.mode == "retrieval":
        rng = np.random.default_rng(args.seed)
        for ds in datasets:
            recall1, recall5 = evaluate_retrieval(encoder, ds, args.pool, rng, adapter)
            results[ds.domain] = {"recall_at_1": recall1, "recall_at_5": recall5}
    else:
        if args.projector is None:
            raise _UsageError("eval: error: --projector is required for classification mode")
        fingerprint = param_fingerprint(encoder.params)

        def trained_on_encoder(ckpt):
            projector, head = projector_from_checkpoint(ckpt)
            stored = ckpt.metadata.get("encoder_fingerprint")
            if stored != fingerprint:
                raise ContractError(
                    f"projector was trained on the encoder with fingerprint {stored!r}, "
                    f"but {args.encoder} has fingerprint {fingerprint!r}"
                )
            return projector, head

        projector, head = _from_checkpoint(trained_on_encoder, args.projector)
        if projector.weight.shape[0] != encoder.hidden_dim:
            raise ContractError(
                f"{args.projector}: projector input dim {projector.weight.shape[0]} does not "
                f"match the hidden dim {encoder.hidden_dim} of {args.encoder}"
            )
        for ds in datasets:
            if ds.domain not in head.instructions:
                skipped.append(ds.domain)
                continue
            accuracy, macro_f1 = evaluate_classification(
                encoder, projector, head, ds, split=args.split
            )
            results[ds.domain] = {"accuracy": accuracy, "macro_f1": macro_f1}
    _echo({"results": results, "skipped_domains": skipped, **drift})
    return 0


def _cmd_gradcheck(args) -> int:
    _echo_command(args)
    results = run_gradcheck(args.seed, args.trials)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name:<22} trials={r.trials:<4d} "
            f"max_rel_error={r.max_rel_error:.3e} tol={GRADCHECK_TOLERANCE:.0e} {status}"
        )
    if all(r.passed for r in results):
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 3


def _cmd_report(args) -> int:
    _echo_command(args)
    rows = parse_metrics(args.metrics)
    os.makedirs(args.out, exist_ok=True)
    by_domain: dict[str, list] = {}
    for step, domain, loss, grad_norm, smoothed, weight in rows:
        by_domain.setdefault(domain, []).append((step, loss, grad_norm, smoothed, weight))
    files = [os.path.join(args.out, f"trajectory_{domain}.csv") for domain in sorted(by_domain)]
    for domain, path in zip(sorted(by_domain), files):
        write_csv(path, "step,loss,grad_norm,smoothed,weight", by_domain[domain], (str, *[format_float] * 4))
    _echo({"domains": sorted(by_domain), "files": files})
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "pretrain": _cmd_pretrain,
    "align": _cmd_align,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        if getattr(args, "seed", 0) < 0:  # numpy would reject it after work had begun
            raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except UglmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
