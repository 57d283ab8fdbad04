"""Multi-domain graph dataset model: file formats, validation, batching.

Two companion files describe a domain:

* ``<name>.jsonl`` -- UTF-8 JSON Lines. The first line is a header
  ``{"format":"uglm-graphs","version":1,"domain":...,"task":...,
  "classes":K,"splits":{"train":[...],"val":[...],"test":[...]}}``
  followed by one object per instance with keys ``domain``, ``task``,
  ``num_nodes``, ``edges``, ``node_features``, optional ``edge_features``,
  ``target`` (``{"node":i} | {"edge":[u,v]} | {"graph":true}``), ``label``
  (int or null) and ``text_index``.
* ``<name>.emb`` -- binary text embeddings: magic ``UGEMB\\x01``, then
  u32-LE count and dim, then count*dim little-endian float32, row-major.

Embeddings are stored as float32 on disk and upcast to float64 on load;
all other numbers round-trip exactly through JSON.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    EmptyDataError,
    InvalidParameterError,
    ParseError,
    ValidationError,
)

GRAPH_FORMAT_NAME = "uglm-graphs"
GRAPH_FORMAT_VERSION = 1
EMBEDDING_MAGIC = b"UGEMB\x01"

TASK_KINDS = ("node", "edge", "graph")

# Stage II sizes its frozen head and its metrics by the class count, so a
# header cannot ask for more classes than this.
MAX_CLASSES = 1 << 16

TaskKind = str


@dataclass(frozen=True)
class NodeTarget:
    node: int


@dataclass(frozen=True)
class EdgeTarget:
    edge: tuple[int, int]


@dataclass(frozen=True)
class GraphTarget:
    pass


Target = Union[NodeTarget, EdgeTarget, GraphTarget]


def target_kind(target: Target) -> TaskKind:
    if isinstance(target, NodeTarget):
        return "node"
    if isinstance(target, EdgeTarget):
        return "edge"
    return "graph"


@dataclass(eq=False)
class GraphInstance:
    """One graph with a task target, label, and text-embedding reference."""

    num_nodes: int
    edges: list[tuple[int, int]]
    node_features: np.ndarray
    target: Target
    text_index: int
    domain: str
    label: int | None = None
    edge_features: np.ndarray | None = None


@dataclass(eq=False)
class Splits:
    train: list[int] = field(default_factory=list)
    val: list[int] = field(default_factory=list)
    test: list[int] = field(default_factory=list)

    def held_out(self) -> list[int]:
        return list(self.val) + list(self.test)


@dataclass(eq=False)
class DomainDataset:
    """All instances of one domain plus its text-embedding table."""

    domain: str
    task: TaskKind
    num_classes: int
    instances: list[GraphInstance]
    text_embeddings: np.ndarray
    splits: Splits

    @property
    def feature_dim(self) -> int:
        return int(self.instances[0].node_features.shape[1])

    @property
    def text_dim(self) -> int:
        return int(self.text_embeddings.shape[1])


@dataclass(eq=False)
class Batch:
    """Sampled (dataset, instance index) pairs and the domains they cover."""

    items: list[tuple[DomainDataset, int]]
    active_domains: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.items)

    def instances(self) -> list[tuple[DomainDataset, GraphInstance]]:
        return [(ds, ds.instances[idx]) for ds, idx in self.items]


# ------------------------------------------------------------- validation


def validate_graph(
    g: GraphInstance,
    num_classes: int | None = None,
    num_texts: int | None = None,
) -> list[str]:
    """Every violated invariant of one instance, not just the first."""
    violations: list[str] = []
    if g.num_nodes < 1:
        violations.append(f"num_nodes must be >= 1, got {g.num_nodes}")
    feats = np.asarray(g.node_features)
    if feats.ndim != 2 or feats.shape[0] != g.num_nodes:
        violations.append(
            f"node_features shape {feats.shape} does not match num_nodes {g.num_nodes}"
        )
    for j, (u, v) in enumerate(g.edges):
        if not (0 <= u < g.num_nodes and 0 <= v < g.num_nodes):
            violations.append(
                f"edge {j} = ({u},{v}) has endpoints outside [0,{g.num_nodes})"
            )
    if g.edge_features is not None and len(g.edge_features) != len(g.edges):
        violations.append(
            f"edge_features rows {len(g.edge_features)} != edge count {len(g.edges)}"
        )
    if isinstance(g.target, NodeTarget):
        if not (0 <= g.target.node < g.num_nodes):
            violations.append(f"target node {g.target.node} not in [0,{g.num_nodes})")
    elif isinstance(g.target, EdgeTarget):
        if tuple(g.target.edge) not in {tuple(e) for e in g.edges}:
            violations.append(f"target edge {g.target.edge} not in the edge list")
    if g.label is not None:
        if num_classes is not None and not (0 <= g.label < num_classes):
            violations.append(f"label {g.label} not in [0,{num_classes})")
    if num_texts is not None and not (0 <= g.text_index < num_texts):
        violations.append(f"text_index {g.text_index} not in [0,{num_texts})")
    return violations


def _validate_dataset(ds: DomainDataset, path) -> None:
    """Errors name ``path:line``: the header is line 1, instance i is line i + 2."""
    n_texts = ds.text_embeddings.shape[0]
    if ds.task not in TASK_KINDS:
        raise ValidationError(f"{path}:1: unknown task kind {ds.task!r}")
    if not 1 <= ds.num_classes <= MAX_CLASSES:
        raise ValidationError(
            f"{path}:1: class count must lie in [1,{MAX_CLASSES}], got {ds.num_classes}"
        )
    feature_dim: int | None = None
    for i, inst in enumerate(ds.instances):
        where = f"{path}:{i + 2}"
        if inst.domain != ds.domain:
            raise ValidationError(
                f"{where}: field domain: {inst.domain!r} != dataset domain {ds.domain!r}"
            )
        if target_kind(inst.target) != ds.task:
            raise ValidationError(
                f"{where}: field target: kind {target_kind(inst.target)!r} "
                f"does not match dataset task {ds.task!r}"
            )
        problems = validate_graph(inst, num_classes=ds.num_classes, num_texts=n_texts)
        if problems:
            raise ValidationError(f"{where}: " + "; ".join(problems))
        d_in = int(inst.node_features.shape[1])
        if feature_dim is None:
            feature_dim = d_in
        elif d_in != feature_dim:
            raise ValidationError(
                f"{where}: field node_features: dim {d_in} != domain dim {feature_dim}"
            )
    n = len(ds.instances)
    seen: set[int] = set()
    for split_name in ("train", "val", "test"):
        indices = getattr(ds.splits, split_name)
        for idx in indices:
            if not (0 <= idx < n):
                raise ValidationError(f"{path}:1: split {split_name}: index {idx} not in [0,{n})")
            if idx in seen:
                raise ValidationError(
                    f"{path}:1: split {split_name}: index {idx} appears in two splits"
                )
            seen.add(idx)


# ----------------------------------------------------------- embeddings IO


def save_embeddings(embeddings: np.ndarray, path) -> None:
    arr = np.ascontiguousarray(np.asarray(embeddings, dtype=np.float64), dtype="<f4")
    if arr.ndim != 2:
        raise ValidationError(f"embedding table must be 2-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def load_embeddings(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(EMBEDDING_MAGIC) or blob[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise ParseError(f"{path}: not an embedding file (bad magic)")
    if len(blob) < len(EMBEDDING_MAGIC) + 8:
        raise ParseError(f"{path}: truncated embedding header")
    count, dim = struct.unpack_from("<II", blob, len(EMBEDDING_MAGIC))
    expected = len(EMBEDDING_MAGIC) + 8 + 4 * count * dim
    if len(blob) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for {count}x{dim}, got {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=len(EMBEDDING_MAGIC) + 8)
    table = flat.astype(np.float64).reshape(count, dim)
    bad = np.nonzero(~np.isfinite(table).all(axis=1))[0]
    if bad.size:
        raise ParseError(f"{path}: embedding row {int(bad[0])} has non-finite entries")
    return table


# ------------------------------------------------------------- JSONL IO


def _target_to_json(target: Target) -> dict:
    if isinstance(target, NodeTarget):
        return {"node": target.node}
    if isinstance(target, EdgeTarget):
        return {"edge": [target.edge[0], target.edge[1]]}
    return {"graph": True}


def _target_from_json(obj, where: str) -> Target:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError(f"{where}: target must be a single-key object, got {obj!r}")
    if "node" in obj:
        return NodeTarget(node=int(obj["node"]))
    if "edge" in obj:
        u, v = obj["edge"]
        return EdgeTarget(edge=(int(u), int(v)))
    if "graph" in obj:
        return GraphTarget()
    raise ParseError(f"{where}: unknown target key in {obj!r}")


def _instance_to_json(inst: GraphInstance, task: TaskKind) -> dict:
    record = {
        "domain": inst.domain,
        "task": task,
        "num_nodes": inst.num_nodes,
        "edges": [[u, v] for u, v in inst.edges],
        "node_features": [[float(x) for x in row] for row in np.asarray(inst.node_features)],
    }
    if inst.edge_features is not None:
        record["edge_features"] = [
            [float(x) for x in row] for row in np.asarray(inst.edge_features)
        ]
    record["target"] = _target_to_json(inst.target)
    record["label"] = inst.label
    record["text_index"] = inst.text_index
    return record


def save_dataset(ds: DomainDataset, graph_path, embedding_path) -> None:
    """Write the JSONL + embedding pair; output bytes are deterministic."""
    header = {
        "format": GRAPH_FORMAT_NAME,
        "version": GRAPH_FORMAT_VERSION,
        "domain": ds.domain,
        "task": ds.task,
        "classes": ds.num_classes,
        "splits": {
            "train": list(ds.splits.train),
            "val": list(ds.splits.val),
            "test": list(ds.splits.test),
        },
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    for inst in ds.instances:
        lines.append(json.dumps(_instance_to_json(inst, ds.task), separators=(",", ":")))
    with open(graph_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    save_embeddings(ds.text_embeddings, embedding_path)


def _parse_instance(record: dict, where: str) -> GraphInstance:
    try:
        edges = [(int(u), int(v)) for u, v in record["edges"]]
        feats = np.asarray(record["node_features"], dtype=np.float64)
        if feats.ndim != 2:
            raise ParseError(
                f"{where}: node_features must be a list of equal-length rows"
            )
        if not np.isfinite(feats).all():
            raise ParseError(f"{where}: node_features has non-finite entries")
        edge_feats = None
        if record.get("edge_features") is not None:
            edge_feats = np.asarray(record["edge_features"], dtype=np.float64)
            if edge_feats.ndim == 0:
                raise ParseError(f"{where}: edge_features must be a list of rows")
        label = record["label"]
        return GraphInstance(
            num_nodes=int(record["num_nodes"]),
            edges=edges,
            node_features=feats,
            edge_features=edge_feats,
            target=_target_from_json(record["target"], where),
            label=None if label is None else int(label),
            text_index=int(record["text_index"]),
            domain=str(record["domain"]),
        )
    except KeyError as exc:
        raise ParseError(f"{where}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: malformed record: {exc}") from exc


def load_dataset(graph_path, embedding_path) -> DomainDataset:
    """Load and fully validate one domain from its file pair."""
    with open(graph_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{graph_path}:1: empty file, expected a header line")

    def parse_line(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{graph_path}:{lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{graph_path}:{lineno}: expected a JSON object")
        return obj

    header = parse_line(1, lines[0])
    if header.get("format") != GRAPH_FORMAT_NAME:
        raise ParseError(f"{graph_path}:1: format is not {GRAPH_FORMAT_NAME!r}")
    if header.get("version") != GRAPH_FORMAT_VERSION:
        raise ParseError(f"{graph_path}:1: unsupported version {header.get('version')!r}")
    try:
        domain = str(header["domain"])
        task = str(header["task"])
        classes = int(header["classes"])
        raw_splits = header["splits"]
        splits = Splits(
            train=[int(i) for i in raw_splits["train"]],
            val=[int(i) for i in raw_splits["val"]],
            test=[int(i) for i in raw_splits["test"]],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{graph_path}:1: malformed header: {exc}") from exc

    instances: list[GraphInstance] = []
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip():
            raise ParseError(f"{graph_path}:{lineno}: blank line")
        record = parse_line(lineno, text)
        if record.get("task") != task:
            raise ParseError(
                f"{graph_path}:{lineno}: instance task {record.get('task')!r} != header task {task!r}"
            )
        instances.append(_parse_instance(record, f"{graph_path}:{lineno}"))
    if not instances:
        raise EmptyDataError(f"{graph_path}:1: domain {domain!r} has no instances")

    embeddings = load_embeddings(embedding_path)
    ds = DomainDataset(
        domain=domain,
        task=task,
        num_classes=classes,
        instances=instances,
        text_embeddings=embeddings,
        splits=splits,
    )
    _validate_dataset(ds, graph_path)
    return ds


# --------------------------------------------------------------- batching


def iterate_epochs(
    datasets: Sequence[DomainDataset],
    batch_size: int,
    epochs: int,
    rng: np.random.Generator,
) -> Iterator[Batch]:
    """Shuffled-union epochs: one reshuffle per epoch, contiguous batches,
    final partial batch kept. Deterministic given the generator state."""
    if batch_size < 1:
        raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise InvalidParameterError(f"epochs must be >= 0, got {epochs}")
    pool = [(ds, idx) for ds in datasets for idx in ds.splits.train]
    if not pool:
        raise EmptyDataError("no training instances in any dataset")
    for _ in range(epochs):
        order = rng.permutation(len(pool))
        for start in range(0, len(pool), batch_size):
            chunk = [pool[int(j)] for j in order[start : start + batch_size]]
            domains = tuple(sorted({ds.domain for ds, _ in chunk}))
            yield Batch(items=chunk, active_domains=domains)
