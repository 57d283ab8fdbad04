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
all other numbers round-trip exactly through JSON, and integer fields take
only JSON integers (not ``true``, not ``1.0``). ``edge_features`` are checked
(one row per edge), then dropped. A parse is cached in ``<name>.jsonl.pack``,
a ``persist`` container of the ``PACK_ARRAYS`` keyed by ``PACK_VERSION`` (2)
and the JSONL's SHA-256, which a thread streams while the sidecar is decoded.
A missing, corrupt, stale or ill-shaped sidecar is rewritten, so deleting one is safe.

A ``DomainDataset`` holds its instances only as these arrays and its splits
as index arrays, all read-only and validated once (``_validate``) when it is
built, whether from a file, from a sidecar (``load_dataset``) or from
``GraphInstance`` objects (``DomainDataset.from_instances``). A ``Pool``
lays one split of every dataset end to end; both training stages and
classification eval take their rows from one, and a batch is an array of
pool rows (``Pool.batches``), gathered by ``encoder.GraphBatch.from_packed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    CheckpointError,
    DimensionError,
    EmptyDataError,
    InvalidParameterError,
    ParseError,
    UglmError,
    ValidationError,
)
from .persist import Checkpoint, decode_checkpoint, encode_checkpoint

GRAPH_FORMAT_NAME = "uglm-graphs"
GRAPH_FORMAT_VERSION = 1
EMBEDDING_MAGIC = b"UGEMB\x01"
PACK_SUFFIX = ".pack"
PACK_VERSION = 2  # 2: integer fields are strict, so a sidecar of 1 may hold truncated ones

TASK_KINDS = ("node", "edge", "graph")
SPLIT_NAMES = ("train", "val", "test")

# Stage II sizes its frozen head and its metrics by the class count, so a
# header cannot ask for more classes than this.
MAX_CLASSES = 1 << 16
# Sidecar tensors are float64; integers up to this size survive exactly.
_MAX_EXACT_INT = 1 << 53
_HASH_CHUNK = 1 << 18  # one buffer per load, made by the caller's thread: less peak RSS
PACK_ARRAYS = (
    "node_features", "node_offsets", "edges", "edge_offsets", "target", "label", "text_index"
)

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


def draw_target(kind: TaskKind, rng: np.random.Generator, num_nodes: int, edges: list) -> Target:
    """A random target of ``kind``: one of the nodes, one of ``edges``, or the graph."""
    if kind == "node":
        return NodeTarget(node=int(rng.integers(0, num_nodes)))
    return EdgeTarget(edge=edges[int(rng.integers(0, len(edges)))]) if kind == "edge" else GraphTarget()


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


@dataclass(frozen=True, eq=False)
class Splits:
    """Instance indices of each split, kept as read-only ``intp`` arrays."""

    train: np.ndarray = ()
    val: np.ndarray = ()
    test: np.ndarray = ()

    def __post_init__(self) -> None:
        for name in SPLIT_NAMES:
            indices = np.asarray(getattr(self, name))
            if indices.ndim != 1 or indices.size and indices.dtype.kind not in "iu":
                raise ValidationError(f"split {name} must be a list of integer indices")
            indices = indices.astype(np.intp)  # a copy: the caller's array stays writable
            indices.flags.writeable = False
            object.__setattr__(self, name, indices)

    def held_out(self) -> np.ndarray:
        return np.concatenate([self.val, self.test])


@dataclass(eq=False)
class DomainDataset:
    """One domain: its instances as the ``PACK_ARRAYS`` plus its text-embedding
    table. Building one validates the arrays (``_validate``), then makes all
    seven read-only, so every dataset a stage sees has passed the checks."""

    domain: str
    task: TaskKind
    num_classes: int
    arrays: dict[str, np.ndarray] = field(repr=False)
    text_embeddings: np.ndarray
    splits: Splits
    graph_path: str | None = None  # load_dataset sets these two
    sha256: dict[str, str] = field(default_factory=dict)  # "graphs" and "embeddings" files

    def __post_init__(self) -> None:
        _validate(self)
        for array in self.arrays.values():
            array.flags.writeable = False

    @classmethod
    def from_instances(
        cls, domain: str, task: TaskKind, num_classes: int, instances: Sequence[GraphInstance],
        text_embeddings: np.ndarray, splits: Splits,
    ) -> "DomainDataset":
        """A domain built in memory: ``instances`` packed once, then validated."""
        for i, g in enumerate(instances):  # what packing loses, checked as _parse_instance does
            if (kind := target_kind(g.target)) != task:
                raise ValidationError(f"domain {domain!r} instance {i}: field target: kind {kind!r} "
                                      f"does not match dataset task {task!r}")
            if g.label == -1:  # -1 is null once packed
                raise ValidationError(
                    f"domain {domain!r} instance {i}: label -1 not in [0,{num_classes})"
                )
        dim = np.shape(instances[0].node_features)[1] if instances else 0
        try:
            arrays = pack_instances(instances, dim)
        except DimensionError as exc:
            raise DimensionError(f"domain {domain!r} {exc}") from exc
        return cls(domain, task, num_classes, arrays, text_embeddings, splits)

    def place(self, i: int | None = None) -> str:
        """Where instance ``i`` (None: the whole domain) comes from, for errors:
        ``path:line`` (instance i is line i + 2, the header line 1), else
        ``domain 'd' instance i``."""
        if self.graph_path:
            return f"{self.graph_path}:{1 if i is None else i + 2}"
        return f"domain {self.domain!r}" + ("" if i is None else f" instance {i}")

    @property
    def feature_dim(self) -> int:
        return int(self.arrays["node_features"].shape[1])

    @property
    def text_dim(self) -> int:
        return int(self.text_embeddings.shape[1])


def _pack(feats: Sequence[np.ndarray], edges: Sequence[np.ndarray], scalars: np.ndarray, dim: int) -> dict:
    """The PACK_ARRAYS of per-instance (n, dim) node rows, (E, 2) edges and
    scalar rows [target u, target v, label (-1 for null), text index]."""
    offsets = [np.cumsum([0] + [len(a) for a in arrays]) for arrays in (feats, edges)]
    packed = (np.concatenate([np.zeros((0, dim)), *feats]), offsets[0],
              np.concatenate([np.zeros((0, 2), np.int64), *edges]), offsets[1],
              scalars[:, :2], scalars[:, 2], scalars[:, 3])
    return dict(zip(PACK_ARRAYS, packed))


def pack_instances(instances: Sequence[GraphInstance], input_dim: int) -> dict:
    """The PACK_ARRAYS of ``instances``, as ``load_dataset`` decodes a file's."""
    feats = [np.asarray(g.node_features, dtype=np.float64) for g in instances]
    for i, (g, h) in enumerate(zip(instances, feats)):
        if h.shape != (g.num_nodes, input_dim):
            raise DimensionError(
                f"instance {i}: node features {h.shape} do not match ({g.num_nodes} nodes, {input_dim})"
            )
    edges = [np.fromiter(chain.from_iterable(g.edges), np.int64).reshape(-1, 2) for g in instances]
    # target rows as the JSONL parser packs them: (u, v), (node, node) or (0, 0)
    targets = [getattr(g.target, "edge", (getattr(g.target, "node", 0),) * 2) for g in instances]
    scalars = np.array([(*target, -1 if g.label is None else g.label, g.text_index)
                        for g, target in zip(instances, targets)], dtype=np.int64).reshape(-1, 4)
    return _pack(feats, edges, scalars, input_dim)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[i] ... starts[i] + lengths[i] - 1 of every i, in order."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def take_packed(arrays: dict, rows: np.ndarray) -> dict:
    """The PACK_ARRAYS of instances ``rows`` of ``arrays``, in that order:
    their node rows and edges are two range gathers."""
    node_off, edge_off = arrays["node_offsets"], arrays["edge_offsets"]
    sizes, counts = node_off[rows + 1] - node_off[rows], edge_off[rows + 1] - edge_off[rows]
    taken = {k: arrays[k][rows] for k in ("target", "label", "text_index")}
    taken["node_features"] = arrays["node_features"][_ranges(node_off[rows], sizes)]
    taken["edges"] = arrays["edges"][_ranges(edge_off[rows], counts)]
    offsets = [np.concatenate([[0], np.cumsum(lengths)]) for lengths in (sizes, counts)]
    taken["node_offsets"], taken["edge_offsets"] = offsets
    return taken


# ------------------------------------------------------------- validation


def _fits(arrays: dict) -> bool:
    """Whether ``arrays`` are the PACK_ARRAYS as numpy arrays of their dtypes
    and shapes, with offsets that run from 0 to their row counts."""
    if arrays.keys() != set(PACK_ARRAYS) or not all(isinstance(a, np.ndarray) for a in arrays.values()):
        return False
    feats, node_off, edges, edge_off, target, label, text = (arrays[k] for k in PACK_ARRAYS)
    n = len(label) if label.ndim == 1 else -1
    return (
        feats.dtype == np.float64 and all(arrays[k].dtype.kind == "i" for k in PACK_ARRAYS[1:])
        and feats.ndim == edges.ndim == 2 and edges.shape[1] == 2
        and text.shape == (n,) and target.shape == (n, 2)
        and all(
            off.shape == (n + 1,) and off[0] == 0 and off[-1] == len(rows) and (np.diff(off) >= 0).all()
            for off, rows in ((node_off, feats), (edge_off, edges))
        )
    )


def _validate(ds: DomainDataset) -> None:
    """Every dataset invariant over the packed arrays and the splits. Errors
    name ``ds.place`` and list all that the first bad instance breaks."""
    if not _fits(ds.arrays):
        raise ValidationError(f"{ds.place()}: packed arrays do not fit together")
    feats, node_off, edges, edge_off, target, label, text = (ds.arrays[k] for k in PACK_ARRAYS)
    task, classes, n, n_texts = ds.task, ds.num_classes, len(label), len(ds.text_embeddings)
    if n == 0:
        raise EmptyDataError(f"{ds.place()}: no instances")
    if not np.isfinite(feats).all():
        i = np.searchsorted(node_off, np.argmin(np.isfinite(feats).all(axis=1)), side="right") - 1
        raise ParseError(f"{ds.place(i)}: node_features has non-finite entries")
    if not 1 <= classes <= MAX_CLASSES:
        raise ValidationError(f"{ds.place()}: class count must lie in [1,{MAX_CLASSES}], got {classes}")
    sizes, edge_of = np.diff(node_off), np.repeat(np.arange(n), np.diff(edge_off))
    if (sizes < 1).any():
        raise ValidationError(f"{ds.place(int(np.argmin(sizes)))}: instance has no nodes")
    (u, v), (tu, tv) = edges.T, target.T  # columns: row reductions over (E, 2) are slow
    edge_ok = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < sizes[edge_of])
    target_ok = (np.minimum(tu, tv) >= 0) & (np.maximum(tu, tv) < sizes)
    if task == "edge":  # some edge of the instance equals its target
        target_ok &= np.bincount(edge_of[(u == tu[edge_of]) & (v == tv[edge_of])], minlength=n) > 0

    def edge_problems(i):
        span = slice(edge_off[i], edge_off[i + 1])
        return "; ".join(
            f"edge {j} = ({u},{v}) has endpoints outside [0,{sizes[i]})"
            for j, ((u, v), ok) in enumerate(zip(edges[span].tolist(), edge_ok[span])) if not ok
        )

    checks = [  # (bad instances, what instance i breaks)
        (np.bincount(edge_of[~edge_ok], minlength=n) > 0, edge_problems),
        (~target_ok, lambda i: f"target node {target[i, 0]} not in [0,{sizes[i]})" if task == "node"
         else f"target edge {tuple(target[i].tolist())} not in the edge list"),
        ((label != -1) & ((label < 0) | (label >= classes)),  # -1 is null
         lambda i: f"label {label[i]} not in [0,{classes})"),
        ((text < 0) | (text >= n_texts), lambda i: f"text_index {text[i]} not in [0,{n_texts})"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        problems = "; ".join(say(i) for mask, say in checks if mask[i])
        raise ValidationError(f"{ds.place(i)}: {problems}")
    splits = [getattr(ds.splits, name) for name in SPLIT_NAMES]
    every = np.concatenate(splits)
    first = np.zeros(every.size, dtype=bool)  # the first occurrence of each index
    first[np.unique(every, return_index=True)[1]] = True
    bad = (every < 0) | (every >= n) | ~first
    if bad.any():
        at = int(np.argmax(bad))
        name = SPLIT_NAMES[np.searchsorted(np.cumsum([len(s) for s in splits]), at, side="right")]
        problem = f"not in [0,{n})" if first[at] else "appears in two splits"
        raise ValidationError(f"{ds.place()}: split {name}: index {every[at]} {problem}")


# ----------------------------------------------------------- embeddings IO


def save_embeddings(embeddings: np.ndarray, path) -> None:
    arr = np.ascontiguousarray(np.asarray(embeddings, dtype=np.float64), dtype="<f4")
    if arr.ndim != 2:
        raise ValidationError(f"embedding table must be 2-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def _decode_embeddings(blob: bytes, path) -> np.ndarray:
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
    if not np.isfinite(table).all():
        row = int(np.argmin(np.isfinite(table).all(axis=1)))
        raise ParseError(f"{path}: embedding row {row} has non-finite entries")
    return table


# ------------------------------------------------------------- JSONL IO


def _int(value, field: str) -> int:
    """``value`` if it is a JSON integer (``true`` and ``1.0`` are not), else a ValueError."""
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"field {field}: {value!r} is not an integer")
    return value


def _target_from_json(obj, where: str) -> tuple[TaskKind, tuple]:
    """The target's kind and packed row: (node, node), (u, v) or (0, 0)."""
    if not (isinstance(obj, dict) and len(obj) == 1 and obj.keys() <= set(TASK_KINDS)):
        raise ParseError(f"{where}: target must be a single-key object, got {obj!r}")
    kind, value = next(iter(obj.items()))
    u, v = value if kind == "edge" else (value, value) if kind == "node" else (0, 0)
    return kind, (_int(u, f"target {kind}"), _int(v, f"target {kind}"))


def save_dataset(ds: DomainDataset, graph_path, embedding_path) -> None:
    """Write the JSONL + embedding pair of ``ds``; output bytes are deterministic."""
    header = {
        "format": GRAPH_FORMAT_NAME,
        "version": GRAPH_FORMAT_VERSION,
        "domain": ds.domain,
        "task": ds.task,
        "classes": ds.num_classes,
        "splits": {name: getattr(ds.splits, name).tolist() for name in SPLIT_NAMES},
    }
    feats, node_off, edges, edge_off, target, label, text = (ds.arrays[k] for k in PACK_ARRAYS)
    node_off, edge_off = node_off.tolist(), edge_off.tolist()
    lines = [json.dumps(header, separators=(",", ":"))]
    for i, ((u, v), lab, text_index) in enumerate(zip(target.tolist(), label.tolist(), text.tolist())):
        record = {
            "domain": ds.domain, "task": ds.task, "num_nodes": node_off[i + 1] - node_off[i],
            "edges": edges[edge_off[i] : edge_off[i + 1]].tolist(),
            "node_features": feats[node_off[i] : node_off[i + 1]].tolist(),
            "target": {"node": u} if ds.task == "node" else {"edge": [u, v]} if ds.task == "edge"
            else {"graph": True},
            "label": None if lab == -1 else lab, "text_index": text_index,
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    with open(graph_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    save_embeddings(ds.text_embeddings, embedding_path)


def _parse_instance(record: dict, header: dict, where: str):
    """One record as (node rows, (E, 2) edges, [target row, label, text index])."""
    try:
        feats = np.asarray(record["node_features"], dtype=np.float64)
        edges = np.asarray(record["edges"], dtype=np.int64)
        edges = edges.reshape(0, 2) if edges.size == 0 else edges
        if feats.ndim != 2 or edges.ndim != 2 or edges.shape[1] != 2:
            raise ParseError(f"{where}: node_features must be a list of equal-length rows "
                             "and edges a list of [u, v] pairs")
        _int(next((x for x in chain.from_iterable(record["edges"]) if type(x) is not int), 0), "edges")
        problem = None
        if record.get("edge_features") is not None:
            edge_feats = np.asarray(record["edge_features"], dtype=np.float64)
            if edge_feats.ndim == 0:
                raise ParseError(f"{where}: edge_features must be a list of rows")
            if len(edge_feats) != len(edges):
                problem = f"edge_features rows {len(edge_feats)} != edge count {len(edges)}"
        kind, target = _target_from_json(record["target"], where)
        label = -1 if record["label"] is None else _int(record["label"], "label")
        scalars = np.array([*target, label, _int(record["text_index"], "text_index")], dtype=np.int64)
        if feats.shape[0] != _int(record["num_nodes"], "num_nodes"):
            problem = f"node_features shape {feats.shape} does not match num_nodes {record['num_nodes']}"
        elif str(record["domain"]) != header["domain"]:
            problem = f"field domain: {str(record['domain'])!r} != dataset domain {header['domain']!r}"
        elif kind != header["task"]:
            problem = f"field target: kind {kind!r} does not match dataset task {header['task']!r}"
        elif record["label"] is not None and label == -1:  # -1 is null once packed
            problem = f"label -1 not in [0,{header['classes']})"
    except KeyError as exc:
        raise ParseError(f"{where}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: malformed record: {exc}") from exc
    if problem:
        raise ValidationError(f"{where}: {problem}")
    return feats, edges, scalars


def _header(obj) -> dict:
    """The domain-level fields of a JSONL header or a sidecar, type-checked."""
    task = str(obj["task"])
    if task not in TASK_KINDS:
        raise ValueError(f"unknown task kind {task!r}")
    splits = {name: [_int(i, f"splits {name}") for i in obj["splits"][name]] for name in SPLIT_NAMES}
    return {"domain": str(obj["domain"]), "task": task, "classes": _int(obj["classes"], "classes"),
            "splits": splits}


def _parse_jsonl(lines: list[bytes], path) -> tuple[dict, dict]:
    """Parse a JSONL file's lines straight into its packed arrays and header.
    ``lines`` is emptied as it goes, so each line is freed once parsed."""
    if not lines:
        raise ParseError(f"{path}:1: empty file, expected a header line")
    lines.reverse()

    def parse_line(lineno: int, text: bytes) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object")
        return obj

    raw = parse_line(1, lines.pop())
    if raw.get("format") != GRAPH_FORMAT_NAME:
        raise ParseError(f"{path}:1: format is not {GRAPH_FORMAT_NAME!r}")
    if raw.get("version") != GRAPH_FORMAT_VERSION:
        raise ParseError(f"{path}:1: unsupported version {raw.get('version')!r}")
    try:
        header = _header(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}:1: malformed header: {exc}") from exc
    rows = []
    for lineno in range(2, len(lines) + 2):
        text = lines.pop()
        if not text.strip():
            raise ParseError(f"{path}:{lineno}: blank line")
        record = parse_line(lineno, text)
        if record.get("task") != header["task"]:
            raise ParseError(
                f"{path}:{lineno}: instance task {record.get('task')!r} != header task {header['task']!r}"
            )
        rows.append(_parse_instance(record, header, f"{path}:{lineno}"))
        if (dim := rows[-1][0].shape[1]) != (first := rows[0][0].shape[1]):
            raise ValidationError(f"{path}:{lineno}: field node_features: dim {dim} != domain dim {first}")
    if not rows:
        raise EmptyDataError(f"{path}:1: domain {header['domain']!r} has no instances")
    feats, edges, scalars = zip(*rows)
    return _pack(feats, edges, np.stack(scalars), feats[0].shape[1]), header


# ------------------------------------------------------------ pack sidecar


def _integral(arr: np.ndarray) -> np.ndarray:
    """A float64 tensor of exact integers as int64; ValueError otherwise."""
    if not ((np.abs(arr) <= _MAX_EXACT_INT).all() and np.array_equal(arr, np.trunc(arr))):
        raise ValueError("sidecar tensor is not integral")
    return arr.astype(np.int64)


def _read_pack(pack_path: str) -> tuple[dict, dict, str] | None:
    """The arrays, header and source key of a sidecar of this version, or None.
    The arrays are checked only as every dataset's are, by ``_validate``."""
    try:
        pack = decode_checkpoint(Path(pack_path).read_bytes(), pack_path)
        header = _header(pack.metadata)
        if pack.metadata.get("pack_version") != PACK_VERSION:
            return None
        arrays = {k: pack.tensors[k] if k == "node_features" else _integral(pack.tensors[k]) for k in PACK_ARRAYS}
        return arrays, header, pack.metadata["source_sha256"]
    except (OSError, CheckpointError, KeyError, TypeError, ValueError, OverflowError):
        return None


def _write_pack(arrays: dict, header: dict, key: str, pack_path: str) -> None:
    """Write a sidecar atomically; if the file system refuses, parse only."""
    tmp = f"{pack_path}.tmp{os.getpid()}"
    pack = Checkpoint({**header, "pack_version": PACK_VERSION, "source_sha256": key}, arrays)
    try:
        Path(tmp).write_bytes(encode_checkpoint(pack))
        os.replace(tmp, pack_path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _dataset(arrays: dict, header: dict, key: str, graph_path, embedding_path) -> DomainDataset:
    """The dataset of decoded ``arrays`` and ``header``, with the embedding file's table."""
    emb_blob = Path(embedding_path).read_bytes()
    sha256 = {"graphs": key, "embeddings": hashlib.sha256(emb_blob).hexdigest()}
    return DomainDataset(
        header["domain"], header["task"], header["classes"], arrays,
        _decode_embeddings(emb_blob, embedding_path),
        Splits(*(header["splits"][name] for name in SPLIT_NAMES)), str(graph_path), sha256,
    )


def _stream_sha256(path, out: list, buffer: bytearray) -> None:
    """Append the SHA-256 of the file at ``path``, read through ``buffer``, to ``out`` if readable."""
    with contextlib.suppress(OSError):
        digest = hashlib.sha256()
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(buffer):
                digest.update(memoryview(buffer)[:size])  # releases the GIL
        out.append(digest.hexdigest())


def load_dataset(graph_path, embedding_path) -> DomainDataset:
    """Load and fully validate one domain from its file pair: from the sidecar if
    it validates and its key matches the JSONL's streamed digest, else by parsing
    the JSONL (whose errors are then the ones raised) and writing a sidecar."""
    pack_path = f"{graph_path}{PACK_SUFFIX}"
    digest: list = []
    worker = threading.Thread(target=_stream_sha256, args=(graph_path, digest, bytearray(_HASH_CHUNK)))
    worker.start()
    try:
        packed = _read_pack(pack_path)  # which returns None for every OSError
        ds = packed and _dataset(*packed, graph_path, embedding_path)
    except UglmError:  # a sidecar that fails validation is stale
        packed = None
    except OSError as exc:  # reading the .emb: held, as it counts only if the sidecar does
        ds = exc
    finally:
        worker.join()
    if packed and digest == [packed[2]]:
        if isinstance(ds, OSError):
            raise ds
        return ds
    blob = Path(graph_path).read_bytes()  # the sidecar is stale, or this raises the JSONL's error
    key = hashlib.sha256(blob).hexdigest()  # of the bytes parsed, even if the file changed since
    lines = blob.splitlines()  # each is decoded on its own
    del blob  # a parse holds the file once, as its lines
    arrays, header = _parse_jsonl(lines, graph_path)
    ds = _dataset(arrays, header, key, graph_path, embedding_path)
    _write_pack(arrays, header, key, pack_path)
    return ds


# ------------------------------------------------------------------- pools


@dataclass(frozen=True, eq=False)
class Pool:
    """The rows of one split of every dataset, laid end to end in order: row r
    is the r-th index of the split with the datasets taken in turn, so each
    dataset's rows are one range. Both training stages draw their batches
    from the train pool, and classification eval scores a split's pool.
    The merged arrays and text rows are built on first use: Stage II encodes
    straight from each dataset's arrays and needs neither."""

    datasets: tuple[DomainDataset, ...]
    kinds: np.ndarray  # target kind of every row
    dataset: np.ndarray  # index into datasets
    instance: np.ndarray  # instance index within its dataset

    @classmethod
    def of(cls, datasets: Sequence[DomainDataset], split: str = "train") -> "Pool":
        if split not in SPLIT_NAMES:
            raise InvalidParameterError(f"unknown split {split!r}")
        if not datasets:
            raise EmptyDataError("no datasets")
        indices = [getattr(ds.splits, split) for ds in datasets]
        counts = [len(i) for i in indices]
        return cls(
            tuple(datasets), np.repeat([ds.task for ds in datasets], counts),
            np.repeat(np.arange(len(datasets)), counts), np.concatenate(indices),
        )

    def __len__(self) -> int:
        return len(self.instance)

    def parts(self) -> list[tuple[DomainDataset, np.ndarray]]:
        """Each dataset with the instance indices of its rows, in row order."""
        bounds = np.searchsorted(self.dataset, np.arange(len(self.datasets) + 1)).tolist()
        return [(ds, self.instance[a:b]) for ds, a, b in zip(self.datasets, bounds, bounds[1:])]

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        """The rows' PACK_ARRAYS, merged; text_index still points into each
        row's own dataset's table. The datasets share a feature dim."""
        parts = [take_packed(ds.arrays, indices) for ds, indices in self.parts()]
        merged = {k: np.concatenate([p[k] for p in parts]) for k in PACK_ARRAYS if "offsets" not in k}
        for key, of in (("node_offsets", "node_features"), ("edge_offsets", "edges")):
            bases = np.cumsum([0] + [len(p[of]) for p in parts])
            merged[key] = np.concatenate([p[key][:-1] + b for p, b in zip(parts, bases)] + [bases[-1:]])
        return merged

    @cached_property
    def texts(self) -> np.ndarray:
        """The text-embedding row of every row. The datasets share a text dim."""
        return np.concatenate([ds.text_embeddings[ds.arrays["text_index"][i]] for ds, i in self.parts()])

    def place(self, r: int) -> str:
        """Where row ``r`` comes from, for errors (``DomainDataset.place``)."""
        return self.datasets[self.dataset[r]].place(int(self.instance[r]))

    def batches(self, batch_size: int, epochs: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Shuffled epochs as arrays of pool rows: one ``rng.permutation`` of the
        pool per epoch, drawn when the epoch starts, cut into contiguous
        batches, the final partial batch kept. The stage configs check the
        batch size and the epoch count."""
        if not len(self):
            raise EmptyDataError("no training instances in any dataset")
        for _ in range(epochs):
            order = rng.permutation(len(self))
            for start in range(0, len(self), batch_size):
                yield order[start : start + batch_size]
