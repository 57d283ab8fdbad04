"""Multi-scale message-passing encoder, run over a batch of graphs at once.

A batch's graphs are joined into one block-diagonal graph (node rows
stacked, edge endpoints shifted by node offsets, as in PyG mini-batching),
so Stage I makes one forward and one backward per batch. Mean-aggregator
layers give node rows, mean pooling gives graph rows, and three task heads
(one linear map 2d->d each, over the rows of its target kind) emit node-,
edge- and graph-level representations of one dimension. Neighbour sums and
pooling are segment sums (``_SegmentSum``): one flat ``np.bincount`` when
small, a jagged-diagonal sum otherwise, with the same bits. The
hand-derived backward is checked against finite differences and a
per-instance reference in tests.

Structure once, parameters many: ``GraphBatch.from_packed`` gathers a
batch straight from packed arrays (``graphdata.PACK_ARRAYS``) and does
everything that depends on the graphs alone (node and edge range gathers,
edge shifts, in-degrees, head rows and targets, segment-sum plans), and
``forward(batch, enc)`` only the arithmetic, so a batch can be run under
many parameter vectors, or once under a stack of them (the gradient check).
``encode_packed`` builds and runs once; ``encode_batch`` packs a list of
``GraphInstance`` objects first, so both take one path.

Conventions: weights multiply on the right (``h @ w``); every layer but the
last (linear) is ReLU. Isolated nodes aggregate a zero neighbor mean; there
is no implicit self-loop. Weight gradients sum over fixed 256-row chunks in
a fixed order, so a seed gives the same bits at any BLAS thread count (one
product over more rows may split its sum by thread).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError
from .graphdata import GraphInstance, pack_instances, take_packed, target_kind
from .numcore import Matrix, ParamSet

HEAD_NAMES = {"node": "node_head", "edge": "edge_head", "graph": "graph_head"}

# Rows per weight-gradient product; see the module docstring.
GRAD_CHUNK_ROWS = 256
# Entries (ids x width) up to which a segment sum is one bincount, and the
# fewest ids a jagged-diagonal pass adds; see _SegmentSum.
SEGMENT_CHUNK = 1 << 14
JAGGED_MIN_IDS = 8


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def encoder_param_shapes(
    input_dim: int, hidden_dim: int, num_layers: int
) -> dict[str, tuple[int, ...]]:
    """Shape of every encoder parameter, by name, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    d_prev = input_dim
    for i in range(num_layers):
        shapes[f"layer{i}.self_weight"] = (d_prev, hidden_dim)
        shapes[f"layer{i}.neigh_weight"] = (d_prev, hidden_dim)
        shapes[f"layer{i}.bias"] = (hidden_dim,)
        d_prev = hidden_dim
    for head in HEAD_NAMES.values():
        shapes[f"{head}.weight"] = (2 * hidden_dim, hidden_dim)
        shapes[f"{head}.bias"] = (hidden_dim,)
    return shapes


@dataclass
class MultiScaleEncoder:
    input_dim: int
    hidden_dim: int
    num_layers: int
    params: ParamSet

    @classmethod
    def initialize(
        cls, input_dim: int, hidden_dim: int, num_layers: int, rng: np.random.Generator
    ) -> "MultiScaleEncoder":
        if num_layers < 1:
            raise ContractError(f"encoder needs >= 1 layer, got {num_layers}")
        arrays: dict[str, np.ndarray] = {}
        for name, shape in encoder_param_shapes(input_dim, hidden_dim, num_layers).items():
            if len(shape) == 2:
                fan_in = shape[0]  # a bias shares the fan-in of the weight before it
            arrays[name] = uniform_init(rng, fan_in, shape)
        return cls(input_dim, hidden_dim, num_layers, ParamSet(arrays))

    def with_params(self, params: ParamSet) -> "MultiScaleEncoder":
        return replace(self, params=params)


# ---------------------------------------------------------------- forward


class _SegmentSum:
    """Sum of ``rows[take[e]]`` per id ``segment[e]`` (``take`` None: row e),
    added from 0.0 in e order, so the bits are those of one ``np.bincount``.

    Up to SEGMENT_CHUNK entries (ids x width) it is that bincount over a flat
    index. Past that it is a jagged-diagonal sum (Saad, *Iterative Methods
    for Sparse Linear Systems*, 2003, 3.4), planned once for every width: with
    the ids ordered by entry count, most first, pass k adds the k-th entry of
    each id with more than k into a prefix of the output rows. Once fewer
    than JAGGED_MIN_IDS ids are left (hubs), one ``np.add.at`` adds the rest
    in pass order, which keeps each id's entry order.
    """

    def __init__(self, take: np.ndarray | None, segment: np.ndarray, num_segments: int):
        self.take, self.segment, self.num_segments = take, segment, num_segments
        self._flat: dict[int, np.ndarray] = {}
        self._jagged: tuple | None = None

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        if rows.ndim == 3:  # a (P, n, w) stack: one sum over (n, P * w) rows
            stack, n, w = rows.shape
            sums = self(rows.transpose(1, 0, 2).reshape(n, stack * w))
            return sums.reshape(-1, stack, w).transpose(1, 0, 2)
        width = rows.shape[1]
        if self.segment.size * width <= SEGMENT_CHUNK:
            index = self._flat.get(width)
            if index is None:
                index = self._flat[width] = (self.segment[:, None] * width + np.arange(width)).ravel()
            values = rows if self.take is None else rows[self.take]
            sums = np.bincount(index, values.ravel(), self.num_segments * width)
            return sums.reshape(self.num_segments, width).astype(np.float64, copy=False)  # int if empty
        if self._jagged is None:
            self._jagged = self._plan()
        take, passes, tail, tail_rows, position = self._jagged
        out = np.zeros((self.num_segments, width))
        for start, stop in passes:
            out[: stop - start] += rows[take[start:stop]]
        if tail.size:
            np.add.at(out, tail_rows, rows[tail])
        return out[position]

    def _plan(self) -> tuple:
        """Entry rows in pass order, the passes' bounds, the tail, and each id's output row."""
        counts = np.bincount(self.segment, minlength=self.num_segments)
        position = np.empty_like(counts)
        position[_stable_order(counts.max(initial=0) - counts)] = np.arange(self.num_segments)
        order = _stable_order(self.segment)  # by id, each id's entries in e order
        ids = self.segment[order]
        rank = np.arange(ids.size) - (np.cumsum(counts) - counts)[ids]  # the pass of each entry
        per_pass = np.bincount(rank)  # ids with more than k entries: non-increasing in k
        bounds = np.concatenate([[0], np.cumsum(per_pass)])
        slot = bounds[rank] + position[ids]
        take, out_row = np.empty_like(order), np.empty_like(order)
        take[slot] = order if self.take is None else self.take[order]
        out_row[slot] = position[ids]
        jagged = int(np.count_nonzero(per_pass >= JAGGED_MIN_IDS))
        passes = list(zip(bounds[:jagged].tolist(), bounds[1 : jagged + 1].tolist()))
        return take, passes, take[bounds[jagged] :], out_row[bounds[jagged] :], position


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative ints; a radix sort for keys below 2^16."""
    return np.argsort(keys.astype(np.uint16) if keys.size and keys.max() < 1 << 16 else keys, kind="stable")


def _rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b``, summed over GRAD_CHUNK_ROWS-row chunks in row order."""
    out = a[:GRAD_CHUNK_ROWS].T @ b[:GRAD_CHUNK_ROWS]
    for start in range(GRAD_CHUNK_ROWS, a.shape[0], GRAD_CHUNK_ROWS):
        out += a[start : start + GRAD_CHUNK_ROWS].T @ b[start : start + GRAD_CHUNK_ROWS]
    return out


@dataclass
class GraphBatch:
    """A batch's structure, built once; any number of forwards reuse it.
    Graph b's node rows follow graph b - 1's, and its edges keep their
    order, shifted by its first row."""

    features: np.ndarray  # (n, input_dim)
    graph_of: np.ndarray  # graph index of every node
    sizes: np.ndarray  # (B, 1) node count of every graph
    inv_deg: np.ndarray  # (n, 1) 1/in-degree, 1 for a node without in-edges
    heads: list[tuple]  # per kind present: (kind, rows, target node ids)
    gather: _SegmentSum  # neighbour sums, by destination
    scatter: _SegmentSum  # their backward, by source
    pool: _SegmentSum  # node rows summed per graph

    @classmethod
    def from_packed(cls, arrays: dict[str, np.ndarray], rows, kinds) -> "GraphBatch":
        """The batch of instances ``rows`` of the packed ``arrays``
        (``graphdata.PACK_ARRAYS``), in order; ``kinds`` is their target
        kind, one for all or one per row. Each graph's edges keep their order."""
        rows = np.asarray(rows, dtype=np.intp)
        if not rows.size:
            raise ContractError("cannot encode an empty batch")
        batch = take_packed(arrays, rows)
        offsets = batch["node_offsets"]
        n, sizes = int(offsets[-1]), np.diff(offsets)
        ends = batch["edges"] + np.repeat(offsets[:-1], np.diff(batch["edge_offsets"]))[:, None]
        src, dst = np.ascontiguousarray(ends.T)
        inv_deg = 1.0 / np.maximum(np.bincount(dst, minlength=n), 1)  # no in-edges: sums stay 0
        graph_of = np.repeat(np.arange(rows.size), sizes)
        targets, kinds = batch["target"] + offsets[:-1, None], np.broadcast_to(kinds, rows.shape)
        heads = []
        for kind in HEAD_NAMES:
            mine = np.flatnonzero(kinds == kind)
            if mine.size:
                at = targets[mine, 0] if kind == "node" else targets[mine] if kind == "edge" else None
                heads.append((kind, mine, at))
        return cls(
            batch["node_features"], graph_of, sizes[:, None], inv_deg[:, None], heads,
            gather=_SegmentSum(src, dst, n),
            scatter=_SegmentSum(dst, src, n),
            pool=_SegmentSum(None, graph_of, rows.size),
        )

    @classmethod
    def build(cls, instances: list[GraphInstance], input_dim: int) -> "GraphBatch":
        """The batch of ``instances``, packed first."""
        kinds = [target_kind(g.target) for g in instances]
        return cls.from_packed(pack_instances(instances, input_dim), np.arange(len(instances)), kinds)


@dataclass
class ForwardCache:
    """Forward intermediates of one forward over ``batch``."""

    encoder: MultiScaleEncoder
    batch: GraphBatch
    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (input, neighbour mean, pre)
    h_node: np.ndarray
    h_graph: np.ndarray  # (B, d)
    heads: list[np.ndarray] | None  # head inputs, one per entry of batch.heads


def forward(batch: GraphBatch, enc: MultiScaleEncoder) -> tuple[Matrix, ForwardCache]:
    """Representations (B x d) of a built batch under ``enc``'s parameters.

    Only arithmetic: the structure comes from ``batch``. Row b depends only
    on instance b: the batch's graphs share no edges. Under a (P, N) stack
    of parameter vectors they are (P, B, d), each slice with its own bits.
    """
    if batch.features.shape[1] != enc.input_dim:
        raise DimensionError(
            f"batch has {batch.features.shape[1]} features per node, "
            f"but the encoder takes {enc.input_dim}"
        )
    params = enc.params
    h = batch.features
    layers = []
    for i in range(enc.num_layers):
        agg = batch.gather(h) * batch.inv_deg
        names = (f"layer{i}.self_weight", f"layer{i}.neigh_weight", f"layer{i}.bias")
        w_self, w_neigh, bias = (params[name] for name in names)
        pre = h @ w_self + agg @ w_neigh + bias[..., None, :]
        layers.append((h, agg, pre))
        h = pre if i == enc.num_layers - 1 else np.maximum(pre, 0.0)
    h_graph = batch.pool(h) / batch.sizes
    x = np.empty_like(h_graph)
    heads = []
    for kind, rows, targets in batch.heads:
        if kind == "node":
            local = h[..., targets, :]
        elif kind == "edge":
            local = 0.5 * (h[..., targets[:, 0], :] + h[..., targets[:, 1], :])
        else:
            local = h_graph[..., rows, :]
        concat = np.concatenate([local, h_graph[..., rows, :]], axis=-1)
        name = HEAD_NAMES[kind]
        x[..., rows, :] = concat @ params[f"{name}.weight"] + params[f"{name}.bias"][..., None, :]
        heads.append(concat)
    return x, ForwardCache(enc, batch, layers, h, h_graph, heads)


def encode_packed(arrays: dict, rows, kinds, enc: MultiScaleEncoder) -> tuple[Matrix, ForwardCache]:
    """Representations (B x d) of packed instances; see ``GraphBatch.from_packed``."""
    return forward(GraphBatch.from_packed(arrays, rows, kinds), enc)


def encode_batch(
    instances: list[GraphInstance], enc: MultiScaleEncoder
) -> tuple[Matrix, ForwardCache]:
    """Representations (B x d) of a batch, each at its target's granularity."""
    return forward(GraphBatch.build(instances, enc.input_dim), enc)


def encode_node_graph(
    g: GraphInstance, enc: MultiScaleEncoder
) -> tuple[Matrix, np.ndarray, ForwardCache]:
    """Node rows after all layers and their mean-pooled graph row.

    The cache carries no head inputs, so it cannot seed a backward.
    """
    _, cache = encode_batch([g], enc)
    return cache.h_node, cache.h_graph[0], replace(cache, heads=None)


def task_representation(g: GraphInstance, enc: MultiScaleEncoder) -> tuple[np.ndarray, ForwardCache]:
    """Same-dimension representation at the instance's target granularity."""
    x, cache = encode_batch([g], enc)
    return x[0], cache


# ---------------------------------------------------------------- backward


def encoder_backward(
    cache: ForwardCache, upstream: np.ndarray, out: np.ndarray | None = None
) -> ParamSet:
    """Exact gradients of sum_b upstream[b] . x[b] for every encoder parameter.

    ``cache`` comes from ``forward`` (a batch of one also takes a ``(d,)``
    upstream). The gradients go into ``out``, a zero vector of the
    encoder's size, if given; heads that no instance used keep zero gradients.
    """
    if cache.heads is None:
        raise ContractError("cache has no task head; use the cache from encode_batch")
    enc, batch = cache.encoder, cache.batch
    d = enc.hidden_dim
    upstream = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    if upstream.shape != cache.h_graph.shape:
        raise ContractError(f"upstream must have shape {cache.h_graph.shape}, got {upstream.shape}")

    grads = enc.params.with_flat(np.zeros(enc.params.flat.size) if out is None else out)
    d_h = np.zeros_like(cache.h_node)
    d_graph = np.empty_like(cache.h_graph)
    for (kind, rows, targets), concat in zip(batch.heads, cache.heads):
        name = HEAD_NAMES[kind]
        up = upstream[rows]
        grads[f"{name}.weight"][...] = _rows_product(concat, up)
        grads[f"{name}.bias"][...] = up.sum(axis=0)
        dz = up @ enc.params[f"{name}.weight"].T
        d_local, d_graph[rows] = dz[:, :d], dz[:, d:]
        if kind == "node":
            np.add.at(d_h, targets, d_local)
        elif kind == "edge":  # add.at: a self-loop target (u == v) gets both halves
            np.add.at(d_h, targets, 0.5 * d_local[:, None, :])
        else:
            d_graph[rows] += d_local
    d_h += (d_graph / batch.sizes)[batch.graph_of]  # pooling fans rows out

    for i in reversed(range(enc.num_layers)):
        h_in, agg, pre = cache.layers[i]
        d_pre = d_h if i == enc.num_layers - 1 else d_h * (pre > 0.0)
        grads[f"layer{i}.self_weight"][...] = _rows_product(h_in, d_pre)
        grads[f"layer{i}.neigh_weight"][...] = _rows_product(agg, d_pre)
        grads[f"layer{i}.bias"][...] = d_pre.sum(axis=0)
        if i == 0:
            break  # the input features need no gradient
        d_h = d_pre @ enc.params[f"layer{i}.self_weight"].T
        d_agg = d_pre @ enc.params[f"layer{i}.neigh_weight"].T
        d_h += batch.scatter(d_agg * batch.inv_deg)
    return grads
