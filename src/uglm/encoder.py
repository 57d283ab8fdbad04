"""Multi-scale message-passing encoder, run over a batch of graphs at once.

A batch's graphs are joined into one block-diagonal graph (node rows
stacked, edge endpoints shifted by node offsets, as in PyG mini-batching),
so Stage I makes one forward and one backward per batch. Mean-aggregator
layers give node rows, mean pooling gives graph rows, and three task heads
(one linear map 2d->d each, over the rows of its target kind) emit node-,
edge- and graph-level representations of one dimension. Neighbour sums and
pooling are flat-index ``np.bincount`` sums. The hand-derived backward is
checked against finite differences and a per-instance reference in tests.

Structure once, parameters many: ``GraphBatch.build`` does everything that
depends on the graphs alone (stacking, edge shifts, in-degrees, head rows
and targets, segment-sum plans) and ``forward(batch, enc)`` only the
arithmetic, so a batch can be run under many parameter vectors, as the
finite-difference check does. ``encode_batch`` builds and runs once.

Conventions: weights multiply on the right (``h @ w``); every layer but the
last (linear) is ReLU. Isolated nodes aggregate a zero neighbor mean; there
is no implicit self-loop. Weight gradients sum over fixed 256-row chunks in
a fixed order, so a seed gives the same bits at any BLAS thread count (one
product over more rows may split its sum by thread).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain

import numpy as np

from .errors import ContractError, DimensionError
from .graphdata import GraphInstance, target_kind
from .numcore import Matrix, ParamSet

HEAD_NAMES = {"node": "node_head", "edge": "edge_head", "graph": "graph_head"}

# Rows per weight-gradient product; see the module docstring.
GRAD_CHUNK_ROWS = 256
# Entries per segment-sum bincount; see _segment_sum.
SEGMENT_CHUNK = 1 << 14


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
    """Sum of ``rows[take[e]]`` per id ``segment[e]``, added in e order.

    The plan is made once per row width and reused by every call. Up to
    SEGMENT_CHUNK entries (ids x width) it is one ``np.bincount`` over a flat
    index. Past that, the entries are sorted by id (stably) and summed a chunk
    at a time, cut between ids: the allocator maps batch-sized temporaries
    afresh on every call, which made the cost outgrow the edges. ``take``
    None means every row, in order.
    """

    def __init__(self, take: np.ndarray | None, segment: np.ndarray, num_segments: int):
        self.take, self.segment, self.num_segments = take, segment, num_segments
        self._plans: dict[int, object] = {}
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None  # (take, segment) by id

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        width = rows.shape[1]
        plan = self._plans.get(width)
        if plan is None:
            plan = self._plans[width] = self._plan(width)
        if isinstance(plan, np.ndarray):
            values = rows if self.take is None else rows[self.take]
            sums = np.bincount(plan, values.ravel(), self.num_segments * width)
            sums = sums.reshape(self.num_segments, width)
            return sums.astype(np.float64, copy=False)  # int when there are no entries
        take, segment = self._sorted
        out = np.zeros((self.num_segments, width))
        for start, stop, lo, hi in plan:
            out[lo:hi] = _bincount_rows(rows[take[start:stop]], segment[start:stop] - lo, hi - lo)
        return out

    def _plan(self, width: int):
        """A flat bincount index, or the chunks (start, stop, lo, hi) of the sorted entries."""
        if self.segment.size * width <= SEGMENT_CHUNK:
            return _flat_index(self.segment, width)
        if self._sorted is None:
            order = np.argsort(self.segment, kind="stable")
            self._sorted = order if self.take is None else self.take[order], self.segment[order]
        segment = self._sorted[1]
        step = max(1, SEGMENT_CHUNK // width)
        bounds = sorted({0, segment.size, *np.searchsorted(segment, segment[step::step]).tolist()})
        return [
            (start, stop, int(segment[start]), int(segment[stop - 1]) + 1)
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]


def _flat_index(ids: np.ndarray, width: int) -> np.ndarray:
    return (ids[:, None] * width + np.arange(width)).ravel()


def _bincount_rows(values: np.ndarray, ids: np.ndarray, num_ids: int) -> np.ndarray:
    """Row sums of ``values`` per id, added in row order by one flat ``np.bincount``."""
    width = values.shape[1]
    sums = np.bincount(_flat_index(ids, width), values.ravel(), num_ids * width)
    return sums.reshape(num_ids, width)


def _rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b``, summed over GRAD_CHUNK_ROWS-row chunks in row order."""
    out = a[:GRAD_CHUNK_ROWS].T @ b[:GRAD_CHUNK_ROWS]
    for start in range(GRAD_CHUNK_ROWS, a.shape[0], GRAD_CHUNK_ROWS):
        out += a[start : start + GRAD_CHUNK_ROWS].T @ b[start : start + GRAD_CHUNK_ROWS]
    return out


@dataclass
class GraphBatch:
    """A batch's structure, built once; any number of forwards reuse it.

    Graph b holds the stacked node rows offsets[b]:offsets[b + 1]. The edges
    keep the batch's order, shifted by their graph's node offset.
    """

    features: np.ndarray  # (n, input_dim)
    offsets: np.ndarray
    graph_of: np.ndarray  # graph index of every node
    sizes: np.ndarray  # (B, 1) node count of every graph
    inv_deg: np.ndarray  # (n, 1) 1/in-degree, 1 for a node without in-edges
    heads: list[tuple]  # per kind present: (kind, rows, target node ids)
    gather: _SegmentSum  # neighbour sums, by destination
    scatter: _SegmentSum  # their backward, by source
    pool: _SegmentSum  # node rows summed per graph

    @classmethod
    def build(cls, instances: list[GraphInstance], input_dim: int) -> "GraphBatch":
        if not instances:
            raise ContractError("cannot encode an empty batch")
        feats = [np.asarray(g.node_features, dtype=np.float64) for g in instances]
        for g, h in zip(instances, feats):
            if h.shape != (g.num_nodes, input_dim):
                raise DimensionError(
                    f"node features {h.shape} do not match ({g.num_nodes} nodes, {input_dim})"
                )
        features = np.concatenate(feats) if len(feats) > 1 else feats[0]
        sizes = [g.num_nodes for g in instances]
        offsets = np.array([0, *accumulate(sizes)])
        n = int(offsets[-1])
        edge_counts = [len(g.edges) for g in instances]
        ends = np.fromiter(
            chain.from_iterable(chain.from_iterable(g.edges for g in instances)),
            dtype=np.intp, count=2 * sum(edge_counts),
        ).reshape(-1, 2) + np.repeat(offsets[:-1], edge_counts)[:, None]
        src, dst = np.ascontiguousarray(ends.T)
        inv_deg = 1.0 / np.maximum(np.bincount(dst, minlength=n), 1)  # no in-edges: sums stay 0
        graph_of = np.repeat(np.arange(len(instances)), sizes)

        rows_of: dict[str, list[int]] = {}
        for b, g in enumerate(instances):
            rows_of.setdefault(target_kind(g.target), []).append(b)
        heads = []
        for kind in HEAD_NAMES:
            if kind not in rows_of:
                continue
            rows = np.array(rows_of[kind], dtype=np.intp)
            if kind == "node":
                targets = offsets[rows] + [instances[b].target.node for b in rows]
            elif kind == "edge":
                pairs = np.array([instances[b].target.edge for b in rows], dtype=np.intp)
                targets = offsets[rows][:, None] + pairs
            else:
                targets = None
            heads.append((kind, rows, targets))
        return cls(
            features, offsets, graph_of, np.array(sizes)[:, None], inv_deg[:, None], heads,
            gather=_SegmentSum(src, dst, n),
            scatter=_SegmentSum(dst, src, n),
            pool=_SegmentSum(None, graph_of, len(instances)),
        )


@dataclass
class BatchCache:
    """Forward intermediates of one forward over ``batch``."""

    encoder: MultiScaleEncoder
    batch: GraphBatch
    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (input, neighbour mean, pre)
    h_node: np.ndarray
    h_graph: np.ndarray  # (B, d)
    heads: list[np.ndarray] | None  # head inputs, one per entry of batch.heads


def forward(batch: GraphBatch, enc: MultiScaleEncoder) -> tuple[Matrix, BatchCache]:
    """Representations (B x d) of a built batch under ``enc``'s parameters.

    Only arithmetic: the structure comes from ``batch``. Row b depends only
    on instance b: the batch's graphs share no edges.
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
        pre = h @ w_self + agg @ w_neigh + bias
        layers.append((h, agg, pre))
        h = pre if i == enc.num_layers - 1 else np.maximum(pre, 0.0)
    h_graph = batch.pool(h) / batch.sizes
    x = np.empty((len(batch.sizes), enc.hidden_dim))
    heads = []
    for kind, rows, targets in batch.heads:
        if kind == "node":
            local = h[targets]
        elif kind == "edge":
            local = 0.5 * (h[targets[:, 0]] + h[targets[:, 1]])
        else:
            local = h_graph[rows]
        concat = np.concatenate([local, h_graph[rows]], axis=1)
        name = HEAD_NAMES[kind]
        x[rows] = concat @ params[f"{name}.weight"] + params[f"{name}.bias"]
        heads.append(concat)
    return x, BatchCache(enc, batch, layers, h, h_graph, heads)


def encode_batch(
    instances: list[GraphInstance], enc: MultiScaleEncoder
) -> tuple[Matrix, BatchCache]:
    """Representations (B x d) of a batch, each at its target's granularity."""
    return forward(GraphBatch.build(instances, enc.input_dim), enc)


def encode_node_graph(
    g: GraphInstance, enc: MultiScaleEncoder
) -> tuple[Matrix, np.ndarray, BatchCache]:
    """Node rows after all layers and their mean-pooled graph row.

    The cache carries no head inputs, so it cannot seed a backward.
    """
    _, cache = encode_batch([g], enc)
    return cache.h_node, cache.h_graph[0], replace(cache, heads=None)


def task_representation(g: GraphInstance, enc: MultiScaleEncoder) -> tuple[np.ndarray, BatchCache]:
    """Same-dimension representation at the instance's target granularity."""
    x, cache = encode_batch([g], enc)
    return x[0], cache


# ---------------------------------------------------------------- backward


def encoder_backward(
    cache: BatchCache, upstream: np.ndarray, out: np.ndarray | None = None
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
