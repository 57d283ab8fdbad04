"""Multi-scale message-passing encoder.

A stack of mean-aggregator layers produces node rows; mean pooling gives a
graph row; three task heads (one linear map 2d->d each) emit node-, edge-,
and graph-level representations of identical dimension. The backward pass
is derived by hand for this fixed composite and is checked against the
finite-difference oracle in the test suite.

Conventions: weights multiply on the right (``h @ w``); layer activation
is ReLU everywhere except the final layer, which is linear so downstream
cosine similarities are not sign-constrained. Isolated nodes aggregate a
zero neighbor mean; there is no implicit self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError
from .graphdata import GraphInstance, TaskKind, target_kind
from .numcore import Matrix, ParamSet

HEAD_NAMES = {"node": "node_head", "edge": "edge_head", "graph": "graph_head"}


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


def _edge_arrays(
    num_nodes: int, edges: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source/destination index arrays and 1/in-degree (0 for isolated)."""
    if edges:
        src = np.fromiter((u for u, _ in edges), dtype=np.intp, count=len(edges))
        dst = np.fromiter((v for _, v in edges), dtype=np.intp, count=len(edges))
    else:
        src = np.empty(0, dtype=np.intp)
        dst = np.empty(0, dtype=np.intp)
    deg = np.bincount(dst, minlength=num_nodes).astype(np.float64)
    inv_deg = np.zeros(num_nodes)
    np.divide(1.0, deg, out=inv_deg, where=deg > 0)
    return src, dst, inv_deg


def _neighbor_mean(
    h: np.ndarray, src: np.ndarray, dst: np.ndarray, inv_deg: np.ndarray
) -> np.ndarray:
    agg = np.zeros((h.shape[0], h.shape[1]))
    np.add.at(agg, dst, h[src])
    agg *= inv_deg[:, None]
    return agg


@dataclass
class LayerTrace:
    h_in: np.ndarray
    agg: np.ndarray
    pre: np.ndarray


@dataclass
class EncodeCache:
    """Forward intermediates retained for the hand-derived backward pass."""

    encoder: MultiScaleEncoder
    src: np.ndarray
    dst: np.ndarray
    inv_deg: np.ndarray
    layers: list[LayerTrace]
    h_node: np.ndarray
    h_graph: np.ndarray
    # task-head fields, absent for a bare encode
    kind: TaskKind | None = None
    concat: np.ndarray | None = None
    node_index: int | None = None
    edge_pair: tuple[int, int] | None = None


def encode_node_graph(
    g: GraphInstance, enc: MultiScaleEncoder
) -> tuple[Matrix, np.ndarray, EncodeCache]:
    """Node rows after all layers and their mean-pooled graph row."""
    h = np.asarray(g.node_features, dtype=np.float64)
    if h.shape != (g.num_nodes, enc.input_dim):
        raise DimensionError(
            f"node features {h.shape} do not match (num_nodes={g.num_nodes}, "
            f"input_dim={enc.input_dim})"
        )
    src, dst, inv_deg = _edge_arrays(g.num_nodes, g.edges)
    traces: list[LayerTrace] = []
    for i in range(enc.num_layers):
        w_self = enc.params[f"layer{i}.self_weight"]
        w_neigh = enc.params[f"layer{i}.neigh_weight"]
        bias = enc.params[f"layer{i}.bias"]
        agg = _neighbor_mean(h, src, dst, inv_deg)
        pre = h @ w_self + agg @ w_neigh + bias
        traces.append(LayerTrace(h_in=h, agg=agg, pre=pre))
        h = pre if i == enc.num_layers - 1 else np.maximum(pre, 0.0)
    h_graph = h.mean(axis=0)
    cache = EncodeCache(
        encoder=enc, src=src, dst=dst, inv_deg=inv_deg,
        layers=traces, h_node=h, h_graph=h_graph,
    )
    return h, h_graph, cache


def task_representation(
    g: GraphInstance, enc: MultiScaleEncoder, task: TaskKind | None = None
) -> tuple[np.ndarray, EncodeCache]:
    """Same-dimension representation at the instance's target granularity."""
    kind = target_kind(g.target)
    if task is not None and task != kind:
        raise ContractError(f"instance target is {kind!r} but task {task!r} was requested")
    h_node, h_graph, cache = encode_node_graph(g, enc)
    if kind == "node":
        v = g.target.node
        local = h_node[v]
        cache.node_index = v
    elif kind == "edge":
        u, v = g.target.edge
        local = 0.5 * (h_node[u] + h_node[v])
        cache.edge_pair = (u, v)
    else:
        local = h_graph
    z = np.concatenate([local, h_graph])
    head = HEAD_NAMES[kind]
    x_star = z @ enc.params[f"{head}.weight"] + enc.params[f"{head}.bias"]
    cache.kind = kind
    cache.concat = z
    return x_star, cache


# ---------------------------------------------------------------- backward


def encoder_backward(cache: EncodeCache, upstream: np.ndarray) -> ParamSet:
    """Exact gradients of (upstream . x_star) for every encoder parameter.

    ``cache`` must come from a task_representation call; heads not used by
    the cached task receive zero gradients, written into one zero vector.
    """
    if cache.kind is None or cache.concat is None:
        raise ContractError("cache has no task head; use the cache from task_representation")
    enc = cache.encoder
    d = enc.hidden_dim
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (d,):
        raise ContractError(f"upstream gradient must have shape ({d},), got {upstream.shape}")

    grads = enc.params.zeros_like()
    head = HEAD_NAMES[cache.kind]
    grads[f"{head}.weight"][...] = np.outer(cache.concat, upstream)
    grads[f"{head}.bias"][...] = upstream
    dz = enc.params[f"{head}.weight"] @ upstream
    d_local, d_graph = dz[:d], dz[d:].copy()

    n = cache.h_node.shape[0]
    d_h = np.zeros_like(cache.h_node)
    if cache.kind == "node":
        d_h[cache.node_index] += d_local
    elif cache.kind == "edge":
        u, v = cache.edge_pair
        d_h[u] += 0.5 * d_local
        d_h[v] += 0.5 * d_local
    else:
        d_graph += d_local
    d_h += d_graph / n  # mean pooling fans the graph-row gradient out

    for i in reversed(range(enc.num_layers)):
        trace = cache.layers[i]
        d_pre = d_h if i == enc.num_layers - 1 else d_h * (trace.pre > 0.0)
        grads[f"layer{i}.self_weight"][...] += trace.h_in.T @ d_pre
        grads[f"layer{i}.neigh_weight"][...] += trace.agg.T @ d_pre
        grads[f"layer{i}.bias"][...] += d_pre.sum(axis=0)
        if i == 0:
            break  # the input features need no gradient
        d_h = d_pre @ enc.params[f"layer{i}.self_weight"].T
        d_agg = d_pre @ enc.params[f"layer{i}.neigh_weight"].T
        if cache.src.size:
            np.add.at(d_h, cache.src, d_agg[cache.dst] * cache.inv_deg[cache.dst, None])

    return grads
