"""Independent brute-force oracles and helpers shared by test modules.

The loss oracles are direct per-pair transcriptions of the losses they
check and deliberately share no code with the production implementations.
The per-instance encoder below is the slow reference for the batched one:
one graph at a time, neighbour sums by ``np.add.at``, weight gradients by
one matmul each. The sequential segment sum is the bitwise reference for
the batched encoder's segment sums. The per-instance Stage II step is the
reference for the vectorized one. The entrywise finite-difference oracle
is the reference for the package's stacked one, and the textbook Adam
update the bitwise reference for ``optimizer_step``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from uglm.align import MetricsRow, curriculum_weights, update_difficulty
from uglm.encoder import HEAD_NAMES, task_representation
from uglm.errors import InvalidParameterError, NumericError
from uglm.graphdata import (
    PACK_ARRAYS, SPLIT_NAMES, EdgeTarget, GraphInstance, GraphTarget, NodeTarget, Splits, target_kind,
)
from uglm.numcore import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, optimizer_step, row_cosine_similarity


def brute_force_dr_clip(x, t, ids, w_graph, w_text, index, tau):
    """Weighted bidirectional contrastive loss, one pair at a time."""
    n = len(x)

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    total_gt = 0.0
    total_tg = 0.0
    for i in range(n):
        pos = math.exp(cos(x[i], t[i]) / tau)
        denom = pos
        for j in range(n):
            if j != i:
                denom += w_graph[index[ids[i]], index[ids[j]]] * math.exp(cos(x[i], t[j]) / tau)
        total_gt -= math.log(pos / denom)
        denom2 = pos
        for j in range(n):
            if j != i:
                denom2 += w_text[index[ids[i]], index[ids[j]]] * math.exp(cos(t[i], x[j]) / tau)
        total_tg -= math.log(pos / denom2)
    return 0.5 * (total_gt / n + total_tg / n)


def brute_force_infonce(x, t, tau):
    """Standard symmetric InfoNCE over cosines; no weighting anywhere."""
    n = len(x)
    ones = np.ones((n, n))
    return brute_force_dr_clip(x, t, ["same"] * n, ones, ones, {"same": 0}, tau)


def datasets_equal(a, b):
    """Equality of two DomainDatasets' header fields and arrays, dtypes
    included, used by round-trip tests."""
    if (a.domain, a.task, a.num_classes) != (b.domain, b.task, b.num_classes):
        return False
    pairs = [(a.text_embeddings, b.text_embeddings)] + [(a.arrays[k], b.arrays[k]) for k in PACK_ARRAYS]
    pairs += [(getattr(a.splits, name), getattr(b.splits, name)) for name in SPLIT_NAMES]
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)


def with_labels(ds, labels):
    """``ds`` with the labels of {instance index: label or None} replaced; the
    constructor validates them, as it does every dataset's."""
    label = ds.arrays["label"].copy()
    for i, value in labels.items():
        label[i] = -1 if value is None else value
    return replace(ds, arrays={**ds.arrays, "label": label})


def instance_of(ds, i):
    """Instance ``i`` of a dataset as a GraphInstance, read off its arrays."""
    a = ds.arrays
    nodes, edges = (slice(*a[k][i : i + 2].tolist()) for k in ("node_offsets", "edge_offsets"))
    u, v = a["target"][i].tolist()
    target = {"node": NodeTarget(u), "edge": EdgeTarget((u, v)), "graph": GraphTarget()}[ds.task]
    label = int(a["label"][i])
    return GraphInstance(
        num_nodes=nodes.stop - nodes.start, edges=[tuple(e) for e in a["edges"][edges].tolist()],
        node_features=a["node_features"][nodes], target=target, text_index=int(a["text_index"][i]),
        domain=ds.domain, label=None if label == -1 else label,
    )


def train_pool(datasets):
    """The (dataset, instance index) of every row of the train pool, listed
    without ``graphdata.Pool``."""
    return [(ds, i) for ds in datasets for i in ds.splits.train.tolist()]


def with_train(ds, train):
    """``ds`` with ``train`` as its train split and no held-out splits."""
    return replace(ds, splits=Splits(train=train))


def max_relative_error(a, b):
    """max |a-b| / max(|a|, |b|, 1e-8) over all matching entries of two ParamSets."""
    assert a.layout == b.layout, f"layouts differ: {a.layout} vs {b.layout}"
    av, bv = a.flat, b.flat
    denom = np.maximum(np.maximum(np.abs(av), np.abs(bv)), 1e-8)
    err = np.abs(av - bv) / denom
    return float(err.max()) if err.size else 0.0


def finite_difference_gradient(f, params, eps=1e-5):
    """Central-difference gradient of a scalar function, one entry at a time:
    two calls of ``f`` on a single perturbed vector per entry. The reference
    for the package's stacked oracle."""
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    work = params.flat.copy()
    probe = params.with_flat(work)
    grad = np.zeros_like(work)
    for idx in range(work.size):
        orig = work[idx]
        work[idx] = orig + eps
        hi = float(f(probe))
        work[idx] = orig - eps
        lo = float(f(probe))
        work[idx] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            name = params.name_at(idx)
            raise NumericError(f"function evaluated to a non-finite value while perturbing {name!r}")
        grad[idx] = (hi - lo) / (2.0 * eps)
    return params.with_flat(grad)


def planted_class(ds, index):
    """True class of a generated instance (synthgen assigns classes round-robin)."""
    return index % ds.num_classes


def text_cosine_margin(ds):
    """Mean same-class minus mean cross-class cosine over text embeddings.

    Uses planted classes, not (possibly noise-flipped) labels; collapses
    toward zero as the generating text noise grows.
    """
    n = ds.text_embeddings.shape[0]
    labels = np.array([planted_class(ds, i) for i in range(n)])
    cos = row_cosine_similarity(ds.text_embeddings, ds.text_embeddings)
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    pos = cos[same & off_diag]
    neg = cos[~same]
    return float(pos.mean() - neg.mean())


# ------------------------------------------------ per-instance Stage II step


def reference_instance_scores(x_star, domain, label, proj, head):
    """Loss and label probabilities of one representation, through the
    head's query vector."""
    tokens = x_star @ proj.weight + proj.bias
    query = np.concatenate([tokens, head.instructions[domain]]) @ head.mixing
    logits = head.label_embeddings[domain] @ query
    shifted = logits - logits.max()
    log_norm = np.log(np.exp(shifted).sum())
    return float(log_norm - shifted[label]), np.exp(shifted - log_norm)


def reference_domain_gradient(group, proj, head):
    """Projector gradient of a domain's mean loss, one outer product per
    (representation, domain, label, probabilities) entry of ``group``."""
    total = proj.params.zeros_like()
    for x_star, domain, label, probs in group:
        d_logits = probs.copy()
        d_logits[label] -= 1.0
        d_query = head.label_embeddings[domain].T @ d_logits
        d_tokens = (head.mixing @ d_query)[: proj.bias.size]
        total["projector.weight"][...] += np.outer(x_star, d_tokens)
        total["projector.bias"][...] += d_tokens
    total.flat *= 1.0 / len(group)
    return total


def reference_align_step(items, state, config, encoder, head):
    """Stage II's step one instance at a time: each (dataset, instance index)
    of ``items`` is encoded alone, scored through the query vector, and its
    domain's gradient is summed outer product by outer product. The tracker,
    weights and Adam update are the package's own."""
    groups, losses = {}, {}
    for ds, index in items:
        inst = instance_of(ds, index)
        x_star, _ = task_representation(inst, encoder)
        loss, probs = reference_instance_scores(x_star, inst.domain, inst.label, state.projector, head)
        groups.setdefault(inst.domain, []).append((x_star, inst.domain, inst.label, probs))
        losses.setdefault(inst.domain, []).append(loss)
    domains = sorted(groups)
    grads = {d: reference_domain_gradient(groups[d], state.projector, head) for d in domains}
    observed = {  # the L2 norm, summed one named array at a time
        d: float(np.sqrt(sum(float(np.sum(v * v)) for _, v in grads[d].items()))) for d in domains
    }
    k = state.step + 1
    state.tracker = update_difficulty(state.tracker, k, observed)
    if config.weighting == "curriculum":
        weights = curriculum_weights(state.tracker, domains, config.curriculum_temperature)
    else:
        weights = {d: 1.0 / len(domains) for d in domains}
    params = state.projector.params
    total = params.zeros_like()
    for d in domains:
        total.flat[:] += weights[d] * grads[d].flat
    new_params, state.optimizer = optimizer_step(state.optimizer, params, total)
    state.projector = state.projector.with_params(new_params)
    state.step = k
    for d in domains:
        state.metrics.append(
            MetricsRow(k, d, float(np.mean(losses[d])), observed[d], state.tracker.smoothed[d], weights[d])
        )
    return state


def reference_adam_step(opt, params, grads):
    """The Adam update as the textbook writes it, one expression per
    quantity: the new flat parameters and both moments. ``optimizer_step``
    keeps its order of operations, so its bits are these."""
    t = opt.step + 1
    g = grads.flat
    m = ADAM_BETA1 * opt.first_moment + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * opt.second_moment + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return params.flat - opt.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v


# ------------------------------------------------- per-instance encoder


def sequential_segment_sum(rows, take, segment, num_segments):
    """Sum of rows[take[e]] per segment[e], one segment at a time: each starts
    at 0.0 and adds its entries in e order (``take`` None: row e itself)."""
    out = np.zeros((num_segments, rows.shape[1]))
    for s in range(num_segments):
        for e in np.flatnonzero(segment == s):
            out[s] = out[s] + rows[e if take is None else take[e]]
    return out


def _edge_arrays(num_nodes, edges):
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


def _neighbor_mean(h, src, dst, inv_deg):
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
    """Forward intermediates of one instance for the reference backward."""

    encoder: object
    src: np.ndarray
    dst: np.ndarray
    inv_deg: np.ndarray
    layers: list
    h_node: np.ndarray
    h_graph: np.ndarray
    kind: str
    concat: np.ndarray
    node_index: int | None = None
    edge_pair: tuple | None = None


def reference_task_representation(g, enc):
    """One instance's representation and its cache, one graph at a time."""
    h = np.asarray(g.node_features, dtype=np.float64)
    src, dst, inv_deg = _edge_arrays(g.num_nodes, [tuple(e) for e in g.edges])
    traces = []
    for i in range(enc.num_layers):
        agg = _neighbor_mean(h, src, dst, inv_deg)
        pre = (
            h @ enc.params[f"layer{i}.self_weight"]
            + agg @ enc.params[f"layer{i}.neigh_weight"]
            + enc.params[f"layer{i}.bias"]
        )
        traces.append(LayerTrace(h_in=h, agg=agg, pre=pre))
        h = pre if i == enc.num_layers - 1 else np.maximum(pre, 0.0)
    h_graph = h.mean(axis=0)
    kind = target_kind(g.target)
    node_index = edge_pair = None
    if kind == "node":
        node_index = g.target.node
        local = h[node_index]
    elif kind == "edge":
        edge_pair = tuple(g.target.edge)
        local = 0.5 * (h[edge_pair[0]] + h[edge_pair[1]])
    else:
        local = h_graph
    z = np.concatenate([local, h_graph])
    head = HEAD_NAMES[kind]
    x_star = z @ enc.params[f"{head}.weight"] + enc.params[f"{head}.bias"]
    cache = EncodeCache(
        encoder=enc, src=src, dst=dst, inv_deg=inv_deg, layers=traces, h_node=h,
        h_graph=h_graph, kind=kind, concat=z, node_index=node_index, edge_pair=edge_pair,
    )
    return x_star, cache


def reference_encoder_backward(cache, upstream):
    """Gradients of (upstream . x_star) for every encoder parameter."""
    enc = cache.encoder
    d = enc.hidden_dim
    grads = enc.params.zeros_like()
    head = HEAD_NAMES[cache.kind]
    grads[f"{head}.weight"][...] = np.outer(cache.concat, upstream)
    grads[f"{head}.bias"][...] = upstream
    dz = enc.params[f"{head}.weight"] @ upstream
    d_local, d_graph = dz[:d], dz[d:].copy()
    d_h = np.zeros_like(cache.h_node)
    if cache.kind == "node":
        d_h[cache.node_index] += d_local
    elif cache.kind == "edge":
        u, v = cache.edge_pair
        d_h[u] += 0.5 * d_local
        d_h[v] += 0.5 * d_local
    else:
        d_graph += d_local
    d_h += d_graph / cache.h_node.shape[0]
    for i in reversed(range(enc.num_layers)):
        trace = cache.layers[i]
        d_pre = d_h if i == enc.num_layers - 1 else d_h * (trace.pre > 0.0)
        grads[f"layer{i}.self_weight"][...] += trace.h_in.T @ d_pre
        grads[f"layer{i}.neigh_weight"][...] += trace.agg.T @ d_pre
        grads[f"layer{i}.bias"][...] += d_pre.sum(axis=0)
        if i == 0:
            break
        d_h = d_pre @ enc.params[f"layer{i}.self_weight"].T
        d_agg = d_pre @ enc.params[f"layer{i}.neigh_weight"].T
        if cache.src.size:
            np.add.at(d_h, cache.src, d_agg[cache.dst] * cache.inv_deg[cache.dst, None])
    return grads
