"""Independent brute-force oracles and helpers shared by test modules.

The loss oracles are direct per-pair transcriptions of the losses they
check and deliberately share no code with the production implementations.
"""

import math

import numpy as np

from uglm.encoder import task_representation
from uglm.numcore import row_cosine_similarity


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
    """Structural equality of two DomainDatasets, used by round-trip tests."""
    if (a.domain, a.task, a.num_classes) != (b.domain, b.task, b.num_classes):
        return False
    if (a.splits.train, a.splits.val, a.splits.test) != (b.splits.train, b.splits.val, b.splits.test):
        return False
    if not np.array_equal(a.text_embeddings, b.text_embeddings):
        return False
    if len(a.instances) != len(b.instances):
        return False
    for x, y in zip(a.instances, b.instances):
        if (x.num_nodes, x.edges, x.target, x.label, x.text_index, x.domain) != (
            y.num_nodes,
            y.edges,
            y.target,
            y.label,
            y.text_index,
            y.domain,
        ):
            return False
        if not np.array_equal(x.node_features, y.node_features):
            return False
        if (x.edge_features is None) != (y.edge_features is None):
            return False
        if x.edge_features is not None and not np.array_equal(x.edge_features, y.edge_features):
            return False
    return True


def max_relative_error(a, b):
    """max |a-b| / max(|a|, |b|, 1e-8) over all matching entries of two ParamSets."""
    assert a.layout == b.layout, f"layouts differ: {a.layout} vs {b.layout}"
    av, bv = a.flat, b.flat
    denom = np.maximum(np.maximum(np.abs(av), np.abs(bv)), 1e-8)
    err = np.abs(av - bv) / denom
    return float(err.max()) if err.size else 0.0


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


class ReencodedRepresentations:
    """Slow stand-in for ``uglm.align.FrozenRepresentations``: it encodes the
    batch item again on every call, as Stage II did before it memoized the
    frozen encoder's representations."""

    def __init__(self, encoder):
        self.encoder = encoder

    def get(self, dataset, index):
        x_star, _ = task_representation(dataset.instances[index], self.encoder, dataset.task)
        return x_star
