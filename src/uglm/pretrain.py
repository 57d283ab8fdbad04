"""Stage I: domain-reweighted bidirectional contrastive pretraining.

Domain centers are computed once from raw inputs before training; their
normalized pairwise distances become negative-pair weights in [1, 2]
(intra-domain negatives keep weight exactly 1). The loss is a symmetric
pair of weighted InfoNCE terms over cosine similarities; with all weights
forced to 1 it reduces to standard symmetric InfoNCE, which the test
suite exploits as an independent oracle.

When the text-embedding dimension differs from the encoder dimension, a
trainable linear adapter maps text rows into encoder space. It is trained
jointly here and frozen afterwards.

The loop takes one epoch of batches at a time from ``Pool.batches`` (whose
first batch draws the epoch's permutation) and hands them all to
``encoder.packed_batches``, which builds their structure in a few
vectorized passes. It then runs one forward, one ``dr_clip_loss``, one
``encoder_backward`` and one ``optimizer_step`` per batch. The loss's
gradient reuses the unit rows and norms its forward took.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encoder import (
    MultiScaleEncoder, encode_packed, encoder_backward, encoder_param_shapes, forward, packed_batches, uniform_init,
)
from .errors import (
    ContractError, DegenerateInputError, DimensionError, EmptyDataError, InvalidParameterError,
)
from .graphdata import DomainDataset, Pool
from .numcore import OptimizerState, ParamSet, optimizer_step, row_cosine_similarity
from .persist import Checkpoint

CENTER_SAMPLE_CAP = 1000


@dataclass
class DomainCenters:
    domains: list[str]
    graph_centers: dict[str, np.ndarray]
    text_centers: dict[str, np.ndarray]
    sample_counts: dict[str, int]


@dataclass
class DomainWeights:
    """Pairwise normalized distances and the derived negative weights."""

    domains: list[str]
    m_graph: np.ndarray
    m_text: np.ndarray
    w_graph: np.ndarray
    w_text: np.ndarray

    def __post_init__(self) -> None:
        self.index = {d: i for i, d in enumerate(self.domains)}


@dataclass
class TextAdapter:
    """Linear map from text-embedding space into encoder space."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def initialize(cls, text_dim: int, out_dim: int, rng: np.random.Generator) -> "TextAdapter":
        return cls(
            weight=uniform_init(rng, text_dim, (text_dim, out_dim)),
            bias=uniform_init(rng, text_dim, (out_dim,)),
        )

    def apply(self, t: np.ndarray) -> np.ndarray:
        if t.shape[-1] != self.weight.shape[-2]:
            raise DimensionError(
                f"text rows have dim {t.shape[-1]} but the adapter expects {self.weight.shape[-2]}"
            )
        return t @ self.weight + self.bias[..., None, :]

    def params(self) -> ParamSet:
        return ParamSet({"text_adapter.weight": self.weight, "text_adapter.bias": self.bias})

    def with_params(self, ps: ParamSet) -> "TextAdapter":
        return TextAdapter(weight=ps["text_adapter.weight"], bias=ps["text_adapter.bias"])


@dataclass
class PretrainConfig:
    epochs: int = 100
    batch_size: int = 4096
    learning_rate: float = 1e-4
    center_sample_cap: int = CENTER_SAMPLE_CAP
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise InvalidParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise InvalidParameterError("learning_rate must be >= 0")
        if self.center_sample_cap < 1:
            raise InvalidParameterError("center_sample_cap must be >= 1")
        if self.temperature <= 0:
            raise InvalidParameterError("temperature must be positive")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")


# ------------------------------------------------------------ domain weights


def compute_domain_centers(
    datasets: list[DomainDataset], cap: int = CENTER_SAMPLE_CAP, *, rng: np.random.Generator
) -> DomainCenters:
    """Per-domain mean of raw node-feature means and of text embeddings.

    At most ``cap`` instances are sampled per domain, without replacement.
    """
    domains: list[str] = []
    graph_centers: dict[str, np.ndarray] = {}
    text_centers: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for ds in datasets:
        arrays = ds.arrays
        feats, node_off, n = arrays["node_features"], arrays["node_offsets"], len(arrays["label"])
        k = min(cap, n)
        chosen = rng.permutation(n)[:k]
        feat_means = np.stack([feats[node_off[i] : node_off[i + 1]].mean(axis=0) for i in chosen])
        text_rows = ds.text_embeddings[arrays["text_index"][chosen]]
        domains.append(ds.domain)
        graph_centers[ds.domain] = feat_means.mean(axis=0)
        text_centers[ds.domain] = text_rows.mean(axis=0)
        counts[ds.domain] = k
    return DomainCenters(domains, graph_centers, text_centers, counts)


def _normalized_distance(centers: np.ndarray, domains: list[str]) -> np.ndarray:
    norms = np.linalg.norm(centers, axis=1)
    for i, nrm in enumerate(norms):
        if nrm <= 1e-12:
            raise DegenerateInputError(f"domain {domains[i]!r} center has norm <= 1e-12")
    raw = 1.0 - row_cosine_similarity(centers, centers)
    raw = np.maximum((raw + raw.T) / 2.0, 0.0)  # exact symmetry, no negative rounding
    np.fill_diagonal(raw, 0.0)
    dmax = raw.max() if raw.size else 0.0
    if dmax < 1e-12:
        return np.zeros_like(raw)  # all centers coincide
    return raw / dmax


def domain_distance_matrix(centers: DomainCenters) -> tuple[np.ndarray, np.ndarray]:
    """Max-normalized (1 - cosine) distances between domain centers."""
    if not centers.domains:
        raise EmptyDataError("no domains")
    g = np.stack([centers.graph_centers[d] for d in centers.domains])
    t = np.stack([centers.text_centers[d] for d in centers.domains])
    return (
        _normalized_distance(g, centers.domains),
        _normalized_distance(t, centers.domains),
    )


def domain_weight_matrix(m_graph: np.ndarray, m_text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    for name, m in (("graph", m_graph), ("text", m_text)):
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise ContractError(f"{name} distance matrix entries must lie in [0, 1]")
    return 1.0 + m_graph, 1.0 + m_text


def build_domain_weights(centers: DomainCenters) -> DomainWeights:
    m_g, m_t = domain_distance_matrix(centers)
    w_g, w_t = domain_weight_matrix(m_g, m_t)
    return DomainWeights(list(centers.domains), m_g, m_t, w_g, w_t)


# ------------------------------------------------------------- DR-CLIP loss


@dataclass
class DrClipResult:
    loss: float
    grad_x: np.ndarray
    grad_t: np.ndarray
    grad_adapter: ParamSet | None = None


def pair_weights(domain_ids: list[str], weights: DomainWeights) -> tuple[np.ndarray, np.ndarray]:
    """Negative weights of every (i, j) pair of a batch: graph->text, text->graph."""
    try:
        idx = np.array([weights.index[d] for d in domain_ids], dtype=np.intp)
    except KeyError as exc:
        raise ContractError(f"domain {exc.args[0]!r} missing from the weight matrices") from None
    return weights.w_graph[idx[:, None], idx], weights.w_text[idx[:, None], idx]


def _weighted_lse(logits: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log sum_j w_ij e^{s_ij} of every row."""
    m = logits.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log((w * np.exp(logits - m)).sum(axis=-1))


@dataclass
class DrClipForward:
    """The loss of one batch and the intermediates its gradient reuses."""

    loss: float | np.ndarray  # (P,) under a stack
    t_proj: np.ndarray
    cos: np.ndarray
    logits: np.ndarray
    lse: tuple[np.ndarray, np.ndarray]  # per row: graph->text, text->graph
    units: tuple[tuple, tuple]  # unit rows and norms of x and of t_proj


def dr_clip_forward(
    x: np.ndarray,
    t: np.ndarray,
    wg: np.ndarray,
    wt: np.ndarray,
    temperature: float,
    adapter: TextAdapter | None = None,
) -> DrClipForward:
    """The loss alone, under fixed pair weights ``wg``, ``wt`` (see ``pair_weights``).

    Mean over both directions of -log(e^{s_ii} / sum_j w_ij e^{s_ij}), with s
    the cosine logits. A (P, n, d) stack of ``x`` rows or a stacked adapter
    gives P losses, each with the bits of its own call.
    """
    t_proj = adapter.apply(t) if adapter is not None else t
    if t_proj.shape[-1] != x.shape[-1]:
        raise DimensionError(
            f"text rows have dim {t_proj.shape[-1]} but graph rows have dim {x.shape[-1]}"
        )
    cos, *units = row_cosine_similarity(x, t_proj, return_units=True)
    logits = cos / temperature
    lse = _weighted_lse(logits, wg), _weighted_lse(logits.swapaxes(-1, -2), wt)
    own = np.diagonal(logits, axis1=-2, axis2=-1)
    loss = 0.5 * ((lse[0] - own).mean(axis=-1) + (lse[1] - own).mean(axis=-1))
    return DrClipForward(loss, t_proj, cos, logits, lse, tuple(units))


def dr_clip_loss(
    x: np.ndarray,
    t: np.ndarray,
    domain_ids: list[str],
    weights: DomainWeights,
    temperature: float = 1.0,
    adapter: TextAdapter | None = None,
) -> DrClipResult:
    """Bidirectional domain-reweighted contrastive loss over one batch.

    ``x`` holds graph-side rows (N x d); ``t`` holds text rows, mapped
    through ``adapter`` when given. Returns the exact gradients w.r.t. the
    x rows, the (pre-adapter) t rows, and the adapter parameters.
    """
    if temperature <= 0:
        raise InvalidParameterError("temperature must be positive")
    x = np.asarray(x, dtype=np.float64)
    t_raw = np.asarray(t, dtype=np.float64)
    n = x.shape[0]
    if n < 1:
        raise ContractError("batch must contain at least one pair")
    if len(domain_ids) != n or t_raw.shape[0] != n:
        raise DimensionError(
            f"batch size mismatch: x has {n} rows, t has {t_raw.shape[0]}, "
            f"{len(domain_ids)} domain ids"
        )
    wg, wt = pair_weights(domain_ids, weights)
    fwd = dr_clip_forward(x, t_raw, wg, wt, temperature, adapter)

    # d loss / d logits of each direction is (w_ij e^{s_ij - lse_i} - [i == j]) / n
    d_gt = wg * np.exp(fwd.logits - fwd.lse[0][:, None])
    d_tg = wt * np.exp(fwd.logits.T - fwd.lse[1][:, None])
    for d in (d_gt, d_tg):
        d.flat[:: n + 1] -= 1.0  # the diagonal, in place, whatever d's memory order
        d /= n
    d_cos = 0.5 * (d_gt + d_tg.T) / temperature

    (xn, xnorm), (tn, tnorm) = fwd.units
    weighted = d_cos * fwd.cos
    grad_x = d_cos @ tn
    grad_x -= weighted.sum(axis=1)[:, None] * xn
    grad_x /= xnorm[:, None]
    grad_t_proj = d_cos.T @ xn
    grad_t_proj -= weighted.sum(axis=0)[:, None] * tn
    grad_t_proj /= tnorm[:, None]

    grad_adapter = None
    grad_t = grad_t_proj
    if adapter is not None:
        grad_adapter = ParamSet(
            {
                "text_adapter.weight": t_raw.T @ grad_t_proj,
                "text_adapter.bias": grad_t_proj.sum(axis=0),
            }
        )
        grad_t = grad_t_proj @ adapter.weight.T
    return DrClipResult(loss=float(fwd.loss), grad_x=grad_x, grad_t=grad_t, grad_adapter=grad_adapter)


# ---------------------------------------------------------------- training


@dataclass
class PretrainResult:
    encoder: MultiScaleEncoder
    adapter: TextAdapter | None
    centers: DomainCenters
    weights: DomainWeights
    epoch_losses: list[float]


def _uniform_dims(datasets: list[DomainDataset]) -> tuple[int, int]:
    d_in = {ds.feature_dim for ds in datasets}
    d_t = {ds.text_dim for ds in datasets}
    if len(d_in) != 1:
        raise ContractError(f"feature dims differ across domains: {sorted(d_in)}")
    if len(d_t) != 1:
        raise ContractError(f"text dims differ across domains: {sorted(d_t)}")
    return d_in.pop(), d_t.pop()


def _stage1_arrays(
    encoder: MultiScaleEncoder, adapter: TextAdapter | None
) -> dict[str, np.ndarray]:
    """The Stage I trainable arrays: the encoder's, then the adapter's."""
    arrays = dict(encoder.params.items())
    if adapter is not None:
        arrays.update(adapter.params().items())
    return arrays


def pretrain_loop(
    config: PretrainConfig, datasets: list[DomainDataset], hidden_dim: int, num_layers: int
) -> PretrainResult:
    """Full Stage I run; deterministic given config.seed."""
    d_in, d_t = _uniform_dims(datasets)
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    enc = MultiScaleEncoder.initialize(d_in, hidden_dim, num_layers, np.random.default_rng(seeds[0]))
    adapter = None
    if d_t != hidden_dim:
        adapter = TextAdapter.initialize(d_t, hidden_dim, np.random.default_rng(seeds[1]))
    centers = compute_domain_centers(datasets, config.center_sample_cap, rng=np.random.default_rng(seeds[2]))
    weights = build_domain_weights(centers)

    params = ParamSet(_stage1_arrays(enc, adapter))
    n_enc = enc.params.flat.size
    opt = OptimizerState(config.learning_rate)

    epoch_losses: list[float] = []
    pool = Pool.of(datasets)
    domains = np.array([ds.domain for ds in datasets])[pool.dataset]
    draws = pool.batches(config.batch_size, config.epochs, np.random.default_rng(seeds[3]))
    for first in draws:  # an epoch's first batch draws its permutation; pull the rest
        epoch, seen = [first], len(first)
        while seen < len(pool):  # an epoch draws every pool row once
            epoch.append(next(draws))
            seen += len(epoch[-1])
        batches = packed_batches(pool.arrays, epoch, pool.kinds[np.concatenate(epoch)])
        loss_sum = 0.0
        for rows, batch in zip(epoch, batches):
            x, cache = forward(batch, enc)  # one encode, one backward
            ids = domains[rows].tolist()
            result = dr_clip_loss(x, pool.texts[rows], ids, weights, config.temperature, adapter)
            grads = params.zeros_like()
            encoder_backward(cache, result.grad_x, out=grads.flat[:n_enc])
            if result.grad_adapter is not None:
                grads.flat[n_enc:] = result.grad_adapter.flat
            params, opt = optimizer_step(opt, params, grads)
            enc = enc.with_params(enc.params.with_flat(params.flat[:n_enc]))
            if adapter is not None:
                adapter = adapter.with_params(params)
            loss_sum += result.loss * len(rows)
        epoch_losses.append(loss_sum / seen)

    return PretrainResult(enc, adapter, centers, weights, epoch_losses)


# ------------------------------------------------------------- checkpoints


def encoder_to_checkpoint(
    encoder: MultiScaleEncoder, adapter: TextAdapter | None, metadata: dict
) -> Checkpoint:
    meta = {
        "stage": "pretrain",
        "input_dim": encoder.input_dim,
        "hidden_dim": encoder.hidden_dim,
        "num_layers": encoder.num_layers,
        "has_adapter": adapter is not None,
        **metadata,
    }
    return Checkpoint(metadata=meta, tensors=_stage1_arrays(encoder, adapter))


def encoder_from_checkpoint(ckpt: Checkpoint) -> tuple[MultiScaleEncoder, TextAdapter | None]:
    meta = ckpt.metadata
    try:
        input_dim = int(meta["input_dim"])
        hidden_dim = int(meta["hidden_dim"])
        num_layers = int(meta["num_layers"])
        has_adapter = bool(meta["has_adapter"])
    except KeyError as exc:
        raise ContractError(f"checkpoint metadata missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"checkpoint metadata is malformed: {exc}") from exc
    # every layer holds three tensors; the bound also keeps a corrupt count
    # from building a huge shape table below
    if not 1 <= num_layers <= len(ckpt.tensors) // 3:
        raise ContractError(
            f"checkpoint declares {num_layers} encoder layers but holds {len(ckpt.tensors)} tensors"
        )
    shapes = encoder_param_shapes(input_dim, hidden_dim, num_layers)
    params = ParamSet({name: ckpt.tensor(name, shape) for name, shape in shapes.items()})
    encoder = MultiScaleEncoder(input_dim, hidden_dim, num_layers, params)
    adapter = None
    if has_adapter:
        adapter = TextAdapter(
            weight=ckpt.tensor("text_adapter.weight", (None, hidden_dim)),
            bias=ckpt.tensor("text_adapter.bias", (hidden_dim,)),
        )
    return encoder, adapter


# -------------------------------------------------------------- evaluation


def evaluate_retrieval(
    encoder: MultiScaleEncoder,
    dataset: DomainDataset,
    pool_size: int,
    rng: np.random.Generator,
    adapter: TextAdapter | None = None,
) -> tuple[float, float]:
    """recall@1 and recall@5 of matching held-out graphs to their own text.

    ``pool_size`` held-out instances are sampled; every instance's
    representation is ranked against all pool texts by cosine, below every
    other text whose cosine ties with its own.
    """
    held = dataset.splits.held_out()
    if pool_size < 1:
        raise InvalidParameterError("pool_size must be >= 1")
    if pool_size > len(held):
        raise ContractError(
            f"pool_size {pool_size} exceeds held-out split size {len(held)}"
        )
    indices = held[rng.permutation(len(held))[:pool_size]]
    x, _ = encode_packed(dataset.arrays, indices, dataset.task, encoder)
    t = dataset.text_embeddings[dataset.arrays["text_index"][indices]]
    if adapter is not None:
        t = adapter.apply(t)
    cos = row_cosine_similarity(x, t)
    own = np.diag(cos)
    better = (cos >= own[:, None]).sum(axis=1) - 1  # not counting its own text
    recall1 = float((better < 1).mean())
    recall5 = float((better < 5).mean())
    return recall1, recall5
