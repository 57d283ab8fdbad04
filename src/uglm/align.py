"""Stage II: curriculum-scheduled projector tuning against a frozen head.

The pretrained encoder is frozen. A linear projector maps each task
representation to a short sequence of tokens; a frozen, seeded scoring
head (per-domain instruction vector, per-domain label embeddings, and a
shared mixing map) turns the tokens into logits over candidate labels,
and the per-instance loss is cross-entropy. Only the projector trains.

Both the encoder and the head are frozen, so a run encodes the train pool
once (``encode_rows``, one batch per domain) beside the head folded into
per-domain logit maps (``FrozenHead.table``). Training, validation and
classification then score rows through one batched scorer (``score_rows``).

Per step, each active domain's mean loss yields a projector-gradient
norm; a tracker smooths these (running mean during warmup, EMA after,
inactive domains held); a temperature softmax over the smoothed values
weights the domain losses. The weights are constants of the step: no
gradient flows through the difficulty estimates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from .encoder import MultiScaleEncoder, encode_packed, task_representation, uniform_init
from .errors import ContractError, InvalidParameterError
from .graphdata import DomainDataset, GraphInstance, Pool
from .numcore import OptimizerState, ParamSet, optimizer_step, softmax_with_temperature
from .persist import Checkpoint


def _derived_rng(*parts) -> np.random.Generator:
    """Deterministic generator from a tuple of identifying values."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return np.random.default_rng(np.frombuffer(digest[:16], dtype=np.uint64))


# ---------------------------------------------------------------- projector


@dataclass
class Projector:
    """Linear map from encoder space to ``num_tokens`` rows of token space;
    ``weight`` and ``bias`` are views into ``params``."""

    params: ParamSet
    num_tokens: int
    token_dim: int

    @classmethod
    def initialize(
        cls, input_dim: int, num_tokens: int, token_dim: int, rng: np.random.Generator
    ) -> "Projector":
        out = num_tokens * token_dim
        weight = uniform_init(rng, input_dim, (input_dim, out))
        bias = uniform_init(rng, input_dim, (out,))
        arrays = {"projector.weight": weight, "projector.bias": bias}
        return cls(ParamSet(arrays), num_tokens, token_dim)

    @property
    def weight(self) -> np.ndarray:
        return self.params["projector.weight"]

    @property
    def bias(self) -> np.ndarray:
        return self.params["projector.bias"]

    def with_params(self, ps: ParamSet) -> "Projector":
        return replace(self, params=ps)


# --------------------------------------------------------------- frozen head


@dataclass
class FrozenHead:
    """Seeded stand-in for the frozen token-space consumer.

    Never updated by any optimizer; fully determined by (seed, domain id,
    class count) per domain plus the shared mixing map.
    """

    num_tokens: int
    token_dim: int
    mixing: np.ndarray  # ((num_tokens + 1) * token_dim, token_dim)
    instructions: dict[str, np.ndarray]
    label_embeddings: dict[str, np.ndarray]

    @classmethod
    def build(
        cls, seed: int, domain_classes: dict[str, int], num_tokens: int, token_dim: int
    ) -> "FrozenHead":
        width = (num_tokens + 1) * token_dim
        mixing = _derived_rng(seed, "mixing", num_tokens, token_dim).standard_normal(
            (width, token_dim)
        ) / np.sqrt(width)
        instructions: dict[str, np.ndarray] = {}
        labels: dict[str, np.ndarray] = {}
        for domain in sorted(domain_classes):
            k = domain_classes[domain]
            if k < 1:
                raise InvalidParameterError(f"domain {domain!r} needs >= 1 class, got {k}")
            rng = _derived_rng(seed, domain, k, token_dim)
            instr = rng.standard_normal(token_dim)
            instructions[domain] = instr / np.linalg.norm(instr)
            emb = rng.standard_normal((k, token_dim))
            labels[domain] = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        return cls(num_tokens, token_dim, mixing, instructions, labels)

    def params(self) -> ParamSet:
        arrays = {"frozen_head.mixing": self.mixing}
        for domain in sorted(self.instructions):
            arrays[f"frozen_head.{domain}.instruction"] = self.instructions[domain]
            arrays[f"frozen_head.{domain}.labels"] = self.label_embeddings[domain]
        return ParamSet(arrays)

    def table(self, domains: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Per-domain logit maps. The query is ``tokens @ M_top + instruction @
        M_bot`` (``M_top``: the mixing map's first ``num_tokens * token_dim``
        rows), so domain d's logits ``L_d @ query`` are ``tokens @ C_d.T + c_d``
        with ``C_d = L_d M_top^T`` and ``c_d = L_d M_bot^T instruction_d``.
        Returns the ``C_d`` of ``domains`` stacked and their ``c_d``, each
        domain padded to the largest class count with zero rows and -inf."""
        width = self.num_tokens * self.token_dim
        top, bottom = self.mixing[:width], self.mixing[width:]
        k = max((self.label_embeddings[d].shape[0] for d in domains), default=1)
        weight = np.zeros((len(domains), k, width))
        bias = np.full((len(domains), k), -np.inf)
        for i, domain in enumerate(domains):
            labels = self.label_embeddings[domain]
            weight[i, : len(labels)] = labels @ top.T
            bias[i, : len(labels)] = labels @ (self.instructions[domain] @ bottom)
        return weight.reshape(-1, width), bias


# ------------------------------------------------------------- scored rows


@dataclass
class EncodedRows:
    """Labelled instances as the frozen encoder represents them. Each row ends
    in a 1, the bias input: with the projector's flat parameters as an
    (input_dim + 1, width) matrix W, ``rows @ W`` is ``x W + b``."""

    rows: np.ndarray
    domain: np.ndarray  # index into domains
    label: np.ndarray
    domains: tuple[str, ...]
    head_weight: np.ndarray  # FrozenHead.table(domains): (len(domains) * K, width)
    head_bias: np.ndarray  # and (len(domains), K)

    def take(self, rows) -> "EncodedRows":
        """The rows at indices ``rows`` (a batch of pool rows), in their order."""
        head = (self.domains, self.head_weight, self.head_bias)
        return EncodedRows(self.rows[rows], self.domain[rows], self.label[rows], *head)


def _checked_labels(head: FrozenHead, names: list[str], domain: np.ndarray, label: np.ndarray, place):
    """Check that each row's ``label`` (-1: none) is a candidate of the frozen
    head for its domain ``names[domain[r]]``; the first bad row is named by
    ``place(r)``."""
    k = np.array([len(head.label_embeddings.get(name, ())) for name in names], dtype=np.intp)[domain]
    bad = (label < 0) | (label >= k)
    if bad.any():
        r = int(np.argmax(bad))
        if names[domain[r]] not in head.label_embeddings:
            raise ContractError(f"frozen head has no domain {names[domain[r]]!r}")
        if label[r] == -1:
            raise ContractError(f"{place(r)}: instance has no label")
        raise ContractError(f"{place(r)}: label {label[r]} out of range for {k[r]} candidates")


def encode_rows(encoder: MultiScaleEncoder, head: FrozenHead, pool: Pool) -> EncodedRows:
    """The rows of ``pool``, in order, all checked before any is encoded, then
    encoded in one batch per dataset, straight from its arrays: one batch over
    every dataset would hold all their forward intermediates at once. A bad
    label is named by ``Pool.place``."""
    names, parts = [ds.domain for ds in pool.datasets], pool.parts()
    labels = np.concatenate([ds.arrays["label"][indices] for ds, indices in parts])
    _checked_labels(head, names, pool.dataset, labels, pool.place)
    domains = tuple(sorted(set(names)))
    x = np.concatenate([np.zeros((0, encoder.hidden_dim))] + [
        encode_packed(ds.arrays, indices, ds.task, encoder)[0] for ds, indices in parts if indices.size
    ])
    rank = np.array([domains.index(name) for name in names], dtype=np.intp)
    return EncodedRows(
        np.hstack([x, np.ones((len(x), 1))]), rank[pool.dataset], labels, domains, *head.table(domains)
    )


def score_rows(encoded: EncodedRows, proj: Projector) -> tuple[np.ndarray, np.ndarray]:
    """Label probabilities and cross-entropy of every row, in whole-batch
    operations: ``tokens = x W + b``, then the logits ``tokens C_d^T + c_d``.
    A stacked projector (P parameter vectors) gives (P, n, K) and (P, n)."""
    flat, every = proj.params.flat, np.arange(len(encoded.rows))
    tokens = encoded.rows @ flat.reshape(flat.shape[:-1] + (encoded.rows.shape[1], -1))
    logits = (tokens @ encoded.head_weight.T).reshape(tokens.shape[:-1] + (-1, encoded.head_bias.shape[1]))
    logits = logits[..., every, encoded.domain, :] + encoded.head_bias[encoded.domain]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    return np.exp(shifted - log_norm[..., None]), log_norm - shifted[..., every, encoded.label]


def instance_loss(
    inst: GraphInstance, encoder: MultiScaleEncoder, proj: Projector, head: FrozenHead
) -> tuple[float, EncodedRows]:
    """Cross-entropy of the frozen head over candidate labels, and the
    instance's encoded row: ``score_rows`` on a batch of one."""
    label, place = np.array([-1 if inst.label is None else inst.label]), f"domain {inst.domain!r}"
    _checked_labels(head, [inst.domain], np.zeros(1, np.intp), label, lambda r: place)
    x_star, _ = task_representation(inst, encoder)
    x, domains = np.append(x_star, 1.0)[None], (inst.domain,)
    encoded = EncodedRows(x, np.zeros(1, np.intp), label, domains, *head.table(domains))
    return float(score_rows(encoded, proj)[1][0]), encoded


# ------------------------------------------------------- per-domain losses


def domain_losses(encoded: EncodedRows, loss: np.ndarray) -> np.ndarray:
    """Mean of ``loss`` over each domain's rows (0 for a domain without rows);
    a stack of losses is one bincount over (stack row, domain) ids."""
    size, rows = len(encoded.domains), loss.reshape(-1, loss.shape[-1])
    ids = encoded.domain + size * np.arange(len(rows))[:, None]
    sums = np.bincount(ids.ravel(), weights=rows.ravel(), minlength=size * len(rows))
    return sums.reshape(*loss.shape[:-1], size) / np.maximum(np.bincount(encoded.domain, minlength=size), 1)


def domain_mean_gradient(encoded: EncodedRows, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Token gradients e_i of each domain's mean loss, one per row, and the
    norm of each domain's projector gradient (0 without rows). Row i's
    gradient is ``outer(x_i, e_i)``, so a domain's squared norm is the sum of
    ``(x_i . x_j)(e_i . e_j)`` over its pairs of rows (the Gram form of
    per-example gradient norms). Each dot product and sum runs over one
    domain's rows in row order, so other domains' rows do not change it."""
    n, (size, k) = len(encoded.rows), encoded.head_bias.shape
    every = np.arange(n)
    resid = probs.copy()
    resid[every, encoded.label] -= 1.0
    spread = np.zeros((n, size, k))
    spread[every, encoded.domain] = resid / np.bincount(encoded.domain)[encoded.domain, None]
    grads = spread.reshape(n, -1) @ encoded.head_weight
    i, j = np.nonzero(encoded.domain[:, None] == encoded.domain[None, :])
    pairs = (encoded.rows[i] * encoded.rows[j]).sum(axis=1) * (grads[i] * grads[j]).sum(axis=1)
    squared = np.bincount(encoded.domain[i], weights=pairs, minlength=size)
    return grads, np.sqrt(np.maximum(squared, 0.0))


def projector_gradient(
    proj: Projector, encoded: EncodedRows, grads: np.ndarray, weights: np.ndarray
) -> ParamSet:
    """Projector gradient of the sum over domains d of ``weights[d]``
    times d's mean loss, from ``domain_mean_gradient``'s token gradients."""
    flat = encoded.rows.T @ (grads * weights[encoded.domain, None])
    return proj.params.with_flat(flat.ravel())


# ---------------------------------------------------------- difficulty/EMA


@dataclass
class DifficultyTracker:
    """Per-domain difficulty smoothing: running mean during warmup, EMA after.

    Only observed (active) domains update; all others hold their previous
    estimates bit-for-bit.
    """

    total_steps: int
    warmup_steps: int
    momentum: float
    step: int = 0
    means: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    smoothed: dict[str, float] = field(default_factory=dict)

    @classmethod
    def create(cls, total_steps: int, warmup_ratio: float, momentum: float) -> "DifficultyTracker":
        if not (0.0 <= warmup_ratio <= 1.0):
            raise InvalidParameterError(f"warmup_ratio must lie in [0,1], got {warmup_ratio}")
        if not (0.0 <= momentum < 1.0):
            raise InvalidParameterError(f"momentum must lie in [0,1), got {momentum}")
        return cls(
            total_steps=total_steps,
            warmup_steps=int(np.floor(warmup_ratio * total_steps)),
            momentum=momentum,
        )


def update_difficulty(
    tracker: DifficultyTracker, k: int, observed: dict[str, float]
) -> DifficultyTracker:
    """Advance the tracker to step k with the observed gradient norms."""
    if k != tracker.step + 1:
        raise ContractError(f"steps must advance by 1: tracker at {tracker.step}, got {k}")
    means = dict(tracker.means)
    counts = dict(tracker.counts)
    smoothed = dict(tracker.smoothed)
    for domain in sorted(observed):
        g = float(observed[domain])
        if not np.isfinite(g) or g < 0:
            raise ContractError(f"difficulty for {domain!r} must be finite and >= 0, got {g}")
        prev_count = counts.get(domain, 0)
        new_count = prev_count + 1
        new_mean = means.get(domain, 0.0) + (g - means.get(domain, 0.0)) / new_count
        means[domain] = new_mean
        counts[domain] = new_count
        if prev_count == 0:
            # first occurrence seeds the estimate with its running mean (= g)
            smoothed[domain] = new_mean
        elif k < tracker.warmup_steps:
            smoothed[domain] = new_mean
        else:
            smoothed[domain] = tracker.momentum * smoothed[domain] + (1.0 - tracker.momentum) * g
    return replace(tracker, step=k, means=means, counts=counts, smoothed=smoothed)


def curriculum_weights(
    tracker: DifficultyTracker, active_domains, tau: float
) -> dict[str, float]:
    """Temperature softmax of smoothed difficulties over the active set."""
    active = sorted(active_domains)
    if not active:
        raise ContractError("active domain set is empty")
    for domain in active:
        if domain not in tracker.smoothed:
            raise ContractError(f"domain {domain!r} has no difficulty estimate yet")
    weights = softmax_with_temperature([tracker.smoothed[d] for d in active], tau)
    return {d: float(w) for d, w in zip(active, weights)}


# ----------------------------------------------------------------- training


@dataclass
class AlignConfig:
    total_steps: int = 1000
    batch_size: int = 3
    learning_rate: float = 0.004
    warmup_ratio: float = 0.01
    momentum: float = 0.7
    curriculum_temperature: float = 1.0
    num_tokens: int = 7
    token_dim: int = 64
    seed: int = 0
    weighting: str = "curriculum"

    def __post_init__(self) -> None:
        if self.total_steps < 0:
            raise InvalidParameterError("total_steps must be >= 0")
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise InvalidParameterError("learning_rate must be >= 0")
        if not (0.0 <= self.warmup_ratio <= 1.0):
            raise InvalidParameterError("warmup_ratio must lie in [0,1]")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidParameterError("momentum must lie in [0,1)")
        if self.curriculum_temperature <= 0:
            raise InvalidParameterError("curriculum_temperature must be positive")
        if self.num_tokens < 1 or self.token_dim < 1:
            raise InvalidParameterError("num_tokens and token_dim must be >= 1")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.weighting not in ("curriculum", "uniform"):
            raise InvalidParameterError(f"unknown weighting {self.weighting!r}")


class MetricsRow(NamedTuple):
    step: int
    domain: str
    loss: float
    grad_norm: float
    smoothed: float
    weight: float


@dataclass
class AlignState:
    projector: Projector
    optimizer: OptimizerState
    tracker: DifficultyTracker
    metrics: list[MetricsRow] = field(default_factory=list)
    step: int = 0


def align_step(
    batch: np.ndarray,
    state: AlignState,
    config: AlignConfig,
    encoded: EncodedRows,
) -> AlignState:
    """One curriculum step over the encoded rows at ``batch``, train pool rows
    from ``Pool.batches``: losses, difficulties, weights, update on theta."""
    rows = encoded.take(batch)
    probs, loss = score_rows(rows, state.projector)
    grads, norms = domain_mean_gradient(rows, probs)
    active = np.flatnonzero(np.bincount(rows.domain, minlength=len(rows.domains)))
    names = [rows.domains[d] for d in active]
    observed = dict(zip(names, norms[active].tolist()))
    k = state.step + 1
    state.tracker = update_difficulty(state.tracker, k, observed)
    if config.weighting == "curriculum":
        weights = curriculum_weights(state.tracker, names, config.curriculum_temperature)
    else:
        weights = {d: 1.0 / len(names) for d in names}

    per_domain = np.array([weights.get(d, 0.0) for d in rows.domains])
    total = projector_gradient(state.projector, rows, grads, per_domain)
    new_params, state.optimizer = optimizer_step(state.optimizer, state.projector.params, total)
    state.projector = state.projector.with_params(new_params)
    state.step = k
    for d, loss_d in zip(names, domain_losses(rows, loss)[active].tolist()):
        state.metrics.append(
            MetricsRow(k, d, loss_d, observed[d], state.tracker.smoothed[d], weights[d])
        )
    return state


def align_loop(
    config: AlignConfig,
    datasets: list[DomainDataset],
    encoder: MultiScaleEncoder,
    head: FrozenHead | None = None,
) -> tuple[AlignState, FrozenHead]:
    """Run total_steps curriculum steps over epoch-shuffled batches; every
    train instance is checked and encoded once, before the first step."""
    if head is None:
        head = FrozenHead.build(
            config.seed,
            {ds.domain: ds.num_classes for ds in datasets},
            config.num_tokens,
            config.token_dim,
        )
    elif (head.num_tokens, head.token_dim) != (config.num_tokens, config.token_dim):
        raise ContractError(
            f"frozen head is ({head.num_tokens} tokens, dim {head.token_dim}) but config "
            f"asks for ({config.num_tokens}, {config.token_dim})"
        )
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    projector = Projector.initialize(
        encoder.hidden_dim, config.num_tokens, config.token_dim, np.random.default_rng(seeds[0])
    )
    state = AlignState(
        projector=projector,
        optimizer=OptimizerState(config.learning_rate),
        tracker=DifficultyTracker.create(config.total_steps, config.warmup_ratio, config.momentum),
    )
    if config.total_steps == 0:
        return state, head
    pool = Pool.of(datasets)
    encoded = encode_rows(encoder, head, pool)
    # every epoch holds a batch, so total_steps epochs cover the steps; each
    # epoch's permutation is drawn only when its first batch is
    batches = pool.batches(config.batch_size, config.total_steps, np.random.default_rng(seeds[1]))
    for batch in islice(batches, config.total_steps):
        state = align_step(batch, state, config, encoded)
    return state, head


# ------------------------------------------------------------- checkpoints


def projector_to_checkpoint(
    projector: Projector, head: FrozenHead, metadata: dict
) -> Checkpoint:
    meta = {
        "stage": "align",
        "num_tokens": projector.num_tokens,
        "token_dim": projector.token_dim,
        "input_dim": int(projector.weight.shape[0]),
        "head_domains": sorted(head.instructions),
        **metadata,
    }
    tensors = dict(projector.params.items())
    tensors.update(dict(head.params().items()))
    return Checkpoint(metadata=meta, tensors=tensors)


def projector_from_checkpoint(ckpt: Checkpoint) -> tuple[Projector, FrozenHead]:
    meta = ckpt.metadata
    try:
        num_tokens = int(meta["num_tokens"])
        token_dim = int(meta["token_dim"])
        input_dim = int(meta["input_dim"])
        domains = [str(d) for d in meta["head_domains"]]
    except KeyError as exc:
        raise ContractError(f"checkpoint metadata missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"checkpoint metadata is malformed: {exc}") from exc
    width = num_tokens * token_dim
    arrays = {
        "projector.weight": ckpt.tensor("projector.weight", (input_dim, width)),
        "projector.bias": ckpt.tensor("projector.bias", (width,)),
    }
    projector = Projector(ParamSet(arrays), num_tokens, token_dim)
    head = FrozenHead(
        num_tokens=num_tokens,
        token_dim=token_dim,
        mixing=ckpt.tensor("frozen_head.mixing", (width + token_dim, token_dim)),
        instructions={
            d: ckpt.tensor(f"frozen_head.{d}.instruction", (token_dim,)) for d in domains
        },
        label_embeddings={
            d: ckpt.tensor(f"frozen_head.{d}.labels", (None, token_dim)) for d in domains
        },
    )
    return projector, head


# --------------------------------------------------------------- evaluation


def _split_rows(
    encoder: MultiScaleEncoder, head: FrozenHead, dataset: DomainDataset, split: str
) -> EncodedRows:
    """One split's instances, encoded in one batch."""
    pool = Pool.of([dataset], split)
    if not len(pool):
        raise ContractError(f"split {split!r} of domain {dataset.domain!r} is empty")
    return encode_rows(encoder, head, pool)


def mean_split_loss(
    encoder: MultiScaleEncoder,
    proj: Projector,
    head: FrozenHead,
    dataset: DomainDataset,
    split: str = "val",
) -> float:
    """Mean instance loss over one split; the validation-quality probe."""
    return float(np.mean(score_rows(_split_rows(encoder, head, dataset, split), proj)[1]))


def evaluate_classification(
    encoder: MultiScaleEncoder,
    proj: Projector,
    head: FrozenHead,
    dataset: DomainDataset,
    split: str = "test",
) -> tuple[float, float]:
    """Accuracy and macro-F1 of argmax predictions over a labeled split."""
    k = head.label_embeddings[dataset.domain].shape[0]
    if k != dataset.num_classes:
        raise ContractError(
            f"frozen head has {k} labels for domain {dataset.domain!r}, "
            f"but the dataset has {dataset.num_classes} classes"
        )
    rows = _split_rows(encoder, head, dataset, split)
    probs, _ = score_rows(rows, proj)
    return classification_metrics(np.argmax(probs, axis=1), rows.label, k)


def classification_metrics(preds, labels, num_classes: int) -> tuple[float, float]:
    """Accuracy and macro-F1 over all classes (F1 = 0 for empty classes)."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ContractError("predictions and labels must be equal-length and nonempty")
    accuracy = float((preds == labels).mean())
    f1_scores = []
    for cls in range(num_classes):
        tp = int(((preds == cls) & (labels == cls)).sum())
        fp = int(((preds == cls) & (labels != cls)).sum())
        fn = int(((preds != cls) & (labels == cls)).sum())
        denom = 2 * tp + fp + fn
        f1_scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return accuracy, float(np.mean(f1_scores))
