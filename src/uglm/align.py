"""Stage II: curriculum-scheduled projector tuning against a frozen head.

The pretrained encoder is frozen. A linear projector maps each task
representation to a short sequence of tokens; a frozen, seeded scoring
head (per-domain instruction vector, per-domain label embeddings, and a
shared mixing map) turns the tokens into logits over candidate labels,
and the per-instance loss is cross-entropy. Only the projector trains.

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

import numpy as np

from .encoder import MultiScaleEncoder, encode_batch, task_representation, uniform_init
from .errors import ContractError, InvalidParameterError
from .graphdata import Batch, DomainDataset, GraphInstance, iterate_epochs
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


# ------------------------------------------------------------ instance loss


@dataclass
class LossCache:
    """Intermediates for the projector-only backward pass."""

    x_star: np.ndarray
    probs: np.ndarray
    label: int
    domain: str
    loss: float


def _loss_from_representation(
    x_star: np.ndarray, domain: str, label: int, proj: Projector, head: FrozenHead
) -> LossCache:
    tokens_flat = x_star @ proj.weight + proj.bias
    z = np.concatenate([tokens_flat, head.instructions[domain]])
    query = z @ head.mixing
    logits = head.label_embeddings[domain] @ query
    shifted = logits - logits.max()
    log_norm = np.log(np.exp(shifted).sum())
    probs = np.exp(shifted - log_norm)
    loss = float(log_norm - shifted[label])
    return LossCache(x_star=x_star, probs=probs, label=label, domain=domain, loss=loss)


def _check_scorable(inst: GraphInstance, head: FrozenHead) -> None:
    """The instance has a label that the frozen head can score."""
    if inst.label is None:
        raise ContractError(f"instance in domain {inst.domain!r} has no label")
    if inst.domain not in head.instructions:
        raise ContractError(f"frozen head has no domain {inst.domain!r}")
    k = head.label_embeddings[inst.domain].shape[0]
    if not (0 <= inst.label < k):
        raise ContractError(f"label {inst.label} out of range for {k} candidates")


def instance_loss(
    inst: GraphInstance,
    encoder: MultiScaleEncoder,
    proj: Projector,
    head: FrozenHead,
) -> tuple[float, LossCache]:
    """Cross-entropy of the frozen head over candidate labels."""
    _check_scorable(inst, head)
    x_star, _ = task_representation(inst, encoder)
    cache = _loss_from_representation(x_star, inst.domain, inst.label, proj, head)
    return cache.loss, cache


# ------------------------------------------------------- per-domain losses


class FrozenRepresentations:
    """Task representations of a frozen encoder, each computed once.

    Keyed by batch item (dataset, instance index). A stored row is what
    ``task_representation`` returned for that item, so it stays exact only
    while the encoder's parameters do not change: build one per run.
    """

    def __init__(self, encoder: MultiScaleEncoder) -> None:
        self.encoder = encoder
        self._rows: dict[tuple[DomainDataset, int], np.ndarray] = {}

    def get(self, dataset: DomainDataset, index: int) -> np.ndarray:
        key = (dataset, index)
        row = self._rows.get(key)
        if row is None:
            row, _ = task_representation(dataset.instances[index], self.encoder, dataset.task)
            self._rows[key] = row
        return row


def domain_losses(
    batch: Batch,
    reps: FrozenRepresentations,
    proj: Projector,
    head: FrozenHead,
) -> tuple[dict[str, float], dict[str, list[LossCache]]]:
    """Mean instance loss per domain present in the batch, and the caches
    of each domain's instances in batch order."""
    by_domain: dict[str, list[LossCache]] = {}
    for dataset, index in batch.items:
        inst = dataset.instances[index]
        _check_scorable(inst, head)
        cache = _loss_from_representation(
            reps.get(dataset, index), inst.domain, inst.label, proj, head
        )
        by_domain.setdefault(cache.domain, []).append(cache)
    losses = {
        domain: float(np.mean([c.loss for c in group]))
        for domain, group in sorted(by_domain.items())
    }
    return losses, by_domain


def domain_mean_gradient(
    caches: list[LossCache], proj: Projector, head: FrozenHead
) -> ParamSet:
    """Projector gradient of the domain's mean loss."""
    if not caches:
        raise ContractError("cannot take a gradient over an empty domain group")
    total = proj.params.zeros_like()
    d_weight, d_bias = total["projector.weight"], total["projector.bias"]
    for cache in caches:  # fixed order: deterministic reduction
        d_logits = cache.probs.copy()
        d_logits[cache.label] -= 1.0
        d_query = head.label_embeddings[cache.domain].T @ d_logits
        d_tokens = (head.mixing @ d_query)[: d_bias.size]
        d_weight += np.outer(cache.x_star, d_tokens)
        d_bias += d_tokens
    total.flat *= 1.0 / len(caches)
    return total


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
        if self.weighting not in ("curriculum", "uniform"):
            raise InvalidParameterError(f"unknown weighting {self.weighting!r}")


@dataclass
class MetricsRow:
    step: int
    domain: str
    loss: float
    grad_norm: float
    smoothed: float
    weight: float

    def as_tuple(self):
        return (self.step, self.domain, self.loss, self.grad_norm, self.smoothed, self.weight)


@dataclass
class AlignState:
    projector: Projector
    optimizer: OptimizerState
    tracker: DifficultyTracker
    metrics: list[MetricsRow] = field(default_factory=list)
    step: int = 0


def align_step(
    batch: Batch,
    state: AlignState,
    config: AlignConfig,
    reps: FrozenRepresentations,
    head: FrozenHead,
) -> AlignState:
    """One curriculum step: losses, difficulties, weights, update on theta."""
    losses, caches = domain_losses(batch, reps, state.projector, head)
    grad_vectors = {
        domain: domain_mean_gradient(group, state.projector, head)
        for domain, group in sorted(caches.items())
    }
    observed = {domain: vec.norm() for domain, vec in grad_vectors.items()}
    k = state.step + 1
    state.tracker = update_difficulty(state.tracker, k, observed)
    if config.weighting == "curriculum":
        weights = curriculum_weights(state.tracker, losses.keys(), config.curriculum_temperature)
    else:
        weights = {d: 1.0 / len(losses) for d in sorted(losses)}

    params = state.projector.params
    total = params.zeros_like()
    for domain in sorted(grad_vectors):
        total.flat[:] += weights[domain] * grad_vectors[domain].flat
    new_params, state.optimizer = optimizer_step(state.optimizer, params, total)
    state.projector = state.projector.with_params(new_params)
    state.step = k
    for domain in sorted(losses):
        smoothed = state.tracker.smoothed[domain]
        state.metrics.append(
            MetricsRow(k, domain, losses[domain], observed[domain], smoothed, weights[domain])
        )
    return state


def align_loop(
    config: AlignConfig,
    datasets: list[DomainDataset],
    encoder: MultiScaleEncoder,
    head: FrozenHead | None = None,
) -> tuple[AlignState, FrozenHead]:
    """Run total_steps curriculum steps over epoch-shuffled batches."""
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
    total_train = sum(len(ds.splits.train) for ds in datasets)
    per_epoch = (total_train + config.batch_size - 1) // config.batch_size
    epochs = (config.total_steps + per_epoch - 1) // per_epoch
    batches = islice(
        iterate_epochs(datasets, config.batch_size, epochs, np.random.default_rng(seeds[1])),
        config.total_steps,
    )
    reps = FrozenRepresentations(encoder)
    for batch in batches:
        state = align_step(batch, state, config, reps, head)
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


def _split_indices(dataset: DomainDataset, split: str) -> list[int]:
    if split not in ("train", "val", "test"):
        raise InvalidParameterError(f"unknown split {split!r}")
    indices = getattr(dataset.splits, split)
    if not indices:
        raise ContractError(f"split {split!r} of domain {dataset.domain!r} is empty")
    return indices


def _scored_split(
    encoder: MultiScaleEncoder, proj: Projector, head: FrozenHead, dataset: DomainDataset, split: str
) -> tuple[list[GraphInstance], list[LossCache]]:
    """One split's instances and their head scores, encoded in one batch."""
    instances = [dataset.instances[i] for i in _split_indices(dataset, split)]
    for inst in instances:
        _check_scorable(inst, head)
    x, _ = encode_batch(instances, encoder)
    return instances, [
        _loss_from_representation(row, inst.domain, inst.label, proj, head)
        for row, inst in zip(x, instances)
    ]


def mean_split_loss(
    encoder: MultiScaleEncoder,
    proj: Projector,
    head: FrozenHead,
    dataset: DomainDataset,
    split: str = "val",
) -> float:
    """Mean instance loss over one split; the validation-quality probe."""
    _, scored = _scored_split(encoder, proj, head, dataset, split)
    return float(np.mean([cache.loss for cache in scored]))


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
    instances, scored = _scored_split(encoder, proj, head, dataset, split)
    preds = [int(np.argmax(cache.probs)) for cache in scored]  # argmax of the logits
    return classification_metrics(preds, [inst.label for inst in instances], k)


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
