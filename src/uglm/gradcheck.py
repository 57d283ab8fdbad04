"""Finite-difference verification of every analytic gradient path.

Four checks, each over randomized small configurations: the encoder
composite (all three task granularities), the contrastive loss w.r.t.
graph rows and adapter parameters, the frozen-head instance loss w.r.t.
projector parameters, and the weighted multi-domain objective w.r.t.
projector parameters with the weights held constant.

Every check takes central differences (eps 1e-5) with the stacked oracle:
one call of the training function runs up to 64 perturbed parameter
vectors, two per entry, and only what depends on them. The encoder check
builds a trial's ``GraphBatch`` once and runs ``forward`` on it, the
contrastive check evaluates the loss alone (``dr_clip_forward``, the
forward ``dr_clip_loss`` calls) under the trial's pair weights, and the
projector checks run ``score_rows`` under a stacked projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import (
    FrozenHead,
    Projector,
    domain_losses,
    domain_mean_gradient,
    encode_rows,
    instance_loss,
    projector_gradient,
    score_rows,
)
from .encoder import GraphBatch, MultiScaleEncoder, encoder_backward, forward
from .errors import GradientCheckError, InvalidParameterError
from .graphdata import DomainDataset, GraphInstance, Pool, Splits, draw_target
from .numcore import ParamSet, stacked_finite_difference_gradient
from .pretrain import (
    DomainCenters,
    TextAdapter,
    build_domain_weights,
    dr_clip_forward,
    dr_clip_loss,
    pair_weights,
)

GRADCHECK_TOLERANCE = 1e-6

# A float64 central difference of an O(1) function at eps=1e-5 carries
# ~1e-10 of subtractive-cancellation noise. Entries agreeing to below this
# floor are unresolvable by the oracle and count as exact matches; any
# real gradient defect disagrees by many orders of magnitude more.
FD_ABSOLUTE_FLOOR = 1e-9

# Finite differences need local smoothness; configurations that put a ReLU
# pre-activation within this margin of its kink are redrawn.
_KINK_MARGIN = 1e-4


def _gated_rel_error(analytic: ParamSet, numeric: ParamSet) -> float:
    """Floored relative error with the FD resolvability gate applied."""
    a, b = analytic.flat, numeric.flat
    diff = np.abs(a - b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    rel = np.where(diff <= FD_ABSOLUTE_FLOOR, 0.0, diff / denom)
    return float(rel.max()) if rel.size else 0.0


@dataclass
class CheckResult:
    name: str
    trials: int
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= GRADCHECK_TOLERANCE


def _random_instance(
    rng: np.random.Generator, n: int, d_in: int, kind: str, domain: str = "d0"
) -> GraphInstance:
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges += [(parent, v), (v, parent)]
    target = draw_target(kind, rng, n, edges)
    feats = rng.normal(size=(n, d_in))
    return GraphInstance(
        num_nodes=n, edges=edges, node_features=feats, target=target, label=0, text_index=0, domain=domain
    )


def _sample_smooth_encoder_case(rng: np.random.Generator, kind: str):
    """Encoder and batch of one instance whose hidden pre-activations avoid the
    ReLU kink, with the forward cache that proved it."""
    for _ in range(64):
        n = int(rng.integers(2, 7))
        d_in = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        layers = int(rng.integers(1, 4))
        enc = MultiScaleEncoder.initialize(d_in, d, layers, rng)
        batch = GraphBatch.build([_random_instance(rng, n, d_in, kind)], d_in)
        _, cache = forward(batch, enc)
        margins = [float(np.abs(pre).min()) for _, _, pre in cache.layers[:-1]]
        if not margins or min(margins) > _KINK_MARGIN:
            return enc, batch, cache
    raise GradientCheckError("could not sample a kink-free encoder configuration")


def check_encoder_gradients(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    worst = 0.0
    for trial in range(trials):
        kind = ("node", "edge", "graph")[trial % 3]
        enc, batch, cache = _sample_smooth_encoder_case(rng, kind)
        probe = rng.normal(size=enc.hidden_dim)

        def f(ps, batch=batch, enc=enc, probe=probe):  # the batch's structure is reused
            x, _ = forward(batch, enc.with_params(ps))
            return x[..., 0, :] @ probe

        analytic = encoder_backward(cache, probe)
        numeric = stacked_finite_difference_gradient(f, enc.params)
        worst = max(worst, _gated_rel_error(analytic, numeric))
    return CheckResult("encoder_backward", trials, worst)


def check_contrastive_gradients(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        d_t = int(rng.integers(2, 7))
        n_domains = int(rng.integers(1, 4))
        domains = [f"d{i}" for i in range(n_domains)]
        centers = DomainCenters(
            domains=domains,
            graph_centers={name: rng.normal(size=4) for name in domains},
            text_centers={name: rng.normal(size=4) for name in domains},
            sample_counts={name: 1 for name in domains},
        )
        weights = build_domain_weights(centers)
        ids = [domains[int(rng.integers(0, n_domains))] for _ in range(n)]
        x = rng.normal(size=(n, d))
        t = rng.normal(size=(n, d_t))
        adapter = TextAdapter.initialize(d_t, d, rng)
        tau = (1.0, 0.07)[trial % 2]

        result = dr_clip_loss(x, t, ids, weights, tau, adapter)
        wg, wt = pair_weights(ids, weights)  # the differences below evaluate the loss only
        fd_x = stacked_finite_difference_gradient(
            lambda ps: dr_clip_forward(ps["x"], t, wg, wt, tau, adapter).loss,
            ParamSet({"x": x}),
        )
        worst = max(worst, _gated_rel_error(ParamSet({"x": result.grad_x}), fd_x))
        fd_adapter = stacked_finite_difference_gradient(
            lambda ps: dr_clip_forward(x, t, wg, wt, tau, adapter.with_params(ps)).loss,
            adapter.params(),
        )
        worst = max(worst, _gated_rel_error(result.grad_adapter, fd_adapter))
    return CheckResult("contrastive_loss", trials, worst)


def _random_head_setup(rng: np.random.Generator, kind: str, domain: str = "d0"):
    d_in = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    n = int(rng.integers(2, 7))
    k = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    d_l = int(rng.integers(2, 7))
    enc = MultiScaleEncoder.initialize(d_in, d, int(rng.integers(1, 3)), rng)
    proj = Projector.initialize(d, m, d_l, rng)
    head = FrozenHead.build(int(rng.integers(0, 2**31)), {domain: k}, m, d_l)
    g = _random_instance(rng, n, d_in, kind, domain)
    g.label = int(rng.integers(0, k))
    return enc, proj, head, g


def check_instance_loss_gradients(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    worst = 0.0
    for trial in range(trials):
        kind = ("node", "edge", "graph")[trial % 3]
        enc, proj, head, g = _random_head_setup(rng, kind)
        _, rows = instance_loss(g, enc, proj, head)  # the trial's one encode
        probs, _ = score_rows(rows, proj)
        analytic = projector_gradient(proj, rows, domain_mean_gradient(rows, probs)[0], np.ones(1))
        numeric = stacked_finite_difference_gradient(
            lambda ps: score_rows(rows, proj.with_params(ps))[1][..., 0], proj.params
        )
        worst = max(worst, _gated_rel_error(analytic, numeric))
    return CheckResult("instance_loss", trials, worst)


def check_weighted_objective_gradients(seed: int, trials: int) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    worst = 0.0
    for trial in range(trials):
        kind = ("node", "edge", "graph")[trial % 3]
        d_in = int(rng.integers(1, 4))
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        d_l = int(rng.integers(2, 6))
        enc = MultiScaleEncoder.initialize(d_in, d, 1, rng)
        proj = Projector.initialize(d, m, d_l, rng)
        domains = ["a", "b"]
        classes = {name: int(rng.integers(2, 5)) for name in domains}
        head = FrozenHead.build(int(rng.integers(0, 2**31)), classes, m, d_l)
        datasets = {}
        for name in domains:
            instances = []
            for _ in range(3):
                g = _random_instance(rng, int(rng.integers(2, 6)), d_in, kind, name)
                g.label = int(rng.integers(0, classes[name]))
                instances.append(g)
            datasets[name] = DomainDataset.from_instances(
                name, kind, classes[name], instances, np.zeros((3, 2)), Splits(train=[0, 1, 2])
            )
        w_fixed = {"a": float(rng.uniform(0.2, 0.8))}
        w_fixed["b"] = 1.0 - w_fixed["a"]

        # the step's scorer and gradient over pool rows a0, a1, b0, b2; only the
        # projector is perturbed below
        rows = encode_rows(enc, head, Pool.of(list(datasets.values()))).take([0, 1, 3, 5])
        weights = np.array([w_fixed[name] for name in rows.domains])
        probs, _ = score_rows(rows, proj)
        analytic = projector_gradient(proj, rows, domain_mean_gradient(rows, probs)[0], weights)

        def objective(ps):
            return domain_losses(rows, score_rows(rows, proj.with_params(ps))[1]) @ weights

        numeric = stacked_finite_difference_gradient(objective, proj.params)
        worst = max(worst, _gated_rel_error(analytic, numeric))
    return CheckResult("weighted_objective", trials, worst)


def run_gradcheck(seed: int = 0, trials: int = 21) -> list[CheckResult]:
    """All four checks; ``trials`` (at least 1) randomized configurations each."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    return [
        check_encoder_gradients(seed, trials),
        check_contrastive_gradients(seed, trials),
        check_instance_loss_gradients(seed, trials),
        check_weighted_objective_gradients(seed, trials),
    ]
