import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReencodedRepresentations, max_relative_error
from uglm.align import (
    AlignConfig,
    AlignState,
    DifficultyTracker,
    FrozenHead,
    FrozenRepresentations,
    Projector,
    align_loop,
    align_step,
    classification_metrics,
    curriculum_weights,
    domain_losses,
    domain_mean_gradient,
    evaluate_classification,
    instance_loss,
    mean_split_loss,
    update_difficulty,
)
from uglm.encoder import MultiScaleEncoder, encode_batch, task_representation
from uglm.errors import ContractError
from uglm.graphdata import Batch
from uglm.numcore import OptimizerState, finite_difference_gradient
from uglm.persist import export_metrics, param_fingerprint
from uglm.synthgen import DomainSpec, generate_domain


def synth_domain(name="dom", task="node", classes=3, n=24, seed=0, label_noise=0.0):
    ds, _ = generate_domain(
        DomainSpec(
            domain=name,
            task=task,
            num_instances=n,
            num_classes=classes,
            nodes_min=3,
            nodes_max=5,
            feature_dim=4,
            text_dim=4,
            feature_noise=0.15,
            text_noise=0.1,
            label_noise=label_noise,
            seed=seed,
        )
    )
    return ds


def small_setup(classes=3, d=6, m=2, d_l=4, seed=0):
    ds = synth_domain(classes=classes, seed=seed)
    enc = MultiScaleEncoder.initialize(4, d, 2, np.random.default_rng(seed + 1))
    proj = Projector.initialize(d, m, d_l, np.random.default_rng(seed + 2))
    head = FrozenHead.build(seed + 3, {ds.domain: classes}, m, d_l)
    return ds, enc, proj, head


# ------------------------------------------------------------- frozen head


def test_frozen_head_deterministic_from_seed_domain_k():
    a = FrozenHead.build(5, {"x": 3, "y": 4}, 2, 6)
    b = FrozenHead.build(5, {"y": 4, "x": 3}, 2, 6)
    assert param_fingerprint(a.params()) == param_fingerprint(b.params())
    c = FrozenHead.build(6, {"x": 3, "y": 4}, 2, 6)
    assert param_fingerprint(a.params()) != param_fingerprint(c.params())
    d = FrozenHead.build(5, {"x": 4, "y": 4}, 2, 6)
    assert not np.array_equal(a.instructions["x"], d.instructions["x"])


# ------------------------------------------------------------ instance loss


def test_single_candidate_loss_zero():
    ds, enc, proj, _ = small_setup()
    head = FrozenHead.build(9, {ds.domain: 1}, proj.num_tokens, proj.token_dim)
    inst = ds.instances[0]
    inst.label = 0
    loss, _ = instance_loss(inst, enc, proj, head)
    assert loss == 0.0


def test_zero_mixing_gives_log_k():
    ds, enc, proj, head = small_setup(classes=4)
    head.mixing = np.zeros_like(head.mixing)
    loss, _ = instance_loss(ds.instances[0], enc, proj, head)
    assert loss == pytest.approx(math.log(4), abs=1e-14)


def test_missing_label_contract_error():
    ds, enc, proj, head = small_setup()
    inst = ds.instances[0]
    inst.label = None
    with pytest.raises(ContractError):
        instance_loss(inst, enc, proj, head)


def test_projector_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(4):
        ds, enc, proj, head = small_setup(seed=seed)
        inst = ds.instances[seed]
        _, cache = instance_loss(inst, enc, proj, head)
        analytic = domain_mean_gradient([cache], proj, head)

        def f(ps):
            return instance_loss(inst, enc, proj.with_params(ps), head)[0]

        numeric = finite_difference_gradient(f, proj.params)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst <= 1e-6


# ------------------------------------------------------- domain batch losses


def test_domain_batch_losses_are_within_domain_means():
    ds_a = synth_domain(name="a", seed=0)
    ds_b = synth_domain(name="b", seed=1)
    enc = MultiScaleEncoder.initialize(4, 6, 1, np.random.default_rng(5))
    proj = Projector.initialize(6, 2, 4, np.random.default_rng(6))
    head = FrozenHead.build(7, {"a": 3, "b": 3}, 2, 4)
    batch = Batch(
        items=[(ds_a, 0), (ds_a, 1), (ds_b, 2)],
        active_domains=("a", "b"),
    )
    losses, _ = domain_losses(batch, FrozenRepresentations(enc), proj, head)
    assert set(losses) == {"a", "b"}
    la0 = instance_loss(ds_a.instances[0], enc, proj, head)[0]
    la1 = instance_loss(ds_a.instances[1], enc, proj, head)[0]
    assert losses["a"] == pytest.approx((la0 + la1) / 2, abs=1e-15)
    assert "empty" not in losses  # absent domains never zero-filled


def test_gradient_norm_zero_when_mixing_zero():
    ds, enc, proj, head = small_setup()
    head.mixing = np.zeros_like(head.mixing)
    _, cache = instance_loss(ds.instances[0], enc, proj, head)
    assert domain_mean_gradient([cache], proj, head).norm() == 0.0


def test_gradient_norm_invariant_under_duplication():
    ds, enc, proj, head = small_setup()
    caches = [instance_loss(ds.instances[i], enc, proj, head)[1] for i in range(3)]
    g_once = domain_mean_gradient(caches, proj, head).norm()
    g_twice = domain_mean_gradient(caches + caches, proj, head).norm()
    assert g_twice == pytest.approx(g_once, rel=1e-12)


# -------------------------------------------------------- difficulty tracker


def test_warmup_running_mean():
    tracker = DifficultyTracker.create(total_steps=100, warmup_ratio=0.1, momentum=0.7)
    tracker = update_difficulty(tracker, 1, {"d": 1.0})
    tracker = update_difficulty(tracker, 2, {"d": 3.0})
    assert tracker.smoothed["d"] == 2.0
    assert tracker.means["d"] == 2.0


def test_post_warmup_ema_step():
    tracker = DifficultyTracker.create(total_steps=10, warmup_ratio=0.0, momentum=0.7)
    tracker = update_difficulty(tracker, 1, {"d": 1.0})  # first occurrence seeds 1.0
    tracker = update_difficulty(tracker, 2, {"d": 2.0})
    expected = 0.7 * 1.0 + (1.0 - 0.7) * 2.0
    assert tracker.smoothed["d"] == expected
    assert tracker.smoothed["d"] == pytest.approx(1.3, abs=1e-12)


def test_inactive_domain_bit_invariant():
    tracker = DifficultyTracker.create(total_steps=10, warmup_ratio=0.5, momentum=0.7)
    tracker = update_difficulty(tracker, 1, {"a": 0.123456789, "b": 7.0})
    held = tracker.smoothed["b"]
    for k in (2, 3, 4):
        tracker = update_difficulty(tracker, k, {"a": float(k)})
    assert tracker.smoothed["b"] == held
    assert tracker.counts["b"] == 1


def test_first_occurrence_after_warmup_seeds_with_g():
    tracker = DifficultyTracker.create(total_steps=10, warmup_ratio=0.1, momentum=0.9)
    tracker = update_difficulty(tracker, 1, {"a": 1.0})
    tracker = update_difficulty(tracker, 2, {"a": 1.0, "late": 5.0})  # k=2 >= T_w=1
    assert tracker.smoothed["late"] == 5.0


def test_nonmonotonic_step_rejected():
    tracker = DifficultyTracker.create(total_steps=10, warmup_ratio=0.1, momentum=0.7)
    tracker = update_difficulty(tracker, 1, {"a": 1.0})
    with pytest.raises(ContractError):
        update_difficulty(tracker, 3, {"a": 1.0})
    with pytest.raises(ContractError):
        update_difficulty(tracker, 1, {"a": 1.0})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12))
def test_warmup_mean_equals_brute_force_average(values):
    # warmup covers the whole run, so every update is the running mean
    tracker = DifficultyTracker.create(total_steps=1000, warmup_ratio=1.0, momentum=0.7)
    for k, g in enumerate(values, start=1):
        tracker = update_difficulty(tracker, k, {"d": g})
    brute = sum(values) / len(values)
    assert tracker.smoothed["d"] == pytest.approx(brute, rel=1e-12, abs=1e-12)


# --------------------------------------------------------- curriculum weights


def test_equal_difficulty_uniform_weights():
    tracker = DifficultyTracker.create(10, 1.0, 0.7)
    tracker = update_difficulty(tracker, 1, {"a": 2.0, "b": 2.0, "c": 2.0})
    weights = curriculum_weights(tracker, ("a", "b", "c"), 1.0)
    assert all(w == pytest.approx(1.0 / 3.0, abs=1e-15) for w in weights.values())


def test_curriculum_weights_direct_softmax():
    tracker = DifficultyTracker.create(10, 1.0, 0.7)
    tracker = update_difficulty(tracker, 1, {"A": math.log(2.0), "B": 0.0})
    weights = curriculum_weights(tracker, ("A", "B"), 1.0)
    assert weights["A"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert weights["B"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_single_active_domain_weight_one():
    tracker = DifficultyTracker.create(10, 1.0, 0.7)
    tracker = update_difficulty(tracker, 1, {"only": 3.0})
    assert curriculum_weights(tracker, ("only",), 0.5) == {"only": 1.0}


def test_weight_monotonicity_and_shift_invariance():
    tracker = DifficultyTracker.create(10, 1.0, 0.7)
    tracker = update_difficulty(tracker, 1, {"a": 1.0, "b": 2.5, "c": 0.3})
    w = curriculum_weights(tracker, ("a", "b", "c"), 0.7)
    assert w["b"] > w["a"] > w["c"]
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
    shifted = update_difficulty(
        DifficultyTracker.create(10, 1.0, 0.7), 1, {"a": 11.0, "b": 12.5, "c": 10.3}
    )
    w2 = curriculum_weights(shifted, ("a", "b", "c"), 0.7)
    for d in w:
        assert w2[d] == pytest.approx(w[d], abs=1e-9)


def test_missing_estimate_contract_error():
    tracker = DifficultyTracker.create(10, 1.0, 0.7)
    with pytest.raises(ContractError):
        curriculum_weights(tracker, ("ghost",), 1.0)


# ------------------------------------------------------------------ stepping


def twin_domain_setup(seed=0, m=2, d_l=4):
    """Two domains that are exact copies up to the domain id, sharing head
    parameters, so every symmetric quantity must come out identical."""
    ds_a = synth_domain(name="twin_a", seed=seed)
    ds_b = synth_domain(name="twin_b", seed=seed)
    for inst in ds_b.instances:
        inst.domain = "twin_b"
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(seed + 10))
    proj = Projector.initialize(6, m, d_l, np.random.default_rng(seed + 11))
    base = FrozenHead.build(seed + 12, {"twin_a": 3}, m, d_l)
    head = FrozenHead(
        num_tokens=m,
        token_dim=d_l,
        mixing=base.mixing,
        instructions={"twin_a": base.instructions["twin_a"], "twin_b": base.instructions["twin_a"]},
        label_embeddings={
            "twin_a": base.label_embeddings["twin_a"],
            "twin_b": base.label_embeddings["twin_a"],
        },
    )
    batch = Batch(
        items=[(ds_a, i) for i in range(6)] + [(ds_b, i) for i in range(6)],
        active_domains=("twin_a", "twin_b"),
    )
    return ds_a, ds_b, enc, proj, head, batch


def test_identical_twin_domains_get_half_weight_every_step():
    _, _, enc, proj, head, batch = twin_domain_setup()
    config = AlignConfig(total_steps=5, batch_size=12, seed=0)
    state = AlignState(
        projector=proj,
        optimizer=OptimizerState(config.learning_rate),
        tracker=DifficultyTracker.create(5, config.warmup_ratio, config.momentum),
    )
    reps = FrozenRepresentations(enc)
    for _ in range(5):
        state = align_step(batch, state, config, reps, head)
    for row in state.metrics:
        assert row.weight == 0.5


def test_equal_difficulty_update_matches_uniform_weighting_bitwise():
    _, _, enc, proj, head, batch = twin_domain_setup()

    def run(weighting):
        config = AlignConfig(total_steps=4, batch_size=12, seed=0, weighting=weighting)
        state = AlignState(
            projector=Projector(proj.params, proj.num_tokens, proj.token_dim),
            optimizer=OptimizerState(config.learning_rate),
            tracker=DifficultyTracker.create(4, config.warmup_ratio, config.momentum),
        )
        reps = FrozenRepresentations(enc)
        for _ in range(4):
            state = align_step(batch, state, config, reps, head)
        return param_fingerprint(state.projector.params)

    assert run("curriculum") == run("uniform")


def test_huge_temperature_behaves_as_uniform():
    ds_a = synth_domain(name="a", seed=3)
    ds_b = synth_domain(name="b", seed=4, label_noise=0.4)
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(30))
    proj = Projector.initialize(6, 2, 4, np.random.default_rng(31))
    head = FrozenHead.build(32, {"a": 3, "b": 3}, 2, 4)
    batch = Batch(
        items=[(ds_a, i) for i in range(5)] + [(ds_b, i) for i in range(5)],
        active_domains=("a", "b"),
    )
    config = AlignConfig(total_steps=1, batch_size=10, seed=0, curriculum_temperature=1e9)
    state = AlignState(
        projector=proj,
        optimizer=OptimizerState(config.learning_rate),
        tracker=DifficultyTracker.create(1, config.warmup_ratio, config.momentum),
    )
    state = align_step(batch, state, config, FrozenRepresentations(enc), head)
    losses = {row.domain: row.loss for row in state.metrics}
    weighted = sum(row.weight * row.loss for row in state.metrics)
    assert abs(weighted - np.mean(list(losses.values()))) <= 1e-6


def test_encoder_frozen_through_steps():
    ds, enc, proj, head = small_setup()
    before_enc = param_fingerprint(enc.params)
    before_head = param_fingerprint(head.params())
    config = AlignConfig(total_steps=6, batch_size=6, seed=1, num_tokens=2, token_dim=4)
    state, head_out = align_loop(config, [ds], enc, head)
    assert param_fingerprint(enc.params) == before_enc
    assert param_fingerprint(head_out.params()) == before_head
    assert state.step == 6


def test_weighted_objective_gradient_matches_finite_differences():
    # Eq.-17-style objective with the weights held constant for the step.
    ds_a = synth_domain(name="a", seed=5)
    ds_b = synth_domain(name="b", seed=6)
    enc = MultiScaleEncoder.initialize(4, 5, 1, np.random.default_rng(50))
    proj = Projector.initialize(5, 2, 4, np.random.default_rng(51))
    head = FrozenHead.build(52, {"a": 3, "b": 3}, 2, 4)
    batch = Batch(items=[(ds_a, 0), (ds_a, 3), (ds_b, 1)], active_domains=("a", "b"))
    fixed_weights = {"a": 0.7, "b": 0.3}
    reps = FrozenRepresentations(enc)

    def objective(ps):
        p2 = proj.with_params(ps)
        losses, _ = domain_losses(batch, reps, p2, head)
        return sum(fixed_weights[d] * losses[d] for d in losses)

    numeric = finite_difference_gradient(objective, proj.params)
    _, groups = domain_losses(batch, reps, proj, head)
    analytic = proj.params.zeros_like()
    for domain, group in sorted(groups.items()):
        analytic.flat[:] += fixed_weights[domain] * domain_mean_gradient(group, proj, head).flat
    assert max_relative_error(analytic, numeric) <= 1e-6


# ---------------------------------------------------------------- the loop


def test_zero_steps_leaves_projector_and_metrics_empty():
    ds, enc, _, _ = small_setup()
    config = AlignConfig(total_steps=0, batch_size=4, seed=9)
    state, _ = align_loop(config, [ds], enc)
    fresh = Projector.initialize(
        enc.hidden_dim, config.num_tokens, config.token_dim,
        np.random.default_rng(np.random.SeedSequence(9).spawn(2)[0]),
    )
    assert param_fingerprint(state.projector.params) == param_fingerprint(fresh.params)
    assert state.metrics == []


def test_same_seed_byte_identical_metrics(tmp_path):
    ds_a = synth_domain(name="a", seed=1)
    ds_b = synth_domain(name="b", seed=2)
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(7))
    config = AlignConfig(total_steps=7, batch_size=8, seed=13, token_dim=8)

    paths = []
    for run in range(2):
        state, _ = align_loop(config, [ds_a, ds_b], enc)
        path = tmp_path / f"metrics_{run}.csv"
        export_metrics([row.as_tuple() for row in state.metrics], path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_metrics_log_one_row_per_active_domain():
    ds_a = synth_domain(name="a", seed=1)
    ds_b = synth_domain(name="b", seed=2)
    enc = MultiScaleEncoder.initialize(4, 6, 1, np.random.default_rng(8))
    config = AlignConfig(total_steps=5, batch_size=24, seed=3, token_dim=8)
    state, _ = align_loop(config, [ds_a, ds_b], enc)
    by_step: dict[int, list[str]] = {}
    for row in state.metrics:
        by_step.setdefault(row.step, []).append(row.domain)
    # batch of 24 over two 12-instance train splits -> both domains active
    assert set(by_step) == {1, 2, 3, 4, 5}
    for domains in by_step.values():
        assert domains == sorted(domains)
        assert domains == ["a", "b"]


def mixed_task_domains(tasks):
    """Two domains with different task granularities, 10 training graphs each."""
    return [
        synth_domain(name=f"{task}_dom", task=task, classes=3, n=20, seed=20 + i)
        for i, task in enumerate(tasks)
    ]


MIXED_TASK_PAIRS = [("node", "edge"), ("edge", "graph"), ("graph", "node")]


@pytest.mark.parametrize("weighting", ["curriculum", "uniform"])
@pytest.mark.parametrize("tasks", MIXED_TASK_PAIRS)
def test_memoized_representations_match_reencoding_bitwise(monkeypatch, tasks, weighting):
    datasets = mixed_task_domains(tasks)
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(40))
    # 12 steps of 8 over 20 training graphs: each graph is drawn about 5 times
    config = AlignConfig(total_steps=12, batch_size=8, seed=41, token_dim=8, weighting=weighting)
    memoized, _ = align_loop(config, datasets, enc)
    monkeypatch.setattr("uglm.align.FrozenRepresentations", ReencodedRepresentations)
    reference, _ = align_loop(config, datasets, enc)
    assert param_fingerprint(memoized.projector.params) == param_fingerprint(
        reference.projector.params
    )
    assert [r.as_tuple() for r in memoized.metrics] == [r.as_tuple() for r in reference.metrics]


@pytest.mark.parametrize("tasks", MIXED_TASK_PAIRS)
def test_each_training_graph_encoded_at_most_once_per_run(monkeypatch, tasks):
    datasets = mixed_task_domains(tasks)
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(42))
    encoded: list[int] = []

    def counting(inst, *args, **kwargs):
        encoded.append(id(inst))
        return task_representation(inst, *args, **kwargs)

    monkeypatch.setattr("uglm.align.task_representation", counting)
    # 12 steps of 8 draw every one of the 20 training graphs, most of them 4-5 times
    config = AlignConfig(total_steps=12, batch_size=8, seed=43, token_dim=8)
    for _ in range(2):  # a second run encodes again: nothing outlives a run
        encoded.clear()
        align_loop(config, datasets, enc)
        train = {id(ds.instances[i]) for ds in datasets for i in ds.splits.train}
        assert len(encoded) == len(set(encoded)) == len(train)
        assert set(encoded) == train


def test_instance_checks_run_on_memoized_items():
    ds, enc, proj, head = small_setup()
    reps = FrozenRepresentations(enc)
    batch = Batch(items=[(ds, 0), (ds, 1)], active_domains=(ds.domain,))
    domain_losses(batch, reps, proj, head)
    ds.instances[1].label = 3
    with pytest.raises(ContractError, match="label 3 out of range for 3 candidates"):
        domain_losses(batch, reps, proj, head)
    ds.instances[1].label = None
    with pytest.raises(ContractError, match="has no label"):
        domain_losses(batch, reps, proj, head)


# --------------------------------------------------------------- evaluation


def test_classification_metrics_all_correct():
    acc, f1 = classification_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert acc == 1.0 and f1 == 1.0


def test_classification_metrics_one_class_on_balanced_split():
    acc, f1 = classification_metrics([0, 0, 0, 0], [0, 0, 1, 1], 2)
    assert acc == 0.5
    assert f1 == pytest.approx(0.5 * (2 / 3), abs=1e-15)


def test_evaluate_classification_runs_and_bounds():
    ds, enc, proj, head = small_setup()
    acc, f1 = evaluate_classification(enc, proj, head, ds, split="test")
    assert 0.0 <= acc <= 1.0 and 0.0 <= f1 <= 1.0


def test_classification_encodes_its_split_in_one_batch(monkeypatch):
    ds, enc, proj, head = small_setup()
    calls = []

    def counting(instances, *args):
        calls.append(len(instances))
        return encode_batch(instances, *args)

    monkeypatch.setattr("uglm.align.encode_batch", counting)
    monkeypatch.setattr("uglm.align.task_representation", None)  # no per-instance encode
    evaluate_classification(enc, proj, head, ds, split="test")
    assert calls == [len(ds.splits.test)]


def test_projector_weight_and_bias_are_views_of_its_params():
    _, _, proj, _ = small_setup()
    assert proj.params is proj.params  # held, not rebuilt per access
    assert np.shares_memory(proj.weight, proj.params.flat)
    assert np.shares_memory(proj.bias, proj.params.flat)
    moved = proj.with_params(proj.params.with_flat(proj.params.flat + 1.0))
    assert np.array_equal(moved.weight, proj.weight + 1.0)


def test_classification_rejects_head_with_other_class_count():
    ds, enc, proj, _ = small_setup(classes=3)
    head = FrozenHead.build(3, {ds.domain: 2}, proj.num_tokens, proj.token_dim)
    with pytest.raises(ContractError):
        evaluate_classification(enc, proj, head, ds, split="test")


def test_empty_split_contract_error():
    ds, enc, proj, head = small_setup()
    ds.splits.val = []
    with pytest.raises(ContractError):
        mean_split_loss(enc, proj, head, ds, split="val")
