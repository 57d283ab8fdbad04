import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    finite_difference_gradient,
    instance_of,
    max_relative_error,
    reference_align_step,
    train_pool,
    with_labels,
    with_train,
)
from uglm.align import (
    AlignConfig,
    AlignState,
    DifficultyTracker,
    FrozenHead,
    Projector,
    align_loop,
    align_step,
    classification_metrics,
    curriculum_weights,
    domain_losses,
    domain_mean_gradient,
    encode_rows,
    evaluate_classification,
    instance_loss,
    mean_split_loss,
    projector_gradient,
    score_rows,
    update_difficulty,
)
from uglm import pretrain
from uglm.encoder import MultiScaleEncoder, encode_packed
from uglm.errors import ContractError, EmptyDataError, ValidationError
from uglm.graphdata import Pool, Splits, load_dataset, save_dataset
from uglm.numcore import OptimizerState
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


def fresh_state(proj, config):
    return AlignState(
        projector=proj,
        optimizer=OptimizerState(config.learning_rate),
        tracker=DifficultyTracker.create(config.total_steps, config.warmup_ratio, config.momentum),
    )


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
    inst = instance_of(ds, 0)
    inst.label = 0
    loss, _ = instance_loss(inst, enc, proj, head)
    assert loss == 0.0


def test_zero_mixing_gives_log_k():
    ds, enc, proj, head = small_setup(classes=4)
    head.mixing = np.zeros_like(head.mixing)
    loss, _ = instance_loss(instance_of(ds, 0), enc, proj, head)
    assert loss == pytest.approx(math.log(4), abs=1e-14)


def test_missing_label_contract_error():
    ds, enc, proj, head = small_setup()
    inst = instance_of(ds, 0)
    inst.label = None
    with pytest.raises(ContractError, match="domain 'dom': instance has no label"):
        instance_loss(inst, enc, proj, head)


def test_projector_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(4):
        ds, enc, proj, head = small_setup(seed=seed)
        inst = instance_of(ds, seed)
        _, rows = instance_loss(inst, enc, proj, head)
        grads, _ = domain_mean_gradient(rows, score_rows(rows, proj)[0])
        analytic = projector_gradient(proj, rows, grads, np.ones(1))

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
    rows = encode_rows(enc, head, Pool.of([with_train(ds_a, [0, 1]), with_train(ds_b, [2])]))
    assert rows.domains == ("a", "b")
    losses = domain_losses(rows, score_rows(rows, proj)[1])
    alone = [score_rows(rows.take([r]), proj)[1][0] for r in range(3)]
    assert losses[0] == pytest.approx((alone[0] + alone[1]) / 2, abs=1e-15)
    assert losses[1] == pytest.approx(alone[2], abs=1e-15)


def test_stacked_projector_scores_equal_one_call_per_parameter_vector():
    # three domains of different class counts, one of them without rows
    datasets = [synth_domain(name=f"d{k}", classes=k, seed=k) for k in (2, 3, 4)]
    enc = MultiScaleEncoder.initialize(4, 6, 1, np.random.default_rng(8))
    proj = Projector.initialize(6, 2, 4, np.random.default_rng(9))
    head = FrozenHead.build(10, {ds.domain: ds.num_classes for ds in datasets}, 2, 4)
    encoded = encode_rows(enc, head, Pool.of([with_train(ds, range(5)) for ds in datasets]))
    rows = encoded.take([1, 10, 3, 14])  # d0's instances 1 and 3, d2's 0 and 4
    stack = proj.params.flat + 0.1 * np.random.default_rng(11).normal(size=(7, proj.params.flat.size))
    probs, loss = score_rows(rows, proj.with_params(proj.params.with_flat(stack)))
    means = domain_losses(rows, loss)
    assert probs.shape == (7, 4, 4) and loss.shape == (7, 4) and means.shape == (7, 3)
    for p in range(7):
        probs_p, loss_p = score_rows(rows, proj.with_params(proj.params.with_flat(stack[p])))
        assert np.allclose(probs[p], probs_p, rtol=1e-12, atol=0.0)
        assert np.allclose(loss[p], loss_p, rtol=1e-12, atol=0.0)
        assert np.allclose(means[p], domain_losses(rows, loss_p), rtol=1e-12, atol=0.0)
    assert np.all(means[:, 1] == 0.0)


def test_gradient_norm_zero_when_mixing_zero():
    ds, enc, proj, head = small_setup()
    head.mixing = np.zeros_like(head.mixing)
    _, rows = instance_loss(instance_of(ds, 0), enc, proj, head)
    assert domain_mean_gradient(rows, score_rows(rows, proj)[0])[1][0] == 0.0


def test_gradient_norm_invariant_under_duplication():
    ds, enc, proj, head = small_setup()
    rows = encode_rows(enc, head, Pool.of([with_train(ds, [0, 1, 2])]))
    once, twice = rows.take([0, 1, 2]), rows.take([0, 1, 2, 0, 1, 2])
    g_once = domain_mean_gradient(once, score_rows(once, proj)[0])[1][0]
    g_twice = domain_mean_gradient(twice, score_rows(twice, proj)[0])[1][0]
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
    encoded = encode_rows(enc, head, Pool.of([with_train(ds_a, range(6)), with_train(ds_b, range(6))]))
    return proj, encoded, np.arange(12)  # the batch: every encoded row


def test_identical_twin_domains_get_half_weight_every_step():
    proj, encoded, batch = twin_domain_setup()
    config = AlignConfig(total_steps=5, batch_size=12, seed=0)
    state = fresh_state(proj, config)
    for _ in range(5):
        state = align_step(batch, state, config, encoded)
    for row in state.metrics:
        assert row.weight == 0.5


def test_equal_difficulty_update_matches_uniform_weighting_bitwise():
    proj, encoded, batch = twin_domain_setup()

    def run(weighting):
        config = AlignConfig(total_steps=4, batch_size=12, seed=0, weighting=weighting)
        state = fresh_state(Projector(proj.params, proj.num_tokens, proj.token_dim), config)
        for _ in range(4):
            state = align_step(batch, state, config, encoded)
        return param_fingerprint(state.projector.params)

    assert run("curriculum") == run("uniform")


def test_huge_temperature_behaves_as_uniform():
    ds_a = synth_domain(name="a", seed=3)
    ds_b = synth_domain(name="b", seed=4, label_noise=0.4)
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(30))
    proj = Projector.initialize(6, 2, 4, np.random.default_rng(31))
    head = FrozenHead.build(32, {"a": 3, "b": 3}, 2, 4)
    encoded = encode_rows(enc, head, Pool.of([with_train(ds_a, range(5)), with_train(ds_b, range(5))]))
    config = AlignConfig(total_steps=1, batch_size=10, seed=0, curriculum_temperature=1e9)
    state = align_step(np.arange(10), fresh_state(proj, config), config, encoded)
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
    rows = encode_rows(enc, head, Pool.of([with_train(ds_a, [0, 3]), with_train(ds_b, [1])]))
    fixed_weights = np.array([0.7, 0.3])  # domains "a", "b"

    def objective(ps):
        return float(fixed_weights @ domain_losses(rows, score_rows(rows, proj.with_params(ps))[1]))

    numeric = finite_difference_gradient(objective, proj.params)
    grads, _ = domain_mean_gradient(rows, score_rows(rows, proj)[0])
    analytic = projector_gradient(proj, rows, grads, fixed_weights)
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
        export_metrics(state.metrics, path)
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


def test_both_stages_draw_the_same_pool_rows_from_one_generator(monkeypatch):
    datasets = [synth_domain(name="a", seed=1), synth_domain(name="b", task="edge", seed=2)]
    batches = Pool.batches
    monkeypatch.setattr(  # the same generator in both stages
        Pool, "batches", lambda self, size, epochs, rng: batches(self, size, epochs, np.random.default_rng(5))
    )
    text_row = {  # synth_domain's text rows tell its instances apart
        (ds.domain, tuple(ds.text_embeddings[ds.arrays["text_index"][i]])): i
        for ds in datasets for i in range(len(ds.arrays["label"]))
    }
    stage1, stage2, pools = [], [], []
    dr_clip_loss = pretrain.dr_clip_loss

    def recording_loss(x, t, ids, *args):
        stage1.append([(d, text_row[d, tuple(row)]) for d, row in zip(ids, t)])
        return dr_clip_loss(x, t, ids, *args)

    def recording_encode(encoder, head, pool):
        pools.append(pool)
        return encode_rows(encoder, head, pool)

    def recording_step(batch, state, config, encoded):
        pool = pools[-1]
        stage2.append([(pool.datasets[pool.dataset[r]].domain, pool.instance[r]) for r in batch])
        return align_step(batch, state, config, encoded)

    monkeypatch.setattr("uglm.pretrain.dr_clip_loss", recording_loss)
    monkeypatch.setattr("uglm.align.encode_rows", recording_encode)
    monkeypatch.setattr("uglm.align.align_step", recording_step)
    pretrain.pretrain_loop(pretrain.PretrainConfig(epochs=3, batch_size=7, seed=0), datasets, 4, 1)
    enc = MultiScaleEncoder.initialize(4, 6, 1, np.random.default_rng(0))
    align_loop(AlignConfig(total_steps=len(stage1), batch_size=7, seed=0, token_dim=8), datasets, enc)
    assert len(stage1) == 12 and stage1 == stage2  # 3 epochs of 24 pool rows in batches of 7


def mixed_task_domains(tasks):
    """Two domains with different task granularities, 10 training graphs each."""
    return [
        synth_domain(name=f"{task}_dom", task=task, classes=3, n=20, seed=20 + i)
        for i, task in enumerate(tasks)
    ]


MIXED_TASK_PAIRS = [("node", "edge"), ("edge", "graph"), ("graph", "node")]


def head_for(config, datasets):
    return FrozenHead.build(
        config.seed, {ds.domain: ds.num_classes for ds in datasets}, config.num_tokens, config.token_dim
    )


@pytest.mark.parametrize("weighting", ["curriculum", "uniform"])
@pytest.mark.parametrize("tasks", MIXED_TASK_PAIRS)
def test_memoized_representations_match_reencoding_bitwise(monkeypatch, tasks, weighting):
    # The run's X, encoded once, against X encoded again before every step.
    datasets = mixed_task_domains(tasks)
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(40))
    # 12 steps of 8 over 20 training graphs: each graph is drawn about 5 times
    config = AlignConfig(total_steps=12, batch_size=8, seed=41, token_dim=8, weighting=weighting)
    head = head_for(config, datasets)
    memoized, _ = align_loop(config, datasets, enc, head)

    def reencoding_step(batch, state, config, encoded):
        fresh = encode_rows(enc, head, Pool.of(datasets))
        assert np.array_equal(fresh.rows, encoded.rows)
        return align_step(batch, state, config, fresh)

    monkeypatch.setattr("uglm.align.align_step", reencoding_step)
    reference, _ = align_loop(config, datasets, enc, head)
    assert param_fingerprint(memoized.projector.params) == param_fingerprint(
        reference.projector.params
    )
    assert memoized.metrics == reference.metrics


@pytest.mark.parametrize("tasks", MIXED_TASK_PAIRS)
def test_each_training_graph_encoded_at_most_once_per_run(monkeypatch, tasks):
    # exactly once: one encode_packed call per domain, over its train split's pool rows
    datasets = mixed_task_domains(tasks)
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(42))
    calls: list[list[int]] = []

    def counting(arrays, rows, *args):
        calls.append(arrays["text_index"][rows].tolist())  # synth_domain's text rows are the instances
        return encode_packed(arrays, rows, *args)

    monkeypatch.setattr("uglm.align.encode_packed", counting)
    monkeypatch.setattr("uglm.align.task_representation", None)  # no per-instance encode
    # 12 steps of 8 draw every one of the 20 training graphs, most of them 4-5 times
    config = AlignConfig(total_steps=12, batch_size=8, seed=43, token_dim=8)
    for _ in range(2):  # a second run encodes again: nothing outlives a run
        calls.clear()
        align_loop(config, datasets, enc)
        assert calls == [ds.splits.train.tolist() for ds in datasets]


def test_instance_checks_run_on_memoized_items(monkeypatch):
    # every train item is checked before the first step, sampled or not
    ds, enc, _, _ = small_setup()
    steps = []
    monkeypatch.setattr("uglm.align.align_step", lambda *args: steps.append(args))
    config = AlignConfig(total_steps=1, batch_size=1, seed=0, num_tokens=2, token_dim=4)
    last = ds.splits.train[-1]
    with pytest.raises(ValidationError, match=rf"domain 'dom' instance {last}: label 3 not in \[0,3\)"):
        with_labels(ds, {last: 3})  # outside the dataset's classes: refused at construction
    two = FrozenHead.build(0, {"dom": 2}, 2, 4)  # a head with fewer candidates than classes
    only_last = with_labels(ds, {**{i: 0 for i in ds.splits.train}, last: 2})
    with pytest.raises(ContractError, match=f"domain 'dom' instance {last}: label 2 out of range for 2"):
        align_loop(config, [only_last], enc, two)
    with pytest.raises(ContractError, match=f"domain 'dom' instance {last}: instance has no label"):
        align_loop(config, [with_labels(ds, {last: None})], enc)
    assert steps == []
    # held-out items are not Stage II's to check
    align_loop(config, [with_labels(ds, {ds.splits.val[0]: None})], enc)
    assert len(steps) == 1


def test_no_train_instances_is_empty_data_error():
    ds, enc, _, _ = small_setup()
    ds = replace(ds, splits=Splits(val=ds.splits.held_out(), test=ds.splits.train))
    config = AlignConfig(total_steps=3, batch_size=2, seed=0, num_tokens=2, token_dim=4)
    with pytest.raises(EmptyDataError, match="no training instances"):
        align_loop(config, [ds], enc)


def test_unlabelled_train_instance_names_file_and_line(tmp_path):
    ds = synth_domain()
    index = ds.splits.train[3]
    ds = with_labels(ds, {index: None})
    save_dataset(ds, tmp_path / "dom.jsonl", tmp_path / "dom.emb")
    loaded = load_dataset(tmp_path / "dom.jsonl", tmp_path / "dom.emb")
    enc = MultiScaleEncoder.initialize(4, 6, 1, np.random.default_rng(0))
    config = AlignConfig(total_steps=2, batch_size=4, seed=0, num_tokens=2, token_dim=4)
    where = f"{tmp_path / 'dom.jsonl'}:{index + 2}"
    with pytest.raises(ContractError, match=f"^{re.escape(where)}: instance has no label$"):
        align_loop(config, [loaded], enc)


# ------------------------------------------ against the per-instance step


def relative_error(a, b):
    """max |a - b| over the larger of max |a| and max |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(), np.abs(b).max())
    return float(np.abs(a - b).max() / scale) if scale else 0.0


@pytest.mark.parametrize("weighting", ["curriculum", "uniform"])
def test_vectorized_step_matches_per_instance_step(weighting):
    datasets = mixed_task_domains(("node", "edge", "graph"))
    enc = MultiScaleEncoder.initialize(4, 6, 2, np.random.default_rng(44))
    config = AlignConfig(
        total_steps=14, batch_size=8, seed=45, token_dim=8, weighting=weighting,
        curriculum_temperature=0.2,
    )
    head = head_for(config, datasets)
    batches = list(Pool.of(datasets).batches(8, 3, np.random.default_rng(46)))  # 3 x 4 batches
    # pool rows 0-9 are node's train instances, 10-19 edge's, 20-29 graph's
    batches += [
        np.array([10, 2, 13, 21]),  # node and graph have one row each
        np.array([4, 20, 4, 4, 20, 15]),  # duplicated items, in and across domains
    ]
    pool = train_pool(datasets)
    proj = Projector.initialize(enc.hidden_dim, config.num_tokens, config.token_dim,
                                np.random.default_rng(47))
    encoded = encode_rows(enc, head, Pool.of(datasets))
    new, ref = fresh_state(proj, config), fresh_state(proj, config)
    for batch in batches:
        new = align_step(batch, new, config, encoded)
        ref = reference_align_step([pool[r] for r in batch], ref, config, enc, head)
    assert [(r.step, r.domain) for r in new.metrics] == [(r.step, r.domain) for r in ref.metrics]
    assert {r.step for r in new.metrics} == set(range(1, 15))
    for a, b in zip(new.metrics, ref.metrics):
        for field in ("loss", "grad_norm", "smoothed", "weight"):
            assert relative_error(getattr(a, field), getattr(b, field)) <= 1e-12, (a, b, field)
    assert relative_error(new.projector.params.flat, ref.projector.params.flat) <= 1e-12
    assert not np.array_equal(new.projector.params.flat, proj.params.flat)


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

    def counting(arrays, rows, *args):
        calls.append(len(rows))
        return encode_packed(arrays, rows, *args)

    monkeypatch.setattr("uglm.align.encode_packed", counting)
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
    ds = replace(ds, splits=Splits(train=ds.splits.train, test=ds.splits.test))
    with pytest.raises(ContractError):
        mean_split_loss(enc, proj, head, ds, split="val")
