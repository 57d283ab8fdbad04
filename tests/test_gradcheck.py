import math

import numpy as np
import pytest

import uglm.gradcheck as gradcheck
from oracles import finite_difference_gradient
from uglm.encoder import forward, task_representation
from uglm.gradcheck import (
    check_contrastive_gradients,
    check_encoder_gradients,
    check_instance_loss_gradients,
    check_weighted_objective_gradients,
    run_gradcheck,
)
from uglm.errors import InvalidParameterError
from uglm.numcore import FD_STACK_ENTRIES, stacked_finite_difference_gradient


def test_instance_loss_check_encodes_each_trial_once(monkeypatch):
    encoded = []  # the instances themselves: a freed instance's id can be reused

    def counting(inst, *args, **kwargs):
        encoded.append(inst)
        return task_representation(inst, *args, **kwargs)

    def counting_forward(batch, *args, **kwargs):
        encoded.append(batch)
        return forward(batch, *args, **kwargs)

    # the check reaches the encoder through align's import; gradcheck's own
    # forward is patched too, so a direct encode would be counted as well
    monkeypatch.setattr("uglm.align.task_representation", counting)
    monkeypatch.setattr("uglm.gradcheck.forward", counting_forward)
    trials = 6
    result = check_instance_loss_gradients(seed=0, trials=trials)
    assert len(encoded) == len({id(inst) for inst in encoded}) == trials
    assert result.passed


def count_stacked_calls(monkeypatch, target, stack_size):
    """Patch ``uglm.gradcheck.<target>`` and the oracle. The returned list
    gets [entries differenced, calls of the target inside, perturbed vectors
    those calls ran] per oracle run; ``stack_size(result)`` reads a call's
    number of vectors from what the target returned."""
    runs = []
    inside = []
    real = getattr(gradcheck, target)

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        if inside:
            runs[-1][1] += 1
            runs[-1][2] += stack_size(result)
        return result

    def oracle(f, params, *args, **kwargs):
        runs.append([params.flat.size, 0, 0])
        inside.append(True)
        try:
            return stacked_finite_difference_gradient(f, params, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(f"uglm.gradcheck.{target}", counted)
    monkeypatch.setattr("uglm.gradcheck.stacked_finite_difference_gradient", oracle)
    return runs


def assert_stacked_runs(runs):
    """One call per FD_STACK_ENTRIES entries, two perturbed vectors per entry."""
    for entries, calls, vectors in runs:
        assert calls == math.ceil(entries / FD_STACK_ENTRIES)
        assert vectors == 2 * entries


def test_encoder_check_stacks_two_perturbed_vectors_per_entry(monkeypatch):
    runs = count_stacked_calls(monkeypatch, "forward", lambda result: result[0].shape[0])
    result = check_encoder_gradients(seed=0, trials=21)
    assert len(runs) == 21
    assert_stacked_runs(runs)
    assert sum(vectors for _, _, vectors in runs) == 11_924
    assert any(calls > 1 for _, calls, _ in runs)  # some trials need more than one call
    assert result.max_rel_error == 0.0


def test_contrastive_check_stacks_two_perturbed_vectors_per_entry(monkeypatch):
    runs = count_stacked_calls(monkeypatch, "dr_clip_forward", lambda result: result.loss.shape[0])
    result = check_contrastive_gradients(seed=0, trials=21)
    assert len(runs) == 2 * 21  # graph rows, then adapter parameters
    assert_stacked_runs(runs)
    assert sum(vectors for _, _, vectors in runs) == 2_342
    assert f"{result.max_rel_error:.3e}" == "5.751e-08"


@pytest.mark.parametrize(
    "check",
    [
        check_encoder_gradients,
        check_contrastive_gradients,
        check_instance_loss_gradients,
        check_weighted_objective_gradients,
    ],
)
def test_stacked_oracle_equals_the_entrywise_reference(monkeypatch, check):
    # every function a check differences also takes a single parameter
    # vector, so the reference runs it once per perturbed vector
    worst = []

    def both(f, params):
        stacked = stacked_finite_difference_gradient(f, params)
        worst.append(float(np.abs(stacked.flat - finite_difference_gradient(f, params).flat).max()))
        return stacked

    monkeypatch.setattr("uglm.gradcheck.stacked_finite_difference_gradient", both)
    assert check(seed=0, trials=21).passed
    assert len(worst) == 21 * (2 if check is check_contrastive_gradients else 1)
    assert max(worst) <= 1e-9


@pytest.mark.parametrize("trials", [0, -3])
def test_a_check_over_no_configurations_is_rejected(trials):
    with pytest.raises(InvalidParameterError, match="trials"):
        run_gradcheck(0, trials)


def test_seed_zero_max_errors_are_unchanged():
    errors = [f"{r.max_rel_error:.3e}" for r in run_gradcheck(0, 21)]
    assert errors == ["0.000e+00", "5.751e-08", "0.000e+00", "0.000e+00"]
