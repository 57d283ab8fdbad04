import uglm.gradcheck as gradcheck
from uglm.encoder import forward, task_representation
from uglm.gradcheck import (
    check_contrastive_gradients,
    check_encoder_gradients,
    check_instance_loss_gradients,
    run_gradcheck,
)
from uglm.numcore import finite_difference_gradient


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


def count_differenced_calls(monkeypatch, target):
    """Patch ``uglm.gradcheck.<target>`` and the oracle. The returned list
    gets [entries differenced, calls of the target inside] per oracle run."""
    runs = []
    inside = []
    real = getattr(gradcheck, target)

    def counted(*args, **kwargs):
        if inside:
            runs[-1][1] += 1
        return real(*args, **kwargs)

    def oracle(f, params, *args, **kwargs):
        runs.append([params.flat.size, 0])
        inside.append(True)
        try:
            return finite_difference_gradient(f, params, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(f"uglm.gradcheck.{target}", counted)
    monkeypatch.setattr("uglm.gradcheck.finite_difference_gradient", oracle)
    return runs


def test_encoder_check_runs_two_forwards_per_parameter_entry(monkeypatch):
    runs = count_differenced_calls(monkeypatch, "forward")
    result = check_encoder_gradients(seed=0, trials=21)
    assert len(runs) == 21
    assert all(calls == 2 * entries for entries, calls in runs)
    assert sum(calls for _, calls in runs) == 11_924
    assert result.max_rel_error == 0.0


def test_contrastive_check_runs_two_losses_per_entry(monkeypatch):
    runs = count_differenced_calls(monkeypatch, "dr_clip_forward")
    result = check_contrastive_gradients(seed=0, trials=21)
    assert len(runs) == 2 * 21  # graph rows, then adapter parameters
    assert all(calls == 2 * entries for entries, calls in runs)
    assert sum(calls for _, calls in runs) == 2_342
    assert f"{result.max_rel_error:.3e}" == "5.751e-08"


def test_seed_zero_max_errors_are_unchanged():
    errors = [f"{r.max_rel_error:.3e}" for r in run_gradcheck(0, 21)]
    assert errors == ["0.000e+00", "5.751e-08", "0.000e+00", "0.000e+00"]
