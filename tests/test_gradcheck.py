from uglm.encoder import task_representation
from uglm.gradcheck import check_instance_loss_gradients


def test_instance_loss_check_encodes_each_trial_once(monkeypatch):
    encoded = []  # the instances themselves: a freed instance's id can be reused

    def counting(inst, *args, **kwargs):
        encoded.append(inst)
        return task_representation(inst, *args, **kwargs)

    # the check reaches the encoder through align's import; gradcheck's own
    # import is patched too, so a direct call would be counted as well
    monkeypatch.setattr("uglm.align.task_representation", counting)
    monkeypatch.setattr("uglm.gradcheck.task_representation", counting)
    trials = 6
    result = check_instance_loss_gradients(seed=0, trials=trials)
    assert len(encoded) == len({id(inst) for inst in encoded}) == trials
    assert result.passed
