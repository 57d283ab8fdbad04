import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import uglm
from uglm.cli import main
from uglm.gradcheck import CheckResult
from uglm.graphdata import load_dataset, save_dataset
from uglm.persist import load_checkpoint, param_fingerprint, save_checkpoint
from uglm.pretrain import encoder_from_checkpoint
from uglm.synthgen import generate_domain, suite_spec

DESK_CONFIG = {
    "encoder": {"num_layers": 2, "hidden_dim": 16},
    "pretrain": {"epochs": 2, "batch_size": 32, "learning_rate": 0.002,
                 "temperature": 0.07, "seed": 0},
    "align": {"total_steps": 5, "batch_size": 16, "token_dim": 16, "seed": 0},
}


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    assert main(["synth", "--out", str(out), "--seed", "4"]) == 0
    return out


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "desk.json"
    path.write_text(json.dumps(DESK_CONFIG))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, suite_dir, config_path):
    """synth -> pretrain -> align artifacts shared by the CLI tests."""
    work = tmp_path_factory.mktemp("work")
    enc = work / "encoder.ckpt"
    proj = work / "projector.ckpt"
    metrics = work / "metrics.csv"
    assert main([
        "pretrain", "--config", str(config_path), "--data", str(suite_dir),
        "--out", str(enc), "--metrics", str(work / "loss.csv"),
    ]) == 0
    assert main([
        "align", "--config", str(config_path), "--data", str(suite_dir),
        "--encoder", str(enc), "--out", str(proj), "--metrics", str(metrics),
    ]) == 0
    return {"work": work, "encoder": enc, "projector": proj, "metrics": metrics}


@pytest.fixture(scope="module")
def adapter_encoder(tmp_path_factory, suite_dir, config_path):
    """An encoder narrower than the text rows, so it carries a text adapter."""
    enc = tmp_path_factory.mktemp("adapter") / "encoder.ckpt"
    assert main([
        "pretrain", "--config", str(config_path), "--data", str(suite_dir),
        "--out", str(enc), "--set", "encoder.hidden_dim=8", "--set", "pretrain.epochs=1",
    ]) == 0
    return enc


def test_synth_writes_loadable_suite(suite_dir):
    # loads by other tests of this module may have added .jsonl.pack sidecars
    files = sorted(p.name for p in suite_dir.iterdir() if p.suffix != ".pack")
    assert len(files) == 10
    assert "easy.jsonl" in files and "hard.emb" in files


def test_pipeline_end_to_end(pipeline, suite_dir, capsys):
    rc = main([
        "eval", "--encoder", str(pipeline["encoder"]), "--data", str(suite_dir),
        "--mode", "retrieval", "--pool", "20", "--seed", "0",
    ])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    results = lines[-1]["results"]
    assert set(results) == {"easy", "medium", "hard", "edges", "graphs"}
    for stats in results.values():
        assert 0.0 <= stats["recall_at_1"] <= stats["recall_at_5"] <= 1.0


def test_eval_classification(pipeline, suite_dir, capsys):
    rc = main([
        "eval", "--encoder", str(pipeline["encoder"]), "--projector",
        str(pipeline["projector"]), "--data", str(suite_dir),
        "--mode", "classification",
    ])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    results = lines[-1]["results"]
    assert "easy" in results and "accuracy" in results["easy"]


def test_eval_classification_requires_projector(pipeline, suite_dir, capsys):
    rc = main([
        "eval", "--encoder", str(pipeline["encoder"]), "--data", str(suite_dir),
        "--mode", "classification",
    ])
    assert rc == 1
    assert "--projector" in capsys.readouterr().err


def test_align_missing_encoder_flag_is_usage_error(config_path, suite_dir, capsys):
    rc = main([
        "align", "--config", str(config_path), "--data", str(suite_dir),
        "--out", "x.ckpt", "--metrics", "m.csv",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--encoder" in err


def test_unknown_flag_is_usage_error(capsys):
    rc = main(["synth", "--out", "somewhere", "--bogus", "1"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, suite_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pretrain": {"epoch": 3}}))
    rc = main([
        "pretrain", "--config", str(bad), "--data", str(suite_dir),
        "--out", str(tmp_path / "e.ckpt"),
    ])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["file", "set"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("pretrain.batch_size", 2.5), ("pretrain.epochs", 1.5), ("encoder.hidden_dim", 8.0),
        ("pretrain.seed", True), ("align.total_steps", "5"), ("align.num_tokens", 2.0),
        ("align.token_dim", False), ("pretrain.center_sample_cap", 1e3), ("encoder.num_layers", "two"),
    ],
)
def test_integer_config_field_of_another_type_exits_1(tmp_path, suite_dir, capsys, key, value, source):
    section, name = key.split(".")
    config, out = tmp_path / "c.json", tmp_path / "e.ckpt"
    bad = {section: {**DESK_CONFIG[section], name: value}} if source == "file" else {}
    config.write_text(json.dumps({**DESK_CONFIG, **bad}))
    override = ["--set", f"{key}={json.dumps(value)}"] if source == "set" else []
    rc = main(["pretrain", "--config", str(config), "--data", str(suite_dir), "--out", str(out), *override])
    assert rc == 1 and not out.exists()
    assert f"error: config key {key} must be int, got {value!r}" in capsys.readouterr().err


def test_missing_data_dir_is_io_error(config_path, tmp_path, capsys):
    rc = main([
        "pretrain", "--config", str(config_path), "--data", str(tmp_path / "nope"),
        "--out", str(tmp_path / "e.ckpt"),
    ])
    assert rc == 2


def test_missing_checkpoint_is_io_error(config_path, suite_dir, tmp_path):
    rc = main([
        "align", "--config", str(config_path), "--data", str(suite_dir),
        "--encoder", str(tmp_path / "ghost.ckpt"),
        "--out", str(tmp_path / "p.ckpt"), "--metrics", str(tmp_path / "m.csv"),
    ])
    assert rc == 2


def test_domain_without_instances_exits_1(config_path, suite_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(suite_dir, data)
    graph_path = data / "easy.jsonl"
    graph_path.write_text(graph_path.read_text().splitlines()[0] + "\n")
    rc = main([
        "pretrain", "--config", str(config_path), "--data", str(data),
        "--out", str(tmp_path / "e.ckpt"),
    ])
    assert rc == 1
    assert f"{graph_path}:1:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "align", "retrieval", "classification"])
def test_two_files_of_one_domain_exit_1(pipeline, config_path, suite_dir, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(suite_dir, data)
    for suffix in (".jsonl", ".emb"):  # a copy that sorts after its original
        shutil.copy(data / f"easy{suffix}", data / f"zz_copy{suffix}")
    out = tmp_path / "out.ckpt"
    argv = {
        "pretrain": ["pretrain", "--config", str(config_path), "--out", str(out)],
        "align": ["align", "--config", str(config_path), "--encoder", str(pipeline["encoder"]),
                  "--out", str(out), "--metrics", str(tmp_path / "m.csv")],
        "retrieval": ["eval", "--mode", "retrieval", "--encoder", str(pipeline["encoder"])],
        "classification": ["eval", "--mode", "classification", "--encoder", str(pipeline["encoder"]),
                           "--projector", str(pipeline["projector"])],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {data / 'easy.jsonl'} and {data / 'zz_copy.jsonl'} both hold domain 'easy'\n"
    )
    assert "results" not in captured.out and not out.exists()


def test_unlabelled_train_instance_stops_align_before_writing(
    pipeline, config_path, suite_dir, tmp_path, capsys
):
    data = tmp_path / "data"
    shutil.copytree(suite_dir, data)
    graph_path = data / "hard.jsonl"
    index = load_dataset(graph_path, data / "hard.emb").splits.train[-1]  # no step need sample it
    lines = graph_path.read_text().splitlines()
    lines[index + 1] = json.dumps({**json.loads(lines[index + 1]), "label": None})
    graph_path.write_text("\n".join(lines) + "\n")
    out, metrics = tmp_path / "p.ckpt", tmp_path / "m.csv"
    rc = main([
        "align", "--config", str(config_path), "--data", str(data),
        "--encoder", str(pipeline["encoder"]), "--out", str(out), "--metrics", str(metrics),
    ])
    assert rc == 1
    assert f"error: {graph_path}:{index + 2}: instance has no label" in capsys.readouterr().err
    assert not out.exists() and not metrics.exists()


def test_classification_lists_skipped_domains_beside_results(pipeline, suite_dir, tmp_path, capsys):
    ckpt = load_checkpoint(pipeline["projector"])  # a head without the "hard" domain
    ckpt.metadata["head_domains"].remove("hard")
    del ckpt.tensors["frozen_head.hard.instruction"], ckpt.tensors["frozen_head.hard.labels"]
    partial = tmp_path / "partial.ckpt"
    save_checkpoint(ckpt, partial)
    capsys.readouterr()
    rc = main([
        "eval", "--encoder", str(pipeline["encoder"]), "--projector", str(partial),
        "--data", str(suite_dir), "--mode", "classification",
    ])
    assert rc == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["skipped_domains"] == ["hard"]
    assert set(last["results"]) == {"easy", "edges", "graphs", "medium"}


def _drop(tensors, name):
    del tensors[name]


def _widen(tensors, name):
    tensors[name] = np.concatenate([tensors[name], tensors[name][:1]])


def _poison(tensors, name):
    tensors[name] = tensors[name].copy()
    tensors[name].flat[0] = np.nan


@pytest.mark.parametrize(
    "artifact, tensor, edit",
    [
        ("adapter_encoder", "text_adapter.bias", _drop),
        ("encoder", "layer0.self_weight", _widen),
        ("encoder", "graph_head.bias", _poison),
        ("projector", "projector.bias", _drop),
        ("projector", "projector.weight", _widen),
        ("projector", "frozen_head.mixing", _widen),
        ("projector", "frozen_head.easy.labels", _drop),
        ("projector", "frozen_head.hard.instruction", _poison),
    ],
)
def test_bad_checkpoint_tensor_exits_1(
    pipeline, adapter_encoder, suite_dir, tmp_path, capsys, artifact, tensor, edit
):
    source = adapter_encoder if artifact == "adapter_encoder" else pipeline[artifact]
    ckpt = load_checkpoint(source)
    edit(ckpt.tensors, tensor)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, bad)
    if artifact == "projector":
        argv = ["--encoder", str(pipeline["encoder"]), "--projector", str(bad),
                "--mode", "classification"]
    else:
        argv = ["--encoder", str(bad), "--mode", "retrieval", "--pool", "20"]
    rc = main(["eval", "--data", str(suite_dir), *argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(bad) in err and tensor in err


def test_projector_encoder_width_mismatch_exits_1(pipeline, adapter_encoder, suite_dir, capsys):
    rc = main([
        "eval", "--encoder", str(adapter_encoder), "--projector", str(pipeline["projector"]),
        "--data", str(suite_dir), "--mode", "classification",
    ])
    assert rc == 1
    assert str(pipeline["projector"]) in capsys.readouterr().err


def test_projector_from_another_encoder_exits_1(
    pipeline, config_path, suite_dir, tmp_path, capsys
):
    other = tmp_path / "other_encoder.ckpt"
    assert main([
        "pretrain", "--config", str(config_path), "--data", str(suite_dir),
        "--out", str(other), "--set", "pretrain.seed=1",
    ]) == 0
    capsys.readouterr()
    rc = main([
        "eval", "--encoder", str(other), "--projector", str(pipeline["projector"]),
        "--data", str(suite_dir), "--mode", "classification",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(pipeline["projector"]) in err and str(other) in err and "fingerprint" in err


def test_projector_without_encoder_fingerprint_exits_1(pipeline, suite_dir, tmp_path, capsys):
    ckpt = load_checkpoint(pipeline["projector"])
    del ckpt.metadata["encoder_fingerprint"]
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(ckpt, bare)
    rc = main([
        "eval", "--encoder", str(pipeline["encoder"]), "--projector", str(bare),
        "--data", str(suite_dir), "--mode", "classification",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(bare) in err and str(pipeline["encoder"]) in err and "fingerprint" in err


def test_pretrain_records_each_domains_data(pipeline, suite_dir):
    recorded = load_checkpoint(pipeline["encoder"]).metadata["domain_data"]
    assert sorted(recorded) == ["easy", "edges", "graphs", "hard", "medium"]
    for domain, record in recorded.items():
        digests = {
            kind: hashlib.sha256((suite_dir / f"{domain}.{ext}").read_bytes()).hexdigest()
            for kind, ext in (("graphs", "jsonl"), ("embeddings", "emb"))
        }
        header = json.loads((suite_dir / f"{domain}.jsonl").read_text().splitlines()[0])
        classes = header["classes"]
        assert record == {"sha256": digests, "feature_dim": 16, "text_dim": 16, "classes": classes}


@pytest.mark.parametrize("command", ["align", "retrieval", "classification"])
def test_data_with_other_dims_than_pretraining_exits_1(
    pipeline, config_path, suite_dir, tmp_path, capsys, command
):
    data = tmp_path / "data"
    shutil.copytree(suite_dir, data)
    narrow, _ = generate_domain(dataclasses.replace(suite_spec("easy", 4), feature_dim=8))
    save_dataset(narrow, data / "easy.jsonl", data / "easy.emb")
    argv = {
        "align": ["align", "--config", str(config_path), "--out", str(tmp_path / "p.ckpt"),
                  "--metrics", str(tmp_path / "m.csv")],
        "retrieval": ["eval", "--mode", "retrieval", "--pool", "20"],
        "classification": ["eval", "--mode", "classification",
                           "--projector", str(pipeline["projector"])],
    }[command]
    rc = main([*argv, "--data", str(data), "--encoder", str(pipeline["encoder"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(pipeline["encoder"]) in err and str(data / "easy.jsonl") in err
    assert "(16, 16)" in err and "(8, 16)" in err


def test_encoder_without_domain_data_is_accepted(pipeline, suite_dir, tmp_path, capsys):
    ckpt = load_checkpoint(pipeline["encoder"])
    del ckpt.metadata["domain_data"]
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(ckpt, bare)
    capsys.readouterr()
    rc = main([
        "eval", "--encoder", str(bare), "--projector", str(pipeline["projector"]),
        "--data", str(suite_dir), "--mode", "classification",
    ])
    assert rc == 0  # the projector's encoder fingerprint ignores metadata
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["new_domains"] == ["easy", "edges", "graphs", "hard", "medium"]  # none recorded
    encoders = [encoder_from_checkpoint(load_checkpoint(p))[0] for p in (bare, pipeline["encoder"])]
    assert param_fingerprint(encoders[0].params) == param_fingerprint(encoders[1].params)


@pytest.mark.parametrize("domain_data", [[1], {"easy": [1]}, "easy", {"easy": {"feature_dim": "x"}}])
def test_malformed_domain_data_exits_1(pipeline, suite_dir, tmp_path, capsys, domain_data):
    # a list indexed by its own items raised IndexError, which escaped main
    ckpt = load_checkpoint(pipeline["encoder"])
    ckpt.metadata["domain_data"] = domain_data
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, bad)
    rc = main(["eval", "--encoder", str(bad), "--data", str(suite_dir), "--mode", "retrieval", "--pool", "20"])
    assert rc == 1
    assert f"{bad}: checkpoint domain_data is malformed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["align", "retrieval", "classification"])
def test_changed_and_new_domain_data_are_listed_beside_results(
    pipeline, config_path, suite_dir, tmp_path, capsys, command
):
    data = tmp_path / "data"
    shutil.copytree(suite_dir, data)
    changed, _ = generate_domain(suite_spec("easy", 5))  # same dims and sizes, other texts
    save_dataset(changed, tmp_path / "easy.jsonl", tmp_path / "easy.emb")
    shutil.copy(tmp_path / "easy.emb", data / "easy.emb")  # the graphs file is unchanged
    extra, _ = generate_domain(dataclasses.replace(suite_spec("medium", 4), domain="extra"))
    save_dataset(extra, data / "extra.jsonl", data / "extra.emb")
    argv = {
        "align": ["align", "--config", str(config_path), "--out", str(tmp_path / "p.ckpt"),
                  "--metrics", str(tmp_path / "m.csv")],
        "retrieval": ["eval", "--mode", "retrieval", "--pool", "20"],
        "classification": ["eval", "--mode", "classification",
                           "--projector", str(pipeline["projector"])],
    }[command]
    for directory, expected in ((suite_dir, ([], [])), (data, (["easy"], ["extra"]))):
        capsys.readouterr()
        rc = main([*argv, "--data", str(directory), "--encoder", str(pipeline["encoder"])])
        assert rc == 0  # neither a changed nor a new domain is an error
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (last["changed_domains"], last["new_domains"]) == expected
        if command == "align":
            rows = (tmp_path / "m.csv").read_text().splitlines()[1:]
            assert (last["steps"], last["metrics_rows"]) == (5, len(rows))
        else:
            assert not {"changed_domains", "new_domains"} & set(last["results"])


def test_resolved_config_echo_and_override_precedence(config_path, suite_dir, tmp_path, capsys):
    rc = main([
        "pretrain", "--config", str(config_path), "--data", str(suite_dir),
        "--out", str(tmp_path / "e.ckpt"), "--set", "pretrain.epochs=1",
    ])
    assert rc == 0
    first_line = json.loads(capsys.readouterr().out.splitlines()[0])
    assert first_line["command"] == "pretrain"
    assert first_line["config"]["pretrain"]["epochs"] == 1  # flag beats file
    assert first_line["config"]["pretrain"]["temperature"] == 0.07  # file beats default


def test_identical_runs_are_byte_identical(config_path, suite_dir, tmp_path):
    outs = []
    for tag in ("one", "two"):
        enc = tmp_path / f"enc_{tag}.ckpt"
        loss = tmp_path / f"loss_{tag}.csv"
        assert main([
            "pretrain", "--config", str(config_path), "--data", str(suite_dir),
            "--out", str(enc), "--metrics", str(loss),
        ]) == 0
        outs.append((enc.read_bytes(), loss.read_bytes()))
    assert outs[0] == outs[1]


def test_gradcheck_small_run(capsys):
    rc = main(["gradcheck", "--seed", "3", "--trials", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_gradcheck_failure_exit_code(monkeypatch, capsys):
    import uglm.cli as cli_module

    monkeypatch.setattr(
        cli_module,
        "run_gradcheck",
        lambda seed, trials: [CheckResult("rigged", trials, 1.0)],
    )
    rc = main(["gradcheck", "--seed", "0", "--trials", "1"])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--trials", "0"],
        ["gradcheck", "--trials", "-3"],
        ["gradcheck", "--seed", "-1"],
        ["synth", "--out", "{out}", "--seed", "-1"],
        ["eval", "--encoder", "{out}", "--data", "{out}", "--mode", "retrieval", "--seed", "-1"],
        ["pretrain", "--config", "{config}", "--data", "{out}", "--out", "{out}", "--set", "pretrain.seed=-1"],
        [
            "align", "--config", "{config}", "--data", "{out}", "--encoder", "{out}", "--out", "{out}",
            "--metrics", "{out}", "--set", "align.seed=-1",
        ],
    ],
    ids=["gradcheck-trials-0", "gradcheck-trials-minus-3", "gradcheck-seed", "synth-seed", "eval-seed",
         "pretrain-seed", "align-seed"],
)
def test_invalid_seed_or_trial_count_exits_1_before_any_work(argv, config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([arg.format(out=out, config=config_path) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err and ("seed" in captured.err or "trials" in captured.err)
    assert "PASS" not in captured.out
    assert not out.exists()


def test_report_emits_per_domain_trajectories(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "report"
    rc = main(["report", "--metrics", str(pipeline["metrics"]), "--out", str(out_dir)])
    assert rc == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 5  # one trajectory per suite domain
    text = (out_dir / files[0]).read_text().splitlines()
    assert text[0] == "step,loss,grad_norm,smoothed,weight"
    assert len(text) > 1


def test_console_entry_point_subprocess(tmp_path):
    # the child imports uglm from wherever this process did
    paths = [str(pathlib.Path(uglm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-m", "uglm", "synth", "--out", str(tmp_path / "s"), "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.splitlines()[0])["command"] == "synth"
