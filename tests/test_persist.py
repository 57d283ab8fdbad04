import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uglm.errors import (
    ChecksumError,
    CheckpointFormatError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from uglm.encoder import MultiScaleEncoder
from uglm.numcore import ParamSet
from uglm.persist import (
    Checkpoint,
    encode_checkpoint,
    export_loss_log,
    export_metrics,
    format_float,
    load_checkpoint,
    param_fingerprint,
    parse_metrics,
    save_checkpoint,
)
from uglm.pretrain import encoder_to_checkpoint


def small_checkpoint():
    rng = np.random.default_rng(3)
    return Checkpoint(
        metadata={"stage": "pretrain", "seed": 11, "config": {"lr": 1e-4}},
        tensors={
            "layer0.self_weight": rng.normal(size=(3, 4)),
            "layer0.bias": rng.normal(size=(4,)),
            "adapter.weight": rng.normal(size=(2, 3)),
        },
    )


def test_save_load_roundtrip_bitwise(tmp_path):
    ckpt = small_checkpoint()
    path = tmp_path / "enc.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.metadata == ckpt.metadata
    assert sorted(loaded.tensors) == sorted(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        assert np.array_equal(loaded.tensors[name], arr)
        assert loaded.tensors[name].dtype == np.float64


def test_same_checkpoint_saves_identical_bytes(tmp_path):
    ckpt = small_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ckpt, p1)
    save_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_tensor_insertion_order_does_not_change_bytes():
    a = Checkpoint(metadata={}, tensors={"x": np.ones((1,)), "y": np.zeros((2,))})
    b = Checkpoint(metadata={}, tensors={"y": np.zeros((2,)), "x": np.ones((1,))})
    assert encode_checkpoint(a) == encode_checkpoint(b)


def test_corrupted_payload_byte_fails_checksum(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(small_checkpoint(), path)
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0x01  # inside the final tensor payload
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_every_single_byte_corruption_is_detected(tmp_path):
    ckpt = Checkpoint(metadata={"s": 1}, tensors={"w": np.arange(6.0).reshape(2, 3)})
    path = tmp_path / "t.ckpt"
    save_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0xFF
        path.write_bytes(bytes(corrupted))
        with pytest.raises(
            (ChecksumError, CheckpointFormatError, TruncatedFileError, UnsupportedVersionError)
        ):
            load_checkpoint(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(small_checkpoint(), path)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_future_version(tmp_path):
    path = tmp_path / "v.ckpt"
    ckpt = small_checkpoint()
    blob = bytearray(encode_checkpoint(ckpt))
    blob[7] = 9  # version field follows the 7-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(path)


def test_truncated_file_is_length_error_not_checksum(tmp_path):
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(small_checkpoint(), path)
    blob = path.read_bytes()
    for cut in (3, 10, len(blob) // 2, len(blob) - 33):
        path.write_bytes(blob[:cut])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)


def test_truncated_encoder_checkpoint_error_names_the_file(tmp_path):
    path = tmp_path / "encoder.ckpt"
    enc = MultiScaleEncoder.initialize(16, 16, 2, np.random.default_rng(0))
    save_checkpoint(encoder_to_checkpoint(enc, None, {"seed": 0}), path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:200])
    with pytest.raises(TruncatedFileError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert message.startswith(f"{path}: file ends at byte 200 but its structure needs ")
    assert message.endswith(" bytes and a 32-byte checksum")
    needed = int(message.split("structure needs ")[1].split(" ")[0])
    assert 200 - 32 < needed <= full - 32  # an absolute offset into the full file


def test_param_fingerprint_tracks_content():
    ps = ParamSet({"a": np.ones((2, 2)), "b": np.zeros((3,))})
    same = ParamSet({"b": np.zeros((3,)), "a": np.ones((2, 2))})
    assert param_fingerprint(ps) == param_fingerprint(same)
    bumped = ParamSet({"a": np.ones((2, 2)), "b": np.array([0.0, 0.0, 1e-300])})
    assert param_fingerprint(ps) != param_fingerprint(bumped)


# --------------------------------------------------------------- metrics CSV


def test_export_metrics_empty_is_header_only(tmp_path):
    path = tmp_path / "m.csv"
    export_metrics([], path)
    assert path.read_text() == "step,domain,loss,grad_norm,smoothed,weight\n"


def test_export_metrics_one_row(tmp_path):
    path = tmp_path / "m.csv"
    export_metrics([(3, "easy", 1.5, 0.25, 0.125, 0.5)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("3,easy,1.5")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=4,
    )
)
def test_metrics_roundtrip_exact_float64(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    rows = [(i, "d0", v, v / 3.0, v * 7.0, 0.5) for i, v in enumerate(values)]
    export_metrics(rows, path)
    parsed = parse_metrics(path)
    for row, back in zip(rows, parsed):
        assert back[0] == row[0] and back[1] == row[1]
        for a, b in zip(row[2:], back[2:]):
            assert a == b  # bitwise-equal doubles


def test_format_float_17g_roundtrip():
    for x in (0.1, 1 / 3, 1e-300, -2.5e300, 3.141592653589793):
        assert float(format_float(x)) == x


def test_loss_log_format(tmp_path):
    path = tmp_path / "loss.csv"
    export_loss_log([2.0, 1.0], path)
    assert path.read_text().splitlines() == ["epoch,mean_loss", "1,2", "2,1"]
