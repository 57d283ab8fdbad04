"""Run configuration: built-in defaults, JSON file loading, flag overrides.

Precedence is CLI override > config file > built-in default. Unknown keys
anywhere in the file or in an override path are rejected, and so is a value
whose type is not its default's (an int field takes only an int, a float
field an int or a float). The built-in defaults are the field defaults of
the config dataclasses and mirror the reference hyperparameters (3-layer,
768-wide encoder, pretrain lr 1e-4, align lr 0.004, 7 tokens, warmup ratio
0.01, momentum 0.7); desk-scale runs override the sizes in their config
file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .align import AlignConfig
from .errors import InvalidParameterError, ValidationError
from .pretrain import PretrainConfig


@dataclass
class EncoderSettings:
    num_layers: int = 3
    hidden_dim: int = 768

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise InvalidParameterError("encoder.num_layers must be >= 1")
        if self.hidden_dim < 1:
            raise InvalidParameterError("encoder.hidden_dim must be >= 1")


@dataclass
class RunConfig:
    encoder: EncoderSettings = field(default_factory=EncoderSettings)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    align: AlignConfig = field(default_factory=AlignConfig)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _merge_checked(base: dict, incoming: dict, where: str) -> None:
    for key, value in incoming.items():
        if key not in base:
            raise ValidationError(f"unknown config key {where}{key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValidationError(f"config key {where}{key!r} must be an object")
            _merge_checked(base[key], value, f"{where}{key}.")
        else:
            base[key] = value


def apply_override(data: dict, spec: str) -> None:
    """Apply one ``section.key=value`` override; value parses as JSON."""
    if "=" not in spec:
        raise ValidationError(f"override {spec!r} is not of the form key.path=value")
    path, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are allowed unquoted
    for key in reversed(path.split(".")):
        value = {key: value}
    _merge_checked(data, value, "")


def _check_types(data: dict) -> None:
    """Each value has the type of its field's default (bool is not an int)."""
    for section, defaults in RunConfig().as_dict().items():
        for key, default in defaults.items():
            value, want = data[section][key], type(default)
            if type(value) is not want and not (want is float and type(value) is int):
                raise ValidationError(f"config key {section}.{key} must be {want.__name__}, got {value!r}")


def load_run_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    data = RunConfig().as_dict()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: config is not valid JSON: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ValidationError(f"{path}: config root must be an object")
        _merge_checked(data, file_data, "")
    for spec in overrides or []:
        apply_override(data, spec)
    _check_types(data)
    return RunConfig(
        encoder=EncoderSettings(**data["encoder"]),
        pretrain=PretrainConfig(**data["pretrain"]),
        align=AlignConfig(**data["align"]),
    )
