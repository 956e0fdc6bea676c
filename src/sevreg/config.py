"""Run configuration: dataclasses, JSON round trips, and override handling.

A config document is one nested JSON object. CLI overrides are dotted-path
key=value pairs validated against the schema; the fully resolved config is
persisted with every run and hashed into the run id.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .augment import AugmentConfig
from .contrastive import PairingSpec
from .errors import ConfigError, ParameterError
from .synthetic import WorldConfig

STRATEGIES = ("baseline", "simclr", "dis", "con", "coarse")


@dataclass
class ModelConfig:
    hidden_dim: int = 320
    embed_dim: int = 128
    dropout: float = 0.1
    pool: str = "mean_std"
    normalize_embeddings: bool = True
    feature_norm: str = "l2"

    def validate(self) -> None:
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("hidden_dim and embed_dim must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.pool not in ("mean_std", "mean"):
            raise ConfigError(f"unknown pool '{self.pool}'")
        if self.feature_norm not in ("l2", "zscore", "none"):
            raise ConfigError(f"unknown feature_norm '{self.feature_norm}'")


@dataclass
class RegressionStageConfig:
    """Stage-1 and stage-3 settings (identical by default)."""

    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 10
    huber_delta: float = 0.5
    weight_decay: float = 0.01
    decoupled_weight_decay: bool = True

    def validate(self) -> None:
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.huber_delta <= 0:
            raise ConfigError(f"huber_delta must be > 0, got {self.huber_delta}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass
class Stage2Config:
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 2
    batch_size: int = 64
    gamma: float = 1.0
    var_weight: float = 0.1
    typical_fraction: float | None = None
    pairing: PairingSpec = field(default_factory=PairingSpec)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> None:
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.batch_size < 2:
            raise ConfigError("stage-2 batch_size must be >= 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.gamma < 0 or self.var_weight < 0:
            raise ConfigError("gamma and var_weight must be >= 0")
        if self.typical_fraction is not None and not 0.0 <= self.typical_fraction <= 1.0:
            raise ConfigError("typical_fraction must be in [0, 1]")
        try:
            self.pairing.validate()
            self.augment.validate()
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class AblationConfig:
    """Toggles for the ablation harness; defaults run the full pipeline."""

    use_typical: bool = True
    use_pseudo: bool = True
    skip_stage1: bool = False
    skip_stage2: bool = False
    assumed_dysarthric_label: float = 7.0  # pool label when stage 1 is skipped

    def validate(self) -> None:
        if not 1.0 <= self.assumed_dysarthric_label <= 7.0:
            raise ConfigError("assumed_dysarthric_label must be in [1, 7]")


@dataclass
class DataConfig:
    root: str = "data"
    world: WorldConfig = field(default_factory=WorldConfig)

    def validate(self) -> None:
        try:
            self.world.base_spec().validate()
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        if len(self.world.split) != 3:
            raise ConfigError("world.split needs 3 ratios")


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    stage1: RegressionStageConfig = field(default_factory=RegressionStageConfig)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    stage3: RegressionStageConfig = field(default_factory=RegressionStageConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    strategy: str = "coarse"
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    run_root: str = "runs"

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got '{self.strategy}'"
            )
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        for section in (
            self.data, self.model, self.stage1, self.stage2, self.stage3,
            self.ablation,
        ):
            section.validate()


# ---------------------------------------------------------------------------
# Dict round trips
# ---------------------------------------------------------------------------

_TUPLE_FIELDS = {"t_range", "split", "label_histogram", "seeds"}


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-ready nested dict (tuples become lists)."""
    return json.loads(json.dumps(asdict(cfg)))


def _build(cls, value, path: str):
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be an object")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, sub in value.items():
        if key not in known:
            raise ConfigError(f"unknown config key '{path}.{key}'".lstrip("."))
        target = {
            "world": WorldConfig,
            "pairing": PairingSpec,
            "augment": AugmentConfig,
            "data": DataConfig,
            "model": ModelConfig,
            "stage1": RegressionStageConfig,
            "stage2": Stage2Config,
            "stage3": RegressionStageConfig,
            "ablation": AblationConfig,
        }.get(key)
        if target is not None and isinstance(sub, dict):
            kwargs[key] = _build(target, sub, f"{path}.{key}")
        elif key in _TUPLE_FIELDS and isinstance(sub, list):
            kwargs[key] = tuple(sub)
        else:
            kwargs[key] = sub
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value under '{path}': {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    """Parse and validate a config document; unknown keys are rejected."""
    cfg = _build(RunConfig, doc, "")
    cfg.validate()
    return cfg


def parse_override(text: str) -> tuple[list[str], object]:
    """'a.b.c=value' -> (path, parsed value); values parse as JSON or string."""
    if "=" not in text:
        raise ConfigError(f"override '{text}' must look like key.path=value")
    key, raw = text.split("=", 1)
    path = [p for p in key.strip().split(".") if p]
    if not path:
        raise ConfigError(f"override '{text}' has an empty key path")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply dotted-path overrides onto a config dict (copy returned).

    Paths must address keys that exist in the default schema; the resulting
    document still goes through config_from_dict for full validation.
    """
    result = json.loads(json.dumps(doc))
    defaults = config_to_dict(RunConfig())
    for text in overrides:
        path, value = parse_override(text)
        schema = defaults
        node = result
        for i, part in enumerate(path):
            if not isinstance(schema, dict) or part not in schema:
                raise ConfigError(f"unknown config key '{'.'.join(path)}'")
            schema = schema[part]
            if i == len(path) - 1:
                node[part] = value
            else:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(
                        f"cannot override '{'.'.join(path)}': "
                        f"'{part}' is not an object"
                    )
    return result


def run_id_for(resolved: dict, seed: int | None = None) -> str:
    """Stable 12-hex id from the resolved config (plus an optional seed)."""
    payload = {"config": resolved}
    if seed is not None:
        payload["seed"] = seed
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
