"""Run configuration: dataclasses, JSON round trips, and override handling.

A config document is one nested JSON object. CLI overrides are dotted-path
key=value pairs validated against the schema; the resolved config, paths
aside (run_record), is persisted with every run and hashed into its id.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .augment import AugmentConfig
from .contrastive import DEFAULT_TAU, PairingSpec
from .data import LABEL_MAX, LABEL_MIN
from .errors import ConfigError, ParameterError
from .synthetic import WorldConfig


@dataclass
class ModelConfig:
    hidden_dim: int = 320
    embed_dim: int = 128
    dropout: float = 0.1

    def validate(self) -> None:
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("hidden_dim and embed_dim must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class RegressionStageConfig:
    """Stage-1 and stage-3 settings (identical by default)."""

    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 10
    huber_delta: float = 0.5
    weight_decay: float = 0.01

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
class PairingConfig:
    """Stage-2 pairing parameters; the rule itself is the run's `strategy`."""

    alpha: float = 0.5
    beta: float = 1.5
    tau: float | None = None

    def spec(self, strategy: str) -> PairingSpec:
        return PairingSpec(
            strategy=strategy, alpha=self.alpha, beta=self.beta, tau=self.tau
        )

    def validate(self) -> None:
        # The values mean the same under every rule; check them under the default.
        self.spec(PairingSpec.strategy).validate()


@dataclass
class Stage2Config:
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 2
    batch_size: int = 64
    gamma: float = 1.0
    var_weight: float = 0.1
    pairing: PairingConfig = field(default_factory=PairingConfig)
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
    assumed_dysarthric_label: float = LABEL_MAX  # pool label when stage 1 is skipped

    def validate(self) -> None:
        if not LABEL_MIN <= self.assumed_dysarthric_label <= LABEL_MAX:
            raise ConfigError(f"assumed_dysarthric_label must be in [{LABEL_MIN:g}, {LABEL_MAX:g}]")


@dataclass
class DataConfig:
    root: str = "data"
    world: WorldConfig = field(default_factory=WorldConfig)

    def validate(self) -> None:
        for name, spec in self.world.specs().items():
            try:
                spec.validate()
            except ParameterError as exc:
                raise ConfigError(f"data.world corpus '{name}': {exc}") from exc
        if len(self.world.split) != 3:
            raise ConfigError("world.split needs 3 ratios")
        if self.world.seed < 0:
            raise ConfigError(f"data.world.seed must be >= 0, got {self.world.seed}")


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
        if self.strategy != "baseline" and self.strategy not in DEFAULT_TAU:
            raise ConfigError(
                f"strategy must be 'baseline' or one of {tuple(DEFAULT_TAU)}, "
                f"got '{self.strategy}'"
            )
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if min(self.seed, *self.seeds) < 0:
            raise ConfigError(
                f"seed and seeds must be >= 0, got {self.seed} and {list(self.seeds)}"
            )
        for section in (
            self.data, self.model, self.stage1, self.stage2, self.stage3,
            self.ablation,
        ):
            section.validate()


# ---------------------------------------------------------------------------
# Dict round trips
# ---------------------------------------------------------------------------

def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-ready nested dict (tuples become lists)."""
    return json.loads(json.dumps(asdict(cfg)))


def _fits(hint, value) -> bool:
    """Whether a JSON value fits a field annotation: bool is not an int, an
    int is a float, a tuple is a list of its element types."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis and isinstance(value, list):
            args = args[:1] * len(value)
        return isinstance(value, list) and len(args) == len(value) and all(map(_fits, args, value))
    if args:  # X | None
        return any(_fits(arg, value) for arg in args)
    return type(value) is hint or (hint is float and type(value) is int)


def from_json(cls, value, path: str):
    """Instantiate dataclass `cls` from a JSON object; nested sections, tuple
    fields and the type of every value come from the field annotations. A
    key `cls` lacks or a value that does not fit raises ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{path.lstrip('.')}' must be an object")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, sub in value.items():
        where = f"{path}.{key}".lstrip(".")
        if key not in known:
            raise ConfigError(f"unknown config key '{where}'")
        hint = hints[key]
        if is_dataclass(hint):
            kwargs[key] = from_json(hint, sub, where)
        elif not _fits(hint, sub):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"'{where}' must be {name}, got {json.dumps(sub)}")
        else:
            kwargs[key] = tuple(sub) if isinstance(sub, list) else sub
    return cls(**kwargs)


def config_from_dict(doc: dict) -> RunConfig:
    """Parse and validate a config document; unknown keys are rejected."""
    cfg = from_json(RunConfig, doc, "")
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
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
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


def run_record(cfg: RunConfig) -> dict:
    """What a run computes: the resolved config without `data.root` and
    `run_root`, which say where its files live. Checkpoints and config.json
    record it, and run_id_for hashes it, so a run keeps its id and its bytes,
    and resumes, after either moves."""
    record = config_to_dict(cfg)
    del record["run_root"], record["data"]["root"]
    return record


def run_id_for(record: dict, seed: int | None = None) -> str:
    """Stable 12-hex id of a run record (plus an optional seed)."""
    payload = {"config": record} if seed is None else {"config": record, "seed": seed}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
