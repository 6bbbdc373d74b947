"""Pipeline configuration: parse, default-fill, validate.

One YAML file drives the whole pipeline. The schema is deliberately closed:
every key that is not part of it is rejected, so a typo like ``NUM_STEP``
fails loudly instead of silently falling back to a default.

Section and key names are matched case-insensitively (configs conventionally
use upper case, e.g. ``PRETRAIN.NUM_STEPS``). Each value is coerced by the
type its section dataclass declares for the field, so a new field needs only
its declaration. Values absent from the file always take the documented
defaults, so an empty document parses to exactly ``get_default_config()``. A
key that a stage record also declares (``ShardPlan``, ``MaskingPolicy``,
``ScheduleSpec``, ``SearchSpace``) takes that record's default. Parsing
checks types; :func:`validate` builds every enabled stage's records, and
reports a value one rejects under its ``SECTION.KEY``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from . import glue
from .records import (
    DEFAULT_SEED, MaskingPolicy, ScheduleSpec, SearchSpace, ShardError, ShardPlan,
    masking_policy, pretrain_schedule, search_space, shard_plan,
)


class _Loader(yaml.SafeLoader):
    """Reads YAML 1.2's exponent floats too: ``1e-3``, without a dot, is a number, not text."""


class _Dumper(yaml.SafeDumper):
    """Quotes the text that ``_Loader`` would read as a number, such as ``'1e5'``."""


for _yaml_class in (_Loader, _Dumper):  # subclass-local: yaml.SafeLoader stays YAML 1.1
    _yaml_class.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))


class ConfigParseError(ValueError):
    """Malformed YAML. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigValidationError(ValueError):
    """An invalid config value (unknown key, wrong type, out of range), naming its key path."""

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}")


@dataclass(frozen=True)
class SystemConfig:
    num_gpus: int = 1
    max_memory_in_gb: float = 64.0


@dataclass(frozen=True)
class WandbConfig:
    # Opaque passthrough; absence means no experiment tracking is configured.
    api_key: str | None = None


@dataclass(frozen=True)
class DatasetConfig:
    enabled: bool = True
    # Optional manual dataset identifier; empty/absent means derive it from content.
    id: str | None = None
    customized_datasets: tuple[str, ...] = ()
    huggingface_datasets: tuple[tuple[str, str], ...] = ()
    seed: int = DEFAULT_SEED  # also the pretraining job's --seed
    num_train_shards: int = ShardPlan.num_train_shards
    num_test_shards: int = ShardPlan.num_test_shards
    frac_test: float = ShardPlan.frac_test
    dup_factor: int = MaskingPolicy.dup_factor
    masked_lm_prob: float = MaskingPolicy.masked_lm_prob
    max_seq_length: int = MaskingPolicy.max_seq_length
    max_predictions_per_seq: int = MaskingPolicy.max_predictions_per_seq


@dataclass(frozen=True)
class PretrainConfig:
    enabled: bool = True
    num_steps: int = 23000
    schedule: str = ScheduleSpec.kind  # "esd" | "linear"
    eta0: float = ScheduleSpec.eta0


@dataclass(frozen=True)
class FinetuneConfig:
    enabled: bool = True
    tasks: tuple[str, ...] = glue.TASK_NAMES
    # The search grid: every (learning rate, batch size, epochs) point per task.
    learning_rates: tuple[float, ...] = SearchSpace.learning_rates
    batch_sizes: tuple[int, ...] = SearchSpace.batch_sizes
    epochs: tuple[int, ...] = SearchSpace.epochs


@dataclass(frozen=True)
class ResultCollectionConfig:
    enabled: bool = True


@dataclass(frozen=True)
class TokenizerConfig:
    name_or_path: str = "bert-large-uncased"


@dataclass(frozen=True)
class PipelineConfig:
    """Validated, immutable form of the YAML configuration tree."""

    system: SystemConfig = field(default_factory=SystemConfig)
    wandb: WandbConfig = field(default_factory=WandbConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    result_collection: ResultCollectionConfig = field(default_factory=ResultCollectionConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)


# YAML section name -> (attribute on PipelineConfig, section dataclass).
_SECTIONS: dict[str, tuple[str, type]] = {
    f.name.upper(): (f.name, f.default_factory) for f in fields(PipelineConfig)}


def get_default_config() -> PipelineConfig:
    """The documented default configuration: all stages enabled, no datasets."""
    return PipelineConfig()


def _checked(path: str, value: Any, ok: bool, expected: str) -> Any:
    if not ok:
        raise ConfigValidationError(path, f"expected {expected}, got {value!r}")
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


def _list_of(is_item: Callable[[Any], bool], expected: str, convert: Callable = lambda v: v):
    """Coercion of a YAML list (or a tuple, from a flag) whose items pass ``is_item``."""
    def coerce(path: str, value: Any) -> tuple:
        if value is None:
            return ()
        ok = isinstance(value, (list, tuple)) and all(is_item(v) for v in value)
        return tuple(convert(v) for v in _checked(path, value, ok, expected))
    return coerce


# A section field's declared type, as written (a string: annotations are
# postponed), -> coercion of its YAML value.
_COERCE_BY_TYPE: dict[str, Callable[[str, Any], Any]] = {
    "bool": lambda path, v: _checked(path, v, isinstance(v, bool), "a boolean"),
    "int": lambda path, v: _checked(path, v, _is_int(v), "an integer"),
    "float": lambda path, v: float(_checked(path, v, _is_number(v), "a number")),
    "str": lambda path, v: _checked(path, v, _is_str(v), "a string"),
    "str | None": lambda path, v: None if v is None else _checked(path, v, _is_str(v), "a string"),
    "tuple[str, ...]": _list_of(_is_str, "a list of strings"),
    "tuple[int, ...]": _list_of(_is_int, "a list of integers"),
    "tuple[float, ...]": _list_of(_is_number, "a list of numbers", float),
    "tuple[tuple[str, str], ...]": _list_of(
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_str, v)),
        "a list of [name, split] pairs of strings", tuple),
}


def _parse_section(section_name: str, cls: type, data: Any) -> Any:
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigValidationError(section_name, f"expected a mapping, got {data!r}")
    known = {f.name.upper(): f for f in fields(cls)}
    kwargs: dict[str, Any] = {}
    for raw_key, value in data.items():
        key = str(raw_key).upper()
        if key not in known:
            raise ConfigValidationError(f"{section_name}.{raw_key}", "unknown key")
        f = known[key]
        if f.name in kwargs:
            raise ConfigValidationError(f"{section_name}.{raw_key}", "duplicate key")
        kwargs[f.name] = _COERCE_BY_TYPE[f.type](f"{section_name}.{key}", value)
    return cls(**kwargs)


def parse_config(yaml_text: str) -> PipelineConfig:
    """Parse YAML text into a config, filling every absent key with its default.

    Raises:
        ConfigParseError: the text is not well-formed YAML.
        ConfigValidationError: unknown key or type mismatch, naming the key path.
    """
    try:
        data = yaml.load(yaml_text, Loader=_Loader)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigParseError(str(exc).replace("\n", " "), line) from exc

    if data is None:
        return get_default_config()
    if not isinstance(data, dict):
        raise ConfigValidationError("<root>", f"expected a mapping of sections, got {data!r}")

    sections: dict[str, Any] = {}
    for raw_key, value in data.items():
        key = str(raw_key).upper()
        if key not in _SECTIONS:
            raise ConfigValidationError(str(raw_key), "unknown section")
        attr, cls = _SECTIONS[key]
        if attr in sections:
            raise ConfigValidationError(str(raw_key), "duplicate section")
        sections[attr] = _parse_section(key, cls, value)
    return PipelineConfig(**sections)


def load_config(path: str | Path) -> PipelineConfig:
    """Read and parse a YAML config file."""
    return parse_config(Path(path).read_text(encoding="utf-8"))


# The records each stage builds from the config, by the section that enables it.
_STAGE_RECORDS = (("dataset", shard_plan), ("dataset", masking_policy),
                  ("pretrain", pretrain_schedule), ("finetune", search_space))
# A record field that no key of its own name sets -> the key that sets it.
_KEY_OF_FIELD = {"max_memory_bytes": "SYSTEM.MAX_MEMORY_IN_GB", "kind": "PRETRAIN.SCHEDULE"}


def validate(config: PipelineConfig) -> list[ConfigValidationError]:
    """Every reason the config cannot run, each naming its key; empty: runnable."""
    errors: list[ConfigValidationError] = []
    if config.system.num_gpus < 1:
        errors.append(ConfigValidationError("SYSTEM.NUM_GPUS", "must be a positive count"))
    dataset = config.dataset
    if dataset.enabled and not dataset.customized_datasets and not dataset.huggingface_datasets:
        errors.append(ConfigValidationError(
            "DATASET", "dataset stage is enabled but neither CUSTOMIZED_DATASETS "
                       "nor HUGGINGFACE_DATASETS lists a corpus"))
    if config.finetune.enabled or config.result_collection.enabled:
        errors += [ConfigValidationError("FINETUNE.TASKS", f"unknown GLUE task {task!r}")
                   for task in config.finetune.tasks if task not in glue.TASKS]
    if config.pretrain.enabled and config.pretrain.num_steps < 1:
        errors.append(ConfigValidationError("PRETRAIN.NUM_STEPS", "must be >= 1"))
    if not config.tokenizer.name_or_path:
        errors.append(ConfigValidationError("TOKENIZER.NAME_OR_PATH", "must be non-empty"))
    for section, build in _STAGE_RECORDS:
        if not getattr(config, section).enabled:
            continue
        try:
            build(config)
        except (ShardError, ValueError) as exc:
            field = getattr(exc, "field", None)
            key = section.upper() if field is None else _KEY_OF_FIELD.get(
                field, f"{section.upper()}.{field.upper()}")
            errors.append(ConfigValidationError(key, str(exc)))
    return errors


def _yaml_value(value: Any) -> Any:
    """A field value with every tuple, nested ones too, as a YAML list."""
    return [_yaml_value(v) for v in value] if isinstance(value, tuple) else value


def serialize_config(config: PipelineConfig) -> str:
    """Canonical YAML form (fixed section order, upper-case keys).

    ``parse_config(serialize_config(c)) == c`` for every valid config; the
    pipeline echoes this into the run log directory for provenance.
    """
    tree: dict[str, Any] = {}
    for section_name, (attr, _) in _SECTIONS.items():
        section = getattr(config, attr)
        body: dict[str, Any] = {}
        for f in fields(section):
            value = getattr(section, f.name)
            if value is not None:
                body[f.name.upper()] = _yaml_value(value)
        tree[section_name] = body
    return yaml.dump(tree, Dumper=_Dumper, sort_keys=False, default_flow_style=False)


def with_overrides(config: PipelineConfig, values: Mapping[str, Any]) -> PipelineConfig:
    """Copy of the config with some keys replaced (CLI flags), each coerced as the YAML is.

    Each key is a path as the YAML spells it, ``"SECTION.KEY"``.
    """
    for key_path, value in values.items():
        section_name, _, key = key_path.partition(".")
        attr, cls = _SECTIONS.get(section_name, (None, None))
        f = next((f for f in fields(cls) if f.name.upper() == key), None) if cls else None
        if f is None:
            raise ConfigValidationError(key_path, "unknown key")
        value = _COERCE_BY_TYPE[f.type](key_path, value)
        config = replace(config, **{attr: replace(getattr(config, attr), **{f.name: value})})
    return config
