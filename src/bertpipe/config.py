"""Pipeline configuration: parse, default-fill, validate.

One YAML file drives the whole pipeline. The schema is deliberately closed:
every key that is not part of it is rejected, so a typo like ``NUM_STEP``
fails loudly instead of silently falling back to a default.

Section and key names are matched case-insensitively (configs conventionally
use upper case, e.g. ``PRETRAIN.NUM_STEPS``). Values absent from the file
always take the documented defaults, so an empty document parses to exactly
``get_default_config()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, NamedTuple

import yaml


class ConfigParseError(ValueError):
    """Malformed YAML. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigValidationError(ValueError):
    """Structurally invalid config: unknown key or wrong value type."""

    def __init__(self, key_path: str, message: str):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}")


class Violation(NamedTuple):
    """One invariant violation found by :func:`validate` (data, not an error)."""

    key_path: str
    message: str


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


@dataclass(frozen=True)
class PretrainConfig:
    enabled: bool = True
    num_steps: int = 23000


@dataclass(frozen=True)
class FinetuneConfig:
    enabled: bool = True


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
    "SYSTEM": ("system", SystemConfig),
    "WANDB": ("wandb", WandbConfig),
    "DATASET": ("dataset", DatasetConfig),
    "PRETRAIN": ("pretrain", PretrainConfig),
    "FINETUNE": ("finetune", FinetuneConfig),
    "RESULT_COLLECTION": ("result_collection", ResultCollectionConfig),
    "TOKENIZER": ("tokenizer", TokenizerConfig),
}


def get_default_config() -> PipelineConfig:
    """The documented default configuration: all stages enabled, no datasets."""
    return PipelineConfig()


def _coerce_scalar(path: str, value: Any, target: type) -> Any:
    if target is bool:
        if isinstance(value, bool):
            return value
        raise ConfigValidationError(path, f"expected a boolean, got {value!r}")
    if target is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigValidationError(path, f"expected an integer, got {value!r}")
    if target is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigValidationError(path, f"expected a number, got {value!r}")
    if target is str:
        if isinstance(value, str):
            return value
        raise ConfigValidationError(path, f"expected a string, got {value!r}")
    raise AssertionError(f"unhandled scalar type {target}")


def _coerce_field(path: str, name: str, value: Any) -> Any:
    """Coerce one section field against its schema type."""
    if name == "api_key" or name == "id":
        if value is None:
            return None
        return _coerce_scalar(path, value, str)
    if name == "customized_datasets":
        if value is None:
            return ()
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigValidationError(path, f"expected a list of paths, got {value!r}")
        return tuple(value)
    if name == "huggingface_datasets":
        if value is None:
            return ()
        if not isinstance(value, list):
            raise ConfigValidationError(path, f"expected a list of [name, split] pairs, got {value!r}")
        pairs = []
        for item in value:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(isinstance(x, str) for x in item)
            ):
                raise ConfigValidationError(
                    path, f"expected a [name, split] pair of strings, got {item!r}"
                )
            pairs.append((item[0], item[1]))
        return tuple(pairs)
    if name == "enabled":
        return _coerce_scalar(path, value, bool)
    if name in ("num_gpus", "num_steps"):
        return _coerce_scalar(path, value, int)
    if name == "max_memory_in_gb":
        return _coerce_scalar(path, value, float)
    if name == "name_or_path":
        return _coerce_scalar(path, value, str)
    raise AssertionError(f"unhandled field {name}")


def _parse_section(section_name: str, cls: type, data: Any) -> Any:
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigValidationError(section_name, f"expected a mapping, got {data!r}")
    known = {f.name.upper(): f.name for f in fields(cls)}
    kwargs: dict[str, Any] = {}
    for raw_key, value in data.items():
        key = str(raw_key).upper()
        if key not in known:
            raise ConfigValidationError(f"{section_name}.{raw_key}", "unknown key")
        name = known[key]
        if name in kwargs:
            raise ConfigValidationError(f"{section_name}.{raw_key}", "duplicate key")
        kwargs[name] = _coerce_field(f"{section_name}.{key}", name, value)
    return cls(**kwargs)


def parse_config(yaml_text: str) -> PipelineConfig:
    """Parse YAML text into a config, filling every absent key with its default.

    Raises:
        ConfigParseError: the text is not well-formed YAML.
        ConfigValidationError: unknown key or type mismatch, naming the key path.
    """
    try:
        data = yaml.safe_load(yaml_text)
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


def validate(config: PipelineConfig) -> list[Violation]:
    """Check cross-field invariants. Empty list means the config is runnable."""
    violations: list[Violation] = []
    if config.system.num_gpus < 1:
        violations.append(Violation("SYSTEM.NUM_GPUS", "must be a positive count"))
    if config.system.max_memory_in_gb <= 0:
        violations.append(Violation("SYSTEM.MAX_MEMORY_IN_GB", "must be > 0"))
    if config.dataset.enabled:
        if not config.dataset.customized_datasets and not config.dataset.huggingface_datasets:
            violations.append(
                Violation(
                    "DATASET",
                    "dataset stage is enabled but neither CUSTOMIZED_DATASETS "
                    "nor HUGGINGFACE_DATASETS lists a corpus",
                )
            )
    if config.pretrain.enabled and config.pretrain.num_steps < 1:
        violations.append(Violation("PRETRAIN.NUM_STEPS", "must be >= 1"))
    if not config.tokenizer.name_or_path:
        violations.append(Violation("TOKENIZER.NAME_OR_PATH", "must be non-empty"))
    return violations


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
            if value is None:
                continue
            if f.name == "huggingface_datasets":
                value = [list(pair) for pair in value]
            elif isinstance(value, tuple):
                value = list(value)
            body[f.name.upper()] = value
        tree[section_name] = body
    return yaml.safe_dump(tree, sort_keys=False, default_flow_style=False)


def with_stage_flags(config: PipelineConfig, **enabled: bool | None) -> PipelineConfig:
    """Copy of the config with some stage-enable flags overridden (CLI single-stage runs).

    Each keyword names a section that has an ``enabled`` flag; None leaves it as is.
    """
    for section, flag in enabled.items():
        current = getattr(config, section, None)
        if not hasattr(current, "enabled"):
            raise TypeError(f"not a stage section: {section!r}")
        if flag is not None:
            config = replace(config, **{section: replace(current, enabled=flag)})
    return config
