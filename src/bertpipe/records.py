"""What the stage table reads to decide whether a stage runs or is skipped.

A re-run of a finished pipeline needs only this module: the records each
stage digest hashes (shard plan, masking policy, LR schedule recipe,
early-stop policy, finetune grid), the on-disk names and format versions of
the stage outputs, and the three readers the digests and the dataset id use.
Each record lives here with its error class and defaults; the stage modules
(``sharding``, ``instances``, ``schedule``, ``trainer``, ``search``,
``collect``, ``ingest``, ``tokenization``) import them back, so either name
works. A record's check sets ``field`` on its error. ``shard_plan``,
``masking_policy``, ``pretrain_schedule`` and ``search_space`` build the
records from a config: for the digests, the stages and ``config.validate``.

META.yaml is read with libyaml (``yaml.CSafeLoader``) when PyYAML has it,
and with the pure-Python ``SafeLoader`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any

import yaml

SHARD_FORMAT_VERSION = 2
INSTANCE_FORMAT_VERSION = 4
# Instance files store max_seq_length and each window length as u16.
MAX_SEQ_LENGTH_LIMIT = 0xFFFF
META_NAME = "META.yaml"
RESULT_FILE = "RESULT.tsv"
PREDICTIONS_FILE = "predictions.tsv"
RUNS_INDEX = "RUNS.tsv"
SUBMISSION_ZIP_NAME = "glue_submission.zip"

MIN_MEMORY_BYTES = 16 * 2**20
TRAIN, TEST = "train", "test"

DEFAULT_SEED = 42  # keys every random draw: split, shard order, masks, pretraining
DEFAULT_DECAY_RATIO = 2 ** -0.5

# libyaml parses a large META.yaml several times faster than pure-Python PyYAML.
_META_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ShardError(Exception):
    """Sharding cannot proceed (bad plan, oversized document, I/O failure)."""


class InstanceFileError(Exception):
    """An instance file is missing, truncated, or malformed."""


class ScheduleError(ValueError):
    """Invalid schedule parameters or out-of-range step index."""


class SearchError(ValueError):
    """Invalid search configuration (unknown task, empty grid, STILT cycle)."""


class IngestError(Exception):
    """A corpus could not be read (missing path, bad encoding, ...)."""


class VocabularyError(Exception):
    """Vocabulary file missing, malformed, or lacking a special token."""


def _reject_if(bad: bool, error: type[Exception], field: str, message: str) -> None:
    """Raise ``error(message)`` if ``bad``, its ``field`` attribute naming the field checked."""
    if bad:
        exc = error(message)
        exc.field = field
        raise exc


@dataclass(frozen=True)
class ShardPlan:
    """Sharding parameters; memory budget in bytes (gigabytes are 2^30 bytes)."""

    num_train_shards: int = 256
    num_test_shards: int = 128
    frac_test: float = 0.005
    max_memory_bytes: int = 64 * 2**30
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for field in ("num_train_shards", "num_test_shards"):
            _reject_if(getattr(self, field) < 1, ShardError, field, "shard counts must be >= 1")
        _reject_if(not 0 <= self.frac_test < 1, ShardError, "frac_test",
                   "frac_test must lie in [0, 1)")
        _reject_if(self.max_memory_bytes < MIN_MEMORY_BYTES, ShardError, "max_memory_bytes",
                   f"memory budget {self.max_memory_bytes} below the "
                   f"{MIN_MEMORY_BYTES}-byte floor; refusing to start")

    def shards_for(self, split: str) -> int:
        return self.num_train_shards if split == TRAIN else self.num_test_shards


@dataclass(frozen=True)
class MaskingPolicy:
    """The settable static-masking parameters (defaults follow the standard BERT recipe).

    The 80/10/10 replacement split and the shortest window kept are fixed:
    they are constants of ``instances``.
    """

    masked_lm_prob: float = 0.15
    max_predictions_per_seq: int = 20
    max_seq_length: int = 128
    dup_factor: int = 10
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _reject_if(not 0 < self.masked_lm_prob < 1, ValueError, "masked_lm_prob",
                   "masked_lm_prob must lie in (0, 1)")
        _reject_if(self.max_seq_length > MAX_SEQ_LENGTH_LIMIT, ValueError, "max_seq_length",
                   f"max_seq_length {self.max_seq_length} exceeds {MAX_SEQ_LENGTH_LIMIT}, the "
                   f"largest instance file format version {INSTANCE_FORMAT_VERSION} can store")
        _reject_if(self.max_predictions_per_seq < 1, ValueError, "max_predictions_per_seq",
                   f"max_predictions_per_seq must be >= 1, not {self.max_predictions_per_seq}")
        _reject_if(self.max_predictions_per_seq > self.max_seq_length - 2, ValueError,
                   "max_predictions_per_seq",
                   "max_predictions_per_seq must be <= max_seq_length - 2")
        _reject_if(self.dup_factor < 1, ValueError, "dup_factor", "dup_factor must be >= 1")

    @property
    def window_size(self) -> int:
        return self.max_seq_length - 2


@dataclass(frozen=True)
class ScheduleSpec:
    """The recipe of a learning-rate schedule; the caller passes the step budget.

    The same spec serves any budget: the post-warmup horizon T is worked out
    from the budget at each lookup, not stored here.
    """

    kind: str = "esd"  # "esd" | "linear"
    eta0: float = 2e-3
    r: float = DEFAULT_DECAY_RATIO
    ell: int = 6
    warmup_proportion: float = 0.06

    def __post_init__(self):
        _reject_if(self.kind not in ("esd", "linear"), ScheduleError, "kind",
                   f"unknown schedule kind: {self.kind!r}")
        _reject_if(not (math.isfinite(self.eta0) and self.eta0 > 0), ScheduleError, "eta0",
                   f"eta0 must be positive and finite, not {self.eta0!r}")
        _reject_if(not 0 < self.r < 1, ScheduleError, "r", "decay ratio r must lie in (0, 1)")
        _reject_if(self.ell < 1, ScheduleError, "ell", "ell must be a positive integer")
        _reject_if(not 0 <= self.warmup_proportion < 1, ScheduleError, "warmup_proportion",
                   "warmup_proportion must lie in [0, 1)")

    @property
    def r_squared(self) -> Fraction:
        """r^2 as an exact rational: 1/2 for the default r = 2^-0.5, else exact in r's float."""
        return Fraction(1, 2) if self.r == DEFAULT_DECAY_RATIO else Fraction(self.r) ** 2


def pretrain_schedule(config) -> ScheduleSpec:
    """The schedule a pipeline config names: ``PRETRAIN.SCHEDULE`` and ``ETA0``.

    Its decay ratio, ``ell`` and warmup share are the defaults, which is all
    a pretraining job's argv can carry.
    """
    return ScheduleSpec(kind=config.pretrain.schedule, eta0=config.pretrain.eta0)


def warmup_steps(overall_steps: int, warmup_proportion: float) -> int:
    """Number of linear warmup steps for an overall budget."""
    return round(warmup_proportion * overall_steps)


@dataclass(frozen=True)
class BenchmarkPreset:
    """A (budget, peak rate) pairing for a standard pretraining run; ``PRESETS`` names it."""

    overall_steps: int
    eta0: float


# 23k-step runs pair with the higher default peak; the longer 57.5k-step runs
# use the smaller, more stable peak rate.
PRESETS: dict[str, BenchmarkPreset] = {
    "bert-base-benchmark": BenchmarkPreset(23000, 2e-3),
    "bert-large-benchmark": BenchmarkPreset(57500, 1e-3),
}


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Stop a run that is both old enough and still diverged."""

    enabled: bool = True
    early_stop_time_minutes: float = 180.0
    early_stop_eval_loss: float = 6.0


# Each grid dimension: (field, what one of its values is called in an error).
_GRID_FIELDS = (("learning_rates", "learning rate"), ("batch_sizes", "batch size"),
                ("epochs", "epoch count"))


@dataclass(frozen=True)
class SearchSpace:
    learning_rates: tuple[float, ...] = (1e-5, 3e-5, 5e-5, 8e-5)
    batch_sizes: tuple[int, ...] = (16, 32)
    epochs: tuple[int, ...] = (3, 5)

    def __post_init__(self):
        for field, _ in _GRID_FIELDS:
            _reject_if(not getattr(self, field), SearchError, field,
                       "hyperparameter grid has an empty dimension")
        for lr in self.learning_rates:
            _reject_if(not (math.isfinite(lr) and lr > 0), SearchError, "learning_rates",
                       f"learning rate must be positive and finite, not {lr!r}")
        for field, name in _GRID_FIELDS[1:]:
            for value in getattr(self, field):
                _reject_if(isinstance(value, bool) or not isinstance(value, int) or value < 1,
                           SearchError, field, f"{name} must be a positive integer, not {value!r}")
        # Two equal values would share one run directory and both win their task.
        for field, name in _GRID_FIELDS:
            values = getattr(self, field)
            for i, value in enumerate(values):
                _reject_if(value in values[:i], SearchError, field,
                           f"{name} {value!r} is repeated in the grid")

    def __len__(self) -> int:
        return len(self.learning_rates) * len(self.batch_sizes) * len(self.epochs)


def _record(cls: type, section: Any, **more: Any) -> Any:
    """A record from the config section's keys of the same names, and ``more``."""
    return cls(**{f.name: getattr(section, f.name) for f in fields(cls)
                  if hasattr(section, f.name)}, **more)


def shard_plan(config) -> ShardPlan:
    """The shard plan of a pipeline config: its ``DATASET`` keys and ``SYSTEM.MAX_MEMORY_IN_GB``."""
    memory = config.system.max_memory_in_gb * 2**30
    _reject_if(not math.isfinite(memory), ShardError, "max_memory_bytes",
               f"memory budget {config.system.max_memory_in_gb!r} GB is not a finite byte count")
    return _record(ShardPlan, config.dataset, max_memory_bytes=int(memory))


def masking_policy(config) -> MaskingPolicy:
    """The masking policy of a pipeline config's ``DATASET`` keys."""
    return _record(MaskingPolicy, config.dataset)


def search_space(config) -> SearchSpace:
    """The finetune grid of a pipeline config's ``FINETUNE`` keys."""
    return _record(SearchSpace, config.finetune)


def load_meta(processed_dir: str | Path) -> dict:
    """Read META.yaml of a processed dataset directory."""
    meta_path = Path(processed_dir) / META_NAME
    if not meta_path.is_file():
        raise InstanceFileError(f"no {META_NAME} under {processed_dir}")
    with open(meta_path, encoding="utf-8") as fh:
        return yaml.load(fh, Loader=_META_LOADER)


def resolve_vocab(name_or_path: str) -> Path:
    """Resolve TOKENIZER.NAME_OR_PATH to a vocabulary file.

    A filesystem path wins; otherwise the name is looked up among the
    vocabularies bundled with the package (``<name>.txt``).
    """
    p = Path(name_or_path)
    if p.is_file():
        return p
    bundled = resources.files("bertpipe") / "vocabs" / f"{name_or_path}.txt"
    try:
        if bundled.is_file():
            return Path(str(bundled))
    except OSError:
        pass
    raise VocabularyError(
        f"cannot resolve tokenizer vocabulary {name_or_path!r}: "
        f"not a file and no bundled vocabulary of that name"
    )


def scan_local(directory: str | Path) -> list[Path]:
    """All regular files under ``directory`` (recursive), sorted by relative path."""
    root = Path(directory)
    if not root.is_dir():
        raise IngestError(f"corpus directory does not exist or is not readable: {root}")
    try:
        files = [p for p in root.rglob("*") if p.is_file()]
    except OSError as exc:
        raise IngestError(f"cannot scan corpus directory {root}: {exc}") from exc
    files.sort(key=lambda p: p.relative_to(root).as_posix())
    return files
