"""What the stage table reads to decide whether a stage runs or is skipped.

A re-run of a finished pipeline needs only this module: the records each
stage digest hashes (shard plan, masking policy, LR schedule recipe,
early-stop policy, finetune grid), the on-disk names and format versions of
the stage outputs, and the three readers the digests and the dataset id use.
Each record lives here with its error class and defaults; the stage modules
(``sharding``, ``instances``, ``schedule``, ``trainer``, ``search``,
``collect``, ``ingest``, ``tokenization``) import them back, so either name
works.

META.yaml is read with libyaml (``yaml.CSafeLoader``) when PyYAML has it,
and with the pure-Python ``SafeLoader`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

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
DEFAULT_ETA0 = 2e-3
DEFAULT_DECAY_RATIO = 2 ** -0.5
DEFAULT_ELL = 6
DEFAULT_WARMUP_PROPORTION = 0.06

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


@dataclass(frozen=True)
class ShardPlan:
    """Sharding parameters; memory budget in bytes (gigabytes are 2^30 bytes)."""

    num_train_shards: int = 256
    num_test_shards: int = 128
    frac_test: float = 0.005
    max_memory_bytes: int = 64 * 2**30
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.num_train_shards < 1 or self.num_test_shards < 1:
            raise ShardError("shard counts must be >= 1")
        if not 0 <= self.frac_test < 1:
            raise ShardError("frac_test must lie in [0, 1)")
        if self.max_memory_bytes < MIN_MEMORY_BYTES:
            raise ShardError(
                f"memory budget {self.max_memory_bytes} below the "
                f"{MIN_MEMORY_BYTES}-byte floor; refusing to start"
            )

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
        if not 0 < self.masked_lm_prob < 1:
            raise ValueError("masked_lm_prob must lie in (0, 1)")
        if self.max_seq_length > MAX_SEQ_LENGTH_LIMIT:
            raise ValueError(
                f"max_seq_length {self.max_seq_length} exceeds {MAX_SEQ_LENGTH_LIMIT}, the "
                f"largest instance file format version {INSTANCE_FORMAT_VERSION} can store")
        if self.max_predictions_per_seq < 1:
            raise ValueError(
                f"max_predictions_per_seq must be >= 1, not {self.max_predictions_per_seq}")
        if self.max_predictions_per_seq > self.max_seq_length - 2:
            raise ValueError("max_predictions_per_seq must be <= max_seq_length - 2")
        if self.dup_factor < 1:
            raise ValueError("dup_factor must be >= 1")

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
    eta0: float = DEFAULT_ETA0
    r: float = DEFAULT_DECAY_RATIO
    ell: int = DEFAULT_ELL
    warmup_proportion: float = DEFAULT_WARMUP_PROPORTION

    def __post_init__(self):
        if self.kind not in ("esd", "linear"):
            raise ScheduleError(f"unknown schedule kind: {self.kind!r}")
        if not (math.isfinite(self.eta0) and self.eta0 > 0):
            raise ScheduleError(f"eta0 must be positive and finite, not {self.eta0!r}")
        if not 0 < self.r < 1:
            raise ScheduleError("decay ratio r must lie in (0, 1)")
        if self.ell < 1:
            raise ScheduleError("ell must be a positive integer")
        if not 0 <= self.warmup_proportion < 1:
            raise ScheduleError("warmup_proportion must lie in [0, 1)")

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
    """A named (budget, peak rate) pairing for a standard pretraining run."""

    name: str
    overall_steps: int
    eta0: float


# 23k-step runs pair with the higher default peak; the longer 57.5k-step runs
# use the smaller, more stable peak rate.
PRESETS: dict[str, BenchmarkPreset] = {
    "bert-base-benchmark": BenchmarkPreset("bert-base-benchmark", 23000, 2e-3),
    "bert-large-benchmark": BenchmarkPreset("bert-large-benchmark", 57500, 1e-3),
}


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Stop a run that is both old enough and still diverged."""

    enabled: bool = True
    early_stop_time_minutes: float = 180.0
    early_stop_eval_loss: float = 6.0


@dataclass(frozen=True)
class SearchSpace:
    learning_rates: tuple[float, ...] = (1e-5, 3e-5, 5e-5, 8e-5)
    batch_sizes: tuple[int, ...] = (16, 32)
    epochs: tuple[int, ...] = (3, 5)

    def __post_init__(self):
        if not self.learning_rates or not self.batch_sizes or not self.epochs:
            raise SearchError("hyperparameter grid has an empty dimension")
        for lr in self.learning_rates:
            if not (math.isfinite(lr) and lr > 0):
                raise SearchError(f"learning rate must be positive and finite, not {lr!r}")
        for name, values in (("batch size", self.batch_sizes), ("epoch count", self.epochs)):
            for value in values:
                if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                    raise SearchError(f"{name} must be a positive integer, not {value!r}")
        # Two equal values would share one run directory and both win their task.
        for name, values in (("learning rate", self.learning_rates),
                             ("batch size", self.batch_sizes), ("epoch count", self.epochs)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise SearchError(f"{name} {value!r} is repeated in the grid")

    def __len__(self) -> int:
        return len(self.learning_rates) * len(self.batch_sizes) * len(self.epochs)


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
