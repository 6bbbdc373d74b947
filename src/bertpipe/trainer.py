"""Trainer jobs and adapters.

GPU training itself is out of scope here; the pipeline builds each job's
argv once, when its output directory and starting checkpoint are known, and
hands the job to a :class:`TrainerAdapter`. The contract, per job:

* The trainer writes under the ``--output_dir`` of its argv, and nowhere
  else, a ``RESULT.tsv`` with the lines ``eval_loss\\t<float>`` and
  ``checkpoint\\t<path>``.
* A finetune job starts from ``--model_name_or_path``: the pretraining
  checkpoint, or the winning checkpoint of its STILT parent task. It also
  writes ``<output_dir>/predictions.tsv`` (``index\\t<label id or value>`` per
  test example) and prints ``final_val_metric\\t<name>\\t<float>`` on stdout;
  the last such line counts.
* Both adapters return the :class:`RunOutcome` that :func:`read_outcome` reads
  from those two outputs. After each finetune job the pipeline writes it,
  with its grid point's task and grid values, to ``<log_dir>/run.json``;
  result collection reads nothing else.

A job is its id, whose first part is its kind, its argv and its log
directory. Every setting, the output directory included, is in the argv: an
external trainer gets it, and both adapters read the output directory from it.

Two adapters ship:

* :class:`ExternalCommandTrainer` launches a real trainer process with the
  job argv, keeps its stdout/stderr under the job's log directory and times
  it. The process must exit 0. ``WANDB.API_KEY`` reaches it in its
  environment, never in the argv, which error messages print.
* :class:`SimulationTrainer` reads the job's argv, as a real trainer would,
  and iterates the steps it sets hermetically, consuming the learning-rate
  schedule and emitting a synthetic eval loss
  ``loss(k) = loss_start * exp(-decay_per_lr * sum_{j<=k} lr_j) + loss_floor``
  so schedule quality is reflected in the outcome. A flag it needs that the
  argv lacks is a :class:`TrainerError` naming the job and the flag. It
  honors the validation cadence and early stopping, is fully deterministic,
  and leaves a per-step TSV, ``steps.tsv``, under the job's log directory.
  Each row is written as its step runs, so memory does not grow with the
  step count, and the file replaces any earlier one only once the job's last
  step is logged. Its ``checkpoint.json``, ``RESULT.tsv`` and
  ``predictions.tsv`` are each replaced whole too. It prints nothing: the
  ``final_val_metric`` line of a finetune job is its stdout text in memory.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

from . import glue
from .atomic import replace_text_when_done, replace_when_done
from .records import PREDICTIONS_FILE, RESULT_FILE, EarlyStopPolicy, pretrain_schedule
from .rng import derive_u64, keyed_uniform
from .schedule import ScheduleSpec, schedule_value

PRETRAIN, FINETUNE = "pretrain", "finetune"

METRIC_LINE_PREFIX = "final_val_metric"
STEP_LOG_HEADER = "step\tlr\tloss\n"  # first line of the simulation's steps.tsv


class TrainerError(Exception):
    """A trainer run failed or violated the adapter contract."""


def check_early_stop(elapsed_minutes: float, eval_loss: float, policy: EarlyStopPolicy) -> bool:
    """True (STOP) iff the run has exceeded the time gate AND the loss is still bad.

    Conjunctive on purpose: the time threshold gives every run a fair chance,
    the loss threshold spares runs that are converging.
    """
    if not policy.enabled:
        return False
    return elapsed_minutes >= policy.early_stop_time_minutes and (
        eval_loss > policy.early_stop_eval_loss
    )


@dataclass(frozen=True)
class TrainerJob:
    """One run: its id (``pretrain/<dataset id>``, ``finetune/<task>/<run>``), argv and log dir.

    The argv carries every setting, ``--output_dir`` included; the adapters
    read only the argv, and a flag they need that is missing is a
    :class:`TrainerError`.
    """

    job_id: str
    argv: tuple[str, ...]
    log_dir: Path

    def __post_init__(self):
        if self.kind not in (PRETRAIN, FINETUNE):
            raise ValueError(f"unknown job kind: {self.kind!r}")

    @property
    def kind(self) -> str:
        """``pretrain`` or ``finetune``: the first part of the job id."""
        return self.job_id.partition("/")[0]

    def arg(self, flag: str) -> str:
        """The value that follows ``flag`` in the argv."""
        try:
            return self.argv[self.argv.index(flag) + 1]
        except (ValueError, IndexError):
            raise TrainerError(f"job {self.job_id}: argv has no {flag} value") from None


@dataclass(frozen=True)
class RunOutcome:
    eval_loss: float
    wall_time_minutes: float
    checkpoint_path: Path
    val_metric: float | None = None
    metric_name: str | None = None


class TrainerAdapter(Protocol):
    def run(self, job: TrainerJob) -> RunOutcome: ...


def format_number(value: float) -> str:
    """``value`` as argv and run-name text: the short ``:g`` form when it reads back exactly."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def run_name(learning_rate: float, batch_size: int, epochs: int) -> str:
    """Name of one finetune grid point: its directory name and simulated-metric key."""
    return f"lr{format_number(learning_rate)}_bs{batch_size}_ep{epochs}"


VALIDATION_BEGIN_PROPORTION = 0.05
VALIDATION_END_PROPORTION = 0.01

# Argument list of the standard pretraining command; the values the config,
# schedule, early-stop policy and seed set are added by build_pretrain_job.
PRETRAIN_STATIC_ARGS: tuple[tuple[str, str | None], ...] = (
    ("--model_type", "bert-mlm"),
    ("--hidden_act", "gelu"),
    ("--hidden_size", "1024"),
    ("--num_hidden_layers", "24"),
    ("--num_attention_heads", "16"),
    ("--intermediate_size", "4096"),
    ("--hidden_dropout_prob", "0.1"),
    ("--attention_probs_dropout_prob", "0.1"),
    ("--encoder_ln_mode", "pre-ln"),
    ("--train_batch_size", "4096"),
    ("--train_micro_batch_size_per_gpu", "32"),
    ("--gradient_clipping", "0.0"),
    ("--optimizer_type", "adamw"),
    ("--weight_decay", "0.01"),
    ("--adam_beta1", "0.9"),
    ("--adam_beta2", "0.98"),
    ("--adam_eps", "1e-6"),
    ("--total_training_time", "24.0"),
    ("--early_exit_time_marker", "24.0"),
    ("--print_steps", "100"),
    ("--num_epochs_between_checkpoints", "10000"),
    ("--job_name", "pretraining_experiment"),
    ("--project_name", "budget-bert-pretraining"),
    ("--validation_epochs", "3"),
    ("--validation_epochs_begin", "1"),
    ("--validation_epochs_end", "1"),
    ("--validation_begin_proportion", str(VALIDATION_BEGIN_PROPORTION)),
    ("--validation_end_proportion", str(VALIDATION_END_PROPORTION)),
    ("--validation_micro_batch", "16"),
    ("--deepspeed", None),
    ("--data_loader_type", "dist"),
    ("--do_validation", None),
    ("--fp16", None),
)


def build_pretrain_job(
    config,
    dataset_id: str,
    dataset_path: Path,
    output_dir: Path,
    log_dir: Path,
    early_stop: EarlyStopPolicy = EarlyStopPolicy(),
) -> TrainerJob:
    """Assemble the pretraining job argv from the config and the early-stop policy.

    The schedule is the config's (``records.pretrain_schedule``), so the argv
    carries all of it; ``--seed`` is ``DATASET.SEED``.
    """
    spec = pretrain_schedule(config)
    argv: list[str] = [
        "--dataset_path", str(dataset_path),
        "--output_dir", str(output_dir),
        "--tokenizer_name", config.tokenizer.name_or_path,
        "--lr", format_number(spec.eta0),
        "--num_steps", str(config.pretrain.num_steps),
        "--num_gpus", str(config.system.num_gpus),
    ]
    if spec.kind == "linear":
        argv += ["--lr_schedule", "time", "--curve", "linear"]
    else:
        argv += ["--lr_schedule", "step", "--curve", spec.kind]
    argv += ["--warmup_proportion", format_number(spec.warmup_proportion)]
    for flag, value in PRETRAIN_STATIC_ARGS:
        argv.append(flag)
        if value is not None:
            argv.append(value)
    if early_stop.enabled:
        argv += ["--use_early_stopping",
                 "--early_stop_time", format_number(early_stop.early_stop_time_minutes),
                 "--early_stop_eval_loss", format_number(early_stop.early_stop_eval_loss)]
    argv += ["--seed", str(config.dataset.seed)]
    return TrainerJob(f"{PRETRAIN}/{dataset_id}", tuple(argv), log_dir)


def build_finetune_argv(checkpoint: str, task: str, output_dir: str,
                        hp: dict[str, Any]) -> tuple[str, ...]:
    """Finetuning argv in the standard run_glue shape, from a grid point's three values."""
    return (
        "--model_name_or_path", checkpoint,
        "--task_name", task,
        "--max_seq_length", "128",
        "--output_dir", output_dir,
        "--overwrite_output_dir",
        "--do_train", "--do_eval",
        "--evaluation_strategy", "steps",
        "--per_device_train_batch_size", str(hp["batch_size"]),
        "--gradient_accumulation_steps", "1",
        "--per_device_eval_batch_size", "32",
        "--learning_rate", format_number(hp["learning_rate"]),
        "--weight_decay", "0.01",
        "--eval_steps", "50",
        "--max_grad_norm", "1.0",
        "--num_train_epochs", str(hp["epochs"]),
        "--lr_scheduler_type", "polynomial",
        "--warmup_steps", "50",
    )


def parse_result_file(output_dir: Path) -> tuple[float, Path]:
    """Read the RESULT.tsv contract file: (eval_loss, a finite float; checkpoint path)."""
    result_path = output_dir / RESULT_FILE
    if not result_path.is_file():
        raise TrainerError(f"trainer did not write {result_path}")
    eval_loss: float | None = None
    checkpoint: Path | None = None
    for line in result_path.read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        if len(parts) != 2:
            continue
        if parts[0] == "eval_loss":
            try:
                eval_loss = float(parts[1])
            except ValueError:
                eval_loss = math.nan
            if not math.isfinite(eval_loss):
                raise TrainerError(f"{result_path}: eval_loss {parts[1]!r} is not a finite number")
        elif parts[0] == "checkpoint":
            checkpoint = Path(parts[1])
    if eval_loss is None or checkpoint is None:
        raise TrainerError(f"{result_path} is missing eval_loss or checkpoint")
    return eval_loss, checkpoint


def parse_metric_line(text: str) -> tuple[str, float] | None:
    """``(name, value)`` of the last ``final_val_metric`` line in a run's output.

    None if there is no such line; ValueError if its value is not a finite float.
    """
    found = None
    for line in text.splitlines():
        parts = line.strip().split("\t")
        if len(parts) == 3 and parts[0] == METRIC_LINE_PREFIX:
            found = parts
    if found is None:
        return None
    value = float(found[2])
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric {value}")
    return found[1], value


def read_outcome(job: TrainerJob, wall_time_minutes: float, stdout: str) -> RunOutcome:
    """A finished job's outcome, from what it left.

    ``eval_loss`` and the checkpoint come from the ``RESULT.tsv`` under the
    argv's ``--output_dir``, the metric from the last ``final_val_metric``
    line of ``stdout``.
    """
    eval_loss, checkpoint = parse_result_file(Path(job.arg("--output_dir")))
    try:
        metric = parse_metric_line(stdout)
    except ValueError as exc:
        raise TrainerError(f"job {job.job_id}: bad {METRIC_LINE_PREFIX} line: {exc}") from exc
    metric_name, val_metric = metric or (None, None)
    return RunOutcome(eval_loss, wall_time_minutes, checkpoint, val_metric, metric_name)


@dataclass
class ExternalCommandTrainer:
    """Launch an external trainer process per job (argv contract above)."""

    command: tuple[str, ...]
    timeout_seconds: float | None = None
    # The process gets it as WANDB_API_KEY, on top of this process's environment.
    wandb_api_key: str | None = field(default=None, repr=False)

    def run(self, job: TrainerJob) -> RunOutcome:
        import subprocess  # only external-trainer runs pay for importing it

        Path(job.arg("--output_dir")).mkdir(parents=True, exist_ok=True)
        job.log_dir.mkdir(parents=True, exist_ok=True)
        full = [*self.command, *job.argv]
        stdout_path = job.log_dir / "stdout.log"
        stderr_path = job.log_dir / "stderr.log"
        key = self.wandb_api_key
        env = None if key is None else dict(os.environ, WANDB_API_KEY=key)
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            started = time.perf_counter()
            try:
                proc = subprocess.run(full, stdout=out, stderr=err, timeout=self.timeout_seconds,
                                      env=env)
            except subprocess.TimeoutExpired as exc:
                raise TrainerError(
                    f"trainer timed out after {self.timeout_seconds} s "
                    f"for job {job.job_id}: {shlex.join(full)}"
                ) from exc
            wall_time_minutes = (time.perf_counter() - started) / 60
        if proc.returncode != 0:
            raise TrainerError(
                f"trainer exited with status {proc.returncode} "
                f"for job {job.job_id}: {shlex.join(full)}"
            )
        return read_outcome(job, wall_time_minutes,
                            stdout_path.read_text(encoding="utf-8", errors="replace"))


# Synthetic per-task example counts for the simulation trainer (small on
# purpose: a full 16-point grid over 9 tasks must run in seconds).
SIM_TRAIN_EXAMPLES: dict[str, int] = {
    "CoLA": 320, "SST-2": 512, "MRPC": 256, "STS-B": 256, "QQP": 768,
    "MNLI": 1024, "QNLI": 512, "RTE": 192, "WNLI": 96,
}
SIM_TEST_EXAMPLES: dict[str, int] = {
    "CoLA": 40, "SST-2": 64, "MRPC": 32, "STS-B": 32, "QQP": 96,
    "MNLI": 128, "QNLI": 64, "RTE": 24, "WNLI": 12,
}


def _write_job_outputs(output_dir: Path, checkpoint: dict[str, Any], eval_loss: float,
                       predictions: str | None = None) -> None:
    """Write a simulated job's output files, each replaced whole, ``RESULT.tsv`` last.

    ``predictions`` (finetune jobs only) is the text of ``predictions.tsv``.
    """
    checkpoint_path = output_dir / "checkpoint.json"
    texts = {} if predictions is None else {PREDICTIONS_FILE: predictions}
    texts["checkpoint.json"] = json.dumps(checkpoint, indent=2) + "\n"
    texts[RESULT_FILE] = f"eval_loss\t{eval_loss!r}\ncheckpoint\t{checkpoint_path}\n"
    for name, text in texts.items():
        with replace_when_done(output_dir / name) as fh:
            fh.write(text.encode("utf-8"))


class SimulationTrainer:
    """Deterministic stand-in trainer for hermetic end-to-end runs.

    The loss model rewards total learning-rate mass: a schedule with larger
    sum of per-step rates reaches a strictly smaller final loss. Its
    constants are fixed; the simulation only has to rank schedules.
    """

    loss_start = 10.0
    loss_floor = 1.5
    decay_per_lr = 0.1
    steps_per_minute = 2000.0
    finetune_loss_start = 2.0
    finetune_loss_floor = 0.3
    finetune_decay_per_lr = 40.0

    def run(self, job: TrainerJob) -> RunOutcome:
        output_dir = Path(job.arg("--output_dir"))
        output_dir.mkdir(parents=True, exist_ok=True)
        job.log_dir.mkdir(parents=True, exist_ok=True)
        # Each writes the job's files and returns its wall time and stdout text.
        simulate = self._run_pretrain if job.kind == PRETRAIN else self._run_finetune
        return read_outcome(job, *simulate(job, output_dir))

    def _is_validation_step(self, k: int, steps: int) -> bool:
        # Denser validation in the configured beginning/end proportions.
        if k < VALIDATION_BEGIN_PROPORTION * steps:
            return k % 10 == 0
        if k >= (1 - VALIDATION_END_PROPORTION) * steps:
            return True
        return k % 100 == 0

    def _run_pretrain(self, job: TrainerJob, output_dir: Path) -> tuple[float, str]:
        steps = int(job.arg("--num_steps"))
        spec = ScheduleSpec(kind=job.arg("--curve"), eta0=float(job.arg("--lr")),
                            warmup_proportion=float(job.arg("--warmup_proportion")))
        policy = EarlyStopPolicy(enabled=False)
        if "--use_early_stopping" in job.argv:
            policy = EarlyStopPolicy(True, float(job.arg("--early_stop_time")),
                                     float(job.arg("--early_stop_eval_loss")))

        cum = 0.0
        loss = self.loss_start + self.loss_floor
        stopped_at: int | None = None
        steps_done = 0
        with replace_text_when_done(job.log_dir / "steps.tsv") as log:
            log.write(STEP_LOG_HEADER)
            for k in range(steps):
                lr = schedule_value(k, steps, spec)
                cum += lr
                loss = self.loss_start * math.exp(-self.decay_per_lr * cum) + self.loss_floor
                log.write(f"{k}\t{lr!r}\t{loss!r}\n")
                steps_done = k + 1
                elapsed = steps_done / self.steps_per_minute
                if self._is_validation_step(k, steps) and check_early_stop(elapsed, loss, policy):
                    stopped_at = k
                    break

        _write_job_outputs(output_dir, {
            "kind": PRETRAIN,
            "quality": cum,
            "dataset_id": job.job_id.removeprefix(f"{PRETRAIN}/"),
            "steps": steps_done,
            "early_stopped_at": stopped_at,
        }, loss)
        return steps_done / self.steps_per_minute, ""

    def _checkpoint_quality(self, path: str | Path) -> float:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            return float(data.get("quality", 0.0))
        except (OSError, ValueError):
            raise TrainerError(f"cannot read simulation checkpoint: {path}")

    def _run_finetune(self, job: TrainerJob, output_dir: Path) -> tuple[float, str]:
        task = glue.get_task(job.arg("--task_name"))
        lr = float(job.arg("--learning_rate"))
        batch_size = int(job.arg("--per_device_train_batch_size"))
        epochs = int(job.arg("--num_train_epochs"))
        quality_in = self._checkpoint_quality(job.arg("--model_name_or_path"))

        n_train = SIM_TRAIN_EXAMPLES[task.name]
        steps = epochs * math.ceil(n_train / batch_size)
        cum = 0.0
        loss = self.finetune_loss_start + self.finetune_loss_floor
        with replace_text_when_done(job.log_dir / "steps.tsv") as log:
            log.write(STEP_LOG_HEADER)
            for k in range(steps):
                step_lr = lr * (1 - k / steps)
                cum += step_lr
                loss = (
                    self.finetune_loss_start * math.exp(-self.finetune_decay_per_lr * cum)
                    + self.finetune_loss_floor
                )
                log.write(f"{k}\t{step_lr!r}\t{loss!r}\n")

        # Deterministic synthetic metric: saturating in upstream checkpoint
        # quality and tuning effort, plus a keyed per-run jitter.
        key = run_name(lr, batch_size, epochs)
        base = 0.55 + 0.30 * (1 - math.exp(-0.08 * quality_in))
        tune = 0.05 * (1 - math.exp(-self.finetune_decay_per_lr * cum / 10))
        jitter = (keyed_uniform("sim-metric", task.name, key) - 0.5) * 0.04
        metric = round(base + tune + jitter, 6)

        rows = []
        for index in range(SIM_TEST_EXAMPLES[task.name]):
            if task.labels is None:
                value = round(keyed_uniform("sim-pred", task.name, key, index) * 5, 3)
            else:
                value = derive_u64("sim-pred", task.name, key, index) % len(task.labels)
            rows.append(f"{index}\t{value}\n")
        _write_job_outputs(output_dir, {"kind": FINETUNE, "quality": quality_in + cum,
                                        "task": task.name}, loss, predictions="".join(rows))
        return (steps / self.steps_per_minute,
                f"{METRIC_LINE_PREFIX}\t{task.metric}\t{metric!r}\n")
