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
* The adapter returns a :class:`RunOutcome`. After each finetune job the
  pipeline writes that outcome, with the job's task and hyperparameters, to
  ``<log_dir>/run.json``; result collection reads nothing else.

Two adapters ship:

* :class:`ExternalCommandTrainer` launches a real trainer process with the
  job argv, keeps its stdout/stderr under the job's log directory and times
  it. The process must exit 0.
* :class:`SimulationTrainer` iterates the configured steps hermetically,
  consuming the learning-rate schedule and emitting a synthetic eval loss
  ``loss(k) = loss_start * exp(-decay_per_lr * sum_{j<=k} lr_j) + loss_floor``
  so schedule quality is reflected in the outcome. It honors the validation
  cadence and early stopping, is fully deterministic, and leaves a per-step
  TSV under the job's log directory.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

from . import glue
from .rng import derive_u64, keyed_uniform
from .schedule import ScheduleSpec, schedule_value

PRETRAIN, FINETUNE = "pretrain", "finetune"

RESULT_FILE = "RESULT.tsv"
METRIC_LINE_PREFIX = "final_val_metric"


class TrainerError(Exception):
    """A trainer run failed or violated the adapter contract."""


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Stop a run that is both old enough and still diverged."""

    enabled: bool = True
    early_stop_time_minutes: float = 180.0
    early_stop_eval_loss: float = 6.0


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
    """One pretraining or finetuning run, argv-shaped for the external contract."""

    kind: str  # "pretrain" | "finetune"
    job_id: str
    argv: tuple[str, ...]
    hyperparams: dict[str, Any] = field(default_factory=dict)
    task: str | None = None
    stilt_parent: str | None = None  # finetune only: seed from that task's best checkpoint
    output_dir: Path | None = None
    log_dir: Path | None = None

    def __post_init__(self):
        if self.kind not in (PRETRAIN, FINETUNE):
            raise ValueError(f"unknown job kind: {self.kind!r}")
        if self.kind == PRETRAIN and self.task is not None:
            raise ValueError("pretrain jobs carry no task")
        if self.kind == PRETRAIN and self.stilt_parent is not None:
            raise ValueError("stilt_parent is only valid on finetune jobs")


@dataclass(frozen=True)
class RunOutcome:
    eval_loss: float
    wall_time_minutes: float
    checkpoint_path: Path
    log_path: Path
    val_metric: float | None = None
    metric_name: str | None = None


class TrainerAdapter(Protocol):
    def run(self, job: TrainerJob) -> RunOutcome: ...


def hyperparam_sort_key(hyperparams: dict[str, Any]) -> tuple:
    """Canonical ordering of a hyperparameter mapping, used for all tie-breaks."""
    return (
        hyperparams.get("learning_rate", 0.0),
        hyperparams.get("batch_size", 0),
        hyperparams.get("epochs", 0),
        hyperparams.get("warmup_steps", 0),
        hyperparams.get("weight_decay", 0.0),
    )


def winner_key(val_metric: float, hyperparams: dict[str, Any]) -> tuple:
    """Sort key of a finetune run: highest metric first, ties to the smallest hyperparams."""
    return (-val_metric, hyperparam_sort_key(hyperparams))


# Argument list of the standard pretraining command; config-, schedule- and
# option-driven values are added by build_pretrain_job.
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
    ("--validation_begin_proportion", "0.05"),
    ("--validation_end_proportion", "0.01"),
    ("--validation_micro_batch", "16"),
    ("--deepspeed", None),
    ("--data_loader_type", "dist"),
    ("--do_validation", None),
    ("--fp16", None),
)

VALIDATION_BEGIN_PROPORTION = 0.05
VALIDATION_END_PROPORTION = 0.01


def build_pretrain_job(
    config,
    spec: ScheduleSpec,
    dataset_id: str,
    dataset_path: Path,
    output_dir: Path,
    log_dir: Path | None = None,
    early_stop: EarlyStopPolicy = EarlyStopPolicy(),
    seed: int = 42,
) -> TrainerJob:
    """Assemble the pretraining job argv from the config, schedule and options."""
    num_steps = config.pretrain.num_steps
    argv: list[str] = [
        "--dataset_path", str(dataset_path),
        "--output_dir", str(output_dir),
        "--tokenizer_name", config.tokenizer.name_or_path,
        "--lr", f"{spec.eta0:g}",
        "--num_steps", str(num_steps),
        "--num_gpus", str(config.system.num_gpus),
    ]
    if spec.kind == "linear":
        argv += ["--lr_schedule", "time", "--curve", "linear"]
    else:
        argv += ["--lr_schedule", "step", "--curve", spec.kind]
    argv += ["--warmup_proportion", f"{spec.warmup_proportion:g}"]
    for flag, value in PRETRAIN_STATIC_ARGS:
        argv.append(flag)
        if value is not None:
            argv.append(value)
    if early_stop.enabled:
        argv += ["--use_early_stopping",
                 "--early_stop_time", f"{early_stop.early_stop_time_minutes:g}",
                 "--early_stop_eval_loss", f"{early_stop.early_stop_eval_loss:g}"]
    argv += ["--seed", str(seed)]
    return TrainerJob(
        kind=PRETRAIN,
        job_id=f"pretrain/{dataset_id}",
        argv=tuple(argv),
        hyperparams={
            "num_steps": num_steps,
            "schedule": spec,
            "learning_rate": spec.eta0,
            "early_stop": early_stop,
            "dataset_id": dataset_id,
        },
        output_dir=output_dir,
        log_dir=log_dir,
    )


def build_finetune_argv(checkpoint: str, task: str, output_dir: str,
                        hp: dict[str, Any]) -> tuple[str, ...]:
    """Finetuning argv in the standard run_glue shape, from grid-point hyperparams."""
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
        "--learning_rate", f"{hp['learning_rate']:g}",
        "--weight_decay", f"{hp['weight_decay']:g}",
        "--eval_steps", "50",
        "--max_grad_norm", "1.0",
        "--num_train_epochs", str(hp["epochs"]),
        "--lr_scheduler_type", hp["scheduler"],
        "--warmup_steps", str(hp["warmup_steps"]),
    )


def parse_result_file(output_dir: Path) -> tuple[float, Path]:
    """Read the RESULT.tsv contract file: (eval_loss, checkpoint path)."""
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
            eval_loss = float(parts[1])
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


@dataclass
class ExternalCommandTrainer:
    """Launch an external trainer process per job (argv contract above)."""

    command: tuple[str, ...]
    timeout_seconds: float | None = None

    def run(self, job: TrainerJob) -> RunOutcome:
        if job.output_dir is None or job.log_dir is None:
            raise TrainerError(f"job {job.job_id} has no output/log directory assigned")
        job.output_dir.mkdir(parents=True, exist_ok=True)
        job.log_dir.mkdir(parents=True, exist_ok=True)
        full = [*self.command, *job.argv]
        stdout_path = job.log_dir / "stdout.log"
        stderr_path = job.log_dir / "stderr.log"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            started = time.perf_counter()
            try:
                proc = subprocess.run(full, stdout=out, stderr=err, timeout=self.timeout_seconds)
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
        eval_loss, checkpoint = parse_result_file(job.output_dir)
        try:
            metric = parse_metric_line(stdout_path.read_text(encoding="utf-8", errors="replace"))
        except ValueError as exc:
            raise TrainerError(f"job {job.job_id}: bad {METRIC_LINE_PREFIX} line: {exc}") from exc
        return RunOutcome(
            eval_loss=eval_loss,
            wall_time_minutes=wall_time_minutes,
            checkpoint_path=checkpoint,
            log_path=stdout_path,
            val_metric=metric[1] if metric else None,
            metric_name=metric[0] if metric else None,
        )


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


@dataclass
class SimulationTrainer:
    """Deterministic stand-in trainer for hermetic end-to-end runs.

    The loss model rewards total learning-rate mass: a schedule with larger
    sum of per-step rates reaches a strictly smaller final loss.
    """

    loss_start: float = 10.0
    loss_floor: float = 1.5
    decay_per_lr: float = 0.1
    steps_per_minute: float = 2000.0
    finetune_loss_start: float = 2.0
    finetune_loss_floor: float = 0.3
    finetune_decay_per_lr: float = 40.0

    def run(self, job: TrainerJob) -> RunOutcome:
        if job.output_dir is None or job.log_dir is None:
            raise TrainerError(f"job {job.job_id} has no output/log directory assigned")
        job.output_dir.mkdir(parents=True, exist_ok=True)
        job.log_dir.mkdir(parents=True, exist_ok=True)
        if job.kind == PRETRAIN:
            return self._run_pretrain(job)
        return self._run_finetune(job)

    def _is_validation_step(self, k: int, steps: int) -> bool:
        # Denser validation in the configured beginning/end proportions.
        if k < VALIDATION_BEGIN_PROPORTION * steps:
            return k % 10 == 0
        if k >= (1 - VALIDATION_END_PROPORTION) * steps:
            return True
        return k % 100 == 0

    def _run_pretrain(self, job: TrainerJob) -> RunOutcome:
        hp = job.hyperparams
        steps: int = hp["num_steps"]
        spec: ScheduleSpec = hp["schedule"]
        policy: EarlyStopPolicy = hp.get("early_stop", EarlyStopPolicy())

        cum = 0.0
        loss = self.loss_start + self.loss_floor
        rows: list[str] = []
        stopped_at: int | None = None
        steps_done = 0
        for k in range(steps):
            lr = schedule_value(k, steps, spec)
            cum += lr
            loss = self.loss_start * math.exp(-self.decay_per_lr * cum) + self.loss_floor
            rows.append(f"{k}\t{lr!r}\t{loss!r}")
            steps_done = k + 1
            elapsed = steps_done / self.steps_per_minute
            if self._is_validation_step(k, steps) and check_early_stop(elapsed, loss, policy):
                stopped_at = k
                break

        log_path = job.log_dir / "steps.tsv"
        log_path.write_text("step\tlr\tloss\n" + "\n".join(rows) + "\n", encoding="utf-8")
        checkpoint = job.output_dir / "checkpoint.json"
        checkpoint.write_text(
            json.dumps(
                {
                    "kind": PRETRAIN,
                    "quality": cum,
                    "dataset_id": hp.get("dataset_id"),
                    "steps": steps_done,
                    "early_stopped_at": stopped_at,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        (job.output_dir / RESULT_FILE).write_text(
            f"eval_loss\t{loss!r}\ncheckpoint\t{checkpoint}\n", encoding="utf-8"
        )
        return RunOutcome(
            eval_loss=loss,
            wall_time_minutes=steps_done / self.steps_per_minute,
            checkpoint_path=checkpoint,
            log_path=log_path,
        )

    def _checkpoint_quality(self, path: str | Path) -> float:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            return float(data.get("quality", 0.0))
        except (OSError, ValueError):
            raise TrainerError(f"cannot read simulation checkpoint: {path}")

    def _run_finetune(self, job: TrainerJob) -> RunOutcome:
        hp = job.hyperparams
        task = glue.get_task(job.task)
        lr: float = hp["learning_rate"]
        batch_size: int = hp["batch_size"]
        epochs: int = hp["epochs"]
        quality_in = self._checkpoint_quality(
            job.argv[job.argv.index("--model_name_or_path") + 1])

        n_train = SIM_TRAIN_EXAMPLES[task.name]
        steps = epochs * math.ceil(n_train / batch_size)
        cum = 0.0
        loss = self.finetune_loss_start + self.finetune_loss_floor
        rows = []
        for k in range(steps):
            step_lr = lr * (1 - k / steps)
            cum += step_lr
            loss = (
                self.finetune_loss_start * math.exp(-self.finetune_decay_per_lr * cum)
                + self.finetune_loss_floor
            )
            rows.append(f"{k}\t{step_lr!r}\t{loss!r}")

        # Deterministic synthetic metric: saturating in upstream checkpoint
        # quality and tuning effort, plus a keyed per-run jitter.
        hp_key = f"lr{lr:g}_bs{batch_size}_ep{epochs}"
        base = 0.55 + 0.30 * (1 - math.exp(-0.08 * quality_in))
        tune = 0.05 * (1 - math.exp(-self.finetune_decay_per_lr * cum / 10))
        jitter = (keyed_uniform("sim-metric", task.name, hp_key) - 0.5) * 0.04
        metric = round(base + tune + jitter, 6)

        log_path = job.log_dir / "steps.tsv"
        log_path.write_text("step\tlr\tloss\n" + "\n".join(rows) + "\n", encoding="utf-8")

        predictions = job.output_dir / "predictions.tsv"
        with open(predictions, "w", encoding="utf-8") as fh:
            for index in range(SIM_TEST_EXAMPLES[task.name]):
                if task.labels is None:
                    value = round(keyed_uniform("sim-pred", task.name, hp_key, index) * 5, 3)
                    fh.write(f"{index}\t{value}\n")
                else:
                    label_id = derive_u64("sim-pred", task.name, hp_key, index) % len(task.labels)
                    fh.write(f"{index}\t{label_id}\n")

        checkpoint_out = job.output_dir / "checkpoint.json"
        checkpoint_out.write_text(
            json.dumps({"kind": FINETUNE, "quality": quality_in + cum, "task": task.name}, indent=2)
            + "\n",
            encoding="utf-8",
        )
        (job.output_dir / RESULT_FILE).write_text(
            f"eval_loss\t{loss!r}\ncheckpoint\t{checkpoint_out}\n", encoding="utf-8"
        )
        return RunOutcome(
            eval_loss=loss,
            wall_time_minutes=steps / self.steps_per_minute,
            checkpoint_path=checkpoint_out,
            log_path=log_path,
            val_metric=metric,
            metric_name=task.metric,
        )
