"""Result collection: summarize validation runs, pick winners, build the zip.

Each finetune job is given ``--output_dir output/finetune/<id>/<task>/<run>/``
and ``--model_name_or_path`` in its argv. The trainer writes ``RESULT.tsv``
and ``predictions.tsv`` (``index\\tprediction`` with internal label ids) there
and prints a ``final_val_metric\\t<name>\\t<float>`` line on stdout, which its
adapter parses into the run's outcome. After the job the pipeline writes
``run.json`` (:func:`write_run_record`) into the run's log directory
``log/finetune/<id>/<task>/<run>/``: the task, the grid-point hyperparameters,
the STILT parent, the metric name and value, the eval loss and the wall time.

Collection reads only those records and the predictions. It selects the best
run per task (deterministic tie-breaking), translates predictions to the
benchmark's label strings, and packs one TSV per task into a submission zip
with normalized metadata so the archive is reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from . import glue
from .atomic import replace_when_done
from .trainer import RunOutcome, TrainerJob, winner_key

SUBMISSION_ZIP_NAME = "glue_submission.zip"
RUN_RECORD = "run.json"
# Fixed DOS timestamp for zip members (zip epoch): reproducibility over mtimes.
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)


class CollectionError(Exception):
    """Result collection cannot proceed (no logs, missing predictions, bad ids)."""


@dataclass(frozen=True)
class RunResult:
    """One finetuning run: hyperparameters, validation metric, predictions."""

    task: str
    hyperparams: dict[str, Any]
    val_metric: float
    metric_name: str
    predictions_path: Path
    log_dir: Path


@dataclass(frozen=True)
class SummarizeReport:
    results: tuple[RunResult, ...]
    skipped: tuple[tuple[Path, str], ...]  # (run dir, reason) for malformed runs


def write_run_record(job: TrainerJob, outcome: RunOutcome) -> None:
    """Record one finished finetune job in ``<log_dir>/run.json``, atomically."""
    record = {
        "task": job.task,
        "hyperparams": job.hyperparams,
        "stilt_parent": job.stilt_parent,
        "metric_name": outcome.metric_name,
        "val_metric": outcome.val_metric,
        "eval_loss": outcome.eval_loss,
        "wall_time_minutes": outcome.wall_time_minutes,
    }
    with replace_when_done(job.log_dir / RUN_RECORD) as fh:
        fh.write((json.dumps(record, indent=2) + "\n").encode("utf-8"))


def _parse_run_dir(run_dir: Path, predictions_root: Path) -> RunResult:
    record = json.loads((run_dir / RUN_RECORD).read_text(encoding="utf-8"))
    if record["val_metric"] is None:
        raise ValueError("the run reported no validation metric")
    return RunResult(
        task=record["task"],
        hyperparams=record["hyperparams"],
        val_metric=record["val_metric"],
        metric_name=record["metric_name"],
        predictions_path=predictions_root / record["task"] / run_dir.name / "predictions.tsv",
        log_dir=run_dir,
    )


def summarize_val(log_root: str | Path, dataset_id: str,
                  output_root: str | Path | None = None) -> SummarizeReport:
    """Read every finetune run record under ``log/finetune/<dataset_id>/``.

    Runs with a missing or malformed record are reported and skipped, not
    fatal; having no parsable record at all is a CollectionError.
    """
    log_root = Path(log_root)
    finetune_root = log_root / "finetune" / dataset_id
    if output_root is None:
        # Default layout: log/ and output/ are siblings.
        output_root = log_root.parent / "output"
    predictions_root = Path(output_root) / "finetune" / dataset_id

    if not finetune_root.is_dir():
        raise CollectionError(f"no finetune logs under {finetune_root}")
    results: list[RunResult] = []
    skipped: list[tuple[Path, str]] = []
    for task_dir in sorted(finetune_root.iterdir()):
        if not task_dir.is_dir():
            continue
        for run_dir in sorted(task_dir.iterdir()):
            if not run_dir.is_dir():
                continue
            try:
                results.append(_parse_run_dir(run_dir, predictions_root))
            except (ValueError, OSError, KeyError, TypeError) as exc:
                skipped.append((run_dir, str(exc)))
    if not results:
        raise CollectionError(f"no parsable finetune runs under {finetune_root}")
    return SummarizeReport(results=tuple(results), skipped=tuple(skipped))


def collect_best_val(results: Iterable[RunResult]) -> dict[str, RunResult]:
    """Best run per task: max metric, ties to the smallest hyperparameter tuple.

    The outcome is independent of input order. Tasks without any rows are
    simply absent from the mapping.
    """
    best: dict[str, RunResult] = {}
    for result in sorted(results, key=lambda r: winner_key(r.val_metric, r.hyperparams)):
        best.setdefault(result.task, result)
    return best


def _read_predictions(path: Path, task_name: str) -> list[tuple[str, str]]:
    if not path.is_file():
        raise CollectionError(f"predictions file missing for task {task_name}: {path}")
    rows: list[tuple[str, str]] = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CollectionError(
                f"malformed prediction line {line_no} for task {task_name} in {path}"
            )
        rows.append((parts[0], parts[1]))
    return rows


def translate_predictions(task: glue.GlueTask, rows: list[tuple[str, str]]) -> str:
    """Render one task's submission TSV (header ``index\\tprediction``)."""
    lines = ["index\tprediction"]
    for index, raw in rows:
        if task.labels is None:
            try:
                float(raw)
            except ValueError:
                raise CollectionError(
                    f"non-numeric prediction {raw!r} for regression task {task.name}"
                ) from None
            lines.append(f"{index}\t{raw}")
        else:
            try:
                label_id = int(raw)
            except ValueError:
                raise CollectionError(
                    f"non-integer label id {raw!r} for task {task.name}"
                ) from None
            try:
                lines.append(f"{index}\t{glue.label_string(task, label_id)}")
            except ValueError as exc:
                raise CollectionError(str(exc)) from None
    return "\n".join(lines) + "\n"


def translate_test_result(best: Mapping[str, RunResult], out_dir: str | Path) -> Path:
    """Write per-task submission TSVs and pack them into a reproducible zip.

    Members are stored uncompressed with fixed timestamps in sorted name
    order, so re-creating the archive from the same inputs is byte-identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    members: list[tuple[str, str]] = []
    for task_name in sorted(best):
        task = glue.get_task(task_name)
        rows = _read_predictions(best[task_name].predictions_path, task_name)
        members.append((task.submission_file, translate_predictions(task, rows)))
    members.sort(key=lambda m: m[0])

    zip_path = out_dir / SUBMISSION_ZIP_NAME
    with zipfile.ZipFile(zip_path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name, content in members:
            (out_dir / name).write_text(content, encoding="utf-8")
            info = zipfile.ZipInfo(name, date_time=_ZIP_DATE_TIME)
            info.external_attr = 0o644 << 16
            zf.writestr(info, content)
    return zip_path
