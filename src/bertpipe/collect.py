"""Result collection: summarize validation runs, pick winners, build the zip.

Finetune runs leave a ``final_val_metric\\t<name>\\t<float>`` line in their
run log and a ``predictions.tsv`` (``index\\tprediction`` with internal label
ids) in their output directory. Collection parses every run, selects the best
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
from .trainer import METRIC_LINE_PREFIX, parse_metric_line, winner_key

SUBMISSION_ZIP_NAME = "glue_submission.zip"
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


def _parse_run_dir(task: str, run_dir: Path, predictions_dir: Path) -> RunResult:
    log_path = run_dir / "run.log"
    if not log_path.is_file():
        raise ValueError("no run.log")
    metric = parse_metric_line(log_path.read_text(encoding="utf-8", errors="replace"))
    if metric is None:
        raise ValueError(f"no {METRIC_LINE_PREFIX} line in run.log")
    metric_name, metric_value = metric
    hparams_path = run_dir / "hparams.json"
    if not hparams_path.is_file():
        raise ValueError("no hparams.json")
    hyperparams = json.loads(hparams_path.read_text(encoding="utf-8"))
    return RunResult(
        task=task,
        hyperparams=hyperparams,
        val_metric=metric_value,
        metric_name=metric_name,
        predictions_path=predictions_dir / run_dir.name / "predictions.tsv",
        log_dir=run_dir,
    )


def summarize_val(log_root: str | Path, dataset_id: str,
                  output_root: str | Path | None = None) -> SummarizeReport:
    """Parse every finetune run log under ``log/finetune/<dataset_id>/``.

    Malformed runs are reported and skipped, not fatal; having no parsable
    logs at all is a CollectionError.
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
                results.append(_parse_run_dir(task_dir.name, run_dir, predictions_root / task_dir.name))
            except (ValueError, OSError, json.JSONDecodeError) as exc:
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
