"""Result collection: read each task's recorded winner, build the zip.

Each finetune job is given ``--output_dir output/finetune/<id>/<task>/<run>/``
and ``--model_name_or_path`` in its argv. The trainer writes ``RESULT.tsv``
and ``predictions.tsv`` (``index\\tprediction`` with internal label ids) there
and prints a ``final_val_metric\\t<name>\\t<float>`` line on stdout;
``trainer.read_outcome`` reads the run's outcome from that file and that
line, whichever adapter ran the job. After the job the pipeline writes
``run.json`` (:func:`write_run_record`) into the run's log directory
``log/finetune/<id>/<task>/<run>/``, from the grid point and the outcome: the
point's task, learning rate, batch size, epochs and STILT parent, and the
outcome's metric name and value, eval loss and wall time. Collection reads
only the task and the metric value.
Once the grid is done the stage writes ``log/finetune/<id>/RUNS.tsv``
(:func:`write_runs_index`): one ``task``, ``run``, ``winner`` line per run of
this grid, where ``winner`` is 1 for the run ``search.select_best`` chose.
Run directories left by an earlier, different grid stay on disk but are not
listed.

That index is the only record of the winners, and collection does no ranking
of its own. It opens the record of each listed winner and nothing else (a
winner whose record is missing or malformed is an error, never a reason to
ship another run), translates the winners' predictions to the benchmark's
label strings, and packs one TSV per task into a submission zip with
normalized metadata so the archive is reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from . import glue
from .atomic import replace_when_done
from .records import PREDICTIONS_FILE, RUNS_INDEX, SUBMISSION_ZIP_NAME
from .trainer import RunOutcome

if TYPE_CHECKING:
    from .pipeline import Workspace
    from .search import GridPoint

RUN_RECORD = "run.json"
_RUNS_INDEX_HEADER = "task\trun\twinner\n"
# Fixed DOS timestamp for zip members (zip epoch): reproducibility over mtimes.
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)


class CollectionError(Exception):
    """Result collection cannot proceed (no logs, missing predictions, bad ids)."""


@dataclass(frozen=True)
class RunResult:
    """The winning finetune run of one task: where its test predictions are."""

    task: str
    predictions_path: Path


@dataclass(frozen=True)
class SummarizeReport:
    results: tuple[RunResult, ...]  # one per task, in index order


def write_run_record(point: GridPoint, outcome: RunOutcome, log_dir: Path) -> None:
    """Record the finished job of one grid point in ``<log_dir>/run.json``, atomically."""
    record = {
        "task": point.task,
        "hyperparams": point.hyperparams,
        "stilt_parent": point.stilt_parent,
        "metric_name": outcome.metric_name,
        "val_metric": outcome.val_metric,
        "eval_loss": outcome.eval_loss,
        "wall_time_minutes": outcome.wall_time_minutes,
    }
    with replace_when_done(log_dir / RUN_RECORD) as fh:
        fh.write((json.dumps(record, indent=2) + "\n").encode("utf-8"))


def write_runs_index(finetune_root: Path, runs: Iterable[tuple[str, str, bool]]) -> None:
    """List a grid's ``(task, run, is winner)`` runs in ``<finetune_root>/RUNS.tsv``, atomically."""
    lines = [f"{task}\t{run}\t{int(winner)}\n" for task, run, winner in runs]
    with replace_when_done(finetune_root / RUNS_INDEX) as fh:
        fh.write((_RUNS_INDEX_HEADER + "".join(lines)).encode("utf-8"))


def _read_winner(ws: Workspace, dataset_id: str, task: str, run: str) -> RunResult:
    run_dir = ws.finetune_log_dir(dataset_id, task, run)
    try:
        record = json.loads((run_dir / RUN_RECORD).read_text(encoding="utf-8"))
        intact = record["task"] == task and record["val_metric"] is not None
    except (ValueError, OSError, KeyError, TypeError) as exc:
        raise CollectionError(f"winning run {run_dir}: unreadable {RUN_RECORD}: {exc}") from None
    if not intact:
        raise CollectionError(f"winning run {run_dir}: {RUN_RECORD} does not match the index")
    predictions = ws.finetune_output_dir(dataset_id, task, run) / PREDICTIONS_FILE
    return RunResult(task=task, predictions_path=predictions)


def summarize_val(ws: Workspace, dataset_id: str) -> SummarizeReport:
    """Read the record of each winner that ``log/finetune/<dataset_id>/RUNS.tsv`` marks.

    Runs that did not win are never opened. A missing index, a damaged index
    row, an index without winners, or a winner whose record is missing or
    malformed is a CollectionError.
    """
    finetune_root = ws.finetune_root(dataset_id)
    index = finetune_root / RUNS_INDEX
    if not index.is_file():
        raise CollectionError(f"no finetune logs under {finetune_root}: no {RUNS_INDEX}")
    results: list[RunResult] = []
    for number, line in enumerate(index.read_text(encoding="utf-8").splitlines()[1:], start=2):
        row = line.split("\t")
        if len(row) != 3 or row[2] not in ("0", "1"):
            raise CollectionError(
                f"{index}, line {number}: not a tab-separated task, run, 0/1 winner row: {line!r}")
        task, run, winner = row
        if winner == "1":
            results.append(_read_winner(ws, dataset_id, task, run))
    if not results:
        raise CollectionError(f"{index} marks no winning run")
    return SummarizeReport(results=tuple(results))


def collect_best_val(results: Iterable[RunResult]) -> dict[str, RunResult]:
    """The recorded winners keyed by task; two winners for one task is a CollectionError."""
    best: dict[str, RunResult] = {}
    for result in results:
        if best.setdefault(result.task, result) is not result:
            raise CollectionError(f"more than one winning run recorded for task {result.task}")
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
    Each TSV and the zip replace an earlier file only once written whole.
    """
    out_dir = Path(out_dir)
    members: list[tuple[str, str]] = []
    for task_name in sorted(best):
        task = glue.get_task(task_name)
        rows = _read_predictions(best[task_name].predictions_path, task_name)
        members.append((task.submission_file, translate_predictions(task, rows)))
    members.sort(key=lambda m: m[0])

    zip_path = out_dir / SUBMISSION_ZIP_NAME
    with (replace_when_done(zip_path) as fh,
          zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf):
        for name, content in members:
            with replace_when_done(out_dir / name) as tsv:
                tsv.write(content.encode("utf-8"))
            info = zipfile.ZipInfo(name, date_time=_ZIP_DATE_TIME)
            info.external_attr = 0o644 << 16
            zf.writestr(info, content)
    return zip_path
