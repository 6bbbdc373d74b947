"""Finetuning hyperparameter search and STILT chaining.

The search emits one grid point per (learning rate x batch size x epochs)
combination per task; those three values are all a point carries. A point
becomes a trainer job, with its argv built once, when its output directories
and starting checkpoint are known. The STILT sources are fixed
(:data:`STILT_SOURCES`) and one level deep: a source task is never itself
seeded from another task. A task whose source is scheduled too starts from
the *best* checkpoint of the source task's grid instead of the pretraining
checkpoint, so its jobs run in a second wave, after the source grid has
completed and its winner has been selected. The winner is always the run
with the highest validation metric, ties broken by the smallest (learning
rate, batch size, epochs); selection is therefore independent of completion
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Iterable

from . import glue
from .records import SearchError, SearchSpace
from .trainer import FINETUNE, RunOutcome, TrainerJob, build_finetune_argv, run_name


# Small high-variance tasks benefit from supplementary training on MNLI first.
STILT_SOURCES: dict[str, str] = {"RTE": "MNLI", "MRPC": "MNLI", "STS-B": "MNLI"}


@dataclass(frozen=True)
class GridPoint:
    """One finetune run of the search, before it has a checkpoint or directories."""

    task: str
    run: str
    hyperparams: dict[str, Any]  # learning_rate, batch_size, epochs
    stilt_parent: str | None = None  # start from that task's winner, not from pretraining

    @property
    def job_id(self) -> str:
        return f"{FINETUNE}/{self.task}/{self.run}"

    def job(self, checkpoint: str, output_dir: Path, log_dir: Path) -> TrainerJob:
        argv = build_finetune_argv(checkpoint, self.task, str(output_dir), self.hyperparams)
        return TrainerJob(self.job_id, argv, log_dir)


def finetune_search(tasks: Iterable[str], space: SearchSpace | None = None) -> list[GridPoint]:
    """Build the full grid of finetune runs for the given tasks.

    Runs whose task has a STILT source among the scheduled tasks get
    ``stilt_parent`` set; the others start from the pretraining checkpoint.
    """
    space = space or SearchSpace()
    tasks = list(tasks)
    for task in tasks:
        glue.get_task(task)  # raises on unknown names

    points: list[GridPoint] = []
    for task in tasks:
        parent = STILT_SOURCES.get(task)
        if parent not in tasks:
            parent = None  # source task not scheduled: fall back to the pretrain checkpoint
        for lr, batch_size, epochs in product(space.learning_rates, space.batch_sizes, space.epochs):
            hyperparams = {"learning_rate": lr, "batch_size": batch_size, "epochs": epochs}
            points.append(GridPoint(task, run_name(lr, batch_size, epochs), hyperparams, parent))
    return points


def schedule_waves(points: Iterable[GridPoint]) -> list[list[GridPoint]]:
    """The points that start from pretraining, then the STILT children; empty waves are left out.

    Every child's parent task runs in the first wave.
    """
    points = list(points)
    roots = [point for point in points if point.stilt_parent is None]
    children = [point for point in points if point.stilt_parent is not None]
    root_tasks = {point.task for point in roots}
    for point in children:
        if point.stilt_parent not in root_tasks:
            raise SearchError(f"STILT parent {point.stilt_parent!r} has no scheduled jobs "
                              "that start from pretraining")
    return [wave for wave in (roots, children) if wave]


def select_best(
    outcomes: Iterable[tuple[GridPoint, RunOutcome]],
) -> tuple[GridPoint, RunOutcome]:
    """Winner of one task's grid: highest metric, smallest (lr, batch size, epochs) on ties."""
    pairs = list(outcomes)
    if not pairs:
        raise SearchError("cannot select the best run of an empty grid")
    for point, outcome in pairs:
        if outcome.val_metric is None:
            raise SearchError(f"job {point.job_id} reported no validation metric")

    def key(pair: tuple[GridPoint, RunOutcome]) -> tuple:
        hp = pair[0].hyperparams
        return (-pair[1].val_metric, hp["learning_rate"], hp["batch_size"], hp["epochs"])

    return min(pairs, key=key)
