"""Finetuning hyperparameter search and STILT chaining.

The search emits one grid point per (learning rate x batch size x epochs)
combination per task. A point becomes a trainer job, with its argv built
once, when its output directories and starting checkpoint are known. Tasks
configured with a STILT source are seeded from the *best* checkpoint of the
source task's grid instead of the pretraining checkpoint, so their jobs can
only be built after the source grid has completed and its winner has been
selected. The winner is always the run with the highest validation metric,
ties broken by the lexicographically smallest hyperparameter tuple; selection
is therefore independent of completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Iterable, Mapping

from . import glue
from .trainer import FINETUNE, RunOutcome, TrainerJob, build_finetune_argv, winner_key


class SearchError(ValueError):
    """Invalid search configuration (unknown task, empty grid, STILT cycle)."""


@dataclass(frozen=True)
class SearchSpace:
    learning_rates: tuple[float, ...] = (1e-5, 3e-5, 5e-5, 8e-5)
    batch_sizes: tuple[int, ...] = (16, 32)
    epochs: tuple[int, ...] = (3, 5)

    def __post_init__(self):
        if not self.learning_rates or not self.batch_sizes or not self.epochs:
            raise SearchError("hyperparameter grid has an empty dimension")

    def __len__(self) -> int:
        return len(self.learning_rates) * len(self.batch_sizes) * len(self.epochs)


# Small high-variance tasks benefit from supplementary training on MNLI first.
DEFAULT_STILT_SOURCES: dict[str, str] = {"RTE": "MNLI", "MRPC": "MNLI", "STS-B": "MNLI"}


def run_name(learning_rate: float, batch_size: int, epochs: int) -> str:
    return f"lr{learning_rate:g}_bs{batch_size}_ep{epochs}"


def _check_stilt_dag(sources: Mapping[str, str]) -> None:
    for start in sources:
        seen = {start}
        node = start
        while node in sources:
            node = sources[node]
            if node in seen:
                raise SearchError(f"STILT sources form a cycle through {node!r}")
            seen.add(node)


@dataclass(frozen=True)
class GridPoint:
    """One finetune run of the search, before it has a checkpoint or directories."""

    task: str
    run: str
    hyperparams: dict[str, Any]
    stilt_parent: str | None = None  # start from that task's winner, not from pretraining

    def job(self, checkpoint: str, output_dir: Path, log_dir: Path) -> TrainerJob:
        return TrainerJob(
            kind=FINETUNE,
            job_id=f"finetune/{self.task}/{self.run}",
            argv=build_finetune_argv(checkpoint, self.task, str(output_dir), self.hyperparams),
            hyperparams=self.hyperparams,
            task=self.task,
            stilt_parent=self.stilt_parent,
            output_dir=output_dir,
            log_dir=log_dir,
        )


def finetune_search(
    tasks: Iterable[str],
    space: SearchSpace | None = None,
    stilt_sources: Mapping[str, str] | None = None,
) -> list[GridPoint]:
    """Build the full grid of finetune runs for the given tasks.

    Runs whose task has a STILT source among the scheduled tasks get
    ``stilt_parent`` set; the others start from the pretraining checkpoint.
    """
    space = space or SearchSpace()
    stilt_sources = dict(DEFAULT_STILT_SOURCES if stilt_sources is None else stilt_sources)
    tasks = list(tasks)
    for task in tasks:
        glue.get_task(task)  # raises on unknown names
    _check_stilt_dag(stilt_sources)

    scheduled = set(tasks)
    points: list[GridPoint] = []
    for task in tasks:
        parent = stilt_sources.get(task)
        if parent is not None and parent not in scheduled:
            parent = None  # source task not scheduled: fall back to the pretrain checkpoint
        for lr, batch_size, epochs in product(space.learning_rates, space.batch_sizes, space.epochs):
            hyperparams = {
                "learning_rate": lr,
                "batch_size": batch_size,
                "epochs": epochs,
                "warmup_steps": 50,
                "weight_decay": 0.01,
                "scheduler": "polynomial",
            }
            points.append(GridPoint(task, run_name(lr, batch_size, epochs), hyperparams, parent))
    return points


def schedule_waves(points: Iterable[GridPoint]) -> list[list[GridPoint]]:
    """Topological layers of the STILT dependency graph.

    Points in one wave are mutually independent; every point's parent task
    completes in an earlier wave.
    """
    by_task: dict[str, list[GridPoint]] = {}
    for point in points:
        by_task.setdefault(point.task, []).append(point)

    depth: dict[str, int] = {}

    def task_depth(task: str) -> int:
        if task in depth:
            return depth[task]
        parents = {p.stilt_parent for p in by_task[task] if p.stilt_parent}
        d = 0
        for parent in parents:
            if parent not in by_task:
                raise SearchError(f"STILT parent {parent!r} has no scheduled jobs")
            d = max(d, task_depth(parent) + 1)
        depth[task] = d
        return d

    waves: dict[int, list[GridPoint]] = {}
    for task, task_points in by_task.items():
        waves.setdefault(task_depth(task), []).extend(task_points)
    return [waves[d] for d in sorted(waves)]


def select_best(
    outcomes: Iterable[tuple[TrainerJob, RunOutcome]],
) -> tuple[TrainerJob, RunOutcome]:
    """Winner of one task's grid: highest metric, smallest hyperparams on ties."""
    pairs = list(outcomes)
    if not pairs:
        raise SearchError("cannot select the best run of an empty grid")
    for job, outcome in pairs:
        if outcome.val_metric is None:
            raise SearchError(f"job {job.job_id} reported no validation metric")
    return min(pairs, key=lambda p: winner_key(p[1].val_metric, p[0].hyperparams))
