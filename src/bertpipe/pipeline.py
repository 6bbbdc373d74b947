"""Five-stage pipeline driver: env check, dataset, pretrain, finetune, collect.

``STAGE_TABLE`` is the one description of the stages. A row names a stage,
the config section whose ``ENABLED`` flag switches it (env_check is always
on), the config and option values its work depends on, and the output it
leaves; the stage's work is the module function ``_stage_<name>``. Three rules
read the table:

* Preconditions: an enabled stage that follows a disabled one needs the
  disabled stage's output on disk already. This is checked before anything
  runs, and again before the stage starts, with the dataset id of this run.
* Chained digests: a stage's digest hashes its inputs and the digest of the
  stage before it (the one computed in this run, or the one in that stage's
  sentinel when it is disabled), so a change upstream re-runs every later
  stage. Outputs after the dataset are keyed by the dataset id, so a new
  dataset shows up downstream as a missing output, not as a digest change.
* Sentinels: a completed stage records its digest under ``.stages/``. A later
  run skips it only when the recorded digest equals the new one and the
  stage's output still exists; ``force`` ignores sentinels.

Directory layout under the workspace root::

    data/sharded/               shard files + MANIFEST.tsv
    data/processed/             pre-masked instance files + META.yaml
    saved_models/pretrain/<dataset_id>/
    log/pretrain/<dataset_id>/
    log/finetune/<dataset_id>/<task>/<run>/   run.json: the run's record
    output/finetune/<dataset_id>/<task>/<run>/
    output_test_translated/finetune/<dataset_id>/*.zip
    log/pipeline/               canonical config echo + machine-readable report
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from concurrent.futures import ThreadPoolExecutor

from . import glue
from .atomic import replace_when_done
from .config import PipelineConfig, serialize_config, validate
from .ingest import IngestError, enumerate_corpus_files, scan_local, sources_from_config
from .instances import (
    INSTANCE_FORMAT_VERSION,
    META_NAME,
    MaskingPolicy,
    generate_instances,
    load_meta,
)
from .schedule import ScheduleSpec, warmup_steps
from .search import GridPoint, SearchSpace, finetune_search, schedule_waves, select_best
from .sharding import ShardPlan, dataset_id as derive_dataset_id, shard_corpus
from .tokenization import load_vocab, resolve_vocab
from .trainer import (
    RESULT_FILE,
    EarlyStopPolicy,
    RunOutcome,
    SimulationTrainer,
    TrainerAdapter,
    TrainerJob,
    build_pretrain_job,
    parse_result_file,
)
from .collect import (
    SUBMISSION_ZIP_NAME,
    collect_best_val,
    summarize_val,
    translate_test_result,
    write_run_record,
)

COMPLETED = "completed"
SKIPPED_DISABLED = "skipped_disabled"
SKIPPED_DONE = "skipped_done"
FAILED = "failed"


class PipelineError(Exception):
    """A stage failed; the message names the stage."""


class StagePreconditionError(PipelineError):
    """An enabled stage needs outputs of a disabled stage that do not exist."""

    def __init__(self, producer: str, consumer: str, detail: str):
        self.producer = producer
        self.consumer = consumer
        super().__init__(
            f"stage '{consumer}' is enabled but requires outputs of disabled "
            f"stage '{producer}': {detail}"
        )


@dataclass(frozen=True)
class Workspace:
    """All pipeline paths, derived from one root directory."""

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))

    @property
    def sharded_dir(self) -> Path:
        return self.root / "data" / "sharded"

    @property
    def spill_dir(self) -> Path:
        return self.root / "data" / "spill"

    @property
    def processed_dir(self) -> Path:
        return self.root / "data" / "processed"

    @property
    def remote_cache_dir(self) -> Path:
        return self.root / "data" / "remote_cache"

    @property
    def log_root(self) -> Path:
        return self.root / "log"

    @property
    def output_root(self) -> Path:
        return self.root / "output"

    @property
    def saved_models_root(self) -> Path:
        return self.root / "saved_models"

    @property
    def translated_root(self) -> Path:
        return self.root / "output_test_translated"

    def sentinel_path(self, stage: str) -> Path:
        return self.root / ".stages" / f"{stage}.json"

    def pretrain_model_dir(self, dataset_id: str) -> Path:
        return self.saved_models_root / "pretrain" / dataset_id

    def pretrain_log_dir(self, dataset_id: str) -> Path:
        return self.log_root / "pretrain" / dataset_id

    def finetune_log_dir(self, dataset_id: str, task: str, run: str) -> Path:
        return self.log_root / "finetune" / dataset_id / task / run

    def finetune_output_dir(self, dataset_id: str, task: str, run: str) -> Path:
        return self.output_root / "finetune" / dataset_id / task / run

    def translated_dir(self, dataset_id: str) -> Path:
        return self.translated_root / "finetune" / dataset_id

    def pipeline_log_dir(self) -> Path:
        return self.log_root / "pipeline"


@dataclass
class PipelineOptions:
    """Pipeline knobs that live outside the YAML schema (CLI/API level).

    Defaults mirror the standard preprocessing and pretraining commands; the
    held-out fraction defaults to 0.5% of the data.
    """

    seed: int = 42
    n_workers: int = 1
    num_train_shards: int = 256
    num_test_shards: int = 128
    frac_test: float = 0.005
    dup_factor: int = 10
    masked_lm_prob: float = 0.15
    max_seq_length: int = 128
    max_predictions_per_seq: int = 20
    do_lower_case: bool = True
    schedule_kind: str = "esd"
    eta0: float = 2e-3
    warmup_proportion: float = 0.06
    early_stop: EarlyStopPolicy = field(default_factory=EarlyStopPolicy)
    tasks: tuple[str, ...] = glue.TASK_NAMES
    search_space: SearchSpace = field(default_factory=SearchSpace)
    stilt_sources: Mapping[str, str] | None = None
    finetune_parallelism: int = 1
    remote_base_url: str | None = None
    min_free_bytes: int = 256 * 2**20
    force: bool = False  # ignore stage sentinels and re-run

    def shard_plan(self, config: PipelineConfig) -> ShardPlan:
        return ShardPlan(
            num_train_shards=self.num_train_shards,
            num_test_shards=self.num_test_shards,
            frac_test=self.frac_test,
            max_memory_bytes=int(config.system.max_memory_in_gb * 2**30),
            seed=self.seed,
        )

    def masking_policy(self) -> MaskingPolicy:
        return MaskingPolicy(
            masked_lm_prob=self.masked_lm_prob,
            max_predictions_per_seq=self.max_predictions_per_seq,
            max_seq_length=self.max_seq_length,
            dup_factor=self.dup_factor,
            seed=self.seed,
            do_lower_case=self.do_lower_case,
        )

    def schedule_spec(self, overall_steps: int) -> ScheduleSpec:
        horizon = overall_steps - warmup_steps(overall_steps, self.warmup_proportion)
        return ScheduleSpec(
            kind=self.schedule_kind,
            eta0=self.eta0,
            total_steps=max(1, horizon),
            warmup_proportion=self.warmup_proportion,
        )


@dataclass
class StageReport:
    name: str
    status: str
    duration_seconds: float = 0.0
    artifacts: dict[str, Any] = field(default_factory=dict)
    error: str | None = None


@dataclass
class PipelineReport:
    stages: list[StageReport]
    dataset_id: str | None
    report_path: Path | None = None

    def stage(self, name: str) -> StageReport:
        for report in self.stages:
            if report.name == name:
                return report
        raise KeyError(name)

    def to_json(self) -> dict[str, Any]:
        return {
            "dataset_id": self.dataset_id,
            "stages": [
                {
                    "name": s.name,
                    "status": s.status,
                    "duration_seconds": s.duration_seconds,
                    "artifacts": {k: str(v) for k, v in s.artifacts.items()},
                    "error": s.error,
                }
                for s in self.stages
            ],
        }


def _corpus_fingerprint(directories: tuple[str, ...]) -> list:
    """``(path, size, mtime_ns)`` per local corpus file; the dataset stage reports bad paths."""
    files: list = []
    for directory in directories:
        try:
            for path in scan_local(directory):
                st = path.stat()
                files.append([str(path), st.st_size, st.st_mtime_ns])
        except (IngestError, OSError):
            files.append([str(directory), None, None])
    return files


def _dataset_inputs(config: PipelineConfig, options: PipelineOptions) -> dict[str, Any]:
    # A remote corpus is keyed by (name, split) alone: a completed cache never changes.
    return {
        "dataset": asdict(config.dataset),
        "tokenizer": asdict(config.tokenizer),
        "max_memory_in_gb": config.system.max_memory_in_gb,
        "options": [
            options.seed, options.num_train_shards, options.num_test_shards,
            options.frac_test, options.dup_factor, options.masked_lm_prob,
            options.max_seq_length, options.max_predictions_per_seq,
            options.do_lower_case,
        ],
        "corpus": _corpus_fingerprint(config.dataset.customized_datasets),
        "instance_format": INSTANCE_FORMAT_VERSION,
    }


def _pretrain_inputs(config: PipelineConfig, options: PipelineOptions) -> dict[str, Any]:
    return {
        "pretrain": asdict(config.pretrain),
        "tokenizer": asdict(config.tokenizer),
        "options": [
            options.seed, options.schedule_kind, options.eta0, options.warmup_proportion,
            asdict(options.early_stop),
        ],
    }


def _finetune_inputs(config: PipelineConfig, options: PipelineOptions) -> dict[str, Any]:
    return {
        "options": [
            sorted(options.tasks), asdict(options.search_space),
            dict(options.stilt_sources) if options.stilt_sources is not None else None,
        ],
    }


@dataclass(frozen=True)
class StageSpec:
    """One row of ``STAGE_TABLE``; the stage's work is ``_stage_<name>``."""

    name: str
    section: str | None  # PipelineConfig attribute holding ENABLED; None: always on
    inputs: Callable[[PipelineConfig, PipelineOptions], Any]
    # Output path for a dataset id, None while the id is unknown; no callable: no output.
    output: Callable[[Workspace, str | None], Path | None] | None = None

    def enabled(self, config: PipelineConfig) -> bool:
        return self.section is None or getattr(config, self.section).enabled

    def output_exists(self, workspace: Workspace, dataset_id: str | None) -> bool:
        if self.output is None:
            return True
        path = self.output(workspace, dataset_id)
        return path is not None and path.exists()


STAGE_TABLE: tuple[StageSpec, ...] = (
    StageSpec("env_check", None, lambda config, options: None),
    StageSpec("dataset", "dataset", _dataset_inputs,
              lambda ws, did: ws.processed_dir / META_NAME),
    StageSpec("pretrain", "pretrain", _pretrain_inputs,
              lambda ws, did: ws.pretrain_model_dir(did) / RESULT_FILE if did else None),
    StageSpec("finetune", "finetune", _finetune_inputs,
              lambda ws, did: ws.log_root / "finetune" / did if did else None),
    StageSpec("collect", "result_collection",
              lambda config, options: {"options": [sorted(options.tasks)]},
              lambda ws, did: ws.translated_dir(did) / SUBMISSION_ZIP_NAME if did else None),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)


def resolve_dataset_id(config: PipelineConfig, workspace: Workspace) -> str | None:
    """Dataset id from the config override or a previously processed dataset."""
    if config.dataset.id:
        return config.dataset.id
    try:
        meta = load_meta(workspace.processed_dir)
    except Exception:
        return None
    return meta.get("dataset_id")


def _require_output(producer: StageSpec, consumer: StageSpec, workspace: Workspace,
                    did: str | None) -> None:
    """The precondition of an enabled stage after a disabled one, for dataset id ``did``."""
    if not producer.output_exists(workspace, did):
        path = producer.output(workspace, did)
        raise StagePreconditionError(
            producer.name,
            consumer.name,
            f"no {path}" if path else "no dataset id is resolvable (no processed data)",
        )


def check_preconditions(config: PipelineConfig, workspace: Workspace) -> None:
    """Verify that every enabled stage can get its inputs before running anything."""
    did = resolve_dataset_id(config, workspace)
    for producer, consumer in zip(STAGE_TABLE, STAGE_TABLE[1:]):
        if consumer.enabled(config) and not producer.enabled(config):
            _require_output(producer, consumer, workspace, did)


def _stage_digest(stage: StageSpec, config: PipelineConfig, options: PipelineOptions,
                  upstream: str | None) -> str:
    """Digest of a stage's inputs chained to the digest of the stage before it."""
    relevant = {"stage": stage.name, "inputs": stage.inputs(config, options),
                "upstream": upstream}
    blob = json.dumps(relevant, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _sentinel_digest(workspace: Workspace, stage: str) -> str | None:
    """The digest ``stage`` last completed with in this workspace, if any."""
    try:
        return json.loads(workspace.sentinel_path(stage).read_text(encoding="utf-8"))["digest"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _mark_done(workspace: Workspace, stage: str, digest: str) -> None:
    record = {"stage": stage, "digest": digest,
              "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    with replace_when_done(workspace.sentinel_path(stage)) as fh:
        fh.write((json.dumps(record, indent=2) + "\n").encode("utf-8"))


def run_pipeline(
    config: PipelineConfig,
    workspace: Workspace | str | Path,
    trainer: TrainerAdapter | None = None,
    options: PipelineOptions | None = None,
) -> PipelineReport:
    """Run every enabled stage in order and write a machine-readable report.

    Raises PipelineError naming the failing stage; the report (including the
    failure) is still written to ``log/pipeline/report.json``.
    """
    if not isinstance(workspace, Workspace):
        workspace = Workspace(Path(workspace))
    options = options or PipelineOptions()
    trainer = trainer or SimulationTrainer()

    violations = validate(config)
    if violations:
        details = "; ".join(f"{v.key_path}: {v.message}" for v in violations)
        raise PipelineError(f"configuration is invalid: {details}")
    check_preconditions(config, workspace)

    workspace.root.mkdir(parents=True, exist_ok=True)
    pipeline_log = workspace.pipeline_log_dir()
    pipeline_log.mkdir(parents=True, exist_ok=True)
    # Provenance: the exact config this run saw, in canonical form.
    (pipeline_log / "config.yaml").write_text(serialize_config(config), encoding="utf-8")

    state = _RunState(config, workspace, options, trainer)
    report = PipelineReport(stages=[], dataset_id=None)

    failure: PipelineError | None = None
    upstream: str | None = None
    for previous, stage in zip((None, *STAGE_TABLE), STAGE_TABLE):
        if not stage.enabled(config):
            report.stages.append(StageReport(stage.name, SKIPPED_DISABLED))
            upstream = _sentinel_digest(workspace, stage.name)
            continue
        if previous is not None and not previous.enabled(config):
            try:
                # Again: the dataset stage of this run may have made a new dataset id.
                _require_output(previous, stage, workspace, state.dataset_id)
            except StagePreconditionError as exc:
                report.stages.append(StageReport(stage.name, FAILED, error=str(exc)))
                failure = exc
                break
        digest = upstream = _stage_digest(stage, config, options, upstream)
        if (not options.force and _sentinel_digest(workspace, stage.name) == digest
                and stage.output_exists(workspace, state.dataset_id)):
            report.stages.append(
                StageReport(stage.name, SKIPPED_DONE, artifacts={"digest": digest}))
            continue
        started = time.perf_counter()
        try:
            # Looked up at call time, so a wrapped module attribute is what runs.
            artifacts = globals()[f"_stage_{stage.name}"](state)
        except Exception as exc:
            report.stages.append(
                StageReport(
                    stage.name,
                    FAILED,
                    duration_seconds=time.perf_counter() - started,
                    error=str(exc),
                )
            )
            failure = PipelineError(f"stage '{stage.name}' failed: {exc}")
            failure.__cause__ = exc
            break
        _mark_done(workspace, stage.name, digest)
        report.stages.append(
            StageReport(
                stage.name,
                COMPLETED,
                duration_seconds=time.perf_counter() - started,
                artifacts={**artifacts, "digest": digest},
            )
        )

    report.dataset_id = state.dataset_id
    report_path = pipeline_log / "report.json"
    report_path.write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")
    report.report_path = report_path
    if failure is not None:
        raise failure
    return report


class _RunState:
    """Mutable cross-stage context of one pipeline invocation."""

    def __init__(self, config: PipelineConfig, workspace: Workspace,
                 options: PipelineOptions, trainer: TrainerAdapter):
        self.config = config
        self.workspace = workspace
        self.options = options
        self.trainer = trainer
        # Resolved once: only the dataset stage changes it, and it sets the new id.
        self.dataset_id = resolve_dataset_id(config, workspace)

    def require_dataset_id(self) -> str:
        if self.dataset_id is None:
            raise PipelineError("no dataset id: run the dataset stage or set DATASET.ID")
        return self.dataset_id


def _stage_env_check(state: _RunState) -> dict[str, Any]:
    ws = state.workspace
    ws.root.mkdir(parents=True, exist_ok=True)
    probe = ws.root / ".write_probe"
    try:
        probe.write_text("ok", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise PipelineError(f"workspace {ws.root} is not writable: {exc}") from exc
    usage = shutil.disk_usage(ws.root)
    if usage.free < state.options.min_free_bytes:
        raise PipelineError(
            f"insufficient disk space under {ws.root}: {usage.free} bytes free, "
            f"{state.options.min_free_bytes} required"
        )
    trainer_cmd = getattr(state.trainer, "command", None)
    if trainer_cmd:
        binary = trainer_cmd[0]
        if shutil.which(binary) is None and not Path(binary).exists():
            raise PipelineError(f"external trainer binary not found: {binary}")
    return {"free_bytes": usage.free, "workspace": ws.root}


def _stage_dataset(state: _RunState) -> dict[str, Any]:
    config, ws, options = state.config, state.workspace, state.options
    # Before any shard is written: an unresolvable vocabulary fails fast.
    vocab = load_vocab(resolve_vocab(config.tokenizer.name_or_path))
    sources = sources_from_config(
        config.dataset.customized_datasets, config.dataset.huggingface_datasets
    )
    files = enumerate_corpus_files(
        sources, cache_dir=ws.remote_cache_dir, base_url=options.remote_base_url
    )
    if not files:
        raise PipelineError("configured corpora contain no files")
    plan = options.shard_plan(config)
    sharding = shard_corpus(files, plan, ws.spill_dir, ws.sharded_dir, options.n_workers)
    did = derive_dataset_id(sharding.shards, config.dataset.id or None)
    generation = generate_instances(
        sharding.shards,
        options.masking_policy(),
        vocab,
        ws.processed_dir,
        dataset_id=did,
        n_workers=options.n_workers,
    )
    state.dataset_id = did
    return {
        "dataset_id": did,
        "documents": sharding.num_documents,
        "instances": generation.num_instances,
        "peak_accounted_bytes": sharding.peak_accounted_bytes,
        "manifest": sharding.manifest_path,
        "processed_dir": ws.processed_dir,
        # Provenance: sources are concatenated in config order.
        "source_order": " | ".join(s.label for s in sources),
    }


def _stage_pretrain(state: _RunState) -> dict[str, Any]:
    config, ws, options = state.config, state.workspace, state.options
    did = state.require_dataset_id()
    spec = options.schedule_spec(config.pretrain.num_steps)
    job = build_pretrain_job(
        config,
        spec,
        did,
        dataset_path=ws.processed_dir,
        output_dir=ws.pretrain_model_dir(did),
        log_dir=ws.pretrain_log_dir(did),
        early_stop=options.early_stop,
        seed=options.seed,
    )
    outcome = state.trainer.run(job)
    return {
        "dataset_id": did,
        "checkpoint": outcome.checkpoint_path,
        "eval_loss": outcome.eval_loss,
        "log": outcome.log_path,
    }


def _stage_finetune(state: _RunState) -> dict[str, Any]:
    ws, options = state.workspace, state.options
    did = state.require_dataset_id()
    _, pretrain_checkpoint = parse_result_file(ws.pretrain_model_dir(did))
    if not pretrain_checkpoint.exists():
        raise PipelineError(f"pretrained checkpoint missing: {pretrain_checkpoint}")

    points = finetune_search(options.tasks, options.search_space, options.stilt_sources)
    best: dict[str, tuple[TrainerJob, RunOutcome]] = {}

    def run_point(point: GridPoint) -> tuple[TrainerJob, RunOutcome]:
        # A STILT child's wave starts after its parent task's winner is chosen.
        checkpoint = (best[point.stilt_parent][1].checkpoint_path if point.stilt_parent
                      else pretrain_checkpoint)
        job = point.job(str(checkpoint), ws.finetune_output_dir(did, point.task, point.run),
                        ws.finetune_log_dir(did, point.task, point.run))
        outcome = state.trainer.run(job)
        write_run_record(job, outcome)
        return job, outcome

    for wave in schedule_waves(points):
        if options.finetune_parallelism > 1:
            with ThreadPoolExecutor(max_workers=options.finetune_parallelism) as pool:
                wave_outcomes = list(pool.map(run_point, wave))
        else:
            wave_outcomes = [run_point(point) for point in wave]
        for task in {job.task for job, _ in wave_outcomes}:
            best[task] = select_best(pair for pair in wave_outcomes if pair[0].task == task)

    return {
        "dataset_id": did,
        "jobs": len(points),
        **{
            f"best_{task}": f"{pair[0].job_id} metric={pair[1].val_metric}"
            for task, pair in sorted(best.items())
        },
    }


def _stage_collect(state: _RunState) -> dict[str, Any]:
    ws = state.workspace
    did = state.require_dataset_id()
    summary = summarize_val(ws.log_root, did, output_root=ws.output_root)
    best = collect_best_val(summary.results)
    zip_path = translate_test_result(best, ws.translated_dir(did))
    return {
        "dataset_id": did,
        "runs": len(summary.results),
        "skipped_runs": len(summary.skipped),
        "tasks": len(best),
        "submission_zip": zip_path,
    }
