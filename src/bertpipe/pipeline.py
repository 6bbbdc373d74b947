"""Five-stage pipeline driver: env check, dataset, pretrain, finetune, collect.

``STAGE_TABLE`` is the one description of the stages. A row names a stage,
the config section whose ``ENABLED`` flag switches it (env_check is always
on), the config values its work depends on, and the output it leaves; the
stage's work is the module function ``_stage_<name>``. The config is the one
settings object: every value that steers an output is a YAML key, and the
run-control arguments of :func:`run_pipeline` (worker counts, the remote
corpus URL, ``force``) change no output byte. Three rules read the table:

* Preconditions: an enabled stage that follows a disabled one needs the
  disabled stage's output on disk already. This is checked before anything
  runs, and again before the stage starts, with the dataset id of this run.
* Chained digests: a stage's digest hashes its inputs and the digest of the
  stage before it (the one computed in this run, or the one in that stage's
  sentinel when it is disabled), so a change upstream re-runs every later
  stage. Every digest is computed before the first stage runs, after
  ``config.validate`` has built the same stage records and reported any
  value they reject under its ``SECTION.KEY``. Outputs after the dataset
  are keyed by the dataset id, so a new dataset shows up downstream as a
  missing output, not as a digest change.
* Sentinels: a completed stage records its digest under ``.stages/``. A later
  run skips it only when the recorded digest equals the new one and the
  stage's output still exists; ``force`` ignores sentinels. A stage that is
  about to run deletes its sentinel first, so a stage that fails leaves none.

Those rules read only ``records``: the digest-input records, output names and
format versions. Each stage's own code is listed in ``_STAGE_CODE``, one
``{name: module}`` table, and imported when the stage runs, so a re-run that
skips every stage loads none of it. The module ``__getattr__`` (PEP 562)
serves those names, so ``pipeline.generate_instances`` and the like still
resolve, and can be wrapped from outside. A stage binds its names into this
module's globals when it is called and then calls them by bare name, looked
up at call time: a name already bound, wrapped or not, is what runs.

Directory layout under the workspace root::

    data/sharded/               shard files + MANIFEST.tsv
    data/processed/             pre-masked instance files + META.yaml
    saved_models/pretrain/<dataset_id>/
    log/pretrain/<dataset_id>/
    log/finetune/<dataset_id>/RUNS.tsv        this grid's runs and each task's winner
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
from dataclasses import asdict, dataclass, field, replace
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

from .atomic import replace_when_done
from .config import PipelineConfig, serialize_config, validate
from .records import (
    INSTANCE_FORMAT_VERSION, META_NAME, RESULT_FILE, RUNS_INDEX, SHARD_FORMAT_VERSION,
    SUBMISSION_ZIP_NAME, EarlyStopPolicy, IngestError, VocabularyError, load_meta,
    masking_policy, pretrain_schedule, resolve_vocab, scan_local, search_space, shard_plan,
)

# Stage code by the name the stages call it: "module", or "module.attribute" when renamed.
_STAGE_CODE: dict[str, str] = {
    "sources_from_config": "ingest", "enumerate_corpus_files": "ingest",
    "shard_corpus": "sharding", "derive_dataset_id": "sharding.dataset_id",
    "load_vocab": "tokenization", "generate_instances": "instances",
    "SimulationTrainer": "trainer", "TrainerAdapter": "trainer", "RunOutcome": "trainer",
    "build_pretrain_job": "trainer", "parse_result_file": "trainer",
    "GridPoint": "search", "finetune_search": "search", "schedule_waves": "search",
    "select_best": "search", "write_run_record": "collect", "write_runs_index": "collect",
    "summarize_val": "collect", "collect_best_val": "collect",
    "translate_test_result": "collect",
}


def __getattr__(name: str) -> Any:
    """Import the stage code ``name`` on first use and bind it in this module."""
    try:
        module, _, attr = _STAGE_CODE[name].partition(".")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __package__), attr or name)
    return value


def _import_stage_code(*modules: str) -> None:
    """Bind the stage code of ``modules`` here; a name bound already (or wrapped) stays."""
    for name, where in _STAGE_CODE.items():
        if name not in globals() and where.partition(".")[0] in modules:
            __getattr__(name)


COMPLETED = "completed"
SKIPPED_DISABLED = "skipped_disabled"
SKIPPED_DONE = "skipped_done"
FAILED = "failed"

MIN_FREE_BYTES = 256 * 2**20  # env_check refuses a workspace with less free disk
REDACTED = "<redacted>"  # stands in for WANDB.API_KEY in the config echo


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

    def finetune_root(self, dataset_id: str) -> Path:
        return self.log_root / "finetune" / dataset_id

    def finetune_log_dir(self, dataset_id: str, task: str, run: str) -> Path:
        return self.finetune_root(dataset_id) / task / run

    def finetune_output_dir(self, dataset_id: str, task: str, run: str) -> Path:
        return self.output_root / "finetune" / dataset_id / task / run

    def translated_dir(self, dataset_id: str) -> Path:
        return self.translated_root / "finetune" / dataset_id

    def pipeline_log_dir(self) -> Path:
        return self.log_root / "pipeline"


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
            "stages": [{**asdict(s), "artifacts": {k: str(v) for k, v in s.artifacts.items()}}
                       for s in self.stages],
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


def _vocab_sha256(name_or_path: str) -> str | None:
    """sha256 of the resolved vocabulary file; None: the dataset stage reports why."""
    try:
        return hashlib.sha256(resolve_vocab(name_or_path).read_bytes()).hexdigest()
    except (VocabularyError, OSError):
        return None


def _dataset_inputs(config: PipelineConfig) -> dict[str, Any]:
    # A remote corpus is keyed by (name, split) alone: a completed cache never changes.
    return {
        "dataset": asdict(config.dataset),
        "tokenizer": asdict(config.tokenizer),
        "vocab": _vocab_sha256(config.tokenizer.name_or_path),
        "shard_plan": asdict(shard_plan(config)),
        "masking_policy": asdict(masking_policy(config)),
        "corpus": _corpus_fingerprint(config.dataset.customized_datasets),
        "instance_format": INSTANCE_FORMAT_VERSION,
        "shard_format": SHARD_FORMAT_VERSION,
    }


def _pretrain_inputs(config: PipelineConfig) -> dict[str, Any]:
    return {
        "pretrain": asdict(config.pretrain),
        "tokenizer": asdict(config.tokenizer),
        "schedule": asdict(pretrain_schedule(config)),
        "early_stop": asdict(EarlyStopPolicy()),  # build_pretrain_job's default
        "seed": config.dataset.seed,
    }


def _finetune_inputs(config: PipelineConfig) -> dict[str, Any]:
    return {"tasks": sorted(config.finetune.tasks), "grid": asdict(search_space(config))}


@dataclass(frozen=True)
class StageSpec:
    """One row of ``STAGE_TABLE``; the stage's work is ``_stage_<name>``."""

    name: str
    section: str | None  # PipelineConfig attribute holding ENABLED; None: always on
    # The config values the stage's outputs depend on, as JSON: the stage's
    # records (shard plan, masking policy, schedule, grid), which validate checked.
    inputs: Callable[[PipelineConfig], Any]
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
    StageSpec("env_check", None, lambda config: None),
    StageSpec("dataset", "dataset", _dataset_inputs,
              lambda ws, did: ws.processed_dir / META_NAME),
    StageSpec("pretrain", "pretrain", _pretrain_inputs,
              lambda ws, did: ws.pretrain_model_dir(did) / RESULT_FILE if did else None),
    StageSpec("finetune", "finetune", _finetune_inputs,
              lambda ws, did: ws.finetune_root(did) / RUNS_INDEX if did else None),
    StageSpec("collect", "result_collection",
              lambda config: {"tasks": sorted(config.finetune.tasks)},
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


def check_preconditions(config: PipelineConfig, workspace: Workspace,
                        dataset_id: str | None = ...) -> None:
    """Verify that every enabled stage can get its inputs before running anything.

    ``dataset_id`` defaults to the one :func:`resolve_dataset_id` finds.
    """
    if dataset_id is ...:
        dataset_id = resolve_dataset_id(config, workspace)
    for producer, consumer in zip(STAGE_TABLE, STAGE_TABLE[1:]):
        if consumer.enabled(config) and not producer.enabled(config):
            _require_output(producer, consumer, workspace, dataset_id)


def _stage_digest(stage: StageSpec, config: PipelineConfig, upstream: str | None) -> str:
    """Digest of a stage's inputs chained to the digest of the stage before it."""
    relevant = {"stage": stage.name, "inputs": stage.inputs(config), "upstream": upstream}
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
    *,
    n_workers: int = 1,
    finetune_parallelism: int = 1,
    remote_base_url: str | None = None,
    force: bool = False,
) -> PipelineReport:
    """Run every enabled stage in order and write a machine-readable report.

    The keyword arguments control the run and change no output byte, so no
    digest hashes them: preprocessing worker processes, finetune jobs run at
    once, the base URL serving remote corpora, and ``force``, which re-runs
    stages their sentinels say are done.

    Raises PipelineError naming the failing stage; the report (including the
    failure) is still written to ``log/pipeline/report.json``.
    """
    if not isinstance(workspace, Workspace):
        workspace = Workspace(Path(workspace))

    # Before any work or write: each enabled stage's records reject a bad value.
    errors = validate(config)
    if errors:
        raise PipelineError(f"configuration is invalid: {'; '.join(map(str, errors))}")
    # A disabled stage passes on the digest its sentinel recorded.
    digests: list[str | None] = []
    for stage in STAGE_TABLE:
        upstream = digests[-1] if digests else None
        digests.append(_stage_digest(stage, config, upstream) if stage.enabled(config)
                       else _sentinel_digest(workspace, stage.name))
    # Resolved once (META.yaml is parsed at most once); only the dataset stage changes it.
    dataset_id = resolve_dataset_id(config, workspace)
    check_preconditions(config, workspace, dataset_id)

    workspace.root.mkdir(parents=True, exist_ok=True)
    pipeline_log = workspace.pipeline_log_dir()
    pipeline_log.mkdir(parents=True, exist_ok=True)
    # Provenance: the exact config this run used, flag overrides included, in
    # canonical form; a tracking API key is a secret and stays out of the log.
    provenance = config
    if config.wandb.api_key is not None:
        provenance = replace(config, wandb=replace(config.wandb, api_key=REDACTED))
    with replace_when_done(pipeline_log / "config.yaml") as fh:
        fh.write(serialize_config(provenance).encode("utf-8"))

    state = _RunState(config, workspace, trainer, dataset_id, n_workers, finetune_parallelism,
                      remote_base_url)
    report = PipelineReport(stages=[], dataset_id=None)

    failure: PipelineError | None = None
    for previous, stage, digest in zip((None, *STAGE_TABLE), STAGE_TABLE, digests):
        if not stage.enabled(config):
            report.stages.append(StageReport(stage.name, SKIPPED_DISABLED))
            continue
        if previous is not None and not previous.enabled(config):
            try:
                # Again: the dataset stage of this run may have made a new dataset id.
                _require_output(previous, stage, workspace, state.dataset_id)
            except StagePreconditionError as exc:
                report.stages.append(StageReport(stage.name, FAILED, error=str(exc)))
                failure = exc
                break
        started = time.perf_counter()
        try:
            if (not force and _sentinel_digest(workspace, stage.name) == digest
                    and stage.output_exists(workspace, state.dataset_id)):
                report.stages.append(
                    StageReport(stage.name, SKIPPED_DONE, artifacts={"digest": digest}))
                continue
            # The stage rewrites its outputs in place: until it completes, no
            # sentinel may vouch for them, or a run that crashes mid-stage
            # leaves a later run skipping it beside half-written outputs.
            workspace.sentinel_path(stage.name).unlink(missing_ok=True)
            # Looked up at call time, so a wrapped module attribute is what runs.
            artifacts = globals()[f"_stage_{stage.name}"](state)
            # Part of the stage: a sentinel that cannot be written fails it.
            _mark_done(workspace, stage.name, digest)
        except Exception as exc:
            elapsed = time.perf_counter() - started
            report.stages.append(StageReport(stage.name, FAILED, elapsed, error=str(exc)))
            failure = PipelineError(f"stage '{stage.name}' failed: {exc}")
            failure.__cause__ = exc
            break
        report.stages.append(StageReport(stage.name, COMPLETED, time.perf_counter() - started,
                                         {**artifacts, "digest": digest}))

    report.dataset_id = state.dataset_id
    report_path = pipeline_log / "report.json"
    with replace_when_done(report_path) as fh:
        fh.write((json.dumps(report.to_json(), indent=2) + "\n").encode("utf-8"))
    report.report_path = report_path
    if failure is not None:
        raise failure
    return report


class _RunState:
    """Mutable cross-stage context of one pipeline invocation."""

    def __init__(self, config: PipelineConfig, workspace: Workspace,
                 trainer: TrainerAdapter | None, dataset_id: str | None, n_workers: int,
                 finetune_parallelism: int, remote_base_url: str | None):
        self.config = config
        self.workspace = workspace
        self.trainer = trainer  # None: a SimulationTrainer, built when a stage needs one
        self.dataset_id = dataset_id  # the dataset stage sets the new id
        self.n_workers = n_workers
        self.finetune_parallelism = finetune_parallelism
        self.remote_base_url = remote_base_url

    def require_dataset_id(self) -> str:
        if self.dataset_id is None:
            raise PipelineError("no dataset id: run the dataset stage or set DATASET.ID")
        return self.dataset_id

    def require_trainer(self) -> TrainerAdapter:
        if self.trainer is None:
            self.trainer = SimulationTrainer()
        return self.trainer


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
    if usage.free < MIN_FREE_BYTES:
        raise PipelineError(
            f"insufficient disk space under {ws.root}: {usage.free} bytes free, "
            f"{MIN_FREE_BYTES} required"
        )
    trainer_cmd = getattr(state.trainer, "command", None)
    if trainer_cmd:
        binary = trainer_cmd[0]
        if shutil.which(binary) is None and not Path(binary).exists():
            raise PipelineError(f"external trainer binary not found: {binary}")
    return {"free_bytes": usage.free, "workspace": ws.root}


def _stage_dataset(state: _RunState) -> dict[str, Any]:
    _import_stage_code("ingest", "sharding", "tokenization", "instances")
    config, ws = state.config, state.workspace
    # Before any shard is written: an unresolvable vocabulary fails fast.
    vocab = load_vocab(resolve_vocab(config.tokenizer.name_or_path))
    sources = sources_from_config(
        config.dataset.customized_datasets, config.dataset.huggingface_datasets
    )
    files = enumerate_corpus_files(
        sources, cache_dir=ws.remote_cache_dir, base_url=state.remote_base_url
    )
    if not files:
        raise PipelineError("configured corpora contain no files")
    sharding = shard_corpus(files, shard_plan(config), ws.spill_dir, ws.sharded_dir,
                            state.n_workers)
    did = derive_dataset_id(sharding.shards, config.dataset.id or None)
    generation = generate_instances(sharding.shards, masking_policy(config), vocab,
                                    ws.processed_dir, dataset_id=did, n_workers=state.n_workers)
    state.dataset_id = did
    return {
        "dataset_id": did,
        "documents": sharding.num_documents,
        "instances": generation.num_instances,
        "peak_accounted_bytes": sharding.peak_accounted_bytes,
        "spill_runs": sharding.spill_runs,
        "manifest": sharding.manifest_path,
        "processed_dir": ws.processed_dir,
        # Provenance: sources are concatenated in config order.
        "source_order": " | ".join(s.label for s in sources),
    }


def _stage_pretrain(state: _RunState) -> dict[str, Any]:
    _import_stage_code("trainer")
    config, ws = state.config, state.workspace
    did = state.require_dataset_id()
    job = build_pretrain_job(config, did, ws.processed_dir, ws.pretrain_model_dir(did),
                             ws.pretrain_log_dir(did))
    outcome = state.require_trainer().run(job)
    return {"dataset_id": did, "checkpoint": outcome.checkpoint_path,
            "eval_loss": outcome.eval_loss, "log": job.log_dir}


def _stage_finetune(state: _RunState) -> dict[str, Any]:
    _import_stage_code("trainer", "search", "collect")
    config, ws, trainer = state.config, state.workspace, state.require_trainer()
    did = state.require_dataset_id()
    _, pretrain_checkpoint = parse_result_file(ws.pretrain_model_dir(did))
    if not pretrain_checkpoint.exists():
        raise PipelineError(f"pretrained checkpoint missing: {pretrain_checkpoint}")

    points = finetune_search(config.finetune.tasks, search_space(config))
    best: dict[str, tuple[GridPoint, RunOutcome]] = {}

    def run_point(point: GridPoint) -> tuple[GridPoint, RunOutcome]:
        # A STILT child's wave starts after its parent task's winner is chosen.
        checkpoint = (best[point.stilt_parent][1].checkpoint_path if point.stilt_parent
                      else pretrain_checkpoint)
        log_dir = ws.finetune_log_dir(did, point.task, point.run)
        outcome = trainer.run(point.job(
            str(checkpoint), ws.finetune_output_dir(did, point.task, point.run), log_dir))
        write_run_record(point, outcome, log_dir)
        return point, outcome

    for wave in schedule_waves(points):
        if state.finetune_parallelism > 1:
            from concurrent.futures import ThreadPoolExecutor  # a serial grid never loads it

            with ThreadPoolExecutor(max_workers=state.finetune_parallelism) as pool:
                wave_outcomes = list(pool.map(run_point, wave))
        else:
            wave_outcomes = [run_point(point) for point in wave]
        for task in {point.task for point in wave}:
            best[task] = select_best(pair for pair in wave_outcomes if pair[0].task == task)

    # Collect reads only this grid; runs of an earlier grid are the user's data and stay.
    finetune_root = ws.finetune_root(did)
    write_runs_index(finetune_root, [
        (point.task, point.run, best[point.task][0].run == point.run)
        for point in points
    ])
    grid = {(point.task, point.run) for point in points}
    stale = [d for d in finetune_root.glob("*/*")
             if d.is_dir() and (d.parent.name, d.name) not in grid]
    return {
        "dataset_id": did,
        "jobs": len(points),
        "stale_runs": len(stale),
        **{
            f"best_{task}": f"{pair[0].job_id} metric={pair[1].val_metric}"
            for task, pair in sorted(best.items())
        },
    }


def _stage_collect(state: _RunState) -> dict[str, Any]:
    _import_stage_code("collect")
    ws = state.workspace
    did = state.require_dataset_id()
    summary = summarize_val(ws, did)
    best = collect_best_val(summary.results)
    zip_path = translate_test_result(best, ws.translated_dir(did))
    return {
        "dataset_id": did,
        "runs": len(summary.results),
        "submission_zip": zip_path,
    }
