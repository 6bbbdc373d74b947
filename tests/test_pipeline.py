from __future__ import annotations

import hashlib
import json
import re
import shutil
import signal
import sys
import zipfile
from pathlib import Path

import pytest

from bertpipe import glue, pipeline, search
from bertpipe.collect import translate_predictions
from bertpipe.config import parse_config, validate, with_overrides
from bertpipe.instances import INSTANCE_FORMAT_VERSION, load_meta
from bertpipe.pipeline import (
    COMPLETED,
    SKIPPED_DISABLED,
    SKIPPED_DONE,
    PipelineError,
    StagePreconditionError,
    Workspace,
    check_preconditions,
    run_pipeline,
)
from bertpipe.sharding import SHARD_FORMAT_VERSION
from bertpipe.synthdata import generate_corpus
from bertpipe.tokenization import load_vocab, resolve_vocab, vocab_digest
from bertpipe.trainer import ExternalCommandTrainer, SimulationTrainer

STUB_TRAINER = Path(__file__).with_name("stub_trainer.py")

GRID_RUNS = 2  # finetune runs per task of corpus_config's grid


def stilt_pair(tmp_path):
    """MNLI and its STILT child RTE on a 2 x 1 x 1 grid, over a dataset that is not built.

    The simulated trainer reads no instance file, so an empty META.yaml stands
    for the dataset stage's output.
    """
    cfg = parse_config("DATASET:\n  ENABLED: False\n  ID: pinned\nPRETRAIN:\n  NUM_STEPS: 60\n"
                       "FINETUNE:\n  TASKS: [MNLI, RTE]\n  LEARNING_RATES: [1.0e-5, 3.0e-5]\n"
                       "  BATCH_SIZES: [16]\n  EPOCHS: [3]\n")
    ws = Workspace(tmp_path / "ws")
    ws.processed_dir.mkdir(parents=True)
    (ws.processed_dir / "META.yaml").touch()
    return cfg, ws


def corpus_config(tmp_path) -> str:
    """A small run: 2 + 1 shards, 2 masked copies, 4 tasks of GRID_RUNS runs each."""
    generate_corpus(tmp_path / "corpus", 150_000, seed=9, n_files=2)
    return (
        f"SYSTEM:\n  MAX_MEMORY_IN_GB: 0.25\n"
        f"DATASET:\n  CUSTOMIZED_DATASETS:\n    - {tmp_path / 'corpus'}\n"
        f"  NUM_TRAIN_SHARDS: 2\n  NUM_TEST_SHARDS: 1\n  FRAC_TEST: 0.1\n  DUP_FACTOR: 2\n"
        f"PRETRAIN:\n  NUM_STEPS: 60\n"
        f"FINETUNE:\n  TASKS: [MNLI, RTE, CoLA, STS-B]\n"
        f"  LEARNING_RATES: [1.0e-5, 3.0e-5]\n  BATCH_SIZES: [16]\n  EPOCHS: [3]\n"
        f"TOKENIZER:\n  NAME_OR_PATH: mini-uncased\n"
    )


class TestPreconditions:
    def test_dataset_disabled_without_data(self, tmp_path):
        cfg = parse_config("DATASET:\n  ENABLED: False\n")
        with pytest.raises(StagePreconditionError) as excinfo:
            check_preconditions(cfg, Workspace(tmp_path))
        assert excinfo.value.producer == "dataset"
        assert excinfo.value.consumer == "pretrain"

    def test_collect_without_finetune_logs(self, tmp_path):
        cfg = parse_config(
            "DATASET:\n  ENABLED: False\n  ID: d1\n"
            "PRETRAIN:\n  ENABLED: False\nFINETUNE:\n  ENABLED: False\n"
        )
        with pytest.raises(StagePreconditionError) as excinfo:
            check_preconditions(cfg, Workspace(tmp_path))
        assert (excinfo.value.producer, excinfo.value.consumer) == ("finetune", "collect")

    def test_run_pipeline_surfaces_precondition(self, tmp_path):
        cfg = parse_config("DATASET:\n  ENABLED: False\n")
        with pytest.raises(StagePreconditionError):
            run_pipeline(cfg, Workspace(tmp_path / "ws"))

    def test_disabled_stage_checked_with_this_runs_dataset_id(self, tmp_path):
        text = corpus_config(tmp_path)
        ws = Workspace(tmp_path / "ws")
        run_pipeline(with_overrides(parse_config(text), {"FINETUNE.ENABLED": False,
                                                         "RESULT_COLLECTION.ENABLED": False}), ws)
        corpus_file = sorted((tmp_path / "corpus").iterdir())[0]
        with open(corpus_file, "a", encoding="utf-8") as fh:
            fh.write("\n\nan appended article about nothing in particular\n")
        # The checkpoint of the old dataset id exists; the new id has none.
        cfg = with_overrides(parse_config(text), {"PRETRAIN.ENABLED": False})
        with pytest.raises(StagePreconditionError) as excinfo:
            run_pipeline(cfg, ws)
        assert (excinfo.value.producer, excinfo.value.consumer) == ("pretrain", "finetune")
        report = json.loads((ws.pipeline_log_dir() / "report.json").read_text())
        assert [s["status"] for s in report["stages"]] == [
            SKIPPED_DONE, COMPLETED, SKIPPED_DISABLED, "failed",
        ]

    def test_invalid_config_rejected(self, tmp_path):
        cfg = parse_config("")  # dataset stage enabled, no corpora listed
        with pytest.raises(PipelineError, match="DATASET"):
            run_pipeline(cfg, Workspace(tmp_path / "ws"))


class TestFullRun:
    def test_preprocess_only_then_train(self, tmp_path):
        # Stage-disabling workflow: first preprocessing only, then the rest
        # on the preprocessed data.
        preprocess_cfg = with_overrides(parse_config(corpus_config(tmp_path)), {
            "PRETRAIN.ENABLED": False, "FINETUNE.ENABLED": False,
            "RESULT_COLLECTION.ENABLED": False,
        })
        ws = Workspace(tmp_path / "ws")
        report = run_pipeline(preprocess_cfg, ws)
        assert [s.status for s in report.stages] == [
            COMPLETED, COMPLETED, SKIPPED_DISABLED, SKIPPED_DISABLED, SKIPPED_DISABLED,
        ]
        assert report.dataset_id
        assert (ws.processed_dir / "META.yaml").is_file()

        # Second phase: dataset disabled, everything else on.
        cfg2 = with_overrides(parse_config(corpus_config(tmp_path)), {"DATASET.ENABLED": False})
        report2 = run_pipeline(cfg2, ws)
        statuses = {s.name: s.status for s in report2.stages}
        assert statuses["dataset"] == SKIPPED_DISABLED
        assert statuses["pretrain"] == COMPLETED
        assert statuses["finetune"] == COMPLETED
        assert statuses["collect"] == COMPLETED
        assert report2.dataset_id == report.dataset_id

        zip_path = ws.translated_dir(report2.dataset_id) / "glue_submission.zip"
        assert zip_path.is_file()

    def test_resume_is_noop(self, tmp_path):
        cfg = parse_config(corpus_config(tmp_path))
        ws = Workspace(tmp_path / "ws")
        first = run_pipeline(cfg, ws)
        assert all(s.status == COMPLETED for s in first.stages)
        second = run_pipeline(cfg, ws)
        assert all(s.status == SKIPPED_DONE for s in second.stages)
        assert second.dataset_id == first.dataset_id
        # report.json says why: each skipped stage's digest is the one it completed with.
        assert [s.artifacts["digest"] for s in second.stages] == [
            s.artifacts["digest"] for s in first.stages
        ]

    def test_report_written_and_machine_readable(self, tmp_path):
        cfg = parse_config(corpus_config(tmp_path))
        ws = Workspace(tmp_path / "ws")
        report = run_pipeline(cfg, ws)
        data = json.loads(report.report_path.read_text())
        assert data["dataset_id"] == report.dataset_id
        assert [s["name"] for s in data["stages"]] == list(
            ("env_check", "dataset", "pretrain", "finetune", "collect")
        )
        assert (ws.pipeline_log_dir() / "config.yaml").is_file()

    @pytest.mark.parametrize("name", ["config.yaml", "report.json"])
    def test_failed_log_write_keeps_the_previous_file(self, tmp_path, monkeypatch, name):
        # A file-size limit set just before the write cuts it partway, as a
        # full disk would: the previous file stays whole, with no .tmp beside it.
        resource = pytest.importorskip("resource")
        cfg = parse_config("DATASET:\n  ENABLED: False\n  ID: d1\nPRETRAIN:\n  ENABLED: False\n"
                           "FINETUNE:\n  ENABLED: False\nRESULT_COLLECTION:\n  ENABLED: False\n")
        ws = Workspace(tmp_path / "ws")
        run_pipeline(cfg, ws)
        path = ws.pipeline_log_dir() / name
        previous = path.read_bytes()
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)

        def limited(real):
            def call(*args):
                text = real(*args)
                resource.setrlimit(resource.RLIMIT_FSIZE, (len(previous) // 2, hard))
                return text
            return call

        if name == "config.yaml":
            monkeypatch.setattr(pipeline, "serialize_config", limited(pipeline.serialize_config))
        else:
            monkeypatch.setattr(pipeline.PipelineReport, "to_json",
                                limited(pipeline.PipelineReport.to_json))
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        try:
            with pytest.raises(OSError):
                run_pipeline(cfg, ws)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == previous
        assert not list(ws.pipeline_log_dir().glob("*.tmp"))

    def test_stage_failure_names_stage_and_halts(self, tmp_path):
        cfg = parse_config(
            "DATASET:\n  CUSTOMIZED_DATASETS:\n    - /nonexistent/corpus\n"
            "TOKENIZER:\n  NAME_OR_PATH: mini-uncased\n"
        )
        ws = Workspace(tmp_path / "ws")
        with pytest.raises(PipelineError, match="stage 'dataset' failed"):
            run_pipeline(cfg, ws)
        report = json.loads((ws.pipeline_log_dir() / "report.json").read_text())
        statuses = {s["name"]: s["status"] for s in report["stages"]}
        assert statuses["dataset"] == "failed"
        assert "pretrain" not in statuses  # later stages never started

    def test_unresolvable_vocabulary_fails_before_sharding(self, tmp_path):
        # The default TOKENIZER.NAME_OR_PATH, bert-large-uncased, is not bundled.
        text = corpus_config(tmp_path).replace("TOKENIZER:\n  NAME_OR_PATH: mini-uncased\n", "")
        ws = Workspace(tmp_path / "ws")
        with pytest.raises(PipelineError, match="bert-large-uncased"):
            run_pipeline(parse_config(text), ws)
        assert not (ws.sharded_dir / "MANIFEST.tsv").exists()

    def test_log_layout(self, tmp_path):
        cfg = parse_config(corpus_config(tmp_path))
        ws = Workspace(tmp_path / "ws")
        report = run_pipeline(cfg, ws)
        did = report.dataset_id
        assert (ws.log_root / "pretrain" / did / "steps.tsv").is_file()
        rte_runs = list((ws.log_root / "finetune" / did / "RTE").iterdir())
        assert len(rte_runs) == GRID_RUNS
        for run_dir in rte_runs:
            record = json.loads((run_dir / "run.json").read_text())
            assert set(record["hyperparams"]) == {"learning_rate", "batch_size", "epochs"}
            assert record["task"] == "RTE" and record["metric_name"] == "accuracy"
        assert (ws.saved_models_root / "pretrain" / did / "checkpoint.json").is_file()

    def test_stilt_children_use_parent_checkpoint(self, tmp_path):
        cfg = parse_config(corpus_config(tmp_path))
        ws = Workspace(tmp_path / "ws")
        report = run_pipeline(cfg, ws)
        did = report.dataset_id
        rte_run = next((ws.log_root / "finetune" / did / "RTE").iterdir())
        record = json.loads((rte_run / "run.json").read_text())
        assert record["stilt_parent"] == "MNLI"

    def test_finetune_argv_is_what_the_simulation_reads(self, tmp_path, monkeypatch):
        # The argv is the job's only setting: a flag it lacks fails the job, naming both.
        build_argv = search.build_finetune_argv

        def without_epochs(*args):
            argv = list(build_argv(*args))
            at = argv.index("--num_train_epochs")
            return tuple(argv[:at] + argv[at + 2:])

        monkeypatch.setattr(search, "build_finetune_argv", without_epochs)
        ws = Workspace(tmp_path / "ws")
        message = "job finetune/MNLI/lr1e-05_bs16_ep3: argv has no --num_train_epochs value"
        with pytest.raises(PipelineError, match=f"^stage 'finetune' failed: {message}$"):
            run_pipeline(parse_config(corpus_config(tmp_path)), ws)
        report = json.loads((ws.pipeline_log_dir() / "report.json").read_text())
        assert [s["status"] for s in report["stages"]] == ["completed"] * 3 + ["failed"]

    def test_finetune_parallelism_same_selection(self, tmp_path):
        cfg = parse_config(corpus_config(tmp_path))
        serial_ws, parallel_ws = Workspace(tmp_path / "w1"), Workspace(tmp_path / "w2")
        r1 = run_pipeline(cfg, serial_ws, finetune_parallelism=1)
        r2 = run_pipeline(cfg, parallel_ws, finetune_parallelism=4)
        b1 = {k: v for k, v in r1.stage("finetune").artifacts.items() if k.startswith("best_")}
        b2 = {k: v for k, v in r2.stage("finetune").artifacts.items() if k.startswith("best_")}
        assert b1 == b2


    def test_smaller_grid_rerun_ignores_stale_runs(self, tmp_path):
        text = corpus_config(tmp_path)
        ws = Workspace(tmp_path / "ws")

        def grid(*learning_rates):
            return with_overrides(parse_config(text), {"FINETUNE.TASKS": ["RTE"],
                                                       "FINETUNE.LEARNING_RATES": learning_rates})

        run_pipeline(grid(1e-5, 8e-5), ws)
        report = run_pipeline(grid(1e-5), ws)
        did = report.dataset_id
        finetune = report.stage("finetune").artifacts
        assert finetune["best_RTE"].split()[0] == "finetune/RTE/lr1e-05_bs16_ep3"
        assert finetune["stale_runs"] == 1
        assert ws.finetune_log_dir(did, "RTE", "lr8e-05_bs16_ep3").is_dir()  # the user's data
        assert report.stage("collect").artifacts["runs"] == 1

        predictions = ws.finetune_output_dir(did, "RTE", "lr1e-05_bs16_ep3") / "predictions.tsv"
        rows = [tuple(line.split("\t")) for line in predictions.read_text().splitlines()]
        zip_path = ws.translated_dir(did) / "glue_submission.zip"
        with zipfile.ZipFile(zip_path) as zf:
            shipped = zf.read("RTE.tsv").decode()
        assert shipped == translate_predictions(glue.get_task("RTE"), rows)


    def test_corrupt_winner_record_fails_collect(self, tmp_path):
        # The finetune stage's winner is what ships; collect never falls back to a runner-up.
        ws = Workspace(tmp_path / "ws")
        cfg = with_overrides(parse_config(corpus_config(tmp_path)), {
            "FINETUNE.TASKS": ["RTE"], "FINETUNE.LEARNING_RATES": [1e-5, 3e-5, 5e-5, 8e-5]})
        report = run_pipeline(cfg, ws)
        did = report.dataset_id
        winner = report.stage("finetune").artifacts["best_RTE"].split()[0].rsplit("/", 1)[1]
        assert winner == "lr3e-05_bs16_ep3"
        winner_dir = ws.finetune_log_dir(did, "RTE", winner)
        (winner_dir / "run.json").write_text("{truncated")
        (ws.translated_dir(did) / "glue_submission.zip").unlink()
        with pytest.raises(PipelineError, match="stage 'collect' failed") as excinfo:
            run_pipeline(cfg, ws)
        assert str(winner_dir) in str(excinfo.value)
        assert not (ws.translated_dir(did) / "glue_submission.zip").exists()


    def test_finetune_and_collect_bytes_are_pinned(self, tmp_path):
        # Every file the trainer, the finetune stage and collect leave is hashed,
        # with the workspace path read as "<ws>": a metric or loss that does not
        # round-trip through text moves the digest.
        cfg, ws = stilt_pair(tmp_path)
        run_pipeline(cfg, ws)
        names = {"run.json", "RUNS.tsv", "RESULT.tsv", "checkpoint.json", "predictions.tsv",
                 "steps.tsv", "glue_submission.zip"}
        files = sorted(p for p in ws.root.rglob("*") if p.name in names)
        digest = hashlib.sha256()
        for path in files:
            digest.update(f"{path.relative_to(ws.root)}\n".encode())
            digest.update(path.read_bytes().replace(str(ws.root).encode(), b"<ws>"))
        assert len(files) == 25  # 3 for pretrain, 5 per finetune run, RUNS.tsv, the zip
        assert digest.hexdigest()[:16] == "d8b1aba6807fe3ba"

    def test_result_without_eval_loss_fails_finetune(self, tmp_path, monkeypatch):
        # The simulation's outcome is read back from the RESULT.tsv it leaves, as
        # an external trainer's is: a finetune RESULT.tsv without eval_loss fails.
        from bertpipe.trainer import _write_job_outputs as write_outputs

        def without_eval_loss(output_dir, checkpoint, eval_loss, predictions=None):
            written = write_outputs(output_dir, checkpoint, eval_loss, predictions)
            if checkpoint["kind"] == "finetune":
                result = output_dir / "RESULT.tsv"
                lines = result.read_text().splitlines(keepends=True)
                result.write_text("".join(l for l in lines if not l.startswith("eval_loss")))
            return written

        monkeypatch.setattr("bertpipe.trainer._write_job_outputs", without_eval_loss)
        cfg, ws = stilt_pair(tmp_path)
        result = ws.finetune_output_dir("pinned", "MNLI", "lr1e-05_bs16_ep3") / "RESULT.tsv"
        message = f"{re.escape(str(result))} is missing eval_loss or checkpoint"
        with pytest.raises(PipelineError, match=f"^stage 'finetune' failed: {message}$"):
            run_pipeline(cfg, ws)

    def test_dataset_report_counts_spill_runs(self, tmp_path):
        # The 256 MiB budget never fills, so the one worker spills once at the
        # end: one sorted run per shard that received a document.
        cfg = with_overrides(parse_config(corpus_config(tmp_path)), {
            "PRETRAIN.ENABLED": False, "FINETUNE.ENABLED": False,
            "RESULT_COLLECTION.ENABLED": False,
        })
        ws = Workspace(tmp_path / "ws")
        run_pipeline(cfg, ws)
        manifest = (ws.sharded_dir / "MANIFEST.tsv").read_text().splitlines()
        filled = sum(int(line.split("\t")[1]) > 0 for line in manifest)
        assert filled == len(manifest) == 3
        report = json.loads((ws.pipeline_log_dir() / "report.json").read_text())
        dataset = next(s for s in report["stages"] if s["name"] == "dataset")
        assert dataset["artifacts"]["spill_runs"] == str(filled)


    def test_non_finite_eval_loss_fails_finetune(self, tmp_path, monkeypatch):
        from bertpipe.trainer import _write_job_outputs as write_outputs

        def infinite_eval_loss(output_dir, checkpoint, eval_loss, predictions=None):
            if checkpoint["kind"] == "finetune":
                eval_loss = float("inf")
            return write_outputs(output_dir, checkpoint, eval_loss, predictions)

        monkeypatch.setattr("bertpipe.trainer._write_job_outputs", infinite_eval_loss)
        cfg, ws = stilt_pair(tmp_path)
        result = ws.finetune_output_dir("pinned", "MNLI", "lr1e-05_bs16_ep3") / "RESULT.tsv"
        message = f"{re.escape(str(result))}: eval_loss 'inf' is not a finite number"
        with pytest.raises(PipelineError, match=f"^stage 'finetune' failed: {message}$"):
            run_pipeline(cfg, ws)


# A value of each key a stage record checks, which the record rejects.
RECORD_REJECTS = [
    ("SYSTEM.MAX_MEMORY_IN_GB", 0.001), ("DATASET.NUM_TRAIN_SHARDS", 0),
    ("DATASET.NUM_TEST_SHARDS", 0), ("DATASET.FRAC_TEST", 1.0), ("DATASET.DUP_FACTOR", 0),
    ("DATASET.MASKED_LM_PROB", 0), ("DATASET.MAX_SEQ_LENGTH", 70000),
    ("DATASET.MAX_PREDICTIONS_PER_SEQ", 0), ("PRETRAIN.ETA0", 0),
    ("PRETRAIN.SCHEDULE", "cosine"),
    ("FINETUNE.LEARNING_RATES", []), ("FINETUNE.LEARNING_RATES", [1e-5, 1e-5]),
    ("FINETUNE.LEARNING_RATES", [-1e-5]), ("FINETUNE.BATCH_SIZES", []),
    ("FINETUNE.BATCH_SIZES", [16, 16]), ("FINETUNE.BATCH_SIZES", [0]),
    ("FINETUNE.EPOCHS", []), ("FINETUNE.EPOCHS", [3, 3]), ("FINETUNE.EPOCHS", [0]),
]


@pytest.mark.parametrize("key, value", RECORD_REJECTS)
def test_record_rejection_names_its_key(tmp_path, key, value):
    # From the YAML and from a flag alike, before anything is written.
    section, name = key.split(".")
    lines = {"DATASET": ["CUSTOMIZED_DATASETS: [corpus]"]}
    lines.setdefault(section, []).append(f"{name}: {json.dumps(value)}")
    text = "".join(f"{s}:\n" + "".join(f"  {line}\n" for line in body)
                   for s, body in lines.items())
    cfg = parse_config(text)
    assert cfg == with_overrides(parse_config("DATASET:\n  CUSTOMIZED_DATASETS: [corpus]\n"),
                                 {key: value})
    assert [error.key_path for error in validate(cfg)] == [key]
    ws = Workspace(tmp_path / "ws")
    with pytest.raises(PipelineError, match=f"^configuration is invalid: {re.escape(key)}: "):
        run_pipeline(cfg, ws)
    assert not ws.root.exists()


class TestExternalTrainerEndToEnd:
    def test_five_stages_through_stub_trainer(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        ws = Workspace(tmp_path / "ws")
        trainer = ExternalCommandTrainer((sys.executable, str(STUB_TRAINER)))
        cfg = with_overrides(parse_config(corpus_config(tmp_path)),
                             {"FINETUNE.TASKS": ["MNLI", "RTE"]})
        report = run_pipeline(cfg, ws, trainer=trainer)
        assert [s.status for s in report.stages] == [COMPLETED] * 5
        did = report.dataset_id

        def given(task, run):  # what the stub trainer was given for one run
            return json.loads((ws.finetune_output_dir(did, task, run) / "model.json").read_text())

        runs = [(p.parent.name, p.name) for p in (ws.log_root / "finetune" / did).glob("*/*")]
        assert len(runs) == 2 * GRID_RUNS
        for task, run in runs:
            assert given(task, run)["output_dir"] == str(ws.finetune_output_dir(did, task, run))
        winner = report.stage("finetune").artifacts["best_MNLI"].split()[0].rsplit("/", 1)[1]
        winner_checkpoint = ws.finetune_output_dir(did, "MNLI", winner) / "model.json"
        for task, run in runs:
            if task == "RTE":
                assert given(task, run)["model_name_or_path"] == str(winner_checkpoint)
        assert list(cwd.iterdir()) == []
        zip_path = ws.translated_dir(did) / "glue_submission.zip"
        with zipfile.ZipFile(zip_path) as zf:
            assert zf.namelist() == ["MNLI-m.tsv", "RTE.tsv"]


class TestRerunReactsToChanges:
    """A re-run re-does exactly the stages whose inputs or outputs changed."""

    def _first_run(self, tmp_path, text):
        cfg = parse_config(text)
        ws = Workspace(tmp_path / "ws")
        return cfg, ws, run_pipeline(cfg, ws)

    def test_pretrain_change_reruns_everything_downstream(self, tmp_path):
        text = corpus_config(tmp_path)  # writes the corpus once
        _, ws, _ = self._first_run(tmp_path, text)
        cfg = parse_config(text.replace("NUM_STEPS: 60", "NUM_STEPS: 120"))
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [
            SKIPPED_DONE, SKIPPED_DONE, COMPLETED, COMPLETED, COMPLETED,
        ]

    def test_corpus_edit_reruns_dataset_and_downstream(self, tmp_path):
        cfg, ws, first = self._first_run(tmp_path, corpus_config(tmp_path))
        corpus_file = sorted((tmp_path / "corpus").iterdir())[0]
        with open(corpus_file, "a", encoding="utf-8") as fh:
            fh.write("\n\nan appended article about nothing in particular\n")
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [
            SKIPPED_DONE, COMPLETED, COMPLETED, COMPLETED, COMPLETED,
        ]
        assert report.dataset_id != first.dataset_id

    def test_deleted_submission_is_rebuilt(self, tmp_path):
        cfg, ws, first = self._first_run(tmp_path, corpus_config(tmp_path))
        shutil.rmtree(ws.translated_root)
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [SKIPPED_DONE] * 4 + [COMPLETED]
        assert (ws.translated_dir(first.dataset_id) / "glue_submission.zip").is_file()

    def test_stage_that_fails_leaves_no_sentinel(self, tmp_path, monkeypatch):
        # A forced re-run rewrites each stage's outputs in place; a stage that
        # fails part-way must not be skipped later on the strength of the old run.
        cfg, ws, _ = self._first_run(tmp_path, corpus_config(tmp_path))

        def crash(state):
            raise RuntimeError("collect crashed mid-stage")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_stage_collect", crash)
            with pytest.raises(PipelineError, match="stage 'collect' failed"):
                run_pipeline(cfg, ws, force=True)
        assert not ws.sentinel_path("collect").exists()
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [SKIPPED_DONE] * 4 + [COMPLETED]

    def test_failed_sentinel_write_fails_its_stage(self, tmp_path, monkeypatch):
        # Without its sentinel a finished stage cannot be skipped later: the run
        # reports the stage failed, in report.json too, like any stage failure.
        cfg = parse_config(corpus_config(tmp_path))
        ws = Workspace(tmp_path / "ws")
        replace_when_done = pipeline.replace_when_done

        def sentinel_write_fails(path):
            if path == ws.sentinel_path("pretrain"):
                raise OSError(28, "No space left on device")
            return replace_when_done(path)

        monkeypatch.setattr(pipeline, "replace_when_done", sentinel_write_fails)
        with pytest.raises(PipelineError, match="stage 'pretrain' failed: .*No space left"):
            run_pipeline(cfg, ws)
        report = json.loads((ws.pipeline_log_dir() / "report.json").read_text())
        assert [(s["name"], s["status"]) for s in report["stages"]] == [
            ("env_check", COMPLETED), ("dataset", COMPLETED), ("pretrain", "failed")]
        assert "No space left on device" in report["stages"][-1]["error"]

    def test_deleted_processed_data_is_rebuilt(self, tmp_path):
        cfg, ws, first = self._first_run(tmp_path, corpus_config(tmp_path))
        shutil.rmtree(ws.processed_dir)
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [
            SKIPPED_DONE, COMPLETED, SKIPPED_DONE, SKIPPED_DONE, SKIPPED_DONE,
        ]
        assert report.dataset_id == first.dataset_id
        assert (ws.processed_dir / "META.yaml").is_file()

    def test_vocabulary_edit_reruns_dataset_and_downstream(self, tmp_path):
        # The config names the same file before and after the edit.
        lines = resolve_vocab("mini-uncased").read_text(encoding="utf-8").splitlines()
        the, and_ = lines.index("the"), lines.index("and")
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        text = corpus_config(tmp_path).replace("NAME_OR_PATH: mini-uncased",
                                               f"NAME_OR_PATH: {vocab_file}")
        cfg, ws, first = self._first_run(tmp_path, text)
        before = {p: p.read_bytes() for p in ws.processed_dir.rglob("*.xbi")}
        lines[the], lines[and_] = lines[and_], lines[the]
        vocab_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [
            SKIPPED_DONE, COMPLETED, COMPLETED, COMPLETED, COMPLETED,
        ]
        assert report.dataset_id == first.dataset_id
        after = {p: p.read_bytes() for p in ws.processed_dir.rglob("*.xbi")}
        assert after.keys() == before.keys()
        assert after != before
        meta = load_meta(ws.processed_dir)
        assert meta["vocab_digest"] == vocab_digest(load_vocab(vocab_file))

    def test_rerun_parses_meta_once(self, tmp_path, monkeypatch):
        cfg, ws, _ = self._first_run(tmp_path, corpus_config(tmp_path))
        loads = []

        def counting_load_meta(processed_dir):
            loads.append(processed_dir)
            return load_meta(processed_dir)

        # Looked up through the module, where bench/trace.py counts it too.
        monkeypatch.setattr(pipeline, "load_meta", counting_load_meta)
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [SKIPPED_DONE] * 5
        assert len(loads) == 1

    def test_seed_reaches_pretrain_with_dataset_disabled(self, tmp_path):
        cfg, ws, _ = self._first_run(tmp_path, corpus_config(tmp_path))
        jobs = []

        class RecordingTrainer(SimulationTrainer):
            def run(self, job):
                jobs.append(job)
                return super().run(job)

        cfg = with_overrides(cfg, {"DATASET.ENABLED": False, "DATASET.SEED": 7})
        report = run_pipeline(cfg, ws, trainer=RecordingTrainer())
        assert [s.status for s in report.stages] == [
            SKIPPED_DONE, SKIPPED_DISABLED, COMPLETED, COMPLETED, COMPLETED,
        ]
        argv = jobs[0].argv
        assert argv[argv.index("--seed") + 1] == "7"

    def test_worker_counts_are_not_digest_inputs(self, tmp_path):
        # Worker and grid parallelism change no output byte, so no stage re-runs.
        cfg, ws, _ = self._first_run(tmp_path, corpus_config(tmp_path))
        report = run_pipeline(cfg, ws, n_workers=2, finetune_parallelism=2)
        assert [s.status for s in report.stages] == [SKIPPED_DONE] * 5

    @pytest.mark.parametrize("stage, budget, options, message, key", [
        ("dataset", "0.001", {}, "memory budget 1073741 below the 16777216-byte floor",
         "SYSTEM.MAX_MEMORY_IN_GB"),
        ("pretrain", "0.25", {"PRETRAIN.ETA0": 0}, "eta0 must be positive", "PRETRAIN.ETA0"),
        ("pretrain", "0.25", {"PRETRAIN.ETA0": float("nan")},
         "eta0 must be positive and finite, not nan", "PRETRAIN.ETA0"),
        ("finetune", "0.25", {"FINETUNE.LEARNING_RATES": (1e-5, 1e-5)},
         "learning rate 1e-05 is repeated in the grid", "FINETUNE.LEARNING_RATES"),
    ])
    def test_invalid_option_fails_its_stage(self, tmp_path, stage, budget, options, message,
                                            key):
        # validate builds each enabled stage's shard plan, schedule and grid
        # before the first stage runs, and these reject the values: no stage
        # runs, not even the ones before the stage the value belongs to.
        text = corpus_config(tmp_path).replace("MAX_MEMORY_IN_GB: 0.25",
                                               f"MAX_MEMORY_IN_GB: {budget}")
        cfg = with_overrides(parse_config(text), options)
        ws = Workspace(tmp_path / "ws")
        expected = f"configuration is invalid: {key}: {re.escape(message)}"
        with pytest.raises(PipelineError, match=f"^{expected}"):
            run_pipeline(cfg, ws)
        assert not ws.root.exists()
        # With that stage disabled, no record checks the value.
        assert validate(with_overrides(cfg, {f"{stage.upper()}.ENABLED": False})) == []

    def test_instance_format_change_rebuilds_dataset(self, tmp_path, monkeypatch):
        # The reader rejects files of another format version, so a workspace
        # written by an older version must not be reused.
        cfg, ws, first = self._first_run(tmp_path, corpus_config(tmp_path))
        monkeypatch.setattr(pipeline, "INSTANCE_FORMAT_VERSION", INSTANCE_FORMAT_VERSION + 1)
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [
            SKIPPED_DONE, COMPLETED, COMPLETED, COMPLETED, COMPLETED,
        ]
        assert report.dataset_id == first.dataset_id

    def test_shard_format_change_rebuilds_dataset(self, tmp_path, monkeypatch):
        # Shards of another format version are unreadable: they must be rebuilt.
        cfg, ws, first = self._first_run(tmp_path, corpus_config(tmp_path))
        shard = ws.sharded_dir / "train" / "shard-00000.xbs"
        before = shard.stat().st_ino
        monkeypatch.setattr(pipeline, "SHARD_FORMAT_VERSION", SHARD_FORMAT_VERSION + 1)
        report = run_pipeline(cfg, ws)
        assert [s.status for s in report.stages] == [
            SKIPPED_DONE, COMPLETED, COMPLETED, COMPLETED, COMPLETED,
        ]
        assert shard.stat().st_ino != before
        assert report.dataset_id == first.dataset_id

    def test_stage_digests_are_pinned(self):
        # Moving a record or constant between modules must leave every digest
        # alone, or each finished workspace re-runs all its stages. A deliberate
        # digest change updates these values and README's "Upgrading" note.
        cfg = parse_config("DATASET:\n  CUSTOMIZED_DATASETS:\n    - no-such-corpus\n"
                           "TOKENIZER:\n  NAME_OR_PATH: mini-uncased\n")
        assert pipeline._dataset_inputs(cfg)["corpus"] == [["no-such-corpus", None, None]]
        digests, upstream = {}, None
        for stage in pipeline.STAGE_TABLE:
            digests[stage.name] = upstream = pipeline._stage_digest(stage, cfg, upstream)
        assert digests == {
            "env_check": "cf7544db5e3496a4",
            "dataset": "5b4e4577363b5c1b",
            "pretrain": "88098b7075c59ee6",
            "finetune": "1076edf349d9b3a4",
            "collect": "85a350e338a4d9f7",
        }
