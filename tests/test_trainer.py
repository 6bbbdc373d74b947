from __future__ import annotations

import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from bertpipe import glue
from bertpipe.config import get_default_config, with_overrides
from bertpipe.schedule import ScheduleSpec, schedule_value
from bertpipe.search import (
    STILT_SOURCES,
    GridPoint,
    SearchError,
    SearchSpace,
    finetune_search,
    schedule_waves,
    select_best,
)
from bertpipe.trainer import (
    SIM_TRAIN_EXAMPLES,
    EarlyStopPolicy,
    ExternalCommandTrainer,
    RunOutcome,
    SimulationTrainer,
    TrainerError,
    TrainerJob,
    build_finetune_argv,
    build_pretrain_job,
    check_early_stop,
    parse_result_file,
    read_outcome,
    run_name,
)

STUB_TRAINER = Path(__file__).with_name("stub_trainer.py")


class TestEarlyStop:
    # The documented truth table for (elapsed minutes, eval loss) at the
    # default thresholds (180 minutes, loss 6).
    @pytest.mark.parametrize(
        "elapsed,loss,expected",
        [(179, 7.0, False), (181, 7.0, True), (181, 5.9, False)],
    )
    def test_truth_table(self, elapsed, loss, expected):
        assert check_early_stop(elapsed, loss, EarlyStopPolicy()) is expected

    def test_disabled_policy_never_stops(self):
        assert not check_early_stop(10_000, 100.0, EarlyStopPolicy(enabled=False))

    def test_boundary_is_inclusive_on_time_strict_on_loss(self):
        assert check_early_stop(180, 6.1, EarlyStopPolicy())
        assert not check_early_stop(180, 6.0, EarlyStopPolicy())


class TestBuildPretrainJob:
    def _job(self, **overrides):
        cfg = with_overrides(get_default_config(), overrides)
        return build_pretrain_job(
            cfg,
            "abc123",
            dataset_path="data/processed",
            output_dir="saved_models/pretrain/abc123",
            log_dir="log/pretrain/abc123",
        )

    def test_seed_and_warmup_flags(self):
        argv = self._job().argv
        assert ("--seed", "42") == tuple(argv[argv.index("--seed"):][:2])
        assert ("--warmup_proportion", "0.06") == tuple(
            argv[argv.index("--warmup_proportion"):][:2]
        )

    def test_large_benchmark_lr(self):
        argv = self._job(**{"PRETRAIN.ETA0": 1e-3}).argv
        lr = argv[argv.index("--lr") + 1]
        assert float(lr) == 1e-3

    def test_validation_proportions(self):
        argv = self._job().argv
        assert argv[argv.index("--validation_begin_proportion") + 1] == "0.05"
        assert argv[argv.index("--validation_end_proportion") + 1] == "0.01"

    def test_seed_and_early_stop_from_options(self):
        cfg = with_overrides(get_default_config(), {"DATASET.SEED": 7})
        job = build_pretrain_job(cfg, "abc123", Path("data"), Path("out"), Path("log"),
                                 early_stop=EarlyStopPolicy(True, 90.0, 4.5))
        argv = list(job.argv)
        assert argv[argv.index("--seed") + 1] == "7"
        assert argv[argv.index("--early_stop_time") + 1] == "90"
        assert argv[argv.index("--early_stop_eval_loss") + 1] == "4.5"
        assert "--use_early_stopping" in argv
        disabled = build_pretrain_job(cfg, "abc123", Path("data"), Path("out"), Path("log"),
                                      early_stop=EarlyStopPolicy(enabled=False)).argv
        early_stop_flags = {"--use_early_stopping", "--early_stop_time", "--early_stop_eval_loss"}
        assert not early_stop_flags & set(disabled)

    def test_argv_numbers_are_exact(self):
        # ":g" keeps six significant digits: 1.2345678e-3 would be sent as 0.00123457.
        argv = self._job(**{"PRETRAIN.ETA0": 1.2345678e-3}).argv
        assert argv[argv.index("--lr") + 1] == "0.0012345678"
        hp = {"learning_rate": 1.2345678e-3, "batch_size": 16, "epochs": 3}
        argv = build_finetune_argv("ckpt", "RTE", "out", hp)
        assert argv[argv.index("--learning_rate") + 1] == "0.0012345678"
        assert run_name(1.2345678e-3, 16, 3) == "lr0.0012345678_bs16_ep3"
        assert run_name(1.23457e-3, 16, 3) == "lr0.00123457_bs16_ep3"
        assert run_name(3e-5, 16, 3) == "lr3e-05_bs16_ep3"


def _pretrain_job(tmp_path, tag, steps, kind="esd", eta0=2e-3, early_stop=None):
    config = with_overrides(get_default_config(), {
        "PRETRAIN.NUM_STEPS": steps, "PRETRAIN.SCHEDULE": kind, "PRETRAIN.ETA0": eta0})
    return build_pretrain_job(config, tag, tmp_path / "data",
                              tmp_path / tag / "model", tmp_path / tag / "log",
                              early_stop=early_stop or EarlyStopPolicy(enabled=False))


def _finetune_job(tmp_path, tag="f", task="RTE", lr=3e-5, batch_size=16, epochs=3,
                  checkpoint_quality=30.0):
    checkpoint = tmp_path / tag / "ckpt.json"
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    checkpoint.write_text(json.dumps({"quality": checkpoint_quality}))
    hp = {"learning_rate": lr, "batch_size": batch_size, "epochs": epochs}
    point = GridPoint(task, run_name(lr, batch_size, epochs), hp)
    return point.job(str(checkpoint), tmp_path / tag / "out", tmp_path / tag / "log")


class TestSimulationPretrain:
    def _run(self, tmp_path, kind="esd", steps=500, eta0=2e-3, tag="a"):
        trainer = SimulationTrainer()
        outcome = trainer.run(_pretrain_job(tmp_path, tag, steps, kind, eta0))
        spec = ScheduleSpec(kind=kind, eta0=eta0)
        total_lr = sum(schedule_value(k, steps, spec) for k in range(steps))
        return outcome, total_lr, trainer

    def test_zero_lr_mass_keeps_loss_at_start(self, tmp_path):
        outcome, _, trainer = self._run(tmp_path, eta0=1e-300, tag="zero")
        assert outcome.eval_loss == trainer.loss_start + trainer.loss_floor

    def test_loss_model_exact(self, tmp_path):
        outcome, total_lr, trainer = self._run(tmp_path, tag="exact")
        expected = trainer.loss_start * math.exp(-trainer.decay_per_lr * total_lr)
        assert outcome.eval_loss == pytest.approx(expected + trainer.loss_floor, rel=1e-9)

    def test_more_lr_mass_means_lower_loss(self, tmp_path):
        esd, esd_mass, _ = self._run(tmp_path, kind="esd", tag="esd")
        lin, lin_mass, _ = self._run(tmp_path, kind="linear", tag="lin")
        assert esd_mass > lin_mass
        assert esd.eval_loss < lin.eval_loss

    def test_deterministic_logs(self, tmp_path):
        a, _, _ = self._run(tmp_path, tag="d1")
        b, _, _ = self._run(tmp_path, tag="d2")
        # _pretrain_job gives each tag the log directory <tag>/log.
        log_a, log_b = (tmp_path / tag / "log" / "steps.tsv" for tag in ("d1", "d2"))
        assert log_a.read_bytes() == log_b.read_bytes()
        assert a.eval_loss == b.eval_loss

    def test_early_stop_triggers(self, tmp_path):
        # 2000 steps/min simulated: 180 min needs 360k steps; use a tight policy.
        job = _pretrain_job(tmp_path, "stop", 200, eta0=1e-300, early_stop=EarlyStopPolicy(
            early_stop_time_minutes=0.05, early_stop_eval_loss=6.0))
        SimulationTrainer().run(job)
        steps_logged = len((job.log_dir / "steps.tsv").read_text().splitlines()) - 1
        assert steps_logged < 200  # stopped before the budget


def _joined_pretrain_log(steps: int, spec: ScheduleSpec, policy: EarlyStopPolicy,
                         trainer: SimulationTrainer) -> bytes:
    """Reference steps.tsv of a pretrain job: every row kept in a list, joined once."""
    rows, cum = [], 0.0
    for k in range(steps):
        lr = schedule_value(k, steps, spec)
        cum += lr
        loss = trainer.loss_start * math.exp(-trainer.decay_per_lr * cum) + trainer.loss_floor
        rows.append(f"{k}\t{lr!r}\t{loss!r}")
        elapsed = (k + 1) / trainer.steps_per_minute
        if trainer._is_validation_step(k, steps) and check_early_stop(elapsed, loss, policy):
            break
    return ("step\tlr\tloss\n" + "\n".join(rows) + "\n").encode()


def _joined_finetune_log(task: str, lr: float, batch_size: int, epochs: int,
                         trainer: SimulationTrainer) -> bytes:
    """Reference steps.tsv of a finetune job: every row kept in a list, joined once."""
    steps = epochs * math.ceil(SIM_TRAIN_EXAMPLES[task] / batch_size)
    rows, cum = [], 0.0
    for k in range(steps):
        step_lr = lr * (1 - k / steps)
        cum += step_lr
        loss = (trainer.finetune_loss_start * math.exp(-trainer.finetune_decay_per_lr * cum)
                + trainer.finetune_loss_floor)
        rows.append(f"{k}\t{step_lr!r}\t{loss!r}")
    return ("step\tlr\tloss\n" + "\n".join(rows) + "\n").encode()


TIGHT_EARLY_STOP = EarlyStopPolicy(early_stop_time_minutes=0.05, early_stop_eval_loss=6.0)


class TestStreamedStepLogs:
    @pytest.mark.parametrize("kind, eta0, early_stop, stops", [
        ("esd", 2e-3, EarlyStopPolicy(enabled=False), False),
        ("linear", 2e-3, EarlyStopPolicy(), False),
        # A vanishing rate keeps the loss above the policy's bar: the run stops.
        ("esd", 1e-300, TIGHT_EARLY_STOP, True),
        ("linear", 1e-300, TIGHT_EARLY_STOP, True),
    ])
    def test_pretrain_log_bytes_match_joined_rows(self, tmp_path, kind, eta0, early_stop, stops):
        trainer = SimulationTrainer()
        job = _pretrain_job(tmp_path, "p", 500, kind, eta0, early_stop)
        outcome = trainer.run(job)
        written = (job.log_dir / "steps.tsv").read_bytes()
        spec = ScheduleSpec(kind=kind, eta0=eta0)
        assert written == _joined_pretrain_log(500, spec, early_stop, trainer)
        assert (written.count(b"\n") - 1 < 500) == stops
        checkpoint = json.loads(outcome.checkpoint_path.read_text())
        assert checkpoint["steps"] == written.count(b"\n") - 1

    @pytest.mark.parametrize("task, batch_size, epochs", [("RTE", 16, 3), ("MNLI", 32, 5)])
    def test_finetune_log_bytes_match_joined_rows(self, tmp_path, task, batch_size, epochs):
        trainer = SimulationTrainer()
        job = _finetune_job(tmp_path, "f", task, lr=3e-5, batch_size=batch_size, epochs=epochs)
        trainer.run(job)
        assert (job.log_dir / "steps.tsv").read_bytes() == _joined_finetune_log(
            task, 3e-5, batch_size, epochs, trainer)

    def test_steps_follow_the_argv(self, tmp_path):
        # The simulation reads its settings from the argv a real trainer gets.
        def edited(job, flag, value):
            argv = list(job.argv)
            argv[argv.index(flag) + 1] = value
            return replace(job, argv=tuple(argv))

        trainer = SimulationTrainer()
        job = edited(_finetune_job(tmp_path, "f", "RTE", batch_size=16, epochs=3),
                     "--num_train_epochs", "7")
        trainer.run(job)
        assert (job.log_dir / "steps.tsv").read_bytes() == _joined_finetune_log(
            "RTE", 3e-5, 16, 7, trainer)
        job = edited(_pretrain_job(tmp_path, "p", 500, "esd"), "--curve", "linear")
        trainer.run(job)
        assert (job.log_dir / "steps.tsv").read_bytes() == _joined_pretrain_log(
            500, ScheduleSpec(kind="linear"), EarlyStopPolicy(enabled=False), trainer)

    @pytest.mark.parametrize("writer, flag", [("pretrain", "--warmup_proportion"),
                                              ("finetune", "--task_name")])
    def test_a_missing_flag_names_the_job(self, tmp_path, writer, flag):
        job = (_pretrain_job(tmp_path, "p", 50) if writer == "pretrain"
               else _finetune_job(tmp_path, "f"))
        argv = list(job.argv)
        at = argv.index(flag)
        del argv[at:at + 2]
        with pytest.raises(TrainerError, match=f"^job {job.job_id}: argv has no {flag} value$"):
            SimulationTrainer().run(replace(job, argv=tuple(argv)))

    def test_pretrain_memory_does_not_grow_with_steps(self, tmp_path):
        # The log goes to disk row by row: a 100x longer job peaks no higher.
        def traced_peak(steps: int) -> int:
            job = _pretrain_job(tmp_path, f"s{steps}", steps)
            tracemalloc.start()
            try:
                SimulationTrainer().run(job)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(575), traced_peak(57_500)
        assert large < small + 256 * 1024, (small, large)

    @pytest.mark.parametrize("writer", ["pretrain", "finetune"])
    def test_failed_write_keeps_the_earlier_log(self, tmp_path, writer, file_size_limit):
        job = (_pretrain_job(tmp_path, "p", 575) if writer == "pretrain"
               else _finetune_job(tmp_path, "f"))
        log = job.log_dir / "steps.tsv"
        log.parent.mkdir(parents=True)
        log.write_text("step\tlr\tloss\nan earlier run\n")
        with file_size_limit(1024), pytest.raises(OSError):
            SimulationTrainer().run(job)
        assert log.read_text() == "step\tlr\tloss\nan earlier run\n"
        assert list(log.parent.iterdir()) == [log]

    @pytest.mark.parametrize("writer, target", [("pretrain", "checkpoint.json"),
                                                ("finetune", "predictions.tsv")])
    def test_failed_output_write_keeps_the_earlier_file(self, tmp_path, writer, target,
                                                        file_size_limit):
        # A one-step job writes its steps.tsv whole; a file-size limit between
        # that log's size and the target's then cuts the target partway.
        def job(tag):
            if writer == "pretrain":
                return _pretrain_job(tmp_path, tag, 1, early_stop=EarlyStopPolicy(enabled=False))
            return _finetune_job(tmp_path, tag, "MNLI", batch_size=1024, epochs=1)

        clean = job("clean")
        SimulationTrainer().run(clean)
        log_size = (clean.log_dir / "steps.tsv").stat().st_size
        target_size = (Path(clean.arg("--output_dir")) / target).stat().st_size
        assert log_size < target_size
        cut = job("cut")
        earlier = Path(cut.arg("--output_dir")) / target
        earlier.parent.mkdir(parents=True)
        earlier.write_text("an earlier run\n")
        with file_size_limit((log_size + target_size) // 2), pytest.raises(OSError):
            SimulationTrainer().run(cut)
        assert earlier.read_text() == "an earlier run\n"
        assert list(earlier.parent.iterdir()) == [earlier]


class TestSimulationFinetune:
    def test_outputs_and_metric(self, tmp_path):
        job = _finetune_job(tmp_path)
        outcome = SimulationTrainer().run(job)
        assert outcome.val_metric is not None and 0 < outcome.val_metric < 1
        assert outcome.metric_name == "accuracy"
        assert (tmp_path / "f" / "out" / "predictions.tsv").is_file()
        assert parse_result_file(tmp_path / "f" / "out")[1] == outcome.checkpoint_path
        assert job.log_dir / "steps.tsv" == tmp_path / "f" / "log" / "steps.tsv"
        assert (job.log_dir / "steps.tsv").is_file()

    def test_better_checkpoint_better_metric(self, tmp_path):
        low = SimulationTrainer().run(_finetune_job(tmp_path, checkpoint_quality=1.0, tag="lo"))
        high = SimulationTrainer().run(_finetune_job(tmp_path, checkpoint_quality=40.0, tag="hi"))
        assert high.val_metric > low.val_metric

    def test_regression_task_predictions(self, tmp_path):
        outcome = SimulationTrainer().run(_finetune_job(tmp_path, task="STS-B", tag="sts"))
        lines = (tmp_path / "sts" / "out" / "predictions.tsv").read_text().splitlines()
        values = [float(l.split("\t")[1]) for l in lines]
        assert all(0 <= v <= 5 for v in values)
        assert outcome.metric_name == "spearman_corr"

    def test_close_learning_rates_are_distinct_runs(self, tmp_path):
        # Both rates read 0.00123457 in ":g" form, but they are two runs with two names.
        a = SimulationTrainer().run(_finetune_job(tmp_path, "a", lr=1.2345678e-3))
        b = SimulationTrainer().run(_finetune_job(tmp_path, "b", lr=1.2345679e-3))
        assert a.val_metric != b.val_metric
        predictions_a = (tmp_path / "a" / "out" / "predictions.tsv").read_bytes()
        assert predictions_a != (tmp_path / "b" / "out" / "predictions.tsv").read_bytes()
        # For the default grid the run name is the ":g" key, so their outputs are unchanged.
        for lr in SearchSpace().learning_rates:
            assert run_name(lr, 16, 3) == f"lr{lr:g}_bs16_ep3"


class TestExternalTrainer:
    def _stub(self, tmp_path, exit_code=0, write_result=True, sleep_seconds=0):
        no_result = () if write_result else ("--stub_no_result",)
        return (sys.executable, str(STUB_TRAINER), "--stub_exit_code", str(exit_code),
                "--stub_sleep", str(sleep_seconds), *no_result)

    def _job(self, tmp_path):
        point = GridPoint("RTE", "stub", {"learning_rate": 3e-5, "batch_size": 16, "epochs": 3})
        return point.job("ckpt-in", tmp_path / "out", tmp_path / "log")

    def test_contract_round_trip(self, tmp_path):
        trainer = ExternalCommandTrainer(self._stub(tmp_path))
        outcome = trainer.run(self._job(tmp_path))
        assert outcome.eval_loss == 2.25
        assert json.loads(outcome.checkpoint_path.read_text())["model_name_or_path"] == "ckpt-in"
        assert outcome.val_metric == 0.8125 + 3e-5  # the stub adds the job's --learning_rate
        assert (tmp_path / "log" / "stdout.log").is_file()
        assert (tmp_path / "log" / "stderr.log").is_file()

    def test_wandb_api_key_reaches_the_child_environment_only(self, tmp_path, monkeypatch):
        monkeypatch.delenv("WANDB_API_KEY", raising=False)
        job = self._job(tmp_path)
        outcome = ExternalCommandTrainer(self._stub(tmp_path)).run(job)
        assert json.loads(outcome.checkpoint_path.read_text())["wandb_api_key"] is None
        api_key = "0123abcd" * 5
        trainer = ExternalCommandTrainer(self._stub(tmp_path), wandb_api_key=api_key)
        outcome = trainer.run(job)
        assert json.loads(outcome.checkpoint_path.read_text())["wandb_api_key"] == api_key
        # Not in the argv, which error messages print, nor in the trainer's logs.
        assert api_key not in " ".join(job.argv) and api_key not in repr(trainer)
        for name in ("stdout.log", "stderr.log"):
            assert api_key not in (job.log_dir / name).read_text()

    def test_wall_time_measured(self, tmp_path):
        trainer = ExternalCommandTrainer(self._stub(tmp_path, sleep_seconds=0.2))
        assert trainer.run(self._job(tmp_path)).wall_time_minutes > 0

    def test_nonzero_exit(self, tmp_path):
        trainer = ExternalCommandTrainer(self._stub(tmp_path, exit_code=3))
        with pytest.raises(TrainerError, match="status 3"):
            trainer.run(self._job(tmp_path))

    def test_timeout_names_job(self, tmp_path):
        trainer = ExternalCommandTrainer(self._stub(tmp_path, sleep_seconds=60),
                                         timeout_seconds=0.5)
        with pytest.raises(TrainerError, match=r"timed out after 0.5 s for job finetune/RTE/stub"):
            trainer.run(self._job(tmp_path))

    def test_missing_result_file(self, tmp_path):
        trainer = ExternalCommandTrainer(self._stub(tmp_path, write_result=False))
        with pytest.raises(TrainerError, match="RESULT.tsv"):
            trainer.run(self._job(tmp_path))

    @pytest.mark.parametrize("trainer", ["external", "simulation"])
    def test_result_read_from_the_argv_output_dir(self, tmp_path, trainer):
        # The argv is the only place a job names its output directory: the
        # trainer writes there and the adapter reads RESULT.tsv from there.
        if trainer == "external":
            adapter, job = ExternalCommandTrainer(self._stub(tmp_path)), self._job(tmp_path)
        else:
            adapter, job = SimulationTrainer(), _finetune_job(tmp_path)
        outcome = adapter.run(job)
        out = Path(job.arg("--output_dir"))
        assert outcome.checkpoint_path.parent == out
        assert parse_result_file(out) == (outcome.eval_loss, outcome.checkpoint_path)

    def test_parse_result_file_errors(self, tmp_path):
        (tmp_path / "RESULT.tsv").write_text("eval_loss\t1.5\n")
        with pytest.raises(TrainerError, match="missing"):
            parse_result_file(tmp_path)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", ""])
    def test_eval_loss_that_is_not_a_finite_number(self, tmp_path, value):
        result = tmp_path / "RESULT.tsv"
        result.write_text(f"eval_loss\t{value}\ncheckpoint\tckpt\n")
        message = f"^{re.escape(str(result))}: eval_loss '{value}' is not a finite number$"
        with pytest.raises(TrainerError, match=message):
            parse_result_file(tmp_path)


class TestReadOutcome:
    def test_bad_metric_line_names_the_job(self, tmp_path):
        job = _finetune_job(tmp_path)
        out = Path(job.arg("--output_dir"))
        out.mkdir()
        (out / "RESULT.tsv").write_text("eval_loss\t0.5\ncheckpoint\tckpt\n")
        message = f"^job {job.job_id}: bad final_val_metric line: non-finite metric nan$"
        with pytest.raises(TrainerError, match=message):
            read_outcome(job, 1.0, "final_val_metric\taccuracy\tnan\n")


class TestJobKind:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown job kind: 'eval'$"):
            TrainerJob("eval/x", (), Path("log"))

    def test_kind_is_the_id_prefix(self, tmp_path):
        pretrain = _pretrain_job(tmp_path, "abc123", 10)
        finetune = _finetune_job(tmp_path)
        assert (pretrain.job_id, pretrain.kind) == ("pretrain/abc123", "pretrain")
        assert (finetune.job_id, finetune.kind) == ("finetune/RTE/lr3e-05_bs16_ep3", "finetune")


class TestFinetuneSearch:
    def test_grid_cross_product(self):
        jobs = finetune_search(["RTE"])
        assert len(jobs) == 16  # 4 lrs x 2 batch sizes x 2 epochs

    def test_stilt_dependencies(self):
        jobs = finetune_search(["MNLI", "RTE", "MRPC", "STS-B", "CoLA"])
        for job in jobs:
            if job.task in ("RTE", "MRPC", "STS-B"):
                assert job.stilt_parent == "MNLI"
            else:
                assert job.stilt_parent is None

    def test_stilt_skipped_when_parent_absent(self):
        jobs = finetune_search(["RTE"])
        assert all(job.stilt_parent is None for job in jobs)

    def test_unknown_task(self):
        with pytest.raises(KeyError, match="SNLI"):
            finetune_search(["SNLI"])

    def test_empty_grid(self):
        with pytest.raises(SearchError, match="empty"):
            SearchSpace(learning_rates=())

    @pytest.mark.parametrize("fields, message", [
        ({"batch_sizes": (16, 0)}, "batch size must be a positive integer, not 0"),
        ({"batch_sizes": (-16,)}, "batch size must be a positive integer, not -16"),
        ({"batch_sizes": (2.5,)}, "batch size must be a positive integer, not 2.5"),
        ({"epochs": (0,)}, "epoch count must be a positive integer, not 0"),
        ({"epochs": (True,)}, "epoch count must be a positive integer, not True"),
        ({"learning_rates": (1e-5, 0.0)}, "learning rate must be positive and finite, not 0.0"),
        ({"learning_rates": (-3e-5,)}, "learning rate must be positive and finite, not -3e-05"),
        ({"learning_rates": (float("nan"),)}, "learning rate must be positive and finite, not nan"),
        ({"learning_rates": (float("inf"),)}, "learning rate must be positive and finite, not inf"),
        ({"learning_rates": (1e-5, 3e-5, 1e-5)}, "learning rate 1e-05 is repeated in the grid"),
        ({"batch_sizes": (16, 16)}, "batch size 16 is repeated in the grid"),
        ({"epochs": (3, 5, 3)}, "epoch count 3 is repeated in the grid"),
    ])
    def test_grid_values_validated(self, fields, message):
        # Before, batch size 0 died in the simulated trainer with a bare
        # ZeroDivisionError, and 0 epochs reported a metric for zero steps.
        with pytest.raises(SearchError, match=f"^{re.escape(message)}$"):
            SearchSpace(**fields)

    def test_stilt_sources_are_one_level_of_glue_tasks(self):
        assert set(STILT_SOURCES) | set(STILT_SOURCES.values()) <= set(glue.TASK_NAMES)
        # No source is seeded from another task, so two waves cover every chain.
        assert not set(STILT_SOURCES.values()) & set(STILT_SOURCES)

    def test_waves_topological(self):
        jobs = finetune_search(["MNLI", "RTE", "CoLA"])
        waves = schedule_waves(jobs)
        assert waves == [[j for j in jobs if j.task != "RTE"], [j for j in jobs if j.task == "RTE"]]
        assert {j.task for j in waves[0]} == {"MNLI", "CoLA"}

    def test_waves_leave_out_an_empty_wave(self):
        jobs = finetune_search(["RTE", "CoLA"])
        assert schedule_waves(jobs) == [jobs]

    def test_wave_parent_must_be_scheduled(self):
        child = GridPoint("RTE", "run", {}, stilt_parent="MNLI")
        with pytest.raises(SearchError, match="'MNLI' has no scheduled jobs"):
            schedule_waves([child])

    def test_full_argv_of_one_point(self):
        point = finetune_search(["RTE"])[0]
        assert point.job("ckpt", Path("out"), Path("log")).argv == (
            "--model_name_or_path", "ckpt", "--task_name", "RTE", "--max_seq_length", "128",
            "--output_dir", "out", "--overwrite_output_dir", "--do_train", "--do_eval",
            "--evaluation_strategy", "steps", "--per_device_train_batch_size", "16",
            "--gradient_accumulation_steps", "1", "--per_device_eval_batch_size", "32",
            "--learning_rate", "1e-05", "--weight_decay", "0.01", "--eval_steps", "50",
            "--max_grad_norm", "1.0", "--num_train_epochs", "3",
            "--lr_scheduler_type", "polynomial", "--warmup_steps", "50",
        )

    def test_argv_shape(self, tmp_path):
        point = finetune_search(["MRPC"])[0]
        job = point.job("ckpt", tmp_path / "out", tmp_path / "log")
        argv = job.argv
        assert argv[argv.index("--model_name_or_path") + 1] == "ckpt"
        assert argv[argv.index("--output_dir") + 1] == str(tmp_path / "out")
        assert job.log_dir == tmp_path / "log"
        assert argv[argv.index("--task_name") + 1] == "MRPC"
        assert argv[argv.index("--lr_scheduler_type") + 1] == "polynomial"
        assert "--do_train" in argv and "--do_eval" in argv


class TestSelectBest:
    def _pair(self, task, lr, metric, batch_size=16, epochs=3):
        point = GridPoint(task, run_name(lr, batch_size, epochs),
                          {"learning_rate": lr, "batch_size": batch_size, "epochs": epochs})
        outcome = RunOutcome(
            eval_loss=1.0, wall_time_minutes=1.0, checkpoint_path=None,
            val_metric=metric, metric_name="accuracy",
        )
        return point, outcome

    def test_max_metric_wins(self):
        best, _ = select_best([self._pair("RTE", 1e-5, 0.70), self._pair("RTE", 3e-5, 0.72)])
        assert best.hyperparams["learning_rate"] == 3e-5

    def test_tie_breaks_to_smallest_hyperparams(self):
        pairs = [self._pair("RTE", 5e-5, 0.72), self._pair("RTE", 3e-5, 0.72),
                 self._pair("RTE", 1e-5, 0.70)]
        best, _ = select_best(pairs)
        assert best.hyperparams["learning_rate"] == 3e-5

    def test_order_invariance(self):
        pairs = [self._pair("RTE", lr, m) for lr, m in
                 [(1e-5, 0.7), (3e-5, 0.72), (5e-5, 0.72), (8e-5, 0.71)]]
        for rotation in range(4):
            rotated = pairs[rotation:] + pairs[:rotation]
            assert select_best(rotated)[0].hyperparams["learning_rate"] == 3e-5

    def test_ties_broken_by_batch_size_then_epochs(self):
        # Learning rate first: the smaller rate wins over a smaller batch size.
        pairs = [self._pair("RTE", 3e-5, 0.72, 16, 3), self._pair("RTE", 1e-5, 0.72, 32, 5)]
        assert select_best(pairs)[0].job_id == "finetune/RTE/lr1e-05_bs32_ep5"
        # Same rate: the smaller batch size wins over fewer epochs.
        pairs = [self._pair("RTE", 3e-5, 0.72, 32, 3), self._pair("RTE", 3e-5, 0.72, 16, 5)]
        assert select_best(pairs)[0].job_id == "finetune/RTE/lr3e-05_bs16_ep5"
        # Same rate and batch size: fewer epochs win.
        pairs = [self._pair("RTE", 3e-5, 0.72, 16, 5), self._pair("RTE", 3e-5, 0.72, 16, 3)]
        assert select_best(pairs)[0].job_id == "finetune/RTE/lr3e-05_bs16_ep3"
