from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from bertpipe.config import get_default_config
from bertpipe.schedule import ScheduleSpec, schedule_value, warmup_steps
from bertpipe.search import (
    SearchError,
    SearchSpace,
    finetune_search,
    schedule_waves,
    select_best,
)
from bertpipe.trainer import (
    EarlyStopPolicy,
    ExternalCommandTrainer,
    RunOutcome,
    SimulationTrainer,
    TrainerError,
    TrainerJob,
    build_pretrain_job,
    check_early_stop,
    hyperparam_sort_key,
    parse_result_file,
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
    def _job(self, **spec_kwargs):
        spec_defaults = dict(total_steps=21620)
        spec_defaults.update(spec_kwargs)
        cfg = get_default_config()
        return build_pretrain_job(
            cfg,
            ScheduleSpec(**spec_defaults),
            "abc123",
            dataset_path="data/processed",
            output_dir="saved_models/pretrain/abc123",
        )

    def test_seed_and_warmup_flags(self):
        argv = self._job().argv
        assert ("--seed", "42") == tuple(argv[argv.index("--seed"):][:2])
        assert ("--warmup_proportion", "0.06") == tuple(
            argv[argv.index("--warmup_proportion"):][:2]
        )

    def test_large_benchmark_lr(self):
        argv = self._job(eta0=1e-3, total_steps=54050).argv
        lr = argv[argv.index("--lr") + 1]
        assert float(lr) == 1e-3

    def test_validation_proportions(self):
        argv = self._job().argv
        assert argv[argv.index("--validation_begin_proportion") + 1] == "0.05"
        assert argv[argv.index("--validation_end_proportion") + 1] == "0.01"

    def test_seed_and_early_stop_from_options(self):
        cfg = get_default_config()
        spec = ScheduleSpec(total_steps=21620)
        job = build_pretrain_job(cfg, spec, "abc123", Path("data"), Path("out"), seed=7,
                                 early_stop=EarlyStopPolicy(True, 90.0, 4.5))
        argv = list(job.argv)
        assert argv[argv.index("--seed") + 1] == "7"
        assert argv[argv.index("--early_stop_time") + 1] == "90"
        assert argv[argv.index("--early_stop_eval_loss") + 1] == "4.5"
        assert "--use_early_stopping" in argv
        disabled = build_pretrain_job(cfg, spec, "abc123", Path("data"), Path("out"),
                                      early_stop=EarlyStopPolicy(enabled=False)).argv
        early_stop_flags = {"--use_early_stopping", "--early_stop_time", "--early_stop_eval_loss"}
        assert not early_stop_flags & set(disabled)

    def test_no_task_on_pretrain(self):
        assert self._job().task is None
        with pytest.raises(ValueError):
            TrainerJob(kind="pretrain", job_id="x", argv=(), task="RTE")

    def test_stilt_parent_rejected_on_pretrain(self):
        with pytest.raises(ValueError):
            TrainerJob(kind="pretrain", job_id="x", argv=(), stilt_parent="MNLI")


class TestSimulationPretrain:
    def _run(self, tmp_path, kind="esd", steps=500, eta0=2e-3, tag="a"):
        w = warmup_steps(steps, 0.06)
        spec = ScheduleSpec(kind=kind, eta0=eta0, total_steps=max(1, steps - w))
        trainer = SimulationTrainer()
        job = TrainerJob(
            kind="pretrain",
            job_id=f"pretrain/{tag}",
            argv=(),
            hyperparams={"num_steps": steps, "schedule": spec,
                         "early_stop": EarlyStopPolicy(enabled=False)},
            output_dir=tmp_path / tag / "model",
            log_dir=tmp_path / tag / "log",
        )
        outcome = trainer.run(job)
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
        assert a.log_path.read_bytes() == b.log_path.read_bytes()
        assert a.eval_loss == b.eval_loss

    def test_early_stop_triggers(self, tmp_path):
        # 2000 steps/min simulated: 180 min needs 360k steps; use a tight policy.
        spec = ScheduleSpec(eta0=1e-300, total_steps=188)
        job = TrainerJob(
            kind="pretrain",
            job_id="pretrain/stop",
            argv=(),
            hyperparams={
                "num_steps": 200,
                "schedule": spec,
                "early_stop": EarlyStopPolicy(early_stop_time_minutes=0.05,
                                              early_stop_eval_loss=6.0),
            },
            output_dir=tmp_path / "stop" / "model",
            log_dir=tmp_path / "stop" / "log",
        )
        outcome = SimulationTrainer().run(job)
        steps_logged = len(outcome.log_path.read_text().splitlines()) - 1
        assert steps_logged < 200  # stopped before the budget


class TestSimulationFinetune:
    def _job(self, tmp_path, task="RTE", lr=3e-5, checkpoint_quality=30.0, tag="f"):
        checkpoint = tmp_path / tag / "ckpt.json"
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        checkpoint.write_text(json.dumps({"quality": checkpoint_quality}))
        return TrainerJob(
            kind="finetune",
            job_id=f"finetune/{task}/x",
            argv=("--model_name_or_path", str(checkpoint)),
            task=task,
            hyperparams={"learning_rate": lr, "batch_size": 16, "epochs": 3},
            output_dir=tmp_path / tag / "out",
            log_dir=tmp_path / tag / "log",
        )

    def test_outputs_and_metric(self, tmp_path):
        outcome = SimulationTrainer().run(self._job(tmp_path))
        assert outcome.val_metric is not None and 0 < outcome.val_metric < 1
        assert outcome.metric_name == "accuracy"
        assert (tmp_path / "f" / "out" / "predictions.tsv").is_file()
        assert parse_result_file(tmp_path / "f" / "out")[1] == outcome.checkpoint_path
        assert outcome.log_path == tmp_path / "f" / "log" / "steps.tsv"

    def test_better_checkpoint_better_metric(self, tmp_path):
        low = SimulationTrainer().run(self._job(tmp_path, checkpoint_quality=1.0, tag="lo"))
        high = SimulationTrainer().run(self._job(tmp_path, checkpoint_quality=40.0, tag="hi"))
        assert high.val_metric > low.val_metric

    def test_regression_task_predictions(self, tmp_path):
        outcome = SimulationTrainer().run(self._job(tmp_path, task="STS-B", tag="sts"))
        lines = (tmp_path / "sts" / "out" / "predictions.tsv").read_text().splitlines()
        values = [float(l.split("\t")[1]) for l in lines]
        assert all(0 <= v <= 5 for v in values)
        assert outcome.metric_name == "spearman_corr"


class TestExternalTrainer:
    def _stub(self, tmp_path, exit_code=0, write_result=True, sleep_seconds=0):
        no_result = () if write_result else ("--stub_no_result",)
        return (sys.executable, str(STUB_TRAINER), "--stub_exit_code", str(exit_code),
                "--stub_sleep", str(sleep_seconds), *no_result)

    def _job(self, tmp_path):
        return TrainerJob(
            kind="finetune",
            job_id="finetune/RTE/stub",
            argv=("--model_name_or_path", "ckpt-in", "--task_name", "RTE",
                  "--output_dir", str(tmp_path / "out")),
            task="RTE",
            output_dir=tmp_path / "out",
            log_dir=tmp_path / "log",
        )

    def test_contract_round_trip(self, tmp_path):
        trainer = ExternalCommandTrainer(self._stub(tmp_path))
        outcome = trainer.run(self._job(tmp_path))
        assert outcome.eval_loss == 2.25
        assert json.loads(outcome.checkpoint_path.read_text())["model_name_or_path"] == "ckpt-in"
        assert outcome.val_metric == 0.8125
        assert (tmp_path / "log" / "stdout.log").is_file()
        assert (tmp_path / "log" / "stderr.log").is_file()

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

    def test_parse_result_file_errors(self, tmp_path):
        (tmp_path / "RESULT.tsv").write_text("eval_loss\t1.5\n")
        with pytest.raises(TrainerError, match="missing"):
            parse_result_file(tmp_path)


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

    def test_stilt_cycle_rejected(self):
        with pytest.raises(SearchError, match="cycle"):
            finetune_search(["RTE", "MRPC"], stilt_sources={"RTE": "MRPC", "MRPC": "RTE"})

    def test_waves_topological(self):
        jobs = finetune_search(["MNLI", "RTE", "CoLA"])
        waves = schedule_waves(jobs)
        assert len(waves) == 2
        wave0_tasks = {j.task for j in waves[0]}
        assert wave0_tasks == {"MNLI", "CoLA"}
        assert {j.task for j in waves[1]} == {"RTE"}

    def test_argv_shape(self, tmp_path):
        point = finetune_search(["MRPC"], stilt_sources={})[0]
        job = point.job("ckpt", tmp_path / "out", tmp_path / "log")
        argv = job.argv
        assert argv[argv.index("--model_name_or_path") + 1] == "ckpt"
        assert argv[argv.index("--output_dir") + 1] == str(tmp_path / "out")
        assert (job.output_dir, job.log_dir) == (tmp_path / "out", tmp_path / "log")
        assert argv[argv.index("--task_name") + 1] == "MRPC"
        assert argv[argv.index("--lr_scheduler_type") + 1] == "polynomial"
        assert "--do_train" in argv and "--do_eval" in argv


class TestSelectBest:
    def _pair(self, task, lr, metric):
        job = TrainerJob(
            kind="finetune",
            job_id=f"finetune/{task}/lr{lr:g}",
            argv=(),
            task=task,
            hyperparams={"learning_rate": lr, "batch_size": 16, "epochs": 3},
        )
        outcome = RunOutcome(
            eval_loss=1.0, wall_time_minutes=1.0, checkpoint_path=None,
            log_path=None, val_metric=metric, metric_name="accuracy",
        )
        return job, outcome

    def test_max_metric_wins(self):
        best_job, _ = select_best([self._pair("RTE", 1e-5, 0.70), self._pair("RTE", 3e-5, 0.72)])
        assert best_job.hyperparams["learning_rate"] == 3e-5

    def test_tie_breaks_to_smallest_hyperparams(self):
        pairs = [self._pair("RTE", 5e-5, 0.72), self._pair("RTE", 3e-5, 0.72),
                 self._pair("RTE", 1e-5, 0.70)]
        best_job, _ = select_best(pairs)
        assert best_job.hyperparams["learning_rate"] == 3e-5

    def test_order_invariance(self):
        pairs = [self._pair("RTE", lr, m) for lr, m in
                 [(1e-5, 0.7), (3e-5, 0.72), (5e-5, 0.72), (8e-5, 0.71)]]
        for rotation in range(4):
            rotated = pairs[rotation:] + pairs[:rotation]
            assert select_best(rotated)[0].hyperparams["learning_rate"] == 3e-5

    def test_hyperparam_sort_key_order(self):
        small = hyperparam_sort_key({"learning_rate": 1e-5, "batch_size": 32, "epochs": 5})
        big = hyperparam_sort_key({"learning_rate": 3e-5, "batch_size": 16, "epochs": 3})
        assert small < big
