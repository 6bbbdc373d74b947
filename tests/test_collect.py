from __future__ import annotations

import zipfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bertpipe import glue
from bertpipe.collect import (
    CollectionError,
    RUN_RECORD,
    RunResult,
    SUBMISSION_ZIP_NAME,
    collect_best_val,
    summarize_val,
    translate_predictions,
    translate_test_result,
    write_run_record,
)
from bertpipe.trainer import RunOutcome, TrainerJob


def write_run(log_root: Path, output_root: Path, dataset_id: str, task: str,
              run: str, metric: float, hyperparams: dict, predictions: list[str],
              corrupt: bool = False) -> None:
    run_dir = log_root / "finetune" / dataset_id / task / run
    run_dir.mkdir(parents=True, exist_ok=True)
    if corrupt:
        (run_dir / RUN_RECORD).write_text("garbage without a metric\n")
    else:
        job = TrainerJob(kind="finetune", job_id=f"finetune/{task}/{run}", argv=(),
                         hyperparams=hyperparams, task=task, log_dir=run_dir)
        outcome = RunOutcome(eval_loss=0.5, wall_time_minutes=1.0, checkpoint_path=Path("c"),
                             log_path=Path("l"), val_metric=metric,
                             metric_name=glue.get_task(task).metric)
        write_run_record(job, outcome)
    out_dir = output_root / "finetune" / dataset_id / task / run
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "predictions.tsv").write_text(
        "".join(f"{i}\t{p}\n" for i, p in enumerate(predictions))
    )


HP = {"learning_rate": 3e-5, "batch_size": 16, "epochs": 3}


class TestSummarizeVal:
    def test_one_row_per_run(self, tmp_path):
        for k in range(16):
            write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", f"run{k:02d}",
                      0.5 + k / 100, {**HP, "epochs": k}, ["0", "1"])
        report = summarize_val(tmp_path / "log", "d1", tmp_path / "output")
        assert len(report.results) == 16
        assert report.skipped == ()

    def test_corrupt_log_skipped(self, tmp_path):
        for k in range(16):
            write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", f"run{k:02d}",
                      0.5, {**HP, "epochs": k}, ["0"], corrupt=(k == 3))
        report = summarize_val(tmp_path / "log", "d1", tmp_path / "output")
        assert len(report.results) == 15
        assert len(report.skipped) == 1
        assert "run03" in str(report.skipped[0][0])

    def test_empty_log_root_is_error(self, tmp_path):
        with pytest.raises(CollectionError, match="no finetune logs"):
            summarize_val(tmp_path / "log", "d1", tmp_path / "output")

    def test_predictions_path_derived(self, tmp_path):
        write_run(tmp_path / "log", tmp_path / "output", "d1", "QNLI", "r0", 0.8, HP, ["0"])
        report = summarize_val(tmp_path / "log", "d1", tmp_path / "output")
        assert report.results[0].predictions_path.is_file()


class TestCollectBestVal:
    def _result(self, task, metric, lr):
        return RunResult(
            task=task,
            hyperparams={**HP, "learning_rate": lr},
            val_metric=metric,
            metric_name="accuracy",
            predictions_path=Path("unused"),
            log_dir=Path("unused"),
        )

    def test_tie_break_smallest_lr(self):
        results = [
            self._result("RTE", 0.70, 1e-5),
            self._result("RTE", 0.72, 5e-5),
            self._result("RTE", 0.72, 3e-5),
        ]
        best = collect_best_val(results)
        assert best["RTE"].hyperparams["learning_rate"] == 3e-5

    def test_single_run(self):
        best = collect_best_val([self._result("CoLA", 0.4, 1e-5)])
        assert best["CoLA"].val_metric == 0.4

    @given(st.permutations(list(range(6))))
    def test_order_invariance(self, order):
        rows = [
            self._result("RTE", 0.70, 1e-5),
            self._result("RTE", 0.72, 5e-5),
            self._result("RTE", 0.72, 3e-5),
            self._result("CoLA", 0.41, 8e-5),
            self._result("CoLA", 0.41, 1e-5),
            self._result("QNLI", 0.9, 5e-5),
        ]
        permuted = [rows[i] for i in order]
        best = collect_best_val(permuted)
        assert best["RTE"].hyperparams["learning_rate"] == 3e-5
        assert best["CoLA"].hyperparams["learning_rate"] == 1e-5
        assert set(best) == {"RTE", "CoLA", "QNLI"}


class TestTranslate:
    def test_rte_label_map(self, tmp_path):
        # Internal ids [1, 0] map to not_entailment / entailment.
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "r0", 0.7, HP, ["1", "0"])
        report = summarize_val(tmp_path / "log", "d1", tmp_path / "output")
        best = collect_best_val(report.results)
        zip_path = translate_test_result(best, tmp_path / "zip")
        content = (tmp_path / "zip" / "RTE.tsv").read_text()
        assert content == "index\tprediction\n0\tnot_entailment\n1\tentailment\n"
        with zipfile.ZipFile(zip_path) as zf:
            assert zf.namelist() == ["RTE.tsv"]
            assert zf.read("RTE.tsv").decode() == content

    def test_stsb_numeric_passthrough(self, tmp_path):
        write_run(tmp_path / "log", tmp_path / "output", "d1", "STS-B", "r0", 0.8, HP, ["2.5"])
        report = summarize_val(tmp_path / "log", "d1", tmp_path / "output")
        best = collect_best_val(report.results)
        translate_test_result(best, tmp_path / "zip")
        assert (tmp_path / "zip" / "STS-B.tsv").read_text() == "index\tprediction\n0\t2.5\n"

    def test_unknown_label_id_fatal(self):
        task = glue.get_task("RTE")
        with pytest.raises(CollectionError, match="label id 7"):
            translate_predictions(task, [("0", "7")])

    def test_missing_predictions_fatal(self, tmp_path):
        best = {
            "RTE": RunResult(
                task="RTE", hyperparams=HP, val_metric=0.7, metric_name="accuracy",
                predictions_path=tmp_path / "nope.tsv", log_dir=tmp_path,
            )
        }
        with pytest.raises(CollectionError, match="RTE"):
            translate_test_result(best, tmp_path / "zip")

    def test_totality_same_cardinality(self, tmp_path):
        preds = [str(i % 2) for i in range(57)]
        write_run(tmp_path / "log", tmp_path / "output", "d1", "SST-2", "r0", 0.9, HP, preds)
        report = summarize_val(tmp_path / "log", "d1", tmp_path / "output")
        translate_test_result(collect_best_val(report.results), tmp_path / "zip")
        lines = (tmp_path / "zip" / "SST-2.tsv").read_text().splitlines()
        assert len(lines) == 1 + 57

    def test_zip_reproducible(self, tmp_path):
        for task, preds in (("RTE", ["0", "1"]), ("MNLI", ["2", "0", "1"]), ("STS-B", ["3.25"])):
            write_run(tmp_path / "log", tmp_path / "output", "d1", task, "r0", 0.7, HP, preds)
        report = summarize_val(tmp_path / "log", "d1", tmp_path / "output")
        best = collect_best_val(report.results)
        a = translate_test_result(best, tmp_path / "zip_a").read_bytes()
        b = translate_test_result(best, tmp_path / "zip_b").read_bytes()
        assert a == b
        with zipfile.ZipFile(tmp_path / "zip_a" / SUBMISSION_ZIP_NAME) as zf:
            assert zf.namelist() == ["MNLI-m.tsv", "RTE.tsv", "STS-B.tsv"]
            for info in zf.infolist():
                assert info.date_time == (1980, 1, 1, 0, 0, 0)

    def test_mnli_labels(self):
        task = glue.get_task("MNLI")
        out = translate_predictions(task, [("0", "0"), ("1", "1"), ("2", "2")])
        assert out.splitlines()[1:] == ["0\tentailment", "1\tneutral", "2\tcontradiction"]
