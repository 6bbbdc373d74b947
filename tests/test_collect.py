from __future__ import annotations

import re
import zipfile
from pathlib import Path

import pytest

from bertpipe import glue
from bertpipe.collect import (
    CollectionError,
    RUN_RECORD,
    RUNS_INDEX,
    RunResult,
    SUBMISSION_ZIP_NAME,
    collect_best_val,
    summarize_val,
    translate_predictions,
    translate_test_result,
    write_run_record,
    write_runs_index,
)
from bertpipe.pipeline import Workspace
from bertpipe.search import GridPoint
from bertpipe.trainer import RunOutcome


def write_run(log_root: Path, output_root: Path, dataset_id: str, task: str,
              run: str, metric: float, hyperparams: dict, predictions: list[str],
              corrupt: bool = False, winner: bool = True) -> None:
    """Write one run's record and predictions, and list it in the index.

    A winner replaces its task's earlier winner in the index; a task's only
    run, written with the default, is its winner.
    """
    run_dir = log_root / "finetune" / dataset_id / task / run
    run_dir.mkdir(parents=True, exist_ok=True)
    if corrupt:
        (run_dir / RUN_RECORD).write_text("garbage without a metric\n")
    else:
        outcome = RunOutcome(eval_loss=0.5, wall_time_minutes=1.0, checkpoint_path=Path("c"),
                             val_metric=metric, metric_name=glue.get_task(task).metric)
        write_run_record(GridPoint(task, run, hyperparams), outcome, run_dir)
    out_dir = output_root / "finetune" / dataset_id / task / run
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "predictions.tsv").write_text(
        "".join(f"{i}\t{p}\n" for i, p in enumerate(predictions))
    )
    winners = {(t, r) for t, r in indexed_winners(log_root, dataset_id)
               if not (winner and t == task)}
    if winner:
        winners.add((task, run))
    index_runs(log_root, dataset_id, winners)


def indexed_winners(log_root: Path, dataset_id: str) -> list[tuple[str, str]]:
    """``(task, run)`` of each winner the dataset's RUNS.tsv marks."""
    index = log_root / "finetune" / dataset_id / RUNS_INDEX
    if not index.is_file():
        return []
    rows = [line.split("\t") for line in index.read_text().splitlines()[1:]]
    return [(task, run) for task, run, won in rows if won == "1"]


def index_runs(log_root: Path, dataset_id: str, winners: set[tuple[str, str]]) -> None:
    """List every run directory present in the dataset's RUNS.tsv, as the finetune stage does."""
    root = log_root / "finetune" / dataset_id
    runs = [(d.parent.name, d.name) for d in sorted(root.glob("*/*")) if d.is_dir()]
    write_runs_index(root, [(task, run, (task, run) in winners) for task, run in runs])


HP = {"learning_rate": 3e-5, "batch_size": 16, "epochs": 3}


class TestSummarizeVal:
    def test_one_row_per_run(self, tmp_path):
        # One row per run the index marks as its task's winner.
        for task in ("RTE", "CoLA"):
            for k in range(16):
                write_run(tmp_path / "log", tmp_path / "output", "d1", task, f"run{k:02d}",
                          0.5 + k / 100, {**HP, "epochs": k}, ["0", "1"], winner=(k == 5))
        report = summarize_val(Workspace(tmp_path), "d1")
        assert [(r.task, r.predictions_path.parent.name) for r in report.results] == [
            ("CoLA", "run05"), ("RTE", "run05"),
        ]

    def test_corrupt_non_winner_never_read(self, tmp_path):
        for k in range(16):
            write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", f"run{k:02d}",
                      0.5, {**HP, "epochs": k}, ["0"], corrupt=(k == 3), winner=(k == 0))
        report = summarize_val(Workspace(tmp_path), "d1")
        assert [r.predictions_path.parent.name for r in report.results] == ["run00"]

    @pytest.mark.parametrize("damage", ["corrupt", "delete", "other_task"])
    def test_damaged_winner_record_is_fatal(self, tmp_path, damage):
        for k in range(4):
            write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", f"run{k:02d}",
                      0.5 + k / 100, {**HP, "epochs": k}, ["0"], corrupt=(k == 1),
                      winner=(k == 2))
        record = tmp_path / "log" / "finetune" / "d1" / "RTE" / "run02" / RUN_RECORD
        if damage == "corrupt":
            record.write_text("{not json")
        elif damage == "delete":
            record.unlink()
        else:
            record.write_text(record.read_text().replace('"RTE"', '"CoLA"'))
        # The other runs are intact (run03 even scores higher), but none of them is the winner.
        with pytest.raises(CollectionError, match=str(record.parent)):
            summarize_val(Workspace(tmp_path), "d1")

    def test_recorded_winner_shipped_over_higher_metric(self, tmp_path):
        # Run A is the index's winner; run B's record has the higher metric.
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "A", 0.6, HP, ["0"])
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "B", 0.9, HP, ["1"],
                  winner=False)
        report = summarize_val(Workspace(tmp_path), "d1")
        translate_test_result(collect_best_val(report.results), tmp_path / "zip")
        assert (tmp_path / "zip" / "RTE.tsv").read_text() == "index\tprediction\n0\tentailment\n"

    def test_empty_log_root_is_error(self, tmp_path):
        with pytest.raises(CollectionError, match="no finetune logs"):
            summarize_val(Workspace(tmp_path), "d1")

    def test_damaged_index_row_names_the_line(self, tmp_path):
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "r0", 0.5, HP, ["0"])
        index = tmp_path / "log" / "finetune" / "d1" / RUNS_INDEX
        index.write_text("task\trun\twinner\nRTE r0 1\n")  # space-separated
        with pytest.raises(CollectionError, match=re.escape(f"{index}, line 2: ")):
            summarize_val(Workspace(tmp_path), "d1")

    def test_index_without_winner_is_error(self, tmp_path):
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "r0", 0.5, HP, ["0"])
        index_runs(tmp_path / "log", "d1", set())
        with pytest.raises(CollectionError, match="no winning run"):
            summarize_val(Workspace(tmp_path), "d1")

    def test_unlisted_run_ignored(self, tmp_path):
        # A run of an earlier grid outranks this grid's run but is not in its index.
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "old", 0.9, HP, ["1"])
        root = tmp_path / "log" / "finetune" / "d1"
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "new", 0.5, HP, ["0"])
        write_runs_index(root, [("RTE", "new", True)])
        report = summarize_val(Workspace(tmp_path), "d1")
        assert [r.predictions_path.parent.name for r in report.results] == ["new"]
        assert (root / "RTE" / "old").is_dir()

    def test_predictions_path_derived(self, tmp_path):
        write_run(tmp_path / "log", tmp_path / "output", "d1", "QNLI", "r0", 0.8, HP, ["0"])
        report = summarize_val(Workspace(tmp_path), "d1")
        assert report.results[0].predictions_path.is_file()


class TestCollectBestVal:
    def test_single_run(self):
        result = RunResult(task="CoLA", predictions_path=Path("unused"))
        assert collect_best_val([result]) == {"CoLA": result}

    def test_two_winners_for_one_task_is_error(self):
        with pytest.raises(CollectionError, match="RTE"):
            collect_best_val([RunResult("RTE", Path("a")), RunResult("RTE", Path("b"))])


class TestTranslate:
    def test_rte_label_map(self, tmp_path):
        # Internal ids [1, 0] map to not_entailment / entailment.
        write_run(tmp_path / "log", tmp_path / "output", "d1", "RTE", "r0", 0.7, HP, ["1", "0"])
        report = summarize_val(Workspace(tmp_path), "d1")
        best = collect_best_val(report.results)
        zip_path = translate_test_result(best, tmp_path / "zip")
        content = (tmp_path / "zip" / "RTE.tsv").read_text()
        assert content == "index\tprediction\n0\tnot_entailment\n1\tentailment\n"
        with zipfile.ZipFile(zip_path) as zf:
            assert zf.namelist() == ["RTE.tsv"]
            assert zf.read("RTE.tsv").decode() == content

    def test_stsb_numeric_passthrough(self, tmp_path):
        write_run(tmp_path / "log", tmp_path / "output", "d1", "STS-B", "r0", 0.8, HP, ["2.5"])
        report = summarize_val(Workspace(tmp_path), "d1")
        best = collect_best_val(report.results)
        translate_test_result(best, tmp_path / "zip")
        assert (tmp_path / "zip" / "STS-B.tsv").read_text() == "index\tprediction\n0\t2.5\n"

    def test_unknown_label_id_fatal(self):
        task = glue.get_task("RTE")
        with pytest.raises(CollectionError, match="label id 7"):
            translate_predictions(task, [("0", "7")])

    def test_missing_predictions_fatal(self, tmp_path):
        best = {
            "RTE": RunResult(task="RTE", predictions_path=tmp_path / "nope.tsv")
        }
        with pytest.raises(CollectionError, match="RTE"):
            translate_test_result(best, tmp_path / "zip")

    def test_totality_same_cardinality(self, tmp_path):
        preds = [str(i % 2) for i in range(57)]
        write_run(tmp_path / "log", tmp_path / "output", "d1", "SST-2", "r0", 0.9, HP, preds)
        report = summarize_val(Workspace(tmp_path), "d1")
        translate_test_result(collect_best_val(report.results), tmp_path / "zip")
        lines = (tmp_path / "zip" / "SST-2.tsv").read_text().splitlines()
        assert len(lines) == 1 + 57

    def test_zip_reproducible(self, tmp_path):
        for task, preds in (("RTE", ["0", "1"]), ("MNLI", ["2", "0", "1"]), ("STS-B", ["3.25"])):
            write_run(tmp_path / "log", tmp_path / "output", "d1", task, "r0", 0.7, HP, preds)
        report = summarize_val(Workspace(tmp_path), "d1")
        best = collect_best_val(report.results)
        a = translate_test_result(best, tmp_path / "zip_a").read_bytes()
        b = translate_test_result(best, tmp_path / "zip_b").read_bytes()
        assert a == b
        with zipfile.ZipFile(tmp_path / "zip_a" / SUBMISSION_ZIP_NAME) as zf:
            assert zf.namelist() == ["MNLI-m.tsv", "RTE.tsv", "STS-B.tsv"]
            for info in zf.infolist():
                assert info.date_time == (1980, 1, 1, 0, 0, 0)

    def test_failed_zip_write_keeps_the_earlier_zip(self, tmp_path, file_size_limit):
        # A file-size limit between the task's TSV and the zip cuts the zip
        # partway, as a full disk would: the earlier zip stays whole, with no
        # .tmp beside it.
        preds = [str(i % 2) for i in range(200)]
        write_run(tmp_path / "log", tmp_path / "output", "d1", "SST-2", "r0", 0.9, HP, preds)
        best = collect_best_val(summarize_val(Workspace(tmp_path), "d1").results)
        zip_path = translate_test_result(best, tmp_path / "zip")
        earlier = zip_path.read_bytes()
        tsv_size = (tmp_path / "zip" / "SST-2.tsv").stat().st_size
        assert tsv_size < len(earlier)
        with file_size_limit((tsv_size + len(earlier)) // 2), pytest.raises(OSError):
            translate_test_result(best, tmp_path / "zip")
        assert zip_path.read_bytes() == earlier
        assert not list((tmp_path / "zip").glob("*.tmp"))

    def test_mnli_labels(self):
        task = glue.get_task("MNLI")
        out = translate_predictions(task, [("0", "0"), ("1", "1"), ("2", "2")])
        assert out.splitlines()[1:] == ["0\tentailment", "1\tneutral", "2\tcontradiction"]
