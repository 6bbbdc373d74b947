from __future__ import annotations

import json
import os
import subprocess
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import pytest

from bertpipe.cli import _options_from_args, build_parser, main
from bertpipe.pipeline import STAGES, PipelineOptions
from bertpipe.synthdata import generate_corpus

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path: Path) -> Path:
    generate_corpus(tmp_path / "corpus", 120_000, seed=21, n_files=2)
    cfg = tmp_path / "pipeline.yaml"
    cfg.write_text(
        f"SYSTEM:\n  MAX_MEMORY_IN_GB: 0.25\n"
        f"DATASET:\n  CUSTOMIZED_DATASETS:\n    - {tmp_path / 'corpus'}\n"
        f"PRETRAIN:\n  NUM_STEPS: 40\n"
        f"TOKENIZER:\n  NAME_OR_PATH: mini-uncased\n"
    )
    return cfg


def base_args(cfg: Path, ws: Path) -> list[str]:
    return [
        "--config", str(cfg), "--workdir", str(ws),
        "--num-train-shards", "2", "--num-test-shards", "1",
        "--dup-factor", "1", "--tasks", "MNLI,RTE",
    ]


def test_run_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", *base_args(cfg, tmp_path / "ws")]) == 0
    out = capsys.readouterr().out
    assert "completed" in out and "dataset id:" in out
    zips = list((tmp_path / "ws" / "output_test_translated").rglob("*.zip"))
    assert len(zips) == 1
    assert zipfile.ZipFile(zips[0]).namelist() == ["MNLI-m.tsv", "RTE.tsv"]


def test_stage_subcommands_mirror_enable_flags(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    assert main(["dataset", *base_args(cfg, ws)]) == 0
    assert (ws / "data" / "processed" / "META.yaml").is_file()
    assert not (ws / "saved_models").exists()

    assert main(["pretrain", *base_args(cfg, ws)]) == 0
    assert (ws / "saved_models" / "pretrain").is_dir()

    assert main(["finetune", *base_args(cfg, ws)]) == 0
    assert main(["collect", *base_args(cfg, ws)]) == 0
    capsys.readouterr()


def test_flag_defaults_are_the_option_defaults():
    args = build_parser().parse_args(["run", "--config", "x"])
    assert _options_from_args(args) == PipelineOptions()


# Every PipelineOptions flag, a non-default value for it, and what the field should read.
NON_DEFAULT_FLAGS = [
    (["--n-workers", "3"], "n_workers", 3),
    (["--seed", "7"], "seed", 7),
    (["--num-train-shards", "5"], "num_train_shards", 5),
    (["--num-test-shards", "4"], "num_test_shards", 4),
    (["--frac-test", "0.25"], "frac_test", 0.25),
    (["--dup-factor", "2"], "dup_factor", 2),
    (["--masked-lm-prob", "0.2"], "masked_lm_prob", 0.2),
    (["--max-seq-length", "64"], "max_seq_length", 64),
    (["--max-predictions-per-seq", "9"], "max_predictions_per_seq", 9),
    (["--schedule", "linear"], "schedule_kind", "linear"),
    (["--eta0", "0.5"], "eta0", 0.5),
    (["--tasks", "RTE, MNLI,"], "tasks", ("RTE", "MNLI")),
    (["--finetune-parallelism", "3"], "finetune_parallelism", 3),
    (["--remote-base-url", "http://localhost:8000/corpora"], "remote_base_url",
     "http://localhost:8000/corpora"),
    (["--force"], "force", True),
]


def test_each_flag_reaches_its_option():
    defaults = PipelineOptions()
    argv = ["run", "--config", "x"]
    for flag_argv, name, value in NON_DEFAULT_FLAGS:
        assert getattr(defaults, name) != value, name
        argv += flag_argv
    args = build_parser().parse_args(argv)
    expected = replace(defaults, **{name: value for _, name, value in NON_DEFAULT_FLAGS})
    assert _options_from_args(args) == expected
    # No flag is left out of the list above.
    not_options = {"command", "func", "config", "workdir", "trainer", "trainer_cmd"}
    assert set(vars(args)) - not_options == {name for _, name, _ in NON_DEFAULT_FLAGS}


def test_precondition_error_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path)
    # pretrain without any preprocessed data
    assert main(["pretrain", *base_args(cfg, tmp_path / "empty_ws")]) == 1
    err = capsys.readouterr().err
    assert "dataset" in err and "pretrain" in err


@pytest.mark.parametrize("flags, message", [
    (["--max-seq-length", "70000"], "max_seq_length 70000 exceeds 65535, the largest "
                                    "instance file format version 3 can store"),
    (["--max-predictions-per-seq", "0"], "max_predictions_per_seq must be >= 1, not 0"),
])
def test_unstorable_masking_option_fails_the_dataset_stage(tmp_path, capsys, flags, message):
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    assert main(["dataset", *base_args(cfg, ws), *flags]) == 1
    assert capsys.readouterr().err == f"error: stage 'dataset' failed: {message}\n"
    report = json.loads((ws / "log" / "pipeline" / "report.json").read_text())
    dataset = report["stages"][-1]
    assert (dataset["name"], dataset["status"], dataset["error"]) == ("dataset", "failed", message)
    assert not (ws / "data" / "processed").exists()


def test_schedule_trace_command(tmp_path, capsys):
    out = tmp_path / "trace.tsv"
    assert main(["schedule", "trace", "--kind", "esd", "--eta0", "2e-3",
                 "--steps", "100", "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 101
    assert main(["schedule", "trace", "--preset", "bert-base-benchmark",
                 "--out", str(tmp_path / "preset.tsv")]) == 0
    capsys.readouterr()


def test_schedule_error_is_reported(tmp_path, capsys):
    out = tmp_path / "trace.tsv"
    assert main(["schedule", "trace", "--decay-ratio", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: decay ratio r must lie in (0, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--decay-ratio", "nan"], "decay ratio r must lie in (0, 1)"),
    (["--decay-ratio", "inf"], "decay ratio r must lie in (0, 1)"),
    (["--warmup-proportion", "nan"], "warmup_proportion must lie in [0, 1)"),
    (["--steps", "-5"], "overall step budget -5 is negative"),
    (["--eta0", "nan"], "eta0 must be positive and finite, not nan"),
    (["--kind", "linear", "--decay-ratio", "nan"], "decay ratio r must lie in (0, 1)"),
])
def test_schedule_trace_rejects_bad_flags(tmp_path, capsys, flags, message):
    out = tmp_path / "trace.tsv"
    assert main(["schedule", "trace", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def _src_env() -> dict:
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# Loaded on first use only: an HTTP client for remote corpora, process pools for
# more than one worker, a thread pool for a parallel grid, subprocess for an
# external trainer, and each stage's own code for a stage that runs.
LAZY_MODULES = ("requests", "urllib.request", "multiprocessing", "concurrent.futures.process",
                "concurrent.futures.thread", "subprocess",
                *(f"bertpipe.{name}" for name in ("sharding", "instances", "rng", "tokenization",
                                                  "ingest", "schedule", "trainer", "search",
                                                  "collect")))


def _loaded_lazy_modules(statement: str) -> list[str]:
    """The LAZY_MODULES a fresh interpreter has loaded after running ``statement``."""
    probe = (f"import json, sys\n{statement}\n"
             f"print(json.dumps([m for m in {LAZY_MODULES!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_does_not_load_requests():
    assert _loaded_lazy_modules("import bertpipe.cli") == []


def test_noop_rerun_loads_no_pool_or_subprocess(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    assert main(["run", *base_args(cfg, ws)]) == 0
    capsys.readouterr()
    rerun = f"from bertpipe.cli import main\nassert main({['run', *base_args(cfg, ws)]!r}) == 0"
    assert _loaded_lazy_modules(rerun) == []
    report = json.loads((ws / "log" / "pipeline" / "report.json").read_text())
    assert [stage["status"] for stage in report["stages"]] == ["skipped_done"] * len(STAGES)


def test_setup_run_loads_no_stage_code(tmp_path):
    # Every section disabled: only env_check runs, and it needs no stage module.
    cfg = write_config(tmp_path)
    text = cfg.read_text()
    for section in ("DATASET", "PRETRAIN"):
        text = text.replace(f"{section}:\n", f"{section}:\n  ENABLED: False\n")
    cfg.write_text(text + "FINETUNE:\n  ENABLED: False\nRESULT_COLLECTION:\n  ENABLED: False\n")
    ws = tmp_path / "ws"
    setup = f"from bertpipe.cli import main\nassert main({['run', *base_args(cfg, ws)]!r}) == 0"
    assert _loaded_lazy_modules(setup) == []
    report = json.loads((ws / "log" / "pipeline" / "report.json").read_text())
    assert [stage["status"] for stage in report["stages"]] == (
        ["completed"] + ["skipped_disabled"] * (len(STAGES) - 1))


def test_bench_trace_sees_every_stage(tmp_path):
    # bench/trace.py wraps pipeline functions by module attribute; a stage the
    # pipeline calls some other way would vanish from the per-layer metrics.
    cfg = write_config(tmp_path)
    spans = tmp_path / "spans"
    spans.mkdir()
    subprocess.run([sys.executable, str(ROOT / "bench" / "trace.py"), str(spans), "run",
                    *base_args(cfg, tmp_path / "ws")],
                   env=_src_env(), capture_output=True, check=True, timeout=300)
    names = set()
    for path in spans.glob("spans-*.jsonl"):
        for line in path.read_text().splitlines():
            names.update(json.loads(line)["agg"])
    expected = {f"pipeline.stage.{stage}" for stage in STAGES}
    expected |= {"pipeline.stage_digest", "pipeline.check_preconditions",
                 "instances.apply_masking", "instances.write_instance_file", "rng.keyed_rng",
                 "schedule.schedule_value", "search.select_best", "collect.summarize_val",
                 "collect.collect_best_val"}
    assert expected <= names


def test_bench_trace_installs_against_the_library(tmp_path):
    # bench/trace.py wraps library names by attribute, so a renamed or deleted
    # name must fail here rather than only under `bench/run.py --trace 1`. It
    # is loaded by file path: the standard library has a module called trace.
    probe = (
        "import importlib.util, pathlib\n"
        f"spec = importlib.util.spec_from_file_location('bench_trace', "
        f"{str(ROOT / 'bench' / 'trace.py')!r})\n"
        "trace = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(trace)\n"
        f"trace.install(trace.Tracer(pathlib.Path({str(tmp_path)!r})))\n"
        "import bertpipe.pipeline, bertpipe.trainer\n"
        "assert bertpipe.trainer.SimulationTrainer.run.__wrapped__\n"
        "assert bertpipe.pipeline._stage_digest.__wrapped__\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
