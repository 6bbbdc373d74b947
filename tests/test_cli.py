from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import zipfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from bertpipe import cli
from bertpipe.cli import build_parser, main
from bertpipe.config import load_config, parse_config
from bertpipe.pipeline import REDACTED, STAGES
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


def test_config_echo_is_the_config_the_run_used(tmp_path, capsys):
    # Flag values are part of the run's settings; the tracking API key is a secret.
    cfg = write_config(tmp_path)
    api_key = "0123456789abcdef" * 2
    cfg.write_text(cfg.read_text() + f"WANDB:\n  API_KEY: {api_key}\n")
    ws = tmp_path / "ws"
    assert main(["run", *base_args(cfg, ws)]) == 0
    echo = (ws / "log" / "pipeline" / "config.yaml").read_text()
    assert api_key not in echo
    used = parse_config(echo)
    assert used.dataset.num_train_shards == 2 and used.finetune.tasks == ("MNLI", "RTE")
    assert used.wandb.api_key == REDACTED
    capsys.readouterr()


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


# Every flag, a value for it, and the YAML key or run_pipeline argument it sets.
FLAG_VALUES = [
    (["--n-workers", "3"], "n_workers", 3),
    (["--seed", "7"], "DATASET.SEED", 7),
    (["--num-train-shards", "5"], "DATASET.NUM_TRAIN_SHARDS", 5),
    (["--num-test-shards", "4"], "DATASET.NUM_TEST_SHARDS", 4),
    (["--frac-test", "0.25"], "DATASET.FRAC_TEST", 0.25),
    (["--dup-factor", "2"], "DATASET.DUP_FACTOR", 2),
    (["--masked-lm-prob", "0.2"], "DATASET.MASKED_LM_PROB", 0.2),
    (["--max-seq-length", "64"], "DATASET.MAX_SEQ_LENGTH", 64),
    (["--max-predictions-per-seq", "9"], "DATASET.MAX_PREDICTIONS_PER_SEQ", 9),
    (["--schedule", "linear"], "PRETRAIN.SCHEDULE", "linear"),
    (["--eta0", "0.5"], "PRETRAIN.ETA0", 0.5),
    (["--tasks", "RTE, MNLI,"], "FINETUNE.TASKS", ["RTE", "MNLI"]),
    (["--finetune-parallelism", "3"], "finetune_parallelism", 3),
    (["--remote-base-url", "http://localhost:8000/corpora"], "remote_base_url",
     "http://localhost:8000/corpora"),
    (["--force"], "force", True),
]
# Another value for each YAML key a flag sets.
YAML_VALUES = {
    "DATASET.SEED": 1, "DATASET.NUM_TRAIN_SHARDS": 8, "DATASET.NUM_TEST_SHARDS": 8,
    "DATASET.FRAC_TEST": 0.5, "DATASET.DUP_FACTOR": 4, "DATASET.MASKED_LM_PROB": 0.3,
    "DATASET.MAX_SEQ_LENGTH": 32, "DATASET.MAX_PREDICTIONS_PER_SEQ": 3,
    "PRETRAIN.SCHEDULE": "esd", "PRETRAIN.ETA0": 0.25, "FINETUNE.TASKS": ["CoLA"],
}


def yaml_of(values: dict) -> str:
    """YAML text setting each "SECTION.KEY" of ``values`` (JSON is YAML)."""
    sections: dict[str, str] = {}
    for name, value in values.items():
        section, key = name.split(".")
        line = f"  {key}: {json.dumps(value)}\n"
        sections[section] = sections.get(section, f"{section}:\n") + line
    return "".join(sections.values())


def run_arguments(tmp_path, monkeypatch, yaml_text: str, flags: list[str]):
    """The config and keyword arguments ``bertpipe run`` passes to run_pipeline."""
    cfg = tmp_path / "pipeline.yaml"
    cfg.write_text(yaml_text)
    calls = []

    def fake_run_pipeline(config, workspace, **kwargs):
        calls.append((config, kwargs))
        return SimpleNamespace(stages=[], dataset_id=None, report_path=None)

    monkeypatch.setattr(cli, "run_pipeline", fake_run_pipeline)
    assert main(["run", "--config", str(cfg), "--workdir", str(tmp_path / "ws"), *flags]) == 0
    (config, kwargs), = calls
    return config, kwargs


def test_each_flag_reaches_its_key_or_argument(tmp_path, monkeypatch, capsys):
    flagged = {name: value for _, name, value in FLAG_VALUES if "." in name}
    assert flagged.keys() == YAML_VALUES.keys()
    assert all(YAML_VALUES[name] != value for name, value in flagged.items())
    config, kwargs = run_arguments(tmp_path, monkeypatch, yaml_of(YAML_VALUES),
                                   [arg for flag_argv, _, _ in FLAG_VALUES for arg in flag_argv])
    assert config == parse_config(yaml_of(flagged))
    assert kwargs == {"trainer": None, **{name: value for _, name, value in FLAG_VALUES
                                          if "." not in name}}
    # No flag is left out of the list above.
    args = build_parser().parse_args(["run", "--config", "x"])
    not_in_table = {"command", "func", "config", "workdir", "trainer_cmd"}
    assert set(vars(args)) - not_in_table == {cli._dest(name) for _, name, _ in FLAG_VALUES}


def test_no_flags_leave_the_config_unchanged(tmp_path, monkeypatch, capsys):
    config, kwargs = run_arguments(tmp_path, monkeypatch, yaml_of(YAML_VALUES), [])
    assert config == load_config(tmp_path / "pipeline.yaml") == parse_config(yaml_of(YAML_VALUES))
    assert kwargs == {"trainer": None}


def test_trainer_cmd_alone_selects_the_external_trainer(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    command = shlex.join([sys.executable, str(Path(__file__).with_name("stub_trainer.py"))])
    assert main(["run", *base_args(cfg, ws), "--trainer-cmd", command]) == 0
    out = capsys.readouterr().out
    assert out.count("[       completed]") == 5
    did = out.split("dataset id: ")[1].split()[0]
    # Only the stub writes model.json; the simulation writes checkpoint.json.
    assert (ws / "saved_models" / "pretrain" / did / "model.json").is_file()


def test_empty_trainer_cmd_is_refused(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit, match="^--trainer-cmd names no command$"):
        main(["run", *base_args(cfg, tmp_path / "ws"), "--trainer-cmd", " "])
    assert not (tmp_path / "ws").exists()


def test_unbalanced_trainer_cmd_is_refused(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["run", *base_args(cfg, tmp_path / "ws"), "--trainer-cmd", "'deepspeed run.py"])
    assert info.value.code == "error: --trainer-cmd: No closing quotation"
    assert not (tmp_path / "ws").exists()


def test_wandb_api_key_reaches_only_the_trainer_environment(tmp_path, capsys):
    cfg = write_config(tmp_path)
    api_key = "fedcba9876543210" * 2
    cfg.write_text(cfg.read_text() + f"WANDB:\n  API_KEY: {api_key}\n"
                   "FINETUNE:\n  ENABLED: False\nRESULT_COLLECTION:\n  ENABLED: False\n")
    ws = tmp_path / "ws"
    command = shlex.join([sys.executable, str(Path(__file__).with_name("stub_trainer.py"))])
    assert main(["run", *base_args(cfg, ws), "--trainer-cmd", command]) == 0
    [checkpoint] = ws.glob("saved_models/pretrain/*/model.json")
    given = json.loads(checkpoint.read_text())
    assert given["wandb_api_key"] == api_key
    assert api_key not in " ".join(given["argv"])
    # The stub's record is the only file that holds the key: not the trainer's
    # stdout.log or stderr.log, nor log/pipeline/config.yaml.
    assert {path.name for path in ws.rglob("*.log")} == {"stdout.log", "stderr.log"}
    assert (ws / "log" / "pipeline" / "config.yaml").is_file()
    holding = [path for path in ws.rglob("*") if path.is_file()
               and api_key.encode() in path.read_bytes()]
    assert holding == [checkpoint]
    assert api_key not in capsys.readouterr().out


def test_precondition_error_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path)
    # pretrain without any preprocessed data
    assert main(["pretrain", *base_args(cfg, tmp_path / "empty_ws")]) == 1
    err = capsys.readouterr().err
    assert "dataset" in err and "pretrain" in err


def test_unknown_task_is_a_config_error(tmp_path, capsys):
    # Caught before any stage runs, not when the finetune stage looks the task up.
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    assert main(["run", *base_args(cfg, ws), "--tasks", "MNLI,SNLI"]) == 1
    assert capsys.readouterr().err == (
        "error: configuration is invalid: FINETUNE.TASKS: unknown GLUE task 'SNLI'\n")
    assert not (ws / "data").exists()


@pytest.mark.parametrize("flags, message, key", [
    (["--max-seq-length", "70000"], "max_seq_length 70000 exceeds 65535, the largest "
                                    "instance file format version 4 can store",
     "DATASET.MAX_SEQ_LENGTH"),
    (["--max-predictions-per-seq", "0"], "max_predictions_per_seq must be >= 1, not 0",
     "DATASET.MAX_PREDICTIONS_PER_SEQ"),
])
def test_unstorable_masking_option_fails_the_dataset_stage(tmp_path, capsys, flags, message,
                                                           key):
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    # Checked with every stage's records before any stage runs: nothing is written.
    assert main(["dataset", *base_args(cfg, ws), *flags]) == 1
    assert capsys.readouterr().err == f"error: configuration is invalid: {key}: {message}\n"
    assert not ws.exists()


FLOOR = "memory budget 1073741 below the 16777216-byte floor; refusing to start"


@pytest.mark.parametrize("key, value, error", [
    ("SYSTEM.MAX_MEMORY_IN_GB", "0.001", f"SYSTEM.MAX_MEMORY_IN_GB: {FLOOR}"),
    ("SYSTEM.MAX_MEMORY_IN_GB", ".inf",
     "SYSTEM.MAX_MEMORY_IN_GB: memory budget inf GB is not a finite byte count"),
    ("SYSTEM.MAX_MEMORY_IN_GB", "1e400",
     "SYSTEM.MAX_MEMORY_IN_GB: memory budget inf GB is not a finite byte count"),
    ("SYSTEM.MAX_MEMORY_IN_GB", ".nan",
     "SYSTEM.MAX_MEMORY_IN_GB: memory budget nan GB is not a finite byte count"),
    ("PRETRAIN.ETA0", "0", "PRETRAIN.ETA0: eta0 must be positive and finite, not 0.0"),
    # A short window leaves too little room for the default 20 predictions.
    ("DATASET.MAX_SEQ_LENGTH", "16",
     "DATASET.MAX_PREDICTIONS_PER_SEQ: max_predictions_per_seq must be <= max_seq_length - 2"),
    ("FINETUNE.LEARNING_RATES", "[1e-5, 1e-5]",
     "FINETUNE.LEARNING_RATES: learning rate 1e-05 is repeated in the grid"),
    ("PRETRAIN.SCHEDULE", "cosine", "PRETRAIN.SCHEDULE: unknown schedule kind: 'cosine'"),
])
def test_bad_value_names_its_key(tmp_path, capsys, key, value, error):
    # A YAML value, checked before any stage runs: nothing is written.
    sections = {"SYSTEM": {"MAX_MEMORY_IN_GB": "0.25"},
                "DATASET": {"CUSTOMIZED_DATASETS": f"[{tmp_path / 'corpus'}]"}}
    section, name = key.split(".")
    sections.setdefault(section, {})[name] = value
    cfg = tmp_path / "pipeline.yaml"
    cfg.write_text("".join(f"{section}:\n" + "".join(f"  {k}: {v}\n" for k, v in keys.items())
                           for section, keys in sections.items()))
    ws = tmp_path / "ws"
    assert main(["run", "--config", str(cfg), "--workdir", str(ws)]) == 1
    assert capsys.readouterr().err == f"error: configuration is invalid: {error}\n"
    assert not ws.exists()


def test_unknown_schedule_flag_is_a_config_error(tmp_path, capsys):
    # The flag is checked where the YAML key is: by ScheduleSpec, before any stage runs.
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    assert main(["run", *base_args(cfg, ws), "--schedule", "cosine"]) == 1
    assert capsys.readouterr().err == (
        "error: configuration is invalid: PRETRAIN.SCHEDULE: unknown schedule kind: 'cosine'\n")
    assert not ws.exists()


def test_schedule_trace_command(tmp_path, capsys):
    out = tmp_path / "trace.tsv"
    assert main(["schedule", "trace", "--kind", "esd", "--eta0", "2e-3",
                 "--steps", "100", "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 101
    assert main(["schedule", "trace", "--preset", "bert-base-benchmark",
                 "--out", str(tmp_path / "preset.tsv")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flags, sha256", [
    ([], "382b2db51287bd39a823b123e2225e4c1542bfb2ebca098c152c0570a4825ccf"),
    (["--preset", "bert-large-benchmark", "--kind", "linear"],
     "19823a76c39d691efda37cf1a938712938d8a0a66d187df12c7b8c4fc86aae47"),
])
def test_schedule_trace_bytes_are_pinned(tmp_path, capsys, flags, sha256):
    # A flag that is not given leaves ScheduleSpec its default.
    out = tmp_path / "trace.tsv"
    assert main(["schedule", "trace", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
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
    (["--kind", "cosine"], "unknown schedule kind: 'cosine'"),
    (["--preset", "bert-base-benchmark", "--kind", "cosine"], "unknown schedule kind: 'cosine'"),
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


def test_cold_run_never_loads_the_instance_reader(tmp_path):
    # A run writes instance files and never reads one back.
    cfg = write_config(tmp_path)
    ws = tmp_path / "ws"
    probe = ("import sys\nfrom bertpipe.cli import main\n"
             f"assert main({['run', *base_args(cfg, ws)]!r}) == 0\n"
             "print('bertpipe.instance_reader' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.splitlines()[-1] == "False"
    report = json.loads((ws / "log" / "pipeline" / "report.json").read_text())
    assert [stage["status"] for stage in report["stages"]] == ["completed"] * len(STAGES)


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
