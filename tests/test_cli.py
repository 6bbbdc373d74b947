from __future__ import annotations

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

from bertpipe.cli import main
from bertpipe.pipeline import STAGES
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


def test_precondition_error_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path)
    # pretrain without any preprocessed data
    assert main(["pretrain", *base_args(cfg, tmp_path / "empty_ws")]) == 1
    err = capsys.readouterr().err
    assert "dataset" in err and "pretrain" in err


def test_schedule_trace_command(tmp_path, capsys):
    out = tmp_path / "trace.tsv"
    assert main(["schedule", "trace", "--kind", "esd", "--eta0", "2e-3",
                 "--steps", "100", "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 101
    assert main(["schedule", "trace", "--preset", "bert-base-benchmark",
                 "--out", str(tmp_path / "preset.tsv")]) == 0
    capsys.readouterr()


def _src_env() -> dict:
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_does_not_load_requests():
    # Only remote corpus fetches need an HTTP client; every other run skips its import cost.
    env = _src_env()
    probe = ("import sys, bertpipe.cli; "
             "print([m for m in ('requests', 'urllib.request') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


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
                 "schedule.schedule_value"}
    assert expected <= names
