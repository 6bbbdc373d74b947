"""The experiment scripts that README shows, run on small inputs."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

from bertpipe.config import parse_config, with_overrides
from bertpipe.pipeline import Workspace, run_pipeline
from bertpipe.synthdata import generate_corpus

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str, tmp_path: Path) -> str:
    src = str(ROOT / "src")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_make_synthetic_corpus(tmp_path):
    stdout = _run_script("make_synthetic_corpus.py", "--out", str(tmp_path / "corpus"),
                         "--size-mb", "0.1", "--seed", "42", tmp_path=tmp_path)
    files = sorted((tmp_path / "corpus").iterdir())
    assert len(files) == 4
    assert stdout.startswith(f"wrote 4 files, 0.1 MiB total, under {tmp_path / 'corpus'}")


def test_compare_schedules(tmp_path):
    stdout = _run_script("compare_schedules.py", "--steps", "2300", "--eta0", "2e-3",
                         tmp_path=tmp_path)
    assert "larger lr mass: esd; lower final loss: esd" in stdout
    # No --workdir: the runs land in a temporary directory, with one step log per kind.
    (workdir,) = tmp_path.glob("schedcmp-*")
    for kind in ("esd", "linear"):
        lines = (workdir / kind / "log" / "steps.tsv").read_text().splitlines()
        assert lines[0] == "step\tlr\tloss"
        assert [int(line.split("\t")[0]) for line in lines[1:]] == list(range(2300))


def test_workspace_digest(tmp_path):
    generate_corpus(tmp_path / "corpus", 60_000, seed=9, n_files=2)
    config = parse_config(
        f"DATASET:\n  CUSTOMIZED_DATASETS:\n    - {tmp_path / 'corpus'}\n"
        f"  NUM_TRAIN_SHARDS: 2\n  NUM_TEST_SHARDS: 1\n  FRAC_TEST: 0.1\n"
        f"PRETRAIN:\n  NUM_STEPS: 20\n"
        f"FINETUNE:\n  TASKS: [RTE]\n  LEARNING_RATES: [3.0e-5]\n  BATCH_SIZES: [16]\n"
        f"  EPOCHS: [1]\nTOKENIZER:\n  NAME_OR_PATH: mini-uncased\n")
    ws = tmp_path / "ws"

    def cold_run(seed: int) -> list[str]:
        shutil.rmtree(ws, ignore_errors=True)
        run_pipeline(with_overrides(config, {"DATASET.SEED": seed}), Workspace(ws))
        return _run_script("workspace_digest.py", str(ws), tmp_path=tmp_path).splitlines()

    def shard_lines(listing: list[str]) -> list[str]:
        return [line for line in listing if line.split("  ")[1].startswith("data/sharded/")]

    first, second, reseeded = cold_run(1), cold_run(1), cold_run(2)
    assert first == second
    paths = [line.split("  ")[1] for line in first]
    assert paths == sorted(paths)
    assert "log/pipeline/report.json" not in paths
    assert not [path for path in paths if path.startswith(".stages/")]
    # The seed moves documents between shards: the same shard files, other bytes.
    assert len(shard_lines(first)) == 4  # 2 + 1 shards and MANIFEST.tsv
    assert [line.split("  ")[1] for line in shard_lines(reseeded)] == [
        line.split("  ")[1] for line in shard_lines(first)]
    assert not set(shard_lines(first)) & set(shard_lines(reseeded))
