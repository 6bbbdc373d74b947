"""The experiment scripts that README shows, run on small inputs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
