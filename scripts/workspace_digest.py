#!/usr/bin/env python3
"""List the sha256 of every file of a pipeline workspace, to compare two runs byte for byte.

Prints ``<sha256>  <relative path>`` per file, sorted by path. The two
records that hold times are left out: ``log/pipeline/report.json`` and the
stage sentinels under ``.stages/``. Outputs that name a path (``RESULT.tsv``
names its checkpoint) differ between workspaces at two paths, so compare
runs made at one workspace path.

Example:
    python scripts/workspace_digest.py ws/ > before.txt
"""

import argparse
import hashlib
from pathlib import Path

EXCLUDED = ("log/pipeline/report.json", ".stages/")


def workspace_digest(root: Path) -> list[str]:
    paths = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  {rel}"
            for rel in paths if not rel.startswith(EXCLUDED)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workspace", type=Path, help="the workspace directory of a run")
    args = parser.parse_args()
    if not args.workspace.is_dir():
        parser.error(f"not a directory: {args.workspace}")
    print("\n".join(workspace_digest(args.workspace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
