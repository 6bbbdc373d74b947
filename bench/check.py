"""Check the outputs a cold ``bertpipe run`` left in one workspace.

Runs as its own process, after the timed runs, so the launcher stays small.

    PYTHONPATH=src python3 bench/check.py WORKSPACE --articles N --tasks CoLA,RTE

Checks that ``MANIFEST.tsv`` record counts sum to the corpus article count,
that every instance file parses and its count matches ``META.yaml``, that
the aggregate mask fraction lies in [0.14, 0.16], and that the submission zip
holds exactly one TSV per scheduled task. Prints one JSON object:
``{"errors": [...], "instances": N, "mask_fraction": F}``.
"""

from __future__ import annotations

import argparse
import json
import zipfile
from pathlib import Path

from bertpipe import glue
from bertpipe.instances import InstanceFileError, load_meta, mask_rate_report
from bertpipe.tokenization import load_vocab, resolve_vocab

MASK_FRACTION_RANGE = (0.14, 0.16)


def check_workspace(ws: Path, articles: int, tasks: list[str], vocab_name: str) -> dict:
    errors: list[str] = []
    manifest = ws / "data" / "sharded" / "MANIFEST.tsv"
    records = sum(int(line.split("\t")[1]) for line in manifest.read_text().splitlines())
    if records != articles:
        errors.append(f"MANIFEST.tsv holds {records} records, corpus has {articles} articles")

    processed = ws / "data" / "processed"
    meta = load_meta(processed)
    vocab = load_vocab(resolve_vocab(vocab_name))
    instances = masked = positions = 0
    for entry in meta["files"]:
        try:
            report = mask_rate_report([processed / entry["path"]], vocab)
        except InstanceFileError as exc:
            errors.append(str(exc))
            continue
        if report.instance_count != entry["instances"]:
            errors.append(f"{entry['path']}: {report.instance_count} instances, "
                          f"META.yaml says {entry['instances']}")
        instances += report.instance_count
        masked += report.masked_position_count
        if report.mask_fraction:
            positions += round(report.masked_position_count / report.mask_fraction)
    if instances != meta["num_instances"]:
        errors.append(f"{instances} instances on disk, META.yaml says {meta['num_instances']}")
    fraction = masked / positions if positions else 0.0
    low, high = MASK_FRACTION_RANGE
    if not low <= fraction <= high:
        errors.append(f"mask fraction {fraction:.4f} outside [{low}, {high}]")

    zips = list((ws / "output_test_translated").rglob("*.zip"))
    expected = sorted(glue.get_task(t).submission_file for t in tasks)
    if len(zips) != 1:
        errors.append(f"expected one submission zip, found {len(zips)}")
    else:
        with zipfile.ZipFile(zips[0]) as zf:
            members = sorted(zf.namelist())
        if members != expected:
            errors.append(f"submission zip holds {members}, expected {expected}")
    return {"errors": errors, "instances": instances, "mask_fraction": fraction}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workspace", type=Path)
    parser.add_argument("--articles", type=int, required=True)
    parser.add_argument("--tasks", required=True)
    parser.add_argument("--vocab", default="mini-uncased")
    args = parser.parse_args()
    result = check_workspace(args.workspace, args.articles, args.tasks.split(","), args.vocab)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
