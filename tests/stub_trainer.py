"""A stand-in external trainer that honours the whole trainer contract.

Run as ``python stub_trainer.py [stub flags] <job argv>``. Under the job's
``--output_dir`` it writes ``model.json`` (a checkpoint that records the
``--model_name_or_path`` and ``--output_dir`` it was given, its whole argv and
the ``WANDB_API_KEY`` of its environment, or null), ``RESULT.tsv``
and ``predictions.tsv`` (label id 0, which every GLUE task accepts). It
prints two ``final_val_metric`` lines, of which the last counts: ``0.8125``
plus the job's ``--learning_rate``, so a grid has one winner.

Stub flags: ``--stub_exit_code N``, ``--stub_sleep SECONDS`` and
``--stub_no_result`` (write no ``RESULT.tsv``).
"""

import json
import os
import sys
import time
from pathlib import Path


def flag(args: list[str], name: str, default=None):
    return args[args.index(name) + 1] if name in args else default


def main(args: list[str]) -> int:
    time.sleep(float(flag(args, "--stub_sleep", 0)))
    out = Path(flag(args, "--output_dir"))
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = out / "model.json"
    checkpoint.write_text(json.dumps({"model_name_or_path": flag(args, "--model_name_or_path"),
                                      "output_dir": str(out), "argv": args,
                                      "wandb_api_key": os.environ.get("WANDB_API_KEY")}))
    if "--stub_no_result" not in args:
        (out / "RESULT.tsv").write_text(f"eval_loss\t2.25\ncheckpoint\t{checkpoint}\n")
    (out / "predictions.tsv").write_text("".join(f"{i}\t0\n" for i in range(4)))
    print("final_val_metric\taccuracy\t0.5")
    print(f"final_val_metric\taccuracy\t{0.8125 + float(flag(args, '--learning_rate', 0))!r}")
    return int(flag(args, "--stub_exit_code", 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
