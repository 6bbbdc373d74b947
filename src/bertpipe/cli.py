"""Command-line interface.

``bertpipe run --config pipeline.yaml`` executes the whole pipeline; the
``dataset`` / ``pretrain`` / ``finetune`` / ``collect`` subcommands run a
single stage (equivalent to disabling the others in the config), and
``schedule trace`` dumps a per-step learning-rate trace. A flag that names a
YAML key overrides that key's value; a flag that is not given leaves the
YAML in force.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from dataclasses import fields
from pathlib import Path

from . import config as config_mod
from .pipeline import STAGE_TABLE, PipelineError, Workspace, run_pipeline
from .records import PRESETS, ScheduleError, ScheduleSpec


def _task_list(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


# Each flag: the YAML key it overrides ("SECTION.KEY") or the run_pipeline
# argument it sets, with its ``add_argument`` keywords. The flag is the key's
# last part, lower case with dashes. A flag that is not given sets nothing.
_OPTION_FLAGS: dict[str, dict] = {
    "n_workers": {"type": int, "help": "preprocessing worker processes"},
    "DATASET.SEED": {"type": int},
    "DATASET.NUM_TRAIN_SHARDS": {"type": int},
    "DATASET.NUM_TEST_SHARDS": {"type": int},
    "DATASET.FRAC_TEST": {"type": float, "help": "held-out fraction of the data "
                                                 f"(default {config_mod.DatasetConfig.frac_test})"},
    "DATASET.DUP_FACTOR": {"type": int},
    "DATASET.MASKED_LM_PROB": {"type": float},
    "DATASET.MAX_SEQ_LENGTH": {"type": int},
    "DATASET.MAX_PREDICTIONS_PER_SEQ": {"type": int},
    "PRETRAIN.SCHEDULE": {"help": "pretraining LR schedule kind: esd or linear"},
    "PRETRAIN.ETA0": {"type": float, "help": "peak learning rate"},
    "FINETUNE.TASKS": {"type": _task_list, "help": "comma-separated GLUE task list"},
    "finetune_parallelism": {"type": int},
    "remote_base_url": {"help": "base URL serving remote corpora (<base>/<name>/<split>/...)"},
    "force": {"action": "store_true",
              "help": "re-run stages even if their sentinels say they completed"},
}


def _dest(name: str) -> str:
    """The argparse attribute of a flag table row: its key's last part, lower case."""
    return name.rpartition(".")[2].lower()


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML pipeline configuration file")
    parser.add_argument("--workdir", default=".", help="workspace root (default: cwd)")
    parser.add_argument("--trainer-cmd", help="command prefix of an external trainer, e.g. "
                        "'deepspeed run_pretraining.py' (default: the built-in simulation)")
    for name, keywords in _OPTION_FLAGS.items():
        parser.add_argument("--" + _dest(name).replace("_", "-"), default=None, **keywords)


def _trainer_from_args(args: argparse.Namespace, wandb_api_key: str | None):
    """The external trainer ``--trainer-cmd`` names; None leaves the built-in simulation."""
    if args.trainer_cmd is None:
        return None
    try:
        command = tuple(shlex.split(args.trainer_cmd))
    except ValueError as exc:  # an unbalanced quote
        raise SystemExit(f"error: --trainer-cmd: {exc}") from None
    if not command:
        raise SystemExit("--trainer-cmd names no command")
    from .trainer import ExternalCommandTrainer

    return ExternalCommandTrainer(command, wandb_api_key=wandb_api_key)


def _run_stages(args: argparse.Namespace, only_stage: str | None) -> int:
    given = {name: getattr(args, _dest(name)) for name in _OPTION_FLAGS}
    given = {name: value for name, value in given.items() if value is not None}
    if only_stage is not None:  # a stage subcommand disables every other stage
        given.update({f"{stage.section.upper()}.ENABLED": stage.name == only_stage
                      for stage in STAGE_TABLE if stage.section})
    cfg = config_mod.with_overrides(config_mod.load_config(args.config),
                                    {name: value for name, value in given.items() if "." in name})
    trainer = _trainer_from_args(args, cfg.wandb.api_key)
    report = run_pipeline(cfg, Workspace(Path(args.workdir)), trainer=trainer,
                          **{name: value for name, value in given.items() if "." not in name})
    for stage in report.stages:
        line = f"[{stage.status:>16}] {stage.name}"
        if stage.duration_seconds:
            line += f"  ({stage.duration_seconds:.2f}s)"
        print(line)
    if report.dataset_id:
        print(f"dataset id: {report.dataset_id}")
    print(f"report: {report.report_path}")
    return 0


def _cmd_schedule_trace(args: argparse.Namespace) -> int:
    from .schedule import emit_trace, preset_spec  # no other command loads the schedule code

    if args.preset:
        spec, overall = preset_spec(args.preset, kind=args.kind or ScheduleSpec.kind)
    else:
        overall = args.steps
        # A flag that is not given leaves the spec its default.
        given = {f.name: getattr(args, f.name) for f in fields(ScheduleSpec)}
        spec = ScheduleSpec(**{name: value for name, value in given.items() if value is not None})
    path = emit_trace(spec, overall, args.out)
    print(f"wrote {overall + 1} step values to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bertpipe",
        description="YAML-configured BERT pretraining pipeline "
        "(dataset preprocessing, pretraining, finetuning, GLUE result collection)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every enabled stage")
    _add_pipeline_args(run)
    run.set_defaults(func=lambda a: _run_stages(a, None))

    for stage in (s for s in STAGE_TABLE if s.section):
        stage_parser = sub.add_parser(stage.name, help=f"run only the {stage.name} stage")
        _add_pipeline_args(stage_parser)
        stage_parser.set_defaults(func=lambda a, _name=stage.name: _run_stages(a, _name))

    schedule = sub.add_parser("schedule", help="learning-rate schedule utilities")
    schedule_sub = schedule.add_subparsers(dest="schedule_command", required=True)
    trace = schedule_sub.add_parser("trace", help="emit a per-step step/lr TSV")
    trace.add_argument("--kind", help="esd or linear")
    trace.add_argument("--eta0", type=float)
    trace.add_argument("--steps", type=int, default=config_mod.PretrainConfig.num_steps,
                       help="overall step budget")
    trace.add_argument("--decay-ratio", dest="r", type=float,
                       help="decay ratio r (default 2^-1/2, handled exactly); trace only: "
                            "a pretraining job always gets the default")
    trace.add_argument("--ell", type=int,
                       help="the peak rate holds for the first (1 - r^ell) of the steps "
                            f"(default {ScheduleSpec.ell}); trace only: a pretraining job "
                            "always gets the default")
    trace.add_argument("--warmup-proportion", type=float)
    trace.add_argument("--preset", choices=sorted(PRESETS), default=None)
    trace.add_argument("--out", required=True, help="output TSV path")
    trace.set_defaults(func=_cmd_schedule_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, ScheduleError, config_mod.ConfigParseError,
            config_mod.ConfigValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
