"""Command-line interface.

``bertpipe run --config pipeline.yaml`` executes the whole pipeline; the
``dataset`` / ``pretrain`` / ``finetune`` / ``collect`` subcommands run a
single stage (equivalent to disabling the others in the config), and
``schedule trace`` dumps a per-step learning-rate trace.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from fractions import Fraction
from pathlib import Path

from . import config as config_mod
from . import glue
from .pipeline import STAGE_TABLE, PipelineError, PipelineOptions, Workspace, run_pipeline
from .schedule import (
    DEFAULT_ELL,
    DEFAULT_ETA0,
    DEFAULT_WARMUP_PROPORTION,
    PRESETS,
    ScheduleSpec,
    emit_trace,
    preset_spec,
)
from .trainer import ExternalCommandTrainer, SimulationTrainer


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML pipeline configuration file")
    parser.add_argument("--workdir", default=".", help="workspace root (default: cwd)")
    parser.add_argument(
        "--trainer", choices=("simulation", "external"), default="simulation",
        help="trainer adapter (default: built-in simulation)",
    )
    parser.add_argument(
        "--trainer-cmd", default=None,
        help="command prefix for the external trainer, e.g. 'deepspeed run_pretraining.py'",
    )
    parser.add_argument("--n-workers", type=int, default=1, help="preprocessing worker processes")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--num-train-shards", type=int, default=256)
    parser.add_argument("--num-test-shards", type=int, default=128)
    parser.add_argument("--frac-test", type=float, default=0.005,
                        help="held-out fraction of the data (default 0.005)")
    parser.add_argument("--dup-factor", type=int, default=10)
    parser.add_argument("--masked-lm-prob", type=float, default=0.15)
    parser.add_argument("--max-seq-length", type=int, default=128)
    parser.add_argument("--max-predictions-per-seq", type=int, default=20)
    parser.add_argument("--schedule", choices=("esd", "linear"), default="esd",
                        help="pretraining LR schedule kind")
    parser.add_argument("--eta0", type=float, default=DEFAULT_ETA0, help="peak learning rate")
    parser.add_argument("--tasks", default=",".join(glue.TASK_NAMES),
                        help="comma-separated GLUE task list")
    parser.add_argument("--finetune-parallelism", type=int, default=1)
    parser.add_argument("--remote-base-url", default=None,
                        help="base URL serving remote corpora (<base>/<name>/<split>/...)")
    parser.add_argument("--force", action="store_true",
                        help="re-run stages even if their sentinels say they completed")


def _options_from_args(args: argparse.Namespace) -> PipelineOptions:
    return PipelineOptions(
        seed=args.seed,
        n_workers=args.n_workers,
        num_train_shards=args.num_train_shards,
        num_test_shards=args.num_test_shards,
        frac_test=args.frac_test,
        dup_factor=args.dup_factor,
        masked_lm_prob=args.masked_lm_prob,
        max_seq_length=args.max_seq_length,
        max_predictions_per_seq=args.max_predictions_per_seq,
        schedule_kind=args.schedule,
        eta0=args.eta0,
        tasks=tuple(t.strip() for t in args.tasks.split(",") if t.strip()),
        finetune_parallelism=args.finetune_parallelism,
        remote_base_url=args.remote_base_url,
        force=args.force,
    )


def _trainer_from_args(args: argparse.Namespace):
    if args.trainer == "external":
        if not args.trainer_cmd:
            raise SystemExit("--trainer external requires --trainer-cmd")
        return ExternalCommandTrainer(tuple(shlex.split(args.trainer_cmd)))
    return SimulationTrainer()


def _run_stages(args: argparse.Namespace, only_stage: str | None) -> int:
    cfg = config_mod.load_config(args.config)
    if only_stage is not None:
        cfg = config_mod.with_stage_flags(cfg, **{
            stage.section: stage.name == only_stage for stage in STAGE_TABLE if stage.section
        })
    report = run_pipeline(
        cfg,
        Workspace(Path(args.workdir)),
        trainer=_trainer_from_args(args),
        options=_options_from_args(args),
    )
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
    if args.preset:
        spec, overall = preset_spec(args.preset, kind=args.kind)
    else:
        kwargs = {}
        if args.decay_ratio is not None:
            kwargs = {"r": args.decay_ratio, "r_squared": Fraction(args.decay_ratio) ** 2}
        overall = args.steps
        from .schedule import warmup_steps

        spec = ScheduleSpec(
            kind=args.kind,
            eta0=args.eta0,
            ell=args.ell,
            warmup_proportion=args.warmup_proportion,
            total_steps=max(1, overall - warmup_steps(overall, args.warmup_proportion)),
            **kwargs,
        )
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
    trace.add_argument("--kind", choices=("esd", "linear"), default="esd")
    trace.add_argument("--eta0", type=float, default=DEFAULT_ETA0)
    trace.add_argument("--steps", type=int, default=23000, help="overall step budget")
    trace.add_argument("--decay-ratio", type=float, default=None,
                       help="decay ratio r (default 2^-1/2, handled exactly)")
    trace.add_argument("--ell", type=int, default=DEFAULT_ELL)
    trace.add_argument("--warmup-proportion", type=float, default=DEFAULT_WARMUP_PROPORTION)
    trace.add_argument("--preset", choices=sorted(PRESETS), default=None)
    trace.add_argument("--out", required=True, help="output TSV path")
    trace.set_defaults(func=_cmd_schedule_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, config_mod.ConfigParseError, config_mod.ConfigValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
