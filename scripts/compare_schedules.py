#!/usr/bin/env python3
"""Compare step-decay vs linear-decay schedules under the simulation trainer.

Runs the same step budget with both schedule kinds and reports the total
learning-rate mass and the simulated final loss of each. The loss model is
monotone in the total mass, so the schedule with the larger sum of per-step
rates always ends lower.

Example:
    python scripts/compare_schedules.py --steps 23000 --eta0 2e-3
"""

import argparse
import math
import tempfile
from pathlib import Path

from bertpipe.config import get_default_config, with_overrides
from bertpipe.records import pretrain_schedule
from bertpipe.schedule import schedule_value
from bertpipe.trainer import EarlyStopPolicy, SimulationTrainer, build_pretrain_job


def run_kind(kind: str, steps: int, eta0: float, workdir: Path) -> tuple[float, float]:
    config = with_overrides(get_default_config(), {
        "PRETRAIN.NUM_STEPS": steps, "PRETRAIN.SCHEDULE": kind, "PRETRAIN.ETA0": eta0})
    spec = pretrain_schedule(config)
    job = build_pretrain_job(config, f"compare-{kind}", workdir / "data",
                             workdir / kind / "model", workdir / kind / "log",
                             early_stop=EarlyStopPolicy(enabled=False))
    outcome = SimulationTrainer().run(job)
    total_lr = sum(schedule_value(k, steps, spec) for k in range(steps))
    return total_lr, outcome.eval_loss


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=23000)
    parser.add_argument("--eta0", type=float, default=2e-3)
    parser.add_argument("--workdir", default=None, help="where to keep run artifacts")
    args = parser.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="schedcmp-"))
    print(f"{'kind':<8} {'total lr mass':>14} {'final loss':>12}")
    results = {}
    for kind in ("esd", "linear"):
        total_lr, loss = run_kind(kind, args.steps, args.eta0, workdir)
        results[kind] = (total_lr, loss)
        print(f"{kind:<8} {total_lr:>14.4f} {loss:>12.6f}")

    (esd_mass, esd_loss), (lin_mass, lin_loss) = results["esd"], results["linear"]
    better = "esd" if esd_loss < lin_loss else "linear"
    print(f"\nlarger lr mass: {'esd' if esd_mass > lin_mass else 'linear'}; "
          f"lower final loss: {better}")
    trainer = SimulationTrainer()
    for kind, (mass, loss) in results.items():
        model = trainer.loss_start * math.exp(-trainer.decay_per_lr * mass) + trainer.loss_floor
        assert abs(model - loss) < 1e-9, "loss model mismatch"
    print(f"artifacts under {workdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
