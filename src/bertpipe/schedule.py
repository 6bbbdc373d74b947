"""Learning-rate schedules: linear warmup into elastic step decay or linear decay.

The step-decay schedule holds the peak rate eta0 for the first (1 - r^ell)
fraction of the post-warmup horizon T, then walks through stages
i = ell+1, ell+2, ... covering ((1 - r^(i-1))T, (1 - r^i)T], multiplying the
rate by 1/(2r) per stage. With the default decay ratio r = 2^(-1/2) each
stage is 1/sqrt(2) the length of the previous one and the rate decays by
1/sqrt(2) per stage.

Stage boundaries are real-valued; integer steps are assigned to stages with
*exact* integer arithmetic so that no step is ever mis-bucketed by float
round-off. The square of the decay ratio is carried as an exact rational
(r = 2^(-1/2) gives r^2 = 1/2 exactly), and a comparison like
``t <= (1 - r^k) * T`` is decided by comparing ``(T - t)^2 * den^k`` against
``num^k * T^2``. The (truncated) final stage absorbs every remaining step up
to T, so the stages partition [0, T].

A ``ScheduleSpec`` holds the recipe only; every caller passes the overall
step budget, and T is what that budget leaves after warmup. The one cached
``stage_table(spec, T)`` serves every lookup of a (spec, budget) pair.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

from .atomic import replace_text_when_done
from .records import PRESETS, ScheduleError, ScheduleSpec, warmup_steps

_MAX_STAGES = 10_000
_last_step = attrgetter("last_step")


@dataclass(frozen=True)
class Stage:
    """One piecewise-constant stage over post-warmup steps [first, last]."""

    exponent: int  # i - ell; 0 for the initial constant phase
    first_step: int
    last_step: int
    lr: float


def _floor_sqrt(p: int, q: int) -> int:
    """floor(sqrt(p / q)) for non-negative integers, q > 0, exactly."""
    return math.isqrt(p * q) // q


def _ceil_sqrt(p: int, q: int) -> int:
    f = _floor_sqrt(p, q)
    return f if f * f * q >= p else f + 1


@lru_cache(maxsize=64)
def stage_table(spec: ScheduleSpec, horizon: int) -> tuple[Stage, ...]:
    """Exact stage decomposition of [0, horizon] for an esd spec.

    Stages are contiguous; the last one is truncated (or extended) to end at
    the horizon. A stage may span zero integer steps (first > last) when two
    consecutive real boundaries fall within one unit interval; such stages
    are kept in the table but never matched by lookup.
    """
    if spec.kind != "esd":
        raise ScheduleError("stage_table is defined for esd schedules only")
    if horizon < 1:
        raise ScheduleError(f"horizon {horizon} must be positive")
    T = horizon
    num, den = spec.r_squared.as_integer_ratio()
    factor = 1.0 / (2.0 * spec.r)

    def ceil_rk_T(k: int) -> int:
        # ceil(r^k * T) = ceil(sqrt(num^k * T^2 / den^k))
        return _ceil_sqrt(num**k * T * T, den**k)

    def floor_rk_T(k: int) -> int:
        return _floor_sqrt(num**k * T * T, den**k)

    stages = [Stage(exponent=0, first_step=0, last_step=T - ceil_rk_T(spec.ell), lr=spec.eta0)]
    i = spec.ell + 1
    # Stage i exists while its lower boundary (1 - r^(i-1))T still rounds up
    # below T, i.e. while r^(i-1) * T >= 1.
    while floor_rk_T(i - 1) >= 1:
        stages.append(
            Stage(
                exponent=i - spec.ell,
                first_step=T - ceil_rk_T(i - 1) + 1,
                last_step=T - ceil_rk_T(i),
                lr=spec.eta0 * factor ** (i - spec.ell),
            )
        )
        if i - spec.ell > _MAX_STAGES:
            raise ScheduleError("decay ratio too close to 1: stage count exceeds limit")
        i += 1
    last = stages[-1]
    stages[-1] = replace(last, last_step=T)
    return tuple(stages)


def schedule_value(global_step: int, overall_steps: int, spec: ScheduleSpec) -> float:
    """Learning rate at ``global_step`` of an overall budget with warmup.

    The first W = round(warmup_proportion * overall_steps) steps rise
    linearly from 0 to eta0; the remaining overall_steps - W steps follow the
    decay schedule (esd or linear) over that horizon.
    """
    if not 0 <= global_step <= overall_steps:
        raise ScheduleError(f"step {global_step} outside [0, {overall_steps}]")
    w = warmup_steps(overall_steps, spec.warmup_proportion)
    if global_step < w:
        return spec.eta0 * global_step / w
    horizon = overall_steps - w
    if spec.kind == "linear":
        if horizon == 0:
            return spec.eta0
        return spec.eta0 * (1 - (global_step - w) / horizon)
    # A zero horizon (all warmup) leaves step W on a one-step esd schedule.
    table = stage_table(spec, max(1, horizon))
    return table[bisect_left(table, global_step - w, key=_last_step)].lr


def emit_trace(spec: ScheduleSpec, overall_steps: int, out: str | Path) -> Path:
    """Write a per-step ``step\\tlr`` trace with a '#' summary header line.

    Data lines cover steps 0..overall_steps inclusive. Pure function of its
    arguments: re-emission writes a byte-identical file. Lines are streamed to
    disk, and ``out`` is replaced whole once the last one is written.
    """
    if overall_steps < 0:
        raise ScheduleError(f"overall step budget {overall_steps} is negative")
    out = Path(out)
    w = warmup_steps(overall_steps, spec.warmup_proportion)
    if spec.kind == "esd":
        stage_txt = " ".join(
            f"({s.exponent}:{s.first_step + w}-{s.last_step + w}@{s.lr!r})"
            for s in stage_table(spec, max(1, overall_steps - w))
            if s.first_step <= s.last_step
        )
    else:
        stage_txt = f"(linear:{w}-{overall_steps}@{spec.eta0!r}->0.0)"
    with replace_text_when_done(out) as trace:
        trace.write(f"# kind={spec.kind} eta0={spec.eta0!r} warmup_steps={w} "
                    f"overall_steps={overall_steps} stages={stage_txt}\n")
        for step in range(overall_steps + 1):
            trace.write(f"{step}\t{schedule_value(step, overall_steps, spec)!r}\n")
    return out


def preset_spec(name: str, kind: str = ScheduleSpec.kind) -> tuple[ScheduleSpec, int]:
    """Resolve a preset to (spec, overall step budget)."""
    if name not in PRESETS:
        raise ScheduleError(f"unknown schedule preset: {name!r} (have {sorted(PRESETS)})")
    preset = PRESETS[name]
    return ScheduleSpec(kind=kind, eta0=preset.eta0), preset.overall_steps
