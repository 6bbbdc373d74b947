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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

DEFAULT_ETA0 = 2e-3
DEFAULT_DECAY_RATIO = 2 ** -0.5
DEFAULT_DECAY_RATIO_SQUARED = Fraction(1, 2)
DEFAULT_ELL = 6
DEFAULT_WARMUP_PROPORTION = 0.06

_MAX_STAGES = 10_000


class ScheduleError(ValueError):
    """Invalid schedule parameters or out-of-range step index."""


@dataclass(frozen=True)
class ScheduleSpec:
    """Parameters of one schedule evaluation.

    ``total_steps`` is the post-warmup horizon T. ``r_squared``, when given,
    is the exact rational square of ``r`` used for boundary arithmetic;
    otherwise it is derived from the float value of ``r`` (exact in that
    float). Pass ``Fraction(1, 2)`` with r = 2**-0.5, the default pairing.
    """

    kind: str = "esd"  # "esd" | "linear"
    eta0: float = DEFAULT_ETA0
    r: float = DEFAULT_DECAY_RATIO
    ell: int = DEFAULT_ELL
    total_steps: int = 1
    warmup_proportion: float = DEFAULT_WARMUP_PROPORTION
    r_squared: Fraction | None = DEFAULT_DECAY_RATIO_SQUARED

    def __post_init__(self):
        if self.kind not in ("esd", "linear"):
            raise ScheduleError(f"unknown schedule kind: {self.kind!r}")
        if self.eta0 <= 0:
            raise ScheduleError("eta0 must be positive")
        if self.kind == "esd" and not 0 < self.r < 1:
            raise ScheduleError("decay ratio r must lie in (0, 1)")
        if self.ell < 1:
            raise ScheduleError("ell must be a positive integer")
        if self.total_steps < 1:
            raise ScheduleError("total_steps must be positive")
        if not 0 <= self.warmup_proportion < 1:
            raise ScheduleError("warmup_proportion must lie in [0, 1)")
        if self.r_squared is not None and self.r_squared != Fraction(self.r) ** 2:
            # Allow r_squared to stand in for an irrational r (e.g. 1/2 for
            # 2^-0.5), but require it to match r to float precision.
            if not math.isclose(float(self.r_squared) ** 0.5, self.r, rel_tol=1e-12):
                raise ScheduleError("r_squared does not match r")


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
def stage_table(spec: ScheduleSpec) -> tuple[Stage, ...]:
    """Exact stage decomposition of [0, total_steps] for an esd spec.

    Stages are contiguous; the last one is truncated (or extended) to end at
    total_steps. A stage may span zero integer steps (first > last) when two
    consecutive real boundaries fall within one unit interval; such stages
    are kept in the table but never matched by lookup.
    """
    if spec.kind != "esd":
        raise ScheduleError("stage_table is defined for esd schedules only")
    T = spec.total_steps
    r2 = spec.r_squared if spec.r_squared is not None else Fraction(spec.r) ** 2
    num, den = r2.numerator, r2.denominator
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


@lru_cache(maxsize=64)
def _rebased_stages(spec: ScheduleSpec, horizon: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(last steps, rates) of ``spec``'s stage table re-based to ``horizon`` steps."""
    if spec.total_steps != horizon:
        spec = replace(spec, total_steps=horizon)
    table = stage_table(spec)
    return tuple(s.last_step for s in table), tuple(s.lr for s in table)


def esd_value(t: int, spec: ScheduleSpec) -> float:
    """Learning rate of the step-decay schedule at post-warmup step ``t``."""
    if not 0 <= t <= spec.total_steps:
        raise ScheduleError(f"step {t} outside [0, {spec.total_steps}]")
    last_steps, rates = _rebased_stages(spec, spec.total_steps)
    return rates[bisect_left(last_steps, t)]


def warmup_steps(overall_steps: int, warmup_proportion: float) -> int:
    """Number of linear warmup steps for an overall budget."""
    return round(warmup_proportion * overall_steps)


def schedule_value(global_step: int, overall_steps: int, spec: ScheduleSpec) -> float:
    """Learning rate at ``global_step`` of an overall budget with warmup.

    The first W = round(warmup_proportion * overall_steps) steps rise
    linearly from 0 to eta0; the remaining overall_steps - W steps follow the
    decay schedule (esd or linear) re-based to that horizon.
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
    last_steps, rates = _rebased_stages(spec, max(1, horizon))
    return rates[bisect_left(last_steps, global_step - w)]


def schedule_values(overall_steps: int, spec: ScheduleSpec) -> list[float]:
    """Learning rate at every step 0..overall_steps inclusive."""
    return [schedule_value(k, overall_steps, spec) for k in range(overall_steps + 1)]


def emit_trace(spec: ScheduleSpec, overall_steps: int, out: str | Path) -> Path:
    """Write a per-step ``step\\tlr`` trace with a '#' summary header line.

    Data lines cover steps 0..overall_steps inclusive. Pure function of its
    arguments: re-emission writes a byte-identical file.
    """
    out = Path(out)
    w = warmup_steps(overall_steps, spec.warmup_proportion)
    if spec.kind == "esd":
        table = stage_table(replace(spec, total_steps=max(1, overall_steps - w)))
        stage_txt = " ".join(
            f"({s.exponent}:{s.first_step + w}-{s.last_step + w}@{s.lr!r})"
            for s in table
            if s.first_step <= s.last_step
        )
    else:
        stage_txt = f"(linear:{w}-{overall_steps}@{spec.eta0!r}->0.0)"
    lines = [
        f"# kind={spec.kind} eta0={spec.eta0!r} warmup_steps={w} "
        f"overall_steps={overall_steps} stages={stage_txt}"
    ]
    for step in range(overall_steps + 1):
        lines.append(f"{step}\t{schedule_value(step, overall_steps, spec)!r}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


@dataclass(frozen=True)
class BenchmarkPreset:
    """A named (budget, peak rate) pairing for a standard pretraining run."""

    name: str
    overall_steps: int
    eta0: float


# 23k-step runs pair with the higher default peak; the longer 57.5k-step runs
# use the smaller, more stable peak rate.
PRESETS: dict[str, BenchmarkPreset] = {
    "bert-base-benchmark": BenchmarkPreset("bert-base-benchmark", 23000, 2e-3),
    "bert-large-benchmark": BenchmarkPreset("bert-large-benchmark", 57500, 1e-3),
}


def preset_spec(name: str, kind: str = "esd") -> tuple[ScheduleSpec, int]:
    """Resolve a preset to (spec with re-based horizon, overall step budget)."""
    if name not in PRESETS:
        raise ScheduleError(f"unknown schedule preset: {name!r} (have {sorted(PRESETS)})")
    preset = PRESETS[name]
    w = warmup_steps(preset.overall_steps, DEFAULT_WARMUP_PROPORTION)
    spec = ScheduleSpec(
        kind=kind,
        eta0=preset.eta0,
        total_steps=preset.overall_steps - w,
    )
    return spec, preset.overall_steps
