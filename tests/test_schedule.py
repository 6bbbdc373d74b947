from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from bertpipe.schedule import (
    PRESETS,
    ScheduleError,
    ScheduleSpec,
    emit_trace,
    esd_value,
    preset_spec,
    schedule_value,
    stage_table,
    warmup_steps,
)

mpmath.mp.dps = 60


def oracle_stage_map(eta0: float, ell: int, T: int) -> list[tuple[int, int, float]]:
    """Independent high-precision stage map for r = 2^(-1/2).

    Evaluates the real-valued interval boundaries (1 - r^k) * T with 60-digit
    arithmetic and converts them to integer step ranges: the constant phase is
    the closed interval [0, (1 - r^ell) T], each decay stage i the half-open
    ((1 - r^(i-1)) T, (1 - r^i) T]. A stage i exists while its lower boundary
    still rounds up below T; the last existing stage extends to T. Returns
    (first_step, last_step, value) rows.
    """
    r = mpmath.mpf(2) ** mpmath.mpf("-0.5")
    factor = 1 / (2 * r)

    def boundary(k: int):
        return (1 - r**k) * T

    rows = [(0, int(mpmath.floor(boundary(ell))), eta0)]
    i = ell + 1
    while int(mpmath.ceil(boundary(i - 1))) < T:
        first = int(mpmath.floor(boundary(i - 1))) + 1
        last = int(mpmath.floor(boundary(i)))
        rows.append((first, last, float(eta0 * factor ** (i - ell))))
        i += 1
    first, _, value = rows[-1]
    rows[-1] = (first, T, value)
    return rows


def oracle_value(t: int, rows: list[tuple[int, int, float]]) -> float:
    for first, last, value in rows:
        if first <= t <= last:
            return value
    raise AssertionError(f"oracle has no stage for step {t}")


DEFAULT = dict(eta0=2e-3, ell=6)


class TestEsdValue:
    def test_peak_at_zero(self):
        spec = ScheduleSpec(total_steps=21620)
        assert esd_value(0, spec) == 2e-3

    def test_constant_phase_boundary(self):
        # (1 - r^6) * 21620 = 0.875 * 21620 = 18917.5: step 18917 is still
        # constant, step 18918 is the first decay step at eta0 / sqrt(2).
        spec = ScheduleSpec(total_steps=21620)
        assert esd_value(18917, spec) == 2e-3
        first_decay = esd_value(18918, spec)
        assert first_decay == pytest.approx(2e-3 * 2**-0.5, rel=1e-12)
        assert first_decay < 2e-3

    def test_agrees_with_oracle_everywhere(self):
        T = 21620
        spec = ScheduleSpec(total_steps=T)
        rows = oracle_stage_map(2e-3, 6, T)
        for t in range(T + 1):
            assert esd_value(t, spec) == pytest.approx(oracle_value(t, rows), rel=1e-12)

    def test_out_of_range(self):
        spec = ScheduleSpec(total_steps=100)
        with pytest.raises(ScheduleError):
            esd_value(-1, spec)
        with pytest.raises(ScheduleError):
            esd_value(101, spec)

    def test_rational_decay_ratio(self):
        # r = 1/2 exactly: constant phase ends at (1 - 2^-6) * 6400 = 6300.
        spec = ScheduleSpec(r=0.5, r_squared=Fraction(1, 4), total_steps=6400)
        assert esd_value(6300, spec) == 2e-3
        assert esd_value(6301, spec) == pytest.approx(2e-3, rel=1e-12)  # 1/(2r) = 1 holds flat


class TestStageStructure:
    def test_stages_partition_horizon(self):
        # Coverage: every step of [0, T] lands in exactly one stage.
        T = 10_000
        table = stage_table(ScheduleSpec(total_steps=T))
        assert table[0].first_step == 0
        assert table[-1].last_step == T
        for prev, cur in zip(table, table[1:]):
            assert cur.first_step == prev.last_step + 1
        covered = sum(max(0, s.last_step - s.first_step + 1) for s in table)
        assert covered == T + 1
        for t in range(T + 1):
            esd_value(t, ScheduleSpec(total_steps=T))  # never raises

    def test_stage_count_formula(self):
        # Decay stages are exactly the i >= ell+1 whose lower boundary still
        # rounds up below T (evaluated in high precision).
        T = 21620
        table = stage_table(ScheduleSpec(total_steps=T))
        r = mpmath.mpf(2) ** mpmath.mpf("-0.5")
        count = 0
        i = 7
        while int(mpmath.ceil((1 - r ** (i - 1)) * T)) < T:
            count += 1
            i += 1
        assert len(table) - 1 == count

    def test_consecutive_stage_ratio(self):
        table = stage_table(ScheduleSpec(total_steps=21620))
        for prev, cur in zip(table, table[1:]):
            assert cur.lr / prev.lr == pytest.approx(2**-0.5, rel=1e-12)

    def test_stages_nonempty_when_wider_than_one_step(self):
        # Tail stages can be shorter than one step and then hold no integer at
        # all; every stage whose real length is >= 1 must hold at least one.
        r = 2**-0.5
        for T in (10_000, 21620, 54050):
            table = stage_table(ScheduleSpec(total_steps=T))
            for stage in table:
                if stage.exponent == 0:
                    assert stage.first_step <= stage.last_step
                    continue
                i = stage.exponent + 6
                real_length = (r ** (i - 1) - r**i) * T
                if real_length >= 1:
                    assert stage.first_step <= stage.last_step, stage


class TestWarmup:
    def test_warmup_steps_rounding(self):
        assert warmup_steps(23000, 0.06) == 1380
        assert warmup_steps(57500, 0.06) == 3450
        assert warmup_steps(10, 0.06) == 1

    def test_warmup_endpoints_and_midpoint(self):
        spec = ScheduleSpec(total_steps=21620)
        assert schedule_value(0, 23000, spec) == 0.0
        assert schedule_value(690, 23000, spec) == pytest.approx(1e-3, rel=1e-15)
        assert schedule_value(1380, 23000, spec) == 2e-3

    def test_warmup_continuity(self):
        # schedule_value(W) equals esd_value(0) equals the peak.
        spec = ScheduleSpec(total_steps=21620)
        w = warmup_steps(23000, spec.warmup_proportion)
        assert schedule_value(w, 23000, spec) == esd_value(0, spec) == spec.eta0

    def test_linear_baseline_exact(self):
        spec = ScheduleSpec(kind="linear", eta0=1.0, total_steps=94)
        overall, w = 100, warmup_steps(100, 0.06)
        for k in range(overall - w + 1):
            assert schedule_value(w + k, overall, spec) == 1.0 * (1 - k / (overall - w))
        assert schedule_value(overall, overall, spec) == 0.0

    def test_interleaved_budgets_and_specs_match_uncached_lookup(self):
        # The re-based stage bounds are cached per (spec, horizon); calls that
        # alternate between budgets and between specs differing only in eta0
        # must each read their own entry.
        def reference(k, budget, spec):
            w = warmup_steps(budget, spec.warmup_proportion)
            if k < w:
                return spec.eta0 * k / w
            table = stage_table(replace(spec, total_steps=max(1, budget - w)))
            return next(s.lr for s in table if s.first_step <= k - w <= s.last_step)

        specs = (ScheduleSpec(eta0=2e-3), ScheduleSpec(eta0=1e-3))
        for k in range(2301):
            for budget in (1000, 2300):
                for spec in specs:
                    if k <= budget:
                        assert schedule_value(k, budget, spec) == reference(k, budget, spec)


class TestEmitTrace:
    def test_linear_line_count_and_shape(self, tmp_path):
        spec = ScheduleSpec(kind="linear", eta0=1.0, total_steps=9)
        path = emit_trace(spec, 10, tmp_path / "trace.tsv")
        lines = path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 11
        values = [float(l.split("\t")[1]) for l in data]
        peak = values.index(max(values))
        assert values[: peak + 1] == sorted(values[: peak + 1])
        assert values[peak:] == sorted(values[peak:], reverse=True)

    def test_default_trace_extremes(self, tmp_path):
        spec = ScheduleSpec(total_steps=21620)
        path = emit_trace(spec, 23000, tmp_path / "esd.tsv")
        values = [
            float(l.split("\t")[1])
            for l in path.read_text().splitlines()
            if not l.startswith("#")
        ]
        assert max(values) == 2e-3
        rows = oracle_stage_map(2e-3, 6, 21620)
        assert values[-1] == pytest.approx(rows[-1][2], rel=1e-12)

    @pytest.mark.parametrize("spec, overall", [
        (ScheduleSpec(total_steps=21620), 23000),
        (ScheduleSpec(kind="linear", eta0=1.0, total_steps=9), 10),
        (ScheduleSpec(r=0.9, r_squared=None, ell=3, warmup_proportion=0.0, total_steps=777), 777),
        (ScheduleSpec(total_steps=1), 0),
    ])
    def test_trace_bytes_match_joined_lines(self, tmp_path, spec, overall):
        # Reference: the whole trace built as a list of lines and joined once.
        w = warmup_steps(overall, spec.warmup_proportion)
        if spec.kind == "esd":
            table = stage_table(replace(spec, total_steps=max(1, overall - w)))
            stage_txt = " ".join(f"({s.exponent}:{s.first_step + w}-{s.last_step + w}@{s.lr!r})"
                                 for s in table if s.first_step <= s.last_step)
        else:
            stage_txt = f"(linear:{w}-{overall}@{spec.eta0!r}->0.0)"
        lines = [f"# kind={spec.kind} eta0={spec.eta0!r} warmup_steps={w} "
                 f"overall_steps={overall} stages={stage_txt}"]
        lines += [f"{k}\t{schedule_value(k, overall, spec)!r}" for k in range(overall + 1)]
        path = emit_trace(spec, overall, tmp_path / "trace.tsv")
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert list(tmp_path.iterdir()) == [path]

    def test_reemission_is_byte_identical(self, tmp_path):
        spec = ScheduleSpec(total_steps=94)
        a = emit_trace(spec, 100, tmp_path / "a.tsv").read_bytes()
        b = emit_trace(spec, 100, tmp_path / "b.tsv").read_bytes()
        assert a == b


class TestPresets:
    def test_named_presets(self):
        assert PRESETS["bert-base-benchmark"].overall_steps == 23000
        assert PRESETS["bert-base-benchmark"].eta0 == 2e-3
        assert PRESETS["bert-large-benchmark"].overall_steps == 57500
        assert PRESETS["bert-large-benchmark"].eta0 == 1e-3

    def test_preset_spec_rebased(self):
        spec, overall = preset_spec("bert-base-benchmark")
        assert overall == 23000
        assert spec.total_steps == 23000 - 1380

    def test_unknown_preset(self):
        with pytest.raises(ScheduleError, match="unknown schedule preset"):
            preset_spec("bert-huge")


class TestSpecValidation:
    def test_bad_ratio(self):
        with pytest.raises(ScheduleError):
            ScheduleSpec(r=1.5, r_squared=None, total_steps=10)

    def test_mismatched_r_squared(self):
        with pytest.raises(ScheduleError, match="r_squared"):
            ScheduleSpec(r=0.9, r_squared=Fraction(1, 2), total_steps=10)

    def test_bad_kind(self):
        with pytest.raises(ScheduleError):
            ScheduleSpec(kind="cosine", total_steps=10)

    @pytest.mark.parametrize("eta0", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
    def test_eta0_must_be_positive_and_finite(self, eta0):
        with pytest.raises(ScheduleError, match="eta0 must be positive and finite"):
            ScheduleSpec(eta0=eta0, total_steps=10)

    def test_spec_for_budget(self):
        spec = ScheduleSpec.for_budget(23000, kind="linear", eta0=1e-3)
        assert spec == ScheduleSpec(kind="linear", eta0=1e-3, total_steps=23000 - 1380)
        assert ScheduleSpec.for_budget(0).total_steps == 1
        with pytest.raises(ScheduleError, match="overall step budget -5 is negative"):
            ScheduleSpec.for_budget(-5)
        with pytest.raises(ScheduleError, match="warmup_proportion"):
            ScheduleSpec.for_budget(100, warmup_proportion=float("nan"))
