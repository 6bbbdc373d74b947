from __future__ import annotations

import hashlib
from fractions import Fraction

import mpmath
import pytest

from bertpipe.schedule import (
    PRESETS,
    ScheduleError,
    ScheduleSpec,
    emit_trace,
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
# Without warmup the whole budget is the decay horizon T: step t is post-warmup step t.
NO_WARMUP = ScheduleSpec(warmup_proportion=0.0)


class TestEsdValue:
    def test_peak_at_zero(self):
        assert schedule_value(0, 21620, NO_WARMUP) == 2e-3

    def test_constant_phase_boundary(self):
        # (1 - r^6) * 21620 = 0.875 * 21620 = 18917.5: step 18917 is still
        # constant, step 18918 is the first decay step at eta0 / sqrt(2).
        assert schedule_value(18917, 21620, NO_WARMUP) == 2e-3
        first_decay = schedule_value(18918, 21620, NO_WARMUP)
        assert first_decay == pytest.approx(2e-3 * 2**-0.5, rel=1e-12)
        assert first_decay < 2e-3

    def test_agrees_with_oracle_everywhere(self):
        T = 21620
        rows = oracle_stage_map(2e-3, 6, T)
        for t in range(T + 1):
            assert schedule_value(t, T, NO_WARMUP) == pytest.approx(oracle_value(t, rows),
                                                                   rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ScheduleError):
            schedule_value(-1, 100, NO_WARMUP)
        with pytest.raises(ScheduleError):
            schedule_value(101, 100, NO_WARMUP)

    def test_rational_decay_ratio(self):
        # r = 1/2 exactly: constant phase ends at (1 - 2^-6) * 6400 = 6300.
        spec = ScheduleSpec(r=0.5, warmup_proportion=0.0)
        assert schedule_value(6300, 6400, spec) == 2e-3
        assert schedule_value(6301, 6400, spec) == pytest.approx(2e-3, rel=1e-12)  # 1/(2r) = 1


class TestStageStructure:
    def test_stages_partition_horizon(self):
        # Coverage: every step of [0, T] lands in exactly one stage.
        T = 10_000
        table = stage_table(ScheduleSpec(), T)
        assert table[0].first_step == 0
        assert table[-1].last_step == T
        for prev, cur in zip(table, table[1:]):
            assert cur.first_step == prev.last_step + 1
        covered = sum(max(0, s.last_step - s.first_step + 1) for s in table)
        assert covered == T + 1
        for t in range(T + 1):
            schedule_value(t, T, NO_WARMUP)  # never raises

    def test_stage_count_formula(self):
        # Decay stages are exactly the i >= ell+1 whose lower boundary still
        # rounds up below T (evaluated in high precision).
        T = 21620
        table = stage_table(ScheduleSpec(), T)
        r = mpmath.mpf(2) ** mpmath.mpf("-0.5")
        count = 0
        i = 7
        while int(mpmath.ceil((1 - r ** (i - 1)) * T)) < T:
            count += 1
            i += 1
        assert len(table) - 1 == count

    def test_consecutive_stage_ratio(self):
        table = stage_table(ScheduleSpec(), 21620)
        for prev, cur in zip(table, table[1:]):
            assert cur.lr / prev.lr == pytest.approx(2**-0.5, rel=1e-12)

    def test_stages_nonempty_when_wider_than_one_step(self):
        # Tail stages can be shorter than one step and then hold no integer at
        # all; every stage whose real length is >= 1 must hold at least one.
        r = 2**-0.5
        for T in (10_000, 21620, 54050):
            table = stage_table(ScheduleSpec(), T)
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
        spec = ScheduleSpec()
        assert schedule_value(0, 23000, spec) == 0.0
        assert schedule_value(690, 23000, spec) == pytest.approx(1e-3, rel=1e-15)
        assert schedule_value(1380, 23000, spec) == 2e-3

    def test_warmup_continuity(self):
        # schedule_value(W) equals post-warmup step 0 equals the peak.
        spec = ScheduleSpec()
        w = warmup_steps(23000, spec.warmup_proportion)
        assert schedule_value(w, 23000, spec) == schedule_value(0, 21620, NO_WARMUP) == spec.eta0

    def test_linear_baseline_exact(self):
        spec = ScheduleSpec(kind="linear", eta0=1.0)
        overall, w = 100, warmup_steps(100, 0.06)
        for k in range(overall - w + 1):
            assert schedule_value(w + k, overall, spec) == 1.0 * (1 - k / (overall - w))
        assert schedule_value(overall, overall, spec) == 0.0

    def test_interleaved_budgets_and_specs_match_uncached_lookup(self):
        # The stage table is cached per (spec, horizon); calls that
        # alternate between budgets and between specs differing only in eta0
        # must each read their own entry.
        def reference(k, budget, spec):
            w = warmup_steps(budget, spec.warmup_proportion)
            if k < w:
                return spec.eta0 * k / w
            table = stage_table(spec, max(1, budget - w))
            return next(s.lr for s in table if s.first_step <= k - w <= s.last_step)

        specs = (ScheduleSpec(eta0=2e-3), ScheduleSpec(eta0=1e-3))
        for k in range(2301):
            for budget in (1000, 2300):
                for spec in specs:
                    if k <= budget:
                        assert schedule_value(k, budget, spec) == reference(k, budget, spec)


class TestEmitTrace:
    def test_linear_line_count_and_shape(self, tmp_path):
        spec = ScheduleSpec(kind="linear", eta0=1.0)
        path = emit_trace(spec, 10, tmp_path / "trace.tsv")
        lines = path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 11
        values = [float(l.split("\t")[1]) for l in data]
        peak = values.index(max(values))
        assert values[: peak + 1] == sorted(values[: peak + 1])
        assert values[peak:] == sorted(values[peak:], reverse=True)

    def test_default_trace_extremes(self, tmp_path):
        spec = ScheduleSpec()
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
        (ScheduleSpec(), 23000),
        (ScheduleSpec(kind="linear", eta0=1.0), 10),
        (ScheduleSpec(r=0.9, ell=3, warmup_proportion=0.0), 777),
        (ScheduleSpec(), 0),
    ])
    def test_trace_bytes_match_joined_lines(self, tmp_path, spec, overall):
        # Reference: the whole trace built as a list of lines and joined once.
        w = warmup_steps(overall, spec.warmup_proportion)
        if spec.kind == "esd":
            table = stage_table(spec, max(1, overall - w))
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

    def test_negative_budget_writes_nothing(self, tmp_path):
        with pytest.raises(ScheduleError, match="overall step budget -5 is negative"):
            emit_trace(ScheduleSpec(), -5, tmp_path / "trace.tsv")
        assert list(tmp_path.iterdir()) == []

    # A change to how the schedule is computed must not move any traced value.
    @pytest.mark.parametrize("fields, overall, sha256", [
        ({}, 23000, "382b2db51287bd39a823b123e2225e4c1542bfb2ebca098c152c0570a4825ccf"),
        ({"kind": "linear", "eta0": 1.0}, 100,
         "268547ff78d3eb447a8d1d18776136bad41c40004dcbbd8ee88b5b7cf298d399"),
        ({"r": 0.5}, 6400, "dbf351b75ab3dd2326d7cb96758f6c1922edc81977031ed46687f60c7f3d264d"),
        ({"r": 0.9, "ell": 3, "warmup_proportion": 0.0}, 777,
         "d40b91f33ebd77b8dc3737a524bbfcc0a04b695106b15c249be4d272c83ca7e0"),
        ({}, 0, "a67aca22fc79a96b8403703f1ff2b7381784a80eacd66951df6fca8b8fa03ce8"),
        ({}, 1, "af32233b1f70f044d28c2932615962d6a62595187b5d5f5b84cca913902b05ac"),
        ("bert-base-benchmark", None,
         "382b2db51287bd39a823b123e2225e4c1542bfb2ebca098c152c0570a4825ccf"),
        ("bert-large-benchmark", None,
         "29f23e4c22a413a6be0535bd92e6b71368aafb46ed78eff996bcde42746ac199"),
    ])
    def test_trace_bytes_are_pinned(self, tmp_path, fields, overall, sha256):
        if isinstance(fields, str):
            spec, overall = preset_spec(fields)
        else:
            spec = ScheduleSpec(**fields)
        path = emit_trace(spec, overall, tmp_path / "trace.tsv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_reemission_is_byte_identical(self, tmp_path):
        spec = ScheduleSpec()
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
        assert spec == ScheduleSpec(eta0=2e-3)

    def test_unknown_preset(self):
        with pytest.raises(ScheduleError, match="unknown schedule preset"):
            preset_spec("bert-huge")


class TestSpecValidation:
    def test_bad_ratio(self):
        with pytest.raises(ScheduleError):
            ScheduleSpec(r=1.5)

    def test_r_squared_is_exact(self):
        assert ScheduleSpec().r_squared == Fraction(1, 2)
        assert ScheduleSpec(r=0.5).r_squared == Fraction(1, 4)
        assert ScheduleSpec(r=0.9).r_squared == Fraction(0.9) ** 2
        # The default ratio written out as a float is the default.
        assert ScheduleSpec(r=0.7071067811865476) == ScheduleSpec()

    def test_horizon_must_be_positive(self):
        with pytest.raises(ScheduleError, match="horizon 0 must be positive"):
            stage_table(ScheduleSpec(), 0)

    def test_bad_kind(self):
        with pytest.raises(ScheduleError):
            ScheduleSpec(kind="cosine")

    @pytest.mark.parametrize("eta0", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
    def test_eta0_must_be_positive_and_finite(self, eta0):
        with pytest.raises(ScheduleError, match="eta0 must be positive and finite"):
            ScheduleSpec(eta0=eta0)
