"""bertpipe benchmark: seeded corpora through the real CLI, timed from outside.

Run from the root of a source checkout (stdlib only; bertpipe is imported
from ``src/`` by the child processes, never by this one):

    python3 bench/run.py --workload ascii-dup10-fullgrid --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 1

One run builds its workload's corpus from ``--seed`` in a separate process,
makes one untimed warm-up, then repeats cycles of a ``setup`` run (every stage
disabled), a cold ``bertpipe run`` on a fresh workspace and two immediate
reruns, until ``--seconds`` would be exceeded. Every run's outputs are checked
(exit status, stage statuses, ``bench/check.py`` on each cold workspace, one
dataset id per workload). With ``--trace 1`` it instead pairs untraced and
traced cold runs (``bench/trace.py``) and reports per-layer metrics. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 165.0  # the whole run, set-up included, ends well within 180 s
STAGE_COUNT = 5


@dataclass(frozen=True)
class Workload:
    kind: str  # bench/gen.py --kind: "ascii" or "unicode"
    mib: float  # article text before fixed-width padding
    fixed_width: bool
    memory_gb: float
    num_steps: int
    tasks: str
    cli_args: tuple[str, ...]


ALL_TASKS = "CoLA,SST-2,MRPC,STS-B,QQP,MNLI,QNLI,RTE,WNLI"

# Why these two, and why each is built this way: see README.md.
WORKLOADS: dict[str, Workload] = {
    "ascii-dup10-fullgrid": Workload(
        "ascii", 1.0, False, 1, 57500, ALL_TASKS, ("--n-workers", "1", "--dup-factor", "10")),
    "unicode-spill-2workers": Workload(
        "unicode", 9.5, True, 0.03125, 2000, "MNLI,RTE",
        ("--n-workers", "2", "--dup-factor", "1", "--num-train-shards", "2")),
}

END_TO_END = {
    "run_s": "s", "rerun_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "disk_bytes_per_instance": "B", "workspace_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here (not a bertpipe checkout, bad arguments)."""


@dataclass
class Launch:
    wall_s: float
    ok: bool
    peak_rss_mib: float
    log: Path


class Bench:
    """One workload at one seed: corpus, configs and every child process."""

    def __init__(self, root: Path, name: str, seed: int, work: Path, started: float):
        self.root, self.name, self.seed, self.work = root, name, seed, work
        self.wl = WORKLOADS[name]
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.dataset_ids: set[str] = set()
        self.props: dict | None = None
        self.n_launch = 0

    # -- processes ---------------------------------------------------------
    def launch(self, argv: list[str], counted: bool = True) -> Launch:
        """Run one child to completion; wall time and ru_maxrss via wait4.

        ru_maxrss from wait4 is the largest resident high-water mark of the
        child or of any descendant it reaped (pool workers), not their sum.
        """
        self.n_launch += 1
        log = self.work / f"launch-{self.n_launch}.log"
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1:
            raise BenchError(f"{self.name}: out of time before launching {argv[2:4]}")
        timed_out = threading.Event()
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT,
                                    start_new_session=True)

            def kill() -> None:
                timed_out.set()
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(remaining, kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        ok = proc.returncode == 0 and not timed_out.is_set()
        if counted:
            self.attempted += 1
        if not ok:
            self.fail(f"{' '.join(argv[:4])} exited {proc.returncode}"
                      f"{' (timed out)' if timed_out.is_set() else ''}: "
                      f"{log.read_text(errors='replace')[-400:]}", counted)
        return Launch(wall, ok, usage.ru_maxrss / 1024, log)

    def fail(self, message: str, counted: bool = True) -> None:
        if counted:
            self.failed += 1
        self.errors.append(message)
        print(f"FAIL {self.name}: {message}", file=sys.stderr)

    # -- inputs ------------------------------------------------------------
    def generate(self, stats: bool) -> None:
        corpus, props = self.work / "corpus", self.work / "props.json"
        run = self.launch([str(BENCH_DIR / "gen.py"), "--kind", self.wl.kind,
                           "--mib", str(self.wl.mib), "--seed", str(self.seed),
                           "--out", str(corpus), "--props", str(props)]
                          + (["--fixed-width"] if self.wl.fixed_width else [])
                          + (["--stats"] if stats else []), counted=False)
        if not run.ok:
            raise BenchError(f"corpus generation failed: {run.log.read_text()[-400:]}")
        self.props = json.loads(props.read_text())
        (self.work / "run.yaml").write_text(self._config(corpus, ()))
        (self.work / "setup.yaml").write_text(self._config(
            corpus, ("DATASET", "PRETRAIN", "FINETUNE", "RESULT_COLLECTION")))

    def _config(self, corpus: Path, disabled: tuple[str, ...]) -> str:
        def section(name: str, body: str) -> str:
            flag = "  ENABLED: False\n" if name in disabled else ""
            return f"{name}:\n{flag}{body}"
        return "".join([
            f"SYSTEM:\n  NUM_GPUS: 1\n  MAX_MEMORY_IN_GB: {self.wl.memory_gb}\n",
            section("DATASET", f"  CUSTOMIZED_DATASETS:\n    - {corpus}\n"),
            section("PRETRAIN", f"  NUM_STEPS: {self.wl.num_steps}\n"),
            section("FINETUNE", ""),
            section("RESULT_COLLECTION", ""),
            "TOKENIZER:\n  NAME_OR_PATH: mini-uncased\n",
        ])

    # -- runs --------------------------------------------------------------
    def cli_argv(self, config: str, ws: Path, tracer: Path | None = None) -> list[str]:
        entry = [str(BENCH_DIR / "trace.py"), str(tracer)] if tracer else ["-m", "bertpipe.cli"]
        return [*entry, "run", "--config", str(self.work / config), "--workdir", str(ws),
                "--tasks", self.wl.tasks, *self.wl.cli_args]

    def setup_run(self, counted: bool = True) -> Launch:
        ws = self.work / "ws-setup"
        run = self.launch(self.cli_argv("setup.yaml", ws), counted)
        if run.ok:
            self.expect_statuses(ws, ["completed"] + ["skipped_disabled"] * 4, run)
        shutil.rmtree(ws, ignore_errors=True)
        return run

    def cold_run(self, ws: Path, tracer: Path | None = None) -> tuple[Launch, dict]:
        """Cold run on a fresh workspace; returns its launch and output sizes."""
        run = self.launch(self.cli_argv("run.yaml", ws, tracer))
        sizes: dict = {}
        if run.ok:
            report = self.expect_statuses(ws, ["completed"] * STAGE_COUNT, run)
            if report is not None:
                self.dataset_ids.add(report["dataset_id"])
                dataset = next(s for s in report["stages"] if s["name"] == "dataset")
                sizes = {
                    "instances": int(dataset["artifacts"]["instances"]),
                    "processed_bytes": _tree_bytes(ws / "data" / "processed"),
                    "workspace_bytes": _tree_bytes(ws),
                }
        return run, sizes

    def rerun(self, ws: Path, tracer: Path | None = None) -> Launch:
        run = self.launch(self.cli_argv("run.yaml", ws, tracer))
        if run.ok:
            self.expect_statuses(ws, ["skipped_done"] * STAGE_COUNT, run)
        return run

    def expect_statuses(self, ws: Path, expected: list[str], run: Launch) -> dict | None:
        try:
            report = json.loads((ws / "log" / "pipeline" / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return self._reject(run, f"no readable report.json: {exc}")
        got = [s["status"] for s in report["stages"]]
        if got != expected:
            return self._reject(run, f"stage statuses {got}, expected {expected}")
        return report

    def check_outputs(self, ws: Path, run: Launch) -> None:
        """Untimed full output check of a cold workspace (bench/check.py)."""
        check = self.launch([str(BENCH_DIR / "check.py"), str(ws), "--tasks", self.wl.tasks,
                             "--articles", str(self.props["articles"])], counted=False)
        if not check.ok:
            self._reject(run, "output check crashed")
            return
        errors = json.loads(check.log.read_text().splitlines()[-1])["errors"]
        if errors:
            self._reject(run, "; ".join(errors))

    def _reject(self, run: Launch, message: str) -> None:
        if run.ok:
            run.ok = False
            self.fail(message)

    def finish(self) -> tuple[bool, list[str]]:
        if len(self.dataset_ids) > 1:
            self.errors.append(f"dataset id differs between runs: {sorted(self.dataset_ids)}")
        return not self.errors and self.attempted > 0, self.errors


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _summary(values: list[float]) -> tuple[float, float, int]:
    """Median, highest value (the top percentile this many samples support), count."""
    if not values:
        return 0.0, 0.0, 0
    return statistics.median(values), max(values), len(values)


# -- end-to-end mode -------------------------------------------------------------
def measure(bench: Bench, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    bench.setup_run(counted=False)  # warm-up: fills the bytecode cache, untimed
    begin = time.monotonic()
    cycle_s: list[float] = []
    while not cycle_s or (time.monotonic() - begin) + statistics.mean(cycle_s) <= seconds:
        cycle_start = time.monotonic()
        # setup_s only needs a steady median, so it is sampled every other cycle;
        # the short reruns are sampled twice per cycle.
        if len(cycle_s) % 2 == 0:
            setup = bench.setup_run()
            if setup.ok:
                samples["setup_s"].append(setup.wall_s)
        ws = bench.work / f"ws-{len(cycle_s)}"
        cold, sizes = bench.cold_run(ws)
        if cold.ok:
            for rerun in (bench.rerun(ws), bench.rerun(ws)):
                if rerun.ok:
                    samples["rerun_s"].append(rerun.wall_s)
            bench.check_outputs(ws, cold)
        if cold.ok:
            samples["run_s"].append(cold.wall_s)
            samples["peak_rss_mib"].append(cold.peak_rss_mib)
            samples["disk_bytes_per_instance"].append(
                sizes["processed_bytes"] / max(1, sizes["instances"]))
            samples["workspace_mib"].append(sizes["workspace_bytes"] / 2**20)
        shutil.rmtree(ws, ignore_errors=True)
        cycle_s.append(time.monotonic() - cycle_start)
        if bench.failed:
            break
    return samples


# -- traced mode -----------------------------------------------------------------
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bertpipe.cli; "
                "print(time.perf_counter() - t)")
LAYERS = ("cli", "config", "pipeline", "ingest", "sharding", "tokenization", "instances",
          "rng", "schedule", "trainer", "search", "collect")


def load_spans(span_dir: Path) -> tuple[dict, dict, list, int]:
    """Merge every process's records: (agg name -> [calls, incl, self], counts, spans, pids)."""
    agg: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    spans: list = []
    pids = set()
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            pids.add(record["pid"])
            for name, values in record["agg"].items():
                entry = agg.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    entry[k] += values[k]
            for key, n in record["counts"].items():
                counts[key] = counts.get(key, 0) + n
            spans.extend(record["spans"])
    return agg, counts, spans, len(pids)


def layer_metrics(cold_dir: Path, rerun_dir: Path, props: dict, sizes: dict) -> dict[str, float]:
    agg, counts, spans, processes = load_spans(cold_dir)
    noop_agg = load_spans(rerun_dir)[0]

    def calls(name, table=agg): return table.get(name, [0, 0.0, 0.0])[0]
    def incl(name, table=agg): return table.get(name, [0, 0.0, 0.0])[1]
    def self_s(name): return agg.get(name, [0, 0.0, 0.0])[2]
    def per(a, b): return a / b if b else 0.0

    def pipeline_self(table):
        stages = sum(v[1] for k, v in table.items() if k.startswith("pipeline.stage."))
        return incl("pipeline.run_pipeline", table) - stages

    finetune_ms = [(end - start) * 1e3 for name, start, end, *_ in spans
                   if name == "trainer.finetune"]
    ingest_s = sum(v[1] for k, v in agg.items() if k.startswith("ingest."))
    tokens = counts.get("tokenization.tokens", 0)
    generate_s = incl("instances.generate_instances")
    metrics = {
        "config.load_s": incl("config.load_config"),
        "ingest.s": ingest_s,
        "ingest.docs": counts.get("ingest.docs", 0),
        "ingest.mib_per_s": per(props["bytes"] / 2**20, ingest_s),
        "sharding.s": incl("sharding.shard_corpus"),
        "sharding.peak_accounted_mib": counts.get("sharding.peak_accounted_bytes", 0) / 2**20,
        "sharding.rchar_mib": counts.get("sharding.rchar", 0) / 2**20,
        "sharding.wchar_mib": counts.get("sharding.wchar", 0) / 2**20,
        "sharding.spill_events": calls("sharding.spill"),
        "tokenization.basic_tokenize_s": self_s("tokenization.basic_tokenize"),
        "tokenization.wordpiece_s": self_s("tokenization.wordpiece"),
        "tokenization.tokenize_self_s": self_s("tokenization.tokenize"),
        "tokenization.words": calls("tokenization.wordpiece"),
        "tokenization.tokens": tokens,
        "tokenization.tokens_per_s": per(tokens, incl("tokenization.tokenize")),
        "tokenization.unk_rate": per(counts.get("tokenization.unk", 0), tokens),
        "tokenization.distinct_word_share": props["distinct_word_share"],
        "tokenization.non_ascii_doc_share": props["non_ascii_doc_share"],
        "instances.generate_s": generate_s,
        "instances.apply_masking_s": self_s("instances.apply_masking"),
        "instances.instances": counts.get("instances.instances", 0),
        "instances.instances_per_s": per(counts.get("instances.instances", 0), generate_s),
        "instances.windows": counts.get("instances.windows", 0),
        "instances.read_shard_s": incl("instances.read_shard"),
        "instances.write_self_s": self_s("instances.write_instance_file"),
        "instances.out_mib": sizes.get("processed_bytes", 0) / 2**20,
        "rng.keyed_rng_calls": calls("rng.keyed_rng"),
        "rng.keyed_rng_s": incl("rng.keyed_rng"),
        "rng.derive_u64_calls": calls("rng.derive_u64"),
        "rng.derive_u64_s": incl("rng.derive_u64"),
        "schedule.calls": calls("schedule.schedule_value"),
        "schedule.s": incl("schedule.schedule_value"),
        "trainer.pretrain_s": incl("trainer.pretrain"),
        "trainer.finetune_jobs": calls("trainer.finetune"),
        "trainer.finetune_s": incl("trainer.finetune"),
        "trainer.finetune_job_p50_ms": statistics.median(finetune_ms) if finetune_ms else 0.0,
        "search.s": sum(v[1] for k, v in agg.items() if k.startswith("search.")),
        "collect.s": sum(v[1] for k, v in agg.items() if k.startswith("collect.")),
        "collect.runs": counts.get("collect.runs", 0),
        "pipeline.self_s": pipeline_self(agg),
        "pipeline.noop_self_s": pipeline_self(noop_agg),
        "pipeline.meta_loads": calls("pipeline.load_meta"),
        "pool.wait_s": incl("pool.wait"),
        "trace.processes": processes,
        "input.mib": props["bytes"] / 2**20,
        "input.articles": props["articles"],
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = sum(v[2] for k, v in agg.items()
                                         if k.startswith(layer + "."))
    return metrics


PER_LAYER_UNITS = {
    "cli.import_s": "s", "config.load_s": "s", "ingest.s": "s", "ingest.docs": "count",
    "ingest.mib_per_s": "MiB/s", "sharding.s": "s", "sharding.peak_accounted_mib": "MiB",
    "sharding.rchar_mib": "MiB", "sharding.wchar_mib": "MiB", "sharding.spill_events": "count",
    "tokenization.basic_tokenize_s": "s", "tokenization.wordpiece_s": "s",
    "tokenization.tokenize_self_s": "s", "tokenization.words": "count",
    "tokenization.tokens": "count", "tokenization.tokens_per_s": "1/s",
    "tokenization.unk_rate": "ratio", "tokenization.distinct_word_share": "ratio",
    "tokenization.non_ascii_doc_share": "ratio", "instances.generate_s": "s",
    "instances.apply_masking_s": "s", "instances.instances": "count",
    "instances.instances_per_s": "1/s", "instances.windows": "count",
    "instances.read_shard_s": "s", "instances.write_self_s": "s", "instances.out_mib": "MiB",
    "rng.keyed_rng_calls": "count", "rng.keyed_rng_s": "s", "rng.derive_u64_calls": "count",
    "rng.derive_u64_s": "s", "schedule.calls": "count", "schedule.s": "s",
    "trainer.pretrain_s": "s", "trainer.finetune_jobs": "count", "trainer.finetune_s": "s",
    "trainer.finetune_job_p50_ms": "ms", "search.s": "s", "collect.s": "s",
    "collect.runs": "count", "pipeline.self_s": "s", "pipeline.noop_self_s": "s",
    "pipeline.meta_loads": "count", "pool.wait_s": "s", "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    "trace.traced_run_s": "s", "trace.untraced_run_s": "s", "trace.processes": "count",
    "input.mib": "MiB", "input.articles": "count",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
}


def measure_traced(bench: Bench, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {k: [] for k in PER_LAYER_UNITS}
    bench.setup_run(counted=False)  # warm-up, untimed
    for _ in range(3):
        probe = bench.launch(["-c", IMPORT_PROBE], counted=False)
        if probe.ok:
            samples["cli.import_s"].append(float(probe.log.read_text().split()[-1]))
    begin = time.monotonic()
    pair_s: list[float] = []
    while not pair_s or (time.monotonic() - begin) + statistics.mean(pair_s) <= seconds:
        pair_start = time.monotonic()
        k = len(pair_s)
        plain_ws, traced_ws = bench.work / f"ws-{k}", bench.work / f"ws-{k}-traced"
        cold_dir, rerun_dir = bench.work / f"spans-{k}-cold", bench.work / f"spans-{k}-rerun"
        cold_dir.mkdir()
        rerun_dir.mkdir()
        plain, _ = bench.cold_run(plain_ws)
        if plain.ok:
            bench.check_outputs(plain_ws, plain)
        shutil.rmtree(plain_ws, ignore_errors=True)
        traced, sizes = bench.cold_run(traced_ws, tracer=cold_dir)
        if traced.ok:
            bench.rerun(traced_ws, tracer=rerun_dir)
            bench.check_outputs(traced_ws, traced)
        if plain.ok and traced.ok:
            for key, value in layer_metrics(cold_dir, rerun_dir, bench.props, sizes).items():
                samples[key].append(value)
            samples["trace.traced_run_s"].append(traced.wall_s)
            samples["trace.untraced_run_s"].append(plain.wall_s)
            samples["trace.overhead_s"].append(traced.wall_s - plain.wall_s)
            samples["trace.overhead_share"].append(traced.wall_s / plain.wall_s - 1)
        shutil.rmtree(traced_ws, ignore_errors=True)
        pair_s.append(time.monotonic() - pair_start)
        if bench.failed:
            break
    return samples


# -- driver ----------------------------------------------------------------------
def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    work = root / ".bench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, name, seed, work, started)
    try:
        bench.generate(stats=trace)
        samples = measure_traced(bench, seconds) if trace else measure(bench, seconds)
    except BenchError as exc:
        bench.fail(str(exc))
        samples = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it
    correct, errors = bench.finish()
    units = PER_LAYER_UNITS if trace else END_TO_END
    props = bench.props or {"bytes": 0, "articles": 0}
    print(f"== {name} seed={seed} trace={int(trace)} "
          f"input: {props['bytes'] / 2**20:.2f} MiB, {props['articles']} articles")
    for key in sorted(units) if trace else units:
        median, top, n = _summary(samples.get(key, []))
        print(f"{key:40s} {median:14.6g} {units[key]:6s} (max {top:.6g}, n={n})")
    if not trace:
        print(f"{'failed_share':40s} {bench.failed / max(1, bench.attempted):14.6g} ratio "
              f"({bench.failed} of {bench.attempted} runs)")
    if trace:
        print(f"tracing: spans merged from {max(samples.get('trace.processes', [0]))} "
              "process(es): the CLI process and its pool workers, if any")
    print(f"dataset id: {', '.join(sorted(bench.dataset_ids)) or '-'}")
    for error in errors:
        print(f"error: {error}")
    return {
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {key: {"value": _summary(samples.get(key, []))[0], "unit": unit}
                    for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bertpipe benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bertpipe" / "cli.py").is_file():
        print(f"error: {root} is not a bertpipe source checkout (no src/bertpipe)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
