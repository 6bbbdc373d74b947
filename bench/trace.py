"""Run the bertpipe CLI with spans recorded around each layer's functions.

    PYTHONPATH=src python3 bench/trace.py SPAN_DIR run --config ... --workdir ...

Wraps the public functions of every bertpipe module from outside, at each
name where callers look them up (``bertpipe.instances.tokenize``,
``bertpipe.sharding.derive_u64``, ...), then calls ``bertpipe.cli.main``.
No library file changes. Each process writes what it recorded to
``SPAN_DIR/spans-<pid>.jsonl``: the main process when the CLI returns, pool
workers after every task they run, so worker spans are merged too.

Per span name a process keeps calls, inclusive time and self time (inclusive
time minus the time of wrapped calls made inside it). Coarse spans (stages,
shard and file level calls, trainer jobs) are also kept one by one as
``[name, start, end, id, parent_id]``; per-word and per-instance calls are
only aggregated, since keeping them one by one would dominate the run.
Generator functions are timed per ``next()``, so the work a consumer does
between items is not charged to the generator.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

import bertpipe.cli
import bertpipe.config
import bertpipe.instances
import bertpipe.pipeline
import bertpipe.rng
import bertpipe.sharding
import bertpipe.tokenization
import bertpipe.trainer


class Tracer:
    """Span stack, per-name aggregates and counters of one process."""

    def __init__(self, span_dir: Path):
        self.span_dir = span_dir
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.next_id = 0
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        """Drop what was recorded; a forked worker keeps only the open parents."""
        self.pid = os.getpid()
        self.agg: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, name: str) -> list:
        self.next_id += 1
        frame = [name, time.perf_counter(), 0.0, f"{self.pid}:{self.next_id}"]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, keep: bool) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        entry = self.agg.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if keep:
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append([name, start, end, span_id, parent])

    def flush(self) -> None:
        record = {"pid": self.pid, "agg": self.agg, "counts": self.counts, "spans": self.spans}
        with open(self.span_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.reset()


def _wrap(tracer: Tracer, fn, name: str, keep: bool, after=None, flush: bool = False):
    """Span around ``fn``; ``after(result, args)`` may record counts."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.leave(frame, keep)
                    return
                tracer.leave(frame, keep)
                if after is not None:
                    after(item, args)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name if not callable(name) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, keep)
        if after is not None:
            after(result, args)
        if flush and multiprocessing.parent_process() is not None:
            tracer.flush()
        return result
    return wrapper


def _proc_io() -> dict[str, int]:
    with open("/proc/self/io", encoding="ascii") as fh:
        return {k: int(v) for k, v in (line.split(": ") for line in fh)}


def install(tracer: Tracer) -> None:
    """Patch every traced name in place. ``(module, attr, span, keep, after)``."""
    t = tracer
    cli, cfg, inst, pipe = bertpipe.cli, bertpipe.config, bertpipe.instances, bertpipe.pipeline
    rng, shard, tok, trn = bertpipe.rng, bertpipe.sharding, bertpipe.tokenization, bertpipe.trainer

    def tokens(result, args):
        t.count("tokenization.tokens", len(result.ids))
        t.count("tokenization.unk", result.ids.count(args[1].unk_id))

    def docs(doc, _args):
        t.count("ingest.docs")
        t.count("ingest.chars", len(doc.text))

    def sharded(result, _args):
        t.count("sharding.peak_accounted_bytes", result.peak_accounted_bytes)

    def collected(result, _args):
        t.count("collect.runs", len(result.results))

    table = [
        (cli, "_run_stages", "cli.run_stages", True, None),
        (cfg, "load_config", "config.load_config", True, None),
        (pipe, "validate", "config.validate", True, None),
        (pipe, "serialize_config", "config.serialize_config", True, None),
        (cli, "run_pipeline", "pipeline.run_pipeline", True, None),
        (pipe, "check_preconditions", "pipeline.check_preconditions", True, None),
        (pipe, "resolve_dataset_id", "pipeline.resolve_dataset_id", True, None),
        (pipe, "load_meta", "pipeline.load_meta", True, None),
        (pipe, "_stage_digest", "pipeline.stage_digest", True, None),
        (pipe, "sources_from_config", "ingest.sources_from_config", True, None),
        (pipe, "enumerate_corpus_files", "ingest.enumerate_corpus_files", True, None),
        (shard, "iter_documents", "ingest.iter_documents", False, docs),
        (pipe, "derive_dataset_id", "sharding.dataset_id", True, None),
        (shard, "_finalize", "sharding.finalize", True, None),
        (shard._SpillWriter, "_spill_until", "sharding.spill", True, None),
        (rng, "derive_u64", "rng.derive_u64", False, None),
        (shard, "derive_u64", "rng.derive_u64", False, None),
        (trn, "derive_u64", "rng.derive_u64", False, None),
        (shard, "keyed_uniform", "rng.keyed_uniform", False, None),
        (trn, "keyed_uniform", "rng.keyed_uniform", False, None),
        (inst, "keyed_rng", "rng.keyed_rng", False, None),
        (pipe, "resolve_vocab", "tokenization.resolve_vocab", True, None),
        (pipe, "load_vocab", "tokenization.load_vocab", True, None),
        (inst, "tokenize", "tokenization.tokenize", False, tokens),
        (tok, "basic_tokenize", "tokenization.basic_tokenize", False, None),
        (tok, "wordpiece", "tokenization.wordpiece", False, None),
        (pipe, "generate_instances", "instances.generate_instances", True, None),
        (inst, "read_shard", "instances.read_shard", False, None),
        (inst, "iter_document_instances", "instances.iter_document_instances", False, None),
        (inst, "segment_document", "instances.segment_document", False,
         lambda windows, _a: t.count("instances.windows", len(windows))),
        (inst, "apply_masking", "instances.apply_masking", False, None),
        (inst, "write_instance_file", "instances.write_instance_file", True,
         lambda n, _a: t.count("instances.instances", n)),
        (trn, "schedule_value", "schedule.schedule_value", False, None),
        (pipe, "build_pretrain_job", "trainer.build_pretrain_job", True, None),
        (pipe, "parse_result_file", "trainer.parse_result_file", True, None),
        (pipe, "finetune_search", "search.finetune_search", True, None),
        (pipe, "schedule_waves", "search.schedule_waves", True, None),
        (pipe, "select_best", "search.select_best", True, None),
        (pipe, "summarize_val", "collect.summarize_val", True, collected),
        (pipe, "collect_best_val", "collect.collect_best_val", True, None),
        (pipe, "translate_test_result", "collect.translate_test_result", True, None),
    ]
    for stage in bertpipe.pipeline.STAGES:
        table.append((pipe, f"_stage_{stage}", f"pipeline.stage.{stage}", True, None))
    for module, attr, span, keep, after in table:
        setattr(module, attr, _wrap(t, getattr(module, attr), span, keep, after))

    # Pool worker entry points: flush after each task so worker spans reach SPAN_DIR.
    shard._spill_worker = _wrap(t, shard._spill_worker, "sharding.spill_worker", True, flush=True)
    inst._generate_for_shard = _wrap(t, inst._generate_for_shard,
                                     "instances.generate_for_shard", True, flush=True)

    # Trainer jobs are named by kind; sharding also records its /proc/self/io
    # change (reaped pool workers' I/O is folded into the parent's counters).
    trn.SimulationTrainer.run = _wrap(t, trn.SimulationTrainer.run,
                                      lambda args: f"trainer.{args[1].kind}", True)
    shard_corpus = _wrap(t, pipe.shard_corpus, "sharding.shard_corpus", True, sharded)

    @functools.wraps(shard_corpus)
    def shard_corpus_io(*args, **kwargs):
        before = _proc_io()
        result = shard_corpus(*args, **kwargs)
        after = _proc_io()
        t.count("sharding.rchar", after["rchar"] - before["rchar"])
        t.count("sharding.wchar", after["wchar"] - before["wchar"])
        return result

    pipe.shard_corpus = shard_corpus_io

    # Time the CLI process spends blocked on pool workers: not any layer's self time.
    future = concurrent.futures.Future
    future.result = _wrap(t, future.result, "pool.wait", False)


# Installed at import so that spawned workers, which re-import the main
# module as __mp_main__, are traced too; forked workers inherit the patches.
if __name__ in ("__main__", "__mp_main__"):
    TRACER = Tracer(Path(sys.argv[1]))
    install(TRACER)

if __name__ == "__main__":
    try:
        status = bertpipe.cli.main(sys.argv[2:])
    finally:
        TRACER.flush()
    raise SystemExit(status)
