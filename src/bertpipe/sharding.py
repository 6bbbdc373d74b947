"""Shuffle the document stream into train/test shards under a RAM budget.

Large corpora do not fit in memory, so sharding is an external sort with
sorted runs and a k-way merge (Knuth, TAOCP vol. 3, §5.4.1), in two phases
that share one process pool (or run in this process with one worker):

* Spill: workers own disjoint subsets of the corpus files and share the
  budget equally. Each buffers documents per destination shard, computing a
  document's order key once, on arrival. A destination holds its UTF-8
  texts back to back in 1 MiB anonymous memory maps and, per document, its
  order key, doc_id, map index and end offset in four ``array`` columns:
  28 bytes beside the text, inside the 64 the budget counts. Maps take no
  memory from the allocator's heap, so a buffer grows without copying and a
  spilled one returns its pages at once: a worker's resident memory grows
  with its accounted bytes, not by a share on top of them. Once the
  byte-accounting counter would cross 80% of the worker's share, the
  largest buffers are spilled: each is sorted by (order key, doc_id) and
  written to a file of its own as one sorted run. The remaining 20% is
  headroom for a spill's sort index and the partly written last page of
  each full map: a buffer's first page is counted (see the budget rule).
* Merge: one task per destination shard streams ``heapq.merge`` over that
  shard's runs, from every worker, into the shard file. The file is written
  through ``atomic.replace_when_done``, header first (the record count is
  the sum of the run counts), and hashed with sha256 in the same pass. No
  process ever holds a whole shard.

All randomized decisions are keyed functions of (seed, doc_id):

* split:        test iff U(seed, doc_id) < frac_test
* shard index:  U64(seed, doc_id, "shard") mod shard count of the split
* final order:  ascending U64(seed, doc_id, "order"), doc_id as tie-break

so any worker partitioning or interleaving of the stream yields bit-identical
shard files.

Budget rule: a record is accounted as its UTF-8 text bytes plus a fixed
64-byte overhead, and a destination's buffer as one 4096-byte page, the
least its first map write makes resident, until the buffer is spilled. The
spill workers run concurrently, so the spill phase's accounted peak is the
sum of the workers' peaks. A merge holds one record per run, at most the
run's largest, and up to one merge per worker runs at a time, so the merge
phase's accounted peak is the sum of the largest such per-shard bounds, one
per worker; it is known before any merge starts. The reported peak is the
larger of the two phases; if it exceeds the budget, sharding fails with a
ShardError that names both, before any shard file is written.

Shard file format v2 (bit-exact for determinism tests), all little-endian:
16-byte header of magic "XBSHARD1", format version u16, record count u32, 2
padding bytes; then per record doc_id u64, byte length u32 and that many
UTF-8 bytes.
"""

from __future__ import annotations

import hashlib
import heapq
import mmap
import os
import struct
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

from .atomic import replace_when_done
from .ingest import CorpusFile, DocumentRecord, iter_documents
from .records import MIN_MEMORY_BYTES, SHARD_FORMAT_VERSION, TEST, TRAIN, ShardError, ShardPlan
from .rng import derive_u64, keyed_uniform

SHARD_MAGIC = b"XBSHARD1"
_HEADER = struct.Struct("<8sHI2x")
_RECORD = struct.Struct("<QI")  # doc_id, byte length
_RUN_RECORD = struct.Struct("<QQI")  # order key, doc_id, byte length

RECORD_OVERHEAD_BYTES = 64
BUFFER_PAGE_BYTES = 4096
_CHUNK_BYTES = 1 << 20
SPILL_THRESHOLD = 0.8

MANIFEST_NAME = "MANIFEST.tsv"


@dataclass(frozen=True)
class Shard:
    """One finalized shard file."""

    split: str
    index: int
    path: Path
    num_records: int
    checksum: str


@dataclass(frozen=True)
class ShardingResult:
    shards: tuple[Shard, ...]
    num_documents: int
    peak_accounted_bytes: int
    manifest_path: Path
    spill_runs: int  # sorted runs the spill phase wrote, over all workers


@dataclass(frozen=True)
class Run:
    """One sorted spill file: its record count and its largest record's accounted bytes."""

    path: str
    count: int
    largest: int


def assign_split(doc: DocumentRecord | int, plan: ShardPlan) -> str:
    """Deterministic train/test label for a document: Bernoulli(frac_test)."""
    doc_id = doc if isinstance(doc, int) else doc.doc_id
    return TEST if keyed_uniform(plan.seed, doc_id) < plan.frac_test else TRAIN


def assign_shard_index(doc_id: int, split: str, plan: ShardPlan) -> int:
    return derive_u64(plan.seed, doc_id, "shard") % plan.shards_for(split)


def _order_key(doc_id: int, seed: int) -> int:
    return derive_u64(seed, doc_id, "order")


def record_cost(encoded_text: bytes) -> int:
    return len(encoded_text) + RECORD_OVERHEAD_BYTES


def shard_rel_path(split: str, index: int) -> str:
    return f"{split}/shard-{index:05d}.xbs"


class _SpillWriter:
    """Per-destination buffers with budget accounting; each spill writes one sorted run."""

    def __init__(self, plan: ShardPlan, spill_dir: Path, budget_bytes: int):
        self.plan = plan
        self.spill_dir = spill_dir
        self.budget = budget_bytes
        self.threshold = int(budget_bytes * SPILL_THRESHOLD)
        self.buffers: dict[tuple[str, int], _Buffer] = {}
        self.sizes: dict[tuple[str, int], int] = {}
        self.runs: dict[tuple[str, int], list[Run]] = {}
        self.total = 0
        self.peak = 0
        self.num_documents = 0
        spill_dir.mkdir(parents=True, exist_ok=True)

    def add(self, doc: DocumentRecord) -> None:
        data = doc.text.encode("utf-8")
        split = assign_split(doc.doc_id, self.plan)
        dest = (split, assign_shard_index(doc.doc_id, split, self.plan))
        cost = record_cost(data) + (0 if dest in self.buffers else BUFFER_PAGE_BYTES)
        if cost > self.budget:
            raise ShardError(
                f"document {doc.doc_id} ({cost} accounted bytes) exceeds the "
                f"memory budget of {self.budget} bytes"
            )
        if self.total + cost > self.threshold:
            self._spill_until(self.threshold - cost)
        buffer = self.buffers.get(dest)
        if buffer is None:  # new, or spilled just now to make room: its page is charged
            buffer = self.buffers[dest] = _Buffer()
            cost = record_cost(data) + BUFFER_PAGE_BYTES
        buffer.add(_order_key(doc.doc_id, self.plan.seed), doc.doc_id, data)
        self.sizes[dest] = self.sizes.get(dest, 0) + cost
        self.total += cost
        self.peak = max(self.peak, self.total)
        self.num_documents += 1

    def _spill_dest(self, dest: tuple[str, int]) -> None:
        buffer = self.buffers.pop(dest)
        runs = self.runs.setdefault(dest, [])
        path = self.spill_dir / f"{dest[0]}-{dest[1]:05d}-{len(runs):06d}.run"
        try:
            with open(path, "wb") as fh:
                largest = buffer.write_sorted(fh)
        except OSError as exc:
            raise ShardError(
                f"spill write failed for {dest} (needed {self.sizes[dest]} bytes): {exc}"
            ) from exc
        runs.append(Run(str(path), len(buffer.keys), largest + RECORD_OVERHEAD_BYTES))
        self.total -= self.sizes.pop(dest)

    def _spill_until(self, target_total: int) -> None:
        while self.total > max(target_total, 0) and self.buffers:
            dest = max(self.sizes, key=lambda d: self.sizes[d])
            self._spill_dest(dest)

    def flush_all(self) -> None:
        for dest in list(self.buffers):
            self._spill_dest(dest)


class _Buffer:
    """One destination's unsorted records: texts in mapped chunks, the rest in columns.

    Texts are copied back to back into 1 MiB anonymous memory maps (a text
    longer than that gets a map of its own size), and no text spans two
    maps. Mapped memory does not come from the allocator's heap: a buffer
    grows without reallocating or copying, only the pages written are
    resident, and closing the maps returns them at once.
    """

    __slots__ = ("chunks", "keys", "doc_ids", "chunk_of", "ends")

    def __init__(self):
        self.chunks: list[mmap.mmap] = []
        self.keys = array("Q")
        self.doc_ids = array("Q")
        self.chunk_of = array("I")
        self.ends = array("Q")  # end offset of each text in its chunk

    def add(self, key: int, doc_id: int, data: bytes) -> None:
        start = self.ends[-1] if self.ends else 0  # the last text is in the last chunk
        if not self.chunks or start + len(data) > len(self.chunks[-1]):
            self.chunks.append(mmap.mmap(-1, max(_CHUNK_BYTES, len(data))))
            start = 0
        self.chunks[-1][start : start + len(data)] = data
        self.keys.append(key)
        self.doc_ids.append(doc_id)
        self.chunk_of.append(len(self.chunks) - 1)
        self.ends.append(start + len(data))

    def write_sorted(self, fh) -> int:
        """Write the records as run records by (order key, doc_id), then unmap the texts.

        Returns the longest text's length.
        """
        keys, doc_ids, chunk_of, ends = self.keys, self.doc_ids, self.chunk_of, self.ends
        # (order key, doc_id) is unique, so the order never depends on arrival.
        order = sorted(range(len(keys)), key=lambda i: (keys[i], doc_ids[i]))
        largest = 0
        try:
            for i in order:
                # A text starts where the one before it ends, if that is in the same chunk.
                start = ends[i - 1] if i and chunk_of[i - 1] == chunk_of[i] else 0
                fh.write(_RUN_RECORD.pack(keys[i], doc_ids[i], ends[i] - start))
                fh.write(self.chunks[chunk_of[i]][start : ends[i]])
                largest = max(largest, ends[i] - start)
        finally:
            for chunk in self.chunks:
                chunk.close()
        return largest


def _spill_worker(files: list[CorpusFile], plan: ShardPlan, spill_dir: str,
                  budget_bytes: int) -> tuple[int, int, dict[tuple[str, int], list[Run]]]:
    """Spill a file subset into sorted runs; returns (accounted peak, documents, runs)."""
    writer = _SpillWriter(plan, Path(spill_dir), budget_bytes)
    for doc in iter_documents(files):
        writer.add(doc)
    writer.flush_all()
    return writer.peak, writer.num_documents, writer.runs


def _iter_run(path: str) -> Iterator[tuple[int, int, bytes]]:
    with open(path, "rb") as fh:
        while head := fh.read(_RUN_RECORD.size):
            key, doc_id, length = _RUN_RECORD.unpack(head)
            data = fh.read(length)
            if len(data) != length:
                raise ShardError(f"truncated run file {path}")
            yield key, doc_id, data


def _merge_shard(runs: list[Run], path: str) -> tuple[int, str]:
    """Merge one shard's sorted runs into its file; returns (record count, sha256 hex).

    The file appears at ``path`` only once every record is written; the
    runs are deleted after that.
    """
    count = sum(run.count for run in runs)
    hasher = hashlib.sha256()
    written = 0
    with replace_when_done(Path(path)) as fh:
        header = _HEADER.pack(SHARD_MAGIC, SHARD_FORMAT_VERSION, count)
        fh.write(header)
        hasher.update(header)
        for _, doc_id, data in heapq.merge(*(_iter_run(run.path) for run in runs)):
            prefix = _RECORD.pack(doc_id, len(data))
            fh.write(prefix)
            fh.write(data)
            hasher.update(prefix)
            hasher.update(data)
            written += 1
        if written != count:
            raise ShardError(f"runs of {path} declared {count} records but held {written}")
    for run in runs:
        os.unlink(run.path)
    return count, hasher.hexdigest()


def read_shard(path: Path) -> Iterator[tuple[int, str]]:
    """Yield the ``(doc_id, text)`` records of a shard file, validating the header."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ShardError(f"truncated shard header in {path}")
        magic, version, count = _HEADER.unpack(head)
        if magic != SHARD_MAGIC:
            raise ShardError(f"bad shard magic in {path}: {magic!r}")
        if version != SHARD_FORMAT_VERSION:
            raise ShardError(f"unsupported shard format version {version} in {path}")
        for _ in range(count):
            prefix = fh.read(_RECORD.size)
            if len(prefix) != _RECORD.size:
                raise ShardError(f"truncated shard file {path}")
            doc_id, length = _RECORD.unpack(prefix)
            data = fh.read(length)
            if len(data) != length:
                raise ShardError(f"truncated shard file {path}")
            yield doc_id, data.decode("utf-8")


def _run_tasks(pool: ProcessPoolExecutor | None, fn: Callable, jobs: list[tuple]) -> list:
    """``fn`` over ``jobs`` in the pool, or in this process without one; results in job order."""
    if pool is None:
        return [fn(*job) for job in jobs]
    futures = [pool.submit(fn, *job) for job in jobs]
    return [future.result() for future in futures]


def _finalize(plan: ShardPlan, runs: dict[tuple[str, int], list[Run]], out_dir: Path,
              pool: ProcessPoolExecutor | None) -> tuple[Shard, ...]:
    """Merge every destination's runs into its shard file, one task per shard; write the manifest."""
    dests = [(split, index) for split in (TRAIN, TEST) for index in range(plan.shards_for(split))]
    paths = [out_dir / shard_rel_path(split, index) for split, index in dests]
    merged = _run_tasks(pool, _merge_shard,
                        [(runs.get(dest, []), str(path)) for dest, path in zip(dests, paths)])
    shards = tuple(
        Shard(split, index, path, count, checksum)
        for (split, index), path, (count, checksum) in zip(dests, paths, merged)
    )
    with replace_when_done(out_dir / MANIFEST_NAME) as fh:
        for shard in shards:
            fh.write(f"{shard_rel_path(shard.split, shard.index)}\t"
                     f"{shard.num_records}\t{shard.checksum}\n".encode("utf-8"))
    return shards


def shard_corpus(
    files: list[CorpusFile],
    plan: ShardPlan,
    spill_dir: str | Path,
    out_dir: str | Path,
    n_workers: int = 1,
) -> ShardingResult:
    """Ingest, shuffle, and shard a corpus file list with ``n_workers`` processes.

    Workers own disjoint file subsets and share the memory budget equally.
    Output shard files are byte-identical for every worker count.
    """
    if n_workers < 1:
        raise ShardError("n_workers must be >= 1")
    spill_dir, out_dir = Path(spill_dir), Path(out_dir)
    n_workers = min(n_workers, max(1, len(files)))
    chunks = [files[k::n_workers] for k in range(n_workers)]
    budget_per_worker = plan.max_memory_bytes // n_workers
    if budget_per_worker < MIN_MEMORY_BYTES:
        raise ShardError(
            f"budget of {plan.max_memory_bytes} bytes split over {n_workers} workers "
            f"falls below the {MIN_MEMORY_BYTES}-byte per-worker floor"
        )
    # Runs left by a crashed run are never merged; clear them so they do not pile up.
    for stale in spill_dir.glob("w*/*.run"):
        stale.unlink()

    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never loads it

        pool_context = ProcessPoolExecutor(max_workers=n_workers)
    else:
        pool_context = nullcontext()
    with pool_context as pool:
        spilled = _run_tasks(pool, _spill_worker, [
            (chunk, plan, str(spill_dir / f"w{k}"), budget_per_worker)
            for k, chunk in enumerate(chunks)
        ])
        runs: dict[tuple[str, int], list[Run]] = {}
        for _, _, worker_runs in spilled:
            for dest, dest_runs in worker_runs.items():
                runs.setdefault(dest, []).extend(dest_runs)
        # Workers spill concurrently, and up to n_workers merges run at once.
        spill_peak = sum(peak for peak, _, _ in spilled)
        merge_bounds = sorted((sum(run.largest for run in dest_runs)
                               for dest_runs in runs.values()), reverse=True)
        peak = max(spill_peak, sum(merge_bounds[:n_workers]))
        if peak > plan.max_memory_bytes:
            for dest_runs in runs.values():
                for run in dest_runs:
                    os.unlink(run.path)
            raise ShardError(
                f"accounted peak of {peak} bytes exceeds the memory budget of "
                f"{plan.max_memory_bytes} bytes (a merge holds one record per sorted run)"
            )
        shards = _finalize(plan, runs, out_dir, pool)

    ndocs = sum(n for _, n, _ in spilled)
    total = sum(shard.num_records for shard in shards)
    if total != ndocs:
        raise ShardError(f"document count mismatch: spilled {ndocs}, finalized {total}")
    spill_runs = sum(len(dest_runs) for dest_runs in runs.values())
    return ShardingResult(shards, total, peak, out_dir / MANIFEST_NAME, spill_runs)


def dataset_id(shards: Iterable[Shard], override: str | None = None) -> str:
    """Content-derived dataset identifier (or the manual override).

    First 16 hex digits of a digest over the sorted shard checksums: stable
    across machines and worker counts, sensitive to any content change.
    """
    if override:
        return override
    checksums = sorted(s.checksum for s in shards)
    if not checksums:
        raise ShardError("cannot derive a dataset id from zero shards")
    return hashlib.sha256("\n".join(checksums).encode("ascii")).hexdigest()[:16]
