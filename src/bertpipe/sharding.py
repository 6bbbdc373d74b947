"""Shuffle the document stream into train/test shards under a RAM budget.

Large corpora do not fit in memory, so the shuffle trades time for memory by
spilling to disk: documents are buffered per destination shard, and once the
byte-accounting counter crosses 80% of the budget the largest buffers are
serialized to per-shard spill files (sequential appends). The remaining 20%
headroom absorbs bookkeeping overhead. At the end every destination is read
back one shard at a time and written in its final order.

All randomized decisions are keyed functions of (seed, doc_id):

* split:        test iff U(seed, doc_id) < frac_test
* shard index:  U64(seed, doc_id, "shard") mod shard count of the split
* final order:  ascending U64(seed, doc_id, "order"), doc_id as tie-break

so any worker partitioning or interleaving of the stream yields bit-identical
shard files. Byte accounting counts UTF-8 text bytes plus a fixed 64-byte
per-record overhead; the high-water mark is reported and never exceeds the
budget.

Shard file format (bit-exact for determinism tests): 16-byte header of magic
"XBSHARD1", format version u16, record count u32, 2 padding bytes; then per
record a u32 little-endian byte length followed by that many UTF-8 bytes.
"""

from __future__ import annotations

import hashlib
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .atomic import replace_when_done
from .ingest import CorpusFile, DocumentRecord, iter_documents
from .rng import derive_u64, keyed_uniform

SHARD_MAGIC = b"XBSHARD1"
SHARD_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sHI2x")
_RECORD_LEN = struct.Struct("<I")
_SPILL_RECORD = struct.Struct("<QI")

RECORD_OVERHEAD_BYTES = 64
MIN_MEMORY_BYTES = 16 * 2**20
SPILL_THRESHOLD = 0.8

TRAIN, TEST = "train", "test"
MANIFEST_NAME = "MANIFEST.tsv"


class ShardError(Exception):
    """Sharding cannot proceed (bad plan, oversized document, I/O failure)."""


@dataclass(frozen=True)
class ShardPlan:
    """Sharding parameters; memory budget in bytes (gigabytes are 2^30 bytes)."""

    num_train_shards: int = 256
    num_test_shards: int = 128
    frac_test: float = 0.005
    max_memory_bytes: int = 64 * 2**30
    seed: int = 42

    def __post_init__(self):
        if self.num_train_shards < 1 or self.num_test_shards < 1:
            raise ShardError("shard counts must be >= 1")
        if not 0 <= self.frac_test < 1:
            raise ShardError("frac_test must lie in [0, 1)")
        if self.max_memory_bytes < MIN_MEMORY_BYTES:
            raise ShardError(
                f"memory budget {self.max_memory_bytes} below the "
                f"{MIN_MEMORY_BYTES}-byte floor; refusing to start"
            )

    def shards_for(self, split: str) -> int:
        return self.num_train_shards if split == TRAIN else self.num_test_shards


@dataclass(frozen=True)
class Shard:
    """One finalized shard file plus the doc_ids of its records, in file order."""

    split: str
    index: int
    path: Path
    num_records: int
    checksum: str
    doc_ids: tuple[int, ...]

    def documents(self) -> Iterator[str]:
        yield from read_shard(self.path)


@dataclass(frozen=True)
class ShardingResult:
    shards: tuple[Shard, ...]
    num_documents: int
    peak_accounted_bytes: int
    manifest_path: Path


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
    """Per-destination buffers with budget accounting and largest-first spill."""

    def __init__(self, plan: ShardPlan, spill_dir: Path, budget_bytes: int):
        self.plan = plan
        self.spill_dir = spill_dir
        self.budget = budget_bytes
        self.threshold = int(budget_bytes * SPILL_THRESHOLD)
        self.buffers: dict[tuple[str, int], list[tuple[int, bytes]]] = {}
        self.sizes: dict[tuple[str, int], int] = {}
        self.total = 0
        self.peak = 0
        self.num_documents = 0
        spill_dir.mkdir(parents=True, exist_ok=True)

    def add(self, doc: DocumentRecord) -> None:
        data = doc.text.encode("utf-8")
        cost = record_cost(data)
        if cost > self.budget:
            raise ShardError(
                f"document {doc.doc_id} ({cost} accounted bytes) exceeds the "
                f"memory budget of {self.budget} bytes"
            )
        if self.total + cost > self.threshold:
            self._spill_until(self.threshold - cost)
        split = assign_split(doc.doc_id, self.plan)
        dest = (split, assign_shard_index(doc.doc_id, split, self.plan))
        self.buffers.setdefault(dest, []).append((doc.doc_id, data))
        self.sizes[dest] = self.sizes.get(dest, 0) + cost
        self.total += cost
        self.peak = max(self.peak, self.total)
        self.num_documents += 1

    def _spill_path(self, dest: tuple[str, int]) -> Path:
        return self.spill_dir / f"{dest[0]}-{dest[1]:05d}.spill"

    def _spill_dest(self, dest: tuple[str, int]) -> None:
        records = self.buffers.pop(dest)
        try:
            with open(self._spill_path(dest), "ab") as fh:
                for doc_id, data in records:
                    fh.write(_SPILL_RECORD.pack(doc_id, len(data)))
                    fh.write(data)
        except OSError as exc:
            raise ShardError(
                f"spill write failed for {dest} (needed {self.sizes[dest]} bytes): {exc}"
            ) from exc
        self.total -= self.sizes.pop(dest)

    def _spill_until(self, target_total: int) -> None:
        while self.total > max(target_total, 0) and self.buffers:
            dest = max(self.sizes, key=lambda d: self.sizes[d])
            self._spill_dest(dest)

    def flush_all(self) -> None:
        for dest in list(self.buffers):
            self._spill_dest(dest)


def _iter_spill_records(path: Path) -> Iterator[tuple[int, bytes]]:
    with open(path, "rb") as fh:
        while True:
            head = fh.read(_SPILL_RECORD.size)
            if not head:
                return
            doc_id, length = _SPILL_RECORD.unpack(head)
            yield doc_id, fh.read(length)


def write_shard_file(path: Path, records: list[bytes]) -> str:
    """Write one shard file; returns the sha256 hex digest of its content."""
    path.parent.mkdir(parents=True, exist_ok=True)
    hasher = hashlib.sha256()
    with open(path, "wb") as fh:
        header = _HEADER.pack(SHARD_MAGIC, SHARD_FORMAT_VERSION, len(records))
        fh.write(header)
        hasher.update(header)
        for data in records:
            prefix = _RECORD_LEN.pack(len(data))
            fh.write(prefix)
            fh.write(data)
            hasher.update(prefix)
            hasher.update(data)
    return hasher.hexdigest()


def read_shard(path: Path) -> Iterator[str]:
    """Yield the document texts of a shard file, validating the header."""
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
            prefix = fh.read(_RECORD_LEN.size)
            if len(prefix) != _RECORD_LEN.size:
                raise ShardError(f"truncated shard file {path}")
            (length,) = _RECORD_LEN.unpack(prefix)
            data = fh.read(length)
            if len(data) != length:
                raise ShardError(f"truncated shard file {path}")
            yield data.decode("utf-8")


def _spill_worker(files: list[CorpusFile], plan: ShardPlan, spill_dir: str,
                  budget_bytes: int) -> tuple[int, int]:
    writer = _SpillWriter(plan, Path(spill_dir), budget_bytes)
    for doc in iter_documents(files):
        writer.add(doc)
    writer.flush_all()
    return writer.peak, writer.num_documents


def _finalize(plan: ShardPlan, spill_dirs: list[Path], out_dir: Path) -> ShardingResult:
    """Merge spill files into final shards in canonical keyed order."""
    shards: list[Shard] = []
    peak = 0
    total_docs = 0
    for split, n_shards in ((TRAIN, plan.num_train_shards), (TEST, plan.num_test_shards)):
        for index in range(n_shards):
            records: list[tuple[int, int, bytes]] = []
            accounted = 0
            for spill_dir in spill_dirs:
                spill = spill_dir / f"{split}-{index:05d}.spill"
                if not spill.exists():
                    continue
                for doc_id, data in _iter_spill_records(spill):
                    records.append((_order_key(doc_id, plan.seed), doc_id, data))
                    accounted += record_cost(data)
            peak = max(peak, accounted)
            records.sort(key=lambda r: (r[0], r[1]))
            path = out_dir / shard_rel_path(split, index)
            checksum = write_shard_file(path, [r[2] for r in records])
            shards.append(
                Shard(
                    split=split,
                    index=index,
                    path=path,
                    num_records=len(records),
                    checksum=checksum,
                    doc_ids=tuple(r[1] for r in records),
                )
            )
            total_docs += len(records)

    manifest = out_dir / MANIFEST_NAME
    with replace_when_done(manifest) as fh:
        for shard in shards:
            fh.write(f"{shard_rel_path(shard.split, shard.index)}\t"
                     f"{shard.num_records}\t{shard.checksum}\n".encode("utf-8"))
    return ShardingResult(
        shards=tuple(shards),
        num_documents=total_docs,
        peak_accounted_bytes=peak,
        manifest_path=manifest,
    )


def shuffle_and_shard(
    docs: Iterable[DocumentRecord],
    plan: ShardPlan,
    spill_dir: str | Path,
    out_dir: str | Path,
) -> ShardingResult:
    """Shard an already-materialized document stream (single worker)."""
    spill_dir, out_dir = Path(spill_dir), Path(out_dir)
    writer = _SpillWriter(plan, spill_dir, plan.max_memory_bytes)
    for doc in docs:
        writer.add(doc)
    writer.flush_all()
    result = _finalize(plan, [spill_dir], out_dir)
    peak = max(result.peak_accounted_bytes, writer.peak)
    return ShardingResult(result.shards, result.num_documents, peak, result.manifest_path)


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
    worker_dirs = [spill_dir / f"w{k}" for k in range(n_workers)]
    # Spill files are appended to: leftovers of a crashed run would be read twice.
    for stale in spill_dir.glob("w*/*.spill"):
        stale.unlink()

    peaks: list[int] = []
    ndocs = 0
    if n_workers == 1:
        peak, n = _spill_worker(chunks[0], plan, str(worker_dirs[0]), budget_per_worker)
        peaks.append(peak)
        ndocs += n
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_spill_worker, chunk, plan, str(wdir), budget_per_worker)
                for chunk, wdir in zip(chunks, worker_dirs)
            ]
            for future in futures:
                peak, n = future.result()
                peaks.append(peak)
                ndocs += n

    result = _finalize(plan, worker_dirs, out_dir)
    if result.num_documents != ndocs:
        raise ShardError(
            f"document count mismatch: spilled {ndocs}, finalized {result.num_documents}"
        )
    # Workers run concurrently: their accounting peaks can coincide, so the
    # conservative global high-water mark is the sum of per-worker peaks.
    peak = max(sum(peaks), result.peak_accounted_bytes)
    for wdir in worker_dirs:
        for spill in wdir.glob("*.spill"):
            spill.unlink()
    return ShardingResult(result.shards, result.num_documents, peak, result.manifest_path)


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
