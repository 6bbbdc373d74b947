from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from bertpipe import sharding
from bertpipe.ingest import (
    CorpusFile,
    CorpusSource,
    DocumentRecord,
    enumerate_corpus_files,
    iter_documents,
)
from bertpipe.rng import derive_u64
from bertpipe.sharding import (
    MIN_MEMORY_BYTES,
    RECORD_OVERHEAD_BYTES,
    ShardError,
    ShardPlan,
    assign_shard_index,
    assign_split,
    dataset_id,
    read_shard,
    _spill_worker,
    shard_corpus,
)
from bertpipe.synthdata import generate_corpus


def make_docs(n: int, size: int = 40) -> list[DocumentRecord]:
    return [
        DocumentRecord(doc_id=i, text=f"document {i} " + "x" * size)
        for i in range(n)
    ]


def plan(**kwargs) -> ShardPlan:
    defaults = dict(
        num_train_shards=2,
        num_test_shards=1,
        frac_test=0.0,
        max_memory_bytes=MIN_MEMORY_BYTES,
        seed=42,
    )
    defaults.update(kwargs)
    return ShardPlan(**defaults)


def shard_docs(docs, p: ShardPlan, spill_dir, out_dir):
    """``shard_corpus`` over one corpus file holding ``docs``, whose doc_ids are 0, 1, ..."""
    docs = list(docs)
    assert [d.doc_id for d in docs] == list(range(len(docs)))
    out_dir = Path(out_dir)
    corpus = out_dir.with_name(out_dir.name + "-corpus.txt")
    corpus.write_text("\n\n".join(d.text for d in docs) + "\n", encoding="utf-8")
    return shard_corpus([CorpusFile(0, corpus)], p, spill_dir, out_dir)


def doc_digests(texts) -> Counter:
    return Counter(hashlib.blake2b(t.encode(), digest_size=16).hexdigest() for t in texts)


class TestAssignSplit:
    def test_frac_zero_always_train(self):
        p = plan(frac_test=0.0)
        assert all(assign_split(i, p) == "train" for i in range(1000))

    @pytest.mark.parametrize("frac", [0.1, 0.9])
    def test_monte_carlo_fraction(self, frac):
        p = plan(frac_test=frac, num_test_shards=1)
        n = 100_000
        hits = sum(assign_split(i, p) == "test" for i in range(n))
        assert abs(hits / n - frac) < 0.01

    def test_deterministic(self):
        p = plan(frac_test=0.5)
        labels_a = [assign_split(i, p) for i in range(100)]
        labels_b = [assign_split(i, p) for i in range(100)]
        assert labels_a == labels_b

    def test_concentration_bound(self):
        # 4-sigma binomial bound from the documented invariant.
        frac, n = 0.3, 50_000
        p = plan(frac_test=frac)
        hits = sum(assign_split(i, p) == "test" for i in range(n))
        assert abs(hits / n - frac) <= 4 * math.sqrt(frac * (1 - frac) / n)


class TestPlanValidation:
    def test_budget_floor(self):
        with pytest.raises(ShardError, match="floor"):
            plan(max_memory_bytes=MIN_MEMORY_BYTES - 1)

    def test_counts(self):
        with pytest.raises(ShardError):
            plan(num_train_shards=0)

    def test_frac_range(self):
        with pytest.raises(ShardError):
            plan(frac_test=1.0)


class TestShuffleAndShard:
    def test_union_and_keyed_layout(self, tmp_path):
        docs = make_docs(10)
        p = plan()
        result = shard_docs(docs, p, tmp_path / "spill", tmp_path / "out")
        assert result.num_documents == 10

        out_texts = []
        for shard in result.shards:
            records = list(read_shard(shard.path))
            assert len(records) == shard.num_records
            doc_ids = [doc_id for doc_id, _ in records]
            out_texts.extend(text for _, text in records)
            # Every document sits in the shard its keyed draw selects, in
            # ascending keyed-order-key sequence, next to its own doc_id.
            for doc_id, text in records:
                assert docs[doc_id].text == text
                assert assign_split(doc_id, p) == shard.split
                assert assign_shard_index(doc_id, shard.split, p) == shard.index
            keys = [(derive_u64(p.seed, d, "order"), d) for d in doc_ids]
            assert keys == sorted(keys)
        assert doc_digests(out_texts) == doc_digests(d.text for d in docs)
        train = [s for s in result.shards if s.split == "train"]
        assert all(s.num_records > 0 for s in train)  # seed-42 layout, frozen

    def test_seed_changes_layout_not_content(self, tmp_path):
        docs = make_docs(40)
        r42 = shard_docs(docs, plan(seed=42), tmp_path / "s42", tmp_path / "o42")
        r43 = shard_docs(docs, plan(seed=43), tmp_path / "s43", tmp_path / "o43")
        layout42 = [[d for d, _ in read_shard(s.path)] for s in r42.shards]
        layout43 = [[d for d, _ in read_shard(s.path)] for s in r43.shards]
        assert layout42 != layout43
        union = lambda r: doc_digests(t for s in r.shards for _, t in read_shard(s.path))
        assert union(r42) == union(r43)

    def test_budget_spill_and_high_water(self, tmp_path):
        # ~48 MB of documents against the 16 MiB floor budget: must spill,
        # must stay under budget, must conserve content.
        docs = [
            DocumentRecord(doc_id=i, text=f"{i}:" + "y" * 50_000)
            for i in range(1000)
        ]
        p = plan(num_train_shards=4)
        result = shard_docs(iter(docs), p, tmp_path / "spill", tmp_path / "out")
        assert result.peak_accounted_bytes <= p.max_memory_bytes
        total_cost = sum(len(d.text.encode()) + RECORD_OVERHEAD_BYTES for d in docs)
        assert total_cost > p.max_memory_bytes  # spilling actually happened
        out = doc_digests(t for s in result.shards for _, t in read_shard(s.path))
        assert out == doc_digests(d.text for d in docs)

    def test_spill_runs_counted(self, tmp_path):
        # One destination: a sorted run each time the next document would
        # cross the spill threshold, and one more for what is left at the end.
        # Each new buffer holds one page besides its records.
        docs = [DocumentRecord(doc_id=i, text=f"{i}:" + "y" * 50_000)
                for i in range(1000)]
        threshold = int(MIN_MEMORY_BYTES * sharding.SPILL_THRESHOLD)
        runs, held = 1, sharding.BUFFER_PAGE_BYTES
        for doc in docs:
            cost = len(doc.text) + RECORD_OVERHEAD_BYTES
            if held + cost > threshold:
                runs, held = runs + 1, sharding.BUFFER_PAGE_BYTES
            held += cost
        assert runs == 4
        result = shard_docs(docs, plan(num_train_shards=1), tmp_path / "spill", tmp_path / "out")
        assert result.spill_runs == runs

    def test_one_shard_larger_than_budget(self, tmp_path):
        # The same ~48 MB into a single train shard: the shard is three times
        # the budget, yet no phase may account more than the budget.
        docs = [
            DocumentRecord(doc_id=i, text=f"{i}:" + "y" * 50_000)
            for i in range(1000)
        ]
        p = plan(num_train_shards=1)
        result = shard_docs(docs, p, tmp_path / "spill", tmp_path / "out")
        assert result.peak_accounted_bytes <= p.max_memory_bytes
        train = next(s for s in result.shards if s.split == "train")
        assert train.num_records == 1000
        assert [d for d, _ in read_shard(train.path)] == sorted(
            range(1000), key=lambda d: derive_u64(p.seed, d, "order"))
        out = doc_digests(t for s in result.shards for _, t in read_shard(s.path))
        assert out == doc_digests(d.text for d in docs)
        assert list((tmp_path / "spill").glob("w*/*.run")) == []

    def test_unavoidable_merge_breach_fatal(self, tmp_path):
        # Each document fits the budget, but they reach one shard in two runs,
        # and merging them holds one record of each: 2 x 9 MiB over 16 MiB.
        docs = [DocumentRecord(doc_id=i, text=c * (9 * 2**20)) for i, c in
                enumerate("ab")]
        peak = 2 * (9 * 2**20 + RECORD_OVERHEAD_BYTES)
        with pytest.raises(ShardError, match=f"accounted peak of {peak} bytes exceeds the memory "
                                             f"budget of {MIN_MEMORY_BYTES} bytes"):
            shard_docs(docs, plan(num_train_shards=1), tmp_path / "spill", tmp_path / "out")
        assert not (tmp_path / "out").exists()
        assert list((tmp_path / "spill").glob("w*/*.run")) == []

    def test_each_buffer_counts_a_resident_page(self, tmp_path):
        # A destination's first map write makes a 4 KiB page resident, however
        # small its texts: 64 small documents' bytes alone would hide it.
        p = plan(num_train_shards=64)
        writer = sharding._SpillWriter(p, tmp_path / "spill", p.max_memory_bytes)
        for doc in make_docs(200, size=0):
            writer.add(doc)
        assert len(writer.buffers) > 32
        assert writer.total >= len(writer.buffers) * 4096

    def test_oversized_document_fatal(self, tmp_path):
        docs = make_docs(7) + [
            DocumentRecord(doc_id=7, text="z" * (MIN_MEMORY_BYTES + 1))]
        with pytest.raises(ShardError, match="document 7"):
            shard_docs(docs, plan(), tmp_path / "spill", tmp_path / "out")

    def test_empty_shard_files_written(self, tmp_path):
        result = shard_docs(make_docs(1), plan(num_train_shards=3),
                            tmp_path / "spill", tmp_path / "out")
        assert len(result.shards) == 4  # 3 train + 1 test, all files exist
        assert all(s.path.is_file() for s in result.shards)


class TestFileFormat:
    def test_header_bytes_exact(self, tmp_path):
        result = shard_docs(
            [DocumentRecord(doc_id=0, text="ab")],
            plan(num_train_shards=1),
            tmp_path / "spill",
            tmp_path / "out",
        )
        shard = next(s for s in result.shards if s.num_records == 1)
        raw = shard.path.read_bytes()
        assert raw[:8] == b"XBSHARD1"
        version, count = struct.unpack("<HI", raw[8:14])
        assert (version, count) == (2, 1)
        assert raw[14:16] == b"\x00\x00"
        doc_id, length = struct.unpack("<QI", raw[16:28])
        assert (doc_id, length) == (0, 2) and raw[28:] == b"ab"
        assert shard.checksum == hashlib.sha256(raw).hexdigest()

    def test_manifest_lines(self, tmp_path):
        result = shard_docs(make_docs(5), plan(), tmp_path / "spill", tmp_path / "out")
        lines = result.manifest_path.read_text().splitlines()
        assert len(lines) == len(result.shards)
        for line, shard in zip(lines, result.shards):
            rel, count, checksum = line.split("\t")
            assert rel == f"{shard.split}/shard-{shard.index:05d}.xbs"
            assert int(count) == shard.num_records
            assert checksum == shard.checksum

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        calls = []

        def failing_rel_path(split, index, real=sharding.shard_rel_path):
            calls.append((split, index))
            if len(calls) == 5:  # the second manifest line, after the three shard files
                raise OSError("disk full")
            return real(split, index)

        monkeypatch.setattr(sharding, "shard_rel_path", failing_rel_path)
        with pytest.raises(OSError, match="disk full"):
            shard_docs(make_docs(5), plan(), tmp_path / "spill", tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["test", "train"]

    def test_failed_shard_write_leaves_no_shard(self, tmp_path, monkeypatch):
        class FailingHash:  # the disk fills up after the first record's bytes
            def __init__(self):
                self.real = hashlib.sha256()
                self.updates = 0

            def update(self, chunk):
                self.updates += 1
                if self.updates == 3:
                    raise OSError("disk full")
                self.real.update(chunk)

            def hexdigest(self):
                return self.real.hexdigest()

        monkeypatch.setattr(sharding, "hashlib", SimpleNamespace(sha256=FailingHash))
        with pytest.raises(OSError, match="disk full"):
            shard_docs(make_docs(5), plan(), tmp_path / "spill", tmp_path / "out")
        assert list((tmp_path / "out" / "train").iterdir()) == []

    def test_read_rejects_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.xbs"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(ShardError, match="magic"):
            list(read_shard(bad))


class TestShardCorpus:
    def _corpus(self, tmp_path, n_files=6, size=600_000):
        generate_corpus(tmp_path / "corpus", size, seed=5, n_files=n_files)
        return enumerate_corpus_files([CorpusSource("local_directory", str(tmp_path / "corpus"))])

    def test_worker_counts_byte_identical(self, tmp_path):
        files = self._corpus(tmp_path)
        p = plan(num_train_shards=3, num_test_shards=2, frac_test=0.2,
                 max_memory_bytes=64 * 2**20)
        r1 = shard_corpus(files, p, tmp_path / "sp1", tmp_path / "o1", n_workers=1)
        r2 = shard_corpus(files, p, tmp_path / "sp2", tmp_path / "o2", n_workers=2)
        for a, b in zip(r1.shards, r2.shards):
            assert a.checksum == b.checksum
            assert a.path.read_bytes() == b.path.read_bytes()
        assert dataset_id(r1.shards) == dataset_id(r2.shards)

    def test_conserves_documents(self, tmp_path):
        files = self._corpus(tmp_path, n_files=3, size=200_000)
        p = plan(num_train_shards=2, frac_test=0.1)
        result = shard_corpus(files, p, tmp_path / "spill", tmp_path / "out")
        original = doc_digests(d.text for d in iter_documents(files))
        sharded = doc_digests(t for s in result.shards for _, t in read_shard(s.path))
        assert sharded == original

    def test_stale_spill_files_are_cleared(self, tmp_path):
        files = self._corpus(tmp_path, n_files=2, size=100_000)
        p = plan(num_train_shards=2, frac_test=0.1)
        clean = shard_corpus(files, p, tmp_path / "clean_spill", tmp_path / "clean")
        # What a run that crashed after spilling leaves behind.
        _spill_worker(files, p, str(tmp_path / "spill" / "w0"), p.max_memory_bytes)
        retry = shard_corpus(files, p, tmp_path / "spill", tmp_path / "out")
        assert retry.manifest_path.read_text() == clean.manifest_path.read_text()


# Runs ``_spill_worker`` over one corpus file and prints its accounted peak and
# the growth of its resident high-water mark, in bytes. The spill runs in a
# process forked here: a process started by exec keeps its launcher's
# high-water mark as its own ``ru_maxrss``, a forked one starts from its size.
_SPILL_RSS_PROBE = """
import json, os, resource, sys
from pathlib import Path
from bertpipe.ingest import CorpusFile
from bertpipe.sharding import ShardPlan, _spill_worker

corpus, spill_dir, budget = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
train, test, frac_test = json.loads(sys.argv[4])
plan = ShardPlan(num_train_shards=train, num_test_shards=test, frac_test=frac_test, seed=42)
read_end, write_end = os.pipe()
if os.fork() == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak, _, _ = _spill_worker([CorpusFile(0, corpus)], plan, spill_dir, budget)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    os.write(write_end, json.dumps({"peak": peak, "growth": (after - before) * 1024}).encode())
    os._exit(0)
os.close(write_end)
with os.fdopen(read_end) as fh:
    print(fh.read())
_, status = os.wait()
sys.exit(os.waitstatus_to_exitcode(status))
"""


# (train shards, test shards, frac_test): a unicode-spill-2workers bench
# worker's layout, and one that spreads the budget over many destinations.
@pytest.mark.parametrize("layout", [(2, 128, 0.005), (64, 64, 0.05)])
def test_spill_worker_resident_memory_tracks_accounted_bytes(tmp_path, layout):
    # What a spill worker holds beyond the budget's count of text plus 64 B
    # per record must stay small: its resident growth is within 1.1 times
    # its accounted peak. ~14 MiB of 1-2 KiB non-ASCII articles against the
    # 16 MiB floor budget reach the 12.8 MiB spill threshold.
    rng = random.Random(3)
    words = ["".join(rng.choice("aeioubcdfgàéîõüçñß") for _ in range(rng.randint(2, 9)))
             for _ in range(3000)]
    corpus = tmp_path / "corpus.txt"
    with open(corpus, "w", encoding="utf-8") as fh:
        written = 0
        while written < 14 * 2**20:
            article = " ".join(rng.choices(words, k=rng.randint(150, 300)))
            written += fh.write(article + "\n\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(sharding.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _SPILL_RSS_PROBE, str(corpus), str(tmp_path / "spill"),
         str(MIN_MEMORY_BYTES), json.dumps(layout)],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    probe = json.loads(out.stdout)
    assert probe["peak"] > 0.79 * MIN_MEMORY_BYTES  # the spill threshold was reached
    assert probe["growth"] <= 1.1 * probe["peak"], probe


class TestDatasetId:
    def _shards(self, tmp_path, texts, tag):
        docs = [DocumentRecord(doc_id=i, text=t) for i, t in enumerate(texts)]
        result = shard_docs(docs, plan(), tmp_path / f"sp{tag}", tmp_path / f"o{tag}")
        return result.shards

    def test_override_wins(self, tmp_path):
        shards = self._shards(tmp_path, ["a", "b"], "x")
        assert dataset_id(shards, "my-corpus") == "my-corpus"

    def test_stable_and_short(self, tmp_path):
        shards = self._shards(tmp_path, ["a", "b"], "y")
        did = dataset_id(shards)
        assert len(did) == 16 and did == dataset_id(shards)

    def test_one_byte_change_flips_id(self, tmp_path):
        a = self._shards(tmp_path, ["hello world", "second doc"], "a")
        b = self._shards(tmp_path, ["hello worle", "second doc"], "b")
        assert dataset_id(a) != dataset_id(b)

    def test_no_shards(self):
        with pytest.raises(ShardError):
            dataset_id([])
