from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from bertpipe import instances as instances_module
from bertpipe.ingest import CorpusSource, enumerate_corpus_files
from bertpipe.instances import (
    InstanceFileError,
    MlmInstance,
    MaskingPolicy,
    apply_masking,
    generate_instances,
    iter_document_instances,
    load_meta,
    mask_rate_report,
    num_masked,
    read_instances,
    segment_document,
    write_instance_file,
)
from bertpipe.rng import keyed_rng
from bertpipe.sharding import ShardPlan, shard_corpus
from bertpipe.synthdata import generate_corpus
from bertpipe.tokenization import Vocabulary, vocab_digest


class TestPolicy:
    def test_defaults(self):
        p = MaskingPolicy()
        assert (p.masked_lm_prob, p.max_predictions_per_seq) == (0.15, 20)
        assert (p.max_seq_length, p.dup_factor) == (128, 10)
        assert (p.mask_token_frac, p.random_token_frac, p.keep_token_frac) == (0.8, 0.1, 0.1)

    def test_fraction_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MaskingPolicy(mask_token_frac=0.8, random_token_frac=0.3, keep_token_frac=0.1)

    def test_cap_vs_seq_length(self):
        with pytest.raises(ValueError, match="max_predictions_per_seq"):
            MaskingPolicy(max_predictions_per_seq=127, max_seq_length=128)


class TestSegmentDocument:
    def test_window_arithmetic(self):
        windows = segment_document(range(300), MaskingPolicy())
        assert [len(w) for w in windows] == [126, 126, 48]

    def test_below_keep_threshold_dropped(self):
        assert segment_document(range(5), MaskingPolicy()) == []

    def test_exact_window(self):
        windows = segment_document(range(126), MaskingPolicy())
        assert [len(w) for w in windows] == [126]

    def test_short_tail_dropped_long_tail_kept(self):
        assert [len(w) for w in segment_document(range(126 + 7), MaskingPolicy())] == [126]
        assert [len(w) for w in segment_document(range(126 + 8), MaskingPolicy())] == [126, 8]


class TestNumMasked:
    def test_full_window(self):
        assert num_masked(126, MaskingPolicy()) == 19  # min(20, round(18.9))

    def test_floor_one(self):
        assert num_masked(4, MaskingPolicy()) == 1  # max(1, round(0.6))

    def test_cap(self):
        assert num_masked(126, MaskingPolicy(masked_lm_prob=0.5)) == 20


class TestApplyMasking:
    def test_framing_and_count(self, mini_vocab):
        window = [mini_vocab.token_to_id["the"]] * 126
        inst = apply_masking(window, MaskingPolicy(), mini_vocab, keyed_rng(1, 0, "mask"))
        assert len(inst.input_ids) == 128
        assert inst.input_ids[0] == mini_vocab.cls_id
        assert inst.attention_len == 128
        assert inst.input_ids[inst.attention_len - 1] == mini_vocab.sep_id
        assert len(inst.masked_positions) == len(inst.masked_labels) == 19

    def test_padding(self, mini_vocab):
        # No padding is stored: attention_len implies it.
        window = [mini_vocab.token_to_id["the"]] * 10
        inst = apply_masking(window, MaskingPolicy(), mini_vocab, keyed_rng(1, 0, "mask"))
        assert inst.attention_len == len(inst.input_ids) == 12
        assert mini_vocab.pad_id not in inst.input_ids

    def test_keyed_determinism(self, mini_vocab):
        window = list(range(20, 60))
        rng_a, rng_b = keyed_rng(5, 2, "mask"), keyed_rng(5, 2, "mask")
        a = apply_masking(window, MaskingPolicy(), mini_vocab, rng_a)
        b = apply_masking(window, MaskingPolicy(), mini_vocab, rng_b)
        assert a == b
        c = apply_masking(window, MaskingPolicy(), mini_vocab, rng_a)  # the next copy
        assert c != a

    def test_positions_valid_and_labels_consistent(self, mini_vocab):
        window = list(range(20, 120))
        inst = apply_masking(window, MaskingPolicy(), mini_vocab, keyed_rng(9, 1, "mask"))
        assert list(inst.masked_positions) == sorted(set(inst.masked_positions))
        for pos, label in zip(inst.masked_positions, inst.masked_labels):
            assert 1 <= pos <= inst.attention_len - 2
            assert label == window[pos - 1]
        # Reconstruction: writing labels back restores the original window.
        rebuilt = list(inst.input_ids)
        for pos, label in zip(inst.masked_positions, inst.masked_labels):
            rebuilt[pos] = label
        assert rebuilt[1 : inst.attention_len - 1] == window

    def test_does_not_hash_the_vocabulary(self, mini_vocab, monkeypatch):
        def no_hash(self):
            raise AssertionError("the vocabulary was hashed")

        monkeypatch.setattr(Vocabulary, "__hash__", no_hash)
        window = list(range(20, 120))
        inst = apply_masking(window, MaskingPolicy(random_token_frac=0.5, keep_token_frac=0.0,
                                                   mask_token_frac=0.5), mini_vocab,
                             keyed_rng(9, 1, "mask"))
        assert len(inst.masked_positions) == 15


def test_masking_invariants_property(mini_vocab):
    policy = MaskingPolicy()

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(8, 126),
        key=st.tuples(st.integers(0, 2**40), st.integers(0, 50), st.integers(0, 9)),
    )
    def inner(length, key):
        window = [(17 * (i + 1)) % (len(mini_vocab) - 6) + 5 for i in range(length)]
        inst = apply_masking(window, policy, mini_vocab, keyed_rng(*key, "mask"))
        assert len(inst.masked_positions) <= policy.max_predictions_per_seq
        assert len(inst.masked_positions) == num_masked(length, policy)
        assert inst.input_ids[0] == mini_vocab.cls_id
        assert inst.input_ids[inst.attention_len - 1] == mini_vocab.sep_id
        for pos in inst.masked_positions:
            assert 1 <= pos <= inst.attention_len - 2

    inner()


class TestGenerateInstances:
    def _shards(self, tmp_path, size=120_000, **plan_kwargs):
        generate_corpus(tmp_path / "corpus", size, seed=11, n_files=2)
        files = enumerate_corpus_files(
            [CorpusSource("local_directory", str(tmp_path / "corpus"))]
        )
        defaults = dict(num_train_shards=2, num_test_shards=1, frac_test=0.1,
                        max_memory_bytes=64 * 2**20, seed=42)
        defaults.update(plan_kwargs)
        return shard_corpus(files, ShardPlan(**defaults), tmp_path / "spill", tmp_path / "shards")

    def test_dup_factor_counts_and_diversity(self, tmp_path, mini_vocab):
        from bertpipe.tokenization import tokenize

        text = "the new world of state and work " * 30  # one long document
        policy = MaskingPolicy(dup_factor=10, seed=42)
        instances = list(iter_document_instances(3, text, policy, mini_vocab))
        windows = segment_document(tokenize(text, mini_vocab), policy)
        assert len(instances) == len(windows) * 10
        first_window = instances[:10]
        position_sets = {tuple(i.masked_positions) for i in first_window}
        assert len(position_sets) >= 2  # independent masking per dup at seed 42
        # Same underlying content: reconstruction equality across dups.
        rebuilt = set()
        for inst in first_window:
            ids = list(inst.input_ids)
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                ids[pos] = label
            rebuilt.add(tuple(ids))
        assert len(rebuilt) == 1

    def test_dup_factor_one(self, tmp_path, mini_vocab):
        text = "the new world of state and work " * 30
        policy = MaskingPolicy(dup_factor=1, seed=42)
        instances = list(iter_document_instances(3, text, policy, mini_vocab))
        from bertpipe.tokenization import tokenize

        assert len(instances) == len(segment_document(tokenize(text, mini_vocab), policy))

    def test_one_keyed_stream_per_window(self, mini_vocab, monkeypatch):
        # The dup_factor copies of a window share one stream; iter_document_instances
        # looks keyed_rng up through the module, where bench/trace.py counts it.
        from bertpipe.tokenization import tokenize

        keys = []

        def counting_keyed_rng(*parts):
            keys.append(parts)
            return keyed_rng(*parts)

        monkeypatch.setattr(instances_module, "keyed_rng", counting_keyed_rng)
        text = "the new world of state and work " * 60
        policy = MaskingPolicy(dup_factor=10, seed=42)
        instances = list(iter_document_instances(3, text, policy, mini_vocab))
        windows = segment_document(tokenize(text, mini_vocab), policy)
        assert len(windows) >= 2
        assert len(instances) == 10 * len(windows)
        assert keys == [(42, 3, w, "mask") for w in range(len(windows))]

    def test_worker_counts_byte_identical(self, tmp_path, mini_vocab):
        sharding = self._shards(tmp_path)
        policy = MaskingPolicy(dup_factor=2, seed=42)
        g1 = generate_instances(sharding.shards, policy, mini_vocab,
                                tmp_path / "p1", "did", n_workers=1)
        g2 = generate_instances(sharding.shards, policy, mini_vocab,
                                tmp_path / "p2", "did", n_workers=2)
        assert g1.num_instances == g2.num_instances > 0
        for f1, f2 in zip(g1.files, g2.files):
            assert f1.path.read_bytes() == f2.path.read_bytes()

    def test_meta_contents(self, tmp_path, mini_vocab):
        sharding = self._shards(tmp_path, size=40_000)
        policy = MaskingPolicy(dup_factor=1, seed=42)
        gen = generate_instances(sharding.shards, policy, mini_vocab,
                                 tmp_path / "proc", "my-id")
        meta = load_meta(tmp_path / "proc")
        assert meta["dataset_id"] == "my-id"
        assert meta["vocab_digest"] == vocab_digest(mini_vocab)
        assert meta["num_instances"] == gen.num_instances
        assert meta["policy"]["dup_factor"] == 1


class TestInstanceFiles:
    def _round_trip(self, tmp_path, instances, seq_len, vocab_size):
        path = tmp_path / "x.xbi"
        count = write_instance_file(path, instances, seq_len, vocab_size)
        return path, count

    def _masked(self, mini_vocab, copies):
        window = [mini_vocab.token_to_id["world"]] * 30
        rng = keyed_rng(1, 0, "mask")
        return [apply_masking(window, MaskingPolicy(), mini_vocab, rng) for _ in range(copies)]

    def test_round_trip(self, tmp_path, mini_vocab):
        original = self._masked(mini_vocab, 3)
        path, count = self._round_trip(tmp_path, original, 128, len(mini_vocab))
        loaded = list(read_instances(path))
        assert count == len(loaded) == 3
        for a, b in zip(original, loaded):
            assert tuple(a.input_ids) == tuple(b.input_ids)
            assert a.attention_len == b.attention_len
            assert tuple(a.masked_positions) == tuple(b.masked_positions)
            assert tuple(a.masked_labels) == tuple(b.masked_labels)

    def test_header_magic(self, tmp_path):
        path, _ = self._round_trip(tmp_path, [], 128, 30522)
        raw = path.read_bytes()
        assert raw[:8] == b"XBINST01"
        assert struct.unpack("<HHHI", raw[8:]) == (2, 128, 2, 0)

    def test_truncated_file_reports_offset(self, tmp_path, mini_vocab):
        inst = self._masked(mini_vocab, 1)[0]
        path, _ = self._round_trip(tmp_path, [inst, inst], 128, len(mini_vocab))
        clipped = tmp_path / "clipped.xbi"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(InstanceFileError, match="byte offset"):
            list(read_instances(clipped))

    def test_truncated_record_offset_is_exact(self, tmp_path, mini_vocab):
        # Header 18 B; a record is 2 counts + ids + positions + labels, all u16.
        inst = self._masked(mini_vocab, 1)[0]
        record = 2 * (2 + inst.attention_len + 2 * len(inst.masked_positions))
        path, _ = self._round_trip(tmp_path, [inst, inst], 128, len(mini_vocab))
        assert path.stat().st_size == 18 + 2 * record
        clipped = tmp_path / "clipped.xbi"
        clipped.write_bytes(path.read_bytes()[:-1])
        second_body = 18 + record + 4
        with pytest.raises(InstanceFileError, match=f"at byte offset {second_body}$"):
            list(read_instances(clipped))

    def test_wide_ids_round_trip(self, tmp_path):
        ids = (1, 65535, 65536, 70_000, 2)
        inst = MlmInstance(input_ids=ids, attention_len=5, masked_positions=(2, 3),
                           masked_labels=(65536, 69_999))
        path, _ = self._round_trip(tmp_path, [inst], 128, 70_001)
        assert struct.unpack("<H", path.read_bytes()[12:14]) == (4,)
        assert list(read_instances(path)) == [inst]

    def test_u16_width_up_to_65536_entries(self, tmp_path):
        inst = MlmInstance(input_ids=(1, 65535, 2), attention_len=3, masked_positions=(1,),
                           masked_labels=(65535,))
        path, _ = self._round_trip(tmp_path, [inst], 128, 65536)
        raw = path.read_bytes()
        assert struct.unpack("<H", raw[12:14]) == (2,)
        assert len(raw) == 18 + 2 * (2 + 3 + 1 + 1)
        assert list(read_instances(path)) == [inst]

    def test_version_1_file_rejected(self, tmp_path):
        # A version 1 header followed by one padded record, as older builds wrote it.
        v1 = tmp_path / "v1.xbi"
        v1.write_bytes(struct.pack("<8sHHI", b"XBINST01", 1, 4, 1)
                       + struct.pack("<4IHHHI", 1, 7, 2, 0, 3, 1, 1, 9))
        with pytest.raises(InstanceFileError, match="unsupported instance format version 1 "):
            list(read_instances(v1))

    def test_failed_write_leaves_no_file(self, tmp_path, mini_vocab):
        path = tmp_path / "x.xbi"
        seen_mid_file = []

        def failing():
            yield from self._masked(mini_vocab, 2)
            # What a killed process would leave behind at this point.
            seen_mid_file.append(path.exists())
            raise RuntimeError("tokenizer crashed")

        with pytest.raises(RuntimeError, match="tokenizer crashed"):
            write_instance_file(path, failing(), 128, len(mini_vocab))
        assert seen_mid_file == [False]
        assert list(tmp_path.iterdir()) == []


class TestMaskRateReport:
    def test_statistics_in_range(self, tmp_path, mini_vocab):
        generate_corpus(tmp_path / "corpus", 400_000, seed=2, n_files=2)
        files = enumerate_corpus_files(
            [CorpusSource("local_directory", str(tmp_path / "corpus"))]
        )
        sharding = shard_corpus(
            files,
            ShardPlan(num_train_shards=1, num_test_shards=1, frac_test=0.0,
                      max_memory_bytes=64 * 2**20, seed=42),
            tmp_path / "spill",
            tmp_path / "shards",
        )
        gen = generate_instances(sharding.shards, MaskingPolicy(dup_factor=2, seed=42),
                                 mini_vocab, tmp_path / "proc", "did")
        report = mask_rate_report([f.path for f in gen.files], mini_vocab)
        assert report.masked_position_count >= 10_000
        assert 0.14 <= report.mask_fraction <= 0.16
        assert abs(report.action_mask_fraction - 0.8) <= 0.02
        assert abs(report.action_random_fraction - 0.1) <= 0.02
        assert abs(report.action_keep_fraction - 0.1) <= 0.02
        assert report.max_masked_in_instance <= 20

    def test_empty_file_set(self, mini_vocab):
        report = mask_rate_report([], mini_vocab)
        assert report.instance_count == 0

    def test_corrupt_file(self, tmp_path, mini_vocab):
        bad = tmp_path / "bad.xbi"
        bad.write_bytes(b"XBINST01" + b"\x01\x00" + b"\x80\x00" + b"\x05\x00\x00\x00")
        with pytest.raises(InstanceFileError):
            mask_rate_report([bad], mini_vocab)
