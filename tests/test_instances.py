from __future__ import annotations

import functools
import hashlib
import struct

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from bertpipe import instances as instances_module
from bertpipe import records
from bertpipe.ingest import CorpusSource, enumerate_corpus_files
from bertpipe.instances import (
    InstanceFileError,
    MlmInstance,
    MaskingPolicy,
    apply_masking,
    generate_instances,
    instance_rel_path,
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
from bertpipe.tokenization import Vocabulary, make_vocabulary, vocab_digest


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

    @pytest.mark.parametrize("fields, message", [
        ({"max_predictions_per_seq": 0}, "max_predictions_per_seq must be >= 1, not 0"),
        ({"max_predictions_per_seq": -1}, "max_predictions_per_seq must be >= 1, not -1"),
        ({"mask_token_frac": 1.5, "random_token_frac": -0.5, "keep_token_frac": 0.0},
         "mask_token_frac must lie in [0, 1], not 1.5"),
        ({"mask_token_frac": -0.5, "random_token_frac": 0.0, "keep_token_frac": 1.5},
         "mask_token_frac must lie in [0, 1], not -0.5"),
        ({"mask_token_frac": 0.0, "random_token_frac": 1.5, "keep_token_frac": -0.5},
         "random_token_frac must lie in [0, 1], not 1.5"),
        ({"max_seq_length": 65536},
         "max_seq_length 65536 exceeds 65535, the largest instance file format version 3"),
    ])
    def test_out_of_range_fields_rejected(self, fields, message):
        with pytest.raises(ValueError) as info:
            MaskingPolicy(**fields)
        assert str(info.value).startswith(message)


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


needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML is built without libyaml")


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
        masked = list(iter_document_instances(3, text, policy, mini_vocab))
        windows = segment_document(tokenize(text, mini_vocab), policy)
        assert [window for window, _ in masked] == windows
        assert [len(copies) for _, copies in masked] == [10] * len(windows)
        first_window = masked[0][1]
        position_sets = {tuple(i.masked_positions) for i in first_window}
        assert len(position_sets) >= 2  # independent masking per dup at seed 42
        # Same underlying content: every copy rebuilds [CLS] window [SEP].
        rebuilt = set()
        for inst in first_window:
            ids = list(inst.input_ids)
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                ids[pos] = label
            rebuilt.add(tuple(ids))
        assert rebuilt == {(mini_vocab.cls_id, *windows[0], mini_vocab.sep_id)}

    def test_dup_factor_one(self, tmp_path, mini_vocab):
        text = "the new world of state and work " * 30
        policy = MaskingPolicy(dup_factor=1, seed=42)
        masked = list(iter_document_instances(3, text, policy, mini_vocab))
        from bertpipe.tokenization import tokenize

        assert len(masked) == len(segment_document(tokenize(text, mini_vocab), policy))
        assert [len(copies) for _, copies in masked] == [1] * len(masked)

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
        masked = list(iter_document_instances(3, text, policy, mini_vocab))
        windows = segment_document(tokenize(text, mini_vocab), policy)
        assert len(windows) >= 2
        assert sum(len(copies) for _, copies in masked) == 10 * len(windows)
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

    # sha256 of the instance files below, each preceded by its relative path.
    PINNED_INSTANCE_BYTES = "7979745029280ad5c748e05d810c683834aa6ec079746fc097af7dcad76225ab"

    def test_instance_bytes_are_pinned(self, tmp_path, mini_vocab):
        # Format v3 on a fixed synthdata corpus: a change to the layout, the
        # masking or the keyed draws shows here, at any worker count.
        sharding = self._shards(tmp_path, size=40_000)
        policy = MaskingPolicy(dup_factor=3, seed=42)
        for workers in (1, 2):
            gen = generate_instances(sharding.shards, policy, mini_vocab,
                                     tmp_path / f"p{workers}", "did", n_workers=workers)
            digest = hashlib.sha256()
            for f in gen.files:
                digest.update(instance_rel_path(f.split, f.index).encode() + f.path.read_bytes())
            assert (len(gen.files), digest.hexdigest()) == (3, self.PINNED_INSTANCE_BYTES)

    def test_vocabulary_sent_once_per_worker(self, tmp_path, mini_vocab, monkeypatch):
        # Counted in this process: a task's arguments are pickled here, and a
        # worker's initializer arguments too when workers are spawned.
        sharding = self._shards(tmp_path, size=60_000, num_train_shards=10,
                                num_test_shards=2)
        assert len(sharding.shards) >= 10
        pickles = []
        reduce_ex = Vocabulary.__reduce_ex__

        def counting(self, protocol):
            pickles.append(protocol)
            return reduce_ex(self, protocol)

        monkeypatch.setattr(Vocabulary, "__reduce_ex__", counting)
        policy = MaskingPolicy(dup_factor=1, seed=42)
        gen = generate_instances(sharding.shards, policy, mini_vocab,
                                 tmp_path / "p2", "did", n_workers=2)
        assert len(pickles) <= 2
        monkeypatch.undo()
        alone = generate_instances(sharding.shards, policy, mini_vocab,
                                   tmp_path / "p1", "did", n_workers=1)
        for f1, f2 in zip(alone.files, gen.files, strict=True):
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

    @needs_libyaml
    def test_meta_libyaml_and_python_agree(self, tmp_path, mini_vocab):
        sharding = self._shards(tmp_path, size=40_000)
        generate_instances(sharding.shards, MaskingPolicy(dup_factor=1, seed=42), mini_vocab,
                           tmp_path / "proc", "did")
        text = (tmp_path / "proc" / "META.yaml").read_text(encoding="utf-8")
        meta = load_meta(tmp_path / "proc")
        assert meta == yaml.load(text, Loader=yaml.SafeLoader)
        assert meta == yaml.load(text, Loader=yaml.CSafeLoader)

    def test_meta_round_trip_without_libyaml(self, tmp_path, mini_vocab, monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        monkeypatch.setattr(records, "_META_LOADER", yaml.SafeLoader)
        self.test_meta_contents(tmp_path, mini_vocab)


@functools.cache
def sized_vocab(size: int) -> Vocabulary:
    """A vocabulary of ``size`` entries: the five specials, then w0, w1, ..."""
    specials = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
    return make_vocabulary(specials + [f"w{i}" for i in range(size - len(specials))])


def masked_windows(windows, policy, vocab):
    """Each window with its dup_factor copies, drawn as the pipeline draws them."""
    out = []
    for index, window in enumerate(windows):
        rng = keyed_rng(policy.seed, index, "mask")
        out.append((window, [apply_masking(window, policy, vocab, rng)
                             for _ in range(policy.dup_factor)]))
    return out


def v3_file_size(windows, policy, vocab_size):
    """Header, then per window its shape, its ids and per copy positions + ids."""
    width = 2 if vocab_size <= 65536 else 4
    position = 1 if policy.max_seq_length <= 256 else 2
    return 34 + sum(4 + width * len(w) + policy.dup_factor * num_masked(len(w), policy)
                    * (position + width) for w in windows)


def test_instance_file_round_trip_property(tmp_path):
    # Reading a file back gives exactly what apply_masking made, at both id
    # widths and both position widths, and the file has the layout's size.
    path = tmp_path / "x.xbi"

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), seq_len=st.sampled_from([128, 512]),
           size=st.sampled_from([65_536, 65_537]), dup=st.integers(1, 10))
    def inner(data, seq_len, size, dup):
        vocab = sized_vocab(size)
        policy = MaskingPolicy(max_seq_length=seq_len, dup_factor=dup, seed=7)
        lengths = data.draw(st.lists(st.integers(1, seq_len - 2), max_size=3))
        windows = [data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
                   for n in lengths]
        masked = masked_windows(windows, policy, vocab)
        assert write_instance_file(path, masked, policy, vocab) == dup * len(windows)
        assert list(read_instances(path)) == [inst for _, copies in masked for inst in copies]
        assert path.stat().st_size == v3_file_size(windows, policy, size)

    inner()


class TestInstanceFiles:
    def _masked(self, mini_vocab, copies, length=30):
        window = [mini_vocab.token_to_id["world"]] * length
        return masked_windows([window], MaskingPolicy(dup_factor=copies), mini_vocab)[0]

    def test_round_trip(self, tmp_path, mini_vocab):
        window, original = self._masked(mini_vocab, 3)
        path = tmp_path / "x.xbi"
        count = write_instance_file(path, [(window, original)], MaskingPolicy(dup_factor=3),
                                    mini_vocab)
        loaded = list(read_instances(path))
        assert count == len(loaded) == 3
        assert loaded == original
        assert len({inst.masked_positions for inst in loaded}) > 1

    def test_header_magic(self, tmp_path, mini_vocab):
        path = tmp_path / "x.xbi"
        assert write_instance_file(path, [], MaskingPolicy(), mini_vocab) == 0
        raw = path.read_bytes()
        assert raw[:8] == b"XBINST01"
        # version, max_seq_length, id width, copies, [CLS], [SEP], windows, instances
        assert struct.unpack("<HHHIIIII", raw[8:]) == (
            3, 128, 2, 10, mini_vocab.cls_id, mini_vocab.sep_id, 0, 0)

    def test_truncated_file_reports_offset(self, tmp_path, mini_vocab):
        path = tmp_path / "x.xbi"
        write_instance_file(path, [self._masked(mini_vocab, 1)] * 2, MaskingPolicy(dup_factor=1),
                            mini_vocab)
        clipped = tmp_path / "clipped.xbi"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(InstanceFileError, match="byte offset"):
            list(read_instances(clipped))

    def test_truncated_record_offset_is_exact(self, tmp_path, mini_vocab):
        # Header 34 B; a window record is its two u16 counts and 30 u16 ids,
        # then per copy n_masked u8 positions and n_masked u16 ids.
        policy = MaskingPolicy(dup_factor=2)
        masked = self._masked(mini_vocab, 2)
        n_masked = num_masked(30, policy)
        assert n_masked == 4
        record = 2 * (2 + 30) + 2 * n_masked * (1 + 2)
        path = tmp_path / "x.xbi"
        assert write_instance_file(path, [masked, masked], policy, mini_vocab) == 4
        assert path.stat().st_size == 34 + 2 * record
        clipped = tmp_path / "clipped.xbi"
        clipped.write_bytes(path.read_bytes()[:-1])
        second_body = 34 + record + 4
        with pytest.raises(InstanceFileError, match=f"at byte offset {second_body}$"):
            list(read_instances(clipped))

    def test_wide_ids_round_trip(self, tmp_path):
        vocab = sized_vocab(70_001)
        policy = MaskingPolicy(dup_factor=2)
        masked = masked_windows([[65535, 65536, 70_000, 5, 69_999, 6, 7, 8]], policy, vocab)
        path = tmp_path / "x.xbi"
        write_instance_file(path, masked, policy, vocab)
        raw = path.read_bytes()
        assert struct.unpack("<H", raw[12:14]) == (4,)
        assert len(raw) == 34 + 4 + 4 * 8 + 2 * 1 * (1 + 4)
        assert list(read_instances(path)) == masked[0][1]

    def test_u16_width_up_to_65536_entries(self, tmp_path):
        vocab = sized_vocab(65536)
        policy = MaskingPolicy(dup_factor=1)
        masked = masked_windows([[65535, 5, 65534]], policy, vocab)
        path = tmp_path / "x.xbi"
        write_instance_file(path, masked, policy, vocab)
        raw = path.read_bytes()
        assert struct.unpack("<H", raw[12:14]) == (2,)
        assert len(raw) == 34 + 4 + 2 * 3 + 1 * (1 + 2)
        assert list(read_instances(path)) == masked[0][1]

    def test_version_1_file_rejected(self, tmp_path):
        # A version 1 header followed by one padded record, as older builds wrote it.
        v1 = tmp_path / "v1.xbi"
        v1.write_bytes(struct.pack("<8sHHI", b"XBINST01", 1, 4, 1)
                       + struct.pack("<4IHHHI", 1, 7, 2, 0, 3, 1, 1, 9))
        with pytest.raises(InstanceFileError, match="unsupported instance format version 1 "):
            list(read_instances(v1))

    def test_version_2_file_rejected(self, tmp_path):
        # A version 2 header and one record (ids, positions and labels, all
        # u16), as the previous format stored every copy whole.
        v2 = tmp_path / "v2.xbi"
        v2.write_bytes(struct.pack("<8sHHHI", b"XBINST01", 2, 128, 2, 1)
                       + struct.pack("<HH3HHH", 3, 1, 2, 4, 3, 1, 7))
        with pytest.raises(InstanceFileError,
                           match=f"^unsupported instance format version 2 in {v2}$"):
            list(read_instances(v2))

    def test_wrong_copy_count_rejected(self, tmp_path, mini_vocab):
        path = tmp_path / "x.xbi"
        with pytest.raises(ValueError, match="a window has 2 copies, not 3"):
            write_instance_file(path, [self._masked(mini_vocab, 2)], MaskingPolicy(dup_factor=3),
                                mini_vocab)
        assert list(tmp_path.iterdir()) == []

    def test_position_outside_window_rejected(self, tmp_path, mini_vocab):
        # A position past the window would overwrite [SEP]; the reader names the window.
        path = tmp_path / "x.xbi"
        write_instance_file(path, [self._masked(mini_vocab, 1, length=8)],
                            MaskingPolicy(dup_factor=1), mini_vocab)
        raw = bytearray(path.read_bytes())
        assert len(raw) == 34 + 4 + 2 * 8 + 1 + 2
        raw[34 + 4 + 2 * 8] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(InstanceFileError, match="position out of window .* byte offset 34$"):
            list(read_instances(path))
        # Over [CLS], and far past the window's end.
        for position in (0, 200):
            raw[34 + 4 + 2 * 8] = position
            path.write_bytes(bytes(raw))
            with pytest.raises(InstanceFileError,
                               match="position out of window .* byte offset 34$"):
                list(read_instances(path))

    def test_damaged_counts_fail_before_a_huge_read(self, tmp_path, mini_vocab):
        # Copy and instance counts that agree but are far too large end in a
        # truncation error at the window's body, not in a read of that size.
        path = tmp_path / "x.xbi"
        write_instance_file(path, [self._masked(mini_vocab, 1, length=8)],
                            MaskingPolicy(dup_factor=1), mini_vocab)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 14, 2**32 - 1)  # copies per window
        struct.pack_into("<I", raw, 30, 2**32 - 1)  # instances, for its one window
        path.write_bytes(bytes(raw))
        with pytest.raises(InstanceFileError, match="truncated instance file .* byte offset 38$"):
            list(read_instances(path))

    def test_failed_write_leaves_no_file(self, tmp_path, mini_vocab):
        path = tmp_path / "x.xbi"
        seen_mid_file = []

        def failing():
            yield self._masked(mini_vocab, 2)
            # What a killed process would leave behind at this point.
            seen_mid_file.append(path.exists())
            raise RuntimeError("tokenizer crashed")

        with pytest.raises(RuntimeError, match="tokenizer crashed"):
            write_instance_file(path, failing(), MaskingPolicy(dup_factor=2), mini_vocab)
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
