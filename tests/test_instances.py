from __future__ import annotations

import functools
import hashlib
import math
import struct

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

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
        # The fixed recipe: 80/10/10 replacement (keep is the rest), 8-id minimum window.
        shares = (instances_module.MASK_TOKEN_SHARE, instances_module.RANDOM_TOKEN_SHARE)
        assert shares == (0.8, 0.1)
        assert instances_module.MIN_WINDOW_TOKENS == 8

    def test_cap_vs_seq_length(self):
        with pytest.raises(ValueError, match="max_predictions_per_seq"):
            MaskingPolicy(max_predictions_per_seq=127, max_seq_length=128)

    @pytest.mark.parametrize("fields, message", [
        ({"max_predictions_per_seq": 0}, "max_predictions_per_seq must be >= 1, not 0"),
        ({"max_predictions_per_seq": -1}, "max_predictions_per_seq must be >= 1, not -1"),
        ({"max_seq_length": 65536},
         "max_seq_length 65536 exceeds 65535, the largest instance file format version 4"),
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


def expected_instances(window, copies, vocab):
    """The instances a file holds for ``window`` and its masked copies.

    Built here from the format's definition, so the reader is checked against
    code that is neither the reader nor the writer: [MASK] at each mask
    position, the stored id at each replace position, the label elsewhere.
    """
    out = []
    for masks, replaces, keeps, ids in copies:
        input_ids = [vocab.cls_id, *window, vocab.sep_id]
        for pos in masks:
            input_ids[pos] = vocab.mask_id
        for pos, token in zip(replaces, ids, strict=True):
            input_ids[pos] = token
        positions = tuple(sorted(masks + replaces + keeps))
        labels = tuple(window[pos - 1] for pos in positions)
        out.append(MlmInstance(tuple(input_ids), len(window) + 2, positions, labels))
    return out


def copy_positions(copy):
    """A masked copy's positions, ascending, whatever their action."""
    masks, replaces, keeps, _ = copy
    return sorted(masks + replaces + keeps)


def replaced_count(copies):
    return sum(len(replaces) for _, replaces, _, _ in copies)


def write_then_read(path, window, copies, vocab):
    """Write one window with its copies to ``path``; the instances read back."""
    write_instance_file(path, [(window, copies)], MaskingPolicy(dup_factor=len(copies)), vocab)
    return list(read_instances(path))


def assert_framed(inst, window, vocab):
    """[CLS] window [SEP] without padding, with each label the window's id."""
    assert inst.attention_len == len(inst.input_ids) == len(window) + 2
    assert inst.input_ids[0] == vocab.cls_id
    assert inst.input_ids[inst.attention_len - 1] == vocab.sep_id
    assert vocab.pad_id not in inst.input_ids
    assert list(inst.masked_labels) == [window[pos - 1] for pos in inst.masked_positions]
    # Reconstruction: writing labels back restores the original window.
    rebuilt = list(inst.input_ids)
    for pos, label in zip(inst.masked_positions, inst.masked_labels):
        rebuilt[pos] = label
    assert rebuilt[1 : inst.attention_len - 1] == window


class TestApplyMasking:
    def test_framing_and_count(self, tmp_path, mini_vocab):
        window = [mini_vocab.token_to_id["the"]] * 126
        copy = apply_masking(window, MaskingPolicy(), mini_vocab, keyed_rng(1, 0, "mask"))
        positions = copy_positions(copy)
        assert len(positions) == 19
        assert len(copy[1]) == len(copy[3])  # one stored id per replace position
        [inst] = write_then_read(tmp_path / "x.xbi", window, [copy], mini_vocab)
        assert len(inst.input_ids) == inst.attention_len == 128
        assert_framed(inst, window, mini_vocab)
        assert list(inst.masked_positions) == positions
        assert len(inst.masked_labels) == 19

    def test_padding(self, tmp_path, mini_vocab):
        # No padding is stored: attention_len implies it.
        window = [mini_vocab.token_to_id["the"]] * 10
        copy = apply_masking(window, MaskingPolicy(), mini_vocab, keyed_rng(1, 0, "mask"))
        [inst] = write_then_read(tmp_path / "x.xbi", window, [copy], mini_vocab)
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

    def test_positions_valid_and_labels_consistent(self, tmp_path, mini_vocab):
        window = list(range(20, 120))
        copy = apply_masking(window, MaskingPolicy(), mini_vocab, keyed_rng(9, 1, "mask"))
        masks, replaces, keeps, ids = copy
        for group in (masks, replaces, keeps):
            assert group == sorted(group)
        positions = copy_positions(copy)
        assert positions == sorted(set(positions))
        assert all(1 <= pos <= len(window) for pos in positions)
        [inst] = write_then_read(tmp_path / "x.xbi", window, [copy], mini_vocab)
        assert list(inst.masked_positions) == positions
        assert [inst.input_ids[pos] for pos in masks] == [mini_vocab.mask_id] * len(masks)
        assert [inst.input_ids[pos] for pos in replaces] == ids
        assert [inst.input_ids[pos] for pos in keeps] == [window[pos - 1] for pos in keeps]
        assert_framed(inst, window, mini_vocab)

    def test_does_not_hash_the_vocabulary(self, mini_vocab, monkeypatch):
        def no_hash(self):
            raise AssertionError("the vocabulary was hashed")

        monkeypatch.setattr(Vocabulary, "__hash__", no_hash)
        window = list(range(20, 120))
        copy = apply_masking(window, MaskingPolicy(), mini_vocab, keyed_rng(9, 1, "mask"))
        assert len(copy_positions(copy)) == 15
        # This key reaches the random-replacement branch, which draws a vocabulary id.
        assert copy[1] and len(copy[1]) == len(copy[3])


def reference_masking(window, k, vocab, rng):
    """The masking recipe through ``rng.sample`` and ``rng.choice`` themselves.

    ``apply_masking`` spells these two out over ``getrandbits``; it must
    draw the same values in the same order, leaving the rng in the same state.
    """
    masks, replaces, keeps, ids = [], [], [], []
    for pos in sorted(rng.sample(range(1, len(window) + 1), k)):
        roll = rng.random()
        if roll < 0.8:
            masks.append(pos)
        elif roll < 0.9:
            replaces.append(pos)
            ids.append(rng.choice(vocab.non_special_ids))
        else:
            keeps.append(pos)
    return masks, replaces, keeps, ids


def sample_setsize(k):
    """The population size up to which ``random.sample`` uses its pool method."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def test_apply_masking_equals_sample_and_choice_property(mini_vocab):
    # k is set through the policy's cap at a masking rate that rounds to n.
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), data=st.data(), key=st.integers(0, 2**40), copies=st.integers(1, 3))
    # n <= 21; both sides of the k <= 5 and k = 6 setsize boundaries (21 and 85);
    # a k whose set fills its table (setsize 277).
    @example(n=7, data=None, key=1, copies=2)
    @example(n=21, data=None, key=2, copies=1)
    @example(n=22, data=None, key=3, copies=1)
    @example(n=85, data=None, key=4, copies=1)
    @example(n=86, data=None, key=5, copies=1)
    @example(n=277, data=None, key=6, copies=1)
    @example(n=278, data=None, key=7, copies=1)
    def inner(n, data, key, copies):
        boundary = {7: 5, 21: 5, 22: 5, 85: 6, 86: 6, 277: 22, 278: 22}
        k = data.draw(st.integers(1, n)) if data is not None else boundary[n]
        policy = MaskingPolicy(masked_lm_prob=0.999, max_predictions_per_seq=k,
                               max_seq_length=n + 2)
        assert num_masked(n, policy) == k
        window = [(7 * (i + 1)) % (len(mini_vocab) - 6) + 5 for i in range(n)]
        mine, theirs = keyed_rng(key, "mask"), keyed_rng(key, "mask")
        for _ in range(copies):
            got = apply_masking(window, policy, mini_vocab, mine)
            assert got == reference_masking(window, k, mini_vocab, theirs)
        assert mine.getstate() == theirs.getstate()

    inner()
    # The examples sit on both sides of each boundary they name.
    assert (sample_setsize(5), sample_setsize(6), sample_setsize(22)) == (21, 85, 277)


def test_masking_invariants_property(tmp_path, mini_vocab):
    policy = MaskingPolicy()
    path = tmp_path / "x.xbi"

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(8, 126),
        key=st.tuples(st.integers(0, 2**40), st.integers(0, 50), st.integers(0, 9)),
    )
    def inner(length, key):
        window = [(17 * (i + 1)) % (len(mini_vocab) - 6) + 5 for i in range(length)]
        copy = apply_masking(window, policy, mini_vocab, keyed_rng(*key, "mask"))
        positions = copy_positions(copy)
        assert len(positions) <= policy.max_predictions_per_seq
        assert len(positions) == num_masked(length, policy)
        assert len(copy[1]) == len(copy[3])
        for pos in positions:
            assert 1 <= pos <= length
        [inst] = write_then_read(path, window, [copy], mini_vocab)
        assert_framed(inst, window, mini_vocab)
        assert inst == expected_instances(window, [copy], mini_vocab)[0]

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
        position_sets = {tuple(copy_positions(copy)) for copy in first_window}
        assert len(position_sets) >= 2  # independent masking per dup at seed 42
        # Same underlying content: every copy, written and read back, rebuilds
        # [CLS] window [SEP].
        for inst in write_then_read(tmp_path / "x.xbi", windows[0], first_window, mini_vocab):
            assert_framed(inst, windows[0], mini_vocab)

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
    PINNED_INSTANCE_BYTES = "6b16755f07d2a5b364fc0621146db9e2e80051ebd3f3cf9bdd2c3218a5faf557"
    # sha256 of repr(tuple(instance)) for every instance they decode to, in
    # file order. Format v3 decoded to the same stream: a new layout changes
    # the bytes above, never this.
    PINNED_INSTANCE_STREAM = "13639f9c93344f4337c6a53ed0325556208f77c7bf0877841edc74dddb63bf1d"

    def test_instance_bytes_are_pinned(self, tmp_path, mini_vocab):
        # Format v4 on a fixed synthdata corpus: a change to the layout, the
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

    def test_instance_stream_is_pinned(self, tmp_path, mini_vocab):
        # The same corpus and policy as above, compared by what the files decode to.
        sharding = self._shards(tmp_path, size=40_000)
        policy = MaskingPolicy(dup_factor=3, seed=42)
        for workers in (1, 2):
            gen = generate_instances(sharding.shards, policy, mini_vocab,
                                     tmp_path / f"p{workers}", "did", n_workers=workers)
            digest, count = hashlib.sha256(), 0
            for f in gen.files:
                for inst in read_instances(f.path):
                    digest.update(repr(tuple(inst)).encode())
                    count += 1
            assert (count, digest.hexdigest()) == (327, self.PINNED_INSTANCE_STREAM)

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


def v4_file_size(masked, policy, vocab_size):
    """Header, then per window its shape and ids, per copy its two counts and
    positions, and the ids of its replace positions."""
    width = 2 if vocab_size <= 65536 else 4
    position = 1 if policy.max_seq_length <= 256 else 2
    return 38 + sum(4 + width * len(w) + policy.dup_factor * (2 + num_masked(len(w), policy))
                    * position + width * replaced_count(copies) for w, copies in masked)


def test_instance_file_round_trip_property(tmp_path):
    # Reading a file back gives exactly the instances apply_masking's copies
    # define, at both id widths and both position widths, and the file has
    # the layout's size.
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
        assert list(read_instances(path)) == [
            inst for window, copies in masked for inst in expected_instances(window, copies, vocab)]
        assert path.stat().st_size == v4_file_size(masked, policy, size)

    inner()


def assert_rejected(path, vocab, pattern):
    """Both readers reject ``path`` with one InstanceFileError, message and offset included."""
    messages = []
    for read in (lambda: list(read_instances(path)), lambda: mask_rate_report([path], vocab)):
        with pytest.raises(InstanceFileError, match=pattern) as info:
            read()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


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
        assert loaded == expected_instances(window, original, mini_vocab)
        assert len({inst.masked_positions for inst in loaded}) > 1

    def test_header_magic(self, tmp_path, mini_vocab):
        path = tmp_path / "x.xbi"
        assert write_instance_file(path, [], MaskingPolicy(), mini_vocab) == 0
        raw = path.read_bytes()
        assert raw[:8] == b"XBINST01"
        # version, max_seq_length, id width, copies, [CLS], [SEP], [MASK], windows, instances
        assert struct.unpack("<HHHIIIIII", raw[8:]) == (
            4, 128, 2, 10, mini_vocab.cls_id, mini_vocab.sep_id, mini_vocab.mask_id, 0, 0)

    def test_truncated_file_reports_offset(self, tmp_path, mini_vocab):
        path = tmp_path / "x.xbi"
        write_instance_file(path, [self._masked(mini_vocab, 1)] * 2, MaskingPolicy(dup_factor=1),
                            mini_vocab)
        clipped = tmp_path / "clipped.xbi"
        clipped.write_bytes(path.read_bytes()[:-10])
        assert_rejected(clipped, mini_vocab, "byte offset")

    def test_truncated_record_offset_is_exact(self, tmp_path, mini_vocab):
        # Header 38 B; a window record is its two u16 counts and 30 u16 ids,
        # then per copy two u8 counts and n_masked u8 positions, then a u16 id
        # per replace position.
        policy = MaskingPolicy(dup_factor=2)
        masked = self._masked(mini_vocab, 2)
        n_masked = num_masked(30, policy)
        assert n_masked == 4
        replaced = replaced_count(masked[1])
        assert replaced == 1
        copies_end = 2 * (2 + 30) + 2 * (2 + n_masked)
        record = copies_end + 2 * replaced
        path = tmp_path / "x.xbi"
        assert write_instance_file(path, [masked, masked], policy, mini_vocab) == 4
        assert path.stat().st_size == 38 + 2 * record
        # Cut into the second window's replacement ids, then into its copies.
        clipped = tmp_path / "clipped.xbi"
        clipped.write_bytes(path.read_bytes()[:-1])
        assert_rejected(clipped, mini_vocab, f"at byte offset {38 + record + copies_end}$")
        clipped.write_bytes(path.read_bytes()[:-2 * replaced - 1])
        assert_rejected(clipped, mini_vocab, f"at byte offset {38 + record + 4}$")

    def test_wide_ids_round_trip(self, tmp_path):
        vocab = sized_vocab(70_001)
        policy = MaskingPolicy(dup_factor=2)
        masked = masked_windows([[65535, 65536, 70_000, 5, 69_999, 6, 7, 8]], policy, vocab)
        path = tmp_path / "x.xbi"
        write_instance_file(path, masked, policy, vocab)
        raw = path.read_bytes()
        assert struct.unpack("<H", raw[12:14]) == (4,)
        assert len(raw) == 38 + 4 + 4 * 8 + 2 * (2 + 1) + 4 * replaced_count(masked[0][1])
        assert list(read_instances(path)) == expected_instances(*masked[0], vocab)

    def test_u16_width_up_to_65536_entries(self, tmp_path):
        vocab = sized_vocab(65536)
        policy = MaskingPolicy(dup_factor=1)
        masked = masked_windows([[65535, 5, 65534]], policy, vocab)
        path = tmp_path / "x.xbi"
        write_instance_file(path, masked, policy, vocab)
        raw = path.read_bytes()
        assert struct.unpack("<H", raw[12:14]) == (2,)
        assert len(raw) == 38 + 4 + 2 * 3 + (2 + 1) + 2 * replaced_count(masked[0][1])
        assert list(read_instances(path)) == expected_instances(*masked[0], vocab)

    def test_version_1_file_rejected(self, tmp_path, mini_vocab):
        # A version 1 header followed by one padded record, as older builds wrote it.
        v1 = tmp_path / "v1.xbi"
        v1.write_bytes(struct.pack("<8sHHI", b"XBINST01", 1, 4, 1)
                       + struct.pack("<4IHHHI", 1, 7, 2, 0, 3, 1, 1, 9))
        assert_rejected(v1, mini_vocab, "unsupported instance format version 1 ")

    def test_version_2_file_rejected(self, tmp_path, mini_vocab):
        # A version 2 header and one record (ids, positions and labels, all
        # u16), as the previous format stored every copy whole.
        v2 = tmp_path / "v2.xbi"
        v2.write_bytes(struct.pack("<8sHHHI", b"XBINST01", 2, 128, 2, 1)
                       + struct.pack("<HH3HHH", 3, 1, 2, 4, 3, 1, 7))
        assert_rejected(v2, mini_vocab, f"^unsupported instance format version 2 in {v2}$")

    def test_version_3_file_rejected(self, tmp_path, mini_vocab):
        # A version 3 header (no [MASK] id) and one window whose copy stores
        # the input id at its one position, as the previous format did.
        v3 = tmp_path / "v3.xbi"
        v3.write_bytes(struct.pack("<8sHHHIIIII", b"XBINST01", 3, 128, 2, 1, 2, 3, 1, 1)
                       + struct.pack("<HH8HBH", 8, 1, *range(20, 28), 3, 4))
        assert_rejected(v3, mini_vocab, f"^unsupported instance format version 3 in {v3}$")

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
        # Header, shape, 8 ids, the copy's two counts and its one position.
        position_at = 38 + 4 + 2 * 8 + 2
        assert len(raw) in (position_at + 1, position_at + 1 + 2)
        raw[position_at] = 9
        path.write_bytes(bytes(raw))
        assert_rejected(path, mini_vocab, "position out of window .* byte offset 38$")
        # Over [CLS], and far past the window's end.
        for position in (0, 200):
            raw[position_at] = position
            path.write_bytes(bytes(raw))
            assert_rejected(path, mini_vocab, "position out of window .* byte offset 38$")

    def test_action_counts_past_the_copy_rejected(self, tmp_path, mini_vocab):
        # A mask count larger than the copy's positions would read the next
        # copy's: the reader names the copy's byte offset.
        path = tmp_path / "x.xbi"
        copies = [([1, 5], [], [3], []), ([2], [4], [6], [40])]
        write_instance_file(path, [(list(range(20, 30)), copies)],
                            MaskingPolicy(dup_factor=2), mini_vocab)
        raw = bytearray(path.read_bytes())
        second_copy = 38 + 4 + 2 * 10 + (2 + 3)
        assert raw[second_copy:second_copy + 5] == bytes([1, 1, 2, 4, 6])
        raw[second_copy] = 3
        path.write_bytes(bytes(raw))
        assert_rejected(path, mini_vocab, f"bad action counts in .* at byte offset {second_copy}$")

    def test_damaged_counts_fail_before_a_huge_read(self, tmp_path, mini_vocab):
        # Copy and instance counts that agree but are far too large end in a
        # truncation error at the window's body, not in a read of that size.
        path = tmp_path / "x.xbi"
        write_instance_file(path, [self._masked(mini_vocab, 1, length=8)],
                            MaskingPolicy(dup_factor=1), mini_vocab)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 14, 2**32 - 1)  # copies per window
        struct.pack_into("<I", raw, 34, 2**32 - 1)  # instances, for its one window
        path.write_bytes(bytes(raw))
        assert_rejected(path, mini_vocab, "truncated instance file .* byte offset 42$")

    @pytest.mark.parametrize("offset, layout, values, message", [
        (0, "<8s", (b"XBINST02",), "^bad instance magic in .* at byte offset 0$"),
        (12, "<H", (3,), "^bad id width 3 in .* at byte offset 12$"),
        (14, "<I", (0,), "^1 instances for 1 windows of 0 copies in .* at byte offset 34$"),
        (34, "<I", (2,), "^2 instances for 1 windows of 1 copies in .* at byte offset 34$"),
        (38, "<HH", (8, 9), r"^bad window shape \(8, 9\) in .* at byte offset 38$"),
        (38, "<HH", (127, 1), r"^bad window shape \(127, 1\) in .* at byte offset 38$"),
    ])
    def test_damaged_header_or_shape_rejected(self, tmp_path, mini_vocab, offset, layout, values,
                                              message):
        path = tmp_path / "x.xbi"
        write_instance_file(path, [self._masked(mini_vocab, 1, length=8)],
                            MaskingPolicy(dup_factor=1), mini_vocab)
        raw = bytearray(path.read_bytes())
        struct.pack_into(layout, raw, offset, *values)
        path.write_bytes(bytes(raw))
        assert_rejected(path, mini_vocab, message)

    @pytest.mark.parametrize("kept, offset", [(5, 0), (20, 10)])
    def test_truncated_header_rejected(self, tmp_path, mini_vocab, kept, offset):
        path = tmp_path / "x.xbi"
        write_instance_file(path, [], MaskingPolicy(), mini_vocab)
        path.write_bytes(path.read_bytes()[:kept])
        assert_rejected(path, mini_vocab, f"^truncated instance file .* at byte offset {offset}$")

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


def test_mask_rate_report_sorts_each_position_once(tmp_path, mini_vocab):
    # Each position counts once, under the action its copy stored: a kept
    # [MASK] label is a keep, not a mask.
    mask = mini_vocab.mask_id
    window = [mask, 20, 21, 22, 23, 24, 25, 26, 27, 28]
    copies = [([1], [], [2], []), ([], [2], [1], [30])]
    path = tmp_path / "x.xbi"
    write_instance_file(path, [(window, copies)], MaskingPolicy(dup_factor=2), mini_vocab)
    report = mask_rate_report([path], mini_vocab)
    assert (report.instance_count, report.masked_position_count) == (2, 4)
    assert (report.action_mask_fraction, report.action_keep_fraction,
            report.action_random_fraction) == (0.25, 0.5, 0.25)


def test_mask_rate_report_counts_a_replacement_that_drew_its_label(tmp_path, mini_vocab):
    # Position 2 was replaced by a random draw that happened to be its label, 21.
    window = list(range(20, 30))
    path = tmp_path / "x.xbi"
    write_instance_file(path, [(window, [([1], [2], [3], [21])])], MaskingPolicy(dup_factor=1),
                        mini_vocab)
    [inst] = read_instances(path)
    assert inst.input_ids[2] == inst.masked_labels[1] == 21
    report = mask_rate_report([path], mini_vocab)
    assert (report.action_mask_fraction, report.action_random_fraction,
            report.action_keep_fraction) == (1 / 3, 1 / 3, 1 / 3)


def test_mask_rate_report_rejects_another_vocabulary(tmp_path, mini_vocab):
    path = tmp_path / "x.xbi"
    write_instance_file(path, [(list(range(20, 30)), [([1], [2], [3], [40])])],
                        MaskingPolicy(dup_factor=1), mini_vocab)
    # The same specials in another order: [MASK], [CLS] and [SEP] have other ids.
    other = make_vocabulary(["[PAD]", "[UNK]", "[MASK]", "[CLS]", "[SEP]",
                             *mini_vocab.tokens[5:]])
    assert (other.cls_id, other.sep_id, other.mask_id) == (3, 4, 2)
    assert (mini_vocab.cls_id, mini_vocab.sep_id, mini_vocab.mask_id) == (2, 3, 4)
    with pytest.raises(InstanceFileError, match=f"^instance file {path} has "):
        mask_rate_report([path], other)
