"""Pre-masked MLM instance generation from shards (static masking).

Each document is tokenized, cut into consecutive windows of at most
max_seq_length - 2 ids (leaving room for [CLS]/[SEP]), and every window is
masked ``dup_factor`` times, compensating for the diversity lost by masking
at preprocessing time instead of per epoch. The recipe is fixed: a chosen
position becomes [MASK] with probability ``MASK_TOKEN_SHARE`` (0.8), a random
non-special token with ``RANDOM_TOKEN_SHARE`` (0.1), and stays unchanged
otherwise (the remaining 0.1); a document's final window is kept only if it
holds at least ``MIN_WINDOW_TOKENS`` (8) ids. The masking policy sets only
the masking rate, the window and prediction caps, ``dup_factor`` and the seed.

All randomness is keyed by (seed, doc_id, window_idx): one keyed stream per
window, from which copies 0..dup_factor-1 are drawn in order. Instance files
are therefore byte-identical for any worker count and schedule. Windows
never span documents and no next-sentence pairing is performed: one window,
framed with [CLS]/[SEP], is one training instance; padding to max_seq_length
is left to the consumer, since attention_len implies it.

Instance file format (version 3), all little-endian. A 34-byte header:
magic "XBINST01", format version u16, max_seq_length u16, id width u16 (2
when the vocabulary has at most 65536 entries, else 4), copies per window
(dup_factor) u32, the [CLS] and [SEP] ids u32, window count u32 and instance
count u32. Then per window: its length u16, n_masked u16 (one value for all
copies, since num_masked depends only on the window length) and its ids,
stored once; then per copy its n_masked positions and the input id at each
of them, just what masking yields per copy. Positions are u8 when
max_seq_length <= 256, else u16; ids are id-width ints. Labels are not
stored: ``read_instances`` yields each copy as an ``MlmInstance`` whose input
ids are [CLS] window [SEP] with the stored ids at its positions, and whose
label at position p is window[p - 1].
"""

from __future__ import annotations

import mmap
import os
import random
import struct
from dataclasses import asdict, dataclass
from operator import eq, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import yaml

from .atomic import replace_when_done
from .records import (
    INSTANCE_FORMAT_VERSION, META_NAME, InstanceFileError, MaskingPolicy, load_meta,
)
from .rng import keyed_rng
from .sharding import Shard, read_shard
from .tokenization import Vocabulary, tokenize, vocab_digest

INSTANCE_MAGIC = b"XBINST01"
_VERSION = struct.Struct("<8sH")
# max_seq_length, id width, copies per window, [CLS] id, [SEP] id, windows, instances
_LAYOUT = struct.Struct("<HHIIIII")
_SHAPE = struct.Struct("<HH")  # window length, n_masked
_ID_CODES = {2: "H", 4: "I"}

# The standard BERT replacement split (Devlin et al., 2019); keep is the rest.
MASK_TOKEN_SHARE = 0.8
RANDOM_TOKEN_SHARE = 0.1
MIN_WINDOW_TOKENS = 8


class MlmInstance(NamedTuple):
    """One pre-masked training example, [CLS] ... [SEP] without padding.

    What ``read_instances`` yields, one per instance: a named tuple, several
    times cheaper to build than a frozen dataclass.
    """

    input_ids: tuple[int, ...]
    attention_len: int
    masked_positions: tuple[int, ...]
    masked_labels: tuple[int, ...]


def segment_document(tokens: Iterable[int], policy: MaskingPolicy) -> list[list[int]]:
    """Cut a document's token ids into consecutive windows.

    Windows hold at most max_seq_length - 2 ids; a final short window is kept
    only if it has at least ``MIN_WINDOW_TOKENS`` ids.
    """
    ids = list(tokens)
    size = policy.window_size
    windows = [ids[start : start + size] for start in range(0, len(ids), size)]
    if windows and len(windows[-1]) < MIN_WINDOW_TOKENS:
        windows.pop()
    return windows


def num_masked(window_len: int, policy: MaskingPolicy) -> int:
    """Masked positions per window: round(prob * len), floored at 1, capped."""
    return min(policy.max_predictions_per_seq, max(1, round(policy.masked_lm_prob * window_len)))


# One masked copy of a window: its sorted positions in [CLS] window [SEP]
# (so window[pos - 1] is the label at pos) and the input id at each of them.
MaskedCopy = tuple[list[int], list[int]]
# One window's ids and its dup_factor masked copies, in copy order.
MaskedWindow = tuple[list[int], list[MaskedCopy]]


def apply_masking(
    window: list[int],
    policy: MaskingPolicy,
    vocab: Vocabulary,
    rng: random.Random,
) -> MaskedCopy:
    """Mask one window with draws taken from ``rng``.

    Position choice is uniform without replacement; each chosen position is
    replaced by [MASK] with ``MASK_TOKEN_SHARE`` probability, by a uniformly
    random non-special vocab id with ``RANDOM_TOKEN_SHARE``, and kept
    otherwise. Successive calls on one rng give independent copies of the
    window.
    """
    if not window:
        raise ValueError("cannot mask an empty window")
    if len(window) > policy.window_size:
        raise ValueError(f"window of {len(window)} ids exceeds max_seq_length - 2")
    positions = sorted(rng.sample(range(1, len(window) + 1), num_masked(len(window), policy)))

    mask_below, random_below = MASK_TOKEN_SHARE, MASK_TOKEN_SHARE + RANDOM_TOKEN_SHARE
    ids = []
    for pos in positions:
        roll = rng.random()
        if roll < mask_below:
            ids.append(vocab.mask_id)
        elif roll < random_below:
            ids.append(rng.choice(vocab.non_special_ids))
        else:
            ids.append(window[pos - 1])
    return positions, ids


def iter_document_instances(
    doc_id: int,
    text: str,
    policy: MaskingPolicy,
    vocab: Vocabulary,
) -> Iterator[MaskedWindow]:
    """A document's windows, each with its dup_factor masked copies."""
    for window_idx, window in enumerate(segment_document(tokenize(text, vocab).ids, policy)):
        rng = keyed_rng(policy.seed, doc_id, window_idx, "mask")
        yield window, [apply_masking(window, policy, vocab, rng)
                       for _ in range(policy.dup_factor)]


def _formats(length: int, n_masked: int, width: int, max_seq_length: int) -> tuple[str, str, str]:
    """struct formats of a window's ids, one copy's positions and that copy's ids there."""
    id_code, pos_code = _ID_CODES[width], "B" if max_seq_length <= 256 else "H"
    return f"{length}{id_code}", f"{n_masked}{pos_code}", f"{n_masked}{id_code}"


def write_instance_file(path: Path, windows: Iterable[MaskedWindow],
                        policy: MaskingPolicy, vocab: Vocabulary) -> int:
    """Stream masked windows into one file; returns the instance count.

    Each window comes with its ``policy.dup_factor`` copies, as
    ``apply_masking`` made them from it: per copy its positions and the input
    ids there, packed as given. ``read_instances`` rebuilds each copy from
    them as an ``MlmInstance``. One window's copies are held at a time, and
    the file appears at ``path`` only once every window is written.
    """
    width = 2 if len(vocab) <= 1 << 16 else 4
    copies = policy.dup_factor

    def header(n_windows: int) -> bytes:
        return _VERSION.pack(INSTANCE_MAGIC, INSTANCE_FORMAT_VERSION) + _LAYOUT.pack(
            policy.max_seq_length, width, copies, vocab.cls_id, vocab.sep_id, n_windows,
            n_windows * copies)

    # One struct per window shape; n_masked follows the window length, so a
    # file needs at most max_seq_length - 2 of them.
    records: dict[tuple[int, int], struct.Struct] = {}
    n_windows = 0
    with replace_when_done(path) as fh:
        fh.write(header(0))
        for window, masked in windows:
            if len(masked) != copies:
                raise ValueError(f"a window has {len(masked)} copies, not {copies}")
            shape = (len(window), len(masked[0][0]))
            record = records.get(shape)
            if record is None:
                ids_format, positions_format, copy_ids_format = _formats(
                    *shape, width, policy.max_seq_length)
                record = records[shape] = struct.Struct(
                    "<HH" + ids_format + (positions_format + copy_ids_format) * copies)
            values = [*shape, *window]
            for positions, ids in masked:
                values += positions
                values += ids
            fh.write(record.pack(*values))
            n_windows += 1
        fh.seek(0)
        fh.write(header(n_windows))
    return n_windows * copies


def read_instances(path: str | Path) -> Iterator[MlmInstance]:
    """Iterate the instances of one file; malformed data raises with the offset.

    Windows are decoded from a read-only memory map of the file: no read
    call per window, and no copy of the file in memory.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InstanceFileError(f"cannot open instance file {path}: {exc}") from exc
    with fh:
        head = fh.read(_VERSION.size + _LAYOUT.size)
        if len(head) < _VERSION.size:
            raise InstanceFileError(f"truncated instance file {path} at byte offset 0")
        magic, version = _VERSION.unpack_from(head)
        if magic != INSTANCE_MAGIC:
            raise InstanceFileError(f"bad instance magic in {path} at byte offset 0")
        if version != INSTANCE_FORMAT_VERSION:
            raise InstanceFileError(f"unsupported instance format version {version} in {path}")
        if len(head) < _VERSION.size + _LAYOUT.size:
            raise InstanceFileError(f"truncated instance file {path} at byte offset "
                                    f"{_VERSION.size}")
        seq_len, width, copies, cls_id, sep_id, windows, count = _LAYOUT.unpack_from(
            head, _VERSION.size)
        if width not in _ID_CODES:
            raise InstanceFileError(f"bad id width {width} in {path} at byte offset 12")
        if count != windows * copies:
            raise InstanceFileError(f"{count} instances for {windows} windows of {copies} "
                                    f"copies in {path} at byte offset 26")
        size = os.fstat(fh.fileno()).st_size
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    with buf:
        # Per window shape, once it has passed the shape check: the unpack of
        # its ids, of a copy's positions and of a copy's ids, their sizes, and
        # the size of the whole window record.
        shapes: dict[tuple[int, int], tuple] = {}
        # Hot-loop names bound once; tuple.__new__ builds an MlmInstance
        # without its keyword-checking __new__.
        new, instance, getter = tuple.__new__, MlmInstance, itemgetter
        read_shape, shape_size = _SHAPE.unpack_from, _SHAPE.size
        offset = _VERSION.size + _LAYOUT.size
        for _ in range(windows):
            # Bounds are checked before each unpack: damaged counts must not
            # read past the end.
            if offset + shape_size > size:
                raise InstanceFileError(f"truncated instance file {path} at byte offset {offset}")
            shape = length, n_masked = read_shape(buf, offset)
            known = shapes.get(shape)
            if known is None:
                if not 0 < n_masked <= length <= seq_len - 2:
                    raise InstanceFileError(f"bad window shape {shape} in {path} "
                                            f"at byte offset {offset}")
                ids_struct, positions_struct, copy_ids_struct = (
                    struct.Struct("<" + f) for f in _formats(length, n_masked, width, seq_len))
                copy_size = positions_struct.size + copy_ids_struct.size
                known = shapes[shape] = (
                    ids_struct.unpack_from, ids_struct.size, positions_struct.unpack_from,
                    positions_struct.size, copy_ids_struct.unpack_from, copy_size,
                    ids_struct.size + copies * copy_size)
            read_ids, ids_size, read_positions, positions_size, read_copy_ids, copy_size, \
                record_size = known
            start, body = offset, offset + shape_size
            offset = body + record_size
            if offset > size:
                raise InstanceFileError(f"truncated instance file {path} at byte offset {body}")
            # [CLS] and the window, without [SEP]: a label lookup past the
            # window raises IndexError, and position 0 is caught by name.
            frame = [cls_id, *read_ids(buf, body)]
            last_copy = offset - copy_size
            for at in range(body + ids_size, offset, copy_size):
                positions = read_positions(buf, at)
                try:
                    labels = getter(*positions)(frame)
                except IndexError:
                    labels = None
                if labels is None or 0 in positions:
                    raise InstanceFileError(f"masked position out of window in {path} "
                                            f"at byte offset {start}")
                # The last copy may write over the frame: no later copy reads it.
                input_ids = frame if at == last_copy else frame.copy()
                for pos, token in zip(positions, read_copy_ids(buf, at + positions_size)):
                    input_ids[pos] = token
                input_ids.append(sep_id)
                yield new(instance, (tuple(input_ids), length + 2, positions,
                                     (labels,) if n_masked == 1 else labels))


def instance_rel_path(split: str, index: int) -> str:
    return f"{split}/shard-{index:05d}.xbi"


@dataclass(frozen=True)
class InstanceFile:
    split: str
    index: int
    path: Path
    num_instances: int


@dataclass(frozen=True)
class InstanceGenerationResult:
    files: tuple[InstanceFile, ...]
    num_instances: int


# The vocabulary of ``_generate_for_shard``, set once per process by ``_init_worker``.
_worker_vocab: Vocabulary | None = None


def _init_worker(vocab: Vocabulary) -> None:
    global _worker_vocab
    _worker_vocab = vocab


def _generate_for_shard(shard_path: str, out_path: str, policy: MaskingPolicy) -> int:
    """Write one shard's instance file with the vocabulary ``_init_worker`` set."""
    def all_windows() -> Iterator[MaskedWindow]:
        for doc_id, text in read_shard(Path(shard_path)):
            yield from iter_document_instances(doc_id, text, policy, _worker_vocab)

    return write_instance_file(Path(out_path), all_windows(), policy, _worker_vocab)


def generate_instances(
    shards: Iterable[Shard],
    policy: MaskingPolicy,
    vocab: Vocabulary,
    out_dir: str | Path,
    dataset_id: str,
    n_workers: int = 1,
) -> InstanceGenerationResult:
    """Emit dup_factor pre-masked instances per window, mirroring the shard layout.

    Workers own whole shards; output is byte-identical for any n_workers.
    Writes META.yaml (policy, vocabulary digest, dataset id) next to the files.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    out_dir = Path(out_dir)
    jobs = [(str(s.path), str(out_dir / instance_rel_path(s.split, s.index)), s)
            for s in shards]
    if n_workers == 1 or len(jobs) <= 1:
        _init_worker(vocab)
        counts = [_generate_for_shard(p, out, policy) for p, out, _ in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never loads it

        # The vocabulary goes to each worker once, not with every shard.
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker,
                                 initargs=(vocab,)) as pool:
            futures = [pool.submit(_generate_for_shard, p, out, policy) for p, out, _ in jobs]
            counts = [f.result() for f in futures]
    files = [InstanceFile(shard.split, shard.index, Path(out), count)
             for (_, out, shard), count in zip(jobs, counts)]

    total = sum(f.num_instances for f in files)
    meta = {
        "dataset_id": dataset_id,
        "vocab_digest": vocab_digest(vocab),
        "num_instances": total,
        "policy": asdict(policy),
        "files": [
            {"path": instance_rel_path(f.split, f.index), "instances": f.num_instances}
            for f in files
        ],
    }
    with replace_when_done(out_dir / META_NAME) as fh:
        fh.write(yaml.safe_dump(meta, sort_keys=False).encode("utf-8"))
    return InstanceGenerationResult(tuple(files), total)


@dataclass(frozen=True)
class MaskRateReport:
    """Aggregate masking statistics over a set of instance files."""

    instance_count: int
    masked_position_count: int
    mask_fraction: float  # aggregate masked positions / non-special positions
    action_mask_fraction: float
    action_random_fraction: float
    action_keep_fraction: float
    max_masked_in_instance: int


def mask_rate_report(paths: Iterable[str | Path], vocab: Vocabulary) -> MaskRateReport:
    """Scan instance files and report masking-rate and action-split statistics.

    A random replacement that happens to draw the original token is counted
    as kept; with a realistically sized vocabulary the bias is negligible.
    """
    instances = masked = non_special_positions = max_masked = 0
    mask_count = keep_count = 0
    mask_id = vocab.mask_id
    for path in paths:
        for input_ids, attention_len, positions, labels in read_instances(path):
            n_masked = len(positions)
            got = (itemgetter(*positions)(input_ids) if n_masked > 1
                   else (input_ids[positions[0]],))
            instances += 1
            masked += n_masked
            non_special_positions += attention_len - 2
            if n_masked > max_masked:
                max_masked = n_masked
            # Counted per instance in C: a position reading [MASK] is a mask,
            # else one reading its label is kept, else it was replaced.
            mask_count += got.count(mask_id)
            keep_count += sum(map(eq, got, labels))
            if mask_id in labels:
                keep_count -= sum(g == label == mask_id for g, label in zip(got, labels))
    if instances == 0:
        return MaskRateReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0)
    return MaskRateReport(
        instance_count=instances,
        masked_position_count=masked,
        mask_fraction=masked / non_special_positions,
        action_mask_fraction=mask_count / masked,
        action_random_fraction=(masked - mask_count - keep_count) / masked,
        action_keep_fraction=keep_count / masked,
        max_masked_in_instance=max_masked,
    )
