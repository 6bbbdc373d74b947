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

Masking takes its draws straight from the window's stream: ``apply_masking``
spells out ``random.sample``'s and ``random.choice``'s algorithms over
``getrandbits``, so instance contents depend on MT19937 alone, not on how a
Python release builds ``sample``.

Instance file format (version 4), all little-endian. A 38-byte header:
magic "XBINST01", format version u16, max_seq_length u16, id width u16 (2
when the vocabulary has at most 65536 entries, else 4), copies per window
(dup_factor) u32, the [CLS], [SEP] and [MASK] ids u32, window count u32 and
instance count u32. Then per window: its length u16, n_masked u16 (one value
for all copies, since num_masked depends only on the window length) and its
ids, stored once; then per copy its mask count, its replace count and its
n_masked positions grouped by action (the mask positions, the replace
positions, then the keep positions, each group ascending); then the
replacement ids of every copy, in copy and position order. Counts and
positions are u8 when max_seq_length <= 256, else u16; ids are id-width ints.
Labels are not stored: ``read_instances`` yields each copy as an
``MlmInstance`` whose input ids are [CLS] window [SEP] with [MASK] at its mask
positions and the stored ids at its replace positions, whose positions are
sorted, and whose label at position p is window[p - 1]. That reading side
(``read_instances``, ``MlmInstance``, ``mask_rate_report``) lives in
``instance_reader``, where one window decoder serves both readers; a
pipeline run never loads it, and its names are importable from here too.
"""

from __future__ import annotations

import random
import struct
from dataclasses import asdict, dataclass
from math import ceil, log
from pathlib import Path
from typing import Iterable, Iterator

import yaml

from .atomic import replace_when_done
from .records import (  # InstanceFileError and load_meta: re-exported for readers
    INSTANCE_FORMAT_VERSION, META_NAME, InstanceFileError, MaskingPolicy, load_meta,
)
from .rng import keyed_rng
from .sharding import Shard, read_shard
from .tokenization import Vocabulary, tokenize, vocab_digest

INSTANCE_MAGIC = b"XBINST01"
_VERSION = struct.Struct("<8sH")
# max_seq_length, id width, copies per window, [CLS], [SEP] and [MASK] ids, windows, instances
_LAYOUT = struct.Struct("<HHIIIIII")
# The field widths: ids are u16 when the vocabulary has at most 65536 entries,
# else u32, and the header's id width says which; counts and positions are u8
# when max_seq_length <= 256, else u16.
_ID_CODES = {2: "H", 4: "I"}  # the struct code of an id, by id width


def _id_width(vocab_size: int) -> int:
    return 2 if vocab_size <= 1 << 16 else 4


def _position_code(max_seq_length: int) -> str:
    return "B" if max_seq_length <= 256 else "H"


# The standard BERT replacement split (Devlin et al., 2019); keep is the rest.
MASK_TOKEN_SHARE = 0.8
RANDOM_TOKEN_SHARE = 0.1
MIN_WINDOW_TOKENS = 8

# The reading side, imported from ``instance_reader`` on first use (PEP 562).
_READER_NAMES = ("MlmInstance", "read_instances", "MaskRateReport", "mask_rate_report")


def __getattr__(name: str):
    if name in _READER_NAMES:
        from . import instance_reader

        return getattr(instance_reader, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# One masked copy of a window, as the file stores it: its mask, replace and
# keep positions in [CLS] window [SEP] (so window[pos - 1] is the label at
# pos), each list ascending, and the input id at each replace position.
MaskedCopy = tuple[list[int], list[int], list[int], list[int]]
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
    otherwise. The draws are those of ``rng.sample(range(1, len(window) + 1),
    k)``, then per position in ascending order one ``rng.random()`` and, in
    the replace band only, ``rng.choice(vocab.non_special_ids)``. Successive
    calls on one rng give independent copies of the window.
    """
    n = len(window)
    if not n:
        raise ValueError("cannot mask an empty window")
    if n > policy.window_size:
        raise ValueError(f"window of {n} ids exceeds max_seq_length - 2")
    k = num_masked(n, policy)
    getrandbits = rng.getrandbits
    # random.sample's two methods, chosen as it chooses them: draw from a pool
    # when an n-list is smaller than a k-set, else re-draw into a set. Each
    # randbelow(m) is getrandbits(m.bit_length()) until the value is below m.
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(range(1, n + 1))
        picked = []
        for size in range(n, n - k, -1):
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[size - 1]
        picked.sort()
    else:
        bits = n.bit_length()
        chosen: set[int] = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in chosen:
                j = getrandbits(bits)
            chosen.add(j)
        picked = [j + 1 for j in sorted(chosen)]

    mask_below, random_below = MASK_TOKEN_SHARE, MASK_TOKEN_SHARE + RANDOM_TOKEN_SHARE
    others = vocab.non_special_ids
    n_others = len(others)
    other_bits = n_others.bit_length()
    draw = rng.random
    masks, replaces, keeps, ids = [], [], [], []
    for pos in picked:
        roll = draw()
        if roll < mask_below:
            masks.append(pos)
        elif roll < random_below:
            if not n_others:
                raise IndexError("cannot choose from an empty sequence")
            j = getrandbits(other_bits)
            while j >= n_others:
                j = getrandbits(other_bits)
            replaces.append(pos)
            ids.append(others[j])
        else:
            keeps.append(pos)
    return masks, replaces, keeps, ids


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


def write_instance_file(path: Path, windows: Iterable[MaskedWindow],
                        policy: MaskingPolicy, vocab: Vocabulary) -> int:
    """Stream masked windows into one file; returns the instance count.

    Each window comes with its ``policy.dup_factor`` copies, as
    ``apply_masking`` made them from it, packed as given. One window's copies
    are held at a time, and the file appears at ``path`` only once every
    window is written.
    """
    width = _id_width(len(vocab))
    id_code, position_code = _ID_CODES[width], _position_code(policy.max_seq_length)
    copies = policy.dup_factor

    def header(n_windows: int) -> bytes:
        return _VERSION.pack(INSTANCE_MAGIC, INSTANCE_FORMAT_VERSION) + _LAYOUT.pack(
            policy.max_seq_length, width, copies, vocab.cls_id,
            vocab.sep_id, vocab.mask_id, n_windows, n_windows * copies)

    n_windows = 0
    with replace_when_done(path) as fh:
        fh.write(header(0))
        for window, masked in windows:
            if len(masked) != copies:
                raise ValueError(f"a window has {len(masked)} copies, not {copies}")
            n = len(masked[0][0]) + len(masked[0][1]) + len(masked[0][2])
            values = [len(window), n, *window]
            replacements: list[int] = []
            for masks, replaces, keeps, ids in masked:
                values.append(len(masks))
                values.append(len(replaces))
                values += masks
                values += replaces
                values += keeps
                replacements += ids
            values += replacements
            fh.write(struct.pack(f"<HH{len(window)}{id_code}{copies * (n + 2)}{position_code}"
                                 f"{len(replacements)}{id_code}", *values))
            n_windows += 1
        fh.seek(0)
        fh.write(header(n_windows))
    return n_windows * copies


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
