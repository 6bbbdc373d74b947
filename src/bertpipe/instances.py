"""Pre-masked MLM instance generation from shards (static masking).

Each document is tokenized, cut into consecutive windows of at most
max_seq_length - 2 ids (leaving room for [CLS]/[SEP]), and every window is
masked ``dup_factor`` times, compensating for the diversity lost by masking
at preprocessing time instead of per epoch. Masking follows the 80/10/10
convention: a chosen position becomes [MASK], a random non-special token, or
stays unchanged.

All randomness is keyed by (seed, doc_id, window_idx): one keyed stream per
window, from which copies 0..dup_factor-1 are drawn in order. Instance files
are therefore byte-identical for any worker count and schedule. Windows
never span documents and no next-sentence pairing is performed: one window,
framed with [CLS]/[SEP], is one training instance; padding to max_seq_length
is left to the consumer, since attention_len implies it.

Instance file format (version 2), all little-endian: an 18-byte header of
magic "XBINST01", format version u16, max_seq_length u16, id width u16 (2 or
4 bytes) and instance count u32; then per instance attention_len u16,
n_masked u16, input_ids as id-width ints x attention_len, masked_positions
u16 x n_masked and masked_labels as id-width ints x n_masked. The id width
is 2 when the vocabulary has at most 65536 entries, else 4.
"""

from __future__ import annotations

import random
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

import yaml

from .atomic import replace_when_done
from .records import (
    INSTANCE_FORMAT_VERSION, META_NAME, InstanceFileError, MaskingPolicy, load_meta,
)
from .rng import keyed_rng
from .sharding import Shard, read_shard
from .tokenization import TokenSequence, Vocabulary, tokenize, vocab_digest

INSTANCE_MAGIC = b"XBINST01"
_VERSION = struct.Struct("<8sH")
_LAYOUT = struct.Struct("<HHI")  # max_seq_length, id width, instance count
_COUNTS = struct.Struct("<HH")
_ID_CODES = {2: "H", 4: "I"}


@dataclass(frozen=True)
class MlmInstance:
    """One pre-masked training example, [CLS] ... [SEP] without padding."""

    input_ids: tuple[int, ...]
    attention_len: int
    masked_positions: tuple[int, ...]
    masked_labels: tuple[int, ...]


def segment_document(tokens: TokenSequence | Iterable[int], policy: MaskingPolicy) -> list[list[int]]:
    """Cut a document's token ids into consecutive windows.

    Windows hold at most max_seq_length - 2 ids; a final short window is kept
    only if it has at least min_window_tokens ids.
    """
    ids = list(tokens.ids) if isinstance(tokens, TokenSequence) else list(tokens)
    size = policy.window_size
    windows = [ids[start : start + size] for start in range(0, len(ids), size)]
    if windows and len(windows[-1]) < policy.min_window_tokens:
        windows.pop()
    return windows


def num_masked(window_len: int, policy: MaskingPolicy) -> int:
    """Masked positions per window: round(prob * len), floored at 1, capped."""
    return min(policy.max_predictions_per_seq, max(1, round(policy.masked_lm_prob * window_len)))


def apply_masking(
    window: list[int],
    policy: MaskingPolicy,
    vocab: Vocabulary,
    rng: random.Random,
) -> MlmInstance:
    """Mask one window with draws taken from ``rng``.

    Position choice is uniform without replacement; each chosen position is
    replaced by [MASK] with mask_token_frac probability, by a uniformly random
    non-special vocab id with random_token_frac, and kept otherwise. Labels
    always record the original ids. Successive calls on one rng give
    independent copies of the window.
    """
    if not window:
        raise ValueError("cannot mask an empty window")
    if len(window) > policy.window_size:
        raise ValueError(f"window of {len(window)} ids exceeds max_seq_length - 2")
    input_ids = [vocab.cls_id, *window, vocab.sep_id]
    positions = sorted(rng.sample(range(1, len(window) + 1), num_masked(len(window), policy)))
    labels = [input_ids[pos] for pos in positions]

    mask_below = policy.mask_token_frac
    random_below = mask_below + policy.random_token_frac
    for pos in positions:
        roll = rng.random()
        if roll < mask_below:
            input_ids[pos] = vocab.mask_id
        elif roll < random_below:
            input_ids[pos] = rng.choice(vocab.non_special_ids)

    return MlmInstance(
        input_ids=tuple(input_ids),
        attention_len=len(input_ids),
        masked_positions=tuple(positions),
        masked_labels=tuple(labels),
    )


def iter_document_instances(
    doc_id: int,
    text: str,
    policy: MaskingPolicy,
    vocab: Vocabulary,
) -> Iterator[MlmInstance]:
    tokens = tokenize(text, vocab, policy.do_lower_case)
    for window_idx, window in enumerate(segment_document(tokens, policy)):
        rng = keyed_rng(policy.seed, doc_id, window_idx, "mask")
        for _ in range(policy.dup_factor):
            yield apply_masking(window, policy, vocab, rng)


def _body_format(attention_len: int, n_masked: int, width: int) -> str:
    """struct format of one record after its two u16 counts."""
    code = _ID_CODES[width]
    return f"{attention_len}{code}{n_masked}H{n_masked}{code}"


def write_instance_file(path: Path, instances: Iterable[MlmInstance],
                        max_seq_length: int, vocab_size: int) -> int:
    """Stream instances into one file; returns the instance count.

    The file appears at ``path`` only once every instance is written.
    """
    width = 2 if vocab_size <= 1 << 16 else 4
    version = _VERSION.pack(INSTANCE_MAGIC, INSTANCE_FORMAT_VERSION)
    # One struct per record shape; n_masked follows attention_len, so a file
    # needs at most max_seq_length of them.
    records: dict[tuple[int, int], struct.Struct] = {}
    count = 0
    with replace_when_done(path) as fh:
        fh.write(version + _LAYOUT.pack(max_seq_length, width, 0))
        for inst in instances:
            shape = (inst.attention_len, len(inst.masked_positions))
            record = records.get(shape)
            if record is None:
                record = records[shape] = struct.Struct("<HH" + _body_format(*shape, width))
            fh.write(record.pack(*shape, *inst.input_ids, *inst.masked_positions,
                                 *inst.masked_labels))
            count += 1
        fh.seek(0)
        fh.write(version + _LAYOUT.pack(max_seq_length, width, count))
    return count


def read_instances(path: str | Path) -> Iterator[MlmInstance]:
    """Iterate the instances of one file; malformed data raises with the offset."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InstanceFileError(f"cannot open instance file {path}: {exc}") from exc
    with fh:
        def take(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise InstanceFileError(
                    f"truncated instance file {path} at byte offset {fh.tell() - len(data)}"
                )
            return data

        magic, version = _VERSION.unpack(take(_VERSION.size))
        if magic != INSTANCE_MAGIC:
            raise InstanceFileError(f"bad instance magic in {path} at byte offset 0")
        if version != INSTANCE_FORMAT_VERSION:
            raise InstanceFileError(f"unsupported instance format version {version} in {path}")
        _seq_len, width, count = _LAYOUT.unpack(take(_LAYOUT.size))
        if width not in _ID_CODES:
            raise InstanceFileError(f"bad id width {width} in {path} at byte offset 12")
        bodies: dict[tuple[int, int], struct.Struct] = {}
        for _ in range(count):
            shape = _COUNTS.unpack(take(_COUNTS.size))
            body = bodies.get(shape)
            if body is None:
                body = bodies[shape] = struct.Struct("<" + _body_format(*shape, width))
            fields = body.unpack(take(body.size))
            attention_len, n_masked = shape
            yield MlmInstance(
                input_ids=fields[:attention_len],
                attention_len=attention_len,
                masked_positions=fields[attention_len : attention_len + n_masked],
                masked_labels=fields[attention_len + n_masked :],
            )


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


# A pool worker's vocabulary, set once per worker by ``_init_worker``.
_worker_vocab: Vocabulary | None = None


def _init_worker(vocab: Vocabulary) -> None:
    global _worker_vocab
    _worker_vocab = vocab


def _generate_for_shard(shard_path: str, out_path: str, policy: MaskingPolicy,
                        vocab: Vocabulary | None = None) -> int:
    """Write one shard's instance file; ``vocab`` None: the pool worker's."""
    if vocab is None:
        vocab = _worker_vocab

    def all_instances() -> Iterator[MlmInstance]:
        for doc_id, text in read_shard(Path(shard_path)):
            yield from iter_document_instances(doc_id, text, policy, vocab)

    return write_instance_file(Path(out_path), all_instances(), policy.max_seq_length,
                               len(vocab))


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
    shards = list(shards)
    jobs = [(str(s.path), str(out_dir / instance_rel_path(s.split, s.index)), s)
            for s in shards]
    files: list[InstanceFile] = []
    if n_workers == 1 or len(jobs) <= 1:
        counts = [_generate_for_shard(p, out, policy, vocab) for p, out, _ in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never loads it

        # The vocabulary goes to each worker once, not with every shard.
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker,
                                 initargs=(vocab,)) as pool:
            futures = [pool.submit(_generate_for_shard, p, out, policy) for p, out, _ in jobs]
            counts = [f.result() for f in futures]
    for (_, out, shard), count in zip(jobs, counts):
        files.append(InstanceFile(shard.split, shard.index, Path(out), count))

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
    instances = 0
    masked = 0
    non_special_positions = 0
    actions = {"mask": 0, "random": 0, "keep": 0}
    max_masked = 0
    for path in paths:
        for inst in read_instances(path):
            instances += 1
            masked += len(inst.masked_positions)
            non_special_positions += inst.attention_len - 2
            max_masked = max(max_masked, len(inst.masked_positions))
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                got = inst.input_ids[pos]
                if got == vocab.mask_id:
                    actions["mask"] += 1
                elif got == label:
                    actions["keep"] += 1
                else:
                    actions["random"] += 1
    if instances == 0:
        return MaskRateReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0)
    return MaskRateReport(
        instance_count=instances,
        masked_position_count=masked,
        mask_fraction=masked / non_special_positions,
        action_mask_fraction=actions["mask"] / masked,
        action_random_fraction=actions["random"] / masked,
        action_keep_fraction=actions["keep"] / masked,
        max_masked_in_instance=max_masked,
    )
