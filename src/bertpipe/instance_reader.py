"""Reading instance files back: the decoded instances and their masking statistics.

The format is described in ``instances``, which writes it. A pipeline run
never reads an instance file, so it never loads this module; its names are
importable from ``instances`` as well.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from pathlib import Path
from struct import Struct, calcsize
from typing import Iterable, Iterator, NamedTuple

from .instances import _ID_CODES, _LAYOUT, _VERSION, INSTANCE_MAGIC, _position_code
from .records import INSTANCE_FORMAT_VERSION, InstanceFileError
from .tokenization import Vocabulary

_SHAPE = Struct("<HH")  # window length, n_masked


class MlmInstance(NamedTuple):
    """One pre-masked training example, [CLS] ... [SEP] without padding.

    What ``read_instances`` yields, one per instance: a named tuple, several
    times cheaper to build than a frozen dataclass.
    """

    input_ids: tuple[int, ...]
    attention_len: int
    masked_positions: tuple[int, ...]
    masked_labels: tuple[int, ...]


def _read_windows(path: Path) -> Iterator[tuple]:
    """The header's [CLS], [SEP] and [MASK] ids, then each window as stored, checked.

    A window is its ids, n_masked, per copy (its positions ascending, its mask
    positions, its replace positions) and its copies' replacement ids.
    """
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
        seq_len, width, copies, cls_id, sep_id, mask_id, windows, count = _LAYOUT.unpack_from(
            head, _VERSION.size)
        if width not in _ID_CODES:
            raise InstanceFileError(f"bad id width {width} in {path} at byte offset 12")
        if not copies or count != windows * copies:
            raise InstanceFileError(f"{count} instances for {windows} windows of {copies} "
                                    f"copies in {path} at byte offset 34")
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)  # no read call per window
    yield cls_id, sep_id, mask_id
    size = len(buf)
    id_code, position_code = _ID_CODES[width], _position_code(seq_len)
    position_size = calcsize(position_code)
    with buf:
        # Per window shape that has passed the shape check: the unpacks of its ids
        # and of its copies' counts and positions, their sizes and each copy's start.
        shapes: dict[tuple[int, int], tuple] = {}
        read_replacements = cache(lambda n: Struct(f"<{n}{id_code}").unpack_from)
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
                step = n_masked + 2  # a copy's two counts and its positions
                heads = copies * step
                known = shapes[shape] = (
                    Struct(f"<{length}{id_code}").unpack_from, width * length,
                    Struct(f"<{heads}{position_code}").unpack_from, heads * position_size,
                    step, range(0, heads, step))
            read_ids, ids_size, read_heads, heads_size, step, copy_starts = known
            start, body = offset, offset + shape_size
            heads_at = body + ids_size
            offset = heads_at + heads_size
            if offset > size:
                raise InstanceFileError(f"truncated instance file {path} at byte offset {body}")
            # u8 counts and positions are read as bytes: no struct call or tuple.
            heads = buf[heads_at:offset] if position_size == 1 else read_heads(buf, heads_at)
            n_replaced = heads[1] if copies == 1 else sum(heads[1::step])
            replaced_at, offset = offset, offset + width * n_replaced
            if offset > size:
                raise InstanceFileError(f"truncated instance file {path} at byte offset "
                                        f"{replaced_at}")
            replacements = read_replacements(n_replaced)(buf, replaced_at)
            stored = []
            for at in copy_starts:
                first, end = at + 2, at + step
                mask_end = first + heads[at]
                replace_end = mask_end + heads[at + 1]
                if replace_end > end:
                    raise InstanceFileError(f"bad action counts in {path} at byte offset "
                                            f"{heads_at + at * position_size}")
                # Sorted for the range check; an MlmInstance lists them in this order.
                positions = tuple(sorted(heads[first:end]))
                if not 0 < positions[0] <= positions[-1] <= length:
                    raise InstanceFileError(f"masked position out of window in {path} "
                                            f"at byte offset {start}")
                stored.append((positions, heads[first:mask_end], heads[mask_end:replace_end]))
            yield read_ids(buf, body), n_masked, stored, replacements


def read_instances(path: str | Path) -> Iterator[MlmInstance]:
    """Iterate the instances of one file; malformed data raises with the offset."""
    windows = _read_windows(Path(path))
    cls_id, sep_id, mask_id = next(windows)
    # tuple.__new__ builds an MlmInstance without its keyword-checking __new__.
    new, instance, getter = tuple.__new__, MlmInstance, itemgetter
    for ids, n_masked, stored, replacements in windows:
        frame = [cls_id, *ids, sep_id]
        last, attention_len, single = stored[-1][0], len(frame), n_masked == 1
        taken = 0
        for positions, masks, replaces in stored:
            labels = getter(*positions)(frame)
            # The last copy may write over the frame: no later copy reads it.
            input_ids = frame if positions is last else frame.copy()
            for pos in masks:
                input_ids[pos] = mask_id
            for pos in replaces:
                input_ids[pos] = replacements[taken]
                taken += 1
            yield new(instance, (tuple(input_ids), attention_len, positions,
                                 (labels,) if single else labels))


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
    """Masking-rate and action-split statistics of instance files, from their stored counts.

    A file masked with other [CLS], [SEP] or [MASK] ids than ``vocab``'s raises.
    """
    instances = masked = non_special_positions = max_masked = mask_count = replace_count = 0
    special = (vocab.cls_id, vocab.sep_id, vocab.mask_id)
    for path in paths:
        windows = _read_windows(Path(path))
        found = next(windows)
        if found != special:
            raise InstanceFileError(f"instance file {path} has [CLS], [SEP] and [MASK] ids "
                                    f"{found}, the vocabulary {special}")
        for ids, n_masked, stored, _ in windows:
            instances += len(stored)
            masked += len(stored) * n_masked
            non_special_positions += len(stored) * len(ids)
            max_masked = max(max_masked, n_masked)
            for _, masks, replaces in stored:  # a position neither masked nor replaced is kept
                mask_count += len(masks)
                replace_count += len(replaces)
    if instances == 0:
        return MaskRateReport(0, 0, 0.0, 0.0, 0.0, 0.0, 0)
    return MaskRateReport(
        instance_count=instances,
        masked_position_count=masked,
        mask_fraction=masked / non_special_positions,
        action_mask_fraction=mask_count / masked,
        action_random_fraction=replace_count / masked,
        action_keep_fraction=(masked - mask_count - replace_count) / masked,
        max_masked_in_instance=max_masked,
    )
