"""Reading instance files back: the decoded instances and their masking statistics.

The format is described in ``instances``, which writes it. A pipeline run
never reads an instance file, so it never loads this module; its names are
importable from ``instances`` as well.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from operator import eq, itemgetter
from pathlib import Path
from struct import Struct
from typing import Callable, Iterable, Iterator, NamedTuple

from .instances import _LAYOUT, _VERSION, INSTANCE_MAGIC
from .records import INSTANCE_FORMAT_VERSION, InstanceFileError
from .tokenization import Vocabulary

_SHAPE = Struct("<HH")  # window length, n_masked
_ID_CODES = {2: "H", 4: "I"}


class MlmInstance(NamedTuple):
    """One pre-masked training example, [CLS] ... [SEP] without padding.

    What ``read_instances`` yields, one per instance: a named tuple, several
    times cheaper to build than a frozen dataclass.
    """

    input_ids: tuple[int, ...]
    attention_len: int
    masked_positions: tuple[int, ...]
    masked_labels: tuple[int, ...]


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
        seq_len, width, copies, cls_id, sep_id, mask_id, windows, count = _LAYOUT.unpack_from(
            head, _VERSION.size)
        if width not in _ID_CODES:
            raise InstanceFileError(f"bad id width {width} in {path} at byte offset 12")
        if count != windows * copies:
            raise InstanceFileError(f"{count} instances for {windows} windows of {copies} "
                                    f"copies in {path} at byte offset 34")
        size = os.fstat(fh.fileno()).st_size
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    id_code = _ID_CODES[width]
    narrow = seq_len <= 256
    position_code, position_size = ("B", 1) if narrow else ("H", 2)
    with buf:
        # Per window shape, once it has passed the shape check: the unpack of
        # its ids, the unpack of its copies' counts and positions, the size
        # of both, where each copy starts among those values and where the
        # last one does. Per replacement count: the unpack of that many ids.
        shapes: dict[tuple[int, int], tuple] = {}
        replacement_readers: dict[int, Callable] = {}
        # Hot-loop names bound once; tuple.__new__ builds an MlmInstance
        # without its keyword-checking __new__.
        new, instance, getter, read_shape = tuple.__new__, MlmInstance, itemgetter, _SHAPE.unpack_from
        offset = _VERSION.size + _LAYOUT.size
        for _ in range(windows):
            # Bounds are checked before each unpack: damaged counts must not
            # read past the end.
            if offset + _SHAPE.size > size:
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
                    step, range(0, heads, step), heads - step)
            read_ids, ids_size, read_heads, heads_size, step, copy_starts, last_copy = known
            start, body = offset, offset + _SHAPE.size
            heads_at = body + ids_size
            offset = heads_at + heads_size
            if offset > size:
                raise InstanceFileError(f"truncated instance file {path} at byte offset {body}")
            # u8 counts and positions are read as bytes: no struct call or tuple.
            heads = buf[heads_at:offset] if narrow else read_heads(buf, heads_at)
            n_replaced = heads[1] if copies == 1 else sum(heads[1::step])
            replaced_at, offset = offset, offset + width * n_replaced
            if offset > size:
                raise InstanceFileError(f"truncated instance file {path} at byte offset "
                                        f"{replaced_at}")
            if n_replaced:
                read_replacements = replacement_readers.get(n_replaced)
                if read_replacements is None:
                    read_replacements = replacement_readers[n_replaced] = Struct(
                        f"<{n_replaced}{id_code}").unpack_from
                replacements = read_replacements(buf, replaced_at)
            taken = 0
            frame = [cls_id, *read_ids(buf, body), sep_id]
            for at in copy_starts:
                first = at + 2
                mask_end = first + heads[at]
                replace_end = mask_end + heads[at + 1]
                if replace_end > at + step:
                    raise InstanceFileError(f"bad action counts in {path} at byte offset "
                                            f"{heads_at + at * position_size}")
                positions = tuple(sorted(heads[first:first + n_masked]))
                if not 0 < positions[0] <= positions[-1] <= length:
                    raise InstanceFileError(f"masked position out of window in {path} "
                                            f"at byte offset {start}")
                labels = getter(*positions)(frame)
                # The last copy may write over the frame: no later copy reads it.
                input_ids = frame if at == last_copy else frame.copy()
                for pos in heads[first:mask_end]:
                    input_ids[pos] = mask_id
                if replace_end > mask_end:
                    for pos in heads[mask_end:replace_end]:
                        input_ids[pos] = replacements[taken]
                        taken += 1
                yield new(instance, (tuple(input_ids), length + 2, positions,
                                     (labels,) if n_masked == 1 else labels))


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
