"""Basic normalization plus greedy WordPiece against a fixed vocabulary.

Follows the uncased-BERT conventions, always: lower-case, strip combining
accents, split each punctuation character into its own word, then greedy
longest-prefix WordPiece with "##" continuation pieces and whole-word [UNK]
fallback for a word that does not match or is longer than
``MAX_CHARS_PER_WORD`` characters. Nothing here is configurable. No
[CLS]/[SEP] framing happens here; that is the instance generator's job.

``basic_tokenize`` works in this order:

1. Lower-case and NFD-normalise the whole text; both run in C.
2. ``str.split()`` cuts on exactly the characters ``str.isspace`` accepts,
   so whitespace never reaches Python-level code.
3. A chunk for which ``str.isalnum`` holds is a word as it stands. Letters
   and digits are never ASCII or Unicode punctuation, never combining marks
   (Mn) and never whitespace, so such a chunk has nothing to split or drop.
4. Every other chunk goes through ``str.translate`` and is split again. The
   translation table pads each punctuation character with spaces and drops
   Mn marks. It is filled lazily, one code point the first time it is seen,
   so it holds at most the code points met so far.

``wordpiece`` finds the greedy longest match by walking a path-compressed
trie of the vocabulary's pieces (Song et al., "Fast WordPiece Tokenization",
arXiv 2012.15524, match on a trie; Morrison, "PATRICIA", JACM 1968, compress
its paths). A node exists only where a piece ends or where paths branch, so
each edge carries a label of one or more characters, and no piece ends inside
a label. The walk takes one edge per step: it looks up the edge by the word's
next character, advances over a one-character label at once and checks a
longer one with ``str.startswith``. It stops at the first character with no
edge or the first label the word does not continue, because no longer piece
can match beyond it. Continuation pieces have their own trie, keyed without
the "##", so no "##" strings are built per piece. Both tries are built once
per :class:`Vocabulary`; a worker pool receives the vocabulary once per
worker, not once per task.

A word-to-ids memo of ``WORDPIECE_MEMO_SIZE`` entries sits in front of the
scan and is cleared whenever it fills. A word's ids depend only on the word
and the vocabulary, since the cap is a constant, so a memoized result is
always the one a fresh scan would give. Natural text repeats its frequent
words, so a small memo catches most of them; the bound keeps its memory at
well under a MiB per process however long the corpus's tail of distinct
words is. On a corpus where a third of the words are distinct, a memo four
times larger ran no faster.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .records import VocabularyError, resolve_vocab

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
MAX_CHARS_PER_WORD = 200
WORDPIECE_MEMO_SIZE = 4096


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token list; a token's id is its line index in the vocab file.

    The fields after ``mask_id`` are derived from ``tokens`` by
    :func:`make_vocabulary` and take no part in comparison or hashing.
    """

    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(repr=False, compare=False)
    pad_id: int
    unk_id: int
    cls_id: int
    sep_id: int
    mask_id: int
    non_special_ids: tuple[int, ...] = field(repr=False, compare=False)
    # Path-compressed tries of the pieces: first character of an edge ->
    # (label, id of the piece ending at the label's end or -1, child edges or
    # None at a leaf). A leaf holds no dict, so the garbage collector drops its
    # edge from tracking and a copy unpickles fast.
    # Initial pieces are whole tokens; continuation pieces are "##" tokens
    # with the "##" removed.
    initial_trie: dict[str, tuple] = field(repr=False, compare=False)
    continuation_trie: dict[str, tuple] = field(repr=False, compare=False)
    wordpiece_memo: dict[str, tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TokenSequence:
    """The token ids of one text; iterating it yields them."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)


def _trie(pieces: dict[str, int]) -> dict[str, tuple]:
    """Path-compressed trie of ``pieces``; see :class:`Vocabulary`."""
    keys = sorted(piece for piece in pieces if piece)
    root: dict[str, tuple] = {}
    # (edges to fill, keys[lo:hi] sharing their first ``depth`` characters, depth)
    stack = [(root, 0, len(keys), 0)]
    while stack:
        edges, lo, hi, depth = stack.pop()
        while lo < hi:
            first = keys[lo]
            char = first[depth]
            end = lo + 1
            while end < hi and keys[end][depth] == char:
                end += 1
            # Sorted keys: the group's common prefix is that of its first and
            # last key. It ends where they differ or where the first one ends,
            # so the node it leads to is a branch or a piece.
            last = keys[end - 1]
            stop, limit = depth + 1, min(len(first), len(last))
            while stop < limit and first[stop] == last[stop]:
                stop += 1
            piece_id = pieces[first] if len(first) == stop else -1
            rest = lo + 1 if piece_id >= 0 else lo
            children = {} if rest < end else None
            edges[char] = (first[depth:stop], piece_id, children)
            if children is not None:
                stack.append((children, rest, end, stop))
            lo = end
    return root


def make_vocabulary(tokens: list[str]) -> Vocabulary:
    """Build a Vocabulary from an ordered token list, validating specials."""
    token_to_id: dict[str, int] = {}
    for i, token in enumerate(tokens):
        if token in token_to_id:
            raise VocabularyError(f"duplicate token {token!r} at lines {token_to_id[token] + 1} and {i + 1}")
        token_to_id[token] = i
    for special in SPECIAL_TOKENS:
        if special not in token_to_id:
            raise VocabularyError(f"vocabulary is missing special token {special}")
    special_ids = {token_to_id[special] for special in SPECIAL_TOKENS}
    continuations = {t[2:]: i for t, i in token_to_id.items() if t.startswith("##")}
    return Vocabulary(
        tokens=tuple(tokens),
        token_to_id=token_to_id,
        pad_id=token_to_id["[PAD]"],
        unk_id=token_to_id["[UNK]"],
        cls_id=token_to_id["[CLS]"],
        sep_id=token_to_id["[SEP]"],
        mask_id=token_to_id["[MASK]"],
        non_special_ids=tuple(i for i in range(len(tokens)) if i not in special_ids),
        initial_trie=_trie(token_to_id),
        continuation_trie=_trie(continuations),
    )


def load_vocab(path: str | Path) -> Vocabulary:
    """Load a one-token-per-line vocabulary file; id = 0-based line index."""
    path = Path(path)
    if not path.is_file():
        raise VocabularyError(f"vocabulary file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    # A trailing newline produces one empty last entry; drop it.
    if tokens and tokens[-1] == "":
        tokens.pop()
    return make_vocabulary(tokens)


def vocab_digest(vocab: Vocabulary) -> str:
    """Short content digest identifying a vocabulary (provenance metadata)."""
    return hashlib.sha256("\n".join(vocab.tokens).encode("utf-8")).hexdigest()[:16]


def _is_punctuation(char: str) -> bool:
    cp = ord(char)
    # Treat all non-alphanumeric ASCII as punctuation (covers ^ $ ` which are
    # not in the Unicode P* classes), plus everything Unicode calls punctuation.
    if (33 <= cp <= 47) or (58 <= cp <= 64) or (91 <= cp <= 96) or (123 <= cp <= 126):
        return True
    return unicodedata.category(char).startswith("P")


class _SplitTable(dict):
    """``str.translate`` table: punctuation -> " c ", Mn -> dropped."""

    def __missing__(self, cp: int) -> str | int | None:
        char = chr(cp)
        if _is_punctuation(char):
            value: str | int | None = f" {char} "
        elif unicodedata.category(char) == "Mn":
            value = None
        else:
            value = cp
        self[cp] = value
        return value


_SPLIT_TABLE = _SplitTable()


def basic_tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace and isolate punctuation characters.

    The text is lower-cased and combining accent marks are stripped
    (canonical decomposition) before splitting.
    """
    words: list[str] = []
    for chunk in unicodedata.normalize("NFD", text.lower()).split():
        if chunk.isalnum():
            words.append(chunk)
        else:
            words += chunk.translate(_SPLIT_TABLE).split()
    return words


def _longest_match_pieces(word: str, vocab: Vocabulary) -> tuple[int, ...]:
    ids: list[int] = []
    trie = vocab.initial_trie
    start, length = 0, len(word)
    while start < length:
        piece_id, piece_end = -1, start
        edges, pos = trie, start
        while pos < length:
            edge = edges.get(word[pos])
            if edge is None:
                break
            label, found, edges = edge
            size = len(label)
            if size > 1 and not word.startswith(label, pos):
                break
            pos += size
            if found >= 0:
                piece_id, piece_end = found, pos
                if edges is None:  # a leaf; only a piece ends a path
                    break
        if piece_id < 0:
            return (vocab.unk_id,)
        ids.append(piece_id)
        start = piece_end
        trie = vocab.continuation_trie
    return tuple(ids)


def wordpiece(word: str, vocab: Vocabulary) -> list[int]:
    """Greedy longest-prefix WordPiece of a single word.

    Non-initial pieces are matched with a "##" prefix. If any position fails
    to match, or the word is longer than ``MAX_CHARS_PER_WORD``, the whole
    word maps to the single [UNK] id.
    """
    if not word:
        raise ValueError("wordpiece expects a non-empty word")
    if len(word) > MAX_CHARS_PER_WORD:
        return [vocab.unk_id]
    memo = vocab.wordpiece_memo
    ids = memo.get(word)
    if ids is None:
        ids = _longest_match_pieces(word, vocab)
        if len(memo) >= WORDPIECE_MEMO_SIZE:
            memo.clear()
        memo[word] = ids
    return list(ids)


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """basic_tokenize then wordpiece per word, concatenated. No framing tokens.

    A word already in the vocabulary's memo is looked up here; ``wordpiece``
    is called only on a miss.
    """
    ids: list[int] = []
    memo = vocab.wordpiece_memo
    for word in basic_tokenize(text):
        pieces = memo.get(word)
        ids += wordpiece(word, vocab) if pieces is None else pieces
    return TokenSequence(ids=tuple(ids))
