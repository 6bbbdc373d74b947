"""Basic normalization plus greedy WordPiece against a fixed vocabulary.

Follows the uncased-BERT conventions: lower-case, strip combining accents,
split each punctuation character into its own word, then greedy
longest-prefix WordPiece with "##" continuation pieces and whole-word [UNK]
fallback. No [CLS]/[SEP] framing happens here; that is the instance
generator's job.

``basic_tokenize`` works in this order:

1. With ``do_lower_case``, lower-case and NFD-normalise the whole text; both
   run in C.
2. ``str.split()`` cuts on exactly the characters ``str.isspace`` accepts,
   so whitespace never reaches Python-level code.
3. A chunk for which ``str.isalnum`` holds is a word as it stands. Letters
   and digits are never ASCII or Unicode punctuation, never combining marks
   (Mn) and never whitespace, so such a chunk has nothing to split or drop.
4. Every other chunk goes through ``str.translate`` and is split again. The
   translation table pads each punctuation character with spaces and, when
   lower-casing, drops Mn marks. It is filled lazily, one code point the
   first time it is seen, so it holds at most the code points met so far.

``wordpiece`` finds the greedy longest match with a forward scan over a
table of every prefix of every vocabulary piece (Song et al., "Fast
WordPiece Tokenization", arXiv 2012.15524, prune the same search with a
trie). The scan stops at the first prefix that no piece starts with, because
no longer piece can match beyond it. Continuation pieces have their own
table, keyed without the "##", so no "##" strings are built per piece. Both
tables are built once per :class:`Vocabulary` and travel with it to pool
workers.

A word-to-ids memo of ``WORDPIECE_MEMO_SIZE`` entries sits in front of the
scan and is cleared whenever it fills. Natural text repeats its frequent
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

from importlib import resources

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
DEFAULT_MAX_CHARS_PER_WORD = 200
WORDPIECE_MEMO_SIZE = 4096


class VocabularyError(Exception):
    """Vocabulary file missing, malformed, or lacking a special token."""


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
    # Every prefix of every piece -> the piece's id, or -1 where the prefix is
    # not a piece itself. Initial pieces are whole tokens; continuation pieces
    # are "##" tokens with the "##" removed.
    initial_prefixes: dict[str, int] = field(repr=False, compare=False)
    continuation_prefixes: dict[str, int] = field(repr=False, compare=False)
    wordpiece_memo: dict[str, tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TokenSequence:
    """The token ids of one text."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


def _prefix_table(pieces: dict[str, int]) -> dict[str, int]:
    table: dict[str, int] = {}
    for piece in pieces:
        for end in range(1, len(piece)):
            table.setdefault(piece[:end], -1)
    table.update(pieces)
    return table


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
        initial_prefixes=_prefix_table(token_to_id),
        continuation_prefixes=_prefix_table(continuations),
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


def resolve_vocab(name_or_path: str) -> Path:
    """Resolve TOKENIZER.NAME_OR_PATH to a vocabulary file.

    A filesystem path wins; otherwise the name is looked up among the
    vocabularies bundled with the package (``<name>.txt``).
    """
    p = Path(name_or_path)
    if p.is_file():
        return p
    bundled = resources.files("bertpipe") / "vocabs" / f"{name_or_path}.txt"
    try:
        if bundled.is_file():
            return Path(str(bundled))
    except OSError:
        pass
    raise VocabularyError(
        f"cannot resolve tokenizer vocabulary {name_or_path!r}: "
        f"not a file and no bundled vocabulary of that name"
    )


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
    """``str.translate`` table: punctuation -> " c ", Mn -> dropped if asked."""

    def __init__(self, drop_marks: bool):
        super().__init__()
        self.drop_marks = drop_marks

    def __missing__(self, cp: int) -> str | int | None:
        char = chr(cp)
        if _is_punctuation(char):
            value: str | int | None = f" {char} "
        elif self.drop_marks and unicodedata.category(char) == "Mn":
            value = None
        else:
            value = cp
        self[cp] = value
        return value


_LOWER_CASE_TABLE = _SplitTable(drop_marks=True)
_CASED_TABLE = _SplitTable(drop_marks=False)


def basic_tokenize(text: str, do_lower_case: bool = True) -> list[str]:
    """Split on Unicode whitespace and isolate punctuation characters.

    With ``do_lower_case`` the text is lower-cased and combining accent marks
    are stripped (canonical decomposition) before splitting.
    """
    if do_lower_case:
        text = unicodedata.normalize("NFD", text.lower())
        table = _LOWER_CASE_TABLE
    else:
        table = _CASED_TABLE
    words: list[str] = []
    for chunk in text.split():
        if chunk.isalnum():
            words.append(chunk)
        else:
            words += chunk.translate(table).split()
    return words


def _longest_match_pieces(word: str, vocab: Vocabulary) -> tuple[int, ...]:
    ids: list[int] = []
    table = vocab.initial_prefixes
    start, length = 0, len(word)
    while start < length:
        piece_id, piece_end = -1, start
        for end in range(start + 1, length + 1):
            found = table.get(word[start:end])
            if found is None:
                break
            if found >= 0:
                piece_id, piece_end = found, end
        if piece_id < 0:
            return (vocab.unk_id,)
        ids.append(piece_id)
        start = piece_end
        table = vocab.continuation_prefixes
    return tuple(ids)


def wordpiece(
    word: str,
    vocab: Vocabulary,
    max_chars_per_word: int = DEFAULT_MAX_CHARS_PER_WORD,
) -> list[int]:
    """Greedy longest-prefix WordPiece of a single word.

    Non-initial pieces are matched with a "##" prefix. If any position fails
    to match, or the word is longer than ``max_chars_per_word``, the whole
    word maps to the single [UNK] id.
    """
    if not word:
        raise ValueError("wordpiece expects a non-empty word")
    if len(word) > max_chars_per_word:
        return [vocab.unk_id]
    memo = vocab.wordpiece_memo
    ids = memo.get(word)
    if ids is None:
        ids = _longest_match_pieces(word, vocab)
        if len(memo) >= WORDPIECE_MEMO_SIZE:
            memo.clear()
        memo[word] = ids
    return list(ids)


def tokenize(text: str, vocab: Vocabulary, do_lower_case: bool = True) -> TokenSequence:
    """basic_tokenize then wordpiece per word, concatenated. No framing tokens."""
    ids: list[int] = []
    for word in basic_tokenize(text, do_lower_case):
        ids += wordpiece(word, vocab)
    return TokenSequence(ids=tuple(ids))
