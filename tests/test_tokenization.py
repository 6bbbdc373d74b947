from __future__ import annotations

import random
import re
import tracemalloc
import unicodedata

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bertpipe import tokenization
from bertpipe.tokenization import (
    SPECIAL_TOKENS,
    WORDPIECE_MEMO_SIZE,
    VocabularyError,
    basic_tokenize,
    load_vocab,
    make_vocabulary,
    resolve_vocab,
    tokenize,
    vocab_digest,
    wordpiece,
)


class TestLoadVocab:
    def test_line_numbering(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nhello\n")
        vocab = load_vocab(p)
        assert len(vocab) == 6
        assert vocab.cls_id == 2
        assert vocab.token_to_id["hello"] == 5

    def test_missing_special(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nhello\n")
        with pytest.raises(VocabularyError, match=r"\[MASK\]"):
            load_vocab(p)

    def test_duplicate_token(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nhello\nhello\n")
        with pytest.raises(VocabularyError, match="duplicate"):
            load_vocab(p)

    def test_resolve_bundled_and_path(self, tmp_path):
        assert resolve_vocab("mini-uncased").is_file()
        p = tmp_path / "v.txt"
        p.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\n")
        assert resolve_vocab(str(p)) == p
        with pytest.raises(VocabularyError, match="no-such-vocab"):
            resolve_vocab("no-such-vocab")


class TestBasicTokenize:
    def test_punctuation_splits(self):
        assert basic_tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_empty(self):
        assert basic_tokenize("") == []

    def test_accent_stripping(self):
        # Character-level oracle: NFD-decompose, drop combining marks, lower.
        word = "Héllo"
        expected = "".join(
            c for c in unicodedata.normalize("NFD", word.lower())
            if unicodedata.category(c) != "Mn"
        )
        assert basic_tokenize(word) == [expected] == ["hello"]

    def test_whitespace_forms(self):
        assert basic_tokenize("a\tb\nc d") == list("abcd")


class TestWordpiece:
    def test_greedy_longest_match(self, tiny_vocab):
        # Hand trace: "unaffable" -> un | ##aff | ##able
        ids = wordpiece("unaffable", tiny_vocab)
        assert [tiny_vocab.tokens[i] for i in ids] == ["un", "##aff", "##able"]

    def test_verbatim_word(self, tiny_vocab):
        assert wordpiece("hello", tiny_vocab) == [tiny_vocab.token_to_id["hello"]]

    def test_unmatchable_word(self, tiny_vocab):
        assert wordpiece("xyzzy", tiny_vocab) == [tiny_vocab.unk_id]

    def test_too_long_word(self, tiny_vocab):
        word = "a" + "c" * 299  # covered by {a, ##c} but over the 200-char cap
        assert wordpiece(word, tiny_vocab) == [tiny_vocab.unk_id]
        assert list(tokenize(word, tiny_vocab).ids) == [tiny_vocab.unk_id]

    def test_memo_is_bounded(self, tiny_vocab):
        # "a" + "c" * k is a | ##c * k; more distinct words than the memo holds.
        words = ["a" + "c" * (k % 150) + "b" * (k // 150) for k in range(WORDPIECE_MEMO_SIZE + 500)]
        for word in words:
            assert wordpiece(word, tiny_vocab) == _reference_wordpiece(word, tiny_vocab)
            assert len(tiny_vocab.wordpiece_memo) <= WORDPIECE_MEMO_SIZE
        for word in words[:50]:
            assert wordpiece(word, tiny_vocab) == _reference_wordpiece(word, tiny_vocab)

    def test_memoized_result_is_not_shared(self, tiny_vocab):
        wordpiece("hello", tiny_vocab).append(-1)
        assert wordpiece("hello", tiny_vocab) == [tiny_vocab.token_to_id["hello"]]

    def test_bare_continuation_marker_token(self):
        vocab = make_vocabulary(
            ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "##", "a", "##a", "##b", "####"]
        )
        ids = vocab.token_to_id
        assert wordpiece("##", vocab) == [ids["##"]]
        assert wordpiece("a##", vocab) == [ids["a"], ids["####"]]
        assert wordpiece("aab", vocab) == [ids["a"], ids["##a"], ids["##b"]]
        assert wordpiece("b", vocab) == [vocab.unk_id]
        for word in ("##", "a##", "aab", "b", "a#", "##a", "a###", "a####a"):
            assert wordpiece(word, vocab) == _reference_wordpiece(word, vocab)

    def test_word_starting_with_continuation_marker(self, tiny_vocab):
        # A word is matched against whole tokens first, "##" included.
        ids = tiny_vocab.token_to_id
        assert wordpiece("##able", tiny_vocab) == [ids["##able"]]
        assert wordpiece("##affable", tiny_vocab) == [ids["##aff"], ids["##able"]]
        assert wordpiece("##", tiny_vocab) == [tiny_vocab.unk_id]
        for word in ("##able", "##affable", "##", "##s", "##c##c"):
            assert wordpiece(word, tiny_vocab) == _reference_wordpiece(word, tiny_vocab)


# -- The path-compressed trie ---------------------------------------------

@st.composite
def _trie_pieces(draw) -> list[str]:
    """1-12 pieces over "abc", some "##"; prefixes of drawn pieces are likely too."""
    bodies = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=7),
                           min_size=1, max_size=12, unique=True))
    cuts = draw(st.lists(st.integers(1, 6), max_size=len(bodies)))
    # A cut body ends a piece on the path of a longer one; the rest of that
    # path is a single-child chain unless another piece branches off it.
    bodies += [body[:cut] for body, cut in zip(bodies, cuts)]
    marks = draw(st.lists(st.booleans(), min_size=len(bodies), max_size=len(bodies)))
    return sorted({"##" + body if mark else body for body, mark in zip(bodies, marks)})[:12]


@settings(max_examples=300, deadline=None)
@given(_trie_pieces(), st.lists(st.text(alphabet="abcd", min_size=1, max_size=12),
                                min_size=1, max_size=8))
def test_trie_matches_reference_on_random_vocabularies(pieces, words):
    # "d" is in no piece, so a word that holds it maps to [UNK] at some point.
    vocab = make_vocabulary([*SPECIAL_TOKENS, *pieces])
    for word in words:
        assert wordpiece(word, vocab) == _reference_wordpiece(word, vocab)


def _synthetic_vocab(n: int, seed: int):
    """``n`` distinct pieces over a skewed alphabet, about a third "##" pieces."""
    rng = random.Random(seed)
    letters = "etaoinshrdlcumwfgypbvkjxqz"
    weights = range(len(letters), 0, -1)
    pieces: set[str] = set()
    while len(pieces) < n:
        body = "".join(rng.choices(letters, weights, k=rng.randint(1, 10)))
        pieces.add("##" + body if rng.random() < 0.35 else body)
    return make_vocabulary([*SPECIAL_TOKENS, *sorted(pieces)])


def _trie_nodes(trie):
    """Yield (path, piece id, child edges) for every node below the root."""
    stack = [("", trie)]
    while stack:
        prefix, edges = stack.pop()
        for char, (label, piece_id, children) in edges.items():
            assert label[0] == char
            if children is not None:
                stack.append((prefix + label, children))
            yield prefix + label, piece_id, children


@pytest.fixture(scope="module")
def synthetic_vocab():
    return _synthetic_vocab(30_000, seed=7)


def test_trie_is_path_compressed(mini_vocab, synthetic_vocab):
    for vocab in (mini_vocab, synthetic_vocab):
        found = {}
        edges = 0
        for trie, marker in ((vocab.initial_trie, ""), (vocab.continuation_trie, "##")):
            for path, piece_id, children in _trie_nodes(trie):
                edges += 1
                # A node exists only where a piece ends or where paths branch;
                # a leaf has None for its edges.
                assert piece_id >= 0 or len(children) >= 2, path
                assert children is None or children, path
                if piece_id >= 0:
                    found[marker + path] = piece_id
        assert found == {t: i for t, i in vocab.token_to_id.items() if t not in ("", "##")}
        assert edges <= 2 * len(vocab)


def _prefix_table(pieces):
    """Every prefix of every piece -> the piece's id or -1: the uncompressed alternative."""
    table = {}
    for piece in pieces:
        for end in range(1, len(piece)):
            table.setdefault(piece[:end], -1)
    table.update(pieces)
    return table


def _traced_bytes(build) -> int:
    """Bytes allocated by ``build()`` that its result still holds."""
    tracemalloc.start()
    try:
        result = build()  # noqa: F841 - alive while measured
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_trie_is_smaller_than_a_prefix_table(synthetic_vocab):
    tokens = list(synthetic_vocab.tokens)
    ids = synthetic_vocab.token_to_id
    continuations = {t[2:]: i for t, i in ids.items() if t.startswith("##")}
    trie_bytes = _traced_bytes(lambda: make_vocabulary(tokens))
    # make_vocabulary also builds token_to_id; the tables are measured with a copy of it.
    table_bytes = _traced_bytes(lambda: (ids.copy(), _prefix_table(ids),
                                         _prefix_table(continuations)))
    assert trie_bytes <= table_bytes


def _reference_wordpiece(word: str, vocab) -> list[int]:
    """Recursive longest-match WordPiece that builds every "##" piece.

    A word longer than 200 characters maps to [UNK].
    """

    def match(rest: str, first: bool) -> list[int] | None:
        if not rest:
            return []
        for end in range(len(rest), 0, -1):
            piece = rest[:end] if first else "##" + rest[:end]
            if piece in vocab.token_to_id:
                tail = match(rest[end:], False)
                if tail is not None:
                    return [vocab.token_to_id[piece]] + tail
                break  # greedy: do not backtrack to shorter prefixes
        return None

    pieces = match(word, True) if len(word) <= 200 else None
    return pieces if pieces is not None else [vocab.unk_id]


def _reference_tokenize(text: str, vocab) -> list[int]:
    """Independent re-implementation of the tokenization rules.

    Regex-based word splitting and a recursive longest-match WordPiece,
    structurally different from the production code.
    """
    text = unicodedata.normalize("NFD", text.lower())
    text = "".join(c for c in text if unicodedata.category(c) != "Mn")

    def is_punct(c):
        cp = ord(c)
        ascii_punct = (33 <= cp <= 47) or (58 <= cp <= 64) or (91 <= cp <= 96) or (123 <= cp <= 126)
        return ascii_punct or unicodedata.category(c).startswith("P")

    words = []
    for chunk in re.split(r"\s+", text):
        if not chunk:
            continue
        word = ""
        for c in chunk:
            if is_punct(c):
                if word:
                    words.append(word)
                    word = ""
                words.append(c)
            else:
                word += c
        if word:
            words.append(word)

    out: list[int] = []
    for word in words:
        out.extend(_reference_wordpiece(word, vocab))
    return out


# Golden ids for one fixture sentence against the tiny vocabulary, produced
# by the reference implementation above and frozen.
GOLDEN_SENTENCE = "Hello, the unaffable news!"
GOLDEN_IDS = [5, 13, 10, 7, 8, 9, 11, 12, 14]


class TestTokenize:
    def test_empty(self, tiny_vocab):
        assert len(tokenize("", tiny_vocab)) == 0

    def test_repeated_word(self, tiny_vocab):
        seq = tokenize("hello hello", tiny_vocab)
        assert list(seq.ids) == [tiny_vocab.token_to_id["hello"]] * 2

    def test_golden_sentence(self, tiny_vocab):
        assert _reference_tokenize(GOLDEN_SENTENCE, tiny_vocab) == GOLDEN_IDS
        assert list(tokenize(GOLDEN_SENTENCE, tiny_vocab).ids) == GOLDEN_IDS

    def test_calls_both_stages_through_module_globals(self, tiny_vocab, monkeypatch):
        # Tracing wraps these module attributes; tokenize must look them up there.
        calls = {"basic_tokenize": 0, "wordpiece": 0}

        def counting(name):
            original = getattr(tokenization, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tokenization, "basic_tokenize", counting("basic_tokenize"))
        monkeypatch.setattr(tokenization, "wordpiece", counting("wordpiece"))
        seq = tokenization.tokenize(GOLDEN_SENTENCE, tiny_vocab)
        assert calls == {"basic_tokenize": 1, "wordpiece": 6}
        assert list(seq.ids) == GOLDEN_IDS

    def test_agrees_with_reference_on_mixed_text(self, mini_vocab):
        samples = [
            "The new state of the world, said Mr. Young!",
            "Running faster than ever: unaffable?",
            "  spaced   out\ttabs\nnewlines  ",
            "Héllo wörld — mixed punctuation; truly.",
        ]
        for text in samples:
            assert list(tokenize(text, mini_vocab).ids) == _reference_tokenize(text, mini_vocab)


# -- Properties ------------------------------------------------------------

_WHITESPACE = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000 \t\n"
# 200 characters is the cap: each pair is one word at and one just over it,
# covered by mini-uncased (a ##a ...) and by the tiny vocabulary (a ##c ...).
_LONG_WORDS = ("a" * 200, "a" * 201, "a" + "c" * 199, "a" + "c" * 200)
_unicode_text = st.lists(
    st.one_of(
        st.characters(categories=("Mn",)),
        st.characters(categories=("Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po",
                                  "Sm", "Sc", "Sk", "So")),
        st.sampled_from(_WHITESPACE),
        st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
        st.sampled_from("0123456789İẞ"),
        st.sampled_from("abcdefhilnorstuwyÀÉéüñ"),
        st.sampled_from(("unaffable", "Héllo", "running", "States", "news")),
        st.sampled_from(_LONG_WORDS).map(lambda w: f" {w} "),
        st.text(max_size=4),
    ),
    max_size=40,
).map("".join)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_unicode_text)
def test_agrees_with_reference_on_unicode(tiny_vocab, mini_vocab, text: str):
    for vocab in (tiny_vocab, mini_vocab):
        assert list(tokenize(text, vocab).ids) == _reference_tokenize(text, vocab)

_word = st.text(alphabet=st.sampled_from("abcdehlnostuw"), min_size=1, max_size=8)


@given(_word, _word)
def test_concatenation_property(a: str, b: str):
    vocab = make_vocabulary(
        ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "hello", "un", "##aff", "##able",
         "a", "b", "##c", "the"]
    )
    combined = tokenize(a + " " + b, vocab)
    assert list(combined.ids) == list(tokenize(a, vocab).ids) + list(tokenize(b, vocab).ids)


@given(st.text(max_size=80))
def test_ids_always_in_range_and_pure(text: str):
    vocab = make_vocabulary(
        ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "hello", "world", "##s", "a", "!"]
    )
    seq1 = tokenize(text, vocab)
    seq2 = tokenize(text, vocab)
    assert seq1 == seq2
    assert all(0 <= i < len(vocab) for i in seq1.ids)


def test_detokenization_round_trip(mini_vocab):
    # Words fully covered by the vocabulary reassemble to the lower-cased word.
    for word in ("hello", "united", "unaffable", "working", "state", "states"):
        ids = wordpiece(word.lower(), mini_vocab)
        assert mini_vocab.unk_id not in ids, f"{word} not covered by fixture vocab"
        rebuilt = "".join(mini_vocab.tokens[i].removeprefix("##") for i in ids)
        assert rebuilt == word.lower()


def test_vocab_digest_changes_with_content(tiny_vocab, mini_vocab):
    assert vocab_digest(tiny_vocab) != vocab_digest(mini_vocab)
    assert vocab_digest(tiny_vocab) == vocab_digest(tiny_vocab)
