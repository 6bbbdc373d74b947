"""Build one workload's corpus from a seed and describe it.

Runs as its own process, before any measured run starts, so the process that
launches and times ``bertpipe run`` never holds corpus text in memory.

    PYTHONPATH=src python3 bench/gen.py --kind ascii --mib 1 --seed 7 \
        --out corpus/ --props props.json [--fixed-width] [--stats]

``--kind ascii`` writes ``--mib`` of ``bertpipe.synthdata.generate_corpus``
articles; ``--kind unicode`` uses the generator below (accented Latin, CJK
runs, dense punctuation, mixed case, a long tail of out-of-vocabulary
words). ``--fixed-width`` then pads every line to 256 columns, as in
fixed-width record exports, which multiplies the corpus bytes without adding
words. The props
file always holds ``bytes`` and ``articles`` (articles split exactly as
ingest splits them); ``--stats`` adds ``distinct_word_share`` and
``non_ascii_doc_share`` over the words ``basic_tokenize`` produces.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from bertpipe.ingest import iter_articles
from bertpipe.synthdata import generate_corpus
from bertpipe.tokenization import basic_tokenize

_CONSONANTS = "bcdfghjklmnprstvwzxq"
_VOWELS = "aeiouy"
_ACCENTED_VOWELS = "àáâäãåæèéêëìíîïòóôöõøœùúûüýÿ"
_ACCENTED_CONSONANTS = "çñßðþłśźżčšžř"
_PUNCT_AFTER = ",,,,;;::..!?…—)»”’"
_PUNCT_BEFORE = "(«“‘¿¡"
_CJK_FIRST, _CJK_COUNT = 0x4E00, 0x5200
FIXED_WIDTH_COLUMNS = 256


def _syllable(rng: random.Random) -> str:
    onset = rng.choice(_ACCENTED_CONSONANTS if rng.random() < 0.12 else _CONSONANTS)
    vowel = rng.choice(_ACCENTED_VOWELS if rng.random() < 0.3 else _VOWELS)
    return onset + vowel + (rng.choice(_CONSONANTS) if rng.random() < 0.35 else "")


def _latin_word(rng: random.Random) -> str:
    word = "".join(_syllable(rng) for _ in range(rng.randint(1, 4)))
    roll = rng.random()
    if roll < 0.25:
        return word.capitalize()
    if roll < 0.3:
        return word.upper()
    return word


def _zipf_weights(n: int) -> list[float]:
    """Cumulative Zipf (s = 1) weights over ranks 1..n."""
    total, cum = 0.0, []
    for rank in range(1, n + 1):
        total += 1 / rank
        cum.append(total)
    return cum


class _Lexicon:
    """Zipf-distributed Latin words and CJK characters, fixed per seed."""

    def __init__(self, rng: random.Random):
        self.words = [_latin_word(rng) for _ in range(4000)]
        self.word_weights = _zipf_weights(len(self.words))
        self.hanzi = [chr(_CJK_FIRST + k) for k in rng.sample(range(_CJK_COUNT), 3000)]
        self.hanzi_weights = _zipf_weights(len(self.hanzi))

    def cjk_run(self, rng: random.Random) -> str:
        return "".join(rng.choices(self.hanzi, cum_weights=self.hanzi_weights,
                                   k=rng.randint(2, 8)))

    def word(self, rng: random.Random) -> str:
        return rng.choices(self.words, cum_weights=self.word_weights)[0]


def _unicode_sentence(rng: random.Random, lexicon: _Lexicon) -> str:
    parts = []
    for _ in range(rng.randint(6, 16)):
        roll = rng.random()
        if roll < 0.12:
            word = lexicon.cjk_run(rng)
        elif roll < 0.6:
            word = _latin_word(rng)  # fresh: the long out-of-vocabulary tail
        else:
            word = lexicon.word(rng)
        if rng.random() < 0.08:
            word = rng.choice(_PUNCT_BEFORE) + word
        if rng.random() < 0.3:
            word += rng.choice(_PUNCT_AFTER)
        parts.append(word)
    return " ".join(parts)


def generate_unicode_corpus(out_dir: Path, target_bytes: int, seed: int, n_files: int = 4) -> None:
    """Write ~target_bytes of blank-line-delimited multilingual articles."""
    rng = random.Random(seed)
    lexicon = _Lexicon(rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    article_no = 0
    for file_no in range(n_files):
        chunks: list[str] = []
        written = 0
        while written < target_bytes // n_files:
            lines = [f"№ {article_no} — {_latin_word(rng)}"]
            lines += [_unicode_sentence(rng, lexicon) for _ in range(rng.randint(2, 8))]
            article = "\n".join(lines) + "\n\n"
            chunks.append(article)
            written += len(article.encode("utf-8"))
            article_no += 1
        (out_dir / f"part-{file_no:03d}.txt").write_text("".join(chunks), encoding="utf-8")


def pad_to_fixed_width(paths: list[Path]) -> None:
    for path in paths:
        lines = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n".join(line.ljust(FIXED_WIDTH_COLUMNS) if line else line
                                  for line in lines), encoding="utf-8")


def describe(corpus: Path, stats: bool) -> dict:
    props = {"bytes": 0, "articles": 0}
    words = 0
    distinct: set[str] = set()
    non_ascii = 0
    for path in sorted(corpus.iterdir()):
        props["bytes"] += path.stat().st_size
        with open(path, encoding="utf-8") as fh:
            for text in iter_articles(fh):
                props["articles"] += 1
                if stats:
                    doc_words = basic_tokenize(text)
                    words += len(doc_words)
                    distinct.update(doc_words)
                    non_ascii += not text.isascii()
    if stats:
        props["distinct_word_share"] = len(distinct) / words
        props["non_ascii_doc_share"] = non_ascii / props["articles"]
    return props


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("ascii", "unicode"), required=True)
    parser.add_argument("--mib", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--props", type=Path, required=True)
    parser.add_argument("--fixed-width", action="store_true")
    parser.add_argument("--stats", action="store_true")
    args = parser.parse_args()
    target = int(args.mib * 2**20)
    if args.kind == "unicode":
        generate_unicode_corpus(args.out, target, args.seed)
    else:
        generate_corpus(args.out, target, seed=args.seed)
    if args.fixed_width:
        pad_to_fixed_width(sorted(args.out.iterdir()))
    args.props.write_text(json.dumps(describe(args.out, args.stats)), encoding="utf-8")


if __name__ == "__main__":
    main()
