from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bertpipe.ingest import (
    CorpusSource,
    IngestError,
    PermanentFetchError,
    enumerate_corpus_files,
    fetch_remote,
    iter_articles,
    iter_documents,
    iter_file_documents,
    scan_local,
)


def _articles(text: str) -> list[str]:
    return list(iter_articles(text.splitlines()))


class TestScanLocal:
    def test_lexicographic_order(self, tmp_path):
        (tmp_path / "b.txt").write_text("b")
        (tmp_path / "a.txt").write_text("a")
        assert [p.name for p in scan_local(tmp_path)] == ["a.txt", "b.txt"]

    def test_empty_directory(self, tmp_path):
        assert scan_local(tmp_path) == []

    def test_recursive_sorted_by_relative_path(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "x" / "1.txt").write_text("x1")
        (tmp_path / "0.txt").write_text("zero")
        rel = [p.relative_to(tmp_path).as_posix() for p in scan_local(tmp_path)]
        assert rel == ["0.txt", "x/1.txt"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IngestError, match="no_such"):
            scan_local(tmp_path / "no_such")


class TestSplitArticles:
    def test_two_articles(self):
        assert _articles("A1 line1\nA1 line2\n\nA2 line1\n") == ["A1 line1\nA1 line2", "A2 line1"]

    def test_only_blank_lines(self):
        assert _articles("\n\n\n") == []

    def test_whitespace_only_line_is_blank(self):
        # Hand oracle for the split rule: a line matching only whitespace
        # separates articles, so "X\n \nY" must give exactly ["X", "Y"].
        assert _articles("X\n \nY") == ["X", "Y"]

    def test_no_leading_trailing_blank_lines(self):
        assert _articles("\n\n  \nbody line\n\n") == ["body line"]

    def test_doc_ids_sequential(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a\n\nb\n\nc")
        records = list(iter_file_documents(path, 7))
        assert [r.doc_id for r in records] == [(7 << 32) + k for k in range(3)]
        assert [r.text for r in records] == ["a", "b", "c"]

    def test_invalid_utf8_reports_offset(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"good text\n\xff\xfe more")
        with pytest.raises(IngestError, match="byte offset 10"):
            list(iter_file_documents(bad, 0))


# The split rule guarantees records contain no blank lines, so joining with
# a blank separator and re-splitting is the identity.
_texts = st.text(
    alphabet=st.sampled_from("ab \n\t"),
    max_size=200,
)


@given(_texts)
def test_split_is_idempotent(text: str):
    once = _articles(text)
    joined = "\n\n".join(once)
    again = _articles(joined)
    assert once == again


@given(_texts)
def test_ingested_characters_bounded(text: str):
    total = sum(len(article) for article in _articles(text))
    assert total <= len(text)


def test_deterministic_doc_id_map(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "one.txt").write_text("alpha\n\nbeta\n")
    (d / "two.txt").write_text("gamma\n")
    files = enumerate_corpus_files([CorpusSource("local_directory", str(d))])

    def id_map():
        return {doc.doc_id: doc.text for doc in iter_documents(files)}

    first, second = id_map(), id_map()
    assert first == second
    assert len(first) == 3
    # doc_ids encode (file index, ordinal): unique across files.
    assert sorted(first) == [0, 1, 1 << 32]


class TestFetchRemote:
    def _serve_corpus(self, server, name="bookcorpusopen", split="plain_text"):
        d = server.root / name / split
        d.mkdir(parents=True)
        (d / "index.txt").write_text("f1.txt\nf2.txt\n")
        (d / "f1.txt").write_text("first article\n\nsecond article\n")
        (d / "f2.txt").write_text("third article\n")
        return name, split

    def test_fixture_files_materialized(self, corpus_server, tmp_path):
        name, split = self._serve_corpus(corpus_server)
        target = fetch_remote(name, split, tmp_path / "cache", corpus_server.base_url)
        texts = sorted(p.name for p in target.glob("*.txt"))
        assert texts == ["f1.txt", "f2.txt"]

    def test_warm_cache_makes_no_requests(self, corpus_server, tmp_path):
        name, split = self._serve_corpus(corpus_server)
        fetch_remote(name, split, tmp_path / "cache", corpus_server.base_url)
        before = corpus_server.request_count
        target = fetch_remote(name, split, tmp_path / "cache", corpus_server.base_url)
        assert corpus_server.request_count == before
        assert target.is_dir()

    def test_unknown_dataset_is_permanent_error(self, corpus_server, tmp_path):
        with pytest.raises(PermanentFetchError, match="nope/plain_text"):
            fetch_remote("nope", "plain_text", tmp_path / "cache", corpus_server.base_url)

    def test_uncached_without_base_url(self, tmp_path):
        with pytest.raises(IngestError, match="base URL"):
            fetch_remote("wikipedia", "20220301.en", tmp_path / "cache", base_url=None)

    def test_enumerate_concatenates_in_config_order(self, corpus_server, tmp_path):
        name, split = self._serve_corpus(corpus_server)
        local = tmp_path / "local"
        local.mkdir()
        (local / "z.txt").write_text("local doc\n")
        sources = [
            CorpusSource("local_directory", str(local)),
            CorpusSource("remote_dataset", (name, split)),
        ]
        files = enumerate_corpus_files(
            sources, cache_dir=tmp_path / "cache", base_url=corpus_server.base_url
        )
        remote = tmp_path / "cache" / name / split
        assert [f.path for f in files] == [local / "z.txt", remote / "f1.txt", remote / "f2.txt"]
        assert [f.file_index for f in files] == [0, 1, 2]
