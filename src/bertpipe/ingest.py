"""Corpus ingestion: local directories and fetched remote corpora.

Input corpora are plain UTF-8 text files in which articles are separated by
blank lines (a blank line matches only whitespace). Ingestion turns every
corpus into one deterministic stream of article-level documents:

* files are enumerated in sorted order (lexicographic by relative path),
  sources in config order (customized directories first, then remote),
* each article becomes a :class:`DocumentRecord` whose ``doc_id`` encodes
  (global file index, article ordinal), so two runs over the same corpus
  always produce the identical ``doc_id -> text`` map, and files can be
  ingested by any number of workers without coordination.

Remote corpora are fetched over HTTP from a configurable base URL with the
path convention ``<base>/<name>/<split>/<file>`` and an ``index.txt`` listing
the files; a fetched corpus is cached and never re-downloaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

# doc_id layout: high 32 bits = global file index, low 32 bits = article ordinal.
_FILE_INDEX_SHIFT = 32

CACHE_MARKER = ".complete"
INDEX_FILE = "index.txt"


class IngestError(Exception):
    """A corpus could not be read (missing path, bad encoding, ...)."""


class FetchError(Exception):
    """Remote corpus fetch failed."""


class RetryableFetchError(FetchError):
    """Transient failure (network, server error); the fetch may be retried."""


class PermanentFetchError(FetchError):
    """The dataset/split does not exist at the endpoint; retrying won't help."""


@dataclass(frozen=True)
class DocumentRecord:
    """One article flowing through the pipeline.

    ``text`` is non-empty and carries no leading/trailing blank lines;
    ``doc_id`` is unique within a run and stable for a given corpus.
    """

    doc_id: int
    source: str
    text: str


@dataclass(frozen=True)
class CorpusSource:
    """One corpus named by the config: a local directory or a remote (name, split)."""

    kind: str  # "local_directory" | "remote_dataset"
    locator: str | tuple[str, str]

    def __post_init__(self):
        if self.kind not in ("local_directory", "remote_dataset"):
            raise ValueError(f"unknown corpus source kind: {self.kind!r}")
        if not self.locator:
            raise ValueError("corpus source locator must be non-empty")

    @property
    def label(self) -> str:
        if self.kind == "local_directory":
            return str(self.locator)
        name, split = self.locator
        return f"{name}/{split}"


def scan_local(directory: str | Path) -> list[Path]:
    """All regular files under ``directory`` (recursive), sorted by relative path."""
    root = Path(directory)
    if not root.is_dir():
        raise IngestError(f"corpus directory does not exist or is not readable: {root}")
    try:
        files = [p for p in root.rglob("*") if p.is_file()]
    except OSError as exc:
        raise IngestError(f"cannot scan corpus directory {root}: {exc}") from exc
    files.sort(key=lambda p: p.relative_to(root).as_posix())
    return files


def _is_blank(line: str) -> bool:
    return line.strip() == ""


def iter_articles(lines: Iterable[str]) -> Iterator[str]:
    """Split a stream of lines into article texts at runs of blank lines.

    Lines may carry their trailing newline or not; article texts join the
    member lines with single newlines. Empty chunks are dropped, so every
    yielded text is non-empty with no leading/trailing blank lines. Streaming:
    only one article is held in memory at a time.
    """
    buf: list[str] = []
    for line in lines:
        line = line.rstrip("\n")
        if _is_blank(line):
            if buf:
                yield "\n".join(buf)
                buf = []
        else:
            buf.append(line)
    if buf:
        yield "\n".join(buf)


def split_articles(file_text: str, source: str, first_doc_id: int = 0) -> list[DocumentRecord]:
    """Split one file's text into DocumentRecords (doc_ids assigned sequentially)."""
    return [
        DocumentRecord(doc_id=first_doc_id + k, source=source, text=text)
        for k, text in enumerate(iter_articles(file_text.splitlines()))
    ]


def iter_file_documents(path: Path, file_index: int, source: str) -> Iterator[DocumentRecord]:
    """Stream the articles of one file as DocumentRecords.

    ``doc_id = file_index << 32 | ordinal``: unique, order-independent, and
    computable by a worker that owns only this file.
    """
    base = file_index << _FILE_INDEX_SHIFT
    try:
        with open(path, encoding="utf-8") as fh:
            for k, text in enumerate(iter_articles(fh)):
                yield DocumentRecord(doc_id=base + k, source=source, text=text)
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"invalid UTF-8 in {path} at byte offset {exc.start}"
        ) from exc
    except OSError as exc:
        raise IngestError(f"cannot read corpus file {path}: {exc}") from exc


@dataclass(frozen=True)
class CorpusFile:
    """One input file with its global position in the ingest order."""

    file_index: int
    path: Path
    source: str


def enumerate_corpus_files(sources: Iterable[CorpusSource], cache_dir: Path | None = None,
                           base_url: str | None = None) -> list[CorpusFile]:
    """Deterministic global file list across all sources, in config order.

    Remote sources must either be cached under ``cache_dir`` already or
    fetchable from ``base_url``.
    """
    out: list[CorpusFile] = []
    index = 0
    for source in sources:
        if source.kind == "local_directory":
            directory = Path(str(source.locator))
        else:
            if cache_dir is None:
                raise IngestError("remote corpus requested but no cache directory configured")
            name, split = source.locator
            directory = fetch_remote(name, split, cache_dir, base_url=base_url)
        for path in scan_local(directory):
            if path.name == CACHE_MARKER:
                continue
            out.append(CorpusFile(file_index=index, path=path, source=source.label))
            index += 1
    return out


def iter_documents(files: Iterable[CorpusFile]) -> Iterator[DocumentRecord]:
    """Stream documents over an already-enumerated file list."""
    for f in files:
        yield from iter_file_documents(f.path, f.file_index, f.source)


def fetch_remote(
    name: str,
    split: str,
    cache_dir: str | Path,
    base_url: str | None = None,
    timeout: float = 30.0,
) -> Path:
    """Materialize a remote corpus as text files under ``cache_dir/name/split/``.

    Idempotent: if the cache holds a completed copy, no request is made.
    The endpoint must serve ``<base>/<name>/<split>/index.txt`` (one file name
    per line) and each listed file at ``<base>/<name>/<split>/<file>``.

    Raises:
        PermanentFetchError: the endpoint reports the dataset/split unknown (404).
        RetryableFetchError: network failure or server error.
        IngestError: no base URL configured and the corpus is not cached.
    """
    target = Path(cache_dir) / name / split
    marker = target / CACHE_MARKER
    if marker.exists():
        return target
    if base_url is None:
        raise IngestError(
            f"remote corpus {name}/{split} is not cached under {target} "
            "and no remote-corpus base URL is configured"
        )

    import requests  # only remote fetches pay for importing it

    prefix = f"{base_url.rstrip('/')}/{name}/{split}"
    try:
        resp = requests.get(f"{prefix}/{INDEX_FILE}", timeout=timeout)
    except requests.RequestException as exc:
        raise RetryableFetchError(f"fetching {prefix}/{INDEX_FILE}: {exc}") from exc
    if resp.status_code == 404:
        raise PermanentFetchError(f"unknown remote corpus: {name}/{split}")
    if resp.status_code >= 500:
        raise RetryableFetchError(f"server error {resp.status_code} for {name}/{split}")
    if resp.status_code != 200:
        raise PermanentFetchError(
            f"unexpected status {resp.status_code} fetching index of {name}/{split}"
        )

    file_names = [line.strip() for line in resp.text.splitlines() if line.strip()]
    target.mkdir(parents=True, exist_ok=True)
    for file_name in file_names:
        if "/" in file_name or file_name.startswith("."):
            raise PermanentFetchError(f"illegal file name in corpus index: {file_name!r}")
        try:
            file_resp = requests.get(f"{prefix}/{file_name}", timeout=timeout)
        except requests.RequestException as exc:
            raise RetryableFetchError(f"fetching {prefix}/{file_name}: {exc}") from exc
        if file_resp.status_code != 200:
            raise RetryableFetchError(
                f"status {file_resp.status_code} fetching {name}/{split}/{file_name}"
            )
        tmp = target / (file_name + ".part")
        tmp.write_bytes(file_resp.content)
        tmp.replace(target / file_name)
    marker.touch()
    return target


def sources_from_config(customized: Iterable[str],
                        huggingface: Iterable[tuple[str, str]]) -> list[CorpusSource]:
    """Sources in pipeline order: customized directories first, then remote pairs."""
    out = [CorpusSource("local_directory", str(d)) for d in customized]
    out += [CorpusSource("remote_dataset", (name, split)) for name, split in huggingface]
    return out
