from __future__ import annotations

import contextlib
import http.server
import signal
import threading
from pathlib import Path

import pytest

from bertpipe.tokenization import Vocabulary, load_vocab, make_vocabulary, resolve_vocab

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"


@pytest.fixture(scope="session")
def mini_vocab() -> Vocabulary:
    """The vocabulary bundled with the package."""
    return load_vocab(resolve_vocab("mini-uncased"))


@pytest.fixture()
def file_size_limit():
    """``with file_size_limit(n):`` a write past ``n`` bytes fails partway, as on a full disk."""
    resource = pytest.importorskip("resource")

    @contextlib.contextmanager
    def limit(size: int):
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))
        try:
            yield
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)

    return limit


@pytest.fixture()
def tiny_vocab() -> Vocabulary:
    """A hand-sized vocabulary for exact tokenization traces."""
    return make_vocabulary(
        [
            "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]",
            "hello", "world", "un", "##aff", "##able", "the", "new", "##s",
            ",", "!", ".", "a", "b", "##c",
        ]
    )


class _CountingHandler(http.server.SimpleHTTPRequestHandler):
    def log_message(self, *args):  # silence request logging
        pass

    def do_GET(self):
        self.server.request_count += 1
        super().do_GET()


class CorpusServer:
    """Local HTTP server serving a directory, with a request counter."""

    def __init__(self, root: Path):
        self.root = root
        handler = lambda *a, **kw: _CountingHandler(*a, directory=str(root), **kw)
        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.httpd.request_count = 0
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        return self.httpd.request_count

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture()
def corpus_server(tmp_path):
    """HTTP fixture serving tmp_path/served as a remote-corpus endpoint."""
    root = tmp_path / "served"
    root.mkdir()
    server = CorpusServer(root)
    yield server
    server.close()
