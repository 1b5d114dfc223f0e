"""Corpus loading, normalization, and tokenization.

Raw text becomes documents according to the input format (one document
per line for plain text, one record per line for JSONL, one row per CSV
record), then each document is normalized: punctuation characters are
replaced with spaces, the text is lowercased unless disabled, it is
split on whitespace, and stopwords are dropped last.
"""

from __future__ import annotations

import csv
import io
import string
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ._files import parse_json

FORMATS = ("plain", "jsonl", "csv")

DEFAULT_PUNCTUATION = frozenset(string.punctuation)


class CorpusFormatError(ValueError):
    """An input file does not parse under its declared format."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = path or "<input>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class IngestConfig:
    """Normalization settings applied to every document.

    ``text_field`` names the JSONL key or CSV column holding the text;
    ``label_field`` names the one holding a class label when a labeled
    corpus is loaded. Stopword matching happens after lowercasing, so
    stopword lists should be lowercase when ``lowercase`` is on.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()
    punctuation: frozenset[str] = DEFAULT_PUNCTUATION
    text_field: str = "text"
    label_field: str = "label"


@dataclass(frozen=True)
class Document:
    """One tokenized text, tokens in surface order."""

    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of tokenized documents."""

    docs: tuple[Document, ...]
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    def vocabulary(self) -> frozenset[str]:
        return frozenset(t for doc in self.docs for t in doc.tokens)

    def token_count(self) -> int:
        return sum(len(doc) for doc in self.docs)


@lru_cache(maxsize=None)
def _space_table(punctuation: frozenset[str]) -> dict[int, int | str]:
    # Every ASCII ordinal has an entry (itself unless it is punctuation):
    # str.translate pays far more for a key it misses than for one it finds.
    table: dict[int, int | str] = {i: i for i in range(128)}
    table.update((ord(ch), " ") for ch in punctuation)
    return table


def tokenize(text: str, config: IngestConfig = IngestConfig()) -> Document:
    """Split ``text`` into a normalized Document.

    Punctuation is replaced with spaces rather than deleted, so
    "pizza,when" yields two tokens instead of fusing into one. Total
    function: any input produces a (possibly empty) document.
    """
    cleaned = text.translate(_space_table(config.punctuation))
    if config.lowercase:
        cleaned = cleaned.lower()
    words = cleaned.split()
    if config.stopwords:
        words = [w for w in words if w not in config.stopwords]
    return Document(tuple(words))


def read_stopwords(path) -> frozenset[str]:
    """Read a stopword file, one token per line; blank lines are ignored.

    A non-UTF-8 byte raises CorpusFormatError at path:line.
    """
    lines = read_utf8(path).splitlines()
    return frozenset(w.strip() for w in lines if w.strip())


def load_corpus(path, format: str = "plain", config: IngestConfig | None = None,
                source_id: str | None = None) -> Corpus:
    """Load and tokenize a corpus file.

    The returned corpus has one document per input record, in input
    order; records that tokenize to nothing are kept as empty documents.
    Raises FileNotFoundError for a missing file, CorpusFormatError (with
    a line number) for malformed records or bytes that are not UTF-8,
    ValueError for unknown formats.
    """
    config = config or IngestConfig()
    records = _read_records(path, format, config, with_labels=False)
    docs = tuple(tokenize(text, config) for text, _ in records)
    sid = source_id if source_id is not None else Path(path).name
    return Corpus(docs, sid)


def load_labeled_corpus(path, format: str = "csv", config: IngestConfig | None = None,
                        source_id: str | None = None) -> tuple[Corpus, tuple[str, ...]]:
    """Load a labeled corpus; returns (corpus, labels) aligned by index."""
    config = config or IngestConfig()
    records = _read_records(path, format, config, with_labels=True)
    docs = tuple(tokenize(text, config) for text, _ in records)
    labels = tuple(label for _, label in records)
    sid = source_id if source_id is not None else Path(path).name
    return Corpus(docs, sid), labels


def read_utf8(path) -> str:
    """Text with universal newlines; a non-UTF-8 byte raises CorpusFormatError at path:line."""
    # CR and LF never occur inside a UTF-8 sequence
    raw = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"not valid UTF-8: {exc.reason}", str(path), line) from exc


def _read_records(path, format, config, with_labels):
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r} (expected one of {FORMATS})")
    name = str(path)
    text = read_utf8(path)
    if format == "plain":
        if with_labels:
            raise CorpusFormatError("plain format carries no labels", name)
        return [(line, "") for line in text.splitlines()]
    if format == "jsonl":
        return _jsonl_records(text, config, name, with_labels)
    return _csv_records(text, config, name, with_labels)


def _jsonl_records(text, config, name, with_labels):
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = parse_json(line)
        except ValueError as exc:
            raise CorpusFormatError(f"invalid JSON: {exc}", name, lineno) from exc
        if not isinstance(obj, dict):
            raise CorpusFormatError("record is not a JSON object", name, lineno)
        if config.text_field not in obj:
            raise CorpusFormatError(f"record lacks field {config.text_field!r}", name, lineno)
        label = ""
        if with_labels:
            if config.label_field not in obj:
                raise CorpusFormatError(f"record lacks field {config.label_field!r}", name, lineno)
            label = str(obj[config.label_field])
        records.append((str(obj[config.text_field]), label))
    return records


def _csv_records(text, config, name, with_labels):
    if not text.strip():
        return []
    reader = csv.DictReader(io.StringIO(text))
    records = []
    try:
        fields = reader.fieldnames or []
        if config.text_field not in fields:
            raise CorpusFormatError(f"missing column {config.text_field!r}", name, 1)
        if with_labels and config.label_field not in fields:
            raise CorpusFormatError(f"missing column {config.label_field!r}", name, 1)
        for row in reader:
            value = row.get(config.text_field)
            if value is None:
                raise CorpusFormatError("row is missing columns", name, reader.line_num)
            label = ""
            if with_labels:
                raw = row.get(config.label_field)
                if raw is None:
                    raise CorpusFormatError("row is missing columns", name, reader.line_num)
                label = str(raw)
            records.append((value, label))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        # DictReader.line_num moves only once a row parses; its inner reader's is current
        raise CorpusFormatError(f"invalid CSV: {exc}", name, reader.reader.line_num) from exc
    return records
