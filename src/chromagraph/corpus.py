"""Corpus loading, normalization, and tokenization.

Raw text becomes documents according to the input format (one document
per line for plain text, one record per line for JSONL, one row per CSV
record), then each document is normalized: punctuation characters are
replaced with spaces, the text is lowercased unless disabled, it is
split on whitespace, and stopwords are dropped last.

Text inputs are UTF-8 with universal newlines; a leading byte-order
mark is ignored. The record readers take the field names a load reads
(``fields_read``) and return one tuple of values per record.

One corpus load holds one string object per distinct token: every
occurrence of a token, in every document of the load, is that object.
``tokenize`` on its own makes new strings.
"""

from __future__ import annotations

import codecs
import csv
import io
import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path

from ._files import gc_paused, parse_json

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


@dataclass(frozen=True, slots=True)
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
        return frozenset(chain.from_iterable(doc.tokens for doc in self.docs))

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
    return Document(tuple(_words(text, config)))


def _words(text: str, config: IngestConfig) -> list[str]:
    cleaned = text.translate(_space_table(config.punctuation))
    if config.lowercase:
        cleaned = cleaned.lower()
    words = cleaned.split()
    if config.stopwords:
        words = [w for w in words if w not in config.stopwords]
    return words


def read_stopwords(path) -> frozenset[str]:
    """Read a stopword file, one token per line; blank lines are ignored.

    A non-UTF-8 byte raises CorpusFormatError at path:line.
    """
    lines = read_utf8(path).splitlines()
    return frozenset(w.strip() for w in lines if w.strip())


def fields_read(config: IngestConfig, format: str, labeled: bool = False) -> dict[str, str]:
    """The IngestConfig fields a load reads, text field first; a plain record is its line."""
    fields = {} if format == "plain" else {"text_field": config.text_field}
    if labeled:
        fields["label_field"] = config.label_field
    return fields


def load_corpus(path, format: str = "plain", config: IngestConfig | None = None,
                source_id: str | None = None) -> Corpus:
    """Load and tokenize a corpus file.

    The returned corpus has one document per input record, in input
    order; records that tokenize to nothing are kept as empty documents.
    Raises FileNotFoundError for a missing file, CorpusFormatError (with
    a line number) for malformed records or bytes that are not UTF-8,
    ValueError for unknown formats.
    """
    return _load(path, format, config, source_id, labeled=False)[0]


def load_labeled_corpus(path, format: str = "csv", config: IngestConfig | None = None,
                        source_id: str | None = None) -> tuple[Corpus, tuple[str, ...]]:
    """Load a labeled corpus; returns (corpus, labels) aligned by index."""
    return _load(path, format, config, source_id, labeled=True)


@gc_paused
def _load(path, format, config, source_id, labeled) -> tuple[Corpus, tuple[str, ...]]:
    config = config or IngestConfig()
    records = _read_records(path, format, tuple(fields_read(config, format, labeled).values()))
    share = {}.setdefault  # each token's first string stands for all its occurrences
    docs = tuple(Document(tuple(map(share, words, words)))
                 for words in (_words(record[0], config) for record in records))
    labels = tuple(record[1] for record in records) if labeled else ()
    sid = source_id if source_id is not None else Path(path).name
    return Corpus(docs, sid), labels


def read_utf8(path) -> str:
    """Text with universal newlines; a non-UTF-8 byte raises CorpusFormatError at path:line."""
    # CR and LF never occur inside a UTF-8 sequence. The BOM goes before decoding:
    # the utf-8-sig codec would count error offsets from after it.
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"not valid UTF-8: {exc.reason}", str(path), line) from exc


def _read_records(path, format, fields):
    """One tuple per record: the line itself for plain, else the values of ``fields``."""
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r} (expected one of {FORMATS})")
    name = str(path)
    text = read_utf8(path)
    if format == "plain":
        if fields:
            raise CorpusFormatError("plain format carries no labels", name)
        return [(line,) for line in text.splitlines()]
    if format == "jsonl":
        return _jsonl_records(text, fields, name)
    return _csv_records(text, fields, name)


def _jsonl_records(text, fields, name):
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
        for field in fields:
            if field not in obj:
                raise CorpusFormatError(f"record lacks field {field!r}", name, lineno)
        records.append(tuple(str(obj[field]) for field in fields))
    return records


def _csv_records(text, fields, name):
    if not text.strip():
        return []
    reader = csv.DictReader(io.StringIO(text))
    records = []
    try:
        columns = reader.fieldnames or []
        for field in fields:
            if field not in columns:
                raise CorpusFormatError(f"missing column {field!r}", name, 1)
        for row in reader:
            record = tuple(map(row.get, fields))
            if None in record:
                raise CorpusFormatError("row is missing columns", name, reader.line_num)
            records.append(record)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        # DictReader.line_num moves only once a row parses; its inner reader's is current
        raise CorpusFormatError(f"invalid CSV: {exc}", name, reader.reader.line_num) from exc
    return records
