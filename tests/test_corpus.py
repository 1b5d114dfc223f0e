import codecs
import csv
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chromagraph import Corpus, CorpusFormatError, Document, IngestConfig, load_corpus, \
    load_labeled_corpus, read_stopwords, tokenize
from chromagraph._files import parse_json
from chromagraph.corpus import FORMATS, fields_read, read_utf8

from conftest import DATA_DIR, PIZZA_LINES, traced


def test_tokenize_basic():
    assert tokenize("I love eating pizza").tokens == ("i", "love", "eating", "pizza")


def test_tokenize_empty():
    assert tokenize("").tokens == ()


def test_tokenize_punctuation_splits():
    assert tokenize("Hello, world!!").tokens == ("hello", "world")
    assert tokenize("pizza,when").tokens == ("pizza", "when")


def test_tokenize_apostrophe_in_punctuation_set():
    assert tokenize("don't stop").tokens == ("don", "t", "stop")


def test_tokenize_no_lowercase():
    config = IngestConfig(lowercase=False)
    assert tokenize("I Love Pizza", config).tokens == ("I", "Love", "Pizza")


def test_stopwords_applied_after_lowercasing():
    config = IngestConfig(stopwords=frozenset({"the"}))
    assert tokenize("The THE the cat", config).tokens == ("cat",)


def test_stopwords_without_lowercase():
    config = IngestConfig(lowercase=False, stopwords=frozenset({"the"}))
    assert tokenize("The the cat", config).tokens == ("The", "cat")


def sparse_tokens(text: str, config: IngestConfig) -> tuple[str, ...]:
    """``tokenize`` with a table of the punctuation alone: the reference for its full table."""
    cleaned = text.translate({ord(ch): " " for ch in config.punctuation})
    if config.lowercase:
        cleaned = cleaned.lower()
    return tuple(w for w in cleaned.split() if w not in config.stopwords)


NON_ASCII_PUNCTUATION = IngestConfig(punctuation=frozenset(",.!?\u2026\u2013\u201c\u201d\u00bf\u3002"))


def test_tokenize_matches_sparse_table_on_sms_corpus():
    with open(DATA_DIR / "sms-spam.csv", encoding="utf-8", newline="") as fh:
        texts = [row["text"] for row in csv.DictReader(fh)]
    for config in (IngestConfig(), IngestConfig(lowercase=False), NON_ASCII_PUNCTUATION):
        for text in texts:
            assert tokenize(text, config).tokens == sparse_tokens(text, config)


@pytest.mark.parametrize("text", [
    "Caf\u00e9 na\u00efve \u2013 Stra\u00dfe\u2026 \u201cquoted\u201d, \u00c9COLE!",
    "\u00bfQu\u00e9? \u65e5\u672c\u8a9e\u3002\u30c6\u30b9\u30c8 \u0394\u03b5\u03bb\u03c4\u03b1.",
    "tab\there\u00a0nbsp \x00\x7f\x80 end",
])
@pytest.mark.parametrize("config", [IngestConfig(), NON_ASCII_PUNCTUATION],
                         ids=["default", "non_ascii_punctuation"])
def test_tokenize_matches_sparse_table_on_non_ascii_text(text, config):
    assert tokenize(text, config).tokens == sparse_tokens(text, config)


@given(st.text(max_size=200))
def test_tokenize_matches_sparse_table(text):
    for config in (IngestConfig(), NON_ASCII_PUNCTUATION):
        assert tokenize(text, config).tokens == sparse_tokens(text, config)


@given(st.text(max_size=200))
def test_tokenize_idempotent(text):
    config = IngestConfig()
    once = tokenize(text, config)
    again = tokenize(" ".join(once.tokens), config)
    assert once == again


@given(st.text(max_size=200))
def test_tokens_never_contain_punctuation_or_whitespace(text):
    config = IngestConfig()
    for token in tokenize(text, config).tokens:
        assert token
        assert not set(token) & config.punctuation
        assert not any(ch.isspace() for ch in token)


@given(st.text(max_size=200))
def test_tokenize_deterministic(text):
    assert tokenize(text) == tokenize(text)


def test_load_plain(tmp_path):
    path = tmp_path / "pizza.txt"
    path.write_text("\n".join(PIZZA_LINES) + "\n", encoding="utf-8")
    corpus = load_corpus(path, "plain")
    assert len(corpus) == 3
    assert corpus.docs[0].tokens == ("i", "love", "eating", "pizza")
    assert corpus.source_id == "pizza.txt"


def test_load_plain_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert len(load_corpus(path, "plain")) == 0


def test_load_plain_keeps_blank_documents(tmp_path):
    path = tmp_path / "gaps.txt"
    path.write_text("one two\n\nthree\n", encoding="utf-8")
    corpus = load_corpus(path, "plain")
    assert len(corpus) == 3
    assert corpus.docs[1].tokens == ()


def test_load_plain_breaks_lines_at_newline_only(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("one\x0ctwo\nthree\x1cfour\u2029five\x0bsix\n", encoding="utf-8")
    corpus = load_corpus(path, "plain")
    assert [d.tokens for d in corpus.docs] == [("one", "two"), ("three", "four", "five", "six")]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "absent.txt", "plain")


def test_unknown_format(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("hi", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown corpus format"):
        load_corpus(path, "xml")


def test_load_jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"text": "Hello there"}\n{"text": "Bye now"}\n', encoding="utf-8")
    corpus = load_corpus(path, "jsonl")
    assert [d.tokens for d in corpus.docs] == [("hello", "there"), ("bye", "now")]


def test_load_jsonl_text_may_hold_a_line_separator(tmp_path):
    # json.dumps(..., ensure_ascii=False) writes U+2028 raw, inside the string
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps({"text": "a\u2028b"}, ensure_ascii=False) + "\n"
                    + json.dumps({"text": "c\x85d"}, ensure_ascii=False) + "\n", encoding="utf-8")
    corpus = load_corpus(path, "jsonl")
    assert [d.tokens for d in corpus.docs] == [("a", "b"), ("c", "d")]


def test_load_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"bad\.jsonl:2"):
        load_corpus(path, "jsonl")


def test_load_jsonl_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"body": "x"}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="lacks field 'text'"):
        load_corpus(path, "jsonl")


def test_load_jsonl_custom_field(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps({"body": "a b"}) + "\n", encoding="utf-8")
    corpus = load_corpus(path, "jsonl", IngestConfig(text_field="body"))
    assert corpus.docs[0].tokens == ("a", "b")


def test_load_csv(tmp_path):
    path = tmp_path / "docs.csv"
    path.write_text("id,text\n1,Hello there\n2,Bye\n", encoding="utf-8")
    corpus = load_corpus(path, "csv")
    assert len(corpus) == 2
    assert corpus.docs[0].tokens == ("hello", "there")


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "docs.csv"
    path.write_text("id,body\n1,Hello\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="missing column 'text'"):
        load_corpus(path, "csv")


def test_load_csv_short_row(tmp_path):
    path = tmp_path / "docs.csv"
    path.write_text("id,text\n1,ok\n2\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"docs\.csv:3"):
        load_corpus(path, "csv")


def test_load_labeled_csv(tmp_path):
    path = tmp_path / "docs.csv"
    path.write_text("text,label\ngood movie,pos\nbad movie,neg\n", encoding="utf-8")
    corpus, labels = load_labeled_corpus(path, "csv")
    assert labels == ("pos", "neg")
    assert corpus.docs[1].tokens == ("bad", "movie")


def test_load_labeled_plain_rejected(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("hi\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="carries no labels"):
        load_labeled_corpus(path, "plain")


def test_load_labeled_jsonl(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"text": "Good movie", "label": "pos"}\n\n{"label": 0, "text": "Bad"}\n',
                    encoding="utf-8")
    corpus, labels = load_labeled_corpus(path, "jsonl")
    assert labels == ("pos", "0")
    assert [d.tokens for d in corpus.docs] == [("good", "movie"), ("bad",)]


def test_load_labeled_jsonl_missing_label_field(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"text": "a", "label": "x"}\n{"text": "b"}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"docs\.jsonl:2: record lacks field 'label'$"):
        load_labeled_corpus(path, "jsonl")


def test_load_labeled_csv_missing_label_column(tmp_path):
    path = tmp_path / "docs.csv"
    path.write_text("text,tag\na,x\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"docs\.csv:1: missing column 'label'$"):
        load_labeled_corpus(path, "csv")


def test_load_labeled_csv_row_cut_before_label(tmp_path):
    path = tmp_path / "docs.csv"
    path.write_text("text,label\na,x\nb\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"docs\.csv:3: row is missing columns$"):
        load_labeled_corpus(path, "csv")


def test_load_csv_short_row_after_blank_rows_names_its_own_line(tmp_path):
    text = "text,label\na,x\n\n\nb\n"
    dict_reader = csv.DictReader(io.StringIO(text))
    assert [dict_reader.line_num for _ in dict_reader] == [2, 5]  # not the first blank row
    path = tmp_path / "docs.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"docs\.csv:5: row is missing columns$"):
        load_labeled_corpus(path, "csv")


@pytest.mark.parametrize("format, labeled, expected", [
    ("plain", False, {}),
    ("plain", True, {"label_field": "tag"}),
    ("jsonl", False, {"text_field": "body"}),
    ("jsonl", True, {"text_field": "body", "label_field": "tag"}),
    ("csv", False, {"text_field": "body"}),
    ("csv", True, {"text_field": "body", "label_field": "tag"}),
])
def test_fields_read(format, labeled, expected):
    fields = fields_read(IngestConfig(text_field="body", label_field="tag"), format, labeled)
    assert list(fields.items()) == list(expected.items())


BOM_INPUTS = {
    "plain": b"Hello there\r\nhello again\n",
    "jsonl": b'{"text": "Hello there", "label": "a"}\n{"text": "hello", "label": "b"}\n',
    "csv": b"text,label\nHello there,a\nhello,b\n",
}


@pytest.mark.parametrize("format", FORMATS)
def test_leading_bom_is_ignored(tmp_path, format):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    (plain / "docs").write_bytes(BOM_INPUTS[format])
    (marked / "docs").write_bytes(codecs.BOM_UTF8 + BOM_INPUTS[format])
    assert load_corpus(marked / "docs", format) == load_corpus(plain / "docs", format)
    assert load_corpus(marked / "docs", format).docs[0].tokens == ("hello", "there")
    if format != "plain":
        assert (load_labeled_corpus(marked / "docs", format)
                == load_labeled_corpus(plain / "docs", format))


def test_stopword_file_bom_is_ignored(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"the\nof\n")
    assert read_stopwords(path) == frozenset({"the", "of"})


def test_bad_byte_after_bom_reports_its_line(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"a\n\xff")
    with pytest.raises(CorpusFormatError, match=r"docs\.txt:2: not valid UTF-8"):
        load_corpus(path, "plain")


corpus_bytes = st.lists(
    st.sampled_from([b"text", b"label", b",", b'"', b"\n", b"\r", b"{", b"}", b":", b"[",
                     b"1", b" ", b"\x00", b"\xe9"]) | st.binary(max_size=6),
    max_size=24).map(b"".join)


@pytest.mark.parametrize("format", FORMATS)
@given(data=corpus_bytes)
@example(data=b"[" * 100_000)
@example(data=b'{"text": ' + b"1" * 5_000 + b"}")
@example(data=b"text\n" + b"x" * 200_000)
def test_load_corpus_raises_only_corpus_format_error(tmp_path_factory, format, data):
    path = tmp_path_factory.mktemp("corpus") / "docs"
    path.write_bytes(data)
    try:
        corpus = load_corpus(path, format)
    except CorpusFormatError:
        return
    assert all(isinstance(doc, Document) for doc in corpus.docs)


def _lines(text):
    """``read_utf8`` text's lines: at ``\\n`` only, where ``str.splitlines`` breaks at more."""
    return text.removesuffix("\n").split("\n") if text else []


# The readers before fields_read, verbatim but for their line split (``_lines``, not
# ``str.splitlines``): the oracle for the field-tuple readers.
def _read_records(path, format, config, with_labels):
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r} (expected one of {FORMATS})")
    name = str(path)
    text = read_utf8(path)
    if format == "plain":
        if with_labels:
            raise CorpusFormatError("plain format carries no labels", name)
        return [(line, "") for line in _lines(text)]
    if format == "jsonl":
        return _jsonl_records(text, config, name, with_labels)
    return _csv_records(text, config, name, with_labels)


def _jsonl_records(text, config, name, with_labels):
    records = []
    for lineno, line in enumerate(_lines(text), start=1):
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


def _outcome(load):
    """What a load returns, or the type and message of what it raises."""
    try:
        return load()
    except ValueError as exc:
        return type(exc), str(exc)


def _reference_load(path, format, config, labeled):
    records = _read_records(path, format, config, with_labels=labeled)
    docs = tuple(tokenize(text, config) for text, _ in records)
    return docs, tuple(label for _, label in records) if labeled else ()


ORACLE_CONFIGS = [
    IngestConfig(),
    IngestConfig(text_field="text", label_field="text"),
    IngestConfig(text_field="label", label_field="label"),
    IngestConfig(label_field="1"),
    IngestConfig(text_field="label", label_field="text"),
]


@pytest.mark.parametrize("format", FORMATS)
@given(data=corpus_bytes, config=st.sampled_from(ORACLE_CONFIGS))
@example(data=b'{"text": "a b", "label": 1}\n\n{"label": "x", "text": 2}\n', config=IngestConfig())
@example(data=b'{"text": "a", "label": "x"}\n{"text": "b"}\n', config=IngestConfig())
@example(data=b'{"label": "x"}\n', config=IngestConfig())
@example(data=b'{"body": "x"}\n', config=IngestConfig())
@example(data=b"body\nx\n", config=IngestConfig())
@example(data=b"text,label\na,x\nb,y\n", config=IngestConfig())
@example(data=b"text,label\na,x\nb\n", config=IngestConfig())
@example(data=b"text,1\na,x\n", config=IngestConfig(label_field="1"))
@example(data=b"label\na\n", config=IngestConfig())
@example(data=b"text\na\n", config=IngestConfig(text_field="text", label_field="text"))
@example(data=b"\xef\xbb\xbftext,label\r\na,x\r\n", config=IngestConfig())
@example(data=b"text,label,text\na,x,b\n", config=IngestConfig())  # a repeated name's last
@example(data=b"text,label,text\na,x,b\nc,y\n", config=IngestConfig())  # short of the last
@example(data=b"label,text\nx\n", config=IngestConfig())  # short for text alone
@example(data=b"text,label\na,x\n\n\nb\n", config=IngestConfig())  # short after blank rows
@example(data=b'{"text": "a\xe2\x80\xa8b", "label": "x"}\n', config=IngestConfig())  # U+2028
@example(data=b"one\x0ctwo\x1cthree\xc2\x85four\x0bfive\n", config=IngestConfig())
def test_readers_match_the_with_labels_reference(tmp_path_factory, format, data, config):
    path = tmp_path_factory.mktemp("corpus") / "docs"
    path.write_bytes(data)
    for labeled in (False, True):
        expected = _outcome(lambda: _reference_load(path, format, config, labeled))
        if labeled:
            got = _outcome(lambda: load_labeled_corpus(path, format, config))
        else:
            got = _outcome(lambda: (load_corpus(path, format, config), ()))
        if isinstance(got[0], Corpus):
            assert got[0].source_id == "docs"
            got = got[0].docs, got[1]
        assert got == expected


def test_read_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("the\n\n a \nof\n", encoding="utf-8")
    assert read_stopwords(path) == frozenset({"the", "a", "of"})
    path.write_text("foo\x85bar\nof\n", encoding="utf-8")  # NEL breaks no line
    assert read_stopwords(path) == frozenset({"foo\x85bar", "of"})


def test_corpus_helpers():
    corpus = Corpus((tokenize("a b a"), tokenize("")), "x")
    assert corpus.vocabulary() == frozenset({"a", "b"})
    assert corpus.token_count() == 3
    assert len(corpus) == 2


def distinct_strings(corpus: Corpus) -> int:
    return len({id(token) for doc in corpus.docs for token in doc.tokens})


@pytest.mark.parametrize("format", FORMATS)
def test_a_load_holds_one_string_per_distinct_token(tmp_path, format):
    lines = [*PIZZA_LINES, *PIZZA_LINES, "Pizza pizza PIZZA a A"]
    path = tmp_path / f"docs.{format}"
    if format == "plain":
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif format == "jsonl":
        path.write_text("".join(json.dumps({"text": line}) + "\n" for line in lines),
                        encoding="utf-8")
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text"])
            writer.writerows([line] for line in lines)
    corpus = load_corpus(path, format)
    assert [doc.tokens for doc in corpus.docs] == [tokenize(line).tokens for line in lines]
    assert distinct_strings(corpus) == len(corpus.vocabulary()) < corpus.token_count()


def test_the_sms_corpus_retains_under_its_old_size():
    config = IngestConfig(stopwords=read_stopwords(DATA_DIR / "stopwords-en.txt"))
    path = DATA_DIR / "sms-spam.csv"
    load_corpus(path, "csv", config)  # imports and fills the punctuation table's cache
    corpus, retained, _ = traced(load_corpus, path, "csv", config)
    assert corpus.token_count() == 58341
    assert distinct_strings(corpus) == len(corpus.vocabulary())
    # 3.68 MiB with one string per occurrence; 1.4 MiB with one per distinct token
    assert retained < 2.0 * 2 ** 20
