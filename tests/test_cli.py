import argparse
import csv
import gzip
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chromagraph
from chromagraph import IngestConfig, color_graph, save_coloring, save_graph
from chromagraph import graph as graph_module
from chromagraph._files import canonical_json_bytes, parse_json
from chromagraph.coloring import coloring_payload
from chromagraph.cli import _cache_key, build_parser, main

from conftest import NEAR_CANONICAL, PIZZA_LINES, traced


@pytest.fixture()
def pizza_file(tmp_path):
    path = tmp_path / "pizza.txt"
    path.write_text("\n".join(PIZZA_LINES) + "\n", encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def build_pizza(tmp_path, pizza_file):
    graph_path = tmp_path / "graph.json"
    assert run("build", pizza_file, "-o", graph_path) == 0
    return graph_path


def color_pizza(tmp_path, pizza_file):
    graph_path = build_pizza(tmp_path, pizza_file)
    coloring_path = tmp_path / "coloring.json"
    assert run("color", graph_path, "-o", coloring_path) == 0
    return graph_path, coloring_path


def test_build_writes_graph_and_manifest(tmp_path, pizza_file):
    graph_path = build_pizza(tmp_path, pizza_file)
    payload = json.loads(graph_path.read_text())
    assert len(payload["nodes"]) == 16
    assert payload["version"] == 1
    manifest = json.loads((tmp_path / "graph.json.manifest.json").read_text())
    assert manifest["command"] == "build"
    assert str(pizza_file) in manifest["inputs"]
    assert manifest["outputs"] == [str(graph_path)]


def test_build_byte_reproducible(tmp_path, pizza_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("build", pizza_file, "-o", a) == 0
    assert run("build", pizza_file, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_empty_input(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "g.json"
    assert run("build", src, "-o", out) == 0
    assert json.loads(out.read_text())["nodes"] == []


def test_build_missing_file_exit_3(tmp_path, capsys):
    assert run("build", tmp_path / "absent.txt", "-o", tmp_path / "g.json") == 3
    assert "error:" in capsys.readouterr().err


def test_build_malformed_jsonl_exit_4(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_text("{broken\n", encoding="utf-8")
    assert run("build", src, "--format", "jsonl", "-o", tmp_path / "g.json") == 4
    assert "bad.jsonl:1" in capsys.readouterr().err


def test_build_with_stopwords_and_no_lowercase(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("The Cat\n", encoding="utf-8")
    stops = tmp_path / "stop.txt"
    stops.write_text("The\n", encoding="utf-8")
    out = tmp_path / "g.json"
    assert run("build", src, "-o", out, "--stopwords", stops, "--no-lowercase") == 0
    assert json.loads(out.read_text())["nodes"] == ["Cat"]


def test_config_file_overrides_defaults(tmp_path):
    src = tmp_path / "docs.jsonl"
    src.write_text('{"body": "Keep CASE here"}\n', encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text('{"text_field": "body", "lowercase": false}', encoding="utf-8")
    out = tmp_path / "g.json"
    assert run("build", src, "--format", "jsonl", "--config", config, "-o", out) == 0
    assert json.loads(out.read_text())["nodes"] == ["CASE", "Keep", "here"]


def test_config_file_unknown_key_exit_2(tmp_path, pizza_file, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"tokenizer": "fancy"}', encoding="utf-8")
    assert run("build", pizza_file, "--config", config, "-o", tmp_path / "g.json") == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_with_bom_builds_like_its_bomless_copy(tmp_path):
    src = tmp_path / "docs.jsonl"
    src.write_text('{"body": "Keep CASE here"}\n', encoding="utf-8")
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_bytes(b'{"text_field": "body", "lowercase": false}')
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for config in (plain, bom):
        assert run("build", src, "--format", "jsonl", "--config", config,
                   "-o", tmp_path / f"{config.stem}.g.json") == 0
    assert (tmp_path / "bom.g.json").read_bytes() == (tmp_path / "plain.g.json").read_bytes()


def test_non_utf8_config_exit_2_names_path_and_line_once(tmp_path, pizza_file, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{\r\n"text_field": "caf\xe9"}')
    assert run("build", pizza_file, "--config", config, "-o", tmp_path / "g.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: config is not valid UTF-8 at line 2: ")
    assert err.count(str(config)) == 1


def test_build_cache_round_trip(tmp_path, pizza_file, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(cache))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("build", pizza_file, "-o", a) == 0
    cached = list(cache.glob("graph-*.json.gz"))
    assert len(cached) == 1
    assert run("build", pizza_file, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_cache_entry_written_at_level_6_is_a_hit(tmp_path, pizza_file, monkeypatch):
    plain = build_pizza(tmp_path, pizza_file)
    cache = tmp_path / "cache"
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(cache))
    assert run("build", pizza_file, "-o", tmp_path / "first.json") == 0
    [entry] = cache.glob("graph-*.json.gz")
    assert gzip.decompress(entry.read_bytes()) == plain.read_bytes()
    entry.write_bytes(gzip.compress(plain.read_bytes(), compresslevel=6))
    second = tmp_path / "second.json"
    assert run("build", pizza_file, "-o", second) == 0
    assert _cache_outcome(second) == "hit"
    assert second.read_bytes() == plain.read_bytes()


def test_commands_build_adjacency_and_hash_only_when_read(tmp_path, pizza_file, monkeypatch,
                                                          graph_work):
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(tmp_path / "cache"))
    g, c = tmp_path / "g.json", tmp_path / "c.json"
    # no command builds a string edge map: each reads the graph's columns
    steps = [
        (["build", pizza_file, "-o", g],
         {"adjacency": 0, "strings": 0, "maps": 0, "dump": 1, "head": 0}),
        # every graph file read below is canonical: its hash is its bytes', not a dump's
        (["build", pizza_file, "-o", tmp_path / "hit.json"],
         {"adjacency": 0, "strings": 0, "maps": 0, "dump": 0, "head": 1}),
        # color and kcore run on the integer index alone
        (["color", g, "-o", c], {"adjacency": 1, "strings": 0, "maps": 0, "dump": 0, "head": 1}),
        (["kcore", g, "--max", "-o", tmp_path / "core.json"],
         {"adjacency": 1, "strings": 0, "maps": 0, "dump": 0, "head": 1}),
        (["psi", "--pair", g, c, "--pair", g, c, "-o", tmp_path / "psi.csv"],
         {"adjacency": 0, "strings": 0, "maps": 0, "dump": 0, "head": 2}),
    ]
    for argv, expected in steps:
        graph_work.update(adjacency=0, strings=0, maps=0, dump=0, head=0)
        assert run(*argv) == 0
        assert graph_work == expected, argv[0]
    assert _cache_outcome(tmp_path / "hit.json") == "hit"


def test_color_on_a_canonical_file_sorts_nothing(sms_graph, tmp_path, monkeypatch):
    path, out = tmp_path / "sms.json", tmp_path / "coloring.json"
    save_graph(sms_graph, path)
    sorts = []

    def counting_sorted(items, **kwargs):
        result = sorted(items, **kwargs)
        sorts.append(len(result))
        return result

    monkeypatch.setattr(graph_module, "sorted", counting_sorted, raising=False)
    assert run("color", path, "-o", out) == 0
    assert sorts == []
    assert out.read_bytes() == canonical_json_bytes(coloring_payload(color_graph(sms_graph)))


def traced_peak(argv) -> int:
    """The tracemalloc peak of one CLI run, after a first run that imports and fills caches."""
    assert run(*argv) == 0
    code, _, peak = traced(run, *argv)
    assert code == 0
    return peak


def test_kcore_on_the_sms_graph_file_peaks_below_its_old_peak(sms_graph, tmp_path):
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    # 9.84 MiB was the peak with the string adjacency; the file's lists and the
    # integer index now take about 8.6 MiB
    assert traced_peak(["kcore", path, "--max", "-o", tmp_path / "core.json"]) < 9.84 * 2 ** 20


def test_psi_holds_no_graph_once_it_is_checked(sms_graph, tmp_path):
    path, colored = tmp_path / "sms.json", tmp_path / "coloring.json"
    save_graph(sms_graph, path)
    save_coloring(color_graph(sms_graph), colored)
    # four pairs peak at about 12.3 MiB, one graph at a time; holding the last
    # graph while the next one loaded, psi peaked at 15.1 MiB, and holding
    # every graph it loaded, at about 28 MiB
    argv = ["psi", *["--pair", path, colored] * 4, "-o", tmp_path / "psi.csv"]
    assert traced_peak(argv) < 13 * 2 ** 20


def _truncate(data):
    return data[:len(data) // 2]


def _pretty_printed(data):
    return gzip.compress(json.dumps(json.loads(gzip.decompress(data)), indent=2).encode())


def _edges_reversed(data):
    payload = json.loads(gzip.decompress(data))
    payload["edges"].reverse()
    return gzip.compress(json.dumps(payload, separators=(",", ":")).encode() + b"\n")


@pytest.mark.parametrize("corrupt", [
    lambda data: b"not gzip at all",
    _truncate,
    lambda data: gzip.compress(b"{broken"),
    lambda data: gzip.compress(b'{"version": 99, "source_id": "", "nodes": [], "edges": []}'),
    lambda data: gzip.compress(b"[" * 100_000),
    lambda data: gzip.compress(b'{"version": 1, "source_id": "\\ud800", "nodes": [], "edges": []}'),
    _pretty_printed,
    _edges_reversed,
], ids=["bad_gzip", "truncated_gzip", "bad_json", "wrong_version", "deep_nesting",
        "lone_surrogate", "pretty_printed", "edges_reversed"])
def test_build_corrupt_cache_entry_is_a_miss(tmp_path, pizza_file, monkeypatch, corrupt):
    plain = build_pizza(tmp_path, pizza_file)
    cache = tmp_path / "cache"
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(cache))
    assert run("build", pizza_file, "-o", tmp_path / "first.json") == 0
    [entry] = cache.glob("graph-*.json.gz")
    entry.write_bytes(corrupt(entry.read_bytes()))
    rebuilt = tmp_path / "rebuilt.json"
    assert run("build", pizza_file, "-o", rebuilt) == 0
    assert rebuilt.read_bytes() == plain.read_bytes()
    assert gzip.decompress(entry.read_bytes()) == plain.read_bytes()


def _cache_outcome(output):
    return json.loads(Path(str(output) + ".manifest.json").read_text())["options"]["cache"]


@pytest.mark.parametrize("edit", NEAR_CANONICAL.values(), ids=NEAR_CANONICAL.keys())
def test_build_near_canonical_cache_entry_is_a_miss(tmp_path, pizza_file, monkeypatch, edit):
    # the entry holds the right graph, but its bytes are not the canonical ones
    plain = build_pizza(tmp_path, pizza_file)
    cache = tmp_path / "cache"
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(cache))
    assert run("build", pizza_file, "-o", tmp_path / "first.json") == 0
    [entry] = cache.glob("graph-*.json.gz")
    edited = edit(plain.read_bytes())
    assert edited != plain.read_bytes()
    entry.write_bytes(gzip.compress(edited))
    rebuilt = tmp_path / "rebuilt.json"
    assert run("build", pizza_file, "-o", rebuilt) == 0
    assert _cache_outcome(rebuilt) == "miss"
    assert rebuilt.read_bytes() == plain.read_bytes()
    assert gzip.decompress(entry.read_bytes()) == plain.read_bytes()


def test_build_manifest_records_cache_outcome(tmp_path, pizza_file, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(cache))
    outcomes = []
    for step, change in enumerate((None, None, lambda data: b"corrupt", _edges_reversed)):
        if change:
            [entry] = cache.glob("graph-*.json.gz")
            entry.write_bytes(change(entry.read_bytes()))
        assert run("build", pizza_file, "-o", tmp_path / f"{step}.json") == 0
        outcomes.append(_cache_outcome(tmp_path / f"{step}.json"))
    monkeypatch.delenv("CHROMAGRAPH_CACHE_DIR")
    assert run("build", pizza_file, "-o", tmp_path / "uncached.json") == 0
    outcomes.append(_cache_outcome(tmp_path / "uncached.json"))
    assert outcomes == ["miss", "hit", "miss", "miss", None]


def test_cache_entries_of_one_corpus_are_byte_identical(tmp_path, pizza_file, monkeypatch):
    entries = []
    for clock in (1_000_000_000.0, 1_700_000_000.0):  # gzip stamps the current time
        monkeypatch.setattr(gzip.time, "time", lambda: clock)
        cache = tmp_path / f"cache-{clock:.0f}"
        monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(cache))
        output = tmp_path / f"{clock:.0f}.json"
        assert run("build", pizza_file, "-o", output) == 0
        assert _cache_outcome(output) == "miss"
        [entry] = cache.glob("graph-*.json.gz")
        entries.append(entry.read_bytes())
    assert entries[0] == entries[1]


def test_build_cache_key_ignores_text_field_of_plain_corpus(tmp_path, pizza_file, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(cache))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("build", pizza_file, "-o", a) == 0
    assert run("build", pizza_file, "--text-field", "body", "-o", b) == 0
    assert len(list(cache.glob("graph-*.json.gz"))) == 1
    assert _cache_outcome(b) == "hit"
    assert a.read_bytes() == b.read_bytes()


def test_build_cache_key_reads_text_field_of_records(tmp_path, monkeypatch):
    src = tmp_path / "docs.jsonl"
    src.write_text('{"text": "one two", "body": "three four"}\n', encoding="utf-8")
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(tmp_path / "cache"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("build", src, "--format", "jsonl", "-o", a) == 0
    assert run("build", src, "--format", "jsonl", "--text-field", "body", "-o", b) == 0
    assert _cache_outcome(b) == "miss"
    assert json.loads(b.read_text())["nodes"] == ["four", "three"]


def test_build_cache_keys_the_source_id_the_build_uses(tmp_path, pizza_file, monkeypatch):
    # with no --source-id, a graph is named after its corpus file, as is its cache entry
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(tmp_path / "cache"))
    twin = tmp_path / "twin.txt"
    twin.write_bytes(pizza_file.read_bytes())
    steps = [([pizza_file], "pizza.txt", "miss"), ([twin], "twin.txt", "miss"),
             ([pizza_file, "--source-id", "twin.txt"], "twin.txt", "hit")]
    for step, (args, source_id, outcome) in enumerate(steps):
        out = tmp_path / f"{step}.json"
        assert run("build", *args, "-o", out) == 0
        assert json.loads(out.read_text())["source_id"] == source_id
        assert _cache_outcome(out) == outcome


@pytest.mark.parametrize("format, key", [
    ("csv", "cb2dc0d16a370ca1e9b469800c77b60449fed39bfe3c5a7a31cc3428e861c130"),
    ("jsonl", "1e53fd13fe3d0f54d7f2fa266c4dca97f1460a91e6b7b034fcd3bd483661c191"),
])
def test_cache_keys_of_record_formats_are_pinned(format, key):
    # a changed key turns every cache entry already written into a miss
    assert _cache_key(b"one two\n", format, "sid", IngestConfig()) == key


def test_build_unwritable_cache_skips_the_write(tmp_path, pizza_file, monkeypatch):
    plain = build_pizza(tmp_path, pizza_file)
    blocker = tmp_path / "afile"
    blocker.write_bytes(b"")
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(blocker / "cache"))
    cached = tmp_path / "cached.json"
    assert run("build", pizza_file, "-o", cached) == 0
    assert cached.read_bytes() == plain.read_bytes()
    assert blocker.read_bytes() == b""


def test_outputs_follow_umask(tmp_path, pizza_file, monkeypatch):
    for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
        out = tmp_path / f"{umask:o}"
        monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(out / "cache"))
        previous = os.umask(umask)
        try:
            assert run("build", pizza_file, "-o", out / "g.json") == 0
        finally:
            os.umask(previous)
        written = [out / "g.json", out / "g.json.manifest.json", *(out / "cache").glob("*.gz")]
        assert len(written) == 3
        assert [os.stat(p).st_mode & 0o777 for p in written] == [mode] * 3


def test_build_non_utf8_corpus_exit_4(tmp_path, capsys):
    src = tmp_path / "latin1.txt"
    src.write_bytes(b"first line\nsecond line\ncaf\xe9 au lait\n")
    assert run("build", src, "-o", tmp_path / "g.json") == 4
    assert f"{src}:3: not valid UTF-8" in capsys.readouterr().err


DEEP = b"[" * 100_000
LONG_INT = b"1" * 5_000
GRAPH_SURROGATE = b'{"version": 1, "source_id": "", "nodes": ["\\ud800"], "edges": []}'
COLORING_SURROGATE = (b'{"version": 1, "algorithm_id": "a", "graph_hash": "h", "num_colors": 1, '
                      b'"labels": {"x\\udc00": 0}}')


@pytest.mark.parametrize("name, data, argv, code, message", [
    ("graph.json", LONG_INT, ["color", "{path}"], 5, "{path}: not valid JSON"),
    ("graph.json", DEEP, ["color", "{path}"], 5, "{path}: not valid JSON"),
    ("coloring.json", DEEP, ["embed", "{path}", "{pizza}"], 5, "{path}: not valid JSON"),
    ("docs.jsonl", b'{"text": ' + LONG_INT + b"}\n", ["build", "{path}", "--format", "jsonl"],
     4, "{path}:1: invalid JSON"),
    ("docs.jsonl", b'{"text": "ok"}\n' + DEEP + b"\n", ["build", "{path}", "--format", "jsonl"],
     4, "{path}:2: invalid JSON"),
    ("docs.csv", b"text\nok\n" + b"x" * 200_000 + b"\n", ["build", "{path}", "--format", "csv"],
     4, "{path}:3: invalid CSV"),
    ("config.json", DEEP, ["build", "{pizza}", "--config", "{path}"], 2, "{path}: config"),
    ("config.json", b'{"text_field": "caf\xe9"}', ["build", "{pizza}", "--config", "{path}"],
     2, "{path}: config is not valid UTF-8"),
    ("config.json", b'{"stopwords": ["a"]}', ["build", "{pizza}", "--config", "{path}"],
     2, "{path}: config key 'stopwords'"),
    ("config.json", b'{"punctuation": 5}', ["build", "{pizza}", "--config", "{path}"],
     2, "{path}: config key 'punctuation'"),
    ("config.json", b'{"punctuation": ["ab"]}', ["build", "{pizza}", "--config", "{path}"],
     2, "{path}: config key 'punctuation'"),
    ("config.json", b'{"lowercase": "no"}', ["build", "{pizza}", "--config", "{path}"],
     2, "{path}: config key 'lowercase'"),
    ("graph.json", GRAPH_SURROGATE, ["color", "{path}"], 5, "{path}: not valid JSON"),
    ("coloring.json", COLORING_SURROGATE, ["embed", "{path}", "{pizza}"], 5,
     "{path}: not valid JSON"),
    ("docs.jsonl", b'{"text": "ok"}\n{"text": "caf\\ud800 x"}\n',
     ["build", "{path}", "--format", "jsonl"], 4, "{path}:2: invalid JSON"),
    ("config.json", b'{"text_field": "\\uD800"}', ["build", "{pizza}", "--config", "{path}"],
     2, "{path}: config"),
], ids=["graph_long_int", "graph_deep", "coloring_deep", "jsonl_long_int", "jsonl_deep",
        "csv_long_field", "config_deep", "config_non_utf8", "config_stopwords_list",
        "config_punctuation_int", "config_punctuation_list", "config_lowercase_string",
        "graph_lone_surrogate", "coloring_lone_surrogate", "jsonl_lone_surrogate",
        "config_lone_surrogate"])
def test_unparsable_input_exit_code(tmp_path, pizza_file, capsys, name, data, argv, code,
                                    message):
    path = tmp_path / name
    path.write_bytes(data)
    argv = [arg.format(path=path, pizza=pizza_file) for arg in argv]
    assert run(*argv, "-o", tmp_path / "out.json") == code
    assert message.format(path=path) in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [
    ('{"\\uD83D\\uDE00": ["\\u00e9"]}', {"\U0001F600": ["\u00e9"]}),
    ('"\\\\ud800"', "\\ud800"),  # an escaped backslash, not a surrogate escape
])
def test_parse_json_loads_escapes_that_are_not_lone_surrogates(text, value):
    assert parse_json(text) == value


@pytest.mark.parametrize("text", ['"\\ud800"', '["\\udfff x"]', '{"\\uDBFF": 1}',
                                  '"\\ude00\\ud83d"'])
def test_parse_json_rejects_unpaired_surrogates(text):
    with pytest.raises(ValueError, match="unpaired surrogate"):
        parse_json(text)


def test_color_graph_with_escaped_surrogate_pair(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_bytes(b'{"version": 1, "source_id": "", "nodes": ["\\ud83d\\ude00"], "edges": []}')
    coloring = tmp_path / "coloring.json"
    assert run("color", graph, "-o", coloring) == 0
    assert json.loads(coloring.read_text(encoding="utf-8"))["labels"] == {"\U0001F600": 0}


GRAPH_OF_VERSION = '{{"version": {}, "source_id": "", "nodes": [], "edges": []}}'
COLORING_OF_VERSION = ('{{"version": {}, "algorithm_id": "a", "graph_hash": "h", '
                       '"num_colors": 0, "labels": {{}}}}')


@pytest.mark.parametrize("version, code", [("1", 0), ("true", 5), ("1.0", 5), ('"1"', 5)],
                         ids=["int", "bool", "float", "string"])
@pytest.mark.parametrize("name, template, argv", [
    ("graph.json", GRAPH_OF_VERSION, ["color", "{path}"]),
    ("coloring.json", COLORING_OF_VERSION, ["embed", "{path}", "{pizza}"]),
], ids=["graph", "coloring"])
def test_schema_version_is_the_integer_1(tmp_path, pizza_file, capsys, name, template, argv,
                                         version, code):
    path = tmp_path / name
    path.write_text(template.format(version), encoding="utf-8")
    argv = [arg.format(path=path, pizza=pizza_file) for arg in argv]
    assert run(*argv, "-o", tmp_path / "out.json") == code
    if code:
        kind = name.split(".")[0]
        assert (f"{path}: unsupported {kind} schema version {json.loads(version)!r}"
                in capsys.readouterr().err)


def test_no_temp_files_left_behind(tmp_path, pizza_file):
    build_pizza(tmp_path, pizza_file)
    assert not list(tmp_path.glob("*.tmp"))
    assert not list(tmp_path.glob(".*.tmp"))


def test_color_command(tmp_path, pizza_file):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    payload = json.loads(coloring_path.read_text())
    assert payload["algorithm_id"] == "greedy-degree_desc-v1"
    assert len(payload["labels"]) == 16


def test_color_rejects_bad_schema_exit_5(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}', encoding="utf-8")
    assert run("color", bad, "-o", tmp_path / "c.json") == 5


def test_color_non_utf8_graph_exit_5(tmp_path, capsys):
    bad = tmp_path / "graph.json"
    bad.write_bytes(b'{"version": 1, "source_id": "\xff", "nodes": [], "edges": []}')
    assert run("color", bad, "-o", tmp_path / "c.json") == 5
    assert f"{bad}: not valid UTF-8" in capsys.readouterr().err


def test_kcore_max_report(tmp_path, pizza_file):
    graph_path = build_pizza(tmp_path, pizza_file)
    report_path = tmp_path / "core.json"
    assert run("kcore", graph_path, "--max", "-o", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["k"] == 2
    assert report["node_count"] == 8
    assert report["degeneracy"] == 2
    vocab = (tmp_path / "core.json.vocab.txt").read_text().split()
    assert sorted(vocab) == report["retained"]


def test_kcore_k_above_degeneracy_exit_7(tmp_path, pizza_file, capsys):
    graph_path = build_pizza(tmp_path, pizza_file)
    assert run("kcore", graph_path, "--k", 5, "-o", tmp_path / "c.json") == 7
    assert "degeneracy 2" in capsys.readouterr().err


def test_kcore_flag_combinations_exit_2(tmp_path, pizza_file):
    graph_path = build_pizza(tmp_path, pizza_file)
    assert run("kcore", graph_path, "-o", tmp_path / "c.json") == 2
    assert run("kcore", graph_path, "--k", 1, "--max", "-o", tmp_path / "c.json") == 2


def test_psi_self_pair(tmp_path, pizza_file):
    graph_path, coloring_path = color_pizza(tmp_path, pizza_file)
    out = tmp_path / "matrix.csv"
    assert run("psi", "--pair", graph_path, coloring_path,
               "--pair", graph_path, coloring_path, "-o", out) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["", "pizza.txt", "pizza.txt"]
    assert float(rows[1][1]) == 1.0
    assert float(rows[1][2]) == float(rows[2][1])


def test_psi_mismatched_pair_exit_6(tmp_path, pizza_file):
    graph_path, _ = color_pizza(tmp_path, pizza_file)
    other = tmp_path / "other.txt"
    other.write_text("different words entirely\n", encoding="utf-8")
    other_graph = tmp_path / "og.json"
    assert run("build", other, "-o", other_graph) == 0
    other_coloring = tmp_path / "oc.json"
    assert run("color", other_graph, "-o", other_coloring) == 0
    assert run("psi", "--pair", graph_path, other_coloring, "-o", tmp_path / "m.csv") == 6


@pytest.mark.parametrize("command", ["psi", "generate"])
def test_coloring_labels_off_the_graph_nodes_exit_6(tmp_path, pizza_file, capsys, command):
    graph_path, coloring_path = color_pizza(tmp_path, pizza_file)
    payload = json.loads(coloring_path.read_text())
    payload["labels"]["zzz"] = payload["labels"].pop("pizza")  # same hash, one key renamed
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps(payload))
    argv = {"psi": ["psi", "--pair", graph_path, renamed],
            "generate": ["generate", graph_path, renamed]}[command]
    assert run(*argv, "-o", tmp_path / "out") == 6
    err = capsys.readouterr().err
    assert "coloring labels do not match the graph's nodes: 1 nodes unlabelled, " \
        "1 labelled tokens not in the graph (e.g. 'zzz')" in err
    assert "Traceback" not in err


def test_embed_command(tmp_path, pizza_file):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    out = tmp_path / "vectors.jsonl"
    assert run("embed", coloring_path, pizza_file, "-o", out) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["tokens"] == ["i", "love", "eating", "pizza"]
    assert len(lines[0]["values"]) == 4
    assert all(v >= 0 for v in lines[0]["values"])


def test_embed_non_utf8_coloring_exit_5(tmp_path, pizza_file, capsys):
    bad = tmp_path / "coloring.json"
    bad.write_bytes(b'{"version": 1, "labels": {"\xe9": 0}}')
    assert run("embed", bad, pizza_file, "-o", tmp_path / "v.jsonl") == 5
    assert f"{bad}: not valid UTF-8" in capsys.readouterr().err


def test_project_reports_coverage(tmp_path, pizza_file, capsys):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    foreign = tmp_path / "foreign.txt"
    foreign.write_text("pizza unknownword\n", encoding="utf-8")
    out = tmp_path / "proj.jsonl"
    assert run("project", coloring_path, foreign, "-o", out) == 0
    assert "coverage 0.5" in capsys.readouterr().out
    line = json.loads(out.read_text().splitlines()[0])
    assert line["values"][1] == -1


def test_embed_and_project_write_identical_vectors(tmp_path, pizza_file):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    corpus = tmp_path / "mixed.txt"
    corpus.write_text("\n".join(PIZZA_LINES) + "\npizza unknownword\nnothing known here\n",
                      encoding="utf-8")
    embedded, projected = tmp_path / "embed.jsonl", tmp_path / "project.jsonl"
    assert run("embed", coloring_path, corpus, "-o", embedded) == 0
    assert run("project", coloring_path, corpus, "-o", projected) == 0
    assert embedded.read_bytes() == projected.read_bytes()
    assert len(embedded.read_bytes().splitlines()) == len(PIZZA_LINES) + 2


def test_generate_reproducible(tmp_path, pizza_file):
    graph_path, coloring_path = color_pizza(tmp_path, pizza_file)
    a, b = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (a, b):
        assert run("generate", graph_path, coloring_path, "--seed", 9,
                   "--sentence-len", 6, "-o", out) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["seed"] == 9
    assert len(payload["color_plan"]) == 6
    assert payload["sentence"] == " ".join(payload["tokens"])
    assert all(set(seg) == {"source", "target", "path", "jump"}
               for seg in payload["segments"])


def test_generate_coloring_mismatch_exit_6(tmp_path, pizza_file):
    graph_path, _ = color_pizza(tmp_path, pizza_file)
    other = tmp_path / "other.txt"
    other.write_text("alpha beta gamma\n", encoding="utf-8")
    other_graph = tmp_path / "og.json"
    run("build", other, "-o", other_graph)
    other_coloring = tmp_path / "oc.json"
    run("color", other_graph, "-o", other_coloring)
    assert run("generate", graph_path, other_coloring, "-o", tmp_path / "s.json") == 6


def test_compare_command(tmp_path):
    texts = {
        "a.txt": "the red cat sat\nthe red dog ran\n",
        "b.txt": "the red cat slept\nthe blue dog ran\n",
        "c.txt": "a green bird flew\nthe green bird sang\n",
    }
    for name, content in texts.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    out = tmp_path / "report.json"
    assert run("compare", tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt",
               "-o", out) == 0
    report = json.loads(out.read_text())
    assert report["corpora"] == ["a.txt", "b.txt", "c.txt"]
    for key in ("chromatic_similarity", "cosine_tfidf", "jaccard"):
        matrix = report[key]
        assert len(matrix) == 3
        for i in range(3):
            assert matrix[i][i] == pytest.approx(1.0)
            for j in range(3):
                assert matrix[i][j] == pytest.approx(matrix[j][i])
    assert "chromatic_vs_cosine" in report["correlation"]


def test_compare_needs_two_corpora(tmp_path):
    (tmp_path / "a.txt").write_text("hi\n", encoding="utf-8")
    assert run("compare", tmp_path / "a.txt", "-o", tmp_path / "r.json") == 2


def test_classify_command(tmp_path):
    rows = ["text,label"]
    for i in range(10):
        rows.append(f"buy cheap pills offer {i},spam")
        rows.append(f"meeting notes for project {i},ham")
    src = tmp_path / "mail.csv"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "metrics.json"
    assert run("classify", src, "--format", "csv", "-o", out, "--seed", 1) == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] == 1.0
    assert report["kcore"] is None
    assert report["train_size"] + report["test_size"] == 20

    out2 = tmp_path / "metrics2.json"
    assert run("classify", src, "--format", "csv", "-o", out2, "--seed", 1,
               "--kcore-reduce") == 0
    report2 = json.loads(out2.read_text())
    assert report2["kcore"]["k"] >= 1
    assert 0 < report2["kcore"]["retained_fraction"] <= 1


def test_classify_kcore_reduce_on_a_corpus_with_no_tokens(tmp_path):
    src, stopwords = tmp_path / "mail.csv", tmp_path / "stop.txt"
    src.write_text("text,label\nthe,x\na of,y\nthe the,x\nof,y\na,x\n", encoding="utf-8")
    stopwords.write_text("the\na\nof\n", encoding="utf-8")
    reports = []
    for extra in ([], ["--kcore-reduce"]):
        out = tmp_path / f"metrics{len(reports)}.json"
        assert run("classify", src, "--format", "csv", "--stopwords", stopwords, "-o", out,
                   *extra) == 0
        reports.append(json.loads(out.read_text()))
    plain, reduced = reports
    assert reduced.pop("kcore") == {"degeneracy": 0, "k": 0, "graph_nodes": 0, "core_nodes": 0,
                                    "core_edges": 0, "components": 0, "retained_fraction": 0.0}
    assert plain.pop("kcore") is None
    assert reduced == plain and plain["vocabulary_size"] == 0


def test_classify_bad_fraction_exit_2(tmp_path):
    src = tmp_path / "mail.csv"
    src.write_text("text,label\na,x\nb,y\nc,x\nd,y\n", encoding="utf-8")
    assert run("classify", src, "--test-fraction", "1.5", "-o", tmp_path / "m.json",
               "--format", "csv") == 2


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_classify_non_finite_alpha_exit_2_writes_nothing(tmp_path, alpha, capsys):
    src = tmp_path / "mail.csv"
    src.write_text("text,label\na,x\nb,y\nc,x\nd,y\ne,x\nf,y\n", encoding="utf-8")
    out = tmp_path / "m.json"
    assert run("classify", src, "--format", "csv", "--alpha", alpha, "-o", out) == 2
    assert "alpha must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


def test_tagdist_command(tmp_path, pizza_file):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    ann = tmp_path / "tags.tsv"
    ann.write_text("pizza\tNOUN\nlove\tVERB\n", encoding="utf-8")
    out = tmp_path / "dist.json"
    assert run("tagdist", coloring_path, ann, "-o", out) == 0
    payload = json.loads(out.read_text())
    assert payload["num_colors"] >= 2
    for hist in payload["distributions"].values():
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-9)


def test_tagdist_annotations_bom_is_ignored(tmp_path, pizza_file):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    outputs = []
    for name, prefix in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        ann = tmp_path / f"{name}.tsv"
        ann.write_bytes(prefix + b"pizza\tNOUN\nlove\tVERB\n")
        out = tmp_path / f"{name}.json"
        assert run("tagdist", coloring_path, ann, "-o", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_tagdist_bad_annotation_exit_4(tmp_path, pizza_file):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    ann = tmp_path / "tags.tsv"
    ann.write_text("pizza NOUN\n", encoding="utf-8")
    assert run("tagdist", coloring_path, ann, "-o", tmp_path / "d.json") == 4


def test_tagdist_non_utf8_annotation_exit_4(tmp_path, pizza_file, capsys):
    _, coloring_path = color_pizza(tmp_path, pizza_file)
    ann = tmp_path / "tags.tsv"
    ann.write_bytes(b"pizza\tNOUN\ncaf\xe9\tNOUN\n")
    assert run("tagdist", coloring_path, ann, "-o", tmp_path / "d.json") == 4
    assert f"{ann}:2: not valid UTF-8" in capsys.readouterr().err


def test_build_non_utf8_stopwords_exit_4(tmp_path, pizza_file, capsys):
    stops = tmp_path / "stop.txt"
    stops.write_bytes(b"the\ncaf\xe9\n")
    assert run("build", pizza_file, "--stopwords", stops, "-o", tmp_path / "g.json") == 4
    assert f"{stops}:2: not valid UTF-8" in capsys.readouterr().err


def test_package_all_is_the_one_declaration():
    names = chromagraph.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not inspect.ismodule(getattr(chromagraph, name)), name
    for info in pkgutil.iter_modules(chromagraph.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"chromagraph.{info.name}")
            assert not hasattr(module, "__all__"), info.name


OUTPUT = {"--output"}
INGEST = OUTPUT | {"--config", "--stopwords", "--no-lowercase", "--format", "--text-field"}
CLI_FLAGS = {
    "build": INGEST | {"--source-id"},
    "color": OUTPUT | {"--strategy"},
    "kcore": OUTPUT | {"--k", "--max", "--largest-component", "--vocab-output"},
    "psi": OUTPUT | {"--pair"},
    "embed": INGEST,
    "project": INGEST,
    "generate": OUTPUT | {"--sentence-len", "--protocol", "--beta-alpha", "--beta-beta",
                          "--max-hops", "--max-retries", "--drop-final-word", "--seed"},
    "compare": INGEST | {"--strategy"},
    "classify": INGEST | {"--kcore-reduce", "--test-fraction", "--alpha", "--label-field",
                          "--seed"},
    "tagdist": OUTPUT,
}


def test_each_command_takes_exactly_the_flags_it_reads():
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    flags = {name: {action.option_strings[0] for action in sub._actions
                    if action.option_strings and action.dest != "help"}
             for name, sub in commands.items()}
    assert flags == CLI_FLAGS
    assert sum(map(len, flags.values())) == 56


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    ingest = re.search(r"The ingest flags are (.*?)\.\n", readme, re.S).group(1)
    ingest = OUTPUT | set(re.findall(r"`(--[\w-]+)`", ingest))
    table = readme.split("| command | flags besides `-o/--output` |\n|---|---|\n")[1]
    documented = {}
    for row in table.split("\n\n")[0].splitlines():
        commands, flags = row.strip("|").split("|")
        named = set(re.findall(r"`(--[\w-]+)", flags))
        for command in re.findall(r"`(\w+)`", commands):
            documented[command] = (ingest if "ingest flags" in flags else OUTPUT) | named
    assert documented == CLI_FLAGS


@pytest.mark.parametrize("argv, flag", [
    (["color", "g.json", "--seed", "5"], "--seed"),
    (["generate", "g.json", "c.json", "--config", "cfg.json"], "--config"),
    (["tagdist", "c.json", "tags.tsv", "--stopwords", "sw.txt"], "--stopwords"),
    (["build", "corpus.txt", "--label-field", "spam"], "--label-field"),
], ids=["color", "generate", "tagdist", "build"])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "-o", tmp_path / "out.json")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_manifest_lists_stopword_file_named_in_config(tmp_path, pizza_file):
    stops = tmp_path / "stop.txt"
    stops.write_text("pizza\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stopwords": str(stops)}), encoding="utf-8")
    out = tmp_path / "g.json"
    assert run("build", pizza_file, "--config", config, "-o", out) == 0
    assert "pizza" not in json.loads(out.read_text())["nodes"]
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert manifest["inputs"] == {str(pizza_file): _sha256(pizza_file),
                                  str(config): _sha256(config), str(stops): _sha256(stops)}
    assert manifest["options"]["ingest"]["stopword_count"] == 1
    assert manifest["seed"] is None


def test_stopwords_flag_replaces_config_entry_unread(tmp_path, pizza_file):
    missing = tmp_path / "absent.txt"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stopwords": str(missing)}), encoding="utf-8")
    stops = tmp_path / "stop.txt"
    stops.write_text("pizza\nlove\n", encoding="utf-8")
    out = tmp_path / "g.json"
    assert run("build", pizza_file, "--config", config, "--stopwords", stops, "-o", out) == 0
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert list(manifest["inputs"]) == [str(pizza_file), str(config), str(stops)]
    assert manifest["options"]["ingest"]["stopword_count"] == 2


def test_manifest_seed_is_the_commands_own_or_null(tmp_path, pizza_file):
    graph_path, coloring_path = color_pizza(tmp_path, pizza_file)
    out = tmp_path / "s.json"
    assert run("generate", graph_path, coloring_path, "--seed", 4, "-o", out) == 0
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert list(manifest["inputs"]) == [str(graph_path), str(coloring_path)]
    assert manifest["seed"] == 4
    color_manifest = json.loads((tmp_path / "coloring.json.manifest.json").read_text())
    assert list(color_manifest["inputs"]) == [str(graph_path)]
    assert color_manifest["seed"] is None


def test_module_entrypoint_smoke(tmp_path, pizza_file):
    out = tmp_path / "g.json"
    # the child imports the package from where this process found it
    package_root = str(Path(chromagraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "chromagraph", "build", str(pizza_file), "-o", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["version"] == 1



def _ingest(manifest_path):
    return json.loads(Path(manifest_path).read_text())["options"]["ingest"]


def test_manifest_ingest_records_only_fields_the_load_reads(tmp_path, pizza_file):
    config = tmp_path / "cfg.json"
    config.write_text('{"label_field": "spam"}', encoding="utf-8")
    out = tmp_path / "g.json"
    assert run("build", pizza_file, "--text-field", "body", "--config", config, "-o", out) == 0
    assert sorted(_ingest(tmp_path / "g.json.manifest.json")) == [
        "lowercase", "punctuation", "stopword_count"]

    src = tmp_path / "docs.jsonl"
    src.write_text('{"body": "pizza please", "spam": "no"}\n', encoding="utf-8")
    out = tmp_path / "j.json"
    assert run("build", src, "--format", "jsonl", "--text-field", "body", "--config", config,
               "-o", out) == 0
    ingest = _ingest(tmp_path / "j.json.manifest.json")
    assert ingest["text_field"] == "body" and "label_field" not in ingest

    rows = ["body,spam"] + [f"offer {i},yes\nnotes {i},no" for i in range(4)]
    src = tmp_path / "mail.csv"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "m.json"
    assert run("classify", src, "--format", "csv", "--text-field", "body", "--config", config,
               "-o", out) == 0
    ingest = _ingest(tmp_path / "m.json.manifest.json")
    assert (ingest["text_field"], ingest["label_field"]) == ("body", "spam")
    assert list(ingest) == ["lowercase", "stopword_count", "punctuation", "text_field",
                            "label_field"]
