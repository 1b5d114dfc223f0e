"""Shared fixtures: the pizza corpus, desk corpora, the SMS graph, random graphs, JSON values,
and a tracemalloc probe."""

from __future__ import annotations

import functools
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from chromagraph import (BigramGraph, Corpus, IngestConfig, build_graph, load_corpus,
                         read_stopwords, tokenize)
from chromagraph import graph as graph_module

settings.register_profile("ci", deadline=None, max_examples=60)
settings.load_profile("ci")

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
DESK_NAMES = ("cooking", "music", "science", "sports", "travel", "weather")

PIZZA_LINES = (
    "I love eating pizza",
    "I usually enjoy having a pizza when it rains outside",
    "The art of making a pizza",
)

PIZZA_CORE_TOKENS = frozenset(
    {"i", "love", "eating", "pizza", "a", "having", "enjoy", "usually"})

# any value json.loads can return
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=12)


def make_pizza_corpus() -> Corpus:
    return Corpus(tuple(tokenize(line) for line in PIZZA_LINES), "pizza")


@pytest.fixture(scope="session")
def pizza_corpus() -> Corpus:
    return make_pizza_corpus()


@pytest.fixture(scope="session")
def pizza_graph(pizza_corpus) -> BigramGraph:
    return build_graph(pizza_corpus)


@pytest.fixture(scope="session")
def sms_graph() -> BigramGraph:
    """The SMS spam corpus graph with English stopwords removed (8,721 nodes)."""
    config = IngestConfig(stopwords=read_stopwords(DATA_DIR / "stopwords-en.txt"))
    return build_graph(load_corpus(DATA_DIR / "sms-spam.csv", "csv", config))


@pytest.fixture(scope="session")
def desk_paths() -> list[Path]:
    return [DATA_DIR / "desk" / f"{name}.txt" for name in DESK_NAMES]


def random_graph(rng: random.Random, max_nodes: int, *, edge_factor: float = 2.0,
                 self_loops: bool = True, source_id: str = "random") -> BigramGraph:
    """Random directed graph with weights in 1..5 and occasional self-loops."""
    n = rng.randint(1, max_nodes)
    tokens = [f"w{i:03d}" for i in range(n)]
    edges = {}
    for _ in range(int(n * edge_factor)):
        u, v = rng.choice(tokens), rng.choice(tokens)
        if u == v and not (self_loops and rng.random() < 0.2):
            continue
        edges[(u, v)] = rng.randint(1, 5)
    return BigramGraph(tokens, edges, source_id)


def shuffled_payload(g: BigramGraph, rng: random.Random) -> dict:
    """The payload of ``g`` with nodes and edge entries shuffled, indices remapped."""
    payload = json.loads(g.canonical_bytes())
    nodes = list(payload["nodes"])
    rng.shuffle(nodes)
    moved = {token: i for i, token in enumerate(nodes)}
    old = payload["nodes"]
    edges = [[moved[old[s]], moved[old[d]], w] for s, d, w in payload["edges"]]
    rng.shuffle(edges)
    return {**payload, "nodes": nodes, "edges": edges}


# Edits of a graph file's canonical bytes that keep its graph but not its
# spelling: each file still loads, but its bytes are not the canonical ones.
# They are written for a pizza graph, whose first node is "a" and whose
# first edge starts at index 0.
NEAR_CANONICAL = {
    "space_in_head": lambda data: data.replace(b'"edges":', b'"edges": '),
    "space_in_edges": lambda data: data.replace(b"],[", b"], [", 1),
    "escaped_token": lambda data: data.replace(b'"a"', b'"\\u0061"', 1),
    "reordered_keys": lambda data: re.sub(rb'^\{"version":1,("source_id":"[^"]*"),',
                                          rb'{\1,"version":1,', data),
    "extra_key_first": lambda data: b'{"extra":0,' + data[1:],
    "extra_key_last": lambda data: data[:-2] + b',"extra":0}\n',
    "minus_zero": lambda data: data.replace(b'"edges":[[0,', b'"edges":[[-0,'),
    "no_trailing_newline": lambda data: data[:-1],
    "crlf": lambda data: data[:-1] + b"\r\n",
    "two_newlines": lambda data: data + b"\n",
}


def traced(fn, *args):
    """``fn(*args)`` under tracemalloc: ``(result, retained, peak)``, in bytes.

    ``retained`` is what the call allocated and left alive (the result
    included), and ``peak`` the most it held at once.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


@pytest.fixture()
def graph_work(monkeypatch):
    """Live counts of adjacency builds (string adjacency, on a graph's first
    read, or integer index, on every call), of string adjacency builds alone,
    of string edge maps built from a graph's columns, of graph dumps (for a
    hash or canonical bytes), and of dumps of a loaded file's head (everything
    but the edges, to test its spelling)."""
    counts = {"adjacency": 0, "strings": 0, "maps": 0, "dump": 0, "head": 0}
    head, dump, index = graph_module._head, BigramGraph.canonical_bytes, BigramGraph._index

    def counting(name, *keys):
        build = vars(BigramGraph)[name].func  # runs on a graph's first read only

        def count(self):
            for key in keys:
                counts[key] += 1
            return build(self)

        wrapper = functools.cached_property(count)
        wrapper.__set_name__(BigramGraph, name)
        monkeypatch.setattr(BigramGraph, name, wrapper)

    def counting_index(self):
        counts["adjacency"] += 1
        return index(self)

    def counting_head(*args):
        counts["head"] += 1
        return head(*args)

    def counting_dump(self):
        counts["dump"] += 1
        counts["head"] -= 1  # a dump spells its own head, which is not a head dump
        return dump(self)

    counting("_adjacency", "adjacency", "strings")
    counting("edges", "maps")
    monkeypatch.setattr(BigramGraph, "_index", counting_index)
    monkeypatch.setattr(graph_module, "_head", counting_head)
    monkeypatch.setattr(BigramGraph, "canonical_bytes", counting_dump)
    return counts


def neighbor_sets(g: BigramGraph) -> dict[str, set[str]]:
    """Undirected neighbours of each node, built from the edge list; self-loops left out."""
    adj: dict[str, set[str]] = {v: set() for v in g.nodes}
    for src, dst in g.edges:
        if src != dst:
            adj[src].add(dst)
            adj[dst].add(src)
    return adj


_ACCEPTANCE_LABELS = {}


def register_criterion(number: int, label: str):
    """Tag an acceptance test so the terminal summary names it."""
    def mark(fn):
        _ACCEPTANCE_LABELS[fn.__name__] = (number, label)
        return fn
    return mark


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            number, label = _ACCEPTANCE_LABELS.get(name, (99, name))
            status = "PASS" if outcome == "passed" else "FAIL"
            lines.append((number, f"criterion {number:2d} [{label}]: {status}"))
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
