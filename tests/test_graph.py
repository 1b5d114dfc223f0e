import gc
import hashlib
import json
import random
import re
import sys
import threading
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromagraph import BigramGraph, Corpus, Document, IngestConfig, SchemaError, build_graph, \
    color_graph, load_corpus, load_graph, merge, read_stopwords, save_graph
from chromagraph import graph as graph_module
from chromagraph._files import canonical_json_bytes
from chromagraph.coloring import STRATEGIES
from chromagraph.graph import graph_from_bytes, graph_from_payload
from chromagraph.kcore import core_decomposition, extract_kcore

from conftest import (DATA_DIR, NEAR_CANONICAL, json_values, make_pizza_corpus, random_graph,
                      shuffled_payload, traced)


documents = st.lists(
    st.lists(st.sampled_from("abcdefgh"), max_size=8).map(tuple), max_size=8)


def corpus_from(token_lists, source_id="h"):
    return Corpus(tuple(Document(tuple(t)) for t in token_lists), source_id)


def test_pizza_graph_counts(pizza_graph):
    assert pizza_graph.node_count == 16
    assert pizza_graph.edge_count == 16
    assert pizza_graph.bigram_total() == 17
    assert pizza_graph.weight("a", "pizza") == 2
    others = [w for e, w in pizza_graph.edges.items() if e != ("a", "pizza")]
    assert all(w == 1 for w in others)


def test_single_token_document():
    g = build_graph(corpus_from([("w",)]))
    assert g.node_count == 1
    assert g.edge_count == 0


def test_repeated_token_self_loop():
    g = build_graph(corpus_from([("very", "very")]))
    assert g.nodes == frozenset({"very"})
    assert g.edges == {("very", "very"): 1}


def test_no_edges_across_documents():
    g = build_graph(corpus_from([("a", "b"), ("c", "d")]))
    assert ("b", "c") not in g.edges


def test_empty_corpus():
    g = build_graph(Corpus((), "empty"))
    assert g.node_count == 0 and g.edge_count == 0


def test_weight_sum_matches_token_windows(pizza_corpus, pizza_graph):
    expected = sum(max(0, len(d) - 1) for d in pizza_corpus.docs)
    assert pizza_graph.bigram_total() == expected


@given(documents)
def test_weight_sum_property(token_lists):
    corpus = corpus_from(token_lists)
    g = build_graph(corpus)
    assert g.bigram_total() == sum(max(0, len(d) - 1) for d in corpus.docs)


@given(documents)
def test_build_is_document_order_invariant(token_lists):
    corpus = corpus_from(token_lists)
    shuffled = corpus_from(list(reversed(token_lists)))
    assert build_graph(corpus) == build_graph(shuffled)


def test_merge_identity(pizza_graph):
    empty = BigramGraph(source_id="")
    assert merge(pizza_graph, empty) == pizza_graph
    assert merge(empty, pizza_graph) == pizza_graph


def test_merge_adds_weights():
    a = BigramGraph({"a", "b"}, {("a", "b"): 1}, "s")
    b = BigramGraph({"a", "b"}, {("a", "b"): 2}, "s")
    assert merge(a, b).edges == {("a", "b"): 3}


def test_sharded_build_equals_unsharded():
    corpus = make_pizza_corpus()
    first = Corpus(corpus.docs[:2], corpus.source_id)
    second = Corpus(corpus.docs[2:], corpus.source_id)
    assert merge(build_graph(first), build_graph(second)) == build_graph(corpus)


@given(documents, documents, documents)
def test_merge_associative_commutative(d1, d2, d3):
    a, b, c = (build_graph(corpus_from(d, sid)) for d, sid in
               ((d1, "a"), (d2, "b"), (d3, "c")))
    assert merge(a, b) == merge(b, a)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_round_trip(pizza_graph, tmp_path):
    path = tmp_path / "g.json"
    save_graph(pizza_graph, path)
    assert load_graph(path) == pizza_graph


def test_round_trip_empty(tmp_path):
    path = tmp_path / "g.json"
    empty = BigramGraph(source_id="none")
    save_graph(empty, path)
    assert load_graph(path) == empty


def test_round_trip_random(tmp_path):
    rng = random.Random(7)
    for i in range(20):
        g = random_graph(rng, 30, source_id=f"r{i}")
        path = tmp_path / f"g{i}.json"
        save_graph(g, path)
        assert load_graph(path) == g


def test_canonical_bytes_stable(pizza_graph, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(pizza_graph, p1)
    save_graph(load_graph(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_dangling_edge(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "version": 1, "source_id": "x", "nodes": ["a"], "edges": [[0, 1, 1]]}))
    with pytest.raises(SchemaError, match="absent node"):
        load_graph(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 9, "source_id": "", "nodes": [], "edges": []}))
    with pytest.raises(SchemaError, match="version"):
        load_graph(path)


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "version": 1, "source_id": "", "nodes": ["a", "b"],
        "edges": [[0, 1, 1], [0, 1, 2]]}))
    with pytest.raises(SchemaError, match="duplicate edge"):
        load_graph(path)


def test_load_rejects_bad_weight(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "version": 1, "source_id": "", "nodes": ["a", "b"], "edges": [[0, 1, 0]]}))
    with pytest.raises(SchemaError, match="weight"):
        load_graph(path)


graph_like = st.fixed_dictionaries({
    "version": st.just(1) | json_values,
    "source_id": st.text(max_size=3) | json_values,
    "nodes": st.lists(st.sampled_from("abc"), max_size=4) | json_values,
    "edges": st.lists(st.lists(st.integers(-1, 3), max_size=4) | json_values, max_size=4),
})


@given(json_values | graph_like)
def test_graph_from_payload_raises_only_schema_error(payload):
    try:
        graph = graph_from_payload(payload)
    except SchemaError:
        return
    rebuilt = BigramGraph(graph.nodes, graph.edges, graph.source_id)
    try:
        canonical = json.loads(graph.canonical_bytes())
        expected = rebuilt.content_hash()
    except ValueError:  # not serialisable: a lone surrogate or an over-long int
        return
    assert graph_from_payload(canonical) == graph
    assert graph.content_hash() == expected


def corpus_of(g: BigramGraph) -> Corpus:
    """A corpus whose graph is ``g``: one two-token document per unit of edge weight,
    then each node alone."""
    docs = [Document((s, d)) for (s, d), w in g.edges.items() for _ in range(w)]
    docs += [Document((v,)) for v in sorted(g.nodes)]
    return Corpus(tuple(docs), g.source_id)


def construction_routes(g: BigramGraph, path) -> dict:
    """Makers of fresh graphs equal to ``g``, one per construction route."""
    save_graph(g, path)
    edges = list(g.edges.items())
    half = len(edges) // 2
    rng = random.Random(len(edges))

    def edges_shuffled():
        payload = json.loads(g.canonical_bytes())
        rng.shuffle(payload["edges"])
        return graph_from_payload(payload)

    return {
        "constructor": lambda: BigramGraph(g.nodes, g.edges, g.source_id),
        "build_graph": lambda: build_graph(corpus_of(g)),
        "merge": lambda: merge(BigramGraph(g.nodes, dict(edges[:half]), g.source_id),
                               BigramGraph(g.nodes, dict(edges[half:]), g.source_id)),
        "canonical_payload": lambda: graph_from_payload(json.loads(g.canonical_bytes())),
        "shuffled_payload": lambda: graph_from_payload(shuffled_payload(g, rng)),
        "edges_shuffled_payload": edges_shuffled,
        "load_graph": lambda: load_graph(path),
    }


def observe(g: BigramGraph, hash_first: bool) -> tuple:
    """The content hash and every node's adjacency reads, the hash read first or last."""
    digest = g.content_hash() if hash_first else None
    reads = {v: (g.successors(v), g.predecessors(v), g.arcs(v), g.degree(v))
             for v in sorted(g.nodes)}
    return digest or g.content_hash(), reads


def assert_routes_agree(g: BigramGraph, path) -> None:
    """Every route, and its k-core at the degeneracy, reads as the in-memory graph does."""
    expected = observe(BigramGraph(g.nodes, g.edges, g.source_id), hash_first=True)
    decomp = core_decomposition(g)
    retained = {v for v, c in decomp.core_number.items() if c >= decomp.degeneracy}
    core = BigramGraph(retained, {(s, d): w for (s, d), w in g.edges.items()
                                  if s in retained and d in retained}, g.source_id)
    expected_core = observe(core, hash_first=True)
    for name, make in construction_routes(g, path).items():
        for hash_first in (True, False):
            made = make()
            assert made == g and type(made.edges) is dict, name
            assert observe(made, hash_first) == expected, (name, hash_first)
            sub = extract_kcore(made).graph
            assert sub == core and observe(sub, hash_first) == expected_core, (name, hash_first)


def test_every_construction_route_agrees_on_random_graphs(tmp_path):
    rng = random.Random(11)
    for i in range(40):
        assert_routes_agree(random_graph(rng, 40, source_id=f"r{i}"), tmp_path / "g.json")


SMS_GRAPH_HASH = "8f7614da3fabe3b3144043c325a0b47a783a9760aa6408bdc6bf50a9769dc0b0"


def test_sms_graph_hash_is_golden_by_every_route(sms_graph, tmp_path):
    built = BigramGraph(sms_graph.nodes, sms_graph.edges, sms_graph.source_id)
    assert built.content_hash() == SMS_GRAPH_HASH
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SMS_GRAPH_HASH
    loaded = load_graph(path)
    assert loaded == sms_graph
    assert loaded.content_hash() == SMS_GRAPH_HASH
    shuffled = graph_from_payload(shuffled_payload(sms_graph, random.Random(3)))
    assert shuffled.content_hash() == SMS_GRAPH_HASH


def test_every_construction_route_agrees_on_sms_graph(sms_graph, tmp_path):
    assert sms_graph.content_hash() == SMS_GRAPH_HASH
    assert_routes_agree(sms_graph, tmp_path / "sms.json")


def storage(g: BigramGraph) -> tuple:
    """The graph's edge storage: its tokens and its three columns."""
    return g._tokens, g._src, g._dst, g._weights


def transposed(rows) -> list[list]:
    """The columns of ``[i, j, w]`` rows."""
    return [[row[k] for row in rows] for k in range(3)]


def assert_holds_the_rows_as_columns(g: BigramGraph, payload: dict) -> None:
    """``g`` keeps the payload's ``nodes`` list, holds its edge rows as columns
    that share one int per index, and holds no parsed row."""
    assert g._tokens is payload["nodes"]
    assert list(storage(g)[1:]) == transposed(payload["edges"])
    assert_shares_one_int_per_index(g)
    assert not any(held is payload["edges"] for held in gc.get_referents(g))
    assert all(type(value) is int for column in storage(g)[1:] for value in column)


def assert_shares_one_int_per_index(g: BigramGraph) -> None:
    assert len({id(i) for i in g._src + g._dst}) == len(set(g._src + g._dst))


def test_adjacency_read_keeps_the_loaded_lists(sms_graph, tmp_path):
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    loaded = load_graph(path)
    kept = storage(loaded)
    loaded.successors(min(loaded.nodes))
    # the adjacency is read from the columns: no map is built, nothing is released
    assert all(now is then for now, then in zip(storage(loaded), kept))
    file = json.loads(path.read_bytes())
    assert loaded._tokens == file["nodes"]
    assert list(storage(loaded)[1:]) == transposed(file["edges"])
    assert_shares_one_int_per_index(loaded)  # so no int, nor any row, of the parse is held
    assert "edges" not in vars(loaded)
    assert loaded.content_hash() == SMS_GRAPH_HASH
    assert observe(loaded, hash_first=False) == observe(sms_graph, hash_first=False)


def test_a_loaded_files_lists_are_its_edges_for_life(sms_graph, tmp_path):
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    payload = json.loads(path.read_bytes())
    want = color_graph(sms_graph)
    for reads_map_first in (False, True):
        loaded = graph_from_payload(payload)
        kept = storage(loaded)
        assert_holds_the_rows_as_columns(loaded, payload)
        if reads_map_first:
            assert loaded.edges == sms_graph.edges
        assert loaded.content_hash() == SMS_GRAPH_HASH
        assert loaded.edge_count == sms_graph.edge_count
        assert color_graph(loaded) == want
        assert core_decomposition(loaded) == core_decomposition(sms_graph)
        assert loaded.edges == sms_graph.edges
        assert loaded.successors("call") == sms_graph.successors("call")
        # every derived form exists, and the same lists are still the storage
        assert all(now is then for now, then in zip(storage(loaded), kept))
        assert_holds_the_rows_as_columns(loaded, payload)
        assert loaded.canonical_bytes() == path.read_bytes()


def test_hash_then_color_sorts_a_fresh_graph_once(sms_graph, tmp_path, monkeypatch):
    corpus = corpus_of(sms_graph)
    fresh = build_graph(corpus)
    want, want_cores = color_graph(fresh), core_decomposition(fresh)
    sorts = []

    def counting_sorted(items, **kwargs):
        result = sorted(items, **kwargs)
        sorts.append(len(result))
        return result

    monkeypatch.setattr(graph_module, "sorted", counting_sorted, raising=False)
    g = build_graph(corpus)
    # the one sort is the construction's; nothing read after it sorts again
    assert sorts == [g.node_count, g.edge_count]
    assert g.content_hash() == SMS_GRAPH_HASH
    assert color_graph(g) == want
    assert core_decomposition(g) == want_cores
    save_graph(g, tmp_path / "g.json")
    assert (tmp_path / "g.json").read_bytes() == sms_graph.canonical_bytes()
    assert g.successors("call") == sms_graph.successors("call")
    assert g.edges == sms_graph.edges
    assert sorts == [g.node_count, g.edge_count]


def first_reads(g: BigramGraph, order: int) -> tuple:
    """The edges, hash, adjacency reads, both colorings and the core numbers of
    ``g``, read in one of seven orders, returned in one form that keeps dict order."""
    probe = sorted(g.nodes)[:60]
    reads = [lambda: list(g.edges.items()), lambda: g.edge_count,
             lambda: [g.has_edge(s, d) for s in probe for d in probe],
             g.content_hash, lambda: observe(g, hash_first=False)[1],
             lambda: [list(color_graph(g, s).labels.items()) for s in STRATEGIES],
             lambda: list(core_decomposition(g).core_number.items())]
    results = [None] * len(reads)
    for i in range(order, order + len(reads)):
        results[i % len(reads)] = reads[i % len(reads)]()
    return tuple(results)


def test_concurrent_first_reads_see_the_serial_adjacency(sms_graph, tmp_path):
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    serial = first_reads(load_graph(path), 0)
    makers = (lambda: load_graph(path),
              lambda: BigramGraph(sms_graph.nodes, sms_graph.edges, sms_graph.source_id))
    for make in makers:
        fresh = make()
        results = [None] * len(serial)  # one thread per first read
        start = threading.Barrier(len(results))

        def read(i):
            start.wait(timeout=30)
            results[i] = first_reads(fresh, i)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert all(result == serial for result in results)
        assert gc.isenabled()  # every thread's collector pause has ended


def test_non_canonical_file_loads_and_hashes_canonically(pizza_graph, tmp_path):
    path = tmp_path / "pretty.json"
    payload = json.loads(pizza_graph.canonical_bytes())
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=True))
    loaded = load_graph(path)
    assert loaded == pizza_graph
    assert loaded.content_hash() == pizza_graph.content_hash()
    assert loaded.canonical_bytes() == pizza_graph.canonical_bytes()


@pytest.mark.parametrize("source_id, weight, error", [
    ("\ud800", 1, UnicodeEncodeError),
    ("", 10 ** 5000, ValueError),
], ids=["lone_surrogate", "over_long_int"])
def test_unserialisable_in_memory_payload_loads_and_hashes_lazily(source_id, weight, error):
    payload = {"version": 1, "source_id": source_id, "nodes": ["a"], "edges": [[0, 0, weight]]}
    g = graph_from_payload(payload)
    assert g == BigramGraph({"a"}, {("a", "a"): weight}, source_id)
    with pytest.raises(error):
        g.content_hash()


class Index(IntEnum):
    A = 0
    B = 1


@pytest.mark.parametrize("edges, message", [
    (["x"], "edge entry 'x' is not [src, dst, weight]"),
    ([[0, 1]], "edge entry [0, 1] is not [src, dst, weight]"),
    ([[0, 1, True]], "edge entry [0, 1, True] is not [src, dst, weight]"),
    ([[0, 1.0, 1]], "edge entry [0, 1.0, 1] is not [src, dst, weight]"),
    ([[-1, 0, 1]], "edge [-1, 0, 1] references an absent node"),
    ([[0, 2, 1]], "edge [0, 2, 1] references an absent node"),
    ([[0, 1, 1], [0, 1, 2]], "duplicate edge ('a', 'b')"),
    # ascent breaks at [0, 0]: every later entry is kept for the duplicate check
    ([[0, 1, 1], [0, 0, 1], [1, 0, 1], [1, 0, 2]], "duplicate edge ('b', 'a')"),
    ([[0, 1, 0]], "edge [0, 1, 0] has non-positive weight"),
    # a JSON integer is an exact int; json.loads yields no other int type but bool
    ([[Index.A, 1, 1]], "edge entry [<Index.A: 0>, 1, 1] is not [src, dst, weight]"),
    ([[0, 1, Index.B]], "edge entry [0, 1, <Index.B: 1>] is not [src, dst, weight]"),
], ids=["non_list", "two_elements", "bool", "float", "negative_index", "index_out_of_range",
        "duplicate", "duplicate_after_ascent_breaks", "zero_weight", "int_subclass_index",
        "int_subclass_weight"])
def test_malformed_edge_entry_messages(edges, message):
    payload = {"version": 1, "source_id": "", "nodes": ["a", "b"], "edges": edges}
    with pytest.raises(SchemaError) as info:
        graph_from_payload(payload, "g.json")
    assert str(info.value) == f"g.json: {message}"


def entry_by_entry_edges(nodes: list, edges: list, name: str) -> dict:
    """The edge check and map build every payload went through before canonical
    payloads were checked in one pass: the reference that pass is held to."""
    count = len(nodes)
    edge_map: dict[tuple[str, str], int] = {}
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"{name}: edge entry {entry!r} is not [src, dst, weight]")
        si, di, weight = entry
        if not (type(si) is type(di) is type(weight) is int):  # JSON true/false parse as bool
            raise SchemaError(f"{name}: edge entry {entry!r} is not [src, dst, weight]")
        if not (0 <= si < count and 0 <= di < count):
            raise SchemaError(f"{name}: edge {entry!r} references an absent node")
        key = (nodes[si], nodes[di])
        if key in edge_map:
            raise SchemaError(f"{name}: duplicate edge {key!r}")
        if weight < 1:
            raise SchemaError(f"{name}: edge {entry!r} has non-positive weight")
        edge_map[key] = weight
    return edge_map


MALFORMED = ("bool_or_float", "out_of_range", "zero_weight", "not_an_entry")
PAYLOAD_KINDS = ("canonical", "shuffled", "duplicate", "non_strict_step", *MALFORMED,
                 "shuffled_then_duplicate", "shuffled_then_malformed")


@st.composite
def graph_payloads(draw):
    """A canonical payload, a shuffled one, or one with one malformed entry or step,
    or a shuffled one, whose ascent mostly breaks early, with a later fault."""
    nodes = sorted(draw(st.sets(st.sampled_from("abcdef"), max_size=6)))
    n = len(nodes)
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)
                 ) if n else set()
    edges = [[i, j, draw(st.integers(1, 3))] for i, j in sorted(pairs)]
    kind = draw(st.sampled_from(PAYLOAD_KINDS))
    if kind.startswith("shuffled"):
        order = draw(st.permutations(range(n)))
        nodes = [nodes[i] for i in order]
        moved = {old: new for new, old in enumerate(order)}
        edges = draw(st.permutations([[moved[i], moved[j], w] for i, j, w in edges]))
        if kind == "shuffled_then_duplicate":
            kind = "duplicate"
        elif kind == "shuffled_then_malformed":
            kind = draw(st.sampled_from(MALFORMED))
    if kind not in ("canonical", "shuffled") and edges:
        k = draw(st.integers(0, len(edges) - 1))  # after k entries, ascending unless shuffled
        i, j, w = edges[k]
        if kind == "duplicate":
            edges.insert(k + 1, [i, j, draw(st.integers(1, 3))])
        elif kind == "non_strict_step" and k + 1 < len(edges):
            edges[k], edges[k + 1] = edges[k + 1], edges[k]
        elif kind == "bool_or_float":
            p = draw(st.integers(0, 2))
            edges[k][p] = draw(st.sampled_from([True, False, float(edges[k][p])]))
        elif kind == "out_of_range":
            edges[k][draw(st.integers(0, 1))] = draw(st.sampled_from([-1, n, n + 1]))
        elif kind == "zero_weight":
            edges[k][2] = draw(st.sampled_from([0, -1]))
        elif kind == "not_an_entry":
            edges[k] = draw(st.sampled_from([[i, j], [i, j, w, w], (i, j, w), "x", None]))
    return {"version": 1, "source_id": draw(st.sampled_from(["", "s"])), "nodes": nodes,
            "edges": edges}


@given(graph_payloads())
def test_payload_check_agrees_with_the_entry_by_entry_check(payload):
    try:
        expected = entry_by_entry_edges(payload["nodes"], payload["edges"], "g.json")
    except SchemaError as exc:
        with pytest.raises(SchemaError) as info:
            graph_from_payload(payload, "g.json")
        assert str(info.value) == str(exc)
        return
    want = BigramGraph(frozenset(payload["nodes"]), expected, payload["source_id"])
    g = graph_from_payload(payload, "g.json")
    canonical = payload["nodes"] == sorted(payload["nodes"]) and payload["edges"] == sorted(
        payload["edges"])  # a valid payload's nodes and (i, j) pairs are distinct
    # a canonical payload's nodes are the graph's tokens and its rows its columns;
    # the others are sorted once
    assert (g._tokens is payload["nodes"]) == canonical
    if canonical:
        assert_holds_the_rows_as_columns(g, payload)
    assert_shares_one_int_per_index(g)
    assert "edges" not in vars(g)
    # the derived forms first, so a canonical payload's are read from its own lists
    assert g.edge_count == want.edge_count
    assert g.content_hash() == want.content_hash()
    assert g._index == want._index
    assert list(g.edges.items()) == sorted(expected.items())  # token order, on every route
    assert g == want
    assert observe(g, hash_first=True) == observe(want, hash_first=True)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        canonical_json_bytes({"x": value})


def test_trusted_builders_store_plain_dicts(pizza_graph):
    a = build_graph(corpus_from([("a", "b", "a", "b")]))
    assert a.edges == {("a", "b"): 2, ("b", "a"): 1}
    for g in (a, pizza_graph, merge(a, pizza_graph)):
        assert type(g.edges) is dict and type(g.nodes) is frozenset


def test_constructor_enforces_invariants():
    with pytest.raises(SchemaError):
        BigramGraph({"a"}, {("a", "b"): 1})
    with pytest.raises(SchemaError):
        BigramGraph({"a", "b"}, {("a", "b"): 0})


@pytest.mark.parametrize("nodes, edges, source_id", [
    ({1, 2}, {(1, 2): 1}, ""),
    ({1, "a"}, {}, ""),
    ({"a"}, {}, 5),
], ids=["int_nodes", "mixed_nodes", "int_source_id"])
def test_constructor_accepts_only_what_a_graph_file_can_hold(nodes, edges, source_id):
    with pytest.raises(SchemaError):
        BigramGraph(nodes, edges, source_id)


def test_degree_view_pizza(pizza_graph):
    assert len(pizza_graph.predecessors("pizza")) + len(pizza_graph.successors("pizza")) == 3
    assert len(pizza_graph.predecessors("pizza")) == 2
    assert len(pizza_graph.successors("pizza")) == 1
    assert pizza_graph.degree("pizza") == 3
    assert pizza_graph.arcs("pizza") == ("when", "a", "eating")


def test_degree_view_isolated_node():
    g = build_graph(corpus_from([("lonely",)]))
    assert "lonely" in g.nodes
    assert len(g.predecessors("lonely")) + len(g.successors("lonely")) == 0
    assert g.degree("lonely") == 0
    assert g.arcs("lonely") == ()


def test_degree_view_self_loop_counts_both_ways():
    self_loop = BigramGraph({"v"}, {("v", "v"): 3})
    reciprocal = BigramGraph({"u", "v"}, {("u", "v"): 1, ("v", "u"): 2})
    for g, other in ((self_loop, "v"), (reciprocal, "u")):
        assert len(g.predecessors("v")) == 1
        assert len(g.successors("v")) == 1
        assert len(g.predecessors("v")) + len(g.successors("v")) == 2
        assert g.degree("v") == 2
        assert g.arcs("v") == (other, other)


def test_degree_totals_are_consistent(pizza_graph):
    for v in pizza_graph.nodes:
        total = len(pizza_graph.predecessors(v)) + len(pizza_graph.successors(v))
        assert pizza_graph.degree(v) == len(pizza_graph.arcs(v)) == total


def test_successors_sorted(pizza_graph):
    assert pizza_graph.successors("i") == ("love", "usually")
    assert pizza_graph.predecessors("pizza") == ("a", "eating")
    assert pizza_graph.successors("outside") == ()


def test_no_other_module_reads_the_graphs_storage():
    # outside graph.py, a graph's private members are read only through the
    # integer index and the re-index behind extract_kcore: no module reads the columns
    private = {name for name in dir(BigramGraph)
               if name.startswith("_") and not name.startswith("__")}
    assert {"_tokens", "_src", "_dst", "_weights", "_adjacency", "_index", "_hash"} <= private
    package = Path(graph_module.__file__).parent
    read = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "graph.py":
            names = set(re.findall(r"\.(_\w+)", path.read_text(encoding="utf-8")))
            read[path.name] = sorted(names & private)
    assert read.pop("coloring.py") == ["_index"]
    assert read.pop("kcore.py") == ["_index", "_induced"]
    assert all(names == [] for names in read.values()), read


def test_bigram_graph_public_surface():
    public = {name for name in dir(BigramGraph) if not name.startswith("_")}
    assert public == {
        "nodes", "edges", "source_id", "node_count", "edge_count", "bigram_total",
        "successors", "predecessors", "arcs", "degree", "has_edge", "weight",
        "canonical_bytes", "content_hash",
    }


def row_sorted_lists(nodes, edges: dict) -> tuple[list, list]:
    """The canonical lists as a graph stored them before its columns: the sorted
    tokens and one sort of the ``(i, j, w)`` rows. The reference the columns are
    held to."""
    tokens = sorted(nodes)
    index = {token: i for i, token in enumerate(tokens)}
    return tokens, sorted((index[s], index[d], w) for (s, d), w in edges.items())


def assert_stored_as_the_row_sort(g: BigramGraph, nodes, edges: dict) -> None:
    tokens, rows = row_sorted_lists(nodes, edges)
    assert g._tokens == tokens
    assert list(storage(g)[1:]) == transposed(rows)
    assert_shares_one_int_per_index(g)
    assert g.canonical_bytes() == canonical_json_bytes(
        {"version": 1, "source_id": g.source_id, "nodes": tokens, "edges": rows})


@st.composite
def graphs_and_subsets(draw):
    """Nodes, an edge map over them, and a subset of the nodes."""
    nodes = draw(st.sets(st.text(max_size=3), max_size=10))
    ordered = sorted(nodes)
    edges = draw(st.dictionaries(st.tuples(st.sampled_from(ordered), st.sampled_from(ordered)),
                                 st.integers(1, 4), max_size=25)) if nodes else {}
    subset = draw(st.sets(st.sampled_from(ordered))) if nodes else set()
    return nodes, edges, subset


@given(graphs_and_subsets(), st.randoms(use_true_random=False))
def test_every_route_stores_the_row_sort_as_columns(drawn, rng):
    nodes, edges, subset = drawn
    g = BigramGraph(nodes, edges, "s")
    items = list(edges.items())
    half = len(items) // 2
    made = {
        "constructor": g,
        "build_graph": build_graph(corpus_of(g)),
        "merge": merge(BigramGraph(nodes, dict(items[:half]), "s"),
                       BigramGraph(nodes, dict(items[half:]), "s")),
        "canonical_payload": graph_from_payload(json.loads(g.canonical_bytes())),
        "shuffled_payload": graph_from_payload(shuffled_payload(g, rng)),
    }
    for graph in made.values():
        assert_stored_as_the_row_sort(graph, nodes, edges)
    induced = {(a, b): w for (a, b), w in edges.items() if a in subset and b in subset}
    for graph in made.values():
        assert_stored_as_the_row_sort(graph._induced(frozenset(subset)), subset, induced)


def hash_routes(g: BigramGraph, path) -> dict:
    """``construction_routes`` and the two routes a graph's bytes take: a graph
    file's bytes, and the re-index behind ``extract_kcore``."""
    routes = construction_routes(g, path)
    data = g.canonical_bytes()
    first_half = frozenset(sorted(g.nodes)[:len(g.nodes) // 2])
    routes["graph_from_bytes"] = lambda: graph_from_bytes(data)
    routes["induced"] = lambda: g._induced(first_half)
    routes["induced_of_a_load"] = lambda: load_graph(path)._induced(first_half)
    return routes


def test_hash_is_the_dumped_hash_on_every_route(sms_graph, tmp_path):
    rng = random.Random(13)
    graphs = [random_graph(rng, 30, source_id=f"r{i}") for i in range(20)]
    for g in [sms_graph, *graphs, BigramGraph(source_id="empty")]:
        for name, make in hash_routes(g, tmp_path / "g.json").items():
            made = make()
            dumped = hashlib.sha256(made.canonical_bytes()).hexdigest()
            assert made.content_hash() == dumped, name
            assert_shares_one_int_per_index(made)


def test_a_canonical_file_is_hashed_from_its_bytes(sms_graph, tmp_path, graph_work):
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    graph_work.update(dump=0, head=0)
    for loaded in (load_graph(path), graph_from_bytes(path.read_bytes())):
        assert vars(loaded)["_hash"] == SMS_GRAPH_HASH  # on the load, from the bytes
        assert loaded.content_hash() == SMS_GRAPH_HASH
    # each load dumped only the head, to compare its spelling
    assert (graph_work["dump"], graph_work["head"]) == (0, 2)
    # == reads the columns: comparing graphs of every route builds no edge map
    made = {name: make() for name, make in hash_routes(sms_graph, tmp_path / "r.json").items()}
    g = sms_graph
    heavier = BigramGraph._trusted(g.nodes, g.source_id, g._tokens, g._src, g._dst,
                                   [*g._weights[:-1], g._weights[-1] + 1])
    renamed = BigramGraph._trusted(g.nodes, "other", g._tokens, g._src, g._dst, g._weights)
    graph_work.update(maps=0)
    for name, graph in made.items():
        if name.startswith("induced"):
            assert graph == made["induced"] and graph != g, name
        else:
            assert graph == g and graph != made["induced"], name
            assert graph != heavier and graph != renamed, name
    assert graph_work["maps"] == 0


@pytest.mark.parametrize("edit", NEAR_CANONICAL.values(), ids=NEAR_CANONICAL.keys())
def test_a_near_canonical_file_is_hashed_from_its_dump(pizza_graph, tmp_path, edit):
    path = tmp_path / "near.json"
    edited = edit(pizza_graph.canonical_bytes())
    assert edited != pizza_graph.canonical_bytes()
    path.write_bytes(edited)
    loaded = load_graph(path)
    assert loaded == pizza_graph
    assert "_hash" not in vars(loaded)
    assert loaded.content_hash() == pizza_graph.content_hash()
    assert loaded.content_hash() != hashlib.sha256(path.read_bytes()).hexdigest()


def sms_corpus():
    config = IngestConfig(stopwords=read_stopwords(DATA_DIR / "stopwords-en.txt"))
    return load_corpus(DATA_DIR / "sms-spam.csv", "csv", config)


def test_a_built_sms_graph_retains_under_its_old_size():
    corpus = sms_corpus()
    graph, retained, _ = traced(build_graph, corpus)
    assert graph.content_hash() == SMS_GRAPH_HASH
    # 3.40 MiB with one (i, j, w) tuple per edge; 1.8 MiB in columns
    assert retained < 2.5 * 2 ** 20


def test_a_loaded_sms_graph_file_retains_under_its_old_size(sms_graph, tmp_path):
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    load_graph(path)  # imports and caches nothing on a second load
    graph, retained, _ = traced(load_graph, path)
    assert graph.content_hash() == SMS_GRAPH_HASH
    # 6.26 MiB holding the parsed [i, j, w] rows; 2.2 MiB in columns
    assert retained < 3.0 * 2 ** 20


def test_an_sms_graph_dumps_under_its_old_peak(sms_graph):
    data, _, peak = traced(sms_graph.canonical_bytes)
    assert hashlib.sha256(data).hexdigest() == SMS_GRAPH_HASH
    # 5.75 MiB with one (i, j, w) tuple per edge; 2.9 MiB spelled from the columns
    assert peak < 4 * 2 ** 20


def test_an_sms_graph_file_loads_under_its_old_peak(sms_graph, tmp_path):
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    load_graph(path)  # imports and caches nothing on a second load
    graph, _, peak = traced(load_graph, path)
    assert graph.content_hash() == SMS_GRAPH_HASH
    # 8.02 MiB: the parsed [i, j, w] rows and the columns split from them
    assert peak < 8.5 * 2 ** 20
