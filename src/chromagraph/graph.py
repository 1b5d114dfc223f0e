"""Weighted directed bi-gram graph: construction, queries, persistence.

Nodes are the unique tokens of a corpus; a directed edge (u, v) carries
the number of times v immediately follows u inside a single document.
Adjacent-token windows never cross document boundaries. A finished
graph is immutable and safe for unlimited concurrent readers.

Untrusted input has two validating entry points: ``BigramGraph(...)``
for in-memory nodes and edges, and ``graph_from_payload`` (behind
``load_graph``) for parsed graph files. Both check every edge once and
then use the trusted construction ``BigramGraph._trusted``, which
``build_graph``, ``merge`` and the k-core re-index (``_induced``) call
directly because their input cannot fail the checks.

A graph stores its edges once, for life, as the columns of its graph
file: the sorted tokens and three parallel lists, the source indices,
the target indices and the weights of the ``[i, j, w]`` entries,
strictly ascending by ``(i, j)``. Every index in the two index columns
is one shared ``int`` object per node. A loaded canonical file hands
over its tokens and is split into columns, ``extract_kcore`` re-indexes
its parent's columns, and every other construction sorts once. One loop
checks every entry of a loaded file, and ``_head`` spells the canonical
bytes before the entries, which a dump writes straight from the columns.
Everything else is a ``cached_property`` computed from the lists on
first read and stored once per graph: the string map ``edges``, the
successor and predecessor maps, the integer index that coloring and
peeling use, and the content hash, which dumps the lists, or is the
SHA-256 of the bytes of a loaded file that already spells them
canonically. On Python 3.10 and 3.11 its lock serializes racing first
reads; from 3.12 racing readers may each compute a form, all equal.
Because tokens ascend and entries strictly ascend, index order is token
order, and one pass over the columns meets each node's successors, and
in a second pass its predecessors, in ascending order: no derived form
sorts.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress, pairwise, repeat
from operator import floordiv, itemgetter, length_hint, lt, mod
from pathlib import Path

from ._files import (SchemaError, atomic_write_bytes, canonical_json_bytes, check_version,
                     gc_paused, parse_json_bytes, sha256_hex)
from .corpus import Corpus

GRAPH_SCHEMA_VERSION = 1


def _head(source_id: str, tokens: list) -> bytes:
    """A graph file's canonical bytes before its edge entries, which ``]}\\n`` follows."""
    return canonical_json_bytes({"version": GRAPH_SCHEMA_VERSION, "source_id": source_id,
                                 "nodes": tokens, "edges": []}).removesuffix(b"]}\n")


def _sorted_lists(nodes, edges: dict) -> tuple[list, list, list, list]:
    """The canonical lists of ``nodes`` and the edge map ``edges``: the one sort.

    Each pair ``(i, j)`` sorts as the int ``i * n + j``, which orders as the
    pair does, and an int sort runs in C; the keys split back into the
    shared index ints.
    """
    tokens = sorted(nodes)
    n = len(tokens)
    ids = list(range(n))
    index = dict(zip(tokens, ids))
    weight_of = {index[s] * n + index[d]: w for (s, d), w in edges.items()}
    keys = sorted(weight_of)
    weights = list(map(weight_of.__getitem__, keys))
    del weight_of  # freed before the index columns are made: a lower peak
    at = ids.__getitem__
    return (tokens, list(map(at, map(floordiv, keys, repeat(n)))),
            list(map(at, map(mod, keys, repeat(n)))), weights)


class BigramGraph:
    """Immutable weighted directed simple graph over token strings.

    Every edge endpoint is a node, every weight is a positive integer,
    and (src, dst) appears at most once: the weight is the multiplicity.
    Self-loops (a token following itself) are stored with their count.
    The constructor checks these invariants and that the nodes and
    ``source_id`` are strings, as a file load does, and raises SchemaError.
    """

    # _tokens and the columns _src, _dst and _weights are the canonical lists,
    # the only edge storage; __dict__ holds the cached forms derived from them
    __slots__ = ("nodes", "source_id", "_tokens", "_src", "_dst", "_weights", "__dict__")

    def __init__(self, nodes=(), edges=None, source_id: str = ""):
        edges = dict(edges) if edges else {}
        nodes = frozenset(nodes)
        for node in nodes:
            if not isinstance(node, str):
                raise SchemaError(f"node {node!r} is not a string")
        if not isinstance(source_id, str):
            raise SchemaError(f"source_id {source_id!r} is not a string")
        for (src, dst), weight in edges.items():
            if src not in nodes or dst not in nodes:
                raise SchemaError(f"edge ({src!r}, {dst!r}) has an endpoint outside the node set")
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise SchemaError(f"edge ({src!r}, {dst!r}) has invalid weight {weight!r}")
        self._setup(nodes, source_id, *_sorted_lists(nodes, edges))

    @classmethod
    def _trusted(cls, nodes: frozenset, source_id: str, tokens: list, src: list, dst: list,
                 weights: list) -> BigramGraph:
        """The graph over ``nodes`` with the canonical lists as given: no checks, no copies.

        The caller guarantees the class invariants, that ``tokens`` is
        ``nodes`` sorted, that the ``(src[k], dst[k])`` pairs strictly
        ascend and that equal indices are one int object, and hands over
        lists it no longer mutates.
        """
        graph = cls.__new__(cls)
        graph._setup(nodes, source_id, tokens, src, dst, weights)
        return graph

    def _setup(self, nodes, source_id, tokens, src, dst, weights) -> None:
        self.nodes = nodes
        self.source_id = source_id
        self._tokens = tokens
        self._src = src
        self._dst = dst
        self._weights = weights

    @cached_property
    def edges(self) -> dict[tuple[str, str], int]:
        """The edge map ``(src, dst) -> weight`` in token order."""
        at = self._tokens.__getitem__
        return dict(zip(zip(map(at, self._src), map(at, self._dst)), self._weights))

    @cached_property
    @gc_paused
    def _adjacency(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """The successor and predecessor maps ``(succ, pred)``."""
        tokens, src, dst = self._tokens, self._src, self._dst
        outs: list[list[str]] = [[] for _ in tokens]
        ins: list[list[str]] = [[] for _ in tokens]
        for i, j in zip(src, dst):
            outs[i].append(tokens[j])
        for i, j in zip(src, dst):
            ins[j].append(tokens[i])
        return ({tokens[v]: tuple(ns) for v, ns in enumerate(outs) if ns},
                {tokens[v]: tuple(ns) for v, ns in enumerate(ins) if ns})

    @cached_property
    @gc_paused
    def _index(self) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
        """The integer index ``(tokens, arcs)``.

        ``tokens`` is the sorted node tuple, so index order is token order
        and every lexicographic tie-break reads the same on indices.
        ``arcs[i]`` lists the ascending successor indices of ``tokens[i]``
        and then its ascending predecessor indices: ``arcs`` on indices.
        """
        tokens, src, dst = self._tokens, self._src, self._dst
        # the arcs share the columns' int objects, one per index
        arcs: list = [[] for _ in tokens]
        for i, j in zip(src, dst):
            arcs[i].append(j)
        for i, j in zip(src, dst):
            arcs[j].append(i)
        for i, ns in enumerate(arcs):
            arcs[i] = tuple(ns)  # each list is freed as its tuple is made
        return tuple(tokens), tuple(arcs)

    def _induced(self, nodes: frozenset) -> BigramGraph:
        """The subgraph ``nodes`` induces, its columns re-indexed from this graph's.

        A token's rank among ``nodes`` grows with its index here, so the
        re-indexed entries still strictly ascend: nothing is sorted.
        """
        tokens = [t for t in self._tokens if t in nodes]
        rank = dict(zip(tokens, range(len(tokens))))
        ranks = list(map(rank.get, self._tokens))  # None for a token not in ``nodes``
        src = list(map(ranks.__getitem__, self._src))
        dst = list(map(ranks.__getitem__, self._dst))
        kept = [i is not None and j is not None for i, j in zip(src, dst)]
        return BigramGraph._trusted(nodes, self.source_id, tokens, list(compress(src, kept)),
                                    list(compress(dst, kept)),
                                    list(compress(self._weights, kept)))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def bigram_total(self) -> int:
        """Total number of bi-gram occurrences (sum of edge weights)."""
        return sum(self._weights)

    def successors(self, token: str) -> tuple[str, ...]:
        return self._adjacency[0].get(token, ())

    def predecessors(self, token: str) -> tuple[str, ...]:
        return self._adjacency[1].get(token, ())

    def arcs(self, token: str) -> tuple[str, ...]:
        """Successors then predecessors: one entry per distinct edge end.

        This is the total-degree convention every module shares. A
        self-loop lists the token twice, and a reciprocal pair lists the
        neighbour twice.
        """
        return self.successors(token) + self.predecessors(token)

    def degree(self, token: str) -> int:
        """Unweighted total degree: the length of ``arcs(token)``."""
        succ, pred = self._adjacency
        return len(succ.get(token, ())) + len(pred.get(token, ()))

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self.edges

    def weight(self, src: str, dst: str) -> int:
        """Weight of edge (src, dst); 0 when the edge is absent."""
        return self.edges.get((src, dst), 0)

    def canonical_bytes(self) -> bytes:
        """Canonical on-disk bytes: sorted nodes, index-based edges sorted by index pair."""
        # spelled straight from the columns: a tuple per edge for json.dumps doubled the peak
        entries = ",".join(map("[{},{},{}]".format, self._src, self._dst, self._weights))
        return _head(self.source_id, self._tokens) + entries.encode() + b"]}\n"

    @cached_property
    def _hash(self) -> str:
        return sha256_hex(self.canonical_bytes())

    def content_hash(self) -> str:
        """SHA-256 of the canonical bytes, computed once per graph."""
        return self._hash

    def __eq__(self, other) -> bool:
        """Same ``source_id``, nodes and weighted edges: a graph's canonical lists are unique."""
        if not isinstance(other, BigramGraph):
            return NotImplemented
        return (self.source_id == other.source_id and self._tokens == other._tokens
                and self._src == other._src and self._dst == other._dst
                and self._weights == other._weights)

    def __hash__(self):
        return hash(self.content_hash())

    def __repr__(self) -> str:
        return (f"BigramGraph(nodes={self.node_count}, edges={self.edge_count}, "
                f"source_id={self.source_id!r})")


@gc_paused
def build_graph(corpus: Corpus) -> BigramGraph:
    """Build the bi-gram graph of a corpus.

    Nodes are all tokens appearing in at least one document; each edge
    weight counts occurrences of that adjacent pair across documents.
    An empty corpus yields an empty graph.
    """
    counts = Counter(chain.from_iterable(pairwise(doc.tokens) for doc in corpus.docs))
    nodes = corpus.vocabulary()
    return BigramGraph._trusted(nodes, corpus.source_id, *_sorted_lists(nodes, counts))


def _merge_source_ids(a: str, b: str) -> str:
    parts = (set(a.split("+")) | set(b.split("+"))) - {""}
    return "+".join(sorted(parts))


def merge(a: BigramGraph, b: BigramGraph) -> BigramGraph:
    """Union of node sets with summed edge weights.

    Associative and commutative; the empty graph is the identity, and
    merging the graphs of two corpus shards equals building the graph
    of the concatenated corpus.
    """
    counts = Counter(a.edges)
    counts.update(b.edges)
    nodes = a.nodes | b.nodes
    return BigramGraph._trusted(nodes, _merge_source_ids(a.source_id, b.source_id),
                                *_sorted_lists(nodes, counts))


def save_graph(g: BigramGraph, path) -> None:
    """Write the canonical graph JSON (atomic write-then-rename)."""
    atomic_write_bytes(path, g.canonical_bytes())


def load_graph(path) -> BigramGraph:
    """Load a graph file; the round trip through save_graph is exact.

    Raises SchemaError on undecodable content, version mismatch,
    malformed structure, dangling edge endpoints, duplicate edges, or
    invalid weights.
    """
    return graph_from_bytes(Path(path).read_bytes(), str(path))


# After the head, the canonical bytes are the edge entries and the array's
# end, made only of these characters, then the object's end and a newline.
# JSON allows no leading zero, so an array of non-negative integer triples
# spelled with no other character is spelled compactly, the one canonical way.
_EDGE_ARRAY_BYTES = b"0123456789,[]"


@gc_paused
def graph_from_bytes(data: bytes, name: str = "<bytes>") -> BigramGraph:
    """The graph a graph file's bytes hold, as ``graph_from_payload`` checks it.

    When the payload is canonical and ``data`` spells it as ``save_graph``
    would (``data`` starts with the graph's ``_head``, and the edges use
    only digits, commas and brackets), ``data`` are the graph's canonical
    bytes, and its content hash is theirs: no dump.
    """
    payload = parse_json_bytes(data, name)
    graph = graph_from_payload(payload, name)
    canonical = graph._tokens is payload["nodes"]  # the canonical route keeps the nodes list
    del payload  # the parsed rows go before the spelling is tested: a lower peak
    if canonical:
        head = _head(graph.source_id, graph._tokens)
        if (data.startswith(head) and data.endswith(b"}\n")
                and not data[len(head):-2].translate(None, _EDGE_ARRAY_BYTES)):
            graph._hash = sha256_hex(data)
    return graph


@gc_paused
def graph_from_payload(payload, name: str = "<payload>") -> BigramGraph:
    """Validate a parsed graph payload and construct the graph.

    One loop checks the edge entries in file order and raises the first
    error it meets; an entry's checks run in this order: its shape, its
    ints, its index range, a repeated ``(i, j)``, its weight. While the
    entries strictly ascend by ``(i, j)`` none can repeat, and each valid
    entry passes one combined test; where ascent first breaks, the loop
    starts keeping the pairs met. A payload in canonical order (nodes
    strictly ascending too), as every file ``save_graph`` writes is, hands
    its ``nodes`` list over as the graph's tokens, and its ``edges`` rows
    are split into the graph's columns and no longer referenced. The
    caller no longer mutates ``nodes``, as with ``BigramGraph._trusted``.
    Any other valid payload is sorted once.
    """
    check_version(payload, GRAPH_SCHEMA_VERSION, name, "graph")
    nodes = payload.get("nodes")
    edges = payload.get("edges")
    source_id = payload.get("source_id", "")
    if not isinstance(nodes, list) or not all(isinstance(t, str) for t in nodes):
        raise SchemaError(f"{name}: 'nodes' must be a list of strings")
    node_set = frozenset(nodes)
    if len(node_set) != len(nodes):
        raise SchemaError(f"{name}: duplicate node entries")
    if not isinstance(edges, list):
        raise SchemaError(f"{name}: 'edges' must be a list")
    if not isinstance(source_id, str):
        raise SchemaError(f"{name}: 'source_id' must be a string")
    count = len(nodes)
    seen = None  # the (i, j) pairs met so far, kept once their ascent breaks
    last_i = last_j = -1
    entries = iter(edges)
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"{name}: edge entry {entry!r} is not [src, dst, weight]")
        i, j, w = entry
        if (type(i) is type(j) is type(w) is int and 0 <= i < count and 0 <= j < count
                and w > 0 and (i > last_i or i == last_i and j > last_j)):
            last_i, last_j = i, j  # a valid entry, still in strict ascent
            continue
        if not (type(i) is type(j) is type(w) is int):  # JSON true/false parse as bool
            raise SchemaError(f"{name}: edge entry {entry!r} is not [src, dst, weight]")
        if not (0 <= i < count and 0 <= j < count):
            raise SchemaError(f"{name}: edge {entry!r} references an absent node")
        if not (i > last_i or i == last_i and j > last_j):  # out of ascent: it may repeat a pair
            if seen is None:  # ascent breaks at this entry: keep the pairs of those before it
                seen = {(e[0], e[1]) for e in edges[:len(edges) - length_hint(entries) - 1]}
                last_i = count  # no later entry ascends, so each one is checked here
            if (i, j) in seen:
                raise SchemaError(f"{name}: duplicate edge {(nodes[i], nodes[j])!r}")
            seen.add((i, j))
        if w < 1:
            raise SchemaError(f"{name}: edge {entry!r} has non-positive weight")
    if seen is None and all(map(lt, nodes, nodes[1:])):
        at = list(range(count)).__getitem__  # one shared int per index
        return BigramGraph._trusted(node_set, source_id, nodes,
                                    list(map(at, map(itemgetter(0), edges))),
                                    list(map(at, map(itemgetter(1), edges))),
                                    list(map(itemgetter(2), edges)))
    edge_map = {(nodes[i], nodes[j]): w for i, j, w in edges}
    return BigramGraph._trusted(node_set, source_id, *_sorted_lists(node_set, edge_map))
