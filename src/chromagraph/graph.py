"""Weighted directed bi-gram graph: construction, queries, persistence.

Nodes are the unique tokens of a corpus; a directed edge (u, v) carries
the number of times v immediately follows u inside a single document.
Adjacent-token windows never cross document boundaries. A finished
graph is immutable and safe for unlimited concurrent readers.

Untrusted input has two validating entry points: ``BigramGraph(...)``
for in-memory nodes and edges, and ``graph_from_payload`` (behind
``load_graph``) for parsed graph files. Both check every edge once and
then use the trusted construction ``BigramGraph._trusted``, which
``build_graph``, ``merge`` and ``extract_kcore`` call directly because
their input cannot fail the checks.

A graph does its derived work only when a caller first reads it. The
sorted successor and predecessor tuples are built on the first adjacency
query, the content hash on the first ``content_hash`` call, and the
integer index that coloring and peeling use on their first read.

The edges exist in one or both of two forms: the string map ``edges``,
``(src, dst) -> weight``, and the canonical lists, the sorted tokens and
the ascending ``(i, j, w)`` entries of the graph file. A loaded
canonical file starts with its own lists alone, any other graph with
the map alone, and each form is built from the other when it is first
needed: the map on the first read of ``edges``, the lists by the first
hash, which sorts once and keeps them for the index. The hash, the
index and ``edge_count`` read whichever form exists. The one release
rule: the lists go when the map exists and the index is built, and on
every adjacency build, which reads the map; never while the map does
not exist. So a loaded file is hashed and indexed from its own lists,
and a hash read after the lists are gone sorts the graph again, to the
same bytes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, pairwise
from operator import lt

from ._files import (SchemaError, atomic_write_bytes, canonical_json_bytes, check_version,
                     read_json, sha256_hex)
from .corpus import Corpus

GRAPH_SCHEMA_VERSION = 1


def _payload(source_id: str, nodes: list, edges: list) -> dict:
    """The graph file's schema object, its keys in file order."""
    return {"version": GRAPH_SCHEMA_VERSION, "source_id": source_id, "nodes": nodes,
            "edges": edges}


class BigramGraph:
    """Immutable weighted directed simple graph over token strings.

    Every edge endpoint is a node, every weight is a positive integer,
    and (src, dst) appears at most once: the weight is the multiplicity.
    Self-loops (a token following itself) are stored with their count.
    The constructor checks these invariants and raises SchemaError.
    """

    # _edges is the string edge map and _kept the canonical (nodes, edges)
    # lists; at least one of them is set (see the module docstring for
    # when each is built and released). _kept is released only after
    # _edges is published, so a reader that reads _kept before _edges
    # finds one of them set. _succ and _pred are None until the first
    # adjacency query (see _adjacency), _index until the first _indexed call.
    __slots__ = ("nodes", "source_id", "_edges", "_kept", "_succ", "_pred", "_index", "_hash")

    def __init__(self, nodes=(), edges=None, source_id: str = ""):
        edges = dict(edges) if edges else {}
        nodes = frozenset(nodes)
        for (src, dst), weight in edges.items():
            if src not in nodes or dst not in nodes:
                raise SchemaError(f"edge ({src!r}, {dst!r}) has an endpoint outside the node set")
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise SchemaError(f"edge ({src!r}, {dst!r}) has invalid weight {weight!r}")
        self._setup(nodes, edges, source_id)

    @classmethod
    def _trusted(cls, nodes: frozenset, edges: dict | None, source_id: str,
                 kept: tuple[list, list] | None = None) -> BigramGraph:
        """The graph over ``nodes`` and ``edges`` as given: no checks, no copies.

        The caller guarantees the class invariants and hands over a
        frozenset and a plain dict it no longer mutates, or None for
        ``edges`` and the canonical ``(nodes, edges)`` lists as ``kept``.
        """
        graph = cls.__new__(cls)
        graph._setup(nodes, edges, source_id, kept)
        return graph

    def _setup(self, nodes, edges, source_id, kept=None) -> None:
        self.nodes = nodes
        self.source_id = source_id
        self._edges = edges
        self._kept = kept
        self._succ = self._pred = self._index = self._hash = None

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        """The edge map ``(src, dst) -> weight``; a loaded file's is built on first read."""
        kept = self._kept  # read first: the lists go only after the map is published
        edges = self._edges
        return self._edge_map(kept) if edges is None else edges

    def _edge_map(self, kept: tuple[list, list]) -> dict[tuple[str, str], int]:
        """Build and publish the map from the kept lists; release them if the index exists."""
        tokens, entries = kept
        edges = self._edges = {(tokens[i], tokens[j]): w for i, j, w in entries}
        if self._index is not None:
            self._kept = None
        return edges

    def _edges_within(self, nodes: frozenset) -> dict[tuple[str, str], int]:
        """The edges with both ends in ``nodes``, read from whichever form exists."""
        kept = self._kept
        edges = self._edges
        if edges is not None:
            return {(s, d): w for (s, d), w in edges.items() if s in nodes and d in nodes}
        tokens, entries = kept
        inside = [t in nodes for t in tokens]
        return {(tokens[i], tokens[j]): w for i, j, w in entries if inside[i] and inside[j]}

    def _adjacency(self) -> None:
        """Build and publish the successor and predecessor tuples; release any kept lists."""
        outs: defaultdict[str, list[str]] = defaultdict(list)
        ins: defaultdict[str, list[str]] = defaultdict(list)
        for src, dst in self.edges:
            outs[src].append(dst)
            ins[dst].append(src)
        for ns in chain(outs.values(), ins.values()):
            ns.sort()
        # _succ is published last, so a reader that finds it set finds
        # both maps complete; one that finds it unset builds its own
        self._pred = {v: tuple(ns) for v, ns in ins.items()}
        self._succ = {v: tuple(ns) for v, ns in outs.items()}
        self._kept = None  # the loop above read the map, so it exists

    def _indexed(self) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
        """The integer index ``(tokens, arcs)``, built on the first call.

        ``tokens`` is the sorted node tuple, so index order is token order
        and every lexicographic tie-break reads the same on indices.
        ``arcs[i]`` lists the ascending successor indices of ``tokens[i]``
        and then its ascending predecessor indices: ``arcs`` on indices.
        """
        index = self._index
        if index is None:
            index = self._build_index()
        return index

    def _build_index(self) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
        """Build and publish the index from the canonical lists; release them if the map exists."""
        nodes, edges = self._canonical()
        # one int object per index for every arc to share: a parsed file
        # holds a separate int for each number in its edge entries
        ids = list(range(len(nodes)))
        arcs: list = [[] for _ in nodes]
        # the edges ascend by (i, j): the first pass appends each node's
        # successors in ascending order, the second its predecessors
        for i, j, _ in edges:
            arcs[i].append(ids[j])
        for i, j, _ in edges:
            arcs[j].append(ids[i])
        for i, ns in enumerate(arcs):
            arcs[i] = tuple(ns)  # each list is freed as its tuple is made
        # one assignment publishes the whole index; a reader that finds it
        # unset builds its own, to the same tuples
        index = self._index = (tuple(nodes), tuple(arcs))
        if self._edges is not None:
            self._kept = None
        return index

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        kept = self._kept
        return len(self._edges) if kept is None else len(kept[1])

    def bigram_total(self) -> int:
        """Total number of bi-gram occurrences (sum of edge weights)."""
        return sum(self.edges.values())

    # Each query tests the slot instead of using __getattr__: a class that
    # defines __getattr__ loses the interpreter's fast slot reads.
    def successors(self, token: str) -> tuple[str, ...]:
        if self._succ is None:
            self._adjacency()
        return self._succ.get(token, ())

    def predecessors(self, token: str) -> tuple[str, ...]:
        if self._succ is None:
            self._adjacency()
        return self._pred.get(token, ())

    def arcs(self, token: str) -> tuple[str, ...]:
        """Successors then predecessors: one entry per distinct edge end.

        This is the total-degree convention every module shares. A
        self-loop lists the token twice, and a reciprocal pair lists the
        neighbour twice.
        """
        return self.successors(token) + self.predecessors(token)

    def degree(self, token: str) -> int:
        """Unweighted total degree: the length of ``arcs(token)``."""
        if self._succ is None:
            self._adjacency()
        return len(self._succ.get(token, ())) + len(self._pred.get(token, ()))

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self.edges

    def weight(self, src: str, dst: str) -> int:
        """Weight of edge (src, dst); 0 when the edge is absent."""
        return self.edges.get((src, dst), 0)

    def _canonical(self) -> tuple[list, list]:
        """Sorted nodes and ascending ``(i, j, w)`` edges: the kept pair, else one sort."""
        kept = self._kept
        if kept is not None:
            return kept
        nodes = sorted(self.nodes)
        index = {token: i for i, token in enumerate(nodes)}
        # tuples sort faster than lists, and json.dumps writes both as arrays
        return nodes, sorted((index[s], index[d], w) for (s, d), w in self._edges.items())

    def canonical_bytes(self) -> bytes:
        """Canonical on-disk bytes: sorted nodes, index-based edges sorted by index pair."""
        return canonical_json_bytes(_payload(self.source_id, *self._canonical()))

    def content_hash(self) -> str:
        """SHA-256 of the canonical bytes, computed at most once per graph.

        Lists this call sorts are kept for the index build, unless the
        index is built already.
        """
        if self._hash is None:
            canonical = self._canonical()
            self._hash = sha256_hex(canonical_json_bytes(_payload(self.source_id, *canonical)))
            if self._index is None:
                self._kept = canonical
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigramGraph):
            return NotImplemented
        return (self.nodes == other.nodes and self.edges == other.edges
                and self.source_id == other.source_id)

    def __hash__(self):
        return hash(self.content_hash())

    def __repr__(self) -> str:
        return (f"BigramGraph(nodes={self.node_count}, edges={self.edge_count}, "
                f"source_id={self.source_id!r})")


def build_graph(corpus: Corpus) -> BigramGraph:
    """Build the bi-gram graph of a corpus.

    Nodes are all tokens appearing in at least one document; each edge
    weight counts occurrences of that adjacent pair across documents.
    An empty corpus yields an empty graph.
    """
    counts = Counter(chain.from_iterable(pairwise(doc.tokens) for doc in corpus.docs))
    return BigramGraph._trusted(corpus.vocabulary(), dict(counts), corpus.source_id)


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
    return BigramGraph._trusted(a.nodes | b.nodes, dict(counts),
                                _merge_source_ids(a.source_id, b.source_id))


def save_graph(g: BigramGraph, path) -> None:
    """Write the canonical graph JSON (atomic write-then-rename)."""
    atomic_write_bytes(path, g.canonical_bytes())


def load_graph(path) -> BigramGraph:
    """Load a graph file; the round trip through save_graph is exact.

    Raises SchemaError on undecodable content, version mismatch,
    malformed structure, dangling edge endpoints, duplicate edges, or
    invalid weights.
    """
    return graph_from_payload(read_json(path), str(path))


def _canonical_entries(edges: list, count: int) -> bool:
    """Whether every entry is a valid ``[i, j, w]`` and the ``(i, j)`` pairs strictly ascend.

    Strict ascent rules out duplicate edges. The loop allocates nothing.
    """
    last_i = last_j = -1
    for entry in edges:
        if type(entry) is not list or len(entry) != 3:
            return False
        i, j, w = entry
        if not (type(i) is type(j) is type(w) is int and 0 <= i < count and 0 <= j < count
                and w > 0 and (i > last_i or i == last_i and j > last_j)):
            return False
        last_i, last_j = i, j
    return True


def graph_from_payload(payload, name: str = "<payload>") -> BigramGraph:
    """Validate a parsed graph payload and construct the graph.

    A payload in canonical order (nodes strictly ascending, edge entries
    strictly ascending by ``(src, dst)``), as every file ``save_graph``
    writes is, is checked in one pass that builds nothing, and the graph
    keeps its ``nodes`` and ``edges`` lists as its edges: its hash and
    index read them, and the string map is built on the first read of
    ``edges``. The caller hands those lists over and no longer mutates
    them, as with ``BigramGraph._trusted``. Any other payload, valid or
    not, is checked entry by entry as it builds the string map, so each
    error is the first one that pass meets.
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
    if all(map(lt, nodes, nodes[1:])) and _canonical_entries(edges, count):
        return BigramGraph._trusted(node_set, None, source_id, (nodes, edges))
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
    return BigramGraph._trusted(node_set, edge_map, source_id)
