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

A graph does its derived work only when a caller first reads it, and
every piece of it starts from one canonical form: the sorted tokens and
the ascending ``(i, j, w)`` edge list of the graph file. The sorted
successor and predecessor tuples are built on the first adjacency
query. The content hash is computed on the first ``content_hash``
call. The integer index that coloring and peeling run on is built on
their first read, in two passes over the canonical edge list and with
no sort of its own.

The canonical lists come from a loaded canonical file itself, or else
from one sort. A loaded file's lists are released on the first hash,
adjacency or index read. Lists that the first hash sorted are kept for
the index build, which releases them; a hash read after the lists are
gone sorts the graph again, to the same bytes.
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

    # _succ and _pred are None until the first adjacency query (see
    # _adjacency), _index until the first _indexed call. _kept is a
    # canonical (nodes, edges) pair: a loaded canonical file's own lists,
    # held until the first content_hash, adjacency or index read, or the
    # lists the first content_hash sorted, held until the index is built.
    __slots__ = ("nodes", "edges", "source_id", "_succ", "_pred", "_index", "_hash", "_kept")

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
    def _trusted(cls, nodes: frozenset, edges: dict, source_id: str) -> BigramGraph:
        """The graph over ``nodes`` and ``edges`` as given: no checks, no copies.

        The caller guarantees the class invariants and hands over a
        frozenset and a plain dict it no longer mutates.
        """
        graph = cls.__new__(cls)
        graph._setup(nodes, edges, source_id)
        return graph

    def _setup(self, nodes, edges, source_id) -> None:
        self.nodes = nodes
        self.edges = edges
        self.source_id = source_id
        self._succ = self._pred = self._index = self._hash = self._kept = None

    def _adjacency(self) -> None:
        """Drop any kept lists; build and publish the successor and predecessor tuples."""
        self._kept = None
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
        """Drop any kept lists; build and publish the index from the canonical lists."""
        nodes, edges = self._canonical()
        self._kept = None
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
        return index

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
        return nodes, sorted((index[s], index[d], w) for (s, d), w in self.edges.items())

    def canonical_bytes(self) -> bytes:
        """Canonical on-disk bytes: sorted nodes, index-based edges sorted by index pair."""
        return canonical_json_bytes(_payload(self.source_id, *self._canonical()))

    def content_hash(self) -> str:
        """SHA-256 of the canonical bytes, computed at most once per graph.

        A loaded file's kept lists are dropped here. Lists this call
        sorts are kept for the index build, unless the index is built.
        """
        if self._hash is None:
            kept = self._kept
            canonical = self._canonical()
            self._hash = sha256_hex(canonical_json_bytes(_payload(self.source_id, *canonical)))
            self._kept = None if kept is not None or self._index is not None else canonical
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


def _strictly_ascending(items: list) -> bool:
    return all(map(lt, items, items[1:]))


def graph_from_payload(payload, name: str = "<payload>") -> BigramGraph:
    """Validate a parsed graph payload and construct the graph.

    Each edge entry is checked once. A payload already in canonical
    order (nodes and edge entries strictly ascending), as every file
    ``save_graph`` writes is, is its own canonical form: the graph keeps
    its ``nodes`` and ``edges`` lists, and the first ``content_hash``
    call dumps them, or the first index read numbers them, instead of
    sorting the graph again. The first hash, adjacency or index read
    drops them. The caller hands those lists over and
    no longer mutates them, as with ``BigramGraph._trusted``. Any other
    valid payload loads too and is sorted and dumped when its hash is
    first read.
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
    graph = BigramGraph._trusted(node_set, edge_map, source_id)
    if _strictly_ascending(nodes) and _strictly_ascending(edges):
        graph._kept = nodes, edges
    return graph
